"""Measurement and diagnostics for walk states.

Covers probability distributions, the reduced coin matrix and its
entropy, Schmidt extraction of the two cat branches, packet widths, coin
projection with momentum-space fringe analysis, bimodality metrics, and
the time-reversal revival protocols.  Each protocol is a ``Schedule``
whose fidelity to the start is read from its own run, through
``channels.fidelity_trace``, on one BLAS thread; none builds a final
state only to measure it, and no read changes the run: closed, each value
is ``lattice.fidelity`` of a snapshot ``walk.evolve`` hands its ``read``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import (
    COIN_SYMMETRIC,
    DensityOperator,
    LatticeConfig,
    PureState,
    StateError,
    localized_state,
    make_lattice,
    to_momentum,
    to_position,
)
from .walk import SIGMA_Y, Schedule, reversal_pair
from .channels import ChannelSpec, fidelity_trace
from .spectral import _gauge_fix

DEGENERACY_GAP = 0.05
# a local maximum below this fraction of the highest is rounding noise, no peak
PEAK_FLOOR = 1e-12
PROJECTION_NORM_TOL = 1e-12
NULL_WEIGHT = 1e-15  # a coin eigenvalue or Schmidt weight at or below it is zero
FRINGE_OVERSAMPLE = 8  # padded lattice over the state's, for the fringe DFT

REVERSER_EXACT = "exact"
REVERSER_SIGMA_Y = "sigma_y"


def position_distribution(state) -> np.ndarray:
    """P(x) = sum_c |psi(x, c)|^2, or the walker diagonal of rho."""
    if isinstance(state, DensityOperator):
        n = state.lattice.n_sites
        idx = np.arange(n)
        diag = state.matrix[idx, :, idx, :]
        return np.real(diag[:, 0, 0] + diag[:, 1, 1])
    return np.sum(np.abs(state.amplitudes) ** 2, axis=1)


def reduced_coin(state) -> np.ndarray:
    """2x2 reduced density matrix of the coin (partial trace over walker)."""
    if isinstance(state, DensityOperator):
        return np.einsum("xcxd->cd", state.matrix)
    amp = state.amplitudes
    return np.einsum("xc,xd->cd", amp, amp.conj())


def entanglement_entropy(state) -> float:
    """Von Neumann entropy of the reduced coin, in bits."""
    lams = np.linalg.eigvalsh(reduced_coin(state))
    lams = np.clip(lams.real, 0.0, 1.0)
    nz = lams[lams > NULL_WEIGHT]
    return float(-np.sum(nz * np.log2(nz)) + 0.0)  # + 0.0: a pure coin reads 0, not -0


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Biorthogonal split psi = sqrt(l1) X (x) phi + sqrt(l2) Xp (x) phi_perp.

    ``x_state`` is the branch with the larger mean position.  When the two
    weights are nearly equal the coin eigenbasis is arbitrary; the gauge is
    then fixed by diagonalizing the position-weighted coin matrix, which
    separates the left- and right-moving branches.
    """

    weights: tuple[float, float]
    phi: np.ndarray
    phi_perp: np.ndarray
    x_state: np.ndarray
    x_perp_state: np.ndarray
    degenerate: bool


def schmidt_components(state: PureState) -> SchmidtDecomposition:
    """Extract the two Schmidt branches of a walker-coin pure state."""
    amp = state.amplitudes
    sites = state.lattice.sites
    rc = reduced_coin(state)
    vals, vecs = np.linalg.eigh(rc)
    vals = np.clip(vals.real, 0.0, 1.0)
    degenerate = float(vals[1] - vals[0]) < DEGENERACY_GAP
    if degenerate:
        # Weight the coin matrix by position to break the tie along the
        # axis that actually distinguishes the branches.
        a = np.einsum("x,xc,xd->cd", sites.astype(float), amp, amp.conj())
        _, vecs = np.linalg.eigh(a)

    basis = [_gauge_fix(vecs[:, i].astype(complex)) for i in range(2)]

    branches = []
    for phi in basis:
        walker = amp @ phi.conj()  # <phi|Psi>(x), unnormalized
        w = float(np.sum(np.abs(walker) ** 2))
        mean = float(np.sum(sites * np.abs(walker) ** 2) / w) if w > NULL_WEIGHT else 0.0
        xs = walker / np.sqrt(w) if w > NULL_WEIGHT else walker
        branches.append((w, mean, phi, xs))

    if degenerate:
        branches.sort(key=lambda b: -b[1])
    else:
        branches.sort(key=lambda b: -b[0])
    (w1, _, phi1, x1), (w2, _, phi2, x2) = branches
    return SchmidtDecomposition((w1, w2), phi1, phi2, x1, x2, degenerate)


def packet_width(prob: np.ndarray, sites: np.ndarray) -> float:
    """Second-central-moment width of a distribution over sites."""
    prob = np.asarray(prob, dtype=float)
    total = prob.sum()
    mu = np.sum(sites * prob) / total
    return float(np.sqrt(np.sum(prob * (sites - mu) ** 2) / total))


def component_widths(state: PureState) -> tuple[float, float]:
    """Widths of the two Schmidt branches' own distributions; a branch of
    weight at most NULL_WEIGHT, as a product state has, has width nan."""
    dec = schmidt_components(state)
    sites = state.lattice.sites
    return tuple(packet_width(np.abs(x) ** 2, sites) if w > NULL_WEIGHT else np.nan
                 for w, x in zip(dec.weights, (dec.x_state, dec.x_perp_state)))


def project_coin(state: PureState, chi_prime) -> tuple[np.ndarray, float]:
    """Project on a coin state; returns (normalized walker state, success).

    Success probability is the squared norm of <chi'|Psi> before
    normalization.
    """
    v = chi_prime.as_array() if hasattr(chi_prime, "as_array") else np.asarray(chi_prime, dtype=complex)
    walker = state.amplitudes @ v.conj()
    success = float(np.sum(np.abs(walker) ** 2))
    if success < PROJECTION_NORM_TOL:
        raise StateError(f"projection norm {success:.3e} below threshold")
    return walker / np.sqrt(success), success


@dataclass(frozen=True)
class FringeResult:
    momenta: np.ndarray
    distribution: np.ndarray
    spacing: float | None
    visibility: float


def _find_peaks(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of a 1-D array, as scipy.signal.find_peaks.

    A peak is a run of equal values (a flat top counts once, at index
    (left + right) // 2) with a strictly lower neighbour on each side, so a
    run touching either end is no peak.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    change = np.flatnonzero(x[1:] != x[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change - 1, [x.size - 1]))
    level = x[starts]
    inner = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    return (starts[1:-1][inner] + ends[1:-1][inner]) // 2


def momentum_fringes(lattice: LatticeConfig, walker: np.ndarray) -> FringeResult:
    """Momentum distribution of a walker-only state with fringe metrics.

    The state is zero-padded to ``FRINGE_OVERSAMPLE`` times the lattice,
    about its centre, before the DFT so that narrow fringes are resolved;
    the momenta are the padded lattice's.  Fringe spacing comes from the
    first off-zero peak of the distribution's autocorrelation, taken through
    the DFT; visibility is the extremal contrast inside the envelope's
    half-maximum region.  A distribution with no interior oscillation
    reports spacing None and visibility 0.
    """
    padded = make_lattice(FRINGE_OVERSAMPLE * lattice.n_sites)
    m = padded.n_sites
    buf = np.zeros(m, dtype=complex)
    buf[m // 2 + lattice.sites] = walker  # site x at index x + m/2, as on the padded lattice
    prob = np.abs(to_momentum(buf, out=buf)) ** 2
    prob = prob / prob.sum()
    dk = 2.0 * np.pi / m
    momenta = padded.momenta

    # envelope through the local maxima, then its half-max region
    peak_idx = _find_peaks(prob)
    if peak_idx.size >= 2:
        envelope = np.interp(np.arange(m), peak_idx, prob[peak_idx])
    else:
        envelope = prob
    half = envelope >= 0.5 * envelope.max()
    region = np.flatnonzero(half)

    inner = prob[region[0] : region[-1] + 1]
    maxima = _find_peaks(inner)
    minima = _find_peaks(-inner)
    if maxima.size < 2 or minima.size < 1:
        return FringeResult(momenta, prob, None, 0.0)
    hi = float(np.mean(inner[maxima]))
    lo = float(np.mean(inner[minima]))
    visibility = (hi - lo) / (hi + lo)

    # the autocorrelation through the DFT, zero-padded to 2m so that no lag
    # wraps around: lag l lands at index m + l of the 2m sites
    ac = np.zeros(2 * m, dtype=complex)
    ac[:m] = prob
    ac = to_position(np.abs(to_momentum(ac, out=ac)) ** 2).real[m:]
    ac_peaks = _find_peaks(ac)
    spacing = float(ac_peaks[0] * dk) if ac_peaks.size else None
    return FringeResult(momenta, prob, spacing, float(visibility))


@dataclass(frozen=True)
class CatMetrics:
    left_peak: int
    right_peak: int
    left_mass: float
    right_mass: float
    residual: float
    separation: int
    mass_balance: float
    bimodal: bool


def cat_metrics(prob: np.ndarray, sites: np.ndarray) -> CatMetrics:
    """Bimodality metrics of a distribution over sites.

    Peaks are local maxima that reach ``PEAK_FLOOR`` of the highest: the
    highest, then the highest at least 5 sites from it, the leftmost on an
    exact height tie each time; residual is the mass in the
    central 20% of the inter-peak interval; masses are split at the
    midpoint and balance is their min/max ratio.
    """
    prob = np.asarray(prob, dtype=float)
    idx = _find_peaks(prob)
    idx = idx[prob[idx] >= PEAK_FLOOR * prob[idx].max(initial=0.0)]
    # np.argmax takes the first, so the leftmost, of equal heights
    top = idx[np.argmax(prob[idx])] if idx.size else 0
    far = idx[np.abs(idx - top) >= 5]
    if far.size == 0:
        peak = int(sites[int(np.argmax(prob))])
        return CatMetrics(peak, peak, 1.0, 0.0, 0.0, 0, 0.0, False)
    a, b = sorted((top, far[np.argmax(prob[far])]))
    left, right = int(sites[a]), int(sites[b])
    span = right - left
    center = 0.5 * (left + right)
    window = np.abs(sites - center) <= 0.1 * span
    residual = float(prob[window].sum())
    mid = center
    left_mass = float(prob[sites <= mid].sum())
    right_mass = float(prob[sites > mid].sum())
    balance = min(left_mass, right_mass) / max(left_mass, right_mass)
    return CatMetrics(left, right, left_mass, right_mass, residual, span, balance, True)


@dataclass(frozen=True)
class RevivalResult:
    """r, the fidelity at 2T, the fidelity trace at the times the protocol
    was asked for (every step 0..2T by default), and ``layout``, the
    ``channels.MomentumLayout`` the open run stepped (None closed)."""

    r: float
    trace: np.ndarray  # fidelity to the initial state at the asked times
    layout: object | None


def _reversal_schedule(
    theta: float,
    t: int,
    reverser: str,
    hold: int = 0,
    p: int = 1,
    channel: ChannelSpec | None = None,
) -> Schedule:
    """t plain steps, ``hold`` steps with phase 2*pi/p, the reversal gate,
    t plain steps and the closing gate.

    At hold = 0 (n = 0 cycles of the control protocol) this is the revival
    schedule.  ``reverser`` picks the gate pair: the exact (R, R†) of
    ``walk.reversal_pair`` or plain sigma_y twice.
    """
    if reverser == REVERSER_EXACT:
        gate, gate_back = reversal_pair(theta)
    elif reverser == REVERSER_SIGMA_Y:
        gate, gate_back = SIGMA_Y, SIGMA_Y
    else:
        raise ValueError(f"unknown reverser {reverser!r}")
    total = 2 * t + hold
    return Schedule(
        total,
        theta,
        fm_window=(t, t + hold, 2.0 * np.pi / p) if hold > 0 else None,
        coin_gate_insertions=((t + hold, gate), (total, gate_back)),
        channel=channel,
    )


def revival_protocol(
    initial: PureState,
    theta: float,
    T: int,
    channel: ChannelSpec | None = None,
    reverser: str = REVERSER_EXACT,
    times: Sequence[int] | None = None,
) -> RevivalResult:
    """Evolve T steps, reverse, evolve T more, reverse, compare to start.

    With the default gate pair the closed-system revival is exact; the
    plain ``sigma_y`` variant leaves a residual error of order one over
    the squared packet width.  A channel switches to density-operator
    evolution with the channel applied after every step.  The trace comes
    from ``channels.fidelity_trace``, at ``times``, every step 0..2T by
    default, and r is the fidelity after the closing gate, read at 2T
    whatever the times: a run reads at those times alone, so a caller
    that reads only r passes ``times=(2 * T,)``.  ``layout`` is the support
    an open run stepped, as ``fidelity_trace`` returns it, and None closed.
    """
    # 2T is read once more, last, so that r is the fidelity there whatever is asked
    trace, layout = fidelity_trace(initial, _reversal_schedule(theta, T, reverser, channel=channel),
                                   [*(range(2 * T + 1) if times is None else times), 2 * T])
    return RevivalResult(float(trace[-1]), trace[:-1], layout)


def hold_recurrence(theta: float, p: int, n_sites: int = 24) -> float:
    """Fidelity after the nominal recurrence time of generalized steps with
    phase 2*pi/p: p steps for even p and 2p for odd p, on an ``n_sites``
    lattice with a localized start.  It is read at the run's end through
    ``channels.fidelity_trace``, on one BLAS thread.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    steps = p if p % 2 == 0 else 2 * p
    initial = localized_state(make_lattice(n_sites), 0, COIN_SYMMETRIC)
    sched = Schedule(steps, theta, fm_window=(0, steps, 2.0 * np.pi / p))
    return float(fidelity_trace(initial, sched, (sched.total_steps,))[0][0])


def control_protocol(
    initial: PureState,
    theta: float,
    t: int,
    p: int,
    n: int,
    reverser: str = REVERSER_EXACT,
) -> float:
    """Hold-and-release revival: t plain steps, 2np held steps with phase
    2*pi/p, reversal gate, t plain steps, closing gate; returns fidelity
    to the start, read at the run's end through ``channels.fidelity_trace``,
    on one BLAS thread, so that it does not depend on the thread count.

    With n=0 this is exactly the revival protocol at T=t.  With the
    default gate pair the plain legs cancel exactly, so the returned
    value isolates the recurrence quality of the held segment, which
    approaches 1 as p grows (though not monotonically: the per-cycle
    leakage has a resonance structure in p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    sched = _reversal_schedule(theta, t, reverser, hold=2 * n * p, p=p)
    return float(fidelity_trace(initial, sched, (sched.total_steps,))[0][0])
