"""Per-step noise channels on the walk density operator.

Pure dephasing shrinks off-diagonal elements toward the diagonal in a
chosen index (coin, walker, or both); amplitude damping and bit flip act
on the coin through Kraus pairs.  The bath strength eta is per step, so
each application scales coherences by lambda = e^{-eta} and an n-step run
accumulates e^{-eta n}.  ``evolve_open`` advances a density matrix over
steps, through the step loop that ``walk.evolve`` runs inside F_m windows,
in momentum space: every channel here is translation-invariant, so it
either keeps each pair (k, k') on its own (the coin-local ones) or mixes
only the pairs of one line of constant k - k' (walker and both dephasing),
and a start that occupies a narrow band of momenta is stepped on that band
alone.  Every channel here also keeps rho Hermitian, so a run steps only
half the lines of its ring of momenta and takes the others as their
Hermitian mirror.  ``fidelity_trace`` takes a run's fidelity to its start in
its own basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import DensityOperator, PureState, to_momentum
from .walk import (_COIN_PAIRS, SIGMA_X, EvolutionResult, MomentumLayout, Schedule,
                   _apply_coin_map, _coin_map, _conjugate_coins, _run_density, _run_pure)

COMPLETENESS_TOL = 1e-12
# |psi~|^2 a pure start may leave outside its momentum window on each side
SUPPORT_TOL = 1e-30

DEPHASING = "dephasing"
AMPLITUDE_DAMPING = "amplitude_damping"
BIT_FLIP = "bit_flip"

TARGET_COIN = "coin"
TARGET_WALKER = "walker"
TARGET_BOTH = "both"

# the channel vocabulary; config and the scenarios take theirs from here
CHANNEL_KINDS = (DEPHASING, AMPLITUDE_DAMPING, BIT_FLIP)
TARGETS = (TARGET_COIN, TARGET_WALKER, TARGET_BOTH)


class ChannelError(ValueError):
    """Invalid channel parameters."""


@dataclass(frozen=True)
class ChannelSpec:
    """Channel kind, per-step strength eta, and dephasing target."""

    kind: str
    eta: float
    target: str = TARGET_COIN

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ChannelError(f"unknown channel kind {self.kind!r}")
        if not (self.eta >= 0):
            raise ChannelError(f"eta must be >= 0, got {self.eta}")
        if self.target not in TARGETS:
            raise ChannelError(f"unknown target {self.target!r}")
        if self.kind != DEPHASING and self.target != TARGET_COIN:
            raise ChannelError(f"{self.kind} acts on the coin only")


@dataclass(frozen=True)
class KrausPair:
    """Two-element Kraus set {M0, M1} with M0†M0 + M1†M1 = 1."""

    m0: np.ndarray
    m1: np.ndarray

    def __post_init__(self):
        m0 = np.asarray(self.m0, dtype=complex)
        m1 = np.asarray(self.m1, dtype=complex)
        if m0.shape != (2, 2) or m1.shape != (2, 2):
            raise ChannelError("Kraus operators must be 2x2")
        total = m0.conj().T @ m0 + m1.conj().T @ m1
        defect = np.abs(total - np.eye(2)).max()
        if not (defect <= COMPLETENESS_TOL):
            raise ChannelError(
                f"Kraus pair not trace preserving (defect {defect:.3e})"
            )
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "m1", m1)


def amplitude_damping_kraus(eta: float) -> KrausPair:
    """A0 = diag(1, e^{-eta/2}), A1 = sqrt(1 - e^{-eta}) |up><down|."""
    if not (eta >= 0):
        raise ChannelError(f"eta must be >= 0, got {eta}")
    a0 = np.diag([1.0, np.exp(-eta / 2.0)]).astype(complex)
    a1 = np.zeros((2, 2), dtype=complex)
    a1[0, 1] = np.sqrt(1.0 - np.exp(-eta))
    return KrausPair(a0, a1)


def bit_flip_kraus(eta: float) -> KrausPair:
    """B0 = e^{-eta/2} 1, B1 = sqrt(1 - e^{-eta}) sigma_x."""
    if not (eta >= 0):
        raise ChannelError(f"eta must be >= 0, got {eta}")
    b0 = np.exp(-eta / 2.0) * np.eye(2, dtype=complex)
    b1 = np.sqrt(1.0 - np.exp(-eta)) * SIGMA_X
    return KrausPair(b0, b1)


def _coin_superop(spec: ChannelSpec) -> np.ndarray:
    """The 4x4 coin superoperator of a coin-local channel: diag(1, lam, lam, 1)
    for coin dephasing, the Kraus sum otherwise."""
    if spec.kind == DEPHASING:
        lam = np.exp(-spec.eta)
        return np.diag([1.0, lam, lam, 1.0]).astype(complex)
    factory = amplitude_damping_kraus if spec.kind == AMPLITUDE_DAMPING else bit_flip_kraus
    kraus = factory(spec.eta)
    return _coin_map(2, kraus.m0, kraus.m1)


def _mixes_lines(spec: ChannelSpec | None) -> bool:
    return (spec is not None and spec.eta > 0 and spec.kind == DEPHASING
            and spec.target != TARGET_COIN)


def apply_channel(rho: DensityOperator, spec: ChannelSpec) -> DensityOperator:
    """One application of the channel to rho's (N, 2, N, 2) matrix.

    Dephasing scales the targeted elements by lam = e^{-eta} and copies the
    rest, so the kept elements are exact: target=coin touches c != c',
    target=walker x != x', and target=both every element off the full
    diagonal.  Each call validates the whole state, so multi-step callers
    run ``evolve_open`` with the channel in the schedule instead.
    """
    if spec.eta == 0:
        return rho
    if spec.kind != DEPHASING or spec.target == TARGET_COIN:
        return _conjugate_coins(rho, _coin_superop(spec))
    same_site = np.eye(rho.lattice.n_sites, dtype=bool)[:, None, :, None]
    if spec.target == TARGET_BOTH:
        same_site = same_site & np.eye(2, dtype=bool)[None, :, None, :]
    mat = np.where(same_site, rho.matrix, np.exp(-spec.eta) * rho.matrix)
    return DensityOperator(rho.lattice, mat)


def _channel_map(spec: ChannelSpec, layout: MomentumLayout) -> Callable | None:
    """Bind a spec to a map (work, out) -> out on ``layout``, None for eta = 0.

    Coin-local channels are their 4x4 coin superoperator.  Walker and both
    dephasing are lam*rho + (1 - lam)*P(rho), P keeping the x = x' elements
    of all four coin blocks (walker) or of the c = c' blocks (0,0) and (1,1)
    (both).  In momentum P replaces each line of constant k - k' by its
    mean, so these run on the ring of all N momenta, whose rows are those lines.
    """
    if spec.eta == 0:
        return None
    if not _mixes_lines(spec):
        superop = _coin_superop(spec)
        return lambda work, out: _apply_coin_map(work, superop, out)
    lam = np.exp(-spec.eta)
    blocks = _COIN_PAIRS if spec.target == TARGET_WALKER else ((0, 0), (1, 1))
    weights = np.full(layout.shape[1], (1.0 - lam) / layout.shape[1], dtype=complex)

    def dephase_lines(work: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(work, lam, out=out)
        # block by block, as a broadcast add on a strided view buffers every
        # operand; each line's mean is one matrix-vector product
        for c, d in blocks:
            out[c, d] += (work[c, d] @ weights)[:, None]
        return out

    return dephase_lines


def momentum_window(prob: np.ndarray) -> tuple[int, int]:
    """The smallest [lo, hi) that leaves at most ``SUPPORT_TOL`` of ``prob``
    outside it on each side.

    Each tail is summed from its own end: a sum from the left cannot resolve
    a tail of 1e-30 against a total near 1.
    """
    lo = np.searchsorted(np.cumsum(prob), SUPPORT_TOL, side="right")
    dropped = np.searchsorted(np.cumsum(prob[::-1]), SUPPORT_TOL, side="right")
    return int(lo), len(prob) - int(dropped)


def open_layout(rho0: DensityOperator | PureState, schedule: Schedule) -> MomentumLayout:
    """The momentum support ``evolve_open`` steps rho0 on through ``schedule``.

    A PureState start, meaning |psi><psi|, occupies the window of M momenta
    that ``momentum_window`` keeps of |psi~|^2; a DensityOperator start, and
    any schedule with an F_m window, occupy all N.  Coin-local channels and
    no channel step the lines of the window as a ring, R = M; walker and both
    dephasing the lines of all N momenta, R = N, whose lines k - k' the
    window reaches at offsets below M.  Either stores min(M, R//2 + 1)
    lines.  ``start`` lays a state out on it.
    A schedule channel that is not a ChannelSpec raises ``ChannelError``.
    """
    spec = schedule.channel
    if spec is not None and not isinstance(spec, ChannelSpec):
        raise ChannelError(f"schedule.channel must be a ChannelSpec, got {type(spec).__name__}")
    lattice = rho0.lattice
    lo, hi = 0, lattice.n_sites
    if isinstance(rho0, PureState) and not schedule.fm_windows:
        lo, hi = momentum_window(np.sum(np.abs(to_momentum(rho0.amplitudes)) ** 2, axis=1))
    width = hi - lo
    if _mixes_lines(spec):
        lo, ring = 0, lattice.n_sites
    else:
        ring = width
    return MomentumLayout(lattice, lo, ring, min(width, ring // 2 + 1))


def evolve_open(
    rho0: DensityOperator | PureState,
    schedule: Schedule,
    snapshot_times: Sequence[int] = (),
) -> EvolutionResult:
    """Run a schedule on a density operator, channel after every step.

    ``rho0`` is a DensityOperator or a PureState psi, meaning |psi><psi|.
    The per-step order is unitary step, then channel; coin-gate insertions
    are applied (unitarily) after the completed step, before any snapshot.
    A schedule without a channel runs closed but on rho, useful for
    cross-checking against the pure-state path.  The step loop is the one
    ``walk.evolve`` runs inside F_m windows, on the momentum support of ``open_layout``; trace
    and Hermiticity are validated at every snapshot and on the final state,
    which are materialized in position space, and a snapshot time outside
    the run raises ``ScheduleError``.
    """
    layout, work, checkpoint = _run_open(rho0, schedule, snapshot_times)
    mat = layout.materialize(work)
    del work  # before the validation, which then needs band-sized temporaries only
    return EvolutionResult(DensityOperator(rho0.lattice, mat), checkpoint.snaps)


def fidelity_trace(psi: PureState, schedule: Schedule) -> np.ndarray:
    """The fidelity to psi of a run of ``schedule`` from psi at t = 0..total_steps,
    |<psi|psi_t>|^2 closed or <psi|rho_t|psi> under the channel.  The open
    run's final state is not materialized; its trace is checked on the support."""
    if schedule.channel is None:
        return _run_pure(psi, schedule, fidelity=True)[1].trace
    layout, work, checkpoint = _run_open(psi, schedule, fidelity=True)
    layout.check_trace(work)
    return checkpoint.trace


def _run_open(rho0, schedule: Schedule, snapshot_times: Sequence[int] = (), fidelity=False):
    """``_run_density`` on ``open_layout``, channel bound: (layout, work, checkpoints)."""
    layout = open_layout(rho0, schedule)
    channel = None if schedule.channel is None else _channel_map(schedule.channel, layout)
    return layout, *_run_density(layout, rho0, schedule, snapshot_times, channel, fidelity)
