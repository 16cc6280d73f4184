"""Per-step noise channels on the walk density operator.

Pure dephasing shrinks off-diagonal elements toward the diagonal in a
chosen index (coin, walker, or both); amplitude damping and bit flip act
on the coin through Kraus pairs.  The bath strength eta is per step, so
each application scales coherences by lambda = e^{-eta} and an n-step run
accumulates e^{-eta n}.  ``evolve_open`` advances a density matrix over
steps, through the step loop that ``walk.evolve`` also runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import DensityOperator
from .walk import (SIGMA_X, Schedule, _apply_coin_map, _coin_map, _coin_major, _run_density,
                   _site_major)

COMPLETENESS_TOL = 1e-12

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


def dephase(rho: DensityOperator, eta: float, target: str) -> DensityOperator:
    """Scale the targeted off-diagonal elements by e^{-eta}.

    target=coin touches c != c', target=walker touches x != x', and
    target=both touches every element off the full diagonal.  The diagonal
    is untouched, so the trace is preserved exactly.  One application, as
    ``apply_channel``: each call converts and validates the whole state.
    """
    return apply_channel(rho, ChannelSpec(DEPHASING, eta, target))


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


def _map_density(rho: DensityOperator, fn: Callable) -> DensityOperator:
    """Apply a coin-major map fn(blocks, out) -> result to rho.

    Each call converts and validates the whole state, so multi-step callers
    run ``evolve_open`` with the channel in the schedule instead.
    """
    blocks = _coin_major(rho.matrix)
    return DensityOperator(rho.lattice, _site_major(fn(blocks, np.empty_like(blocks))))


def apply_coin_channel(rho: DensityOperator, kraus: KrausPair) -> DensityOperator:
    """rho -> sum_i (1 (x) M_i) rho (1 (x) M_i)†, once (see ``_map_density``)."""
    superop = _coin_map(2, kraus.m0, kraus.m1)
    return _map_density(rho, lambda blocks, out: _apply_coin_map(blocks, superop, out))


def _channel_map(spec: ChannelSpec, n_sites: int) -> Callable | None:
    """Bind a spec to a coin-major map (blocks, out) -> out, None for eta = 0.

    Coin-local channels are a 4x4 coin superoperator (the Kraus sums, and
    diag(1, lam, lam, 1) for coin dephasing).  Walker and both dephasing are
    lam*rho + (1 - lam)*P(rho), P keeping the x = x' elements of all four
    blocks (walker) or of the c = c' blocks (0,0) and (1,1) (both), which are
    copied through the strided diagonal: no division by lam.
    """
    if spec.eta == 0:
        return None
    lam = np.exp(-spec.eta)
    if spec.kind == DEPHASING and spec.target != TARGET_COIN:
        rows = slice(None) if spec.target == TARGET_WALKER else slice(None, None, 3)
        shape, diagonal = (4, n_sites * n_sites), slice(None, None, n_sites + 1)

        def dephase_positions(blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.multiply(blocks, lam, out=out)
            out.reshape(shape)[rows, diagonal] = blocks.reshape(shape)[rows, diagonal]
            return out

        return dephase_positions
    if spec.kind == DEPHASING:
        superop = np.diag([1.0, lam, lam, 1.0]).astype(complex)
    else:
        factory = amplitude_damping_kraus if spec.kind == AMPLITUDE_DAMPING else bit_flip_kraus
        kraus = factory(spec.eta)
        superop = _coin_map(2, kraus.m0, kraus.m1)
    return lambda blocks, out: _apply_coin_map(blocks, superop, out)


def apply_channel(rho: DensityOperator, spec: ChannelSpec) -> DensityOperator:
    """One application of the channel to rho (see ``_map_density``)."""
    channel = _channel_map(spec, rho.lattice.n_sites)
    return rho if channel is None else _map_density(rho, channel)


@dataclass(frozen=True)
class OpenEvolutionResult:
    final: DensityOperator
    snapshots: dict[int, DensityOperator]


def evolve_open(
    rho0: DensityOperator,
    schedule: Schedule,
    snapshot_times: Sequence[int] = (),
    observe: Callable[[int, np.ndarray], None] | None = None,
) -> OpenEvolutionResult:
    """Run a schedule on a density operator, channel after every step.

    The per-step order is unitary step, then channel; coin-gate insertions
    are applied (unitarily) after the completed step, before any snapshot.
    A schedule without a channel runs closed but on rho, useful for
    cross-checking against the pure-state path.  The step loop is the one
    ``walk.evolve`` runs, on the coin-major blocks[c, d] = rho[:, c, :, d]
    of shape (2, 2, N, N); trace and Hermiticity are validated at every
    snapshot and on the final state, and a snapshot time outside the run
    raises ``ScheduleError``.

    ``observe(t, blocks)`` is called at every t = 0..total_steps, after that
    time's insertions, with the coin-major working array, which it must
    neither keep nor modify.
    """
    spec = schedule.channel
    if spec is not None and not isinstance(spec, ChannelSpec):
        raise ChannelError(f"schedule.channel must be a ChannelSpec, got {type(spec).__name__}")
    channel = _channel_map(spec, rho0.lattice.n_sites) if spec is not None else None
    return OpenEvolutionResult(*_run_density(rho0, schedule, snapshot_times, observe, channel))
