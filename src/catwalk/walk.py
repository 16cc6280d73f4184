"""Walk operators: coin flip, conditional shift, momentum-shift phase, and
scheduled evolution for pure states and density operators.

One walk step is coin -> shift (-> momentum-shift phase when scheduled),
i.e. the generalized propagator multiplies the plain step on the left.
Time is counted in completed steps; a coin-gate insertion at time ``s``
acts after ``s`` steps, and an F_m window ``(start, end, phi)`` applies the
phase during steps ``start+1 .. end``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .lattice import (
    POSITION,
    DensityOperator,
    PureState,
    StateError,
)

UNITARITY_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class ScheduleError(ValueError):
    """Schedule bounds violation or malformed schedule."""


def coin_operator(theta: float) -> np.ndarray:
    """Coin flip [[cos t, sin t], [sin t, -cos t]]; unitary and Hermitian."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def reversal_pair(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Coin gates (R, R†) with R = C(theta) sigma_y that reverse the walk.

    Conjugation by R maps the step propagator to minus its inverse, so the
    sandwich ``R† Z^T R Z^T`` is the identity up to sign: the walker
    retraces its steps exactly.  Plain sigma_y reverses only approximately
    (error of order delta^2 in the momentum width of the packet).
    """
    r = coin_operator(theta) @ SIGMA_Y
    return r, r.conj().T


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise StateError(f"coin matrix must be 2x2, got {u.shape}")
    if np.abs(u @ u.conj().T - np.eye(2)).max() > UNITARITY_TOL:
        raise StateError("coin matrix is not unitary")
    return u


# ---------------------------------------------------------------------------
# Pure-state kernel.  It works on the coin-major array amp[c] = psi[:, c] of
# shape (2, N): the coin is one (2x2)·(2xN) product and the shift moves each
# coin level by slice assignment.  Maps write into a buffer that must not
# alias their input.

# (destination, source) slice pairs of the periodic shift of each coin level:
# level 0 (up) moves x -> x+1, level 1 (down) x -> x-1
_SHIFT_SLICES = (
    ((slice(1, None), slice(None, -1)), (slice(None, 1), slice(-1, None))),
    ((slice(None, -1), slice(1, None)), (slice(-1, None), slice(None, 1))),
)


def _coin_major(state: PureState) -> np.ndarray:
    """Contiguous (2, N) copy of the (N, 2) amplitudes."""
    return np.ascontiguousarray(state.amplitudes.T)


def _site_major(state: PureState, amp: np.ndarray) -> PureState:
    """State with the coin-major amplitudes ``amp``; the norm is validated."""
    return state.with_amplitudes(amp.T.copy())


def _shift_amp(amp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = S amp: each coin level moves with its direction; returns out."""
    for c in (0, 1):
        for to, frm in _SHIFT_SLICES[c]:
            out[c, to] = amp[c, frm]
    return out


def _walk_step(amp: np.ndarray, coin: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """amp -> S C amp in place, through the spare buffer; returns amp."""
    np.matmul(coin, amp, out=spare)
    return _shift_amp(spare, amp)


def _fm_phase(sites: np.ndarray, phi: float) -> np.ndarray:
    return np.exp(1j * phi * sites)


def _require_position(state: PureState) -> None:
    if state.basis != POSITION:
        raise StateError("operation requires a position-basis state")


def apply_coin(state: PureState, u: np.ndarray) -> PureState:
    """Apply a 2x2 unitary on the coin at every site."""
    _require_position(state)
    return _site_major(state, np.matmul(_check_unitary(u), state.amplitudes.T))


def apply_shift(state: PureState) -> PureState:
    """Conditional shift: up-component x -> x+1, down-component x -> x-1."""
    _require_position(state)
    amp = state.amplitudes.T
    return _site_major(state, _shift_amp(amp, np.empty(amp.shape, dtype=complex)))


def apply_fm(state: PureState, phi: float) -> PureState:
    """Site-linear phase e^{i phi x} on both coin levels."""
    _require_position(state)
    ph = _fm_phase(state.lattice.sites, phi)
    return state.with_amplitudes(state.amplitudes * ph[:, None])


def step(state: PureState, theta: float) -> PureState:
    """One plain walk step: coin flip then conditional shift."""
    _require_position(state)
    amp = _coin_major(state)
    return _site_major(state, _walk_step(amp, coin_operator(theta), np.empty_like(amp)))


def step_generalized(state: PureState, theta: float, phi: float) -> PureState:
    """One generalized step: coin, shift, then the momentum-shift phase."""
    _require_position(state)
    amp = _coin_major(state)
    _walk_step(amp, coin_operator(theta), np.empty_like(amp))
    amp *= _fm_phase(state.lattice.sites, phi)
    return _site_major(state, amp)


@dataclass(frozen=True)
class Schedule:
    """Step-indexed plan for an evolution run.

    ``fm_windows`` holds (start, end, phi) triples: the phase is applied
    during steps start+1 .. end.  ``coin_gate_insertions`` holds
    (time, 2x2 unitary) pairs applied after ``time`` completed steps.
    ``channel`` is an optional ChannelSpec consumed by the open-system
    runner only.
    """

    total_steps: int
    theta: float
    fm_windows: Sequence[tuple[int, int, float]] = field(default_factory=tuple)
    coin_gate_insertions: Sequence[tuple[int, np.ndarray]] = field(default_factory=tuple)
    channel: Any = None

    def __post_init__(self):
        if self.total_steps < 0:
            raise ScheduleError(f"total_steps must be >= 0, got {self.total_steps}")
        prev_end = None
        for start, end, _phi in sorted(self.fm_windows):
            if not (0 <= start <= end <= self.total_steps):
                raise ScheduleError(
                    f"window ({start}, {end}) outside [0, {self.total_steps}]"
                )
            if prev_end is not None and start < prev_end:
                raise ScheduleError("F_m windows overlap")
            prev_end = end
        for t, _u in self.coin_gate_insertions:
            if not (0 <= t <= self.total_steps):
                raise ScheduleError(
                    f"insertion time {t} outside [0, {self.total_steps}]"
                )

    def phi_at(self, s: int) -> float | None:
        """Phase for step ``s`` (1-based) if it falls in an F_m window."""
        for start, end, phi in self.fm_windows:
            if start < s <= end:
                return phi
        return None

    def insertions_at(self, t: int) -> list[np.ndarray]:
        return [u for ti, u in self.coin_gate_insertions if ti == t]


@dataclass(frozen=True)
class EvolutionResult:
    final: PureState
    snapshots: dict[int, PureState]


def evolve(
    state: PureState,
    schedule: Schedule,
    snapshot_times: Sequence[int] = (),
) -> EvolutionResult:
    """Run a schedule on a pure state.

    Snapshots are taken after the complete step (and after any coin-gate
    insertion at that time).  Schedules carrying a noise channel must use
    the open-system runner instead.  The loop steps a coin-major (2, N)
    working array in place through one spare buffer, and converts back to
    (N, 2) for each snapshot and the final state, whose norms are validated.
    """
    _require_position(state)
    if schedule.channel is not None:
        raise ScheduleError("schedule has a channel; use channels.evolve_open")
    wanted = set(snapshot_times)
    for t in wanted:
        if not (0 <= t <= schedule.total_steps):
            raise ScheduleError(f"snapshot time {t} outside run")
    coin = coin_operator(schedule.theta)
    phases = {phi: _fm_phase(state.lattice.sites, phi) for _, _, phi in schedule.fm_windows}
    amp = _coin_major(state)
    spare = np.empty_like(amp)
    snaps: dict[int, PureState] = {}

    def checkpoint(t: int) -> None:
        nonlocal amp, spare
        for u in schedule.insertions_at(t):
            amp, spare = np.matmul(_check_unitary(u), amp, out=spare), amp
        if t in wanted:
            snaps[t] = _site_major(state, amp)

    checkpoint(0)
    for s in range(1, schedule.total_steps + 1):
        _walk_step(amp, coin, spare)
        phi = schedule.phi_at(s)
        if phi is not None:
            amp *= phases[phi]
        checkpoint(s)
    return EvolutionResult(_site_major(state, amp), snaps)


# ---------------------------------------------------------------------------
# Density-operator kernel.  It works on the coin-major array
# blocks[c, d] = rho[:, c, :, d] of shape (2, 2, N, N): a coin-local map is one
# (4x4)·(4xN²) product over the four contiguous N x N blocks, and the shift
# moves each block by the pure-state kernel's slices.  Maps write into a
# buffer that must not alias their input.

_COIN_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _to_blocks(mat: np.ndarray) -> np.ndarray:
    """Coin-major copy (2, 2, N, N) of an (N, 2, N, 2) density matrix."""
    return np.ascontiguousarray(mat.transpose(1, 3, 0, 2))


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    """(N, 2, N, 2) copy of a coin-major array; inverse of _to_blocks."""
    return np.ascontiguousarray(blocks.transpose(2, 0, 3, 1))


def _coin_superop(*ops: np.ndarray) -> np.ndarray:
    """S = sum_i M_i (x) M_i^*, rows and columns indexed by the coin pairs."""
    return sum(np.kron(m, m.conj()) for m in ops)


def _apply_coin_superop(blocks: np.ndarray, superop: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[a, b] = sum_{c,d} S[(a,b), (c,d)] blocks[c, d]; returns out."""
    n2 = blocks.shape[2] * blocks.shape[3]
    np.matmul(superop, blocks.reshape(4, n2), out=out.reshape(4, n2))
    return out


def _shift_density(blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = S rho S†: rows and columns move with their coin level; returns out."""
    for c, d in _COIN_PAIRS:
        src, dst = blocks[c, d], out[c, d]
        for rows_to, rows_from in _SHIFT_SLICES[c]:
            for cols_to, cols_from in _SHIFT_SLICES[d]:
                dst[rows_to, cols_to] = src[rows_from, cols_from]
    return out


def _phase_density(blocks: np.ndarray, sites: np.ndarray, phi: float) -> None:
    """Momentum-shift phase on rows and conjugate phase on columns, in place."""
    ph = _fm_phase(sites, phi)
    blocks *= np.outer(ph, ph.conj())


def _map_density(rho: DensityOperator, fn: Callable) -> DensityOperator:
    """Apply a coin-major map fn(blocks, out) -> result to rho."""
    blocks = _to_blocks(rho.matrix)
    return DensityOperator(rho.lattice, _from_blocks(fn(blocks, np.empty_like(blocks))))


def conjugate_coin(rho: DensityOperator, u: np.ndarray) -> DensityOperator:
    """rho -> (1 (x) U) rho (1 (x) U)† for a unitary coin gate."""
    superop = _coin_superop(_check_unitary(u))
    return _map_density(rho, lambda blocks, out: _apply_coin_superop(blocks, superop, out))


def step_density(rho: DensityOperator, theta: float) -> DensityOperator:
    """rho -> Z rho Z†."""
    coin = _coin_superop(coin_operator(theta))
    return _map_density(
        rho, lambda blocks, out: _shift_density(_apply_coin_superop(blocks, coin, out), blocks)
    )
