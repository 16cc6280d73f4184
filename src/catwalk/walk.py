"""Walk operators: coin flip, conditional shift, momentum-shift phase, and
scheduled evolution for pure states and density operators.

One walk step is coin -> shift (-> momentum-shift phase when scheduled),
i.e. the generalized propagator multiplies the plain step on the left.
Time is counted in completed steps; a coin-gate insertion at time ``s``
acts after ``s`` steps, and an F_m window ``(start, end, phi)`` applies the
phase during steps ``start+1 .. end``.  Pure states and density operators
share one step loop, ``_run``; on rho the step Z acts as Z (x) Z^*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .lattice import (
    POSITION,
    DensityOperator,
    LatticeConfig,
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
# Step kernel.  It works on a coin-major array of rank r, r coin axes then r
# site axes: amp[c] = psi[:, c], shape (2, N), for a pure state (r = 1) and
# blocks[c, d] = rho[:, c, :, d], shape (2, 2, N, N), for rho (r = 2).  A
# coin-local map is one (2^r x 2^r)·(2^r x N^r) product and the shift moves
# sites by slice assignment.  Maps write into a buffer that must not alias
# their input.

# (destination, source) slice pairs of the periodic shift of each coin level:
# level 0 (up) moves x -> x+1, level 1 (down) x -> x-1
_SHIFT_SLICES = (
    ((slice(1, None), slice(None, -1)), (slice(None, 1), slice(-1, None))),
    ((slice(None, -1), slice(1, None)), (slice(-1, None), slice(None, 1))),
)

# per rank, (destination, source) index tuples: each site axis moves with its coin index
_SHIFT_INDEX = {
    rank: tuple(
        (levels + tuple(to for to, _ in pairs), levels + tuple(frm for _, frm in pairs))
        for levels in itertools.product((0, 1), repeat=rank)
        for pairs in itertools.product(*(_SHIFT_SLICES[c] for c in levels))
    )
    for rank in (1, 2)
}


def _coin_map(rank: int, *ops: np.ndarray) -> np.ndarray:
    """M on a pure state (one operator); sum_i M_i (x) M_i^* on rho."""
    return ops[0] if rank == 1 else sum(np.kron(m, m.conj()) for m in ops)


def _apply_coin_map(work: np.ndarray, cmap: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = cmap applied to the coin index of ``work``; returns out."""
    np.matmul(cmap, work.reshape(len(cmap), -1), out=out.reshape(len(cmap), -1))
    return out


def _shift(work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = S work (S rho S† on rho): sites move with their coin level; returns out."""
    for to, frm in _SHIFT_INDEX[work.ndim // 2]:
        out[to] = work[frm]
    return out


def _fm_phase(sites: np.ndarray, phi: float) -> np.ndarray:
    return np.exp(1j * phi * sites)


def _coin_major(arr: np.ndarray) -> np.ndarray:
    """Contiguous coin-major copy of (N, 2) amplitudes or an (N, 2, N, 2) rho."""
    return np.ascontiguousarray(arr.transpose(*range(1, arr.ndim, 2), *range(0, arr.ndim, 2)))


def _site_major(work: np.ndarray) -> np.ndarray:
    """Contiguous (N, 2) or (N, 2, N, 2) copy of a coin-major array."""
    r = work.ndim // 2
    return np.ascontiguousarray(work.transpose([a for i in range(r) for a in (r + i, i)]))


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


def _run(work: np.ndarray, schedule: Schedule, snapshot_times: Sequence[int],
         snapshot: Callable, observe: Callable | None = None,
         channel: Callable | None = None) -> tuple[np.ndarray, dict[int, Any]]:
    """Step the coin-major array ``work``, of either rank, through ``schedule``.

    A step is the coin map into the spare buffer, the shift back, the F_m
    phase (built once per phi) and ``channel(work, out) -> result``.  At
    every t = 0..total_steps that time's coin gates are applied, then
    ``snapshot(work)`` is kept if t is wanted and ``observe(t, work)`` is
    called.  Returns the final working array and the snapshots; the spare
    goes with the call, so callers keep no reference to ``work``.
    """
    wanted = set(snapshot_times)
    for t in wanted:
        if not (0 <= t <= schedule.total_steps):
            raise ScheduleError(f"snapshot time {t} outside run")
    rank = work.ndim // 2
    coin = _coin_map(rank, coin_operator(schedule.theta))
    sites = LatticeConfig(work.shape[-1]).sites
    phases = {phi: _fm_phase(sites, phi) for _, _, phi in schedule.fm_windows}
    if rank == 2:
        phases = {phi: np.outer(ph, ph.conj()) for phi, ph in phases.items()}
    spare = np.empty_like(work)
    snaps: dict[int, Any] = {}

    def checkpoint(t: int) -> None:
        nonlocal work, spare
        for u in schedule.insertions_at(t):
            gate = _coin_map(rank, _check_unitary(u))
            work, spare = _apply_coin_map(work, gate, spare), work
        if t in wanted:
            snaps[t] = snapshot(work)
        if observe is not None:
            observe(t, work)

    checkpoint(0)
    for s in range(1, schedule.total_steps + 1):
        _shift(_apply_coin_map(work, coin, spare), work)
        phi = schedule.phi_at(s)
        if phi is not None:
            work *= phases[phi]
        if channel is not None:
            work, spare = channel(work, spare), work
        checkpoint(s)
    return work, snaps


# ---------------------------------------------------------------------------
# Front ends: pure states, then density operators.

def _require_position(state: PureState) -> None:
    if state.basis != POSITION:
        raise StateError("operation requires a position-basis state")


@dataclass(frozen=True)
class EvolutionResult:
    final: PureState
    snapshots: dict[int, PureState]


def evolve(
    state: PureState,
    schedule: Schedule,
    snapshot_times: Sequence[int] = (),
    observe: Callable[[int, np.ndarray], None] | None = None,
) -> EvolutionResult:
    """Run a schedule on a pure state.

    Snapshots are taken after the complete step (and after any coin-gate
    insertion at that time).  Schedules carrying a noise channel must use
    the open-system runner instead.  The loop steps a coin-major (2, N)
    working array in place through one spare buffer, and converts back to
    (N, 2) for each snapshot and the final state, whose norms are validated.

    ``observe(t, amp)`` is called at every t = 0..total_steps, after that
    time's insertions, with the coin-major working array amp[c] = psi[:, c],
    which it must neither keep nor modify.
    """
    _require_position(state)
    if schedule.channel is not None:
        raise ScheduleError("schedule has a channel; use channels.evolve_open")
    amp, snaps = _run(_coin_major(state.amplitudes), schedule, snapshot_times,
                      lambda a: state.with_amplitudes(_site_major(a)), observe)
    return EvolutionResult(state.with_amplitudes(_site_major(amp)), snaps)


def apply_coin(state: PureState, u: np.ndarray) -> PureState:
    """Apply a 2x2 unitary on the coin at every site, as a zero-step run.

    Each call converts and validates the whole state; loop with ``evolve``.
    """
    return evolve(state, Schedule(0, 0.0, coin_gate_insertions=((0, u),))).final


def apply_shift(state: PureState) -> PureState:
    """Conditional shift: up-component x -> x+1, down-component x -> x-1."""
    _require_position(state)
    amp = state.amplitudes.T
    return state.with_amplitudes(_site_major(_shift(amp, np.empty(amp.shape, dtype=complex))))


def apply_fm(state: PureState, phi: float) -> PureState:
    """Site-linear phase e^{i phi x} on both coin levels."""
    _require_position(state)
    ph = _fm_phase(state.lattice.sites, phi)
    return state.with_amplitudes(state.amplitudes * ph[:, None])


def step(state: PureState, theta: float) -> PureState:
    """One plain walk step, coin flip then conditional shift.

    Each call converts and validates the whole state; loop with ``evolve``.
    """
    return evolve(state, Schedule(1, theta)).final


def step_generalized(state: PureState, theta: float, phi: float) -> PureState:
    """One generalized step: coin, shift, then the momentum-shift phase.

    Each call converts and validates the whole state; loop with ``evolve``.
    """
    return evolve(state, Schedule(1, theta, fm_windows=((0, 1, phi),))).final


def _run_density(rho0: DensityOperator, schedule: Schedule, snapshot_times: Sequence[int] = (),
                 observe: Callable | None = None, channel: Callable | None = None):
    """_run on a coin-major copy of rho0; returns (final state, snapshots).

    Every returned state is validated.  The spare buffer goes before the
    final conversion and the working array before the final validation, so
    the peak stays at three density matrices.
    """
    lattice = rho0.lattice
    blocks, snaps = _run(_coin_major(rho0.matrix), schedule, snapshot_times,
                         lambda b: DensityOperator(lattice, _site_major(b)), observe, channel)
    mat = _site_major(blocks)
    del blocks
    return DensityOperator(lattice, mat), snaps


def conjugate_coin(rho: DensityOperator, u: np.ndarray) -> DensityOperator:
    """rho -> (1 (x) U) rho (1 (x) U)† for a unitary coin gate.

    Each call converts and validates the whole state; loop with ``evolve_open``.
    """
    return _run_density(rho, Schedule(0, 0.0, coin_gate_insertions=((0, u),)))[0]


def step_density(rho: DensityOperator, theta: float) -> DensityOperator:
    """rho -> Z rho Z†, as a one-step run.

    Each call converts and validates the whole state; loop with ``evolve_open``.
    """
    return _run_density(rho, Schedule(1, theta))[0]
