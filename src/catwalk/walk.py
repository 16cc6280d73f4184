"""Walk operators: coin flip, conditional shift, momentum-shift phase,
scheduled evolution of pure states, and the step loop that pure states and
density operators share.

One walk step is coin -> shift (-> momentum-shift phase when scheduled),
i.e. the generalized propagator multiplies the plain step on the left.
Time is counted in completed steps; a coin-gate insertion at time ``s``
acts after ``s`` steps, and a schedule's one F_m window ``(start, end,
phi)`` applies the phase during steps ``start+1 .. end``.  Pure states and
density operators share one step loop, ``_run``, and one ``_Checkpoints`` for what happens
between steps: gates, snapshots and the fidelity to a pure start at the
times it is read.  The loop takes its rank from a coin-major array and its
shift as a map; a coin-local channel rides in the next step's coin map
(``_Checkpoints``).
``channels`` lays a density operator out on its momentum support and runs
it there, with no F_m window.  A pure state jumps each plain stretch
between events as one closed-form power Z(k)^n in momentum space, and
steps its F_m window in position space, the phase folded into the shift.  It
moves between sites and momenta by
``lattice.to_momentum`` and ``to_position``; ``_PlainPower`` holds the band
structure ``spectral`` reads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .lattice import DensityOperator, PureState, StateError, to_momentum, to_position

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
# Step kernel.  It works on a coin-major array, coin axes first: amp[c] =
# psi[:, c], shape (2, N), for a pure state in position space (rank 1), and
# work[c, d], shape (2, 2, lines, ring), holding rho on the support
# ``channels`` lays it out on (rank 2).  A coin-local map is one
# (2^r x 2^r)·(2^r x P) product, a real one on the float view of the array.
# The shift moves sites by slice assignment on a pure state and is
# D(k) (x) D*(k') on rho, D(k) = diag(e^{ik}, e^{-ik}).  Maps write into a
# buffer that must not alias their input.


def _coin_map(rank: int, *ops: np.ndarray) -> np.ndarray:
    """M on a pure state (one operator); sum_i M_i (x) M_i^* on rho, each
    Kronecker product as one broadcast multiply.  Real when its imaginary
    part is exactly zero, as for a real coin, the reversal pair on rho and
    the built-in coin-local channels."""
    if rank == 1:
        cmap = ops[0]
    else:
        cmap = sum((m[:, None, :, None] * m.conj()[None, :, None, :]).reshape(4, 4) for m in ops)
    return cmap if cmap.imag.any() else cmap.real.copy()


def _apply_coin_map(work: np.ndarray, cmap: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = cmap applied to the coin index of ``work``; returns out.  A real
    cmap multiplies real and imaginary parts in one real product on the
    float views of the contiguous arrays."""
    src, dst = (work, out) if np.iscomplexobj(cmap) else (work.view(float), out.view(float))
    np.matmul(cmap, src.reshape(len(cmap), -1), out=dst.reshape(len(cmap), -1))
    return out


def _shift(work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = S work on coin-major amplitudes, periodically: level 0 (up) moves
    x -> x+1, level 1 (down) x -> x-1; returns out."""
    out[0, 1:] = work[0, :-1]
    out[0, 0] = work[0, -1]
    out[1, :-1] = work[1, 1:]
    out[1, -1] = work[1, 0]
    return out


def _transpose(amp: np.ndarray) -> np.ndarray:
    """Contiguous copy of (N, 2) amplitudes as coin-major (2, N), or back."""
    return np.ascontiguousarray(amp.T)


@dataclass(frozen=True)
class Schedule:
    """Step-indexed plan for an evolution run.

    ``fm_window`` is None or one (start, end, phi) triple, within the run:
    the phase is applied during steps start+1 .. end.
    ``coin_gate_insertions`` holds (time, 2x2 unitary) pairs applied after
    ``time`` completed steps; each gate is checked here, once, and a
    non-unitary one raises StateError.  Every time must be an integer and
    theta and phi finite, or ScheduleError is raised here.  ``channel`` is
    an optional ChannelSpec consumed by the open-system runner only, which
    takes no F_m window.
    """

    total_steps: int
    theta: float
    fm_window: tuple[int, int, float] | None = None
    coin_gate_insertions: Sequence[tuple[int, np.ndarray]] = field(default_factory=tuple)
    channel: Any = None

    def __post_init__(self):
        window = self.fm_window or ()
        for t in (self.total_steps, *window[:2], *(t for t, _ in self.coin_gate_insertions)):
            try:
                operator.index(t)  # numpy integers pass, floats do not
            except TypeError:
                raise ScheduleError(f"times must be integers, got {t!r}") from None
        if not np.isfinite([self.theta, *window[2:]]).all():
            raise ScheduleError("theta and the F_m phase must be finite")
        if self.total_steps < 0:
            raise ScheduleError(f"total_steps must be >= 0, got {self.total_steps}")
        if window and not (0 <= window[0] <= window[1] <= self.total_steps):
            raise ScheduleError(f"window {window[:2]} outside [0, {self.total_steps}]")
        gates = []
        for t, u in self.coin_gate_insertions:
            if not (0 <= t <= self.total_steps):
                raise ScheduleError(
                    f"insertion time {t} outside [0, {self.total_steps}]"
                )
            gates.append((t, _check_unitary(u)))
        object.__setattr__(self, "coin_gate_insertions", tuple(gates))

    def phi_at(self, s: int) -> float | None:
        """Phase for step ``s`` (1-based) if it falls in the F_m window."""
        if self.fm_window is not None and self.fm_window[0] < s <= self.fm_window[1]:
            return self.fm_window[2]
        return None

    def insertions_at(self, t: int) -> list[np.ndarray]:
        return [u for ti, u in self.coin_gate_insertions if ti == t]


class _Checkpoints:
    """What a run does at a time t = 0..total_steps: that time's coin gates,
    then ``snapshot(work)`` kept in ``snaps`` if t is wanted, then, if t is
    one of ``fidelity_times``, the fidelity to a pure ``start`` ((N, 2) or
    laid out as |psi><psi|): ``trace[i]`` is the fidelity at
    ``fidelity_times[i]``, and no other time contracts.  A snapshot or
    fidelity time outside the run raises ScheduleError.  Each gate's coin
    map on arrays of ``rank`` is built once, here.  It belongs to one run
    over one array: a run of rho in row blocks builds one per block, and its
    caller adds the blocks' traces in block order.

    A coin-local channel's real coin map S, ``owed``, is left owed by every
    step: ``_run`` folds it into the next step's coin map (C S) and sets
    ``owing``.  The first gate of a time applies it with its own map (G S),
    ``pay`` applies it alone before a snapshot, and until then the fidelity
    is read against S^T start, which is built here, in the buffer
    ``owed_start``.  A caller that reads the final state pays what it still
    owes."""

    def __init__(self, schedule: Schedule, rank: int, snapshot_times: Sequence[int],
                 snapshot: Callable, start: np.ndarray | None, fidelity_times: Sequence[int],
                 owed: np.ndarray | None = None, owed_start: np.ndarray | None = None):
        self.wanted = set(snapshot_times)
        self.times = np.array(fidelity_times, dtype=int)
        for kind, times in (("snapshot", self.wanted), ("fidelity", self.times)):
            for t in times:
                if not (0 <= t <= schedule.total_steps):
                    raise ScheduleError(f"{kind} time {t} outside run")
        self.gates = {t: [_coin_map(rank, u) for u in schedule.insertions_at(t)]
                      for t, _ in schedule.coin_gate_insertions}
        self.owed, self.owing = owed, False
        self.snapshot = snapshot
        self.snaps: dict[int, Any] = {}
        self.start, self.read = start, set(self.times.tolist())
        if start is not None and owed is not None:
            owed_start = _apply_coin_map(start, owed.T, owed_start)
        self.owed_start = owed_start
        self.trace = np.zeros(len(self.times))

    def pay(self, work: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(work, spare) with the owed map applied if ``work`` still owes it."""
        if self.owing:
            work, spare = _apply_coin_map(work, self.owed, spare), work
            self.owing = False
        return work, spare

    def __call__(self, t: int, work: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (work, spare) after t's gates, which swap the two buffers."""
        for cmap in self.gates.get(t, ()):
            if self.owing:
                cmap, self.owing = cmap @ self.owed, False
            work, spare = _apply_coin_map(work, cmap, spare), work
        if t in self.wanted:
            work, spare = self.pay(work, spare)
            self.snaps[t] = self.snapshot(work)
        if t in self.read:
            # site-major, as lattice.fidelity sums; rho~_t is zero off the support
            overlap = np.vdot(self.owed_start if self.owing else self.start,
                              work.T if work.ndim == 2 else work)
            self.trace[self.times == t] = abs(overlap) ** 2 if work.ndim == 2 else overlap.real
        return work, spare


def _run(work: np.ndarray, spare: np.ndarray, schedule: Schedule, steps: range,
         checkpoint: _Checkpoints, shift: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Step the coin-major array ``work``, of either rank, through the steps
    s in ``steps`` of ``schedule``, one spare buffer beside it.

    A step is one coin map into the spare buffer, the coin C or, while the
    state owes ``checkpoint.owed``, C S; then ``shift(spare, work)`` back,
    which on a pure state's F_m window steps applies the phase too.
    ``checkpoint`` follows each step s, with the state owing S again.
    Returns (work, spare), which may still owe S (``checkpoint.owing``).
    ``channels`` runs rho with OpenBLAS held at one thread, a process-global
    setting that holds BLAS calls from other threads too, so that no
    contraction is split.
    """
    coin = _coin_map(work.ndim // 2, coin_operator(schedule.theta))
    owed = checkpoint.owed
    coins = (coin, coin if owed is None else coin @ owed)
    for s in steps:
        shift(_apply_coin_map(work, coins[checkpoint.owing], spare), work)
        checkpoint.owing = owed is not None
        work, spare = checkpoint(s, work, spare)
    return work, spare


def _stretches(schedule: Schedule) -> list[tuple[int, int]]:
    """(lo, hi) for the runs of steps lo+1 .. hi between events: t = 0, the
    coin-gate times, the F_m window's edges and total_steps.  The steps of
    one stretch are all plain or all in the window."""
    events = sorted({0, schedule.total_steps, *(schedule.fm_window or ())[:2],
                     *(t for t, _ in schedule.coin_gate_insertions)})
    return list(zip(events, events[1:]))


def _su2_rotate(angle: np.ndarray, axis_z: np.ndarray, axis_up: np.ndarray,
                axis_down: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """cos(angle) 1 - i sin(angle) (n.sigma) applied per momentum to (N, 2)
    amplitudes, as a new array, with n.sigma = [[axis_z, axis_up],
    [axis_down, -axis_z]] for a unit vector n (or n.sigma = 0).

    The SU(2) rotation every closed-form propagator here is: Z(k)^n up to
    the factor i^n, and the Dirac limit's exp(-i H_d(k) t).
    """
    cos_n, sin_n = np.cos(angle), -1j * np.sin(angle)
    diag = sin_n * axis_z
    out = np.empty_like(amp)
    out[:, 0] = (cos_n + diag) * amp[:, 0] + sin_n * axis_up * amp[:, 1]
    out[:, 1] = sin_n * axis_down * amp[:, 0] + (cos_n - diag) * amp[:, 1]
    return out


class _PlainPower:
    """Z(k)^n for all momenta k at once, in closed form.

    W = -i Z(k) is in SU(2): W = cos(a) 1 - i M with cos(a) = cos(theta)
    sin(k), M = [[c cos k, s e^{ik}], [s e^{-ik}, -c cos k]] Hermitian and
    M^2 = sin(a)^2 1, sin(a) = hypot(cos(theta) cos k, sin theta).  So
    W^n = cos(na) 1 - i sin(na) M / sin(a), and Z^n = i^n W^n.  Where
    sin(a) = 0, W = +-1 and M = 0, so the second term is dropped.
    """

    def __init__(self, theta: float, momenta: np.ndarray):
        c, s = np.cos(theta), np.sin(theta)
        c_cos = c * np.cos(momenta)
        sin_a = np.hypot(c_cos, s)
        self.alpha = np.arctan2(sin_a, c * np.sin(momenta))
        inv = np.divide(1.0, sin_a, out=np.zeros_like(sin_a), where=sin_a != 0)
        self.diag = c_cos * inv  # M[0, 0] / sin(a) = -M[1, 1] / sin(a)
        self.up = s * np.exp(1j * momenta) * inv  # M[0, 1] / sin(a)
        self.down = self.up.conj()  # M[1, 0] / sin(a)

    def apply(self, n: int, kamp: np.ndarray) -> np.ndarray:
        """Z^n applied to (N, 2) momentum amplitudes, as a new array."""
        out = _su2_rotate(n * self.alpha, self.diag, self.up, self.down, kamp)
        out *= (1, 1j, -1, -1j)[n % 4]
        return out

    def fidelities(self, n: np.ndarray, bra: np.ndarray, kamp: np.ndarray) -> np.ndarray:
        """|<bra|Z^n kamp>|^2 for each n of ``n``, from (N, 2) momentum amplitudes:
        |sum_k [cos(n a) A - i sin(n a) B]|^2 with A = bra^dag kamp and B =
        bra^dag (M / sin a) kamp at each k (i^n drops out), each row of the
        (n x N) angles summed on its own, so that each n reads the same
        whichever others are asked."""
        bra = bra.conj()
        a = np.sum(bra * kamp, axis=1)
        b = (bra[:, 0] * (self.diag * kamp[:, 0] + self.up * kamp[:, 1])
             + bra[:, 1] * (self.down * kamp[:, 0] - self.diag * kamp[:, 1]))
        out = np.empty(len(n))
        rows = max(1, (1 << 18) // len(a))  # (n, k) entries per chunk
        for lo in range(0, len(n), rows):
            angle = np.multiply.outer(n[lo:lo + rows], self.alpha)
            out[lo:lo + rows] = np.abs(np.einsum("nk,k->n", np.cos(angle), a)
                                       - 1j * np.einsum("nk,k->n", np.sin(angle), b)) ** 2
        return out


# ---------------------------------------------------------------------------
# Front ends: pure states, then two wrappers that run density operators
# through ``channels``.

@dataclass(frozen=True)
class EvolutionResult:
    """Final state and snapshots of an ``evolve`` run; ``channels.evolve_open``
    returns a ``channels.OpenResult``."""

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
    the open-system runner instead.  Each plain stretch between events (see
    ``_stretches``) is one jump: the state at its start t_e goes to momentum
    space once, and the state at each later time t of the stretch that is
    needed is to_position(Z^(t - t_e) psi~_e), never one derived from another,
    so snapshots cannot change the run's arithmetic.  The steps of an F_m
    window, whose phase e^{i phi x} need not fit the lattice period, are
    taken one by one in position space on a coin-major (2, N) working array.
    Snapshots and the final state are converted back to (N, 2), and their
    norms validated.
    """
    if schedule.channel is not None:
        raise ScheduleError("schedule has a channel; use channels.evolve_open")
    amp, checkpoint = _run_pure(state, schedule, snapshot_times)
    return EvolutionResult(state.with_amplitudes(_transpose(amp)), checkpoint.snaps)


def _run_pure(state: PureState, schedule: Schedule, snapshot_times: Sequence[int] = (),
              fidelity_times: Sequence[int] = ()) -> tuple[np.ndarray, _Checkpoints]:
    """``evolve`` up to its final coin-major array: (array, checkpoints), which hold
    |<state|psi_t>|^2 at ``fidelity_times``, by ``_PlainPower.fidelities`` inside
    plain stretches and by the checkpoint's overlap at their ends and in F_m
    windows.  The start goes to momenta only once a plain stretch has a
    fidelity time inside it, so a read at the end alone takes no extra DFT."""
    lattice = state.lattice
    power = _PlainPower(schedule.theta, lattice.momenta)
    checkpoint = _Checkpoints(schedule, 1, snapshot_times,
                              lambda a: state.with_amplitudes(_transpose(a)),
                              state.amplitudes, fidelity_times)
    bra = None
    amp, spare = checkpoint(0, _transpose(state.amplitudes), np.empty((2, lattice.n_sites), complex))
    for lo, hi in _stretches(schedule):
        phi = schedule.phi_at(hi)
        if phi is None:
            kamp = to_momentum(amp.T)
            inside = (lo < checkpoint.times) & (checkpoint.times < hi)
            if inside.any():
                bra = to_momentum(state.amplitudes) if bra is None else bra
                checkpoint.trace[inside] = power.fidelities(checkpoint.times[inside] - lo, bra, kamp)
            for t in sorted({t for t in checkpoint.wanted if lo < t < hi} | {hi}):
                amp, spare = checkpoint(t, _transpose(to_position(power.apply(t - lo, kamp))), spare)
        else:
            phase = np.exp(1j * phi * lattice.sites)
            amp, spare = _run(amp, spare, schedule, range(lo + 1, hi + 1), checkpoint,
                              lambda a, out: np.multiply(_shift(a, out), phase, out=out))
    return amp, checkpoint


def step(state: PureState, theta: float) -> PureState:
    """One plain walk step, coin flip then conditional shift.

    Each call converts and validates the whole state; loop with ``evolve``.
    """
    return evolve(state, Schedule(1, theta)).final


# Kept only for the benchmark's per-layer replay (bench/tracing.py), these go
# when it stops timing them; they import channels inside, as it builds on walk.

def conjugate_coin(rho: DensityOperator, u: np.ndarray) -> DensityOperator:
    """rho -> (1 (x) U) rho (1 (x) U)† for a unitary coin gate, as a
    zero-step open run.

    Each call transforms and validates the whole state; loop with ``evolve_open``.
    """
    from .channels import evolve_open
    return evolve_open(rho, Schedule(0, 0.0, coin_gate_insertions=((0, u),))).final


def step_density(rho: DensityOperator, theta: float) -> DensityOperator:
    """rho -> Z rho Z†, as a one-step open run.

    Each call transforms and validates the whole state; loop with ``evolve_open``.
    """
    from .channels import evolve_open
    return evolve_open(rho, Schedule(1, theta)).final
