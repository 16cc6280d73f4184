"""Walk operators: coin flip, conditional shift, momentum-shift phase, and
scheduled evolution for pure states and density operators.

One walk step is coin -> shift (-> momentum-shift phase when scheduled),
i.e. the generalized propagator multiplies the plain step on the left.
Time is counted in completed steps; a coin-gate insertion at time ``s``
acts after ``s`` steps, and an F_m window ``(start, end, phi)`` applies the
phase during steps ``start+1 .. end``.  Pure states and density operators
share one step loop, ``_run``, and one ``_Checkpoints`` for what happens
between steps.  A density operator steps in momentum space on the support a
``MomentumLayout`` names, where the step Z acts as Z(k) (x) Z(k')^* and
needs no shift.  A pure state jumps each plain stretch between events as
one closed-form power Z(k)^n in momentum space, and steps F_m windows in
position space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .lattice import (DensityOperator, LatticeConfig, PureState, TRACE_TOL, StateError, to_momentum,
                      to_position)

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
# work[c, d], shape (2, 2, S0, S1), holding rho in momentum space on the
# support a MomentumLayout names (rank 2).  A coin-local map is one
# (2^r x 2^r)·(2^r x P) product.  The shift moves sites by slice assignment on
# a pure state and is the phase D(k) (x) D*(k') on rho, D(k) = diag(e^{ik},
# e^{-ik}).  Maps write into a buffer that must not alias their input.

_COIN_PAIRS = tuple(itertools.product((0, 1), repeat=2))


def _coin_map(rank: int, *ops: np.ndarray) -> np.ndarray:
    """M on a pure state (one operator); sum_i M_i (x) M_i^* on rho."""
    return ops[0] if rank == 1 else sum(np.kron(m, m.conj()) for m in ops)


def _apply_coin_map(work: np.ndarray, cmap: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = cmap applied to the coin index of ``work``; returns out."""
    np.matmul(cmap, work.reshape(len(cmap), -1), out=out.reshape(len(cmap), -1))
    return out


def _shift(work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = S work on coin-major amplitudes, periodically: level 0 (up) moves
    x -> x+1, level 1 (down) x -> x-1; returns out."""
    out[0, 1:] = work[0, :-1]
    out[0, 0] = work[0, -1]
    out[1, :-1] = work[1, 1:]
    out[1, -1] = work[1, 0]
    return out


def _fm_phase(sites: np.ndarray, phi: float) -> np.ndarray:
    return np.exp(1j * phi * sites)


def _transpose(amp: np.ndarray) -> np.ndarray:
    """Contiguous copy of (N, 2) amplitudes as coin-major (2, N), or back."""
    return np.ascontiguousarray(amp.T)


def _checkerboard(block: np.ndarray) -> None:
    """block *= (-1)^(i + j), in place: odd columns, then odd rows of the real
    view, so that numpy buffers one operand where two strided ones take two."""
    block[:, 1::2] *= -1
    block.view(float)[1::2] *= -1


def _pair_dft(block: np.ndarray, inverse: bool = False) -> np.ndarray:
    """In place on one N x N coin block: rho -> rho~, or rho~ -> rho with ``inverse``.

    rho~(k, k') = sum_{x, x'} e^{i(kx - k'x')} rho(x, x') / N on the centred
    grids of LatticeConfig, the transform ``lattice.to_momentum`` applies to
    kets.  For even N a centred label j - N/2 turns each axis into a plain
    FFT between two (-1)^j modulations; the two (-1)^(N/2) factors cancel.
    The ``out`` argument of ``numpy.fft``, which needs NumPy >= 2.0, keeps
    the transform free of N x N temporaries.
    """
    first, second = (np.fft.fft, np.fft.ifft) if inverse else (np.fft.ifft, np.fft.fft)
    _checkerboard(block)
    first(block, axis=0, out=block)
    second(block, axis=1, out=block)
    _checkerboard(block)
    return block


_SHEAR_COLUMNS = 8  # columns per chunk of a shear


def _shear(block: np.ndarray, sign: int) -> None:
    """Roll column j of an N x N block by sign*j, in place.

    sign = 1 takes lines, block[(a - b) mod N, b] = rho~(a, b), to pairs;
    sign = -1 takes them back.  Column chunks keep the temporaries small.
    """
    n = len(block)
    rows = np.arange(n)[:, None]
    for lo in range(0, n, _SHEAR_COLUMNS):
        cols = block[:, lo:lo + _SHEAR_COLUMNS]
        shift = np.arange(lo, lo + cols.shape[1])
        cols[...] = np.take_along_axis(cols, (rows - sign * shift) % n, axis=0)


@dataclass(frozen=True, eq=False)
class MomentumLayout:
    """The momentum support a density operator is stepped on.

    With pairs, ``first`` is a window of momentum indices and the working
    array holds work[c, d][i, j] = rho~(k_a, c; k_b, d) for a = first[i],
    b = first[j]: the window against itself, for runs whose every step keeps
    each (k, k') pair on its own.  With lines, ``first`` holds offsets and
    work[c, d][i, j] is the pair a = (first[i] + j) mod N, b = j: row i is
    the whole line k - k' = 2 pi first[i] / N, for channels that mix each
    such line.  Every pair of the support appears once, and rho~ is zero
    off it.  A block of N x N in the same coordinates holds the full
    support; ``_shear`` turns lines into pairs.
    """

    lattice: LatticeConfig
    first: np.ndarray
    lines: bool

    @classmethod
    def pairs(cls, lattice: LatticeConfig, lo: int = 0, hi: int | None = None) -> "MomentumLayout":
        """The pairs of the momenta lo .. hi-1 (all N by default)."""
        return cls(lattice, np.arange(lo, lattice.n_sites if hi is None else hi), False)

    @classmethod
    def lines_of(cls, lattice: LatticeConfig, width: int) -> "MomentumLayout":
        """The lines k - k' that a window of ``width`` momenta spans."""
        n = lattice.n_sites
        return cls(lattice, np.arange(1 - width, width) if 2 * width - 1 < n else np.arange(n),
                   True)

    @property
    def second(self) -> np.ndarray:
        return np.arange(self.lattice.n_sites) if self.lines else self.first

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.first), len(self.second)

    @property
    def full(self) -> bool:
        return self.shape == (self.lattice.n_sites,) * 2

    def _place(self) -> tuple:
        """Where the working array sits in a block of N x N."""
        if self.lines:
            return (self.first % self.lattice.n_sites,)
        window = slice(self.first[0], self.first[-1] + 1)
        return window, window

    def _to_pairs(self, block: np.ndarray) -> np.ndarray:
        if self.lines:
            _shear(block, 1)
        return block

    def _from_pairs(self, block: np.ndarray) -> np.ndarray:
        if self.lines:
            _shear(block, -1)
        return block

    def start(self, state) -> np.ndarray:
        """The working array of |psi><psi| for a PureState, or of a
        DensityOperator, which needs the full support."""
        work = np.empty((2, 2, *self.shape), dtype=complex)
        if isinstance(state, PureState):
            amp = to_momentum(state.amplitudes).T
            rows = self.first[:, None]
            if self.lines:
                rows = (rows + self.second) % self.lattice.n_sites
            return np.multiply(amp[:, None, rows], amp[None, :, None, self.second].conj(), out=work)
        if not self.full:
            raise StateError("a density operator start needs the full momentum support")
        for c, d in _COIN_PAIRS:
            work[c, d] = state.matrix[:, c, :, d]
            self._from_pairs(_pair_dft(work[c, d]))
        return work

    def materialize(self, work: np.ndarray, consume: bool = False) -> np.ndarray:
        """rho(x, c; x', d) as a new (N, 2, N, 2) array, one coin block at a time.

        With ``consume`` a full-support ``work`` is transformed in place,
        which leaves it unusable, and no block is allocated.
        """
        n = self.lattice.n_sites
        out = np.empty((n, 2, n, 2), dtype=complex)
        block = None if consume and self.full else np.empty((n, n), dtype=complex)
        for c, d in _COIN_PAIRS:
            if block is None:
                blk = work[c, d]
            else:
                blk = block
                blk.fill(0)
                blk[self._place()] = work[c, d]
            out[:, c, :, d] = _pair_dft(self._to_pairs(blk), inverse=True)
        return out

    def check_trace(self, work: np.ndarray) -> None:
        """Raise StateError unless tr rho is 1 to ``TRACE_TOL``, as a
        DensityOperator would, from the diagonal pairs on the support: the
        diagonal of blocks (0,0) and (1,1), or their line k - k' = 0."""
        if self.lines:
            zero = np.flatnonzero(self.first == 0)[0]
            tr = (work[0, 0, zero].sum() + work[1, 1, zero].sum()).real
        else:
            tr = (np.trace(work[0, 0]) + np.trace(work[1, 1])).real
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise StateError(f"density matrix trace {tr!r} deviates from 1")

    def shift(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The step's shift on the support, (work, out) -> out = D(k) (x) D*(k') work.

        A pair's phase is e^{i s_c k} e^{-i s_d k'}, with s = (1, -1); on a
        line k = k' + 2 pi first / N, so it is e^{i s_c 2 pi first / N}
        e^{i (s_c - s_d) k'}.  Either is a product of a row and a column
        factor.  Their product is kept, for one multiply a step, while the
        support holds at most half of the N^2 pairs, so that it and the
        start, working and spare arrays fit in two density matrices; a larger
        support multiplies by the two factors.
        """
        s = np.array([1.0, -1.0])
        k = self.lattice.momenta
        if self.lines:
            first, per_second = 2.0 * np.pi * self.first / self.lattice.n_sites, s[:, None] - s
        else:
            first, per_second = k[self.first], np.broadcast_to(-s, (2, 2))
        row = np.exp(1j * np.multiply.outer(s, first))[:, None, :, None]
        col = np.exp(1j * np.multiply.outer(per_second, k[self.second]))[:, :, None, :]
        if 2 * np.prod(self.shape) <= self.lattice.n_sites ** 2:
            phase = row * col
            return lambda work, out: np.multiply(work, phase, out=out)

        def shift(work: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.multiply(work, row, out=out)
            out *= col
            return out

        return shift

    def apply_fm(self, work: np.ndarray, phi: float) -> np.ndarray:
        """work -> e^{i phi (x - x')} work in place, through position space.

        The phase moves momenta by phi, which no smaller support holds, so it
        needs the full one.
        """
        phase = _fm_phase(self.lattice.sites, phi)
        for c, d in _COIN_PAIRS:
            blk = _pair_dft(self._to_pairs(work[c, d]), inverse=True)
            blk *= phase[:, None]
            blk *= phase.conj()
            self._from_pairs(_pair_dft(blk))
        return work


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


class _Checkpoints:
    """What a run does at a time t = 0..total_steps: that time's coin gates,
    then ``snapshot(work)`` kept in ``snaps`` if t is wanted, then
    ``observe(t, work)``."""

    def __init__(self, schedule: Schedule, snapshot_times: Sequence[int],
                 snapshot: Callable, observe: Callable | None):
        self.wanted = set(snapshot_times)
        for t in self.wanted:
            if not (0 <= t <= schedule.total_steps):
                raise ScheduleError(f"snapshot time {t} outside run")
        self.schedule = schedule
        self.snapshot = snapshot
        self.observe = observe
        self.snaps: dict[int, Any] = {}

    def times(self, lo: int, hi: int) -> list[int]:
        """The times in lo+1 .. hi that need the state: all of them with an
        observer, else the wanted ones and hi."""
        if self.observe is not None:
            return list(range(lo + 1, hi + 1))
        return sorted({t for t in self.wanted if lo < t < hi} | {hi})

    def __call__(self, t: int, work: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (work, spare) after t's gates, which swap the two buffers."""
        for u in self.schedule.insertions_at(t):
            gate = _coin_map(work.ndim // 2, _check_unitary(u))
            work, spare = _apply_coin_map(work, gate, spare), work
        if t in self.wanted:
            self.snaps[t] = self.snapshot(work)
        if self.observe is not None:
            self.observe(t, work)
        return work, spare


def _run(work: np.ndarray, spare: np.ndarray, schedule: Schedule, steps: range,
         checkpoint: _Checkpoints, shift: Callable, fm: Callable,
         channel: Callable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Step the coin-major array ``work``, of either rank, through the steps
    s in ``steps`` of ``schedule``, one spare buffer beside it.

    A step is the coin map into the spare buffer, ``shift(spare, work)``
    back, ``fm(work, phi) -> work`` on the steps of an F_m window and
    ``channel(work, out) -> result``; ``checkpoint`` follows each step s.
    Returns (work, spare).
    """
    coin = _coin_map(work.ndim // 2, coin_operator(schedule.theta))
    for s in steps:
        shift(_apply_coin_map(work, coin, spare), work)
        phi = schedule.phi_at(s)
        if phi is not None:
            work = fm(work, phi)
        if channel is not None:
            work, spare = channel(work, spare), work
        work, spare = checkpoint(s, work, spare)
    return work, spare


def _stretches(schedule: Schedule) -> list[tuple[int, int]]:
    """(lo, hi) for the runs of steps lo+1 .. hi between events: t = 0, the
    coin-gate times, the F_m window edges and total_steps.  The steps of one
    stretch are all plain or all in one window."""
    events = sorted({0, schedule.total_steps,
                     *(t for t, _ in schedule.coin_gate_insertions),
                     *(edge for start, end, _ in schedule.fm_windows for edge in (start, end))})
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


# ---------------------------------------------------------------------------
# Front ends: pure states, then density operators.

@dataclass(frozen=True)
class EvolutionResult:
    """Final state and snapshots of a run: PureStates from ``evolve``,
    DensityOperators from ``channels.evolve_open``."""

    final: PureState | DensityOperator
    snapshots: dict[int, PureState | DensityOperator]


def evolve(
    state: PureState,
    schedule: Schedule,
    snapshot_times: Sequence[int] = (),
    observe: Callable[[int, np.ndarray], None] | None = None,
) -> EvolutionResult:
    """Run a schedule on a pure state.

    Snapshots are taken after the complete step (and after any coin-gate
    insertion at that time).  Schedules carrying a noise channel must use
    the open-system runner instead.  Each plain stretch between events (see
    ``_stretches``) is one jump: the state at its start t_e goes to momentum
    space once, and the state at each later time t of the stretch that is
    needed is to_position(Z^(t - t_e) psi~_e), never one derived from another,
    so observing a run cannot change its arithmetic.  The steps of an F_m
    window, whose phase e^{i phi x} need not fit the lattice period, are
    taken one by one in position space on a coin-major (2, N) working array.
    Snapshots and the final state are converted back to (N, 2), and their
    norms validated.

    ``observe(t, amp)`` is called at every t = 0..total_steps, after that
    time's insertions, with the coin-major array amp[c] = psi[:, c], which
    it must neither keep nor modify.  Each observation or snapshot inside a
    plain stretch costs one inverse DFT.
    """
    if schedule.channel is not None:
        raise ScheduleError("schedule has a channel; use channels.evolve_open")
    lattice = state.lattice
    phases = {phi: _fm_phase(lattice.sites, phi) for _, _, phi in schedule.fm_windows}
    power = _PlainPower(schedule.theta, lattice.momenta)
    checkpoint = _Checkpoints(schedule, snapshot_times,
                              lambda a: state.with_amplitudes(_transpose(a)), observe)
    amp, spare = checkpoint(0, _transpose(state.amplitudes), np.empty((2, lattice.n_sites), complex))
    for lo, hi in _stretches(schedule):
        if schedule.phi_at(hi) is None:
            kamp = to_momentum(amp.T)
            for t in checkpoint.times(lo, hi):
                amp, spare = checkpoint(t, _transpose(to_position(power.apply(t - lo, kamp))), spare)
        else:
            amp, spare = _run(amp, spare, schedule, range(lo + 1, hi + 1), checkpoint, _shift,
                              lambda a, phi: np.multiply(a, phases[phi], out=a))
    return EvolutionResult(state.with_amplitudes(_transpose(amp)), checkpoint.snaps)


def step(state: PureState, theta: float) -> PureState:
    """One plain walk step, coin flip then conditional shift.

    Each call converts and validates the whole state; loop with ``evolve``.
    """
    return evolve(state, Schedule(1, theta)).final


def _run_density(layout: MomentumLayout, rho0, schedule: Schedule,
                 snapshot_times: Sequence[int] = (), observe: Callable | None = None,
                 channel: Callable | None = None) -> tuple[np.ndarray, dict[int, Any]]:
    """_run on rho0 laid out on ``layout``; returns the final working array
    and the snapshots, materialized in position space and validated."""
    lattice = layout.lattice
    checkpoint = _Checkpoints(schedule, snapshot_times,
                              lambda w: DensityOperator(lattice, layout.materialize(w)), observe)
    work = layout.start(rho0)
    work, spare = checkpoint(0, work, np.empty_like(work))
    work, _ = _run(work, spare, schedule, range(1, schedule.total_steps + 1), checkpoint,
                   layout.shift(), layout.apply_fm, channel)
    return work, checkpoint.snaps


def _conjugate_coins(rho: DensityOperator, cmap: np.ndarray) -> DensityOperator:
    """A 4x4 coin superoperator applied at every (x, x') of rho's (N, 2, N, 2) matrix."""
    mat = np.einsum("cdab,xayb->xcyd", cmap.reshape(2, 2, 2, 2), rho.matrix, optimize=True)
    return DensityOperator(rho.lattice, mat)


def conjugate_coin(rho: DensityOperator, u: np.ndarray) -> DensityOperator:
    """rho -> (1 (x) U) rho (1 (x) U)† for a unitary coin gate.

    Each call validates the whole state; loop with ``evolve_open``.
    """
    return _conjugate_coins(rho, _coin_map(2, _check_unitary(u)))


def step_density(rho: DensityOperator, theta: float) -> DensityOperator:
    """rho -> Z rho Z†, as a one-step run on the full momentum support.

    Each call transforms and validates the whole state; loop with ``evolve_open``.
    """
    layout = MomentumLayout.pairs(rho.lattice)
    work, _ = _run_density(layout, rho, Schedule(1, theta))
    return DensityOperator(rho.lattice, layout.materialize(work, consume=True))
