"""Per-step noise channels on the walk density operator, and the open walk:
rho's momentum layout, its one runner and its memory bound.

Pure dephasing shrinks off-diagonal elements toward the diagonal in a
chosen index (coin, walker, or both); amplitude damping and bit flip act
on the coin through Kraus pairs.  The bath strength eta is per step, so
each application scales coherences by lambda = e^{-eta} and an n-step run
accumulates e^{-eta n}.  ``evolve_open`` advances a density matrix over
steps, through the step loop that ``walk.evolve`` runs inside an F_m window,
on a ``MomentumLayout``: the stored lines of a ring of momenta.  An open
run takes no F_m window: the paper's decoherence runs use none.  Every
channel here is translation-invariant, so it either keeps each pair
(k, k') on its own (the coin-local ones) or mixes only the pairs of one
line of constant k - k' (walker and both dephasing), and a start that
occupies a narrow band of momenta is stepped on that band alone.
The layout owns the basis its lines are stepped in, momenta on a window
ring and relative position y = x - x' on a ring of all N, where the shift
is a per-line phase and a roll and line dephasing is a mask on the y = 0
column folded into the shift.  P(x) reads only that column, so a run there
that keeps no state steps only the columns of y that can still reach it, a
window that narrows as the run ends (``_windows``).  Every start, pure or
not, is laid out one coin block at a time through one buffer and cut to
the window of y its run steps first (``MomentumLayout.start``).  The
layout also owns the mirror rule: every channel here keeps rho Hermitian,
so a run steps only half the lines of its ring and takes the others as
their Hermitian mirror (``_mirrored``), and no line's norm grows, so a
pure start drops the lines past a 1e-30 tail.
A coin-local channel's 4x4 map S is left owed by each step and folded into
the next coin map, C S, so every step is one coin product and one shift
(``walk._Checkpoints``).  Every observation is a read at a time asked for
that leaves the run unchanged: a snapshot applies an owed S into the copy
it materializes from, and a fidelity, one contraction, reads an owing
state against S^T start.  Every map of a step acts on each
stored line alone, so a layout larger than ``_BLOCK_BYTES`` a working array
runs in row blocks, each a self-contained run through the whole schedule
with its own ``_Checkpoints``; the blocks share only one allocation, which
each reuses in turn, the summed fidelity and the line sums, and every
block ends alike: its fidelity trace added, what it owes paid, its line
sums read in the basis it was stepped in.  Open runs and closed fidelity
runs, and so every protocol of ``analysis``, run inside ``lattice``'s
BLAS hold (``lattice._one_blas_thread``), in which a Gaussian start is
normalised and every scenario runs, so that no contraction is split and
results do not depend on ``OPENBLAS_NUM_THREADS``.
``open_layout`` picks the layout, ``_run_open`` is the one runner on it
and checks the trace once, from line 0's sums, ``evolve_open`` returns
P(x) read from line sums and the final state of a run stepped whole, and
``fidelity_trace`` takes a run's fidelity to its start at the times its
caller reads, an open run's in its own basis, a closed run's from the
snapshots ``walk.evolve`` hands its ``read``, and keeps no final state.
``density_working_set_bytes`` bounds what a run allocates.  Only
``_run_open`` calls ``open_layout``, so each open run is laid out once, and
its support reaches the caller with its result (``OpenResult.layout``, the
layout ``fidelity_trace`` returns) instead of being laid out again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .lattice import (TRACE_TOL, DensityOperator, LatticeConfig, PureState, StateError,
                      _one_blas_thread, fidelity, to_momentum, to_position)
from .walk import (SIGMA_X, Schedule, ScheduleError, _apply_coin_map, _Checkpoints, _coin_map,
                   _in_run, _run, evolve)

COMPLETENESS_TOL = 1e-12
# |psi~|^2 a pure start may leave outside its momentum window on each side
SUPPORT_TOL = 1e-30
# how far below 0 a probability read from the support may fall by rounding
PROBABILITY_TOL = 1e-12

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
    for coin dephasing, the Kraus sum otherwise; real for all three."""
    if spec.kind == DEPHASING:
        lam = np.exp(-spec.eta)
        return np.diag([1.0, lam, lam, 1.0])
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
    diagonal.  The coin-local channels apply their 4x4 coin superoperator
    at every (x, x').  Each call validates the whole state, so multi-step
    callers run ``evolve_open`` with the channel in the schedule instead.
    """
    if spec.eta == 0:
        return rho
    if spec.kind != DEPHASING or spec.target == TARGET_COIN:
        superop = _coin_superop(spec).reshape(2, 2, 2, 2)
        mat = np.einsum("cdab,xayb->xcyd", superop, rho.matrix, optimize=True)
        return DensityOperator(rho.lattice, mat)
    same_site = np.eye(rho.lattice.n_sites, dtype=bool)[:, None, :, None]
    if spec.target == TARGET_BOTH:
        same_site = same_site & np.eye(2, dtype=bool)[None, :, None, :]
    mat = np.where(same_site, rho.matrix, np.exp(-spec.eta) * rho.matrix)
    return DensityOperator(rho.lattice, mat)


# ---------------------------------------------------------------------------
# rho's momentum layout.

_COIN_PAIRS = tuple(itertools.product((0, 1), repeat=2))


def _pair_dft(block: np.ndarray, inverse: bool = False) -> np.ndarray:
    """In place on one N x N coin block: rho -> rho~, or rho~ -> rho with ``inverse``.

    rho~(k, k') = sum_{x, x'} e^{i(kx - k'x')} rho(x, x') / N: ``to_momentum``
    along the ket axis and ``to_position`` along the bra axis, both in place,
    so the transform needs no N x N temporaries.
    """
    ket, bra = (to_position, to_momentum) if inverse else (to_momentum, to_position)
    ket(block, axis=0, out=block)
    bra(block, axis=1, out=block)
    return block


_SHEAR_COLUMNS = 8  # columns per chunk of a shear


def _shear(block: np.ndarray, sign: int) -> None:
    """Roll column j of an n x n block by sign*j, in place.

    sign = 1 takes lines, block[(a - b) mod n, b] = rho~(a, b), to pairs;
    sign = -1 takes them back.  Column chunks keep the temporaries small.
    """
    n = len(block)
    rows = np.arange(n)[:, None]
    for lo in range(0, n, _SHEAR_COLUMNS):
        cols = block[:, lo:lo + _SHEAR_COLUMNS]
        shift = np.arange(lo, lo + cols.shape[1])
        cols[...] = np.take_along_axis(cols, (rows - sign * shift) % n, axis=0)


def _mirrored(lines: int, ring: int) -> range:
    """The mirror rule: the stored lines q < ``lines`` of a ring of R =
    ``ring`` momenta whose mirror, line R - q, is a distinct line that is
    not stored.  Line 0 and, for even R, line R/2 are their own mirrors."""
    return range(1, min(lines, ring - lines + 1))


def _mirror_weights(lines: int, ring: int) -> np.ndarray:
    """w_q over the stored lines: 2 for a line of ``_mirrored``, which also
    stands for its mirror, and 1 for the rest."""
    mirrored = _mirrored(lines, ring)
    return np.repeat((1.0, 2.0, 1.0), (mirrored.start, len(mirrored), lines - mirrored.stop))


@dataclass(frozen=True, eq=False)
class MomentumLayout:
    """The momentum support a density operator is stepped on: the lines of a
    ring of momenta, and the basis they are stepped in.

    The ring is the R = ``ring`` momenta lo .. lo+R-1, and in momenta the
    working array holds work[c, d][q, j] = rho~(k_a, c; k_b, d) for
    b = lo + j and a = lo + (j + q) mod R: row q is the line of offset q
    around the ring, and every pair of ring momenta lies on one line.  Line
    R - q is the Hermitian mirror of line q, rho~(k_b, d; k_a, c) = conj
    rho~(k_a, c; k_b, d), so only the ``lines`` offsets q = 0 .. lines-1, at
    most R//2 + 1 of them, are stored, and the layout owns the rule of which
    stored lines stand for a mirror too (``_mirrored``).  Each map of a step
    (coin maps, the shift, the dephasing mask) acts line by line and keeps
    rho Hermitian, so it never needs the mirror half; ``materialize`` and
    ``fidelity_start`` fill it in.  rho~ is taken as zero on the lines of
    the ring that are neither stored nor mirrored, and off the ring;
    ``tail`` is the weight a start had on those lines of the ring, counting
    mirrors (``open_layout``).

    A ring of all N momenta makes its lines those of constant k - k', which
    walker and both dephasing mix; a ring of the start's momentum window
    serves channels that keep each (k, k') on its own.  A block of N x N in
    the ring's line coordinates holds the support; ``_shear`` turns lines
    into pairs.  The layout also owns the basis a run steps in: a window
    ring in momenta, and a ring of all N (``relative``) in y = x - x' along
    the ring axis, reached by a unitary DFT that keeps every overlap, where
    line dephasing is a mask (``shift``).  ``start`` and ``shift`` take and
    return a block of stored lines, ``rows``, in that basis, ``line_sums``
    reads one in it, and ``momenta`` brings one back to momenta, which
    ``materialize`` reads.
    """

    lattice: LatticeConfig
    lo: int
    ring: int
    lines: int
    tail: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.lines, self.ring

    @property
    def full(self) -> bool:
        """Whether every line of the lattice is stored or mirrored."""
        n = self.lattice.n_sites
        return self.shape == (n // 2 + 1, n)

    def _on_ring(self, values: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """values[..., a] over momenta as the (..., lines, ring) view [..., q, j]
        at a = lo + (j + q) mod R, of the stored lines ``rows``, with no copy
        beyond the ring's two turns."""
        ring = values[..., self.lo:self.lo + self.ring]
        turns = np.concatenate((ring, ring), axis=-1)
        view = np.lib.stride_tricks.sliding_window_view(turns, self.ring, axis=-1)
        return view[..., :self.lines, :][..., rows, :]

    def start(self, state, rows: slice, out: np.ndarray) -> np.ndarray:
        """out = the stored lines ``rows`` of rho0 in the basis they are
        stepped in: of |psi><psi| for a PureState, laid out from psi~ alone,
        or of a DensityOperator, which needs the full support and is laid out
        whole; returns out.  Each coin block goes through one buffer in
        momenta, is taken to y on a ring of all N, and its centre
        ``out.shape[-1]`` columns are copied into out: on a ring of all N,
        out may be any window of y centred on y = 0 (``_windows``)."""
        if pure := isinstance(state, PureState):
            amp = to_momentum(state.amplitudes).T
            ket, bra = self._on_ring(amp, rows), amp[:, self.lo:self.lo + self.ring].conj()
        elif not self.full:
            raise StateError("a density operator start needs the full momentum support")
        # a pure start's (rows, R) lines, or a density operator's N x N pairs
        block = np.empty((out.shape[2] if pure else self.ring, self.ring), dtype=complex)
        stored = block if pure else block[:self.lines][rows]
        lo = self.ring // 2 - out.shape[-1] // 2
        for c, d in _COIN_PAIRS:
            if pure:
                np.multiply(ket[c], bra[d], out=block)
            else:  # to pairs in momenta, sheared to lines
                block[...] = state.matrix[:, c, :, d]
                _shear(_pair_dft(block), -1)
            if self.relative:
                to_position(stored, axis=-1, out=stored)
            out[c, d] = stored[:, lo:lo + out.shape[-1]]
        return out

    def momenta(self, work: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """``work`` in momenta: brought back from y along the ring axis into
        ``out`` (which may be work, or None for a new array) and returned, or
        on a window ring, which is stepped in momenta, work itself."""
        return to_momentum(work, axis=-1, out=out) if self.relative else work

    def fidelity_start(self, work: np.ndarray, rows: slice, out: np.ndarray) -> np.ndarray:
        """out = the stored lines ``rows`` of the start, ``work``, weighed for
        the fidelity <psi|rho_t|psi> = sum_q w_q <line_q(0), line_q(t)>:
        line R - q's overlap is the conjugate of line q's, so a line of
        ``_mirrored`` counts twice (``_mirror_weights``); returns out."""
        # by a scalar, then the rows that count once: a multiply by the
        # weights would allocate numpy's casting buffers, about 128 kB
        np.multiply(work, 2.0, out=out)
        for i in np.flatnonzero(_mirror_weights(*self.shape)[rows] == 1):
            out[:, :, i] = work[:, :, i]
        return out

    def _pairs(self, stored: np.ndarray, mirror: np.ndarray, block: np.ndarray) -> np.ndarray:
        """block = one coin block of rho~ as N x N pairs, from its ``stored``
        lines and those of the transposed coin block, ``mirror``; returns block.

        The lines go in the ring's view of the block, with the mirror filled
        in, and are sheared to pairs.  Line R - q of block (c, d) at j is line
        q of block (d, c) at j - q, conjugated; it is filled row by row, from
        slices, with no temporaries.
        """
        lines, ring = self.shape
        view = block[self.lo:self.lo + ring, self.lo:self.lo + ring]
        block.fill(0)
        view[:lines] = stored
        for q in _mirrored(lines, ring):
            np.conjugate(mirror[q, :ring - q], out=view[ring - q, q:])
            np.conjugate(mirror[q, ring - q:], out=view[ring - q, :q])
        _shear(view, 1)
        return block

    def materialize(self, work: np.ndarray) -> np.ndarray:
        """rho(x, c; x', d) as a new (N, 2, N, 2) array from ``work`` in
        momenta, one coin block at a time, through one N x N block."""
        n = self.lattice.n_sites
        out = np.empty((n, 2, n, 2), dtype=complex)
        block = np.empty((n, n), dtype=complex)
        for c, d in _COIN_PAIRS:
            out[:, c, :, d] = _pair_dft(self._pairs(work[c, d], work[d, c], block), inverse=True)
        return out

    def line_sums(self, work: np.ndarray, rows: slice) -> np.ndarray:
        """(head, tail) of the stored lines ``rows`` of ``work``, in the basis
        they are stepped in: each row's sum of blocks (0,0) + (1,1) over
        momentum columns j < R - q, and over the rest, which ``distribution``
        reads.  Row-local.  On a window ring these are sums over momenta.  On
        a ring of all N a row's sum over momenta is sqrt(N) times its y = 0
        column, the centre of the window of y ``work`` spans, as sum_k f~(k) =
        sqrt(N) f(0), and offsets q and q - N meet in ``distribution``, so
        the head holds it all and the tail is 0."""
        if self.relative:
            y0 = work.shape[-1] // 2
            head = np.sqrt(self.ring) * (work[0, 0, :, y0] + work[1, 1, :, y0])
            return np.stack((head, np.zeros_like(head)))
        sums = work[0, 0] + work[1, 1]
        q = np.arange(self.lines)[rows]
        head = np.where(np.arange(self.ring) < self.ring - q[:, None], sums, 0).sum(axis=1)
        return np.stack((head, sums.sum(axis=1) - head))

    def distribution(self, sums: np.ndarray) -> np.ndarray:
        """P(x) = sum_c rho(x, c; x, c) from all stored lines' ``line_sums``.

        P(x) = N^-1 sum_d L(d) e^{-2 pi i d x / N}, where L(d) sums blocks
        (0,0) + (1,1) over the pairs of momentum offset a - b = d (mod N).
        Row q holds offset q in its head and offset q - R in its tail; its
        mirror, row R - q, adds their conjugates at offsets -q and R - q.
        Raises StateError unless P is finite, at least ``-PROBABILITY_TOL``
        and sums to 1 to ``TRACE_TOL``.
        """
        n = self.lattice.n_sites
        lines, ring = self.shape
        head, tail = sums
        q = np.arange(lines)
        mirrored = np.array(_mirrored(lines, ring), dtype=int)
        offsets = np.concatenate((q, q - ring, -mirrored, ring - mirrored)) % n
        terms = np.concatenate((head, tail, head[mirrored].conj(), tail[mirrored].conj()))
        by_offset = np.zeros(n, dtype=complex)
        np.add.at(by_offset, offsets, terms)
        # to_position sums e^{-i k x} over k = -pi + 2 pi d / N: e^{i pi x} = (-1)^x apart
        prob = to_position(by_offset, out=by_offset).real * (
            np.where(self.lattice.sites % 2, -1.0, 1.0) / np.sqrt(n))
        if not np.isfinite(prob).all():
            raise StateError("position distribution is not finite")
        if not prob.min() >= -PROBABILITY_TOL:
            raise StateError(f"position distribution falls to {prob.min()!r}, below 0")
        if not abs(prob.sum() - 1.0) <= TRACE_TOL:
            raise StateError(f"position distribution sums to {prob.sum()!r}, not 1")
        return prob

    def check_trace(self, sums: np.ndarray) -> None:
        """Raise StateError unless tr rho is 1 to ``TRACE_TOL``, as a
        DensityOperator would, from line 0's ``line_sums``: the pairs k = k'."""
        tr = sums[:, 0].sum().real
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise StateError(f"density matrix trace {tr!r} deviates from 1")

    @property
    def relative(self) -> bool:
        """Whether the ring holds all N momenta, so that a run steps it in
        relative position y = x - x' along the ring axis (``shift``)."""
        return self.ring == self.lattice.n_sites

    def shift(self, spec: ChannelSpec | None, rows: slice,
              phase: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The step's shift on the stored lines ``rows``, (work, out) -> out =
        D(k) (x) D*(k') work, with ``spec`` folded in if it is walker or both
        dephasing; its factor per coin block is built in ``phase``.

        A pair's phase is e^{i s_c k_a} e^{-i s_d k_b}, with s = (1, -1).  On a
        window ring it is one multiply per coin block by a product of e^{ik_a}
        on the ring, e^{ik_b} and their conjugates.  A ring of all N momenta is
        stepped in y = x - x', each line's ``to_position`` along j, on a
        window of y as wide as ``phase``, with y = 0 at its centre (index N/2
        of the whole ring).  There the phase is e^{i s_c 2 pi q / N} on line q
        times e^{i (s_c - s_d) k_b}, which rolls the line by s_c - s_d, around
        the window, and line dephasing, lam rho + (1 - lam) P(rho), is a
        mask: 1 on the y = 0 column of the blocks P keeps, lam everywhere
        else.  Both fold into one factor per block, applied through a flat
        offset of the block, whose columns that took a neighbouring line's
        end are then refilled.
        """
        if not self.relative:
            ket = np.exp(1j * self.lattice.momenta)
            bra = ket[self.lo:self.lo + self.ring]
            phase[0, 0] = self._on_ring(ket, rows)
            np.multiply(phase[0, 0], bra, out=phase[0, 1])
            np.conjugate(phase[0, 1], out=phase[1, 0])
            phase[0, 0] *= bra.conj()
            np.conjugate(phase[0, 0], out=phase[1, 1])
            return lambda work, out: np.multiply(work, phase, out=out)
        n = phase.shape[-1]
        mask = np.ones((2, 2, n))
        if _mixes_lines(spec):
            mask[...] = np.exp(-spec.eta)
            for c, d in _COIN_PAIRS if spec.target == TARGET_WALKER else ((0, 0), (1, 1)):
                mask[c, d, n // 2] = 1.0
        line = np.exp(2j * np.pi * np.arange(self.lines)[rows] / self.ring)
        np.multiply(np.stack((line, line.conj()))[:, None, :, None], mask[:, :, None, :], out=phase)
        flat = phase.reshape(4, -1)

        def step(work: np.ndarray, out: np.ndarray) -> np.ndarray:
            src, dst = work.reshape(4, -1), out.reshape(4, -1)
            # blocks (0,0) and (1,1) keep their columns
            np.multiply(src[::3], flat[::3], out=dst[::3])
            # (0,1) rolls by 2 and (1,0) by -2: one flat offset for all lines,
            np.multiply(src[1, :-2], flat[1, 2:], out=dst[1, 2:])
            np.multiply(src[2, 2:], flat[2, :-2], out=dst[2, :-2])
            # then the two columns of each line that took a neighbouring line's end
            np.multiply(work[0, 1, :, -2:], phase[0, 1, :, :2], out=out[0, 1, :, :2])
            np.multiply(work[1, 0, :, :2], phase[1, 0, :, -2:], out=out[1, 0, :, -2:])
            return out

        return step


def momentum_window(prob: np.ndarray) -> tuple[int, int]:
    """The smallest [lo, hi) that leaves at most ``SUPPORT_TOL`` of ``prob``
    outside it on each side.

    Each tail is summed from its own end: a sum from the left cannot resolve
    a tail of 1e-30 against a total near 1.
    """
    lo = np.searchsorted(np.cumsum(prob), SUPPORT_TOL, side="right")
    dropped = np.searchsorted(np.cumsum(prob[::-1]), SUPPORT_TOL, side="right")
    return int(lo), len(prob) - int(dropped)


def _line_norms(prob: np.ndarray) -> np.ndarray:
    """||line_q||^2 of |psi><psi| on the N//2 + 1 lines of the ring of all N
    momenta, from ``prob`` = |psi~|^2.  Line q holds the pairs of offsets q
    and q - N, so it is r(q) + r(N - q), with r(d) = sum_b p(b + d) p(b)
    summed directly: a DFT cannot resolve a tail of 1e-30."""
    n = len(prob)
    r = np.append(np.correlate(prob, prob, "full")[n - 1:], 0.0)
    q = np.arange(n // 2 + 1)
    return r[q] + r[n - q]


def _kept_lines(prob: np.ndarray) -> tuple[int, float]:
    """The fewest lines Q, at least one, of the ring of all N momenta whose
    dropped tail tau = sum_{q >= Q} w_q ||line_q||^2 of |psi><psi| is at most
    ``SUPPORT_TOL``, and tau, from ``prob`` = |psi~|^2.  w_q = 2 for a line
    with a mirror, 1 for q = 0 and q = N/2 (``_mirror_weights``), as in the
    fidelity start.  The tail is summed from its own end, as in
    ``momentum_window``."""
    n = len(prob)
    tails = np.cumsum((_mirror_weights(n // 2 + 1, n) * _line_norms(prob))[::-1])
    dropped = min(int(np.searchsorted(tails, SUPPORT_TOL, side="right")), n // 2)
    return n // 2 + 1 - dropped, float(tails[dropped - 1]) if dropped else 0.0


def open_layout(rho0: DensityOperator | PureState, schedule: Schedule) -> MomentumLayout:
    """The momentum support ``evolve_open`` steps rho0 on through ``schedule``.

    Coin-local channels and no channel step a ring of momenta and store its
    R//2 + 1 lines.  For a PureState start, meaning |psi><psi|, the ring is
    the window of M momenta that ``momentum_window`` keeps of |psi~|^2; for
    a DensityOperator start it is all N.  Walker and both dephasing step the
    lines of all N momenta, R = N.
    From a PureState they store only the lines ``_kept_lines`` keeps, and
    the layout's ``tail`` is the weight of the rest: every map of their step
    keeps each line's norm or shrinks it, so the dropped lines move the
    fidelity by at most ``tail`` and P(x) by at most sqrt(2 ``tail``).
    ``start`` lays a state out on it.
    A schedule with an F_m window raises ``ScheduleError``, whatever the
    start and channel, and a schedule channel that is not a ChannelSpec
    raises ``ChannelError``.
    """
    if schedule.fm_window is not None:
        raise ScheduleError("an open run takes no F_m window")
    spec = schedule.channel
    if spec is not None and not isinstance(spec, ChannelSpec):
        raise ChannelError(f"schedule.channel must be a ChannelSpec, got {type(spec).__name__}")
    lattice = rho0.lattice
    n = lattice.n_sites
    pure = isinstance(rho0, PureState)
    prob = np.sum(np.abs(to_momentum(rho0.amplitudes)) ** 2, axis=1) if pure else None
    if _mixes_lines(spec):
        lines, tail = _kept_lines(prob) if pure else (n // 2 + 1, 0.0)
        return MomentumLayout(lattice, 0, n, lines, tail)
    lo, hi = momentum_window(prob) if pure else (0, n)
    return MomentumLayout(lattice, lo, hi - lo, (hi - lo) // 2 + 1)


def density_working_set_bytes(n_sites: int) -> int:
    """Predicted peak bytes of one density-operator run on ``n_sites``: three
    density matrices of 16 (2N)^2 bytes plus 256 kB of numpy buffers.

    An upper bound on the tracemalloc peak of an open revival or
    ``evolve_open``, final validation included.  The largest layout is a
    DensityOperator start's, every line of all N momenta, stepped as one
    block: beside the start matrix, one allocation holds the working array,
    its spare and the shift factor, about half a matrix each, and stays as
    the final state once the start matrix is freed, beside which the state is
    materialized with one N x N coin block and validated with band-sized
    temporaries.  A pure start needs less, as its layout is smaller and is
    stepped in row blocks: the working array, its spare, the shift factor,
    the fidelity start and, for a coin-local channel, S^T start are views of
    one allocation, each at most about ``_BLOCK_BYTES`` (a layout's rows
    split as evenly as may be), which every block of the run reuses.  P(x)
    and the trace check, read from the (2, lines) line sums, need no matrix
    at all.  The final state of a run stepped whole stays a view of its
    allocation, spare and shift factor included: copied out, it would
    exceed this bound.
    """
    return 3 * 16 * (2 * n_sites) ** 2 + 256 * 1024


@dataclass(frozen=True, eq=False)
class OpenResult:
    """An open run's end: its ``layout``, the final working array in momenta
    of a run stepped whole that reads no fidelity (else None), the
    ``line_sums`` of all stored lines, set for every run, and the snapshots,
    validated DensityOperators.

    ``final`` materializes and validates rho on its first read and keeps it,
    or raises StateError if the run kept no rows; ``distribution()`` reads
    P(x) from the line sums.
    """

    layout: MomentumLayout
    work: np.ndarray | None = field(repr=False)
    sums: np.ndarray | None = field(repr=False)
    snapshots: dict[int, DensityOperator]

    @cached_property
    def final(self) -> DensityOperator:
        if self.work is None:
            raise StateError("the run kept no final state: pass snapshot_times that include T")
        return DensityOperator(self.layout.lattice, self.layout.materialize(self.work))

    def distribution(self) -> np.ndarray:
        """The final P(x), as ``MomentumLayout.distribution`` checks it."""
        return self.layout.distribution(self.sums)


def evolve_open(
    rho0: DensityOperator | PureState,
    schedule: Schedule,
    snapshot_times: Sequence[int] = (),
) -> OpenResult:
    """Run a schedule on a density operator, channel after every step.

    ``rho0`` is a DensityOperator or a PureState psi, meaning |psi><psi|.
    The per-step order is unitary step, then channel; coin-gate insertions
    are applied (unitarily) after the completed step, before any snapshot.
    A schedule without a channel runs closed but on rho, useful for
    cross-checking against the pure-state path.  The step loop is the one
    ``walk.evolve`` runs inside an F_m window, on the momentum support of
    ``open_layout``, and a schedule with an F_m window raises
    ``ScheduleError``.  Trace and Hermiticity are validated at every snapshot,
    materialized in position space, and a snapshot time outside the run
    raises ``ScheduleError``.  The final trace is checked from the line
    sums the run hands back; the final state is materialized and validated
    when ``final`` is first read.
    """
    return _run_open(rho0, schedule, snapshot_times)[0]


def fidelity_trace(psi: PureState, schedule: Schedule,
                   times: Sequence[int] | None = None) -> tuple[np.ndarray, MomentumLayout | None]:
    """(trace, layout) of a run of ``schedule`` from psi: the fidelity to psi at
    each of ``times``, every t = 0..total_steps by default, and the
    ``MomentumLayout`` the open run stepped (None closed), so that a caller
    reads the support from the run instead of laying it out again.  Closed
    it is ``lattice.fidelity(psi, .)`` of the snapshots ``walk.evolve``
    hands its ``read`` at those times; under the channel <psi|rho_t|psi>,
    contracted at those times alone.  The run holds BLAS at one thread, and
    a time outside it raises ``ScheduleError``.  The open run's final state
    is not kept; its trace is checked from line 0's sums, as every open
    run's is.  A start that is not a ``PureState`` raises ``StateError``."""
    if not isinstance(psi, PureState):
        raise StateError(f"a fidelity run starts from a PureState, not {type(psi).__name__}")
    times = range(schedule.total_steps + 1) if times is None else times
    if schedule.channel is None:
        _in_run("fidelity", times, schedule)
        with _one_blas_thread():
            read = evolve(psi, schedule, times, read=partial(fidelity, psi)).snapshots
        return np.array([read[t] for t in times], dtype=float), None
    result, trace = _run_open(psi, schedule, fidelity_times=times)
    return trace, result.layout


# bytes of one working array stepped at a time: a larger layout runs in
# row blocks of its stored lines, each through the whole schedule
_BLOCK_BYTES = 768 * 1024


def _windows(steps: int, ring: int) -> list[tuple[int, int]]:
    """(t, width) of each window of y a final-state run of ``steps`` steps on
    a ring of all N = ``ring`` momenta steps, from time t on.

    The coin map and the dephasing mask act column by column, and the shift
    keeps blocks (0,0) and (1,1) in place and rolls (0,1) and (1,0) by 2, so
    with s steps left only the columns |y| <= 2s can still reach y = 0, the
    column ``line_sums`` reads.  A run is cut to those 4s + 1 columns once
    they fit in half its window, at t = 0 if 4T + 1 <= N/2.  The roll then
    wraps around inside the window, which puts wrong values only in columns
    more than 2s from its centre, and they never reach it: the whole y = 0
    column of every coin block ends exact.  (P(x) reads blocks (0,0) and
    (1,1) alone, which the last shift leaves in place, so 4s - 3 columns
    would keep P(x); 4s - 5 would not.)
    """
    t, width, windows = 0, ring, []
    while (left := min(steps - t, (width - 2) // 8)) > 0:
        if steps - left > t:
            windows.append((t, width))
        t, width = steps - left, 4 * left + 1
    return windows + [(t, width)]


def _narrowed(work: np.ndarray, spare: np.ndarray, factor: np.ndarray,
              width: int) -> tuple[np.ndarray, ...]:
    """(work, spare, factor) cut to their ``width`` centre columns of y inside
    their own memory: work's centre is copied into the head of spare's
    memory, which becomes work, and the heads of work's and factor's memory
    become the new spare and factor."""
    def head(array):
        return array.reshape(-1)[:array.size // array.shape[-1] * width].reshape(
            *array.shape[:-1], width)

    lo = work.shape[-1] // 2 - width // 2
    narrow = head(spare)
    narrow[...] = work[..., lo:lo + width]
    return narrow, head(work), head(factor)


def _run_open(rho0, schedule: Schedule, snapshot_times: Sequence[int] = (),
              fidelity_times: Sequence[int] = ()) -> tuple[OpenResult, np.ndarray]:
    """The one open run: rho0 laid out on ``open_layout`` and ``walk._run``
    stepping the working array through ``schedule``, OpenBLAS on one thread
    (``_one_blas_thread``).  Every map of a step acts on each stored line
    alone, so the lines run in ceil(working-array bytes / ``_BLOCK_BYTES``)
    contiguous row blocks, as even as may be.  Each block is a run of its
    own: laid out from psi~ by ``MomentumLayout.start`` in the basis the
    layout steps it in, with its own spare, shift factor, fidelity start,
    S^T start for a coin-local channel's owed map S, and ``_Checkpoints``,
    which holds S; walker and both dephasing ride in the shift.  The run's
    two reads, a snapshot and a fidelity, pay nothing (``read``).  The blocks
    share only one allocation, whose views each block reuses, the fidelity
    and the line sums.  Every block ends alike, and depends on its index
    only through its ``rows``: its fidelity reads are added to the trace in
    block order, it pays what it still owes, and it writes its ``line_sums``, read
    in the basis it was stepped in.  Every channel here is trace preserving,
    so the sums would not need the payment in exact arithmetic; paying keeps
    a run in blocks bit-identical to the same run whole.  The final trace is
    then checked once, from line 0's sums.  A run on a ring of all N that
    keeps no state (a PureState start, no snapshot or fidelity time) needs
    only the y = 0 column at the end: each block steps the windows of y of
    ``_windows``, one ``_run`` and one shift factor each, cut in place by
    ``_narrowed``, with S still owed across a cut, and the block count is
    taken from the first window's width.  A run with snapshots, or from a
    DensityOperator, is stepped whole, in one block; unless it is a fidelity
    run, one with any fidelity time, it alone keeps its final rows, brought
    back to momenta, as a view of the allocation.  Returns (OpenResult, the
    fidelity <psi|rho_t|psi> for rho0 = psi at each of ``fidelity_times``,
    contracted at those times alone)."""
    layout = open_layout(rho0, schedule)
    snapshot_at = _in_run("snapshot", snapshot_times, schedule)
    fidelity_at = _in_run("fidelity", fidelity_times, schedule)
    lines, ring = layout.shape
    spec, steps = schedule.channel, schedule.total_steps
    owed = None if spec is None or spec.eta == 0 or _mixes_lines(spec) else _coin_superop(spec)
    fidelity = len(fidelity_times) > 0
    whole = len(snapshot_times) or not isinstance(rho0, PureState)
    windows = _windows(steps, ring) if layout.relative and not (whole or fidelity) else [(0, ring)]
    width = windows[0][1]
    # the bytes of four coin blocks of complex entries, in blocks of _BLOCK_BYTES
    count = 1 if whole else min(lines, -(-4 * 16 * lines * width // _BLOCK_BYTES))
    sums = np.empty((2, lines), dtype=complex)
    # work, spare and shift factor, then the fidelity start and S^T start
    arrays = 3 + fidelity + (fidelity and owed is not None)
    held = np.empty(arrays * 4 * -(-lines // count) * width, dtype=complex)
    times = np.array(fidelity_times, dtype=int)
    trace = np.zeros(len(times))
    snaps: dict[int, DensityOperator] = {}

    def read(t: int, work: np.ndarray, owing: bool) -> None:
        """The running block's reads at t, against its ``starts``; neither
        pays what ``work`` owes."""
        if t in snapshot_at:  # S applied into the copy the state is materialized from
            paid = _apply_coin_map(work, owed, np.empty_like(work)) if owing else work.copy()
            snaps[t] = DensityOperator(rho0.lattice, layout.materialize(layout.momenta(paid, paid)))
        if t in fidelity_at:
            # site-major, as lattice.fidelity_with_density sums; rho~_t is
            # zero off the support; an owing state against S^T start
            trace[times == t] += np.vdot(starts[owing], work).real

    with _one_blas_thread():
        for i in range(count):
            rows = slice(i * lines // count, (i + 1) * lines // count)
            size = arrays * 4 * (rows.stop - rows.start) * width
            work, spare, factor, *starts = held[:size].reshape(arrays, 2, 2, -1, width)
            layout.start(rho0, rows, work)
            if fidelity:
                layout.fidelity_start(work, rows, starts[0])
            if fidelity and owed is not None:
                _apply_coin_map(starts[0], owed.T, starts[1])
            checkpoint = _Checkpoints(schedule, 2, snapshot_at | fidelity_at, read, owed)
            work, spare = checkpoint(0, work, spare)
            for (begin, cut), (end, _) in zip(windows, windows[1:] + [(steps, 0)]):
                if cut < work.shape[-1]:
                    work, spare, factor = _narrowed(work, spare, factor, cut)
                work, spare = _run(work, spare, schedule, range(begin + 1, end + 1), checkpoint,
                                   layout.shift(spec, rows, factor))
            work, _ = checkpoint.pay(work, spare)
            sums[:, rows] = layout.line_sums(work, rows)
    layout.check_trace(sums)
    kept = layout.momenta(work, work) if whole and not fidelity else None
    return OpenResult(layout, kept, sums, snaps), trace
