"""Composite walker-coin state space on a finite periodic 1D lattice.

Sites are labeled x in {-N/2, ..., N/2 - 1} for even N, and the momentum
grid holds the N values k_j = 2*pi*j/N folded into [-pi, pi).  Pure states
live over sites: a (N, 2) complex amplitude array, index order (site, coin
level), with coin level 0 = up and 1 = down.  ``to_momentum`` and
``to_position``, the package's only DFT, move amplitude arrays between
sites and momenta along any one axis, in place if asked.

The module builds every state, so it also owns the BLAS hold,
``_one_blas_thread``: numpy's bundled OpenBLAS on one thread, its count
restored afterwards, so that no sum is split and a value does not depend
on ``OPENBLAS_NUM_THREADS``.  The Gaussian starts normalise inside it, by a
BLAS dot product that OpenBLAS would split across threads from about
10,000 entries on; ``fidelity`` and ``fidelity_with_density`` hold it
around their contraction, ``channels`` around every open and closed
fidelity run, and ``scenarios.run_scenario`` around every scenario.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-10
HERMITICITY_BAND = 32  # rows per band of the Hermiticity check
TRACE_TOL = 1e-10


class LatticeError(ValueError):
    """Invalid lattice construction or mismatched lattices."""


class StateError(ValueError):
    """Invalid state construction (bad normalization, out-of-range site, ...)."""


@dataclass(frozen=True)
class LatticeConfig:
    """Finite periodic lattice with centered site labels.

    ``sites`` runs -N/2 .. N/2-1; ``momenta`` are the matching N discrete
    momenta sorted ascending in [-pi, pi).
    """

    n_sites: int

    def __post_init__(self):
        n = self.n_sites
        if not isinstance(n, (int, np.integer)):
            raise LatticeError(f"N must be an integer, got {type(n).__name__}")
        if n < 4 or n % 2 != 0:
            raise LatticeError(f"N must be even and >= 4, got {n}")

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.n_sites // 2, self.n_sites // 2)

    @property
    def momenta(self) -> np.ndarray:
        n = self.n_sites
        return 2.0 * np.pi * np.arange(-n // 2, n // 2) / n


def make_lattice(n_sites: int) -> LatticeConfig:
    """Build a lattice of ``n_sites`` sites (even, >= 4).

    Recommended sizing for a run of ``t`` steps from a Gaussian of width
    ``sigma``: N >= 2*t + 8*sigma, rounded up to even.  The packet's tail
    beyond 4 sigma, a mass near erfc(2 sqrt 2) = 6.3e-5, can still wrap
    around the periodic boundary.
    """
    return LatticeConfig(int(n_sites))


def recommended_size(steps: int, sigma: float = 0.0) -> int:
    """Smallest even N satisfying the N >= 2*steps + 8*sigma sizing rule.

    A rule value that is not a finite float raises StateError.
    """
    try:
        n = int(np.ceil(2 * steps + 8 * sigma))
    except (OverflowError, ValueError):  # an infinite or nan size, or an int beyond float
        raise StateError(f"lattice size 2*{steps} + 8*{sigma} is not finite") from None
    n = max(n, 4)
    return n + (n % 2)


@dataclass(frozen=True)
class CoinState:
    """Normalized two-component coin state (up, down)."""

    up: complex
    down: complex

    def __post_init__(self):
        norm = abs(self.up) ** 2 + abs(self.down) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise StateError(f"coin state not normalized: |a|^2+|b|^2 = {norm!r}")

    @classmethod
    def from_vector(cls, vec) -> "CoinState":
        v = np.asarray(vec, dtype=complex)
        n = np.linalg.norm(v)
        if n == 0:
            raise StateError("zero coin vector")
        v = v / n
        return cls(complex(v[0]), complex(v[1]))

    def as_array(self) -> np.ndarray:
        return np.array([self.up, self.down], dtype=complex)


COIN_UP = CoinState(1.0, 0.0)
COIN_DOWN = CoinState(0.0, 1.0)
# Default delocalized-run coin: the symmetric state for theta = pi/4.
COIN_SYMMETRIC = CoinState(1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0))


@dataclass(frozen=True)
class PureState:
    """Walker-coin wavefunction over sites, amplitudes shaped (N, 2), unit L2 norm."""

    lattice: LatticeConfig
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.lattice.n_sites, 2):
            raise StateError(
                f"amplitude shape {amp.shape} does not match lattice "
                f"({self.lattice.n_sites}, 2)"
            )
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise StateError(f"state norm {norm!r} deviates from 1")
        object.__setattr__(self, "amplitudes", amp)
        self.amplitudes.setflags(write=False)

    def with_amplitudes(self, amp: np.ndarray) -> "PureState":
        return PureState(self.lattice, amp)


@dataclass(frozen=True)
class DensityOperator:
    """Density matrix on the composite space, stored as (N, 2, N, 2)."""

    lattice: LatticeConfig
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.lattice.n_sites
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape == (2 * n, 2 * n):
            mat = mat.reshape(n, 2, n, 2)
        if mat.shape != (n, 2, n, 2):
            raise StateError(f"density matrix shape {mat.shape} invalid for N={n}")
        flat = mat.reshape(2 * n, 2 * n)
        # a band of rows against the same band of columns, from the diagonal
        # on: every pair is compared, with band-sized temporaries only
        for i in range(0, 2 * n, HERMITICITY_BAND):
            band = slice(i, i + HERMITICITY_BAND)
            defect = np.abs(flat[band, i:] - flat[i:, band].conj().T).max()
            if not (defect <= HERMITICITY_TOL):
                raise StateError("density matrix is not Hermitian")
        tr = np.trace(flat).real
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise StateError(f"density matrix trace {tr!r} deviates from 1")
        object.__setattr__(self, "matrix", mat)
        self.matrix.setflags(write=False)

    @property
    def as_2d(self) -> np.ndarray:
        n = self.lattice.n_sites
        return self.matrix.reshape(2 * n, 2 * n)

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityOperator":
        amp = psi.amplitudes
        mat = np.einsum("xc,yd->xcyd", amp, amp.conj())
        return cls(psi.lattice, mat)


def _site_index(lattice: LatticeConfig, x0: int) -> int:
    n = lattice.n_sites
    if not (-n // 2 <= x0 <= n // 2 - 1):
        raise StateError(f"site {x0} outside lattice range [{-n//2}, {n//2 - 1}]")
    return x0 + n // 2


def localized_state(lattice: LatticeConfig, x0: int, coin: CoinState) -> PureState:
    """Walker localized at site ``x0`` with the given coin state."""
    amp = np.zeros((lattice.n_sites, 2), dtype=complex)
    amp[_site_index(lattice, x0)] = coin.as_array()
    return PureState(lattice, amp)


def gaussian_position_state(
    lattice: LatticeConfig,
    sigma: float,
    coin: CoinState,
    k0: float = 0.0,
) -> PureState:
    """Gaussian wavepacket exp(-x^2/(4 sigma^2)) with mean momentum k0.

    The plane-wave factor is exp(-i k0 x), which centers the packet at +k0
    under this module's DFT convention.  The lattice must hold 8*sigma
    sites, which truncates the tail beyond 4 sigma: a mass near
    erfc(2 sqrt 2) = 6.3e-5 (6.4e-5 at sigma=10, N=80) is cut off before
    the packet is renormalized.  A sigma whose 4 sigma^2 underflows to 0
    raises StateError: the envelope would be 0/0 at x = 0.  A sigma just
    above that (about 1e-154 and below) gives exp(-inf) = 0 off x = 0, the
    one-site packet, without an overflow warning.
    """
    if sigma <= 0:
        raise StateError(f"sigma must be positive, got {sigma}")
    if not 4.0 * sigma**2 > 0:
        raise StateError(f"sigma={sigma} is too small: 4 sigma^2 underflows to 0")
    n = lattice.n_sites
    if n < 8 * sigma:
        raise StateError(
            f"lattice N={n} too small for sigma={sigma}; need N >= {8 * sigma:.0f}"
        )
    x = lattice.sites
    with np.errstate(over="ignore"):  # x^2/(4 sigma^2) is inf off x = 0 for a tiny sigma
        env = np.exp(-(x**2) / (4.0 * sigma**2)) * np.exp(-1j * k0 * x)
    amp = env[:, None] * coin.as_array()[None, :]
    with _one_blas_thread():
        amp /= np.linalg.norm(amp)
    return PureState(lattice, amp)


def gaussian_momentum_state(
    lattice: LatticeConfig,
    delta: float,
    coin: CoinState,
    k0: float = 0.0,
) -> PureState:
    """Gaussian in momentum, exp(-(k-k0)^2/(4 delta^2)), as a state over sites.

    The position-space width of the resulting packet is approximately
    1/(2*delta).
    """
    if delta <= 0:
        raise StateError(f"delta must be positive, got {delta}")
    k = lattice.momenta
    env = np.exp(-((k - k0) ** 2) / (4.0 * delta**2)).astype(complex)
    amp = env[:, None] * coin.as_array()[None, :]
    with _one_blas_thread():
        amp /= np.linalg.norm(amp)
    return PureState(lattice, to_position(amp))


def _centred_dft(amp: np.ndarray, axis: int, out: np.ndarray | None, fft) -> np.ndarray:
    """``fft`` (np.fft.ifft or np.fft.fft), made unitary, of ``amp`` along
    ``axis`` between the centred grids, written to ``out``.

    With array indices j = x + N/2 and m = N k / (2 pi) + N/2, e^{+-ikx} =
    (-1)^(N/2) (-1)^m e^{+-2 pi i m j / N} (-1)^j for even N: a plain FFT
    between two exact sign flips of alternate entries, the (-1)^(N/2) folded
    into the second.  In place when ``out`` is ``amp``.
    """
    if out is None:
        out = np.array(amp, dtype=complex)
    elif out is not amp:
        out[...] = amp
    entries = np.moveaxis(out, axis, 0)  # a view of out
    entries[1::2] *= -1
    fft(out, axis=axis, norm="ortho", out=out)
    entries[(len(entries) // 2 + 1) % 2::2] *= -1
    return out


def to_momentum(amp: np.ndarray, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary DFT of amplitudes over sites, along ``axis``, to momenta,
    |x> = N^{-1/2} sum_k e^{ikx} |k>.

    psi~(k_j) = N^{-1/2} sum_x exp(i k_j x) psi(x), entries ordered by
    ascending k as in ``LatticeConfig.momenta``.  Returns a new array, or
    ``out`` filled; ``out`` may be ``amp`` itself.
    """
    return _centred_dft(amp, axis, out, np.fft.ifft)


def to_position(amp: np.ndarray, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`to_momentum`: momentum amplitudes along ``axis`` to sites."""
    return _centred_dft(amp, axis, out, np.fft.fft)


def _check_compatible(a: PureState, b) -> None:
    if a.lattice.n_sites != b.lattice.n_sites:
        raise LatticeError(
            f"mismatched lattices: N={a.lattice.n_sites} vs N={b.lattice.n_sites}"
        )


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 for two pure states on the same lattice, summed inside the
    BLAS hold (``_one_blas_thread``)."""
    _check_compatible(a, b)
    with _one_blas_thread():
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def fidelity_with_density(psi: PureState, rho: DensityOperator) -> float:
    """<psi| rho |psi> for a pure state against a density operator, summed
    inside the BLAS hold (``_one_blas_thread``)."""
    _check_compatible(psi, rho)
    amp = psi.amplitudes.ravel()
    with _one_blas_thread():
        return float((amp.conj() @ (rho.as_2d @ amp)).real)


# numpy's bundled OpenBLAS and its thread-count symbols
_OPENBLAS_LIBS = "libscipy_openblas*.so"
_OPENBLAS_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


@cache
def _openblas_threads() -> tuple[Callable, Callable] | None:
    """(get, set) of the thread count of the OpenBLAS numpy bundles in
    ``numpy.libs``, through ctypes, or None where no library there exports
    both symbols.  Looked up at the first hold, not at import."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(_OPENBLAS_LIBS)):
        try:
            lib = ctypes.CDLL(str(path))
            return tuple(getattr(lib, name) for name in _OPENBLAS_THREADS)
        except (OSError, AttributeError):
            continue
    return None


# the runs inside ``_one_blas_thread`` and the BLAS count the first one found
_blas_lock = threading.Lock()
_blas_runs, _blas_count = 0, None


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread and restore its count
    afterwards, also when the body raises; without the symbols, leave BLAS
    alone.  The count is process-global, so concurrent holds share one
    hold: the first one in saves the count and the last one out restores
    it, under a lock held only for that bookkeeping.  BLAS calls another
    thread makes meanwhile run on one thread too."""
    global _blas_runs, _blas_count
    get, set_ = _openblas_threads() or (lambda: None, lambda count: None)
    with _blas_lock:
        if not _blas_runs:
            _blas_count = get()
            set_(1)
        _blas_runs += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_runs -= 1
            if not _blas_runs:
                set_(_blas_count)
