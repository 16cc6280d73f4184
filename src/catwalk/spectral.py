"""Momentum-space effective Hamiltonians of the walk and their analysis.

The one-step propagator is block diagonal in momentum; each 2x2 block
defines a quasi-energy Hamiltonian H(k) = h(k).sigma with eigenvalues
+-arccos(-cos(theta) sin(k)) on the principal branch.  The
two-component Dirac limit is evolved alongside, and the coin state that
splits its weight evenly between the bands is built here.
E(k) and the axis of h(k) are read from ``walk._PlainPower``, the band
structure the pure-state evolution jumps with.

Note the propagator satisfies exp(-i H(k)) = i * Z(k): the paper-form
Hamiltonian omits a constant pi/2 identity offset, so equality with the
walk unitary holds after adding (pi/2) * identity to H(k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import CoinState, PureState, StateError, to_momentum, to_position
from .walk import SIGMA_X, SIGMA_Y, SIGMA_Z, _PlainPower, _su2_rotate

DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector h(k) with H(k) = h . sigma."""

    h1: float
    h2: float
    h3: float
    k: float
    theta: float


@dataclass(frozen=True)
class EigenPair:
    """Orthonormal eigensystem of H(k), gauge-fixed, E_minus <= E_plus."""

    e_minus: float
    e_plus: float
    u_minus: np.ndarray
    u_plus: np.ndarray
    near_degenerate: bool


def bloch_vector(theta: float, k: float) -> BlochVector:
    """Components of h(k) = -E(k) n(k), with n.sigma the unit axis of
    ``walk._PlainPower``."""
    power = _PlainPower(theta, np.asarray(k, dtype=float))
    e = np.pi - float(power.alpha)
    n = (power.up.real, -power.up.imag, power.diag)
    return BlochVector(*(float(-e * c) for c in n), k, theta)


def hamiltonian_k(theta: float, k: float) -> np.ndarray:
    """H(k) = h1 sigma_x + h2 sigma_y + h3 sigma_z."""
    h = bloch_vector(theta, k)
    return h.h1 * SIGMA_X + h.h2 * SIGMA_Y + h.h3 * SIGMA_Z


def exact_energies(theta: float, k: float | np.ndarray) -> tuple:
    """Quasi-energies (E_minus, E_plus) = -+ arccos(-cos(theta) sin(k)), as
    -+(pi - a) from the walk's band angle a; floats for a scalar k, arrays
    for an array of momenta."""
    e = np.pi - _PlainPower(theta, np.asarray(k, dtype=float)).alpha
    return (-float(e), float(e)) if e.ndim == 0 else (-e, e)


def _gauge_fix(v: np.ndarray) -> np.ndarray:
    for comp in v:
        if abs(comp) > 1e-12:
            return v * (abs(comp) / comp)
    return v


def eigen_system(theta: float, k: float) -> EigenPair:
    """Numerically diagonalized H(k), first nonzero component of each
    eigenvector made real positive."""
    vals, vecs = np.linalg.eigh(hamiltonian_k(theta, k))
    gap = float(vals[1] - vals[0])
    return EigenPair(
        float(vals[0]),
        float(vals[1]),
        _gauge_fix(vecs[:, 0].astype(complex)),
        _gauge_fix(vecs[:, 1].astype(complex)),
        gap < DEGENERACY_TOL,
    )


def dirac_evolve(state: PureState, theta: float, t: float) -> PureState:
    """Apply exp(-i H_d(k) t) blockwise in momentum space to a state over sites.

    A theta whose mass term (theta pi/2)^2 overflows raises StateError."""
    k = state.lattice.momenta
    a = -(k + np.pi / 2)
    b = -theta * (np.pi / 2)
    if not np.isfinite(b * b):
        raise StateError(f"theta={theta} is too large: the Dirac mass (theta pi/2)^2 overflows")
    # H = a sigma_z + b sigma_x = w (n.sigma): exp(-iHt) = cos(wt) - i sin(wt) (n.sigma)
    w = np.sqrt(a**2 + b**2)
    w_safe = np.where(w == 0, 1.0, w)
    across = b / w_safe
    out = _su2_rotate(w * t, a / w_safe, across, across, to_momentum(state.amplitudes))
    return state.with_amplitudes(to_position(out))


def symmetric_coin_state(theta: float) -> CoinState:
    """Coin state (u_-(0) + e^{i pi/2} u_+(0)) / sqrt(2).

    Splits its weight evenly between the two quasi-energy bands for small
    momenta, which is the condition for high-contrast cat fringes.
    """
    pair = eigen_system(theta, 0.0)
    # e^{i pi/2} rounds to 6.1e-17 + 1j, not 1j; catfourier's tables carry it
    chi = (pair.u_minus + np.exp(1j * np.pi / 2) * pair.u_plus) / np.sqrt(2.0)
    return CoinState.from_vector(chi)

