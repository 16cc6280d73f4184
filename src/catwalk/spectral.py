"""Momentum-space effective Hamiltonians of the walk and their analysis.

The one-step propagator is block diagonal in momentum; each 2x2 block
defines a quasi-energy Hamiltonian H(k) = h(k).sigma with eigenvalues
+-arccos(-cos(theta) sin(k)) on the principal branch.  Low-momentum
truncations (first and second order), the two-component Dirac limit, and
the appendix-style closed-form eigenvectors are exposed alongside.

Note the propagator satisfies exp(-i H(k)) = i * Z(k): the paper-form
Hamiltonian omits a constant pi/2 identity offset, so equality with the
walk unitary holds after adding (pi/2) * identity to H(k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import CoinState, PureState, to_momentum, to_position
from .walk import SIGMA_X, SIGMA_Y, SIGMA_Z, _su2_rotate, coin_operator

DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector h(k) with H(k) = h . sigma."""

    h1: float
    h2: float
    h3: float
    k: float
    theta: float

    @property
    def magnitude(self) -> float:
        return float(np.sqrt(self.h1**2 + self.h2**2 + self.h3**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.h1, self.h2, self.h3])


@dataclass(frozen=True)
class EigenPair:
    """Orthonormal eigensystem of H(k), gauge-fixed, E_minus <= E_plus."""

    e_minus: float
    e_plus: float
    u_minus: np.ndarray
    u_plus: np.ndarray
    near_degenerate: bool


def bloch_vector(theta: float, k: float) -> BlochVector:
    """Components of h(k); the removable singularity at sin(theta)=0,
    cos(k)=0 is resolved by the limit along k from below."""
    arg = np.clip(-np.cos(theta) * np.sin(k), -1.0, 1.0)
    num = np.arccos(arg)
    den = np.sqrt(np.sin(theta) ** 2 * np.sin(k) ** 2 + np.cos(k) ** 2)
    if den < 1e-12:
        # sin(theta) = 0 and cos(k) = 0: h points along z with |h| = num.
        sign = 1.0 if np.cos(k) >= 0 else -1.0
        return BlochVector(0.0, 0.0, -sign * np.cos(theta) * num, k, theta)
    r = num / den
    return BlochVector(
        float(-r * np.sin(theta) * np.cos(k)),
        float(r * np.sin(theta) * np.sin(k)),
        float(-r * np.cos(theta) * np.cos(k)),
        k,
        theta,
    )


def hamiltonian_k(theta: float, k: float) -> np.ndarray:
    """H(k) = h1 sigma_x + h2 sigma_y + h3 sigma_z."""
    h = bloch_vector(theta, k)
    return h.h1 * SIGMA_X + h.h2 * SIGMA_Y + h.h3 * SIGMA_Z


def walk_unitary_k(theta: float, k: float) -> np.ndarray:
    """Momentum-sector one-step unitary Z(k) = diag(e^{ik}, e^{-ik}) C."""
    return np.diag([np.exp(1j * k), np.exp(-1j * k)]) @ coin_operator(theta)


def exact_energies(theta: float, k: float) -> tuple[float, float]:
    """Quasi-energies (E_minus, E_plus) = -+ arccos(-cos(theta) sin(k))."""
    arg = np.clip(-np.cos(theta) * np.sin(k), -1.0, 1.0)
    e = float(np.arccos(arg))
    return -e, e


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


def truncated_h2(theta: float, k: float) -> np.ndarray:
    """Second-order small-k truncation of H(k); eigenvalues match
    +-(k cos(theta) + pi/2) up to O(k^3)."""
    s, c = np.sin(theta), np.cos(theta)
    lin = k * c + np.pi / 2
    corr = lin - 0.25 * np.pi * k**2 * s**2
    off = -s * corr - 1j * k * s * lin
    return np.array([[-c * corr, off], [np.conj(off), c * corr]], dtype=complex)


def truncated_h2_energies(theta: float, k: float) -> tuple[float, float]:
    e = float(k * np.cos(theta) + np.pi / 2)
    return -e, e


def appendix_eigenvectors(
    theta: float, k: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenvectors of the second-order truncation with their
    N1, N2 normalizations.

    Diagnostic only: the two closed forms are not mutually orthogonal away
    from k=0, unlike the numerically diagonalized pair, so downstream
    projections use :func:`eigen_system` instead.
    """
    ct2, st2 = np.cos(theta / 2), np.sin(theta / 2)
    c = np.cos(theta)
    a_minus = -0.5 * k**2 * c + k**2 - 2j * k - 2
    a_plus = -0.5 * k**2 * c - k**2 + 2j * k + 2
    n1 = np.sqrt(st2**2 + abs(a_minus) ** 2 * ct2**2)
    n2 = np.sqrt(ct2**2 + abs(-a_plus) ** 2 * st2**2)
    u_minus = np.array([a_minus * ct2, st2], dtype=complex) / n1
    u_plus = np.array([a_plus * st2, ct2], dtype=complex) / n2
    return u_minus, u_plus


def truncated_h1(theta: float, k: float) -> np.ndarray:
    """First-order small-k truncation of H(k)."""
    s, c = np.sin(theta), np.cos(theta)
    lin = k * c + np.pi / 2
    off = -s * lin - 1j * k * (np.pi / 2) * s
    return np.array([[-c * lin, off], [np.conj(off), c * lin]], dtype=complex)


def truncated_h1_energies(theta: float, k: float) -> tuple[float, float]:
    """E1_+- = +-sqrt((k cos t + pi/2)^2 + (k pi sin(t)/2)^2); not linear
    in k for large theta."""
    e = float(
        np.sqrt(
            (k * np.cos(theta) + np.pi / 2) ** 2
            + (k * np.pi * np.sin(theta) / 2) ** 2
        )
    )
    return -e, e


def dirac_hamiltonian(theta: float, k: float) -> np.ndarray:
    """Two-component Dirac Hamiltonian -(k + pi/2) sigma_z - theta (pi/2) sigma_x."""
    return -(k + np.pi / 2) * SIGMA_Z - theta * (np.pi / 2) * SIGMA_X


def dirac_evolve(state: PureState, theta: float, t: float) -> PureState:
    """Apply exp(-i H_d(k) t) blockwise in momentum space to a state over sites."""
    k = state.lattice.momenta
    a = -(k + np.pi / 2)
    b = -theta * (np.pi / 2)
    # H = a sigma_z + b sigma_x = w (n.sigma): exp(-iHt) = cos(wt) - i sin(wt) (n.sigma)
    w = np.sqrt(a**2 + b**2)
    w_safe = np.where(w == 0, 1.0, w)
    across = b / w_safe
    out = _su2_rotate(w * t, a / w_safe, across, across, to_momentum(state.amplitudes))
    return state.with_amplitudes(to_position(out))


def symmetric_coin_state(theta: float, varphi: float = np.pi / 2) -> CoinState:
    """Coin state (u_-(0) + e^{i varphi} u_+(0)) / sqrt(2).

    Splits its weight evenly between the two quasi-energy bands for small
    momenta, which is the condition for high-contrast cat fringes.
    """
    pair = eigen_system(theta, 0.0)
    chi = (pair.u_minus + np.exp(1j * varphi) * pair.u_plus) / np.sqrt(2.0)
    return CoinState.from_vector(chi)


def coin_decomposition(
    theta: float, k: float, chi: CoinState
) -> tuple[complex, complex]:
    """Amplitudes (a_minus, a_plus) of chi in the eigenbasis at momentum k."""
    pair = eigen_system(theta, k)
    v = chi.as_array()
    return complex(np.vdot(pair.u_minus, v)), complex(np.vdot(pair.u_plus, v))
