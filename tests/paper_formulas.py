"""The paper's appendix formulas, as references for the spectral tests.

The one-step unitary Z(k) of a momentum sector, the first- and
second-order small-k truncations of H(k) with their energies, the
closed-form eigenvectors of the second-order truncation, the
two-component Dirac Hamiltonian, and a coin state's amplitudes in the
eigenbasis at momentum k.  The library computes none of these: the walk
jumps with ``walk._PlainPower`` and ``spectral.dirac_evolve`` keeps its
own H_d(k).
"""

import numpy as np

from catwalk.lattice import CoinState
from catwalk.spectral import eigen_system
from catwalk.walk import SIGMA_X, SIGMA_Z, coin_operator


def walk_unitary_k(theta: float, k: float) -> np.ndarray:
    """Momentum-sector one-step unitary Z(k) = diag(e^{ik}, e^{-ik}) C."""
    return np.diag([np.exp(1j * k), np.exp(-1j * k)]) @ coin_operator(theta)


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
    from k=0, unlike the numerically diagonalized pair of
    ``spectral.eigen_system``.
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


def coin_decomposition(
    theta: float, k: float, chi: CoinState
) -> tuple[complex, complex]:
    """Amplitudes (a_minus, a_plus) of chi in the eigenbasis at momentum k."""
    pair = eigen_system(theta, k)
    v = chi.as_array()
    return complex(np.vdot(pair.u_minus, v)), complex(np.vdot(pair.u_plus, v))
