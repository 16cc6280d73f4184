import numpy as np
import pytest
from scipy.linalg import expm

from catwalk.cli import main
from catwalk.lattice import (
    COIN_SYMMETRIC,
    CoinState,
    gaussian_position_state,
    make_lattice,
    to_momentum,
)
from catwalk.spectral import (
    bloch_vector,
    dirac_evolve,
    eigen_system,
    exact_energies,
    hamiltonian_k,
    symmetric_coin_state,
)
from paper_formulas import (
    appendix_eigenvectors,
    coin_decomposition,
    dirac_hamiltonian,
    truncated_h1,
    truncated_h1_energies,
    truncated_h2,
    truncated_h2_energies,
    walk_unitary_k,
)

THETAS = [np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2.4]
KGRID = [-2.5, -1.0, -0.3, 0.0, 0.2, 0.9, 2.8]


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("k", KGRID)
def test_hamiltonian_eigenvalues_match_closed_form(theta, k):
    vals = np.linalg.eigvalsh(hamiltonian_k(theta, k))
    e_minus, e_plus = exact_energies(theta, k)
    np.testing.assert_allclose(vals, [e_minus, e_plus], atol=1e-12)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("k", KGRID)
def test_propagator_matches_walk_unitary_up_to_pi_half_offset(theta, k):
    # exp(-i (H + pi/2)) equals the one-step momentum-sector unitary
    h = hamiltonian_k(theta, k) + (np.pi / 2) * np.eye(2)
    np.testing.assert_allclose(expm(-1j * h), walk_unitary_k(theta, k), atol=1e-9)


def test_exact_energies_on_an_array_match_scalar_calls():
    k = make_lattice(16).momenta
    for theta in THETAS:
        e_minus, e_plus = exact_energies(theta, k)
        scalar = np.array([exact_energies(theta, float(q)) for q in k])
        np.testing.assert_allclose(np.column_stack([e_minus, e_plus]), scalar, rtol=0, atol=1e-15)
        assert isinstance(exact_energies(theta, 0.3)[1], float)


def test_spectrum_table_rows_match_scalar_energies(tmp_path):
    theta = 0.7
    assert main(["spectrum", "--lattice", "32", "--theta", repr(theta), "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "spectrum_bands.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], make_lattice(32).momenta)
    scalar = np.array([exact_energies(theta, float(q)) for q in rows[:, 0]])
    np.testing.assert_allclose(rows[:, 1:3], scalar, rtol=0, atol=1e-15)


def test_bloch_vector_magnitude_is_quasienergy():
    for theta in THETAS:
        for k in KGRID:
            h = bloch_vector(theta, k)
            magnitude = np.sqrt(h.h1**2 + h.h2**2 + h.h3**2)
            assert magnitude == pytest.approx(exact_energies(theta, k)[1], abs=1e-12)


def test_bloch_vector_singular_limit():
    # sin(theta) = 0 with cos(k) = 0: the limit along k keeps h on the z axis
    h = bloch_vector(0.0, np.pi / 2)
    assert h.h1 == 0.0 and h.h2 == 0.0
    assert h.h3 == pytest.approx(-np.pi, abs=1e-9)
    eps = 1e-7
    h_near = bloch_vector(0.0, np.pi / 2 - eps)
    assert h_near.h3 == pytest.approx(h.h3, abs=1e-5)
    # cos of a double is never exactly 0, so the axis is defined, and of
    # unit length, at and beside each such point: |h| = E
    half = np.pi / 2
    for theta in (0.0, -0.0, np.pi, -np.pi, half):
        for k in (half, -half, 3 * half, np.nextafter(half, 0.0), np.nextafter(half, 4.0)):
            h = bloch_vector(theta, k)
            magnitude = np.sqrt(h.h1**2 + h.h2**2 + h.h3**2)
            assert magnitude == pytest.approx(exact_energies(theta, k)[1], rel=1e-15, abs=0)


@pytest.mark.parametrize("theta", THETAS)
def test_eigen_system_orthonormal_and_gauged(theta):
    for k in KGRID:
        pair = eigen_system(theta, k)
        assert abs(np.vdot(pair.u_minus, pair.u_plus)) < 1e-12
        assert np.linalg.norm(pair.u_minus) == pytest.approx(1.0)
        for u in (pair.u_minus, pair.u_plus):
            lead = u[np.flatnonzero(np.abs(u) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_eigen_system_flags_degeneracy():
    # at theta=pi/2, k=0 both bands sit at +-pi/2: not degenerate;
    # the bands touch (both at E=0) when cos(theta) sin(k) = -1
    pair = eigen_system(np.pi / 2, 0.0)
    assert not pair.near_degenerate
    pair = eigen_system(0.0, -np.pi / 2)
    assert pair.near_degenerate


@pytest.mark.parametrize("theta", THETAS)
def test_truncations_agree_at_small_k(theta):
    for k in (0.0, 0.01, -0.02, 0.05):
        h_full = hamiltonian_k(theta, k)
        for trunc in (truncated_h1, truncated_h2):
            np.testing.assert_allclose(trunc(theta, k), h_full, atol=0.05)
    np.testing.assert_allclose(
        truncated_h2(theta, 0.0), hamiltonian_k(theta, 0.0), atol=1e-12
    )


def test_truncated_energy_formulas():
    theta, k = np.pi / 3, 0.04
    e1 = truncated_h1_energies(theta, k)[1]
    expected = np.sqrt(
        (k * np.cos(theta) + np.pi / 2) ** 2 + (k * np.pi * np.sin(theta) / 2) ** 2
    )
    assert e1 == pytest.approx(expected, abs=1e-14)
    assert truncated_h2_energies(theta, k)[1] == pytest.approx(
        k * np.cos(theta) + np.pi / 2
    )
    # second-order matrix eigenvalues reproduce the linear form to O(k^3)
    vals = np.linalg.eigvalsh(truncated_h2(theta, k))
    assert abs(vals[1] - (k * np.cos(theta) + np.pi / 2)) < abs(k) ** 3


def test_appendix_eigenvectors_diagnostic():
    # the closed forms are normalized but not mutually orthogonal, so they
    # cannot replace the numerically gauge-fixed pair for projections
    theta = np.pi / 4
    for k in (0.0, 0.3):
        um, up = appendix_eigenvectors(theta, k)
        assert np.linalg.norm(um) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(up) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(um, up)) > 1e-3
        pair = eigen_system(theta, k)
        assert abs(np.vdot(pair.u_minus, pair.u_plus)) < 1e-12


def test_dirac_hamiltonian_form():
    h = dirac_hamiltonian(0.2, 0.1)
    np.testing.assert_allclose(
        h,
        [[-(0.1 + np.pi / 2), -0.2 * np.pi / 2], [-0.2 * np.pi / 2, 0.1 + np.pi / 2]],
        atol=1e-14,
    )


def test_dirac_evolve_massless_translates():
    # theta = 0: spin components translate rigidly in opposite directions
    lat = make_lattice(256)
    psi = gaussian_position_state(lat, 6.0, COIN_SYMMETRIC)
    out = dirac_evolve(psi, 0.0, 40.0)
    p_in = np.abs(psi.amplitudes) ** 2
    p_out = np.abs(out.amplitudes) ** 2
    np.testing.assert_allclose(p_out[:, 0], np.roll(p_in[:, 0], 40), atol=1e-12)
    np.testing.assert_allclose(p_out[:, 1], np.roll(p_in[:, 1], -40), atol=1e-12)


def test_dirac_evolve_matches_expm():
    lat = make_lattice(32)
    psi = gaussian_position_state(lat, 2.0, COIN_SYMMETRIC)
    out = to_momentum(dirac_evolve(psi, 0.7, 5.0).amplitudes)
    ref = to_momentum(psi.amplitudes)
    for j, k in enumerate(lat.momenta):
        ref[j] = expm(-1j * dirac_hamiltonian(0.7, k) * 5.0) @ ref[j]
    np.testing.assert_allclose(out, ref, atol=1e-10)


def test_symmetric_coin_state_splits_bands():
    for theta in THETAS:
        chi = symmetric_coin_state(theta)
        am, ap = coin_decomposition(theta, 0.0, chi)
        assert abs(am) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(ap) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_symmetric_coin_default_is_circular():
    # with the gauge-fixed eigenvectors at k=0, (u_- + i u_+)/sqrt(2) is
    # the circular coin state (1, -i)/sqrt(2) up to a global phase
    chi = symmetric_coin_state(np.pi / 4)
    target = np.array([1.0, -1.0j]) / np.sqrt(2)
    overlap = abs(np.vdot(chi.as_array(), target))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_coin_decomposition_completeness():
    chi = CoinState.from_vector([0.3 + 0.1j, 0.8])
    am, ap = coin_decomposition(np.pi / 3, 0.4, chi)
    assert abs(am) ** 2 + abs(ap) ** 2 == pytest.approx(1.0, abs=1e-12)
