import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catwalk
from catwalk import lattice
from catwalk.lattice import (
    HERMITICITY_BAND,
    HERMITICITY_TOL,
    COIN_DOWN,
    COIN_SYMMETRIC,
    COIN_UP,
    CoinState,
    DensityOperator,
    LatticeError,
    PureState,
    StateError,
    fidelity,
    fidelity_with_density,
    gaussian_momentum_state,
    gaussian_position_state,
    localized_state,
    make_lattice,
    recommended_size,
    to_momentum,
    to_position,
)
from catwalk.channels import MomentumLayout


def test_lattice_sites_and_momenta():
    lat = make_lattice(8)
    assert lat.sites.tolist() == [-4, -3, -2, -1, 0, 1, 2, 3]
    np.testing.assert_allclose(lat.momenta, 2 * np.pi * np.arange(-4, 4) / 8)
    assert np.all(np.diff(lat.momenta) > 0)


@pytest.mark.parametrize("n", [3, 7, 0, -4, 2])
def test_lattice_rejects_bad_sizes(n):
    with pytest.raises(LatticeError):
        make_lattice(n)


def test_recommended_size_rule():
    n = recommended_size(150, 10.0)
    assert n % 2 == 0
    assert n >= 2 * 150 + 8 * 10


def test_coin_state_normalization():
    with pytest.raises(StateError):
        CoinState(1.0, 1.0)
    chi = CoinState.from_vector([3.0, 4.0])
    np.testing.assert_allclose(chi.as_array(), [0.6, 0.8])


def test_localized_state_delta():
    lat = make_lattice(16)
    psi = localized_state(lat, 3, COIN_UP)
    prob = np.abs(psi.amplitudes) ** 2
    assert prob[3 + 8, 0] == pytest.approx(1.0)
    assert prob.sum() == pytest.approx(1.0)
    with pytest.raises(StateError):
        localized_state(lat, 8, COIN_UP)


def test_pure_state_rejects_unnormalized():
    lat = make_lattice(8)
    amp = np.ones((8, 2), dtype=complex)
    with pytest.raises(StateError):
        PureState(lat, amp)


def test_gaussian_moments():
    lat = make_lattice(256)
    psi = gaussian_position_state(lat, 10.0, COIN_SYMMETRIC)
    prob = np.sum(np.abs(psi.amplitudes) ** 2, axis=1)
    mu = prob @ lat.sites
    sig = np.sqrt(prob @ (lat.sites - mu) ** 2)
    assert abs(mu) < 1e-10
    assert sig == pytest.approx(10.0, rel=0.02)


def test_gaussian_requires_room():
    lat = make_lattice(16)
    with pytest.raises(StateError):
        gaussian_position_state(lat, 10.0, COIN_UP)


def test_gaussian_starts_do_not_depend_on_the_blas_thread_count():
    # a start is normalised by a BLAS dot product, which OpenBLAS splits across
    # threads from about 10,000 entries on (N = 5,200 holds 10,400); lattice
    # holds BLAS at one thread for it, with no hold of the caller's
    if lattice._openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count symbols here")
    code = "\n".join((
        "import hashlib",
        "from catwalk.lattice import (COIN_SYMMETRIC, gaussian_momentum_state,",
        "                             gaussian_position_state, make_lattice)",
        "lat = make_lattice(5200)",
        "for psi in (gaussian_position_state(lat, 25.0, COIN_SYMMETRIC),",
        "            gaussian_momentum_state(lat, 0.02, COIN_SYMMETRIC)):",
        "    print(hashlib.sha256(psi.amplitudes.tobytes()).hexdigest())",
    ))
    src = str(Path(catwalk.__file__).resolve().parents[1])
    reads = [subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True,
                            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
                            ).stdout
             for threads in ("1", "2")]
    assert reads[0].count("\n") == 2 and reads[0] == reads[1]


def test_k0_shifts_momentum_mean():
    lat = make_lattice(256)
    k0 = np.pi / 8
    psi = gaussian_position_state(lat, 10.0, COIN_SYMMETRIC, k0=k0)
    prob = np.sum(np.abs(to_momentum(psi.amplitudes)) ** 2, axis=1)
    assert prob @ lat.momenta == pytest.approx(k0, abs=1e-3)


def test_dft_round_trip_and_unitarity():
    rng = np.random.default_rng(7)
    amp = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
    amp /= np.linalg.norm(amp)
    back = to_position(to_momentum(amp))
    np.testing.assert_allclose(back, amp, atol=1e-13)
    assert np.linalg.norm(to_momentum(amp)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_dft_matches_dense_matrix(n):
    # N/2 odd and even: the (-1)^(N/2) factor of the centred grids
    lat = make_lattice(n)
    f = np.exp(1j * np.outer(lat.momenta, lat.sites)) / np.sqrt(n)
    rng = np.random.default_rng(3)
    amp = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    amp /= np.linalg.norm(amp)
    np.testing.assert_allclose(to_momentum(amp), f @ amp, atol=1e-13)
    np.testing.assert_allclose(to_momentum(amp[:, 0]), f @ amp[:, 0], atol=1e-13)
    np.testing.assert_allclose(to_position(f @ amp), amp, atol=1e-13)
    # along axis 1, and in place
    np.testing.assert_allclose(to_momentum(amp.T, axis=1), (f @ amp).T, atol=1e-13)
    np.testing.assert_allclose(to_position((f @ amp).T, axis=1), amp.T, atol=1e-13)
    work = amp.copy()
    assert to_momentum(work, out=work) is work
    np.testing.assert_allclose(work, f @ amp, atol=1e-13)
    assert to_position(work, axis=0, out=work) is work
    np.testing.assert_allclose(work, amp, atol=1e-13)
    # into a separate buffer, leaving the input as it was
    held = amp.copy()
    buf = np.empty((n, 2), dtype=complex)
    assert to_momentum(held, out=buf) is buf
    np.testing.assert_allclose(buf, f @ amp, atol=1e-13)
    np.testing.assert_array_equal(held, amp)


def test_pair_dft_density_start_matches_pure_start():
    # N = 10 = 2 mod 4: the ket's and the bra's (-1)^(N/2) factors must cancel
    lat = make_lattice(10)
    psi = gaussian_position_state(lat, 1.0, COIN_SYMMETRIC, k0=0.4)
    layout = MomentumLayout(lat, 0, 10, 6)

    def start(state):  # in momenta, as the pair DFT leaves it
        work = np.empty((2, 2, *layout.shape), dtype=complex)
        return layout.momenta(layout.start(state, slice(None), work), work)

    np.testing.assert_allclose(start(DensityOperator.from_pure(psi)), start(psi), rtol=0, atol=1e-13)


def _uses_numpy_fft(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "fft" and getattr(node.value, "id", None) in ("np", "numpy")
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.fft") or (
            node.module == "numpy" and any(alias.name == "fft" for alias in node.names))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.fft") for alias in node.names)
    return False


def test_numpy_fft_used_only_in_lattice():
    # to_momentum / to_position hold the one DFT convention of the package
    src = Path(catwalk.__file__).parent
    users = {path.name for path in src.glob("*.py")
             if any(map(_uses_numpy_fft, ast.walk(ast.parse(path.read_text()))))}
    assert users == {"lattice.py"}


# public src names kept without a caller in src, bench or the README's code
UNREACHED_BY_DESIGN = {
    "hold_recurrence": "acceptance criteria 2 and 13 call it",
    "gaussian_momentum_state": "the README's library tour names it",
}


def _names(node: ast.AST) -> set[str]:
    named = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            named.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            named.add(sub.attr)
        elif isinstance(sub, ast.alias):
            named.update(filter(None, (sub.name.rpartition(".")[2], sub.asname)))
    return named


def test_src_names_reach_a_caller():
    # every public function or class of a module, and every public method or
    # property of a class, runs for some caller.  Names are matched as words,
    # so a method that shares its name with another (``norm`` with
    # np.linalg.norm) passes: this is a floor, not a call graph
    src = Path(catwalk.__file__).parent
    root = Path(__file__).resolve().parents[1]
    defined, called = set(), set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.add(own)
            if isinstance(stmt, ast.ClassDef):
                defined |= {sub.name for sub in stmt.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")}
            called |= _names(stmt) - {own}
    for path in root.glob("bench/*.py"):
        called |= _names(ast.parse(path.read_text()))
    for block in re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S):
        called |= _names(ast.parse(block))
    assert defined - called == set(UNREACHED_BY_DESIGN)


def test_gaussian_momentum_state_width():
    lat = make_lattice(512)
    delta = 0.05
    psi = gaussian_momentum_state(lat, delta, COIN_UP)
    prob = np.sum(np.abs(psi.amplitudes) ** 2, axis=1)
    sig = np.sqrt(prob @ lat.sites**2 - (prob @ lat.sites) ** 2)
    assert sig == pytest.approx(1.0 / (2 * delta), rel=0.05)


def test_fidelity_basics():
    lat = make_lattice(16)
    a = localized_state(lat, 0, COIN_UP)
    b = localized_state(lat, 0, COIN_DOWN)
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(0.0)
    with pytest.raises(LatticeError):
        fidelity(a, localized_state(make_lattice(8), 0, COIN_UP))


def test_density_operator_checks():
    lat = make_lattice(8)
    psi = localized_state(lat, 0, COIN_SYMMETRIC)
    rho = DensityOperator.from_pure(psi)
    assert rho.matrix.shape == (8, 2, 8, 2)
    assert np.trace(rho.as_2d).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho.as_2d)[0] == pytest.approx(0.0, abs=1e-12)
    assert fidelity_with_density(psi, rho) == pytest.approx(1.0)
    with pytest.raises(StateError):
        DensityOperator(lat, np.eye(16, dtype=complex))  # trace 8
    bad = rho.as_2d.copy()
    bad[0, 1] = 1.0
    with pytest.raises(StateError):
        DensityOperator(lat, bad)


@pytest.mark.parametrize(
    "row, col, bump",
    [
        (0, -1, 1e-9),
        (-1, 0, 1e-9),
        (HERMITICITY_BAND - 1, HERMITICITY_BAND, 1e-9j),
        (HERMITICITY_BAND, HERMITICITY_BAND - 1, 1e-9),
        (HERMITICITY_BAND + 1, 2 * HERMITICITY_BAND + 3, -1e-9),
        (-1, -1, 1e-9j),
    ],
)
def test_density_refuses_asymmetry_in_every_band(row, col, bump):
    lat = make_lattice(3 * HERMITICITY_BAND // 2 + 2)  # 2N rows: three bands and a part
    flat = DensityOperator.from_pure(gaussian_position_state(lat, 2.0, COIN_SYMMETRIC)).as_2d
    below = flat.copy()
    below[row, col] += 0.5 * HERMITICITY_TOL * bump / abs(bump)
    DensityOperator(lat, below)  # within the tolerance
    above = flat.copy()
    above[row, col] += bump
    with pytest.raises(StateError, match="not Hermitian"):
        DensityOperator(lat, above)


def test_density_accepts_flat_layout():
    lat = make_lattice(8)
    psi = gaussian_position_state(lat, 1.0, COIN_SYMMETRIC)
    rho = DensityOperator.from_pure(psi)
    again = DensityOperator(lat, rho.as_2d)
    np.testing.assert_allclose(again.matrix, rho.matrix)


@pytest.mark.parametrize(
    "build",
    [
        lambda lat, amp: CoinState(np.nan, 0.0),
        lambda lat, amp: PureState(lat, amp),
        lambda lat, amp: DensityOperator(lat, np.einsum("xc,yd->xcyd", amp, amp.conj())),
    ],
    ids=["coin", "pure", "density"],
)
def test_states_refuse_nan(build):
    amp = np.zeros((4, 2), dtype=complex)
    amp[0, 0] = np.nan
    with pytest.raises(StateError):
        build(make_lattice(4), amp)
