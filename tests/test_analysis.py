import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import catwalk
from catwalk import channels
from catwalk.analysis import (
    FRINGE_OVERSAMPLE,
    PEAK_FLOOR,
    _find_peaks,
    _reversal_schedule,
    cat_metrics,
    component_widths,
    control_protocol,
    entanglement_entropy,
    hold_recurrence,
    momentum_fringes,
    packet_width,
    position_distribution,
    project_coin,
    reduced_coin,
    revival_protocol,
    schmidt_components,
    REVERSER_EXACT,
    REVERSER_SIGMA_Y,
)
from catwalk.channels import ChannelSpec, evolve_open, open_layout
from catwalk.lattice import (
    COIN_SYMMETRIC,
    COIN_UP,
    CoinState,
    DensityOperator,
    PureState,
    StateError,
    fidelity,
    fidelity_with_density,
    gaussian_position_state,
    localized_state,
    make_lattice,
)
from catwalk.spectral import symmetric_coin_state
from catwalk.walk import SIGMA_Y, Schedule, evolve, reversal_pair


def random_pure(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    amp /= np.linalg.norm(amp)
    return PureState(make_lattice(n), amp)


def gaussian_walker(sites, center, sigma):
    g = np.exp(-((sites - center) ** 2) / (4.0 * sigma**2)).astype(complex)
    return g / np.linalg.norm(g)


def test_position_distribution_pure_and_density():
    lat = make_lattice(8)
    psi = localized_state(lat, 2, COIN_SYMMETRIC)
    p = position_distribution(psi)
    assert p.sum() == pytest.approx(1.0)
    assert p[np.flatnonzero(lat.sites == 2)[0]] == pytest.approx(1.0)
    p_rho = position_distribution(DensityOperator.from_pure(psi))
    np.testing.assert_allclose(p_rho, p, atol=1e-14)


def test_reduced_coin_and_entropy_limits():
    lat = make_lattice(8)
    product = localized_state(lat, 0, COIN_SYMMETRIC)
    assert entanglement_entropy(product) == pytest.approx(0.0, abs=1e-12)
    # a coin that is exactly pure reads 0, not -0
    assert math.copysign(1.0, entanglement_entropy(localized_state(lat, 0, COIN_UP))) == 1.0
    rc = reduced_coin(product)
    assert np.trace(rc).real == pytest.approx(1.0)
    # equal-weight superposition of distinct (site, coin) pairs is maximally
    # entangled between walker and coin
    amp = np.zeros((8, 2), dtype=complex)
    amp[1, 0] = amp[5, 1] = 1 / np.sqrt(2)
    bell = PureState(lat, amp)
    assert entanglement_entropy(bell) == pytest.approx(1.0, abs=1e-12)


def test_schmidt_product_state():
    lat = make_lattice(16)
    psi = gaussian_position_state(lat, 2.0, COIN_UP)
    dec = schmidt_components(psi)
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert dec.weights[1] == pytest.approx(0.0, abs=1e-12)
    assert not dec.degenerate


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_schmidt_reconstruction(seed):
    psi = random_pure(24, seed)
    dec = schmidt_components(psi)
    rebuilt = np.sqrt(dec.weights[0]) * np.outer(dec.x_state, dec.phi) + np.sqrt(
        dec.weights[1]
    ) * np.outer(dec.x_perp_state, dec.phi_perp)
    mismatch = min(
        np.abs(rebuilt - psi.amplitudes).max(),
        np.abs(rebuilt + psi.amplitudes).max(),
    )
    # reconstruction holds up to a global phase on each branch pairing
    overlap = abs(np.vdot(rebuilt, psi.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-8) or mismatch < 1e-8


def test_schmidt_degenerate_branches_ordered_by_position():
    lat = make_lattice(64)
    amp = np.zeros((64, 2), dtype=complex)
    g_right = gaussian_walker(lat.sites, 15.0, 3.0)
    g_left = gaussian_walker(lat.sites, -15.0, 3.0)
    amp[:, 0] = g_right / np.sqrt(2)
    amp[:, 1] = g_left / np.sqrt(2)
    dec = schmidt_components(PureState(lat, amp))
    assert dec.degenerate
    mean_x = np.sum(lat.sites * np.abs(dec.x_state) ** 2)
    mean_xp = np.sum(lat.sites * np.abs(dec.x_perp_state) ** 2)
    assert mean_x > 10 and mean_xp < -10


def test_packet_width_limits():
    delta = np.zeros(32)
    delta[7] = 1.0
    lat = make_lattice(32)
    assert packet_width(delta, lat.sites) == pytest.approx(0.0, abs=1e-12)
    two_point = np.zeros(32)
    two_point[lat.sites == 1] = 0.5
    two_point[lat.sites == -1] = 0.5
    assert packet_width(two_point, lat.sites) == pytest.approx(1.0, abs=1e-12)


def test_component_widths_of_displaced_branches():
    lat = make_lattice(128)
    amp = np.zeros((128, 2), dtype=complex)
    amp[:, 0] = gaussian_walker(lat.sites, 30.0, 4.0) / np.sqrt(2)
    amp[:, 1] = gaussian_walker(lat.sites, -30.0, 4.0) / np.sqrt(2)
    w1, w2 = component_widths(PureState(lat, amp))
    assert w1 == pytest.approx(4.0, rel=0.05)
    assert w2 == pytest.approx(4.0, rel=0.05)


@pytest.mark.filterwarnings("error")
def test_component_widths_of_a_product_state():
    # the empty second branch has no width: nan, without a 0/0 warning
    lat = make_lattice(64)
    psi = gaussian_position_state(lat, 3.0, COIN_SYMMETRIC)
    w1, w2 = component_widths(psi)
    assert w1 == pytest.approx(packet_width(position_distribution(psi), lat.sites))
    assert np.isnan(w2)


def test_project_coin_completeness():
    psi = random_pure(16, 5)
    chi = CoinState.from_vector([0.6, 0.8j])
    chi_perp = CoinState.from_vector([0.8, -0.6j])
    _, s1 = project_coin(psi, chi)
    _, s2 = project_coin(psi, chi_perp)
    assert s1 + s2 == pytest.approx(1.0, abs=1e-10)


def test_project_coin_rejects_near_zero_norm():
    lat = make_lattice(8)
    psi = localized_state(lat, 0, COIN_UP)
    with pytest.raises(StateError):
        project_coin(psi, CoinState.from_vector([0.0, 1.0]))


@pytest.mark.parametrize(
    "half_sep,sigma", [(50, 5.0), (100, 5.0), (100, 10.0), (150, 10.0)]
)
def test_fringe_spacing_law(half_sep, sigma):
    # two packets at +-d give momentum fringes of period pi/d; the fringes
    # only resolve when the separation is large compared to 2*pi*sigma
    lat = make_lattice(512)
    walker = gaussian_walker(lat.sites, half_sep, sigma) + gaussian_walker(
        lat.sites, -half_sep, sigma
    )
    walker /= np.linalg.norm(walker)
    res = momentum_fringes(lat, walker)
    assert res.spacing is not None
    assert res.spacing == pytest.approx(np.pi / half_sep, rel=0.10)
    assert res.visibility > 0.9


@pytest.mark.parametrize(
    "theta,steps,sigma,k0",
    [(np.pi / 4, 120, 5.0, 0.0), (0.6, 200, 8.0, 0.03), (1.1, 90, 3.0, 0.2), (0.45, 150, 11.0, 0.1)],
)
def test_fringe_spacing_matches_direct_autocorrelation(theta, steps, sigma, k0):
    # the spacing's autocorrelation is taken through the DFT; its first
    # off-zero peak must be the direct O(m^2) autocorrelation's
    chi = symmetric_coin_state(theta)
    lat = make_lattice(2 * steps + 8 * int(np.ceil(sigma)))
    psi = gaussian_position_state(lat, sigma, chi, k0=k0)
    walker, _ = project_coin(evolve(psi, Schedule(steps, theta)).final, chi)
    res = momentum_fringes(lat, walker)
    prob = res.distribution
    oracle = _find_peaks(np.correlate(prob, prob, mode="full")[prob.size - 1 :])
    assert res.spacing is not None and oracle.size
    assert res.spacing == oracle[0] * (2.0 * np.pi / prob.size)


def test_single_packet_has_no_fringes():
    lat = make_lattice(256)
    res = momentum_fringes(lat, gaussian_walker(lat.sites, 0.0, 8.0))
    assert res.spacing is None
    assert res.visibility == 0.0


def test_fringe_distribution_normalized():
    lat = make_lattice(128)
    res = momentum_fringes(lat, gaussian_walker(lat.sites, 10.0, 4.0))
    assert res.distribution.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.momenta.shape == res.distribution.shape


@pytest.mark.parametrize("n", [6, 8])
def test_fringe_distribution_matches_dense_padded_dft(n):
    # the walker, zero-padded about the centre of the padded lattice, against
    # that lattice's dense centred DFT matrix
    lat = make_lattice(n)
    padded = make_lattice(FRINGE_OVERSAMPLE * n)
    walker = gaussian_walker(lat.sites, 0.5, 1.0) * np.exp(0.7j * lat.sites)
    buf = np.zeros(padded.n_sites, dtype=complex)
    buf[np.isin(padded.sites, lat.sites)] = walker
    f = np.exp(1j * np.outer(padded.momenta, padded.sites)) / np.sqrt(padded.n_sites)
    prob = np.abs(f @ buf) ** 2
    res = momentum_fringes(lat, walker)
    np.testing.assert_allclose(res.distribution, prob / prob.sum(), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(res.momenta, padded.momenta)


@settings(max_examples=500, deadline=None)
@given(values=st.lists(st.integers(-3, 3), max_size=40))
def test_find_peaks_matches_scipy(values):
    # small integers make plateaus, plateaus at the ends and height ties
    x = np.array(values, dtype=float)
    np.testing.assert_array_equal(_find_peaks(x), find_peaks(x)[0])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(0, 40), min_size=3, max_size=60),
       scale=st.sampled_from([1.0, 1e-13]))
def test_cat_metrics_peaks_are_scipys_two_highest_at_distance_5(values, scale):
    # with no tied peak heights, the highest peak and the highest at least 5
    # sites from it are the two highest that scipy keeps at distance=5, after
    # the floor; a scaled tail puts some peaks below PEAK_FLOOR
    prob = np.array(values, dtype=float)
    prob[len(prob) // 2:] *= scale
    peaks = find_peaks(prob)[0]
    assume(len(set(prob[peaks])) == len(peaks))
    kept = find_peaks(prob, distance=5)[0]
    kept = kept[prob[kept] >= PEAK_FLOOR * prob[kept].max(initial=0.0)]
    m = cat_metrics(prob, np.arange(prob.size))
    assert m.bimodal == (kept.size >= 2)
    if m.bimodal:
        assert (m.left_peak, m.right_peak) == tuple(sorted(kept[np.argsort(prob[kept])[-2:]]))


def test_cat_metrics_takes_the_leftmost_of_tied_peaks():
    # three equal peaks, the first two closer than 5 sites: the highest is
    # the leftmost, and the second the leftmost of those at least 5 from it
    prob = np.zeros(40)
    prob[[10, 13, 20, 30]] = [1.0, 1.0, 1.0, 1.0]
    m = cat_metrics(prob, np.arange(40))
    assert (m.left_peak, m.right_peak) == (10, 20)


def test_cat_metrics_two_deltas():
    lat = make_lattice(256)
    prob = np.zeros(256)
    prob[lat.sites == -50] = 0.5
    prob[lat.sites == 50] = 0.5
    m = cat_metrics(prob, lat.sites)
    assert m.bimodal
    assert (m.left_peak, m.right_peak) == (-50, 50)
    assert m.separation == 100
    assert m.residual == pytest.approx(0.0, abs=1e-12)
    assert m.mass_balance == pytest.approx(1.0)


def test_cat_metrics_unbalanced_gaussians():
    lat = make_lattice(256)
    prob = 0.7 * gaussian_walker(lat.sites, 40.0, 5.0) ** 2
    prob += 0.3 * gaussian_walker(lat.sites, -40.0, 5.0) ** 2
    prob = np.abs(prob)
    m = cat_metrics(prob, lat.sites)
    assert m.bimodal
    assert m.mass_balance == pytest.approx(3.0 / 7.0, abs=0.01)
    assert m.right_mass > m.left_mass


def test_cat_metrics_unimodal():
    lat = make_lattice(64)
    prob = gaussian_walker(lat.sites, 0.0, 4.0) ** 2
    m = cat_metrics(np.abs(prob), lat.sites)
    assert not m.bimodal
    assert m.separation == 0


def test_cat_metrics_ignores_a_rounding_noise_ripple():
    # a second local maximum 1e-30 of the first, as rounding leaves in the
    # tail of a unimodal packet, is no second peak
    lat = make_lattice(128)
    prob = np.abs(gaussian_walker(lat.sites, -20.0, 4.0)) ** 2
    prob[lat.sites == 40] += 1e-30 * prob.max()
    assert _find_peaks(prob).size == 2
    m = cat_metrics(prob, lat.sites)
    assert not m.bimodal
    assert (m.left_peak, m.right_peak) == (-20, -20)
    assert (m.mass_balance, m.residual, m.separation) == (0.0, 0.0, 0)


def test_cat_metrics_residual_orders_localized_vs_delocalized():
    # a walk from a localized start leaves much more mass between the
    # peaks than a walk from a wide packet with the band-splitting coin
    theta = np.pi / 4
    lat = make_lattice(320)
    steps = 120
    loc = evolve(
        localized_state(lat, 0, COIN_SYMMETRIC), Schedule(steps, theta)
    ).final
    wide = evolve(
        gaussian_position_state(lat, 10.0, symmetric_coin_state(theta)),
        Schedule(steps, theta),
    ).final
    m_loc = cat_metrics(position_distribution(loc), lat.sites)
    m_wide = cat_metrics(position_distribution(wide), lat.sites)
    assert m_wide.bimodal
    assert m_wide.residual < 0.1 * max(m_loc.residual, 1e-3)


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3])
def test_peak_drift_speed_is_cos_theta(theta):
    lat = make_lattice(640)
    psi = gaussian_position_state(lat, 10.0, symmetric_coin_state(theta))
    result = evolve(psi, Schedule(200, theta), snapshot_times=(100, 200))
    peaks = {}
    for t in (100, 200):
        m = cat_metrics(position_distribution(result.snapshots[t]), lat.sites)
        assert m.bimodal
        peaks[t] = m.right_peak
    slope = (peaks[200] - peaks[100]) / 100.0
    assert slope == pytest.approx(np.cos(theta), abs=0.05)


def test_revival_protocol_exact_reverser():
    lat = make_lattice(128)
    psi = gaussian_position_state(lat, 5.0, COIN_SYMMETRIC)
    res = revival_protocol(psi, np.pi / 4, 15)
    assert res.trace.shape == (31,)
    assert res.trace[0] == pytest.approx(1.0)
    assert res.r == pytest.approx(1.0, abs=1e-12)
    assert res.r == pytest.approx(res.trace[-1])


def test_revival_protocol_sigma_y_defect():
    lat = make_lattice(256)
    sigma = 12.0
    psi = gaussian_position_state(lat, sigma, COIN_SYMMETRIC)
    res = revival_protocol(psi, np.pi / 4, 20, reverser=REVERSER_SIGMA_Y)
    assert 1.0 - res.r == pytest.approx(1.0 / (4 * sigma**2), rel=0.1)


@pytest.mark.parametrize("reverser", [REVERSER_EXACT, REVERSER_SIGMA_Y])
@pytest.mark.parametrize(
    "kind, target",
    [
        ("dephasing", "coin"),
        ("dephasing", "walker"),
        ("dephasing", "both"),
        ("amplitude_damping", "coin"),
        ("bit_flip", "coin"),
        (None, None),
    ],
)
def test_open_revival_trace_matches_snapshot_fidelities(kind, target, reverser):
    T, theta = 6, 0.7
    psi = gaussian_position_state(make_lattice(32), 2.0, COIN_SYMMETRIC, k0=0.03)
    spec = ChannelSpec(kind, 0.05, target) if kind is not None else None
    res = revival_protocol(psi, theta, T, channel=spec, reverser=reverser)
    gate, gate_back = reversal_pair(theta) if reverser == REVERSER_EXACT else (SIGMA_Y, SIGMA_Y)
    sched = Schedule(
        2 * T, theta, coin_gate_insertions=((T, gate), (2 * T, gate_back)), channel=spec
    )
    if spec is None:
        # where the closed run holds the state in position space (t = 0 and
        # the stretch ends 0, T, 2T) the trace is fidelity() bit for bit; the
        # interior times of the two plain stretches are taken in momentum space
        snaps = evolve(psi, sched, snapshot_times=range(2 * T + 1)).snapshots
        expected = [fidelity(psi, snaps[t]) for t in range(2 * T + 1)]
        for t in (0, T, 2 * T):
            assert res.trace[t] == expected[t]
        np.testing.assert_allclose(res.trace, expected, rtol=0, atol=1e-13)
        assert res.r == fidelity(psi, snaps[2 * T])
        return
    snaps = evolve_open(
        DensityOperator.from_pure(psi), sched, snapshot_times=range(2 * T + 1)
    ).snapshots
    expected = [fidelity_with_density(psi, snaps[t]) for t in range(2 * T + 1)]
    np.testing.assert_allclose(res.trace, expected, rtol=0, atol=1e-13)
    assert res.r == pytest.approx(expected[-1], abs=1e-13)


def test_revival_protocol_hands_back_the_support_it_stepped():
    # None closed; open, the layout of the revival schedule, as open_layout lays it out
    psi = gaussian_position_state(make_lattice(160), 5.0, COIN_SYMMETRIC)
    assert revival_protocol(psi, np.pi / 4, 10).layout is None
    for kind, target in (("dephasing", "coin"), ("dephasing", "walker"), ("dephasing", "both"),
                         ("amplitude_damping", "coin"), ("bit_flip", "coin")):
        spec = ChannelSpec(kind, 0.01, target)
        layout = revival_protocol(psi, np.pi / 4, 10, channel=spec).layout
        expected = open_layout(psi, _reversal_schedule(np.pi / 4, 10, REVERSER_EXACT,
                                                       channel=spec))
        assert (layout.lines, layout.ring, layout.tail) == (
            expected.lines, expected.ring, expected.tail), (kind, target)


def test_revival_protocol_rejects_unknown_reverser():
    lat = make_lattice(32)
    psi = gaussian_position_state(lat, 3.0, COIN_SYMMETRIC)
    with pytest.raises(ValueError):
        revival_protocol(psi, np.pi / 4, 2, reverser="mirror")


def test_hold_recurrence_validates_p():
    with pytest.raises(ValueError):
        hold_recurrence(np.pi / 4, 0)


def test_hold_recurrence_bounded():
    initial = localized_state(make_lattice(24), 0, COIN_SYMMETRIC)
    for p in (2, 3, 5):
        r = hold_recurrence(np.pi / 4, p)
        assert 0.0 <= r <= 1.0 + 1e-12
        # read at the run's end, it is the final state's fidelity, bit for bit
        steps = p if p % 2 == 0 else 2 * p
        sched = Schedule(steps, np.pi / 4, fm_window=(0, steps, 2 * np.pi / p))
        with channels._one_blas_thread():
            assert r == fidelity(initial, evolve(initial, sched).final)


@pytest.mark.parametrize("reverser", [REVERSER_EXACT, REVERSER_SIGMA_Y])
def test_control_protocol_n_zero_is_plain_revival(reverser):
    lat = make_lattice(128)
    psi = gaussian_position_state(lat, 5.0, COIN_SYMMETRIC)
    r = control_protocol(psi, np.pi / 4, t=12, p=10, n=0, reverser=reverser)
    # both protocols run the one reversal schedule, so r agrees bit for bit
    assert r == revival_protocol(psi, np.pi / 4, 12, reverser=reverser).r
    if reverser == REVERSER_EXACT:
        assert r == pytest.approx(1.0, abs=1e-12)
    else:
        assert r < 1.0 - 1e-6


@pytest.mark.parametrize("reverser, n_sites, sigma, t, p, n", [
    pytest.param(reverser, *case, id=reverser + suffix)
    for case, suffix in (((48, 2.0, 5, 3, 2), ""), ((5200, 25.0, 20, 10, 1), "-N5200"))
    for reverser in (REVERSER_EXACT, REVERSER_SIGMA_Y)
])
def test_control_protocol_holds_between_the_legs(reverser, n_sites, sigma, t, p, n):
    # t plain steps, 2np steps with phase 2*pi/p, gate, t plain steps, closing gate;
    # read at the run's end, r is the final state's fidelity, bit for bit, on one
    # BLAS thread also at N = 5,200, where OpenBLAS could split the overlap
    theta = 0.7
    psi = gaussian_position_state(make_lattice(n_sites), sigma, COIN_SYMMETRIC, k0=0.03)
    gate, gate_back = reversal_pair(theta) if reverser == REVERSER_EXACT else (SIGMA_Y, SIGMA_Y)
    hold = 2 * n * p
    sched = Schedule(2 * t + hold, theta, fm_window=(t, t + hold, 2 * np.pi / p),
                     coin_gate_insertions=((t + hold, gate), (2 * t + hold, gate_back)))
    r = control_protocol(psi, theta, t, p, n, reverser=reverser)
    with channels._one_blas_thread():
        assert r == fidelity(psi, evolve(psi, sched).final)


def test_protocols_read_the_same_digits_at_any_blas_thread_count():
    # OpenBLAS splits a dot product of more than 10,000 entries, so at N = 5,200
    # the end read would move with OPENBLAS_NUM_THREADS if it were not held.
    # The start is built on one thread too: its norm is such a dot product
    if channels._openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count symbols here")
    code = "\n".join((
        "import numpy as np",
        "from catwalk import channels",
        "from catwalk.analysis import control_protocol",
        "from catwalk.lattice import COIN_SYMMETRIC, gaussian_position_state, make_lattice",
        "with channels._one_blas_thread():",
        "    psi = gaussian_position_state(make_lattice(5200), 25.0, COIN_SYMMETRIC)",
        "print(repr(control_protocol(psi, np.pi / 4, t=20, p=10, n=1)))",
    ))
    src = str(Path(catwalk.__file__).resolve().parents[1])
    reads = [subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True,
                            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
                            ).stdout
             for threads in ("1", "2")]
    assert reads[0] and reads[0] == reads[1]


def test_control_protocol_validates_arguments():
    lat = make_lattice(32)
    psi = gaussian_position_state(lat, 3.0, COIN_SYMMETRIC)
    with pytest.raises(ValueError):
        control_protocol(psi, np.pi / 4, t=2, p=0, n=1)
    with pytest.raises(ValueError):
        control_protocol(psi, np.pi / 4, t=2, p=4, n=-1)
