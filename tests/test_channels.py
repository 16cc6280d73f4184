import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catwalk.channels import (
    ChannelError,
    ChannelSpec,
    KrausPair,
    amplitude_damping_kraus,
    apply_channel,
    bit_flip_kraus,
    evolve_open,
    momentum_window,
    open_layout,
)
from catwalk.analysis import REVERSER_EXACT, REVERSER_SIGMA_Y, revival_protocol
from catwalk.lattice import (
    COIN_DOWN,
    COIN_SYMMETRIC,
    DensityOperator,
    StateError,
    fidelity_with_density,
    gaussian_momentum_state,
    gaussian_position_state,
    localized_state,
    make_lattice,
    to_momentum,
)
from catwalk import channels
from catwalk.walk import SIGMA_Y, MomentumLayout, Schedule, evolve, reversal_pair
from dense_oracle import dense_run


def random_density(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    m = a @ a.conj().T
    m /= np.trace(m).real
    return DensityOperator(make_lattice(n), m)


def test_channel_spec_validation():
    with pytest.raises(ChannelError):
        ChannelSpec("depolarizing", 0.1)
    with pytest.raises(ChannelError):
        ChannelSpec("dephasing", -0.1)
    with pytest.raises(ChannelError):
        ChannelSpec("amplitude_damping", 0.1, target="walker")
    ChannelSpec("dephasing", 0.1, target="walker")  # fine


@pytest.mark.parametrize(
    "make",
    [
        lambda: ChannelSpec("dephasing", float("nan")),
        lambda: amplitude_damping_kraus(float("nan")),
        lambda: bit_flip_kraus(float("nan")),
        lambda: KrausPair(np.full((2, 2), np.nan), np.zeros((2, 2))),
    ],
    ids=["ChannelSpec", "amplitude_damping_kraus", "bit_flip_kraus", "KrausPair"],
)
def test_nan_strength_refused(make):
    with pytest.raises(ChannelError):
        make()


def test_kraus_pair_completeness_enforced():
    with pytest.raises(ChannelError):
        KrausPair(np.eye(2), np.eye(2))
    KrausPair(np.eye(2), np.zeros((2, 2)))


@pytest.mark.parametrize("eta", [0.001, 0.01, 0.1, 1.0])
@pytest.mark.parametrize("factory", [amplitude_damping_kraus, bit_flip_kraus])
def test_kraus_completeness_identity(eta, factory):
    pair = factory(eta)
    total = pair.m0.conj().T @ pair.m0 + pair.m1.conj().T @ pair.m1
    np.testing.assert_allclose(total, np.eye(2), atol=1e-14)


def test_kraus_eta_zero_is_identity():
    for factory in (amplitude_damping_kraus, bit_flip_kraus):
        pair = factory(0.0)
        np.testing.assert_allclose(pair.m0, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(pair.m1, 0.0, atol=1e-15)


def test_amplitude_damping_strong_limit():
    lat = make_lattice(8)
    rho = DensityOperator.from_pure(localized_state(lat, 0, COIN_DOWN))
    out = apply_channel(rho, ChannelSpec("amplitude_damping", 50.0))
    # coin relaxes onto |up><up|; walker marginal untouched
    coin = np.einsum("xcxd->cd", out.matrix)
    np.testing.assert_allclose(coin, [[1, 0], [0, 0]], atol=1e-10)


def test_dephase_eta_zero_noop():
    rho = random_density(6, seed=1)
    out = apply_channel(rho, ChannelSpec("dephasing", 0.0, "both"))
    np.testing.assert_allclose(out.matrix, rho.matrix)


def test_dephase_strong_limit_is_diagonal():
    rho = random_density(6, seed=2)
    out = apply_channel(rho, ChannelSpec("dephasing", 60.0, "both"))
    flat = out.as_2d
    off = flat - np.diag(np.diag(flat))
    assert np.abs(off).max() < 1e-20
    np.testing.assert_allclose(np.diag(flat), np.diag(rho.as_2d), atol=1e-15)


def test_dephase_coin_target_scales_coin_offdiagonals_only():
    eta = 0.01
    lat = make_lattice(4)
    psi = localized_state(lat, 0, COIN_SYMMETRIC)
    rho = DensityOperator.from_pure(psi)
    out = apply_channel(rho, ChannelSpec("dephasing", eta, "coin"))
    lam = np.exp(-eta)
    np.testing.assert_allclose(out.matrix[:, 0, :, 1], lam * rho.matrix[:, 0, :, 1], atol=1e-15)
    np.testing.assert_allclose(out.matrix[:, 0, :, 0], rho.matrix[:, 0, :, 0], atol=1e-15)


def test_dephase_walker_target_keeps_site_diagonal_blocks():
    rho = random_density(6, seed=3)
    eta = 0.2
    out = apply_channel(rho, ChannelSpec("dephasing", eta, "walker"))
    lam = np.exp(-eta)
    for x in range(6):
        np.testing.assert_allclose(out.matrix[x, :, x, :], rho.matrix[x, :, x, :], atol=1e-14)
        for y in range(6):
            if y != x:
                np.testing.assert_allclose(
                    out.matrix[x, :, y, :], lam * rho.matrix[x, :, y, :], atol=1e-14
                )


def test_dephase_semigroup_property():
    rho = random_density(6, seed=4)
    once = apply_channel(rho, ChannelSpec("dephasing", 0.3, "both"))
    first = apply_channel(rho, ChannelSpec("dephasing", 0.1, "both"))
    twice = apply_channel(first, ChannelSpec("dephasing", 0.2, "both"))
    np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        ChannelSpec("dephasing", 0.05, "coin"),
        ChannelSpec("dephasing", 0.05, "walker"),
        ChannelSpec("dephasing", 0.05, "both"),
        ChannelSpec("bit_flip", 0.05),
    ],
)
def test_unital_channels_do_not_increase_purity(spec):
    rho = random_density(6, seed=5)
    out = apply_channel(rho, spec)
    purity_in = np.trace(rho.as_2d @ rho.as_2d).real
    purity_out = np.trace(out.as_2d @ out.as_2d).real
    assert purity_out <= purity_in + 1e-12


def test_trace_drift_over_repeated_applications():
    rho = random_density(8, seed=6)
    spec = ChannelSpec("amplitude_damping", 0.02)
    mat = rho
    for _ in range(250):
        mat = apply_channel(mat, spec)
    assert abs(np.trace(mat.as_2d).real - 1.0) < 1e-10


def test_evolve_open_eta_zero_matches_pure():
    lat = make_lattice(48)
    psi = gaussian_position_state(lat, 3.0, COIN_SYMMETRIC)
    sched_open = Schedule(25, np.pi / 4, channel=ChannelSpec("dephasing", 0.0, "both"))
    res_open = evolve_open(DensityOperator.from_pure(psi), sched_open)
    res_pure = evolve(psi, Schedule(25, np.pi / 4)).final
    assert fidelity_with_density(res_pure, res_open.final) == pytest.approx(1.0, abs=1e-10)


def test_evolve_open_snapshots_valid_states():
    lat = make_lattice(32)
    psi = gaussian_position_state(lat, 3.0, COIN_SYMMETRIC)
    spec = ChannelSpec("amplitude_damping", 0.05)
    res = evolve_open(
        DensityOperator.from_pure(psi),
        Schedule(20, np.pi / 4, channel=spec),
        snapshot_times=(0, 10, 20),
    )
    assert set(res.snapshots) == {0, 10, 20}
    for rho in res.snapshots.values():
        assert rho.min_eigenvalue() > -1e-10


def test_evolve_open_rejects_bad_channel_object():
    lat = make_lattice(16)
    rho = DensityOperator.from_pure(localized_state(lat, 0, COIN_SYMMETRIC))
    with pytest.raises(ChannelError):
        evolve_open(rho, Schedule(2, np.pi / 4, channel="dephasing"))


@pytest.mark.parametrize("target", ["coin", "walker", "both"])
def test_dephase_huge_eta_keeps_trace_and_diagonal(target):
    rho = random_density(6, seed=7)
    out = apply_channel(rho, ChannelSpec("dephasing", 1000.0, target))
    assert np.isfinite(out.matrix).all()
    assert np.trace(out.as_2d).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(np.diag(out.as_2d), np.diag(rho.as_2d))


# ------------------------------------------------------------ dense oracle

VARIANTS = [
    ("dephasing", "coin"),
    ("dephasing", "walker"),
    ("dephasing", "both"),
    ("amplitude_damping", "coin"),
    ("bit_flip", "coin"),
]


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(0.0, np.pi),
    eta=st.floats(0.0, 50.0),
    half_n=st.integers(2, 6),
    variant=st.sampled_from(VARIANTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_open_step_matches_dense_oracle(theta, eta, half_n, variant, seed):
    n = 2 * half_n
    rho = random_density(n, seed=seed)
    spec = ChannelSpec(variant[0], eta, variant[1])
    gate, _ = reversal_pair(theta)  # complex, unlike the coin and Kraus operators
    sched = Schedule(1, theta, coin_gate_insertions=((1, gate),), channel=spec)
    seen = []
    result = evolve_open(rho, sched, observe=lambda t, mat: seen.append(t))
    expected = dense_run(rho.as_2d, n, sched)[-1]
    np.testing.assert_allclose(result.final.as_2d, expected, atol=1e-12)
    assert seen == [0, 1]


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(0.0, np.pi),
    eta=st.floats(0.0, 50.0),
    half_n=st.integers(2, 6),
    variant=st.sampled_from(VARIANTS),
    steps=st.integers(1, 6),
    times=st.lists(st.integers(0, 6), min_size=4, max_size=4),
    phi=st.floats(-np.pi, np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_open_run_matches_dense_oracle(
    theta, eta, half_n, variant, steps, times, phi, seed
):
    n = 2 * half_n
    rho = random_density(n, seed=seed)
    start, end, t_gate, t_back = (min(t, steps) for t in times)
    gate, gate_back = reversal_pair(theta)
    sched = Schedule(
        steps,
        theta,
        fm_windows=((min(start, end), max(start, end), phi),),
        coin_gate_insertions=((t_gate, gate), (t_back, gate_back)),
        channel=ChannelSpec(variant[0], eta, variant[1]),
    )
    observed = {}
    layout = open_layout(rho, sched)

    def observe(t, work):
        observed[t] = layout.materialize(work).reshape(2 * n, 2 * n)

    result = evolve_open(rho, sched, snapshot_times=range(steps + 1), observe=observe)
    expected = dense_run(rho.as_2d, n, sched)
    assert sorted(observed) == list(range(steps + 1))
    for t, want in enumerate(expected):
        snap = result.snapshots[t].as_2d
        np.testing.assert_allclose(snap, want, atol=1e-12)
        np.testing.assert_array_equal(observed[t], snap)
        assert np.trace(snap).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(snap, snap.conj().T, atol=1e-13)
        assert result.snapshots[t].min_eigenvalue() >= -1e-12
    np.testing.assert_array_equal(result.final.as_2d, result.snapshots[steps].as_2d)


# ------------------------------------------------------- momentum support


def band_limited_packet(n, width, k0=0.0):
    """A Gaussian of position width ~``width`` built in momentum, so that its
    |psi~|^2 tails fall below the support tolerance inside the zone."""
    return gaussian_momentum_state(make_lattice(n), 0.5 / width, COIN_SYMMETRIC, k0)


def test_momentum_window_trims_each_tail_from_its_own_end():
    prob = np.array([4e-31, 5e-31, 2e-31, 0.5, 0.5, 3e-31, 8e-31])
    # left: 9e-31 may go, 1.1e-30 may not; right: 8e-31 may go, 1.1e-30 may not
    assert momentum_window(prob) == (2, 6)
    assert momentum_window(np.array([0.0, 1.0, 0.0])) == (1, 2)


@pytest.mark.parametrize("n, sigma", [(160, 5.0), (400, 10.0), (300, 10.0)])
def test_momentum_window_is_minimal(n, sigma):
    psi = gaussian_position_state(make_lattice(n), sigma, COIN_SYMMETRIC, k0=0.03)
    prob = np.sum(np.abs(to_momentum(psi.amplitudes)) ** 2, axis=1)
    lo, hi = momentum_window(prob)
    assert 0 < lo < hi < n
    assert prob[:lo].sum() <= 1e-30 and prob[hi:].sum() <= 1e-30
    assert prob[: lo + 1].sum() > 1e-30 and prob[hi - 1 :].sum() > 1e-30


@pytest.mark.parametrize("reverser", [REVERSER_EXACT, REVERSER_SIGMA_Y])
@pytest.mark.parametrize("variant", VARIANTS)
def test_windowed_start_matches_dense_oracle(variant, reverser):
    # a pure start steps on its momentum window (pairs) or on the lines it
    # spans (walker and both dephasing), both smaller than the lattice
    n, T, theta = 64, 6, 0.7
    psi = band_limited_packet(n, 5.0, k0=0.3)
    spec = ChannelSpec(variant[0], 0.05, variant[1])
    gate, gate_back = reversal_pair(theta) if reverser == REVERSER_EXACT else (SIGMA_Y, SIGMA_Y)
    sched = Schedule(2 * T, theta, coin_gate_insertions=((T, gate), (2 * T, gate_back)),
                     channel=spec)
    layout = open_layout(psi, sched)
    assert layout.shape[0] < n and layout.lines == (variant[1] != "coin")
    observed = {}

    def observe(t, work):
        observed[t] = layout.materialize(work).reshape(2 * n, 2 * n)

    result = evolve_open(psi, sched, snapshot_times=range(2 * T + 1), observe=observe)
    expected = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)
    assert sorted(observed) == list(range(2 * T + 1))
    for t, want in enumerate(expected):
        np.testing.assert_allclose(result.snapshots[t].as_2d, want, atol=1e-12)
        np.testing.assert_array_equal(observed[t], result.snapshots[t].as_2d)
    # the revival observer contracts on the same support
    ket = psi.amplitudes.ravel()
    trace = revival_protocol(psi, theta, T, channel=spec, reverser=reverser).trace
    np.testing.assert_allclose(trace, [np.vdot(ket, want @ ket).real for want in expected],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_support_trace_check_matches_the_materialized_trace(variant):
    n = 64
    psi = band_limited_packet(n, 5.0, k0=0.3)
    sched = Schedule(7, 0.7, channel=ChannelSpec(variant[0], 0.05, variant[1]))
    layout = open_layout(psi, sched)
    work, _ = channels._run_open(layout, psi, sched)
    assert np.trace(layout.materialize(work).reshape(2 * n, 2 * n)).real == pytest.approx(
        1.0, abs=1e-13)
    layout.check_trace(work)
    work *= 1 + 1e-9
    with pytest.raises(StateError, match="trace"):
        layout.check_trace(work)


@pytest.mark.parametrize("variant", VARIANTS)
def test_open_revival_catches_trace_drift(monkeypatch, variant):
    # a shift that gains 2e-7 of trace a step: r alone would not show it
    shift = MomentumLayout.shift

    def drifting(layout):
        step = shift(layout)
        return lambda work, out: np.multiply(step(work, out), 1 + 1e-7, out=out)

    monkeypatch.setattr(MomentumLayout, "shift", drifting)
    psi = band_limited_packet(64, 5.0)
    with pytest.raises(StateError, match="trace"):
        revival_protocol(psi, 0.7, 5, channel=ChannelSpec(variant[0], 0.05, variant[1]))


@settings(max_examples=15, deadline=None)
@given(
    theta=st.floats(0.0, np.pi),
    eta=st.floats(0.0, 5.0),
    width=st.floats(1.5, 6.0),
    k0=st.floats(-0.5, 0.5),
    variant=st.sampled_from(VARIANTS),
    steps=st.integers(100, 130),
)
def test_long_open_runs_stay_physical(theta, eta, width, k0, variant, steps):
    n = 48
    psi = band_limited_packet(n, width, k0)
    spec = ChannelSpec(variant[0], eta, variant[1])
    times = (0, steps // 2, steps)
    result = evolve_open(psi, Schedule(steps, theta, channel=spec), snapshot_times=times)
    for t in times:
        flat = result.snapshots[t].as_2d
        assert np.trace(flat).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(flat - flat.conj().T).max() <= 1e-13
        assert result.snapshots[t].min_eigenvalue() >= -1e-12
