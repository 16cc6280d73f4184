import ast
import ctypes
import threading
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catwalk.channels import (
    ChannelError,
    ChannelSpec,
    KrausPair,
    MomentumLayout,
    amplitude_damping_kraus,
    apply_channel,
    bit_flip_kraus,
    evolve_open,
    momentum_window,
    open_layout,
)
from catwalk.analysis import (REVERSER_EXACT, REVERSER_SIGMA_Y, _reversal_schedule,
                              position_distribution, revival_protocol)
from catwalk.lattice import (
    COIN_DOWN,
    COIN_SYMMETRIC,
    CoinState,
    DensityOperator,
    PureState,
    StateError,
    fidelity_with_density,
    gaussian_momentum_state,
    gaussian_position_state,
    localized_state,
    make_lattice,
    to_momentum,
    to_position,
)
import catwalk
from catwalk import channels, walk
from catwalk.walk import (SIGMA_X, SIGMA_Y, Schedule, ScheduleError, coin_operator, evolve,
                          reversal_pair)
import dense_oracle
from dense_oracle import dense_run, dephased_chain, random_density


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
        assert np.linalg.eigvalsh(rho.as_2d)[0] > -1e-10


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
    result = evolve_open(rho, sched)
    expected = dense_run(rho.as_2d, n, sched)[-1]
    np.testing.assert_allclose(result.final.as_2d, expected, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(0.0, np.pi),
    eta=st.floats(0.0, 50.0),
    half_n=st.integers(2, 6),
    variant=st.sampled_from(VARIANTS),
    steps=st.integers(1, 6),
    times=st.lists(st.integers(0, 6), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_open_run_matches_dense_oracle(theta, eta, half_n, variant, steps, times, seed):
    n = 2 * half_n
    rho = random_density(n, seed=seed)
    t_gate, t_back = (min(t, steps) for t in times)
    gate, gate_back = reversal_pair(theta)
    sched = Schedule(
        steps,
        theta,
        coin_gate_insertions=((t_gate, gate), (t_back, gate_back)),
        channel=ChannelSpec(variant[0], eta, variant[1]),
    )
    result = evolve_open(rho, sched, snapshot_times=range(steps + 1))
    expected = dense_run(rho.as_2d, n, sched)
    for t, want in enumerate(expected):
        snap = result.snapshots[t].as_2d
        np.testing.assert_allclose(snap, want, atol=1e-12)
        assert np.trace(snap).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(snap, snap.conj().T, atol=1e-13)
        assert np.linalg.eigvalsh(result.snapshots[t].as_2d)[0] >= -1e-12
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
    assert layout.lines < n // 2 and (layout.ring == n) == (variant[1] != "coin")
    result = evolve_open(psi, sched, snapshot_times=range(2 * T + 1))
    expected = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)
    for t, want in enumerate(expected):
        np.testing.assert_allclose(result.snapshots[t].as_2d, want, atol=1e-12)
    # the revival's fidelity trace contracts on the same support
    ket = psi.amplitudes.ravel()
    trace = revival_protocol(psi, theta, T, channel=spec, reverser=reverser).trace
    np.testing.assert_allclose(trace, [np.vdot(ket, want @ ket).real for want in expected],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_support_trace_check_matches_the_materialized_trace(variant):
    # a run stepped whole keeps its final rows (a snapshot at the end)
    n = 64
    psi = band_limited_packet(n, 5.0, k0=0.3)
    sched = Schedule(7, 0.7, channel=ChannelSpec(variant[0], 0.05, variant[1]))
    result, _ = channels._run_open(psi, sched, (7,))
    layout, sums = result.layout, result.sums
    materialized = np.trace(layout.materialize(result.work).reshape(2 * n, 2 * n)).real
    assert materialized == pytest.approx(1.0, abs=1e-13)
    assert sums[:, 0].sum().real == pytest.approx(materialized, abs=1e-13)
    layout.check_trace(sums)
    with pytest.raises(StateError, match="trace"):
        layout.check_trace(sums * (1 + 1e-9))


@pytest.mark.parametrize("variant", VARIANTS)
def test_open_revival_catches_trace_drift(monkeypatch, variant):
    # a shift that gains 2e-7 of trace a step: r alone would not show it;
    # walker and both dephasing are folded into the shift
    shift = MomentumLayout.shift

    def drifting(layout, *args):
        step = shift(layout, *args)
        return lambda work, out: np.multiply(step(work, out), 1 + 1e-7, out=out)

    monkeypatch.setattr(MomentumLayout, "shift", drifting)
    psi = band_limited_packet(64, 5.0)
    # in one block, then in blocks of one line: the trace is read on line 0 of
    # the first; with the full trace and with r alone, as decohere reads it
    for budget in (channels._BLOCK_BYTES, 1):
        monkeypatch.setattr(channels, "_BLOCK_BYTES", budget)
        for times in (None, (10,)):
            with pytest.raises(StateError, match="trace"):
                revival_protocol(psi, 0.7, 5, channel=ChannelSpec(variant[0], 0.05, variant[1]),
                                 times=times)


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
        assert np.linalg.eigvalsh(result.snapshots[t].as_2d)[0] >= -1e-12


# ------------------------------------------------------ mirrored lines


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.0, np.pi),
    eta=st.one_of(st.floats(0.0, 5.0), st.just(1000.0)),
    half_n=st.integers(16, 32),
    width=st.floats(4.0, 8.0),
    k0=st.floats(-0.5, 0.5),
    variant=st.sampled_from(VARIANTS),
    t=st.integers(1, 8),
)
def test_mirrored_lines_match_the_full_layout(theta, eta, half_n, width, k0, variant, t):
    # a pure start keeps the lines q >= 0 of a ring narrower than the
    # lattice's lines; the same run from DensityOperator.from_pure(psi)
    # keeps every line of the lattice
    n = 2 * half_n
    psi = band_limited_packet(n, width, k0)
    sched = _reversal_schedule(theta, t, REVERSER_EXACT,
                               channel=ChannelSpec(variant[0], eta, variant[1]))
    times = range(2 * t + 1)
    half, half_trace = channels._run_open(psi, sched, times, times)
    whole, whole_trace = channels._run_open(DensityOperator.from_pure(psi), sched, times, times)
    assert not half.layout.full and whole.layout.full
    for s in times:
        snap = half.snapshots[s].as_2d
        np.testing.assert_allclose(snap, whole.snapshots[s].as_2d, rtol=0, atol=1e-12)
        assert np.abs(snap - snap.conj().T).max() <= 1e-13
    np.testing.assert_allclose(half_trace, whole_trace, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ring, lines", [
    *((ring, ring // 2 + 1) for ring in (7, 8, 13, 16)),  # window rings, odd and even R
    (16, 1), (16, 5), (13, 4), (13, 6), (8, 4),  # truncated line counts
    *((n, n // 2 + 1) for n in (24, 25)),  # the ring of all N
])
def test_one_mirror_rule(ring, lines):
    # a stored line stands for its mirror, line R - q, exactly when that is a
    # different line and is not stored; both weights count it twice
    mirrored = [q for q in range(lines) if (ring - q) % ring != q and ring - q >= lines]
    assert list(channels._mirrored(lines, ring)) == mirrored
    weights = [2.0 if q in mirrored else 1.0 for q in range(lines)]
    layout = MomentumLayout(make_lattice(2 * ring), 0, ring, lines)
    ones = np.ones((2, 2, lines, ring), dtype=complex)
    start = layout.fidelity_start(ones, slice(None), np.empty_like(ones))
    np.testing.assert_array_equal(start, np.broadcast_to(np.array(weights)[:, None], start.shape))
    for i in range(1, lines):  # a block of rows from line i on
        rows = slice(i, lines)
        start = layout.fidelity_start(ones[:, :, rows], rows, np.empty_like(ones[:, :, rows]))
        np.testing.assert_array_equal(start[0, 0, :, 0], weights[i:])
    if lines == ring // 2 + 1:
        # _kept_lines weighs line q's norm by w_q on the ring of all N
        for q in range(1, lines):
            norms = np.zeros(lines)
            norms[0], norms[q] = 1.0, 1e-31
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(channels, "_line_norms", lambda prob: norms)
                assert channels._kept_lines(np.zeros(ring)) == (1, weights[q] * 1e-31)


def band_packet(n, width, seed=0):
    """A random state whose momenta are exactly the ``width`` from n/4 on."""
    rng = np.random.default_rng(seed)
    kamp = np.zeros((n, 2), dtype=complex)
    kamp[n // 4:n // 4 + width] = rng.normal(size=(width, 2)) + 1j * rng.normal(size=(width, 2))
    kamp /= np.linalg.norm(kamp)
    return PureState(make_lattice(n), to_position(kamp))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("extra", [0, 1])
def test_mirror_boundary_matches_dense_oracle(variant, extra):
    # walker and both dephasing: 2 width - 1 = n - 1 lines are the widest
    # layout short of the lattice's; one more momentum makes the 2 width - 1
    # lines cover the lattice, which is full, line n/2 its own mirror.
    # Coin-local channels: a ring of the window's even width, whose line R/2
    # is its own mirror, and of its odd width, which has none.
    n, t, theta = 24, 4, 0.7
    width = n // 2 + extra
    psi = band_packet(n, width)
    sched = _reversal_schedule(theta, t, REVERSER_EXACT,
                               channel=ChannelSpec(variant[0], 0.3, variant[1]))
    layout = open_layout(psi, sched)
    if variant[1] == "coin":
        assert (layout.lo, layout.shape) == (n // 4, (width // 2 + 1, width))
    elif extra:
        assert layout.full
    else:
        assert not layout.full and layout.shape == (width, n)
    result = evolve_open(psi, sched, snapshot_times=range(2 * t + 1))
    expected = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)
    for s, want in enumerate(expected):
        np.testing.assert_allclose(result.snapshots[s].as_2d, want, rtol=0, atol=1e-12)
    ket = psi.amplitudes.ravel()
    np.testing.assert_allclose(channels.fidelity_trace(psi, sched)[0],
                               [np.vdot(ket, want @ ket).real for want in expected],
                               rtol=0, atol=1e-12)


# ------------------------------------------- the lines a pure start needs


def _line_norm_sq(work):
    """||line_q||^2 over the four coin blocks of a working array, per row q."""
    return np.einsum("cdqj,cdqj->q", work, work.conj()).real


@pytest.mark.parametrize("start", ["tight", "band", "wide"])
def test_line_norms_match_the_untruncated_layout(start):
    # tight: the window is all 64 momenta, so lines wrap the ring; band: a
    # window of 40 > N/2 momenta, whose lines q near N/2 hold pairs of both
    # offsets q and q - N; wide: tails down to the 1e-34 rounding floor
    if start == "tight":
        psi = gaussian_position_state(make_lattice(64), 3.0, COIN_SYMMETRIC)
    elif start == "band":
        psi = band_packet(64, 40, seed=1)
    else:
        psi = gaussian_position_state(make_lattice(400), 10.0, COIN_SYMMETRIC, k0=0.3)
    lat = psi.lattice
    n = lat.n_sites
    prob = np.sum(np.abs(to_momentum(psi.amplitudes)) ** 2, axis=1)
    lo, hi = momentum_window(prob)
    assert {"tight": (lo, hi) == (0, n), "band": n // 2 < hi - lo < n,
            "wide": hi - lo < n // 4}[start]
    layout = MomentumLayout(lat, 0, n, n // 2 + 1)
    untruncated = np.empty((2, 2, *layout.shape), dtype=complex)
    layout.momenta(layout.start(psi, slice(None), untruncated), untruncated)
    np.testing.assert_allclose(channels._line_norms(prob), _line_norm_sq(untruncated),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("norms, kept, tail", [
    ([1.0, 1e-3, 4e-31, 1e-31, 2e-31], 3, 4e-31),
    ([1e-31, 1e-32, 0.0, 0.0, 0.0], 1, 2e-32),
], ids=["tail", "at_least_one"])
def test_kept_lines_drop_the_fewest_lines_a_tail_of_the_tolerance_allows(norms, kept, tail,
                                                                          monkeypatch):
    # weights 1, 2, 2, 2, 1 on the lines of a ring of 8, the tail summed from its own end
    monkeypatch.setattr(channels, "_line_norms", lambda prob: np.array(norms))
    lines, dropped = channels._kept_lines(np.zeros(8))
    assert lines == kept
    assert dropped == pytest.approx(tail, rel=1e-15)


@pytest.mark.parametrize("target", ["walker", "both"])
def test_a_truncated_run_is_within_its_tail_of_the_untruncated_one(target, monkeypatch):
    # the dropped lines move the fidelity by at most tau and P(x) by at most
    # sqrt(2 tau), against the untruncated layout and the dense oracle alike;
    # a tolerance of 1e-9 lifts tau above rounding
    n, T, theta = 64, 5, 0.7
    coin = CoinState.from_vector([0.6, 0.8 * np.exp(0.4j)])
    psi = gaussian_momentum_state(make_lattice(n), 0.5 / 3.0, coin, k0=0.3)
    spec = ChannelSpec("dephasing", 0.05, target)
    sched = _reversal_schedule(theta, T, REVERSER_EXACT, channel=spec)
    ket = psi.amplitudes.ravel()
    dense = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)
    want_trace = [np.vdot(ket, rho @ ket).real for rho in dense]
    want_prob = np.einsum("xcxc->x", dense[-1].reshape(n, 2, n, 2)).real
    full = MomentumLayout(psi.lattice, 0, n, n // 2 + 1)

    def run(layout):
        with pytest.MonkeyPatch.context() as patch:
            if layout is not None:
                patch.setattr(channels, "open_layout", lambda rho0, schedule: layout)
            # stepped whole, with a snapshot at the end, so that it keeps its rows
            result, _ = channels._run_open(psi, sched, (2 * T,))
            trace = channels._run_open(psi, sched, fidelity_times=range(2 * T + 1))[1]
        mat = result.layout.materialize(result.work)
        return result.layout, trace, np.einsum("xcxc->x", mat).real

    _, full_trace, full_prob = run(full)
    for tol in (1e-9, channels.SUPPORT_TOL):
        monkeypatch.setattr(channels, "SUPPORT_TOL", tol)
        layout, trace, prob = run(None)
        assert 1 <= layout.lines < n // 2 and 0 < layout.tail <= tol
        for want_t, want_p in ((full_trace, full_prob), (want_trace, want_prob)):
            assert np.abs(trace - want_t).max() <= layout.tail + 1e-14
            assert np.abs(prob - want_p).max() <= np.sqrt(2 * layout.tail) + 1e-14
        if tol == 1e-9:
            assert np.abs(trace - full_trace).max() > 1e-14
    # P(x) read from the support passes its own checks on the truncated layout
    result = evolve_open(psi, sched)
    assert result.layout.lines < n // 2
    np.testing.assert_allclose(result.distribution(), full_prob, rtol=0, atol=1e-14)


@pytest.mark.parametrize("mutant", [False, True], ids=["mask", "mask_1_over_lambda"])
@pytest.mark.parametrize("target", ["walker", "both"])
def test_no_stored_line_grows_along_a_run(target, mutant, monkeypatch):
    # coin maps, gates, the shift and the DFT in y are unitary on each line and
    # the mask is at most 1, so a line's norm never grows; a mask entry of
    # 1/lam on the y = 0 column, which holds the populations, makes it grow
    n, steps, theta, eta = 160, 30, 0.7, 0.05
    coin = CoinState.from_vector([0.6, 0.8 * np.exp(0.4j)])
    psi = gaussian_position_state(make_lattice(n), 5.0, coin, k0=0.3)
    gates = ((5, SIGMA_X), (11, SIGMA_Y), (17, np.diag([1.0, np.exp(0.3j)])))
    sched = Schedule(steps, theta, coin_gate_insertions=gates,
                     channel=ChannelSpec("dephasing", eta, target))
    if mutant:
        shift = MomentumLayout.shift

        def grown(layout, *args):
            step = shift(layout, *args)

            def mutated(work, out):
                step(work, out)
                for c in (0, 1):  # the blocks both targets keep at y = 0
                    out[c, c, :, out.shape[-1] // 2] *= np.exp(eta)
                return out
            return mutated

        monkeypatch.setattr(MomentumLayout, "shift", grown)
    norms = []
    checkpoint = walk._Checkpoints.__call__

    def recorded(self, t, work, spare):
        work, spare = checkpoint(self, t, work, spare)
        norms.append(_line_norm_sq(work))
        return work, spare

    monkeypatch.setattr(walk._Checkpoints, "__call__", recorded)
    try:
        evolve_open(psi, sched)
        gained_trace = False
    except StateError:
        gained_trace = True
    assert len(norms) == steps + 1 and open_layout(psi, sched).lines < n // 2
    norms = np.array(norms)
    assert (norms[1:] > norms[:-1] * (1 + 1e-12)).any() == mutant
    assert gained_trace == mutant


# ----------------------------------------- the ring of all N in y = x - x'


@pytest.mark.parametrize("lines", ["full", "half"])
@pytest.mark.parametrize("target", [None, "walker", "both"])
@pytest.mark.parametrize("n", [6, 10])
def test_relative_shift_matches_the_momentum_phase(n, target, lines):
    # the rolled, masked shift in y, taken back along j, is the phase
    # e^{i s_c k_a} e^{-i s_d k_b} in momentum, then lam p + (1 - lam) times
    # each line's mean on the blocks P keeps
    lattice = make_lattice(n)
    layout = MomentumLayout(lattice, 0, n, n // 2 + 1 if lines == "full" else n // 2 - 1)
    assert layout.relative
    rng = np.random.default_rng(n)
    work = rng.normal(size=(2, 2, *layout.shape)) + 1j * rng.normal(size=(2, 2, *layout.shape))
    spec = None if target is None else ChannelSpec("dephasing", 0.3, target)
    k = lattice.momenta
    a = (np.arange(n)[None, :] + np.arange(layout.lines)[:, None]) % n
    expected = np.empty_like(work)
    for c, d in channels._COIN_PAIRS:
        s_c, s_d = 1 - 2 * c, 1 - 2 * d
        moved = np.exp(1j * (s_c * k[a] - s_d * k[None, :])) * work[c, d]
        if target == "walker" or (target == "both" and c == d):
            moved = np.exp(-0.3) * moved + (1 - np.exp(-0.3)) * moved.mean(axis=1, keepdims=True)
        elif target == "both":
            moved = np.exp(-0.3) * moved
        expected[c, d] = moved
    step = layout.shift(spec, slice(None), np.empty_like(work))
    out = step(to_position(work, axis=-1), np.empty_like(work))
    for c, d in channels._COIN_PAIRS:
        np.testing.assert_allclose(to_momentum(out[c, d], axis=-1), expected[c, d],
                                   rtol=0, atol=1e-14)


def _phase_gate(phi):
    return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])  # e^{i phi sigma_z}


@pytest.mark.parametrize("case", ["walker", "both", "density_coin", "density_none",
                                  "site_coin", "complex_gate"])
def test_full_ring_runs_match_dense_oracle(case):
    # every run on the ring of all N momenta steps in y = x - x'; snapshots
    # and the fidelity start go through the frame change.  A start on one
    # site occupies every momentum, so even a coin-local channel runs there.
    n, steps, theta = 16, 6, 0.7
    psi = (localized_state(make_lattice(n), 5, COIN_SYMMETRIC) if case == "site_coin"
           else band_limited_packet(n, 2.0, k0=0.3))
    specs = {"walker": ChannelSpec("dephasing", 0.2, "walker"),
             "both": ChannelSpec("dephasing", 0.2, "both"),
             "density_coin": ChannelSpec("amplitude_damping", 0.2),
             "site_coin": ChannelSpec("amplitude_damping", 0.2),
             "complex_gate": ChannelSpec("dephasing", 0.2, "both")}
    gate, gate_back = reversal_pair(theta)
    gates = ((2, gate), (5, gate_back))
    if case == "complex_gate":  # gates whose coin maps keep the complex product
        gates = ((2, _phase_gate(0.4)), (4, _phase_gate(-0.9)))
    sched = Schedule(steps, theta, coin_gate_insertions=gates, channel=specs.get(case))
    rho0 = DensityOperator.from_pure(psi) if case.startswith("density") else psi
    times = range(steps + 1)
    result, _ = channels._run_open(rho0, sched, times)
    assert result.layout.relative
    expected = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)
    for t in times:
        np.testing.assert_allclose(result.snapshots[t].as_2d, expected[t], rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.layout.materialize(result.work).reshape(2 * n, 2 * n),
                               expected[-1], rtol=0, atol=1e-12)
    if not case.startswith("density"):
        trace = channels._run_open(rho0, sched, times, times)[1]
        ket = psi.amplitudes.ravel()
        np.testing.assert_allclose(trace,
                                   [np.vdot(ket, want @ ket).real for want in expected],
                                   rtol=0, atol=1e-12)


def test_real_maps_are_real_and_complex_ones_complex():
    # a real coin map runs as a real product on the float view; a map with
    # any imaginary part keeps the complex product
    theta = 0.7
    gate, gate_back = reversal_pair(theta)
    real = [walk._coin_map(2, coin_operator(theta)), walk._coin_map(2, gate),
            walk._coin_map(2, gate_back), walk._coin_map(1, coin_operator(theta))]
    real += [channels._coin_superop(ChannelSpec(kind, 0.3, target))
             for kind, target in VARIANTS if target == "coin"]
    assert not any(map(np.iscomplexobj, real))
    assert np.iscomplexobj(walk._coin_map(2, _phase_gate(0.4)))
    assert np.iscomplexobj(walk._coin_map(1, gate))
    rng = np.random.default_rng(1)
    for cmap in real:
        work = rng.normal(size=(len(cmap), 3, 5)) + 1j * rng.normal(size=(len(cmap), 3, 5))
        out = walk._apply_coin_map(work, cmap, np.empty_like(work))
        np.testing.assert_allclose(out, np.tensordot(cmap.astype(complex), work, 1),
                                   rtol=0, atol=1e-15)


# ------------------------------------------------------------ row blocks


@pytest.fixture
def block_rows(monkeypatch):
    """The row blocks of each open run, as the (start, stop) of the stored
    lines each block is laid out for, one list per run."""
    runs = []
    start = MomentumLayout.start

    def recorded(layout, state, rows, out):
        if rows.start == 0:
            runs.append([])
        runs[-1].append((rows.start, rows.stop))
        return start(layout, state, rows, out)

    monkeypatch.setattr(MomentumLayout, "start", recorded)
    return runs


@pytest.fixture
def segments(monkeypatch):
    """Each shift factor built, one per window of y a block steps, as
    [(start, stop) of its rows, its width, the steps it took]."""
    built = []
    shift = MomentumLayout.shift

    def recorded(layout, spec, rows, phase):
        step = shift(layout, spec, rows, phase)
        built.append([(rows.start, rows.stop), phase.shape[-1], 0])
        entry = built[-1]

        def counted(work, out):
            entry[2] += 1
            return step(work, out)
        return counted

    monkeypatch.setattr(MomentumLayout, "shift", recorded)
    return built


@pytest.fixture
def handed_rows(monkeypatch):
    """The final rows, in the basis they were stepped in, that each block of
    an open run hands to ``MomentumLayout.line_sums``, copied, one list per
    run."""
    runs = []
    line_sums = MomentumLayout.line_sums

    def recorded(layout, work, rows):
        if rows.start == 0:
            runs.append([])
        runs[-1].append(np.array(work))
        return line_sums(layout, work, rows)

    monkeypatch.setattr(MomentumLayout, "line_sums", recorded)
    return runs


def _final_rows(run):
    """Every stored line of a run ``handed_rows`` recorded, in block order."""
    return np.concatenate(run, axis=2)


def _split(monkeypatch, layout, blocks, width=None):
    """Set the budget so that a run on ``layout`` takes ``blocks`` row blocks,
    for a run whose first window of y is ``width`` columns (the ring's by
    default)."""
    width = layout.ring if width is None else width
    monkeypatch.setattr(channels, "_BLOCK_BYTES", -(-64 * layout.lines * width // blocks))


def _assert_blocks(rows, layout, blocks):
    """``rows`` tile the stored lines in ``blocks`` contiguous blocks whose
    sizes differ by at most one."""
    assert len(rows) == blocks
    assert [rows[0][0], *(stop for _, stop in rows)] == [0, *(start for start, _ in rows[1:]),
                                                         layout.lines]
    assert np.ptp([stop - start for start, stop in rows]) <= 1


@pytest.mark.parametrize("blocks", [2, 3, 5])
@pytest.mark.parametrize("support", ["window", "all"])
@pytest.mark.parametrize("variant", [None, *VARIANTS])
def test_row_blocks_leave_the_final_state_bit_identical(variant, support, blocks, block_rows,
                                                        handed_rows, monkeypatch):
    # every map of a step acts line by line, so a block's rows take the very
    # arithmetic of one block, and so do their line sums and P(x); a start on
    # one site, on every momentum, makes even the coin-local ring all N,
    # stepped in y = x - x'.  The rows of a run that keeps none are read
    # where each block hands them to line_sums, and match those the run
    # stepped whole hands over, which back in momenta are the rows it keeps;
    # on a ring of all N, which ends on a window of y, only in the y = 0
    # column, the one the line sums read and no wrapped roll reaches
    n, theta = 32, 0.7
    psi = (band_packet(n, 13, seed=5) if support == "window"
           else localized_state(make_lattice(n), 5, COIN_SYMMETRIC))
    spec = None if variant is None else ChannelSpec(variant[0], 0.2, variant[1])
    gate, gate_back = reversal_pair(theta)
    sched = Schedule(9, theta, coin_gate_insertions=((3, gate), (6, gate_back)), channel=spec)
    whole = channels._run_open(psi, sched, (9,))[0]
    one = channels._run_open(psi, sched)[0]
    layout = one.layout
    assert layout.relative == (support == "all" or variant in VARIANTS[1:3])
    _split(monkeypatch, layout, blocks)
    split = channels._run_open(psi, sched)[0]
    assert block_rows[1] == [(0, layout.lines)]
    _assert_blocks(block_rows[2], layout, blocks)
    assert one.work is None and split.work is None
    assert [len(run) for run in handed_rows] == [1, 1, blocks]
    stepped = _final_rows(handed_rows[0])
    np.testing.assert_array_equal(layout.momenta(stepped, None), whole.work)
    width = 5 if layout.relative else layout.ring  # the last window of y, from t = 8
    lo = layout.ring // 2 - width // 2  # its first column on the ring
    kept = slice(width // 2, width // 2 + 1) if layout.relative else slice(None)
    for rows in (_final_rows(handed_rows[1]), _final_rows(handed_rows[2])):
        assert rows.shape == (*whole.work.shape[:-1], width)
        np.testing.assert_array_equal(rows[..., kept], stepped[..., lo:lo + width][..., kept])
    for result in (one, split):
        np.testing.assert_array_equal(result.sums, whole.sums)
        np.testing.assert_array_equal(result.distribution(), whole.distribution())


@pytest.mark.parametrize("start, blocks", [("walker", 1), ("walker", 3), ("both", 1),
                                           ("both", 3), ("density", 1)])
def test_relative_line_sums_read_the_y0_column(start, blocks, monkeypatch):
    # on a ring of all N, stepped in y = x - x', a row's sum over momenta is
    # sqrt(N) times its y = 0 column, the centre of the window of y a run
    # that keeps no rows ends on: each block's sums, read where it hands
    # them over, match the rows of the same run stepped whole summed over
    # momenta, and the column beside y = 0 does not
    n, theta = 32, 0.7
    psi = band_packet(n, 13, seed=5)
    rho0 = DensityOperator.from_pure(psi) if start == "density" else psi
    gate, gate_back = reversal_pair(theta)
    spec = ChannelSpec("dephasing", 0.2, "coin" if start == "density" else start)
    sched = Schedule(9, theta, coin_gate_insertions=((3, gate), (6, gate_back)), channel=spec)
    layout = open_layout(rho0, sched)
    assert layout.relative
    whole = channels._run_open(rho0, sched, (9,))[0].work
    _split(monkeypatch, layout, blocks)
    handed = []
    line_sums = MomentumLayout.line_sums

    def recorded(layout, work, rows):
        sums = line_sums(layout, work, rows)
        handed.append((np.array(work), rows, sums))
        return sums

    monkeypatch.setattr(MomentumLayout, "line_sums", recorded)
    channels._run_open(rho0, sched)
    assert len(handed) == blocks
    for work, rows, sums in handed:
        assert work.shape[-1] == (n if start == "density" else 5)
        over_momenta = (whole[0, 0] + whole[1, 1]).sum(axis=1)[rows]
        np.testing.assert_allclose(sums[0], over_momenta, rtol=0, atol=1e-15)
        assert not sums[1].any()
        beside = line_sums(layout, np.roll(work, 1, axis=-1), rows)[0]
        assert np.abs(beside - over_momenta).max() > 1e-15


@pytest.mark.parametrize("variant", VARIANTS)
def test_row_blocks_sum_the_fidelity_in_block_order(variant, block_rows, monkeypatch):
    n, theta, T = 16, 0.7, 4
    psi = band_packet(n, 7, seed=4)
    sched = _reversal_schedule(theta, T, REVERSER_EXACT,
                               channel=ChannelSpec(variant[0], 0.2, variant[1]))
    layout = open_layout(psi, sched)
    one, _ = channels.fidelity_trace(psi, sched)
    _split(monkeypatch, layout, 3)
    result, trace = channels._run_open(psi, sched, fidelity_times=range(2 * T + 1))
    _assert_blocks(block_rows[1], layout, 3)
    assert result.work is None  # no block's rows are kept past its run
    np.testing.assert_allclose(trace, one, rtol=0, atol=1e-15)
    ket = psi.amplitudes.ravel()
    expected = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)
    np.testing.assert_allclose(trace, [np.vdot(ket, want @ ket).real for want in expected],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["snapshots", "density"])
def test_runs_that_need_the_whole_support_stay_one_block(case, block_rows, monkeypatch):
    # snapshots materialize every line, and a DensityOperator start is laid
    # out whole
    n, steps, theta = 16, 6, 0.7
    psi = band_packet(n, 7, seed=2)
    sched = Schedule(steps, theta, channel=ChannelSpec("dephasing", 0.2, "walker"))
    rho0 = DensityOperator.from_pure(psi) if case == "density" else psi
    times = range(steps + 1) if case == "snapshots" else ()
    monkeypatch.setattr(channels, "_BLOCK_BYTES", 1)  # one line a block, were it split
    result = evolve_open(rho0, sched, times)
    assert block_rows == [[(0, result.layout.lines)]]
    expected = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)
    np.testing.assert_allclose(result.final.as_2d, expected[-1], rtol=0, atol=1e-12)
    for t in times:
        np.testing.assert_allclose(result.snapshots[t].as_2d, expected[t], rtol=0, atol=1e-12)


def test_a_fidelity_run_in_row_blocks_holds_only_their_rows(monkeypatch):
    # each block lays out, steps and weighs its own rows, from psi~ alone
    psi = gaussian_position_state(make_lattice(400), 10.0, COIN_SYMMETRIC)
    spec = ChannelSpec("dephasing", 0.01, "walker")
    layout = open_layout(psi, _reversal_schedule(0.7, 3, REVERSER_EXACT, channel=spec))
    assert layout.shape == (53, 400)  # of 73 the window reaches

    def peak(blocks):
        _split(monkeypatch, layout, blocks)
        revival_protocol(psi, 0.7, 3, channel=spec)  # first-call allocations
        tracemalloc.start()
        try:
            revival_protocol(psi, 0.7, 3, channel=spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(6) <= 0.6 * peak(1)


def test_a_distribution_run_in_row_blocks_holds_no_full_working_array(block_rows, segments):
    # decohereprob's both run at N = 400: 53 lines of 400 columns of y.  At
    # T = 60, 241 columns do not fit in half the ring, so it steps all 400,
    # in 2 blocks, up to its first cut; at T = 40 it steps a window of 161
    # from t = 0, in one block, 4,392 of the 40 x 400 column-steps per line.
    # Each block hands its rows' sums over as it ends, so beside one block
    # set (work, spare and shift factor of the largest block, as wide as its
    # first window) the run holds less than one full working array
    psi = gaussian_position_state(make_lattice(400), 10.0, COIN_SYMMETRIC)
    for steps, width, blocks in ((60, 400, 2), (40, 161, 1)):
        sched = Schedule(steps, np.pi / 4, channel=ChannelSpec("dephasing", 0.01, "both"))
        layout = open_layout(psi, sched)
        lines, ring = layout.shape
        assert (lines, ring) == (53, 400)
        del block_rows[:], segments[:]
        evolve_open(psi, sched).distribution()  # first-call allocations
        assert [len(run) for run in block_rows] == [blocks]
        windows = channels._windows(steps, ring)
        assert windows[0] == (0, width)
        assert [cut for _, cut, _ in segments] == [cut for _, cut in windows] * blocks
        if steps == 40:
            assert sum(cut * taken for _, cut, taken in segments) == 4392
        tracemalloc.start()
        try:
            evolve_open(psi, sched).distribution()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_set = 3 * 64 * -(-lines // blocks) * width
        assert peak - block_set < 64 * lines * ring


# ------------------------------------------------------ the light cone in y


def _dense_distribution(psi, n, sched):
    final = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)[-1]
    return np.diag(final).real.reshape(n, 2).sum(axis=1)


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("steps, widths", [(0, [32]), (1, [5]), (3, [13, 5]),
                                           (12, [32, 13, 5])])
@pytest.mark.parametrize("eta", [0.0, 0.2])
@pytest.mark.parametrize("target", ["walker", "both"])
def test_a_final_state_run_steps_only_the_light_cone(target, eta, steps, widths, blocks,
                                                     segments, monkeypatch):
    # with s steps left only the columns |y| <= 2s can reach y = 0, the one
    # P(x) is read from: a final-state run on the ring of all N steps those
    # 4s + 1 once they fit in half its window, from t = 0 if 4T + 1 <= N/2
    # (T = 1 and 3 here, not 12), through gates, one at a cut (t = 9 of 12),
    # and its line sums are those of the run stepped whole on all N, bit for
    # bit, in one block or three.  At eta = 0 no line mixes, so a start on
    # one site, on every momentum, keeps the ring all N
    n, theta = 32, 0.7
    psi = (band_limited_packet(n, 2.0, k0=0.3) if eta
           else localized_state(make_lattice(n), 5, COIN_SYMMETRIC))
    gate, gate_back = reversal_pair(theta)
    gates = ((steps - 3, gate), (steps, gate_back)) if steps >= 3 else ()
    sched = Schedule(steps, theta, coin_gate_insertions=gates,
                     channel=ChannelSpec("dephasing", eta, target))
    layout = open_layout(psi, sched)
    assert layout.relative and layout.lines >= 3
    _split(monkeypatch, layout, blocks, widths[0])
    result = evolve_open(psi, sched)
    assert [width for _, width, _ in segments] == widths * blocks
    assert len({rows for rows, _, _ in segments}) == blocks
    windows = channels._windows(steps, n)
    assert [taken for _, _, taken in segments[:len(widths)]] == [
        end - t for (t, _), end in zip(windows, [t for t, _ in windows[1:]] + [steps])]
    full = channels._run_open(psi, sched, (steps,))[0]
    assert full.layout.shape == layout.shape and len(segments) == len(widths) * blocks + 1
    np.testing.assert_array_equal(result.sums, full.sums)
    np.testing.assert_allclose(result.distribution(), _dense_distribution(psi, n, sched),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("target", ["walker", "both"])
def test_a_window_narrower_than_the_light_cone_fails_the_oracle(target, handed_rows,
                                                                monkeypatch):
    # the roll wraps around inside a window, so a value wrapped from an edge
    # moves 2 columns a step toward y = 0.  At 4s + 1 columns the whole y = 0
    # column stays exact.  At 4s - 3 a wrapped value reaches it on the last
    # step in blocks (0,1) and (1,0) alone: that shift leaves (0,0) and (1,1)
    # in place, so P(x) still holds.  At 4s - 5 P(x) fails the dense oracle
    n, steps, theta = 32, 12, 0.7
    psi = band_limited_packet(n, 2.0, k0=0.3)
    sched = Schedule(steps, theta, channel=ChannelSpec("dephasing", 0.2, target))
    expected = _dense_distribution(psi, n, sched)
    channels._run_open(psi, sched, (steps,))  # stepped whole on all N
    y0 = _final_rows(handed_rows[0])[..., n // 2]
    windows = channels._windows
    for narrower, column_exact, prob_exact in ((0, True, True), (4, False, True),
                                               (6, False, False)):
        monkeypatch.setattr(channels, "_windows", lambda steps, ring: [
            (t, width if width == ring else max(width - narrower, 1))
            for t, width in windows(steps, ring)])
        prob = evolve_open(psi, sched).distribution()
        rows = _final_rows(handed_rows[-1])
        assert np.array_equal(rows[..., rows.shape[-1] // 2], y0) == column_exact
        assert (np.abs(prob - expected).max() <= 1e-12) == prob_exact


# ------------------------------ coin-local channels ride in the coin map

COIN_LOCAL = [variant for variant in VARIANTS if variant[1] == "coin"]


def _dense_fidelities(psi, expected):
    ket = psi.amplitudes.ravel()
    return [np.vdot(ket, want @ ket).real for want in expected]


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("end_gate", [False, True])
@pytest.mark.parametrize("eta", [0.2, 1000.0])
@pytest.mark.parametrize("variant", COIN_LOCAL)
def test_an_owed_channel_matches_dense_oracle(variant, eta, end_gate, blocks, handed_rows,
                                              monkeypatch):
    # a step leaves the channel S owed: the next step's coin map is C S, a
    # gate's G S (at t = 0 nothing is owed yet), and the final rows each block
    # hands to its line sums, the final state of a run stepped whole and the
    # trace check pay it alone unless a gate at the end did; the fidelity
    # reads an owing state against S^T start
    n, steps, theta = 32, 9, 0.7
    psi = band_packet(n, 13, seed=5)
    gate, gate_back = reversal_pair(theta)
    gates = ((0, _phase_gate(0.4)), (4, gate), *(((steps, gate_back),) if end_gate else ()))
    sched = Schedule(steps, theta, coin_gate_insertions=gates,
                     channel=ChannelSpec(variant[0], eta, variant[1]))
    expected = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)
    layout = open_layout(psi, sched)
    _split(monkeypatch, layout, blocks)
    result = evolve_open(psi, sched)
    assert len(handed_rows[0]) == blocks
    final = layout.materialize(layout.momenta(_final_rows(handed_rows[0]), None))
    final = final.reshape(2 * n, 2 * n)
    np.testing.assert_allclose(final, expected[-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(evolve_open(psi, sched, (steps,)).final.as_2d, expected[-1],
                               rtol=0, atol=1e-12)
    prob = np.diag(expected[-1]).real.reshape(n, 2).sum(axis=1)
    np.testing.assert_allclose(result.distribution(), prob, rtol=0, atol=1e-12)
    np.testing.assert_allclose(channels.fidelity_trace(psi, sched)[0],
                               _dense_fidelities(psi, expected), rtol=0, atol=1e-12)


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("variant", COIN_LOCAL)
def test_an_owed_channel_rides_through_the_window_of_y(variant, blocks, segments, monkeypatch):
    # decohereprob --steps 3 --sigma 3 --lattice 64: a packet that fills every
    # momentum steps a coin-local channel on the ring of all N too, in a
    # window of 13 columns of y from t = 0, then of 5; the owed S rides
    # through the cut and is paid on the last window before its line sums
    n, steps, theta = 64, 3, np.pi / 4
    psi = gaussian_position_state(make_lattice(n), 3.0, COIN_SYMMETRIC)
    sched = Schedule(steps, theta, channel=ChannelSpec(variant[0], 0.2, variant[1]))
    layout = open_layout(psi, sched)
    assert layout.shape == (33, 64) and layout.relative
    _split(monkeypatch, layout, blocks, 13)
    result = evolve_open(psi, sched)
    assert [width for _, width, _ in segments] == [13, 5] * blocks
    np.testing.assert_array_equal(result.sums, channels._run_open(psi, sched, (steps,))[0].sums)
    np.testing.assert_allclose(result.distribution(), _dense_distribution(psi, n, sched),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("site", [False, True])
@pytest.mark.parametrize("eta", [0.2, 1000.0])
@pytest.mark.parametrize("variant", COIN_LOCAL)
def test_an_owed_channel_is_paid_before_each_snapshot(variant, eta, site):
    # snapshots at some times, not at the end; a start on one site steps the
    # ring of all N momenta in y = x - x', a packet its window
    n, steps, theta = 16, 6, 0.7
    psi = localized_state(make_lattice(n), 5, COIN_SYMMETRIC) if site else band_packet(n, 7, seed=2)
    gate, _ = reversal_pair(theta)
    sched = Schedule(steps, theta, coin_gate_insertions=((3, gate),),
                     channel=ChannelSpec(variant[0], eta, variant[1]))
    times = (0, 2, 3, 5)
    result, trace = channels._run_open(psi, sched, times, range(steps + 1))
    assert result.layout.relative == site and result.work is None
    expected = dense_run(DensityOperator.from_pure(psi).as_2d, n, sched)
    for t in times:
        np.testing.assert_allclose(result.snapshots[t].as_2d, expected[t], rtol=0, atol=1e-12)
    # a fidelity run keeps no final state: the same run without one does
    final = channels._run_open(psi, sched, times)[0]
    np.testing.assert_allclose(final.layout.materialize(final.work).reshape(2 * n, 2 * n),
                               expected[-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace, _dense_fidelities(psi, expected),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", [("amplitude_damping", "coin"), ("dephasing", "walker")])
def test_an_open_step_makes_one_coin_product(variant, monkeypatch):
    # T steps of one product each, one per gate time (G S) and one that pays
    # the channel on the block before its line sums, not 2T; S^T start is
    # one more product per block, which its _Checkpoints builds before the
    # run.  Walker dephasing rides in the shift and owes nothing.
    steps, theta = 9, 0.7
    psi = band_packet(32, 13, seed=5)
    gate, gate_back = reversal_pair(theta)
    sched = Schedule(steps, theta, coin_gate_insertions=((3, gate), (5, gate_back)),
                     channel=ChannelSpec(variant[0], 0.2, variant[1]))
    products = []
    apply = walk._apply_coin_map

    def counting(*args):
        products.append(args)
        return apply(*args)

    monkeypatch.setattr(walk, "_apply_coin_map", counting)
    _, layout = channels.fidelity_trace(psi, sched)
    owed = variant[1] == "coin"
    assert len(products) == steps + 2 + 2 * owed
    if owed:  # the pay before the line sums, on the whole block
        assert products[-1][0].shape[2] == layout.lines


# ------------------------------------------------------- fidelity times


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(0.1, 3.0),
    eta=st.floats(0.0, 3.0),
    n=st.sampled_from([32, 48, 64]),
    width=st.floats(2.0, 6.0),
    T=st.integers(1, 9),
    hold=st.sampled_from([0, 0, 3]),
    variant=st.sampled_from([None, *VARIANTS]),
    blocks=st.sampled_from([1, 3]),
    data=st.data(),
)
def test_fidelity_times_read_the_full_trace_bit_for_bit(theta, eta, n, width, T, hold, variant,
                                                         blocks, data):
    # a run contracts at the times asked alone, closed (in and at the ends of
    # plain stretches, and in an F_m window) or open (in one block or three):
    # each reads the value the full trace holds there, in any order and any
    # number
    psi = band_limited_packet(n, width, k0=0.3)
    spec = None if variant is None else ChannelSpec(variant[0], eta, variant[1])
    sched = _reversal_schedule(theta, T, REVERSER_EXACT, hold=hold if spec is None else 0, p=5,
                               channel=spec)
    total = sched.total_steps
    times = data.draw(st.lists(st.integers(0, total), min_size=1, max_size=total + 1,
                               unique=True))
    with pytest.MonkeyPatch.context() as patch:
        if spec is not None:
            _split(patch, open_layout(psi, sched), blocks)
        full, _ = channels.fidelity_trace(psi, sched)
        part, _ = channels.fidelity_trace(psi, sched, times)
    assert full.shape == (total + 1,) and part.shape == (len(times),)
    np.testing.assert_array_equal(part, full[times])


@pytest.mark.parametrize("variant", [None, *VARIANTS])
def test_a_revival_read_at_2t_alone_has_the_same_r(variant):
    psi = gaussian_position_state(make_lattice(160), 5.0, COIN_SYMMETRIC)
    spec = None if variant is None else ChannelSpec(variant[0], 0.01, variant[1])
    full = revival_protocol(psi, 0.7, 12, channel=spec)
    alone = revival_protocol(psi, 0.7, 12, channel=spec, times=(24,))
    assert alone.r == full.r and alone.trace.tolist() == [full.r]
    assert full.trace.shape == (25,) and full.trace[-1] == full.r
    # r is the fidelity at 2T even when 2T is not asked for
    early = revival_protocol(psi, 0.7, 12, channel=spec, times=(3, 0))
    assert early.r == full.r and early.trace.tolist() == full.trace[[3, 0]].tolist()


@pytest.mark.parametrize("variant", [None, *VARIANTS])
@pytest.mark.parametrize("t", [-1, 11])
def test_a_fidelity_time_outside_the_run_is_refused(variant, t):
    psi = band_limited_packet(32, 3.0)
    spec = None if variant is None else ChannelSpec(variant[0], 0.1, variant[1])
    sched = Schedule(10, 0.7, channel=spec)
    with pytest.raises(ScheduleError, match=f"fidelity time {t} outside run"):
        channels.fidelity_trace(psi, sched, (0, t))


@pytest.mark.parametrize("start", ["pure_1", "pure_3", "snapshots", "density"])
@pytest.mark.parametrize("variant", [None, *VARIANTS])
def test_a_fidelity_run_keeps_no_final_state(variant, start, block_rows, monkeypatch):
    # whatever its blocks and times, a fidelity run hands back no working
    # array but every line's sums, and its trace check, from line 0's sums,
    # still catches a drift (a snapshot at t = 0 is taken before any drift)
    n, theta, T = 32, 0.7, 4
    psi = band_packet(n, 13, seed=3)
    spec = None if variant is None else ChannelSpec(variant[0], 0.2, variant[1])
    sched = _reversal_schedule(theta, T, REVERSER_EXACT, channel=spec)
    rho0 = DensityOperator.from_pure(psi) if start == "density" else psi
    snaps = (0,) if start == "snapshots" else ()
    layout = open_layout(rho0, sched)
    _split(monkeypatch, layout, 3 if start == "pure_3" else 1)
    for times in ((2 * T,), (3, 1), range(2 * T + 1)):
        result, trace = channels._run_open(rho0, sched, snaps, times)
        assert result.work is None and trace.shape == (len(times),)
        assert result.sums.shape == (2, layout.lines)
        assert sorted(result.snapshots) == list(snaps)
    _assert_blocks(block_rows[0], layout, 3 if start == "pure_3" else 1)
    # without fidelity times, a run stepped whole keeps its rows, and every
    # run its line sums
    final = channels._run_open(rho0, sched, snaps)[0]
    assert (final.work is not None) == (start in ("snapshots", "density"))
    assert final.sums.shape == (2, layout.lines)
    shift = MomentumLayout.shift

    def drifting(layout, *args):
        step = shift(layout, *args)
        return lambda work, out: np.multiply(step(work, out), 1 + 1e-7, out=out)

    monkeypatch.setattr(MomentumLayout, "shift", drifting)
    with pytest.raises(StateError, match="trace"):
        channels._run_open(rho0, sched, snaps, (2 * T,))


# ------------------------------------------------- one BLAS thread


def _blas_threads():
    threads = channels._openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count symbols here")
    return threads


def test_open_runs_hold_blas_at_one_thread_and_restore_its_count(monkeypatch):
    get, set_ = _blas_threads()
    seen = []
    shift = MomentumLayout.shift

    def recorded(layout, *args):
        seen.append(get())
        return shift(layout, *args)

    def drifting(layout, *args):
        step = recorded(layout, *args)
        return lambda work, out: np.multiply(step(work, out), 1 + 1e-7, out=out)

    run_pure = channels._run_pure

    def closed(*args, **kwargs):  # a closed fidelity run holds BLAS too
        seen.append(get())
        return run_pure(*args, **kwargs)

    psi = band_limited_packet(64, 5.0)
    spec = ChannelSpec("dephasing", 0.05, "walker")
    before = get()
    set_(2)
    try:
        monkeypatch.setattr(MomentumLayout, "shift", recorded)
        revival_protocol(psi, 0.7, 5, channel=spec)
        assert get() == 2
        monkeypatch.setattr(MomentumLayout, "shift", drifting)  # the trace drift test's patch
        with pytest.raises(StateError, match="trace"):
            revival_protocol(psi, 0.7, 5, channel=spec)
        assert get() == 2
        monkeypatch.setattr(channels, "_run_pure", closed)
        revival_protocol(psi, 0.7, 5)
        assert get() == 2
    finally:
        set_(before)
    assert len(seen) == 3 and set(seen) == {1}


def test_concurrent_open_runs_restore_the_blas_count(monkeypatch):
    # A in, B in, A out, B out: B must not take A's one thread for the count
    # to restore, and A must not restore it under B
    count = [2]
    monkeypatch.setattr(channels, "_openblas_threads",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    held = []

    def a():
        with channels._one_blas_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with channels._one_blas_thread():
            b_in.set()
            a_out.wait(10)
            held.append(count[0])

    threads = [threading.Thread(target=run) for run in (a, b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert a_out.is_set() and held == [1]
    assert count == [2]


@pytest.mark.parametrize("missing", ["library", "symbols"])
def test_an_open_run_without_the_blas_symbols_leaves_blas_alone(missing, monkeypatch):
    psi = band_limited_packet(64, 5.0)
    sched = _reversal_schedule(0.7, 5, REVERSER_EXACT, channel=ChannelSpec("bit_flip", 0.05))
    pinned, _ = channels.fidelity_trace(psi, sched)
    if missing == "library":
        monkeypatch.setattr(channels, "_OPENBLAS_LIBS", "libno-such-blas*.so")
    else:
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    lookup = cache(channels._openblas_threads.__wrapped__)
    monkeypatch.setattr(channels, "_openblas_threads", lookup)
    np.testing.assert_allclose(channels.fidelity_trace(psi, sched)[0], pinned, rtol=0, atol=1e-15)
    assert lookup() is None


# ------------------------------------------------ P(x) from the support


@pytest.mark.parametrize("start", ["window_even", "window_odd", "density", "site"])
@pytest.mark.parametrize("variant", [None, *VARIANTS])
def test_distribution_matches_the_materialized_diagonal(variant, start):
    # coin-local channels and no channel run a window ring of the packet's
    # even or odd width, walker and both dephasing the ring of all N
    # momenta; a DensityOperator start and a start on one site, on every
    # momentum, the full layout
    n, steps, theta = 32, 5, 0.7
    width = 11 if start == "window_odd" else 10
    psi = (localized_state(make_lattice(n), 5, COIN_SYMMETRIC) if start == "site"
           else band_packet(n, width, seed=3))
    spec = None if variant is None else ChannelSpec(variant[0], 0.3, variant[1])
    sched = Schedule(steps, theta, channel=spec)
    rho0 = DensityOperator.from_pure(psi) if start == "density" else psi
    # stepped whole, with a snapshot at the end, so that it keeps its rows
    result, _ = channels._run_open(rho0, sched, (steps,))
    layout, work = result.layout, result.work
    if not start.startswith("window"):
        assert layout.full
    elif variant is None or variant[1] == "coin":
        assert (layout.lo, layout.shape) == (n // 4, (width // 2 + 1, width))
    else:
        assert (layout.lo, layout.shape) == (0, (width, n))
    mat = layout.materialize(work)
    sites = np.arange(n)
    diagonal = (mat[sites, 0, sites, 0] + mat[sites, 1, sites, 1]).real
    np.testing.assert_allclose(result.distribution(), diagonal, rtol=0, atol=1e-15)
    # a run that keeps no rows finishes P(x) from the same line sums
    np.testing.assert_array_equal(evolve_open(rho0, sched).distribution(), result.distribution())


@pytest.mark.parametrize("spoil, message", [("scale", "sums to"), ("nan", "finite"),
                                            ("negative", "below 0")])
def test_distribution_refuses_an_unphysical_support(spoil, message):
    # a run stepped whole keeps its rows, which are spoiled, then summed
    psi = band_limited_packet(64, 3.0)
    result, _ = channels._run_open(psi, Schedule(5, 0.7), (5,))
    layout, work = result.layout, result.work
    if spoil == "scale":
        work *= 1 + 1e-9
    elif spoil == "nan":
        work[0, 0, 0, 3] = np.nan
    else:
        # adds 0.02 cos(2 pi x / N) / N to P(x): the sum keeps 1, the sites
        # the packet has not reached go negative
        work[0, 0, 1, 0] += 0.01
    with pytest.raises(StateError, match=message):
        layout.distribution(layout.line_sums(work, slice(0, layout.lines)))


def test_final_is_materialized_once_and_validated(monkeypatch):
    # a run stepped whole (a snapshot at the end) materializes that snapshot
    # in the run, its final state on the first read, and P(x) never
    calls = []
    materialize = MomentumLayout.materialize

    def counted(layout, work):
        calls.append(layout)
        return materialize(layout, work)

    monkeypatch.setattr(MomentumLayout, "materialize", counted)
    psi = band_packet(32, 10, seed=3)
    sched = Schedule(5, 0.7, channel=ChannelSpec("dephasing", 0.3, "walker"))
    result = evolve_open(psi, sched, (5,))
    prob = result.distribution()
    assert len(calls) == 1
    final = result.final
    assert isinstance(final, DensityOperator) and result.final is final
    assert len(calls) == 2
    assert not final.matrix.flags.writeable
    np.testing.assert_allclose(position_distribution(final), prob, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(final.matrix, result.snapshots[5].matrix)


@pytest.mark.parametrize("blocks", [1, 2])
def test_a_run_that_keeps_no_rows_refuses_its_final_state(blocks, monkeypatch):
    # a pure start without snapshots keeps only its line sums: P(x) is read
    # from them, and rho is refused with the way to keep it
    psi = band_packet(32, 10, seed=3)
    sched = Schedule(5, 0.7, channel=ChannelSpec("dephasing", 0.3, "walker"))
    _split(monkeypatch, open_layout(psi, sched), blocks)
    result = evolve_open(psi, sched)
    assert result.work is None
    with pytest.raises(StateError, match="kept no final state.*snapshot_times that include T"):
        result.final
    np.testing.assert_array_equal(result.distribution(),
                                  evolve_open(psi, sched, (5,)).distribution())


def test_evolve_open_checks_the_final_trace_at_call_time(monkeypatch):
    shift = MomentumLayout.shift

    def gaining(layout, *args):
        step = shift(layout, *args)
        return lambda work, out: np.multiply(step(work, out), 1 + 1e-7, out=out)

    monkeypatch.setattr(MomentumLayout, "shift", gaining)
    for budget in (channels._BLOCK_BYTES, 1):  # one block, then one line a block
        monkeypatch.setattr(channels, "_BLOCK_BYTES", budget)
        with pytest.raises(StateError, match="trace"):
            evolve_open(band_packet(32, 10, seed=3), Schedule(5, 0.7))


# --------------------------------------------- exact limits at scale

# from a generic start (dense_oracle.generic_packet), at a size the suite
# affords; tests/scale_oracles.py runs the same oracles at T = 250, N = 1100
LIMIT_T, LIMIT_N, LIMIT_THETA = 100, 400, 0.7


@pytest.fixture(scope="module")
def generic_packet():
    return dense_oracle.generic_packet(LIMIT_N)


def test_bit_flip_at_huge_eta_is_a_sigma_x_gate_every_step(generic_packet):
    # at eta = 1000 the Kraus pair is (0, sigma_x) to the last bit
    psi = generic_packet
    gated = Schedule(LIMIT_T, LIMIT_THETA,
                     coin_gate_insertions=tuple((t, SIGMA_X) for t in range(1, LIMIT_T + 1)))
    flip = Schedule(LIMIT_T, LIMIT_THETA, channel=ChannelSpec("bit_flip", 1000.0))
    np.testing.assert_allclose(evolve_open(psi, flip).distribution(),
                               position_distribution(evolve(psi, gated).final),
                               rtol=0, atol=4e-15)
    np.testing.assert_allclose(channels.fidelity_trace(psi, flip)[0],
                               channels.fidelity_trace(psi, gated)[0], rtol=0, atol=6e-14)


@pytest.mark.parametrize("variant", VARIANTS)
def test_eta_zero_is_the_closed_walk_at_scale(variant, generic_packet):
    psi = generic_packet
    closed = Schedule(LIMIT_T, LIMIT_THETA)
    spec = ChannelSpec(variant[0], 0.0, variant[1])
    open_ = Schedule(LIMIT_T, LIMIT_THETA, channel=spec)
    np.testing.assert_allclose(evolve_open(psi, open_).distribution(),
                               position_distribution(evolve(psi, closed).final),
                               rtol=0, atol=2e-15)
    np.testing.assert_allclose(channels.fidelity_trace(psi, open_)[0],
                               channels.fidelity_trace(psi, closed)[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("target", ["walker", "both"])
def test_huge_eta_line_dephasing_is_a_markov_chain(target, generic_packet, block_rows):
    # at eta = 1000, lambda = e^{-eta} is 0 and only the site blocks survive;
    # 53 lines of all 400 momenta run in row blocks
    psi = generic_packet
    spec = ChannelSpec("dephasing", 1000.0, target)
    plain = Schedule(LIMIT_T, LIMIT_THETA, channel=spec)
    revival = _reversal_schedule(LIMIT_THETA, LIMIT_T, REVERSER_EXACT, channel=spec)
    prob, _ = dephased_chain(psi, plain, target)
    _, trace = dephased_chain(psi, revival, target)
    np.testing.assert_allclose(evolve_open(psi, plain).distribution(), prob, rtol=0, atol=3e-15)
    np.testing.assert_allclose(channels.fidelity_trace(psi, revival)[0], trace, rtol=0, atol=5e-15)
    assert [len(blocks) for blocks in block_rows] == [2, 2]
    # the oracle tells the two targets apart
    other = "both" if target == "walker" else "walker"
    assert np.abs(dephased_chain(psi, plain, other)[0] - prob).max() > 1e-4


@pytest.mark.parametrize("channel", [None, ChannelSpec("amplitude_damping", 0.2),
                                     ChannelSpec("dephasing", 0.2, "walker")],
                         ids=["closed", "coin", "walker"])
@pytest.mark.parametrize("start", ["pure", "density"])
def test_open_runs_refuse_an_fm_window(start, channel):
    # an F_m window is a pure-state control: open_layout refuses it, so no
    # open run lays out a state, while a closed fidelity run still takes it
    psi = band_packet(16, 7, seed=2)
    rho0 = DensityOperator.from_pure(psi) if start == "density" else psi
    sched = Schedule(6, 0.7, fm_window=(1, 4, 0.5), channel=channel)
    for run in (open_layout, evolve_open, channels.fidelity_trace, channels._run_open):
        if run is channels.fidelity_trace and (channel is None or start == "density"):
            continue  # a closed trace takes F_m; a density start is refused first
        with pytest.raises(ScheduleError, match="no F_m window"):
            run(rho0, sched)
    if start == "pure" and channel is None:
        trace, layout = channels.fidelity_trace(psi, sched)
        assert layout is None
        final = evolve(psi, sched).final.amplitudes.ravel()
        assert trace[-1] == pytest.approx(abs(np.vdot(psi.amplitudes.ravel(), final)) ** 2,
                                          abs=1e-15)


@pytest.mark.parametrize("channel", [None, ChannelSpec("amplitude_damping", 0.2),
                                     ChannelSpec("dephasing", 0.2, "walker")],
                         ids=["closed", "coin", "walker"])
def test_fidelity_trace_refuses_a_density_start(channel, monkeypatch):
    # the trace is the fidelity to a pure start: a density operator start is
    # refused, naming its type, before any state is laid out
    def laid_out(*args, **kwargs):
        raise AssertionError("a state was laid out")

    for name in ("open_layout", "_run_open", "_run_pure"):
        monkeypatch.setattr(channels, name, laid_out)
    rho0 = DensityOperator.from_pure(band_packet(16, 7, seed=2))
    with pytest.raises(StateError, match="PureState, not DensityOperator"):
        channels.fidelity_trace(rho0, Schedule(6, 0.7, channel=channel))


def _names_momentum_layout(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "MomentumLayout"
    if isinstance(node, ast.Attribute):
        return node.attr == "MomentumLayout"
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return node.name == "MomentumLayout"
    if isinstance(node, ast.alias):
        return "MomentumLayout" in (node.name, node.asname)
    return False


def test_momentum_layout_named_only_in_channels():
    # rho's momentum layout has one home; walk steps whatever array it is handed
    src = Path(catwalk.__file__).parent
    users = {path.name for path in src.glob("*.py")
             if any(map(_names_momentum_layout, ast.walk(ast.parse(path.read_text()))))}
    assert users == {"channels.py"}
