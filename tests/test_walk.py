import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catwalk import walk
from catwalk.analysis import entanglement_entropy, position_distribution, revival_protocol
from catwalk.channels import evolve_open, fidelity_trace
from catwalk.lattice import (
    COIN_DOWN,
    COIN_SYMMETRIC,
    COIN_UP,
    DensityOperator,
    PureState,
    StateError,
    fidelity,
    fidelity_with_density,
    gaussian_position_state,
    localized_state,
    make_lattice,
    to_momentum,
)
from catwalk.walk import (
    SIGMA_Y,
    EvolutionResult,
    Schedule,
    ScheduleError,
    coin_operator,
    conjugate_coin,
    evolve,
    reversal_pair,
    step,
    step_density,
    _PlainPower,
    _run_pure,
)
from dense_oracle import dense_gate, dense_pure_run, dense_run, dense_walk_unitary, random_density
from paper_formulas import walk_unitary_k

THETAS = [np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2.4]


def gate(psi, u):
    """The coin gate u at every site, as a zero-step run."""
    return evolve(psi, Schedule(0, 0.0, coin_gate_insertions=((0, u),))).final


# one step at theta = 0, whose coin sigma_z only signs the down level: a plain
# step is a momentum-space jump, a step in a phi = 0 F_m window runs the
# position-space shift
SHIFT_RUNS = (Schedule(1, 0.0), Schedule(1, 0.0, fm_window=(0, 1, 0.0)))


@pytest.mark.parametrize("theta", THETAS)
def test_coin_operator_unitary_hermitian(theta):
    c = coin_operator(theta)
    np.testing.assert_allclose(c @ c.conj().T, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(c, c.conj().T, atol=1e-14)


def test_coin_operator_values():
    c = coin_operator(np.pi / 4)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(c, [[s, s], [s, -s]], atol=1e-15)


def test_shift_moves_components():
    lat = make_lattice(16)
    up = localized_state(lat, 0, COIN_UP)
    down = localized_state(lat, 0, COIN_DOWN)
    for sched in SHIFT_RUNS:
        moved_up, moved_down = (evolve(psi, sched).final for psi in (up, down))
        assert fidelity(moved_up, localized_state(lat, 1, COIN_UP)) == pytest.approx(1.0)
        assert fidelity(moved_down, localized_state(lat, -1, COIN_DOWN)) == pytest.approx(1.0)


def test_shift_wraps_periodically():
    lat = make_lattice(8)
    edge = localized_state(lat, 3, COIN_UP)
    for sched in SHIFT_RUNS:
        wrapped = evolve(edge, sched).final
        assert fidelity(wrapped, localized_state(lat, -4, COIN_UP)) == pytest.approx(1.0)


def test_fm_phase_is_diagonal():
    # a step in an F_m window is the plain step times e^{i phi x}
    lat = make_lattice(16)
    psi = gaussian_position_state(lat, 2.0, COIN_SYMMETRIC)
    plain = evolve(psi, Schedule(1, np.pi / 4)).final
    phased = evolve(psi, Schedule(1, np.pi / 4, fm_window=(0, 1, 0.3))).final
    np.testing.assert_allclose(
        phased.amplitudes,
        plain.amplitudes * np.exp(0.3j * lat.sites)[:, None],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        np.abs(phased.amplitudes), np.abs(plain.amplitudes), atol=1e-14
    )


def test_generalized_step_matches_manual_composition():
    lat = make_lattice(32)
    psi = gaussian_position_state(lat, 3.0, COIN_SYMMETRIC)
    direct = evolve(psi, Schedule(1, np.pi / 4, fm_window=(0, 1, 0.7))).final
    flat = dense_walk_unitary(32, np.pi / 4, 0.7) @ psi.amplitudes.ravel()
    manual = PureState(lat, flat.reshape(32, 2))
    assert fidelity(direct, manual) == pytest.approx(1.0)


def test_apply_coin_rejects_nonunitary():
    lat = make_lattice(8)
    psi = localized_state(lat, 0, COIN_UP)
    with pytest.raises(StateError):
        gate(psi, np.array([[1.0, 1.0], [0.0, 1.0]]))


@st.composite
def packets(draw):
    """A Gaussian start on an even lattice: N in 8..512, sigma <= N/8 and k0 drawn."""
    n = 2 * draw(st.integers(4, 256))
    sigma = draw(st.floats(0.1, n / 8))
    k0 = draw(st.floats(-np.pi, np.pi))
    return gaussian_position_state(make_lattice(n), sigma, COIN_SYMMETRIC, k0=k0)


@settings(max_examples=50, deadline=None)
@given(d_theta=st.floats(-np.pi / 8, np.pi / 8), psi=packets(), T=st.integers(0, 300))
@pytest.mark.parametrize("theta", THETAS)
def test_reversal_pair_inverts_the_walk(theta, d_theta, psi, T):
    # sandwiching T steps between the pair retraces them exactly, wrapped
    # around the periodic lattice or not
    theta += d_theta
    r, r_dag = reversal_pair(theta)
    sched = Schedule(2 * T, theta, coin_gate_insertions=((T, r), (2 * T, r_dag)))
    assert fidelity(psi, evolve(psi, sched).final) == pytest.approx(1.0, abs=1e-12)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        Schedule(-1, np.pi / 4)
    with pytest.raises(ScheduleError):
        Schedule(10, np.pi / 4, fm_window=(2, 12, 0.1))
    with pytest.raises(ScheduleError):
        Schedule(10, np.pi / 4, coin_gate_insertions=((11, SIGMA_Y),))


def test_a_lone_power_reads_what_it_reads_in_a_batch():
    # each n of _PlainPower.fidelities reads the same bits whether asked alone,
    # at the head of a tail, or inside a batch that crosses a chunk edge
    lattice = make_lattice(468)
    psi = gaussian_position_state(lattice, 10.0, COIN_SYMMETRIC, k0=0.2)
    kamp = to_momentum(psi.amplitudes)
    power = _PlainPower(0.7, lattice.momenta)
    edge = (1 << 18) // lattice.n_sites
    n = np.arange(1, edge + 40)
    batch = power.fidelities(n, kamp, kamp)
    for i in (0, 1, edge - 2, edge - 1, edge, edge + 1, len(n) - 1):
        assert power.fidelities(n[i:i + 1], kamp, kamp)[0] == batch[i]
        assert power.fidelities(n[i:], kamp, kamp)[0] == batch[i]


@pytest.mark.parametrize("kwargs", [
    dict(total_steps=4.0),
    dict(fm_window=(0.5, 3, 0.1)),
    dict(fm_window=(0, 3.0, 0.1)),
    dict(coin_gate_insertions=((1.5, SIGMA_Y),)),
    dict(theta=np.nan),
    dict(theta=np.inf),
    dict(fm_window=(0, 3, np.nan)),
    dict(fm_window=(0, 3, -np.inf)),
], ids=["float_total", "float_start", "float_end", "float_gate", "nan_theta", "inf_theta",
        "nan_phi", "inf_phi"])
def test_schedule_refuses_out_of_domain_input(kwargs):
    # a float time or a non-finite angle is refused when the schedule is built,
    # not by a TypeError inside the run or a norm check after it
    with pytest.raises(ScheduleError):
        Schedule(**{"total_steps": 4, "theta": np.pi / 4, **kwargs})


def test_schedule_takes_numpy_integer_times():
    sched = Schedule(np.int64(4), np.pi / 4, fm_window=(np.int32(1), np.int64(3), 0.1),
                     coin_gate_insertions=((np.int64(2), SIGMA_Y),))
    psi = gaussian_position_state(make_lattice(16), 2.0, COIN_SYMMETRIC)
    plain = Schedule(4, np.pi / 4, fm_window=(1, 3, 0.1), coin_gate_insertions=((2, SIGMA_Y),))
    np.testing.assert_array_equal(evolve(psi, sched).final.amplitudes,
                                  evolve(psi, plain).final.amplitudes)


def test_schedule_phi_windows():
    sched = Schedule(10, np.pi / 4, fm_window=(2, 5, 0.3))
    assert sched.phi_at(2) is None
    assert sched.phi_at(3) == 0.3
    assert sched.phi_at(5) == 0.3
    assert sched.phi_at(6) is None


def test_evolve_snapshots_and_insertions():
    lat = make_lattice(64)
    psi = gaussian_position_state(lat, 3.0, COIN_SYMMETRIC)
    r, _ = reversal_pair(np.pi / 4)
    sched = Schedule(6, np.pi / 4, coin_gate_insertions=((3, r),))
    result = evolve(psi, sched, snapshot_times=(0, 3, 6))
    assert isinstance(result, EvolutionResult)
    assert set(result.snapshots) == {0, 3, 6}
    assert fidelity(result.snapshots[0], psi) == pytest.approx(1.0)
    # snapshot at 3 includes the inserted gate
    manual = psi
    for _ in range(3):
        manual = step(manual, np.pi / 4)
    manual = gate(manual, r)
    assert fidelity(result.snapshots[3], manual) == pytest.approx(1.0)


def test_evolve_rejects_channel_schedules():
    lat = make_lattice(16)
    psi = localized_state(lat, 0, COIN_UP)
    sched = Schedule(2, np.pi / 4, channel=object())
    with pytest.raises(ScheduleError):
        evolve(psi, sched)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, np.pi), psi=packets(), steps=st.integers(100, 800))
def test_evolve_preserves_norm_long_run(theta, psi, steps):
    final = evolve(psi, Schedule(steps, theta)).final
    assert np.linalg.norm(final.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 3])
def test_step_density_matches_pure_step(theta):
    lat = make_lattice(32)
    psi = gaussian_position_state(lat, 2.5, COIN_SYMMETRIC)
    rho = step_density(DensityOperator.from_pure(psi), theta)
    np.testing.assert_allclose(
        rho.matrix,
        DensityOperator.from_pure(step(psi, theta)).matrix,
        atol=1e-13,
    )
    # a one-step open run on a mixed state, against one step of the dense oracle
    mixed = random_density(16, seed=2)
    expected = dense_run(mixed.as_2d, 16, Schedule(1, theta))[1]
    np.testing.assert_allclose(step_density(mixed, theta).as_2d, expected, rtol=0, atol=1e-13)


def test_evolve_open_closed_schedule_matches_evolve():
    lat = make_lattice(32)
    psi = gaussian_position_state(lat, 2.5, COIN_SYMMETRIC)
    r, _ = reversal_pair(np.pi / 3)
    sched = Schedule(9, np.pi / 3, coin_gate_insertions=((4, r),))
    times = (0, 4, 6, 9)
    pure = evolve(psi, sched, snapshot_times=times)
    open_ = evolve_open(DensityOperator.from_pure(psi), sched, snapshot_times=times)
    for t in times:
        np.testing.assert_allclose(
            open_.snapshots[t].matrix,
            DensityOperator.from_pure(pure.snapshots[t]).matrix,
            atol=1e-13,
        )
    np.testing.assert_allclose(
        open_.final.matrix, DensityOperator.from_pure(pure.final).matrix, atol=1e-13
    )


def test_conjugate_coin_matches_pure():
    lat = make_lattice(16)
    psi = gaussian_position_state(lat, 2.0, COIN_SYMMETRIC)
    r, _ = reversal_pair(np.pi / 6)
    rho = conjugate_coin(DensityOperator.from_pure(psi), r)
    assert fidelity_with_density(gate(psi, r), rho) == pytest.approx(1.0)
    # a zero-step open run on a mixed state, against the dense oracle; r is
    # i times a real matrix, so a complex phase makes u differ from its conjugate
    mixed = random_density(16, seed=1)
    u = r @ np.diag([1.0, np.exp(0.7j)])
    np.testing.assert_allclose(conjugate_coin(mixed, u).as_2d, dense_gate(mixed.as_2d, 16, u),
                               rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(0.0, np.pi),
    half_n=st.integers(2, 12),
    steps=st.integers(0, 30),
    window=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    phi=st.floats(-np.pi, np.pi),
    gate_times=st.lists(st.integers(0, 30), max_size=4),
    snapshot_times=st.sets(st.integers(0, 30)),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_matches_dense_oracle(
    theta, half_n, steps, window, phi, gate_times, snapshot_times, seed
):
    n = 2 * half_n
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    psi = PureState(make_lattice(n), amp / np.linalg.norm(amp))
    start, end = sorted(min(t, steps) for t in window)
    # random complex gates: unlike the coin and the reversal gates, not symmetric
    gates = []
    for t in gate_times:
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        gates.append((min(t, steps), q))
    sched = Schedule(steps, theta, fm_window=(start, end, phi), coin_gate_insertions=gates)
    snaps = {min(t, steps) for t in snapshot_times}
    result = evolve(psi, sched, snapshot_times=snaps)
    expected = dense_pure_run(psi.amplitudes.ravel(), n, sched)
    assert set(result.snapshots) == snaps
    for t, state in [*result.snapshots.items(), (steps, result.final)]:
        np.testing.assert_allclose(state.amplitudes.ravel(), expected[t], atol=1e-12)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("runner", ["evolve", "evolve_open"])
@pytest.mark.parametrize("t", [-1, 4])
def test_snapshot_time_outside_run_raises_schedule_error(runner, t):
    psi = localized_state(make_lattice(8), 0, COIN_UP)
    state = psi if runner == "evolve" else DensityOperator.from_pure(psi)
    run = evolve if runner == "evolve" else evolve_open
    with pytest.raises(ScheduleError, match=f"snapshot time {t} outside run"):
        run(state, Schedule(3, np.pi / 4), snapshot_times=(t,))


# theta over [0, pi] with the ends and pi/2 drawn on purpose: at theta = 0 and
# pi, sin(a) of the closed-form power vanishes at k = +-pi/2
THETA_WITH_EDGES = st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi]), st.floats(0.0, np.pi))


@settings(max_examples=60, deadline=None)
@given(theta=THETA_WITH_EDGES, quarter_n=st.integers(1, 16), n=st.integers(0, 1000))
def test_plain_power_matches_matrix_power(theta, quarter_n, n):
    # N % 4 == 0 puts k = -pi/2 on the momentum grid
    k = make_lattice(4 * quarter_n).momenta
    power = _PlainPower(theta, k)
    columns = [power.apply(n, np.tile(e, (len(k), 1)).astype(complex)) for e in np.eye(2)]
    closed = np.stack(columns, axis=-1)  # closed[j] = Z(k_j)^n
    for j, kj in enumerate(k):
        expected = np.linalg.matrix_power(walk_unitary_k(theta, kj), n)
        np.testing.assert_allclose(closed[j], expected, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    theta=THETA_WITH_EDGES,
    quarter_n=st.integers(1, 6),
    steps=st.integers(0, 40),
    reverser=st.sampled_from(["none", "exact", "sigma_y"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_plain_and_reversal_schedules_match_dense_oracle(theta, quarter_n, steps,
                                                                 reverser, seed):
    n = 4 * quarter_n
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    psi = PureState(make_lattice(n), amp / np.linalg.norm(amp))
    if reverser == "none":
        sched = Schedule(steps, theta)
    else:
        gate, gate_back = reversal_pair(theta) if reverser == "exact" else (SIGMA_Y, SIGMA_Y)
        sched = Schedule(2 * steps, theta, coin_gate_insertions=((steps, gate), (2 * steps, gate_back)))
    times = range(sched.total_steps + 1)
    result = evolve(psi, sched, snapshot_times=times)
    expected = dense_pure_run(psi.amplitudes.ravel(), n, sched)
    for t in times:
        np.testing.assert_allclose(result.snapshots[t].amplitudes.ravel(), expected[t],
                                   rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.final.amplitudes.ravel(), expected[-1], rtol=0, atol=1e-12)


def test_observing_a_run_does_not_change_its_arithmetic():
    # plain stretches are jumps from their start, so snapshots and the
    # fidelity trace add inverse DFTs and products but change no amplitude of
    # the run, bit for bit
    theta = 0.9
    psi = gaussian_position_state(make_lattice(96), 4.0, COIN_SYMMETRIC, k0=0.2)
    r, r_dag = reversal_pair(theta)
    sched = Schedule(40, theta, fm_window=(12, 20, 2 * np.pi / 5),
                     coin_gate_insertions=((6, SIGMA_Y), (20, r), (40, r_dag)))
    bare = evolve(psi, sched).final.amplitudes
    times = (0, 3, 6, 15, 20, 33, 40)
    amp, checkpoint = _run_pure(psi, sched, times, fidelity_times=range(41))
    assert np.array_equal(amp.T, bare)
    assert checkpoint.trace.shape == (41,)
    snapped = evolve(psi, sched, snapshot_times=times)
    assert np.array_equal(snapped.final.amplitudes, bare)
    for t in times:
        assert np.array_equal(snapped.snapshots[t].amplitudes, checkpoint.snaps[t].amplitudes)
        assert checkpoint.trace[t] == fidelity(psi, snapped.snapshots[t])
    # a snapshot reduced as the run passes it is the kept snapshot reduced
    for read in (position_distribution, entanglement_entropy):
        reduced = evolve(psi, sched, snapshot_times=times, read=read)
        assert np.array_equal(reduced.final.amplitudes, bare)
        for t in times:
            assert (np.asarray(reduced.snapshots[t]).tobytes()
                    == np.asarray(read(snapped.snapshots[t])).tobytes())


@pytest.mark.parametrize("read, kept_bytes", [
    (position_distribution, lambda n: 8 * n + 256),
    (entanglement_entropy, lambda n: 256),
], ids=["rows", "entropies"])
def test_reading_snapshots_keeps_no_state(read, kept_bytes):
    # 2001 kept states would take 2001 x 32 N bytes; a P(x) row takes 8 N
    # bytes and an entropy a float, each with under 256 more of object
    # header and dict and set entries
    n, times = 440, range(2001)
    psi = gaussian_position_state(make_lattice(n), 10.0, COIN_SYMMETRIC, k0=0.2)

    def run():
        evolve(psi, Schedule(2000, 0.7), snapshot_times=times, read=read)

    run()  # what a first run caches (DFT plans, ufunc loops) is not the run's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(times) * kept_bytes(n) + 16 * 32 * n


def test_schedule_checks_its_gates_when_built():
    # a bad gate at the last step is refused before any step is run
    with pytest.raises(StateError, match="not unitary"):
        Schedule(10**6, 0.7, coin_gate_insertions=((10**6, np.array([[1.0, 1.0], [0.0, 1.0]])),))
    with pytest.raises(StateError, match="2x2"):
        Schedule(5, 0.7, coin_gate_insertions=((5, np.eye(3)),))


@settings(max_examples=60, deadline=None)
@given(
    theta=THETA_WITH_EDGES,
    quarter_n=st.integers(1, 6),
    steps=st.integers(0, 20),
    kind=st.sampled_from(["exact", "sigma_y", "window", "gates"]),
    phi=st.floats(-np.pi, np.pi),
    gate_times=st.lists(st.integers(0, 40), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_fidelity_trace_matches_dense_oracle(theta, quarter_n, steps, kind, phi,
                                                    gate_times, seed):
    # N % 4 == 0 puts k = +-pi/2, where sin(a) = 0 at theta = 0 and pi, on the grid
    n = 4 * quarter_n
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    psi = PureState(make_lattice(n), amp / np.linalg.norm(amp))
    total = 2 * steps
    if kind == "window":
        # a reversal around an F_m window, as the control protocol runs it
        gate, gate_back = reversal_pair(theta)
        sched = Schedule(total + 4, theta, fm_window=(steps, steps + 4, phi),
                         coin_gate_insertions=((steps + 4, gate), (total + 4, gate_back)))
    elif kind == "gates":
        gates = []
        for t in gate_times:
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            gates.append((min(t, total), q))
        sched = Schedule(total, theta, coin_gate_insertions=gates)
    else:
        gate, gate_back = reversal_pair(theta) if kind == "exact" else (SIGMA_Y, SIGMA_Y)
        sched = Schedule(total, theta, coin_gate_insertions=((steps, gate), (total, gate_back)))
    trace, _ = fidelity_trace(psi, sched)
    ket = psi.amplitudes.ravel()
    expected = [abs(np.vdot(ket, state)) ** 2 for state in dense_pure_run(ket, n, sched)]
    np.testing.assert_allclose(trace, expected, rtol=0, atol=1e-13)


def test_closed_fidelity_trace_takes_one_inverse_dft_per_stretch(monkeypatch):
    calls = []
    to_position = walk.to_position

    def counted(amp):
        calls.append(len(amp))
        return to_position(amp)

    monkeypatch.setattr(walk, "to_position", counted)
    psi = gaussian_position_state(make_lattice(96), 4.0, COIN_SYMMETRIC)
    res = revival_protocol(psi, 0.7, 20)
    assert len(res.trace) == 41
    # the revival's two plain stretches, 0 .. 20 and 20 .. 40
    assert len(calls) == 2
