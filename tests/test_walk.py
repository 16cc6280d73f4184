import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catwalk.channels import evolve_open
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
)
from catwalk.spectral import walk_unitary_k
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
)
from dense_oracle import dense_pure_run, dense_walk_unitary

THETAS = [np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2.4]


def gate(psi, u):
    """The coin gate u at every site, as a zero-step run."""
    return evolve(psi, Schedule(0, 0.0, coin_gate_insertions=((0, u),))).final


# one step at theta = 0, whose coin sigma_z only signs the down level: a plain
# step is a momentum-space jump, a step in a phi = 0 F_m window runs the
# position-space shift
SHIFT_RUNS = (Schedule(1, 0.0), Schedule(1, 0.0, fm_windows=((0, 1, 0.0),)))


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
    phased = evolve(psi, Schedule(1, np.pi / 4, fm_windows=((0, 1, 0.3),))).final
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
    direct = evolve(psi, Schedule(1, np.pi / 4, fm_windows=((0, 1, 0.7),))).final
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
        Schedule(10, np.pi / 4, fm_windows=((2, 12, 0.1),))
    with pytest.raises(ScheduleError):
        Schedule(10, np.pi / 4, fm_windows=((0, 5, 0.1), (3, 8, 0.2)))
    with pytest.raises(ScheduleError):
        Schedule(10, np.pi / 4, coin_gate_insertions=((11, SIGMA_Y),))


def test_schedule_phi_windows():
    sched = Schedule(10, np.pi / 4, fm_windows=((2, 5, 0.3),))
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
    assert final.norm() == pytest.approx(1.0, abs=1e-12)


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


def test_evolve_open_closed_schedule_matches_evolve():
    lat = make_lattice(32)
    psi = gaussian_position_state(lat, 2.5, COIN_SYMMETRIC)
    r, _ = reversal_pair(np.pi / 3)
    sched = Schedule(
        9, np.pi / 3, fm_windows=((2, 6, 0.9),), coin_gate_insertions=((4, r),)
    )
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
    sched = Schedule(steps, theta, fm_windows=((start, end, phi),), coin_gate_insertions=gates)
    snaps = {min(t, steps) for t in snapshot_times}
    observed = []
    result = evolve(
        psi, sched, snapshot_times=snaps, observe=lambda t, amp: observed.append((t, amp.T.copy()))
    )
    expected = dense_pure_run(psi.amplitudes.ravel(), n, sched)
    assert set(result.snapshots) == snaps
    for t, state in [*result.snapshots.items(), (steps, result.final)]:
        np.testing.assert_allclose(state.amplitudes.ravel(), expected[t], atol=1e-12)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
    # observe sees every time, after that time's gates, the state a snapshot returns
    assert [t for t, _ in observed] == list(range(steps + 1))
    for t, amp in observed:
        np.testing.assert_allclose(amp.ravel(), expected[t], atol=1e-12)
    for t, state in result.snapshots.items():
        np.testing.assert_array_equal(observed[t][1], state.amplitudes)
    np.testing.assert_array_equal(observed[-1][1], result.final.amplitudes)


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
    # plain stretches are jumps from their start, so snapshots and an observer
    # add inverse DFTs but change no amplitude of the run, bit for bit
    theta = 0.9
    psi = gaussian_position_state(make_lattice(96), 4.0, COIN_SYMMETRIC, k0=0.2)
    r, r_dag = reversal_pair(theta)
    sched = Schedule(40, theta, fm_windows=((12, 20, 2 * np.pi / 5),),
                     coin_gate_insertions=((6, SIGMA_Y), (20, r), (40, r_dag)))
    bare = evolve(psi, sched).final.amplitudes
    observed = {}
    times = (0, 3, 6, 15, 20, 33, 40)
    watched = evolve(psi, sched, snapshot_times=times,
                     observe=lambda t, amp: observed.setdefault(t, amp.T.copy()))
    assert np.array_equal(watched.final.amplitudes, bare)
    assert sorted(observed) == list(range(41))
    for t in times:
        assert np.array_equal(watched.snapshots[t].amplitudes, observed[t])
    snapped = evolve(psi, sched, snapshot_times=times)
    assert np.array_equal(snapped.final.amplitudes, bare)
    for t in times:
        assert np.array_equal(snapped.snapshots[t].amplitudes, observed[t])
