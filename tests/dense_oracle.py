"""Dense 2N x 2N reference implementations of the walk, its coin gates and
its channels, for checking the kernels on small lattices.

Flat index 2*x + c, with x = -N/2 .. N/2-1 at array index x + N/2: the
ravel of an (N, 2) amplitude array and the reshape of an (N, 2, N, 2)
density matrix.
"""

import numpy as np

from catwalk.lattice import CoinState, DensityOperator, gaussian_position_state, make_lattice
from catwalk.walk import Schedule, coin_operator, evolve


def random_density(n, seed=0):
    """A full-rank random density operator on n sites."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    m = a @ a.conj().T
    m /= np.trace(m).real
    return DensityOperator(make_lattice(n), m)


def dense_walk_unitary(n, theta, phi=None):
    """Coin, shift, then the optional phase e^{i phi x}, as a 2N x 2N matrix."""
    c, s = np.cos(theta), np.sin(theta)
    coin = np.kron(np.eye(n), np.array([[c, s], [s, -c]], dtype=complex))
    shift = np.zeros((2 * n, 2 * n))
    for x in range(n):
        shift[2 * ((x + 1) % n), 2 * x] = 1.0  # up moves x -> x+1
        shift[2 * ((x - 1) % n) + 1, 2 * x + 1] = 1.0  # down moves x -> x-1
    u = shift @ coin
    if phi is not None:
        sites = np.repeat(np.arange(-n // 2, n // 2), 2)
        u = np.exp(1j * phi * sites)[:, None] * u
    return u


def dense_gate(rho2d, n, gate):
    g = np.kron(np.eye(n), gate)
    return g @ rho2d @ g.conj().T


def dense_channel(rho2d, n, spec):
    """One channel application on the flat 2N x 2N matrix."""
    lam = np.exp(-spec.eta)
    if spec.kind == "dephasing":
        site = np.repeat(np.arange(n), 2)
        level = np.tile(np.arange(2), n)
        same_site = site[:, None] == site[None, :]
        same_level = level[:, None] == level[None, :]
        kept = {"coin": same_level, "walker": same_site, "both": same_site & same_level}
        rho2d = np.where(kept[spec.target], rho2d, lam * rho2d)
    else:
        if spec.kind == "amplitude_damping":
            ops = [np.diag([1.0, np.sqrt(lam)]), np.sqrt(1 - lam) * np.array([[0, 1], [0, 0]])]
        else:
            ops = [np.sqrt(lam) * np.eye(2), np.sqrt(1 - lam) * np.array([[0, 1], [1, 0]])]
        rho2d = sum(dense_gate(rho2d, n, m) for m in ops)
    return rho2d


def dense_run(rho2d, n, schedule):
    """The dense oracle applied step by step, with the schedule's channel if
    it has one; returns the states at t = 0..T."""
    states = []
    for t in range(schedule.total_steps + 1):
        if t > 0:
            u = dense_walk_unitary(n, schedule.theta, schedule.phi_at(t))
            rho2d = u @ rho2d @ u.conj().T
            if schedule.channel is not None:
                rho2d = dense_channel(rho2d, n, schedule.channel)
        for gate in schedule.insertions_at(t):
            rho2d = dense_gate(rho2d, n, gate)
        states.append(rho2d)
    return states


def dense_pure_run(psi, n, schedule):
    """The dense oracle on a flat state vector; returns the states at t = 0..T."""
    states = []
    for t in range(schedule.total_steps + 1):
        if t > 0:
            psi = dense_walk_unitary(n, schedule.theta, schedule.phi_at(t)) @ psi
        for gate in schedule.insertions_at(t):
            psi = np.kron(np.eye(n), gate) @ psi
        states.append(psi)
    return states


def generic_packet(n):
    """A Gaussian of width 10 at k0 = 0.3 with a complex coin phase on n
    sites: the symmetric coin at k0 = 0 hides differences between channels
    that this start shows."""
    coin = CoinState.from_vector([0.6, 0.8 * np.exp(0.4j)])
    return gaussian_position_state(make_lattice(n), 10.0, coin, k0=0.3)


def dephased_chain(psi, schedule, target):
    """The lambda = 0 limit of walker or both dephasing as a Markov chain on
    2x2 site blocks: (P(x), fidelity to psi at t = 0..total_steps).

    Step 1 dephases the pure one-step state.  From step 2 on the coin acts
    on each block, the shift moves the up population one site right and the
    down population one site left, and the coherences it carries off-site
    are dropped; both also drops the coin coherences.  That time's gates
    come after the channel.
    """
    amp = evolve(psi, Schedule(1, schedule.theta)).final.amplitudes
    sigma = amp[:, :, None] * amp[:, None, :].conj()
    coin = coin_operator(schedule.theta)
    a0 = psi.amplitudes
    trace = [abs(np.vdot(a0, a0)) ** 2]
    for t in range(1, schedule.total_steps + 1):
        if t > 1:
            sigma = coin @ sigma @ coin.conj().T
            up, down = np.roll(sigma[:, 0, 0], 1), np.roll(sigma[:, 1, 1], -1)
            sigma = np.zeros_like(sigma)
            sigma[:, 0, 0], sigma[:, 1, 1] = up, down
        if target == "both":
            sigma = sigma * np.eye(2)
        for u in schedule.insertions_at(t):
            sigma = u @ sigma @ u.conj().T
        trace.append(np.einsum("xc,xcd,xd->", a0.conj(), sigma, a0).real)
    return np.einsum("xcc->x", sigma).real, np.array(trace)
