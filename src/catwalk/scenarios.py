"""Scenario pipelines behind the CLI: one runner per figure plus generic
evolve/spectrum runs.

Each runner takes a resolved ExperimentConfig, executes the corresponding
library pipeline, and returns a ResultRecord of tables plus metadata
(every input, the resolved lattice size, and per-key provenance).
Density-operator scenarios size their lattice and check a memory estimate
for it before building any state, and refuse with the predicted byte count
when it exceeds the budget.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import (
    cat_metrics,
    component_widths,
    control_protocol,
    entanglement_entropy,
    momentum_fringes,
    packet_width,
    position_distribution,
    project_coin,
    revival_protocol,
    schmidt_components,
)
from .channels import CHANNEL_KINDS, DEPHASING, TARGET_COIN, TARGETS, ChannelSpec, evolve_open
from .config import KEYS, ConfigError, ExperimentConfig
from .io import ResultRecord, Table
from .lattice import (
    COIN_SYMMETRIC,
    CoinState,
    PureState,
    StateError,
    gaussian_position_state,
    localized_state,
    make_lattice,
    recommended_size,
)
from .spectral import dirac_evolve, eigen_system, exact_energies, symmetric_coin_state
from .walk import Schedule, evolve


class ResourceGuardError(RuntimeError):
    """Predicted allocation exceeds the configured memory budget."""

    def __init__(self, predicted_bytes: int, budget: float, what: str):
        self.predicted_bytes = predicted_bytes
        self.budget = budget
        super().__init__(
            f"predicted {predicted_bytes} bytes ({what}) exceeds budget "
            f"{budget:.0f}; reduce the lattice or raise max_bytes"
        )


def density_working_set_bytes(n_sites: int) -> int:
    """Predicted peak bytes of one density-operator run on ``n_sites``.

    An upper bound on the tracemalloc peak of an open revival or
    evolve_open, final validation included: three density matrices of
    16 (2N)^2 bytes plus 256 kB of numpy buffers.  The working arrays live
    on the start's momentum support (channels.open_layout).  On the full
    support, as for a DensityOperator start, they are the start, the
    working array and its spare; the final state is transformed in place in
    the working array after the spare is freed and validated after that is
    freed, and the Hermiticity check needs only band-sized temporaries:
    3.10x one matrix at N=160, 3.03x at N=300.  A pure start at paper scale
    needs less.  An open revival, which never materializes its final state,
    peaks at 0.56x (coin-local channels) and 2.3x (walker and both
    dephasing, whose lines cover 73% of the pairs) at N=160, sigma=5, and at
    0.14x and 1.5x at N=300, sigma=10; decohereprob's evolve_open at N=400,
    sigma=10, at 1.3x and 1.6x.
    """
    return 3 * 16 * (2 * n_sites) ** 2 + 256 * 1024


def _guard_density(n_sites: int, cfg: ExperimentConfig) -> None:
    predicted = density_working_set_bytes(n_sites)
    if predicted > cfg.max_bytes:
        raise ResourceGuardError(predicted, cfg.max_bytes,
                                 "peak working set: 3 density matrices plus numpy buffers")


def _guard_state(n_sites: int, cfg: ExperimentConfig) -> None:
    if 32 * n_sites > cfg.max_bytes:
        raise ResourceGuardError(32 * n_sites, cfg.max_bytes,
                                 f"one pure state on N={n_sites} sites")


# Figure-faithful defaults applied only where the user left the global
# default in place.
SCENARIO_DEFAULTS = {
    "dirac": {"theta": math.pi / 2.4},
    "revival": {"steps": 97},
    "decohereprob": {"steps": 250},
    "decohere": {"steps": 50},
    "electricfid": {"sigma": 9.0, "steps": 100},
}


def _lattice_size(cfg: ExperimentConfig, total_steps: int) -> int:
    """The lattice size the sizing rule gives a run of ``total_steps`` from a
    packet of width cfg.sigma, or cfg.lattice if that is set.  An explicit
    lattice below the rule's size raises StateError: the packet would wrap
    around the periodic boundary within the run.  A lattice whose one
    (N, 2) complex state, 32 N bytes, exceeds cfg.max_bytes raises
    ResourceGuardError."""
    n = recommended_size(total_steps, cfg.sigma)
    if cfg.lattice is not None and cfg.lattice < n:
        raise StateError(
            f"lattice N={cfg.lattice} below {n}, the size N >= 2S + 8 sigma that "
            f"S={total_steps} steps at sigma={cfg.sigma} need: the packet would wrap "
            f"around the periodic boundary"
        )
    n = cfg.lattice or n
    _guard_state(n, cfg)
    return n


def _packet(cfg: ExperimentConfig, total_steps: int, coin: CoinState = COIN_SYMMETRIC,
            k0: float | None = None) -> PureState:
    """The Gaussian start of width cfg.sigma at mean momentum ``k0`` (cfg.k0
    by default), on the lattice of ``_lattice_size(cfg, total_steps)``."""
    return gaussian_position_state(make_lattice(_lattice_size(cfg, total_steps)), cfg.sigma,
                                   coin, k0=cfg.k0 if k0 is None else k0)


def _snapshot_times(cfg: ExperimentConfig) -> list[int]:
    """Every stride-th step from 0, and the last step."""
    return sorted(set(range(0, cfg.steps + 1, cfg.stride)) | {cfg.steps})


def _target(kind: str, target: str) -> str:
    """The target a channel of ``kind`` takes: ``target`` applies to dephasing
    only, amplitude damping and bit flip act on the coin."""
    return target if kind == DEPHASING else TARGET_COIN


def _base_metadata(cfg: ExperimentConfig, n_sites: int) -> dict:
    """Every echoed key, floats as repr, with lattice as the resolved N, and
    every key's provenance."""
    meta = {key: (repr if spec.type is float else str)(getattr(cfg, key))
            for key, spec in KEYS.items() if spec.echo}
    meta["lattice"] = n_sites
    for key, origin in sorted(cfg.provenance.items()):
        meta[f"provenance.{key}"] = origin
    return meta


def _distribution_rows(times, snapshots, sites) -> np.ndarray:
    """(step, x, probability) rows, times outer and sites inner."""
    probs = [position_distribution(snapshots[t]) for t in times]
    return np.column_stack(
        [np.repeat(times, len(sites)), np.tile(sites, len(times)), np.concatenate(probs)]
    )


def run_qwalk(cfg: ExperimentConfig) -> ResultRecord:
    """Localized versus delocalized start, distributions at a few times."""
    times = [t for t in (90, 120, 150) if t <= cfg.steps] or [cfg.steps]
    psi0 = _packet(cfg, cfg.steps)
    lat = psi0.lattice
    sched = Schedule(cfg.steps, cfg.theta)
    tables = []
    starts = {"localized": localized_state(lat, 0, COIN_SYMMETRIC), "delocalized": psi0}
    for name, start in starts.items():
        result = evolve(start, sched, snapshot_times=times)
        rows = _distribution_rows(times, result.snapshots, lat.sites)
        tables.append(Table(name, ("step", "x", "probability"), ("int", "int", "float"), rows))
    meta = _base_metadata(cfg, lat.n_sites)
    meta["snapshot_times"] = ",".join(str(t) for t in times)
    meta["coin"] = "symmetric"
    return ResultRecord("qwalk", meta, tables)


def run_dirac(cfg: ExperimentConfig) -> ResultRecord:
    """Exact walk against the Dirac continuum limit at the same time."""
    psi0 = _packet(cfg, cfg.steps)
    lat = psi0.lattice
    walk_final = evolve(psi0, Schedule(cfg.steps, cfg.theta)).final
    dirac_final = dirac_evolve(psi0, cfg.theta, float(cfg.steps))
    p_walk = position_distribution(walk_final)
    p_dirac = position_distribution(dirac_final)
    rows = np.column_stack([lat.sites, p_walk, p_dirac])
    # full-distribution widths capture the figure's headline contrast
    # (branch velocities differ); per-branch widths barely move for either
    w_walk = packet_width(p_walk, lat.sites)
    w_dirac = packet_width(p_dirac, lat.sites)
    b_walk = component_widths(walk_final)
    b_dirac = component_widths(dirac_final)
    meta = _base_metadata(cfg, lat.n_sites)
    meta["walk_width"] = repr(w_walk)
    meta["dirac_width"] = repr(w_dirac)
    meta["width_ratio"] = repr(w_dirac / w_walk)
    meta["walk_branch_width"] = repr(b_walk[0])
    meta["dirac_branch_width"] = repr(b_dirac[0])
    table = Table("distributions", ("x", "p_walk", "p_dirac"), ("int", "float", "float"), rows)
    return ResultRecord("dirac", meta, [table])


def run_catstates(cfg: ExperimentConfig) -> ResultRecord:
    """Entropy growth, Schmidt branch distributions, and width saturation."""
    psi0 = _packet(cfg, cfg.steps)
    lat = psi0.lattice
    times = _snapshot_times(cfg)
    result = evolve(psi0, Schedule(cfg.steps, cfg.theta), snapshot_times=times)

    ent_rows = np.array(
        [(t, entanglement_entropy(result.snapshots[t])) for t in times]
    )
    dec = schmidt_components(result.final)
    branch_rows = np.column_stack(
        [lat.sites, np.abs(dec.x_state) ** 2, np.abs(dec.x_perp_state) ** 2]
    )

    # Width saturation sweep: the negative-band coin state keeps the
    # packet in a single branch so the ratio isolates dispersion.  Its
    # lattice is sized for the widest packet, or cfg.lattice if larger.
    width_rows = []
    band_coin = CoinState.from_vector(eigen_system(cfg.theta, 0.0).u_minus)
    width_steps = 400
    lat_wide = make_lattice(max(cfg.lattice or 0, recommended_size(width_steps, 15.0)))
    for sigma0 in (3.0, 7.0, 11.0, 15.0):
        psi = gaussian_position_state(lat_wide, sigma0, band_coin)
        final = evolve(psi, Schedule(width_steps, cfg.theta)).final
        dec_w = schmidt_components(final)
        width = packet_width(np.abs(dec_w.x_state) ** 2, lat_wide.sites)
        width0 = packet_width(position_distribution(psi), lat_wide.sites)
        width_rows.append((sigma0, width / width0))

    meta = _base_metadata(cfg, lat.n_sites)
    meta["schmidt_weight_1"] = repr(dec.weights[0])
    meta["schmidt_weight_2"] = repr(dec.weights[1])
    meta["width_sweep_lattice"] = lat_wide.n_sites
    meta["width_sweep_steps"] = width_steps
    meta["width_sweep_coin"] = "u_minus(0)"
    tables = [
        Table("entropy", ("step", "entropy_bits"), ("int", "float"), ent_rows),
        Table("branches", ("x", "p_x", "p_x_perp"), ("int", "float", "float"), branch_rows),
        Table("widths", ("sigma0", "ratio"), ("float", "float"), np.array(width_rows)),
    ]
    return ResultRecord("catstates", meta, tables)


def run_catfourier(cfg: ExperimentConfig) -> ResultRecord:
    """Momentum fringes of the coin-projected cat state."""
    chi = symmetric_coin_state(cfg.theta)
    psi0 = _packet(cfg, cfg.steps, chi)
    final = evolve(psi0, Schedule(cfg.steps, cfg.theta)).final
    walker, success = project_coin(final, chi)
    fringes = momentum_fringes(psi0.lattice, walker)
    rows = np.column_stack([fringes.momenta, fringes.distribution])
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    meta["projection_success"] = repr(success)
    meta["fringe_spacing"] = repr(fringes.spacing)
    meta["visibility"] = repr(fringes.visibility)
    table = Table("fringes", ("k", "probability"), ("float", "float"), rows)
    return ResultRecord("catfourier", meta, [table])


def run_returnk0(cfg: ExperimentConfig) -> ResultRecord:
    """Cat quality versus the packet's mean momentum."""
    rows = []
    for k0 in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
        psi0 = _packet(cfg, cfg.steps, k0=k0)
        final = evolve(psi0, Schedule(cfg.steps, cfg.theta)).final
        m = cat_metrics(position_distribution(final), psi0.lattice.sites)
        rows.append((k0, m.mass_balance, m.residual))
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    table = Table(
        "balance", ("k0", "mass_balance", "residual"), ("float", "float", "float"), np.array(rows)
    )
    return ResultRecord("returnk0", meta, [table])


def run_decohereprob(cfg: ExperimentConfig) -> ResultRecord:
    """Final distributions under the three channel kinds at one eta."""
    _guard_density(_lattice_size(cfg, cfg.steps), cfg)
    psi0 = _packet(cfg, cfg.steps)
    lat = psi0.lattice
    tables = []
    for kind in CHANNEL_KINDS:
        spec = ChannelSpec(kind, cfg.eta, _target(kind, cfg.target))
        sched = Schedule(cfg.steps, cfg.theta, channel=spec)
        prob = position_distribution(evolve_open(psi0, sched).final)
        rows = np.column_stack([lat.sites, prob])
        tables.append(Table(kind, ("x", "probability"), ("int", "float"), rows))
    return ResultRecord("decohereprob", _base_metadata(cfg, lat.n_sites), tables)


def run_revival(cfg: ExperimentConfig) -> ResultRecord:
    """Time-reversal revival fidelity trace; open-system when eta > 0."""
    T = cfg.steps
    n = _lattice_size(cfg, 2 * T)
    spec = None
    if cfg.eta > 0:
        _guard_density(n, cfg)
        spec = ChannelSpec(cfg.channel, cfg.eta, _target(cfg.channel, cfg.target))
    psi0 = _packet(cfg, 2 * T)
    result = revival_protocol(psi0, cfg.theta, T, channel=spec)
    rows = np.column_stack([np.arange(2 * T + 1), result.trace])
    meta = _base_metadata(cfg, n)
    meta["target"] = _target(cfg.channel, cfg.target)
    meta["r"] = repr(result.r)
    meta["reverser"] = "exact"
    table = Table("fidelity", ("step", "fidelity"), ("int", "float"), rows)
    return ResultRecord("revival", meta, [table])


def run_decohere(cfg: ExperimentConfig) -> ResultRecord:
    """Revival fidelity against eta for each channel variant."""
    T = cfg.steps
    n = _lattice_size(cfg, 2 * T)
    _guard_density(n, cfg)
    psi0 = _packet(cfg, 2 * T)
    # every (kind, target) a channel takes: dephasing_{coin,walker,both},
    # amplitude_damping, bit_flip
    variants = dict.fromkeys((kind, _target(kind, target))
                             for kind in CHANNEL_KINDS for target in TARGETS)
    etas = (1e-4, 1e-3, 1e-2)
    tables = []
    for kind, target in variants:
        rows = []
        for eta in etas:
            spec = ChannelSpec(kind, eta, target)
            rows.append((eta, revival_protocol(psi0, cfg.theta, T, channel=spec).r))
        name = f"{kind}_{target}" if kind == DEPHASING else kind
        tables.append(Table(name, ("eta", "r"), ("float", "float"), np.array(rows)))
    return ResultRecord("decohere", _base_metadata(cfg, n), tables)


def run_electricfid(cfg: ExperimentConfig) -> ResultRecord:
    """Hold-and-release control protocol fidelity against p."""
    t = cfg.steps
    ps = (10, 25, 50)
    psi0 = _packet(cfg, 2 * t + 2 * cfg.n * max(ps))
    rows = []
    for p in ps:
        rows.append((p, control_protocol(psi0, cfg.theta, t, p, cfg.n)))
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    table = Table("control", ("p", "r"), ("int", "float"), np.array(rows))
    return ResultRecord("electricfid", meta, [table])


def run_evolve(cfg: ExperimentConfig) -> ResultRecord:
    """Generic closed evolution with strided distribution snapshots."""
    psi0 = _packet(cfg, cfg.steps)
    times = _snapshot_times(cfg)
    result = evolve(psi0, Schedule(cfg.steps, cfg.theta), snapshot_times=times)
    rows = _distribution_rows(times, result.snapshots, psi0.lattice.sites)
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    table = Table("distribution", ("step", "x", "probability"), ("int", "int", "float"), rows)
    return ResultRecord("evolve", meta, [table])


def run_spectrum(cfg: ExperimentConfig) -> ResultRecord:
    """Quasi-energy bands and their small-k linearization over the zone.
    No packet is built, so the sizing rule does not apply; the one-state
    guard does."""
    n = cfg.lattice or 256
    _guard_state(n, cfg)
    lat = make_lattice(n)
    rows = []
    for k in lat.momenta:
        e_minus, e_plus = exact_energies(cfg.theta, float(k))
        rows.append((k, e_minus, e_plus, k * math.cos(cfg.theta) + math.pi / 2))
    meta = _base_metadata(cfg, n)
    table = Table(
        "bands",
        ("k", "e_minus", "e_plus", "e_linear"),
        ("float", "float", "float", "float"),
        np.array(rows),
    )
    return ResultRecord("spectrum", meta, [table])


RUNNERS = {
    "qwalk": run_qwalk,
    "dirac": run_dirac,
    "catstates": run_catstates,
    "catfourier": run_catfourier,
    "returnk0": run_returnk0,
    "decohereprob": run_decohereprob,
    "revival": run_revival,
    "decohere": run_decohere,
    "electricfid": run_electricfid,
    "evolve": run_evolve,
    "spectrum": run_spectrum,
}


def run_scenario(cfg: ExperimentConfig) -> ResultRecord:
    if cfg.scenario not in RUNNERS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    for key, value in SCENARIO_DEFAULTS.get(cfg.scenario, {}).items():
        if cfg.provenance.get(key) == "default":
            setattr(cfg, key, value)
    return RUNNERS[cfg.scenario](cfg)
