"""Scenario pipelines behind the CLI: one runner per figure plus generic
evolve/spectrum runs.

Each runner takes the ExperimentConfig parse_config resolved, scenario
defaults included, runs the corresponding library pipeline without changing
it, and returns a ResultRecord of tables plus metadata (every input, the
resolved lattice size, and per-key provenance).  Each table is built from
keyword columns: `step`, `x` and `p` come from integer arrays and are
written as integers, every other column is float.
Density-operator scenarios size their lattice and check a memory estimate
for it before building any state, and refuse with the predicted byte count
when it exceeds the budget.
"""

from __future__ import annotations

import math

import numpy as np

# What a runner hands evolve as its `read` it takes from `analysis` itself:
# bench/tracing.py wraps the bindings below, and a wrapped read would open a
# span inside evolve's span.
from . import analysis
from .analysis import (
    cat_metrics,
    component_widths,
    control_protocol,
    entanglement_entropy,  # no runner calls it; bench/tracing.py wraps this binding
    momentum_fringes,
    packet_width,
    position_distribution,
    project_coin,
    revival_protocol,
    schmidt_components,
)
from .channels import (CHANNEL_KINDS, DEPHASING, TARGET_COIN, TARGETS, ChannelSpec,
                       density_working_set_bytes, evolve_open)
from .config import KEYS, ConfigError, ExperimentConfig
from .io import ResultRecord, Table
from .lattice import (
    COIN_SYMMETRIC,
    CoinState,
    PureState,
    StateError,
    _one_blas_thread,
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


def _guard_state(n_sites: int, cfg: ExperimentConfig, rows: int = 0) -> None:
    """Refuse a closed run whose one (N, 2) complex state, 32 N bytes, and
    ``rows`` kept P(x) rows, each 32 N bytes with its three table columns,
    would exceed cfg.max_bytes."""
    if (predicted := 32 * n_sites * (1 + rows)) > cfg.max_bytes:
        raise ResourceGuardError(predicted, cfg.max_bytes, f"one pure state and {rows} kept P(x) "
                                 f"rows with their table columns on N={n_sites} sites")


def _packet(cfg: ExperimentConfig, total_steps: int, coin: CoinState = COIN_SYMMETRIC,
            k0: float | None = None, density: bool = False, rows: int = 0) -> PureState:
    """The Gaussian start of width cfg.sigma at mean momentum ``k0`` (cfg.k0
    by default), on the lattice the sizing rule gives a run of
    ``total_steps``, or on cfg.lattice if that is set.

    The lattice is checked before any state is built.  An explicit lattice
    below the rule's size raises StateError: the packet would wrap around
    the periodic boundary within the run.  ResourceGuardError is raised if
    one (N, 2) complex state and the run's ``rows`` kept P(x) rows
    (``_guard_state``) exceed cfg.max_bytes, or, with ``density``, if a
    density-operator run's predicted peak
    (``channels.density_working_set_bytes``) does.
    """
    n = recommended_size(total_steps, cfg.sigma)
    if cfg.lattice is not None and cfg.lattice < n:
        raise StateError(
            f"lattice N={cfg.lattice} below {n}, the size N >= 2S + 8 sigma that "
            f"S={total_steps} steps at sigma={cfg.sigma} need: the packet would wrap "
            f"around the periodic boundary"
        )
    n = cfg.lattice or n
    _guard_state(n, cfg, rows)
    if density and (predicted := density_working_set_bytes(n)) > cfg.max_bytes:
        raise ResourceGuardError(predicted, cfg.max_bytes,
                                 "peak working set: 3 density matrices plus numpy buffers")
    return gaussian_position_state(make_lattice(n), cfg.sigma, coin,
                                   k0=cfg.k0 if k0 is None else k0)


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


def _distributions(name: str, times, rows, sites) -> Table:
    """(step, x, probability) rows, times outer and sites inner, from
    ``rows``, the P(x) row of each time (``evolve`` snapshots read by
    ``analysis.position_distribution``)."""
    return Table(name, step=np.repeat(times, len(sites)), x=np.tile(sites, len(times)),
                 probability=np.concatenate([rows[t] for t in times]))


def run_qwalk(cfg: ExperimentConfig) -> ResultRecord:
    """Localized versus delocalized start, distributions at a few times."""
    times = [t for t in (90, 120, 150) if t <= cfg.steps] or [cfg.steps]
    psi0 = _packet(cfg, cfg.steps, rows=2 * len(times))  # a table per start
    lat = psi0.lattice
    sched = Schedule(cfg.steps, cfg.theta)
    starts = {"localized": localized_state(lat, 0, COIN_SYMMETRIC), "delocalized": psi0}
    tables = []
    for name, start in starts.items():
        rows = evolve(start, sched, snapshot_times=times,
                      read=analysis.position_distribution).snapshots
        tables.append(_distributions(name, times, rows, lat.sites))
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
    table = Table("distributions", x=lat.sites, p_walk=p_walk, p_dirac=p_dirac)
    return ResultRecord("dirac", meta, [table])


def run_catstates(cfg: ExperimentConfig) -> ResultRecord:
    """Entropy growth, Schmidt branch distributions, and width saturation.

    Each snapshot is reduced to its entanglement entropy as the run passes
    it, so the run keeps no snapshot state."""
    psi0 = _packet(cfg, cfg.steps)
    lat = psi0.lattice
    times = _snapshot_times(cfg)
    result = evolve(psi0, Schedule(cfg.steps, cfg.theta), snapshot_times=times,
                    read=analysis.entanglement_entropy)

    dec = schmidt_components(result.final)

    # Width saturation sweep: the negative-band coin state keeps the
    # packet in a single branch so the ratio isolates dispersion.  Its
    # lattice is sized for the widest packet, or cfg.lattice if larger.
    band_coin = CoinState.from_vector(eigen_system(cfg.theta, 0.0).u_minus)
    width_steps = 400
    n_wide = max(cfg.lattice or 0, recommended_size(width_steps, 15.0))
    _guard_state(n_wide, cfg)
    lat_wide = make_lattice(n_wide)
    sigmas = (3.0, 7.0, 11.0, 15.0)
    ratios = []
    for sigma0 in sigmas:
        psi = gaussian_position_state(lat_wide, sigma0, band_coin)
        final = evolve(psi, Schedule(width_steps, cfg.theta)).final
        dec_w = schmidt_components(final)
        width = packet_width(np.abs(dec_w.x_state) ** 2, lat_wide.sites)
        ratios.append(width / packet_width(position_distribution(psi), lat_wide.sites))

    meta = _base_metadata(cfg, lat.n_sites)
    meta["schmidt_weight_1"] = repr(dec.weights[0])
    meta["schmidt_weight_2"] = repr(dec.weights[1])
    meta["width_sweep_lattice"] = lat_wide.n_sites
    meta["width_sweep_steps"] = width_steps
    meta["width_sweep_coin"] = "u_minus(0)"
    tables = [
        Table("entropy", step=times, entropy_bits=[result.snapshots[t] for t in times]),
        Table("branches", x=lat.sites, p_x=np.abs(dec.x_state) ** 2,
              p_x_perp=np.abs(dec.x_perp_state) ** 2),
        Table("widths", sigma0=sigmas, ratio=ratios),
    ]
    return ResultRecord("catstates", meta, tables)


def run_catfourier(cfg: ExperimentConfig) -> ResultRecord:
    """Momentum fringes of the coin-projected cat state."""
    chi = symmetric_coin_state(cfg.theta)
    psi0 = _packet(cfg, cfg.steps, chi)
    final = evolve(psi0, Schedule(cfg.steps, cfg.theta)).final
    walker, success = project_coin(final, chi)
    fringes = momentum_fringes(psi0.lattice, walker)
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    meta["projection_success"] = repr(success)
    meta["fringe_spacing"] = repr(fringes.spacing)
    meta["visibility"] = repr(fringes.visibility)
    table = Table("fringes", k=fringes.momenta, probability=fringes.distribution)
    return ResultRecord("catfourier", meta, [table])


def run_returnk0(cfg: ExperimentConfig) -> ResultRecord:
    """Cat quality versus the packet's mean momentum."""
    k0s = (0.0, math.pi / 8, math.pi / 4, math.pi / 2)
    metrics = []
    for k0 in k0s:
        psi0 = _packet(cfg, cfg.steps, k0=k0)
        final = evolve(psi0, Schedule(cfg.steps, cfg.theta)).final
        metrics.append(cat_metrics(position_distribution(final), psi0.lattice.sites))
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    table = Table("balance", k0=k0s, mass_balance=[m.mass_balance for m in metrics],
                  residual=[m.residual for m in metrics])
    return ResultRecord("returnk0", meta, [table])


def run_decohereprob(cfg: ExperimentConfig) -> ResultRecord:
    """Final distributions under the three channel kinds at one eta, read
    from each run's line sums without building or keeping rho, with the target
    each table ran with as target.<table>, the support the run stepped, read
    from its result (``_support``), and |sum P - 1| as trace_defect.<table>."""
    psi0 = _packet(cfg, cfg.steps, density=True)
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    tables = []
    for kind in CHANNEL_KINDS:
        target = meta[f"target.{kind}"] = _target(kind, cfg.target)
        sched = Schedule(cfg.steps, cfg.theta, channel=ChannelSpec(kind, cfg.eta, target))
        result = evolve_open(psi0, sched)
        _support(meta, kind, result.layout)
        prob = result.distribution()
        meta[f"trace_defect.{kind}"] = repr(float(abs(prob.sum() - 1.0)))
        tables.append(Table(kind, x=psi0.lattice.sites, probability=prob))
    return ResultRecord("decohereprob", meta, tables)


def _support(meta: dict, table: str, layout) -> None:
    """Record ``layout``, the momentum support an open run stepped as its
    result hands it back, as support.<table>=LINESxRING, and the weight of
    the lines it dropped as support_tail.<table>."""
    meta[f"support.{table}"] = f"{layout.lines}x{layout.ring}"
    meta[f"support_tail.{table}"] = repr(layout.tail)


def run_revival(cfg: ExperimentConfig) -> ResultRecord:
    """Time-reversal revival fidelity trace; open-system when eta > 0, with
    the support the run stepped, ``RevivalResult.layout`` (``_support``), as
    support(_tail).fidelity."""
    T = cfg.steps
    psi0 = _packet(cfg, 2 * T, density=cfg.eta > 0)
    target = _target(cfg.channel, cfg.target)
    spec = ChannelSpec(cfg.channel, cfg.eta, target) if cfg.eta > 0 else None
    result = revival_protocol(psi0, cfg.theta, T, channel=spec)
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    if spec is not None:
        _support(meta, "fidelity", result.layout)
    meta["target"] = target
    meta["r"] = repr(result.r)
    meta["reverser"] = "exact"
    table = Table("fidelity", step=np.arange(2 * T + 1), fidelity=result.trace)
    return ResultRecord("revival", meta, [table])


def run_decohere(cfg: ExperimentConfig) -> ResultRecord:
    """Revival fidelity r against eta for each channel variant, with the
    support each table's runs stepped, read from its first run's
    ``RevivalResult.layout`` (``_support``).  Each run reads only r, so it
    takes the fidelity at 2T alone (``times=(2 * T,)``): one contraction
    per revival, not one per step."""
    T = cfg.steps
    psi0 = _packet(cfg, 2 * T, density=True)
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    # every (kind, target) a channel takes: dephasing_{coin,walker,both},
    # amplitude_damping, bit_flip
    variants = dict.fromkeys((kind, _target(kind, target))
                             for kind in CHANNEL_KINDS for target in TARGETS)
    etas = (1e-4, 1e-3, 1e-2)
    tables = []
    for kind, target in variants:
        specs = [ChannelSpec(kind, eta, target) for eta in etas]
        name = f"{kind}_{target}" if kind == DEPHASING else kind
        results = [revival_protocol(psi0, cfg.theta, T, spec, times=(2 * T,)) for spec in specs]
        # every eta > 0 steps the same support
        _support(meta, name, results[0].layout)
        tables.append(Table(name, eta=etas, r=[result.r for result in results]))
    return ResultRecord("decohere", meta, tables)


def run_electricfid(cfg: ExperimentConfig) -> ResultRecord:
    """Hold-and-release control protocol fidelity against p."""
    t = cfg.steps
    ps = (10, 25, 50)
    psi0 = _packet(cfg, 2 * t + 2 * cfg.n * max(ps))
    meta = _base_metadata(cfg, psi0.lattice.n_sites)
    table = Table("control", p=ps, r=[control_protocol(psi0, cfg.theta, t, p, cfg.n) for p in ps])
    return ResultRecord("electricfid", meta, [table])


def run_evolve(cfg: ExperimentConfig) -> ResultRecord:
    """Generic closed evolution with strided distribution snapshots, each
    reduced to its P(x) row as the run passes it."""
    times = _snapshot_times(cfg)
    psi0 = _packet(cfg, cfg.steps, rows=len(times))
    rows = evolve(psi0, Schedule(cfg.steps, cfg.theta), snapshot_times=times,
                  read=analysis.position_distribution).snapshots
    table = _distributions("distribution", times, rows, psi0.lattice.sites)
    return ResultRecord("evolve", _base_metadata(cfg, psi0.lattice.n_sites), [table])


def run_spectrum(cfg: ExperimentConfig) -> ResultRecord:
    """Quasi-energy bands and their small-k linearization over the zone.
    No packet is built, so the sizing rule does not apply; the one-state
    guard does."""
    n = cfg.lattice or 256
    _guard_state(n, cfg)
    k = make_lattice(n).momenta
    e_minus, e_plus = exact_energies(cfg.theta, k)
    table = Table("bands", k=k, e_minus=e_minus, e_plus=e_plus,
                  e_linear=k * math.cos(cfg.theta) + math.pi / 2)
    return ResultRecord("spectrum", _base_metadata(cfg, n), [table])


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
    """Run cfg.scenario on cfg as given, numpy's OpenBLAS held at one thread
    (``lattice._one_blas_thread``), so that no sum is split and every
    output is the same whatever ``OPENBLAS_NUM_THREADS``."""
    if cfg.scenario not in RUNNERS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    with _one_blas_thread():
        return RUNNERS[cfg.scenario](cfg)
