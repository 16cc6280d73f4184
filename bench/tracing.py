"""Spans around the catwalk layers, recorded from the benchmark's side.

The tracer replaces the public names that ``catwalk.cli`` and
``catwalk.scenarios`` bind with wrappers that record a span (name, start,
end, parent id, counts) per call, and restores them afterwards.  No source
file is touched.  Spans stay in memory until the run ends.

The open-system loops call private kernels that no public name reaches,
so their per-step cost comes from replaying the public per-step functions
at the workload's N (``replay``).  ``analysis.revival_protocol.unreplayed_s``
is the part of the revival loop's span time that the replay does not
explain.
"""

from __future__ import annotations

import inspect
import statistics
import time
from dataclasses import dataclass, field

DIAGNOSTICS = ("cat_metrics", "component_widths", "entanglement_entropy",
               "momentum_fringes", "packet_width", "position_distribution",
               "project_coin", "schmidt_components")
SPECTRAL = ("dirac_evolve", "exact_energies", "symmetric_coin_state")
CHANNEL_VARIANTS = ("dephasing_coin", "dephasing_walker", "dephasing_both",
                    "amplitude_damping", "bit_flip")
REPLAY_ETA = 1e-3
REPLAY_MIN_CALLS = 5
REPLAY_MIN_S = 0.2


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _variant(spec) -> str:
    return f"dephasing_{spec.target}" if spec.kind == "dephasing" else spec.kind


# Count helpers take the call's bound arguments by name and its result.
def _evolve_counts(a, result):
    return {"steps": a["schedule"].total_steps, "snapshots": len(set(a["snapshot_times"]))}


def _evolve_open_counts(a, result):
    return {"steps": a["schedule"].total_steps}


def _revival_counts(a, result):
    channel = a["channel"]
    return {"steps": 2 * a["T"], "variant": _variant(channel) if channel else None}


def _control_counts(a, result):
    return {"steps": 2 * a["t"] + 2 * a["n"] * a["p"]}


def _emit_counts(a, result):
    return {
        "rows": sum(t.rows.shape[0] for t in a["record"].tables),
        "bytes": sum(path.stat().st_size for path in result),
    }


class Tracer:
    """Records spans for calls through the wrapped names."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, counts=None, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counts(bound.arguments, result)
        return result

    def _wrap(self, module, attr: str, name: str, counts=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, counts=counts, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        import catwalk.cli as cli
        import catwalk.scenarios as scenarios

        self._wrap(cli, "parse_config", "config.parse_config")
        self._wrap(cli, "run_scenario", "scenarios.run_scenario")
        self._wrap(cli, "emit_results", "io.emit_results", _emit_counts)
        self._wrap(scenarios, "evolve", "walk.evolve", _evolve_counts)
        self._wrap(scenarios, "evolve_open", "channels.evolve_open", _evolve_open_counts)
        self._wrap(scenarios, "revival_protocol", "analysis.revival_protocol", _revival_counts)
        self._wrap(scenarios, "control_protocol", "analysis.control_protocol", _control_counts)
        for attr in DIAGNOSTICS:
            self._wrap(scenarios, attr, "analysis.diagnostics")
        for attr in SPECTRAL:
            self._wrap(scenarios, attr, "spectral")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def spans_to_dicts(spans: list[Span]) -> list[dict]:
    return [
        {"id": i, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, **({"counts": s.counts} if s.counts else {})}
        for i, s in enumerate(spans)
    ]


def span_metrics(spans: list[Span]) -> dict:
    """Per-layer totals, self times and counts from one traced run."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    # Only names bound in cli and scenarios are wrapped, and none of them
    # calls another through those bindings, so spans of one layer never nest.
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def self_time(name):
        return sum(s.duration - child_time[i] for i, s in enumerate(spans) if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    return {
        "cli.main.self_s": self_time("cli.main"),
        "config.parse_config.s": total("config.parse_config"),
        "scenarios.run_scenario.self_s": self_time("scenarios.run_scenario"),
        "io.emit_results.s": total("io.emit_results"),
        "io.rows": count("io.emit_results", "rows"),
        "io.bytes": count("io.emit_results", "bytes"),
        "walk.evolve.s": total("walk.evolve"),
        "walk.evolve.steps": count("walk.evolve", "steps"),
        "walk.evolve.snapshots": count("walk.evolve", "snapshots"),
        "channels.evolve_open.s": total("channels.evolve_open"),
        "channels.evolve_open.steps": count("channels.evolve_open", "steps"),
        "analysis.revival_protocol.s": total("analysis.revival_protocol"),
        "analysis.revival_protocol.steps": count("analysis.revival_protocol", "steps"),
        "analysis.control_protocol.s": total("analysis.control_protocol"),
        "analysis.diagnostics.s": total("analysis.diagnostics"),
        "analysis.diagnostics.calls": sum(1 for s in spans if s.name == "analysis.diagnostics"),
        "spectral.s": total("spectral"),
    }


def counted_steps(spans: list[Span]) -> int:
    """Walk steps the traced run advanced, from the span counts."""
    return sum(s.counts.get("steps", 0) for s in spans
               if s.name in ("walk.evolve", "channels.evolve_open",
                             "analysis.revival_protocol", "analysis.control_protocol"))


def unreplayed_revival_s(spans: list[Span], per_call_ms: dict) -> float:
    """Revival span time minus the replayed cost of the same loop.

    Each of the 2T loop steps is a density step, a channel and a fidelity
    contraction, and two coin conjugations apply the reversal gates; the
    loop works on raw arrays, so the validation cost that every public
    wrapper pays is taken off, except once for the final state.
    """
    v = per_call_ms["lattice.density_validate.ms"]
    step = per_call_ms["walk.step_density.ms"] - v
    conj = per_call_ms["walk.conjugate_coin.ms"] - v
    fid = per_call_ms["lattice.fidelity_with_density.ms"]
    unexplained = 0.0
    for s in spans:
        if s.name != "analysis.revival_protocol" or s.counts.get("variant") is None:
            continue
        channel = per_call_ms[f"channels.apply_channel.ms.{s.counts['variant']}"] - v
        replayed_ms = s.counts["steps"] * (step + channel + fid) + 2 * conj + v + fid
        unexplained += s.duration - replayed_ms / 1e3
    return unexplained


def _time_per_call_ms(fn) -> float:
    samples = []
    start = time.perf_counter()
    while len(samples) < REPLAY_MIN_CALLS or time.perf_counter() - start < REPLAY_MIN_S:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def replay(n_sites: int, sigma: float, theta: float) -> dict:
    """Median ms per call of the public per-step functions at ``n_sites``."""
    from catwalk.channels import ChannelSpec, apply_channel
    from catwalk.lattice import (COIN_SYMMETRIC, DensityOperator, fidelity_with_density,
                                 gaussian_position_state, make_lattice)
    from catwalk.walk import coin_operator, conjugate_coin, step_density

    lattice = make_lattice(n_sites)
    psi = gaussian_position_state(lattice, sigma, COIN_SYMMETRIC)
    rho = DensityOperator.from_pure(psi)
    gate = coin_operator(theta)
    raw = rho.matrix.copy()
    out = {
        "walk.step_density.ms": _time_per_call_ms(lambda: step_density(rho, theta)),
        "walk.conjugate_coin.ms": _time_per_call_ms(lambda: conjugate_coin(rho, gate)),
        "lattice.fidelity_with_density.ms": _time_per_call_ms(lambda: fidelity_with_density(psi, rho)),
        "lattice.density_validate.ms": _time_per_call_ms(lambda: DensityOperator(lattice, raw)),
        "lattice.density_matrix_mb": raw.nbytes / 1e6,
    }
    for variant in CHANNEL_VARIANTS:
        kind, _, target = variant.partition("_")
        if kind == "dephasing":
            spec = ChannelSpec("dephasing", REPLAY_ETA, target)
        else:
            spec = ChannelSpec(variant, REPLAY_ETA)
        out[f"channels.apply_channel.ms.{variant}"] = _time_per_call_ms(
            lambda spec=spec: apply_channel(rho, spec))
    return out
