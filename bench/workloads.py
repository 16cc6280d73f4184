"""The three benchmark workloads: the CLI argv of each run, its work count,
and why the workload exists.

Every workload drives ``catwalk.cli.main(argv)``, the public entry point,
in a closed loop: one client in one process, each run starting after the
previous one ends.  A run is the whole argv list of the workload, executed
in order.

Seed 0 is the reference parameter set: exactly the argv below, with every
output checked against ``bench/reference/<workload>.npz``.  Any other seed
jitters the coin angle theta by up to +-0.05 around the scenario's own
reference value and sets the packet momentum k0 within [0, 0.05].  N, T
and every call count stay the same, so the work is identical; such runs
are checked against the invariants only (see ``check.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

THETA_JITTER = 0.05
K0_MAX = 0.05

# theta each scenario runs at when --theta is not given (scenarios.py
# SCENARIO_DEFAULTS overrides the global pi/4 for dirac only).
_REFERENCE_THETA = {"dirac": math.pi / 2.4}
_DEFAULT_THETA = math.pi / 4

CLOSED_STEPS = 1000
CLOSED_SCENARIOS = ("qwalk", "dirac", "catstates", "catfourier", "returnk0",
                    "electricfid", "evolve")


def _closed_sweep_steps(t: int) -> int:
    """Summed Schedule.total_steps of one closed_sweep run.

    Mirrors the scenario runners at their default n=5: qwalk evolves two
    starts, catstates adds a 4-width sweep of 400 steps, returnk0 four
    momenta, electricfid a control protocol of 2t + 2np steps for each
    p in (10, 25, 50), and spectrum takes no steps.
    """
    n_hold = 5
    electricfid = sum(2 * t + 2 * n_hold * p for p in (10, 25, 50))
    return 2 * t + t + (t + 4 * 400) + t + 4 * t + electricfid + t


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[tuple[str, ...], ...]
    steps: int  # walk steps advanced per run at the workload's fixed N
    density_n: int | None  # lattice size of the density operator, if any
    sigma: float  # packet width the workload runs at
    why: str
    loads: str
    no_change: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="open_revival",
            runs=(("decohere", "--steps", "30", "--sigma", "5"),),
            # 5 channel variants x 3 eta, each a revival of 2T = 60 steps
            steps=5 * 3 * 60,
            density_n=160,
            sigma=5.0,
            why="criterion-10 shape: 15 open revivals of 60 steps with a "
                "fidelity contraction after every step; the 1.6 MB rho fits "
                "in one core's 2 MiB L2",
            loads="walk density step and coin conjugation, all five channel "
                  "variants, the hand-copied loop in "
                  "analysis.revival_protocol, lattice fidelity contraction",
            no_change="channels.evolve_open, walk.evolve, io, spectral and "
                      "the closed-system diagnostics",
        ),
        Workload(
            name="open_final",
            runs=(("decohereprob", "--steps", "40", "--lattice", "400"),),
            # 3 channels through channels.evolve_open, 40 steps each
            steps=3 * 40,
            density_n=400,
            sigma=10.0,
            why="same density step through channels.evolve_open, observing "
                "only the final state; its 10.2 MB rho does not fit in L2, so "
                "step-skipping or cache-friendlier kernels show here",
            loads="channels.evolve_open with dephasing (both), amplitude "
                  "damping and bit flip; walk density step at N=400",
            no_change="analysis.revival_protocol, walk.evolve, io (<= 20 "
                      "rows), spectral and the closed-system diagnostics",
        ),
        Workload(
            name="closed_sweep",
            runs=tuple(
                (s, "--steps", str(CLOSED_STEPS), "--sigma", "25")
                for s in CLOSED_SCENARIOS
            ) + (("spectrum",),),
            steps=_closed_sweep_steps(CLOSED_STEPS),
            density_n=None,
            sigma=25.0,
            why="the pure-state and output path the open workloads bypass: "
                "io.emit_results (222k CSV rows from evolve) and the pure "
                "walk.evolve step dominate, then analysis and spectral",
            loads="walk.evolve, io.emit_results, analysis diagnostics and "
                  "control protocol, spectral, scenario table building",
            no_change="every density-operator layer: open-system changes "
                      "should leave this workload unchanged",
        ),
    )
}


def replay_size(workload: Workload) -> tuple[int, float]:
    """(N, sigma) at which the traced run replays the density kernels.

    closed_sweep evolves no density operator; it replays them at
    open_revival's N so that every traced run reports every per-layer
    metric.
    """
    if workload.density_n is None:
        workload = WORKLOADS["open_revival"]
    return workload.density_n, workload.sigma


def reference_theta(scenario: str) -> float:
    return _REFERENCE_THETA.get(scenario, _DEFAULT_THETA)


def argvs(workload: Workload, seed: int) -> list[list[str]]:
    """The argv list of one run for ``seed``; seed 0 is the reference set."""
    if seed == 0:
        return [list(a) for a in workload.runs]
    rng = random.Random(seed)
    d_theta = rng.uniform(-THETA_JITTER, THETA_JITTER)
    k0 = rng.uniform(0.0, K0_MAX)
    return [
        list(a) + ["--theta", repr(reference_theta(a[0]) + d_theta),
                   "--k0", repr(k0)]
        for a in workload.runs
    ]
