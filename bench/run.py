"""catwalk benchmark: drive the CLI on one workload and report its metrics.

    python3 bench/run.py --workload open_revival --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  The load is a closed loop: one
client in one fresh workload process (``worker.py``), each run starting
after the previous one ends.  The process warms up with one full run, then
times runs for ``--seconds``.  Each invocation is a fresh process, so the
spread over invocations, which sets the bounds in BENCHMARK.json, includes
the variation between processes.  Set-up is timed in SETUP_ONLY bare
interpreters and in the workload process, from process start to a built
CLI parser.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones, from a workload process that
alternates untraced and traced runs.  Every run's outputs are checked
(``check.py``); a failed run counts in ``failed``.  The last line of
standard output is the JSON result; the lines before it are for people,
and ``.bench_build/catwalk-bench/`` keeps the samples, the spans of the
last traced run and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, argvs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "catwalk-bench"
SETUP_ONLY = 2  # extra fresh interpreters timed for set-up alone
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def _env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    # one client: BLAS threads up to nproc, set explicitly so the machine
    # record shows them
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(key, nproc)
    return env


def _spawn(args: list[str], tmp: Path, deadline: float, python_flags=()) -> tuple[float, str]:
    """Start a worker; returns (seconds to its ready line, its stderr)."""
    cmd = [sys.executable, *python_flags, str(BENCH / "worker.py"), "--src", str(ROOT / "src"),
           *args]
    # stderr goes to a file: -X importtime writes more than a pipe buffer
    # holds before the worker prints its ready line
    err_path = tmp / "stderr.txt"
    t0 = time.perf_counter()
    with err_path.open("w") as err_file:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err_file,
                                env=_env(), text=True, cwd=ROOT)
        try:
            ready = proc.stdout.readline().strip() == "ready"
            ready_s = time.perf_counter() - t0
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {args} passed the {DEADLINE_S:.0f} s deadline") from None
    err = err_path.read_text()
    if not ready or proc.returncode != 0:
        raise BenchError(f"worker {args} failed (exit {proc.returncode}):\n{err[-2000:]}")
    return ready_s, err


def _import_seconds(importtime_log: str, module: str) -> float:
    """Cumulative import time of ``module`` from a ``-X importtime`` log."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    raise BenchError(f"{module} missing from the import-time log")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _run_workers(workload: str, seed: int, seconds: float, traced: bool, tmp: Path):
    """Set-up samples and the worker result of one measurement.

    Untraced: SETUP_ONLY bare interpreters, then one workload process that
    times runs for ``seconds``.  Traced: one workload process that
    alternates untraced and traced runs for ``seconds``, started with
    ``-X importtime`` so that the import of ``catwalk.analysis`` is timed.
    """
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    if not traced:
        for _ in range(SETUP_ONLY):
            setup.append(_spawn(["--setup-only"], tmp, deadline)[0])
    result_path = tmp / "result.json"
    args = ["--workload", workload, "--seed", str(seed), "--share", str(seconds),
            "--out", str(tmp / "out"), "--result", str(result_path)]
    if traced:
        ready_s, err = _spawn(args + ["--trace"], tmp, deadline, ("-X", "importtime"))
    else:
        ready_s, err = _spawn(args, tmp, deadline)
    setup.append(ready_s)
    result = json.loads(result_path.read_text())
    if traced and "layers" in result:
        result["layers"]["setup.import_analysis_s"] = _import_seconds(err, "catwalk.analysis")
    return setup, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "catwalk" / "cli.py").is_file():
        print(f"bench: no catwalk source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setup, result = _run_workers(workload.name, args.seed, args.seconds,
                                     bool(args.trace), tmp)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    samples, attempted, failures = result["samples"], result["attempted"], result["failures"]
    if not samples:
        print("bench: no run succeeded:\n" + "\n".join(failures[:3]), file=sys.stderr)
        return 1
    q1, wall, q3 = _quartiles(samples)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "argv": [" ".join(a) for a in argvs(workload, args.seed)],
        "why": workload.why,
        "loads": workload.loads,
        "no_change_expected": workload.no_change,
        "machine": result["machine"],
        "setup_samples_s": setup,
        "samples_s": samples,
        "warmup_excess_s": (result["warmup_s"] - wall) if result["warmup_s"] else None,
        "failures": failures,
    }
    if args.trace:
        layers = result.get("layers")
        if layers is None:
            print("bench: the traced run produced no spans", file=sys.stderr)
            return 1
        if result["counted_steps"] != [workload.steps]:
            failures.append(f"traced step count {result['counted_steps']} "
                            f"!= workload steps {workload.steps}")
        details.update(layers=layers, spans=result["spans"],
                       traced_samples_s=result["traced_samples"])
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": wall,
            "steps_per_s": workload.steps / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    out_file = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=1))
    print(f"workload {workload.name} seed {args.seed}: {' | '.join(details['argv'])}")
    print(f"machine: {json.dumps(details['machine'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  wall_s quartiles {q1:.4f} / {wall:.4f} / {q3:.4f} s, n={len(samples)}; "
          f"setup_s over {len(setup)} fresh interpreters")
    print(f"  fail_frac = {len(failures) / attempted:.6g} fraction "
          f"({len(failures)}/{attempted} runs)")
    if details["warmup_excess_s"] is not None:
        print(f"  warm-up excess (not gated): {details['warmup_excess_s']:+.3f} s")
    print(f"  details: {out_file.relative_to(ROOT)}")
    for failure in failures[:3]:
        print(f"  FAILED: {failure.strip()}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
