"""One workload process: set up, warm up, then run the workload until its
time budget (``--share``) is spent, checking every run's outputs.

It prints ``ready`` as soon as ``catwalk.cli`` is imported and its parser
built, so that the parent can time set-up from process start, and writes
its samples to the JSON file named by ``--result``.  Started by ``run.py``;
``--setup-only`` exits right after ``ready``.
"""

import sys
import time


def _parse_args(argv):
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--share", type=float, default=0.0)
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def _setup(src: str) -> None:
    sys.path.insert(0, src)
    import catwalk.cli

    catwalk.cli.build_parser()


def main(argv=None) -> int:
    args = _parse_args(argv)
    _setup(args.src)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import contextlib
    import io
    import json
    import resource
    import shutil
    import statistics
    import traceback
    from pathlib import Path

    import catwalk.cli as cli

    import check
    import machine
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    argv_list = workloads.argvs(workload, args.seed)
    reference = check.load_reference(Path(__file__).parent / "reference" / f"{workload.name}.npz")
    out = Path(args.out)
    failures: list[str] = []
    attempted = 0

    def run_once(tracer=None) -> float | None:
        """Wall seconds of one run, or None if it failed or its check did."""
        nonlocal attempted
        attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for a in argv_list:
                    full = a + ["--out", str(out)]
                    rc = tracer.span("cli.main", cli.main, full) if tracer else cli.main(full)
                    if rc != 0:
                        raise RuntimeError(f"{a} exited with {rc}")
        except Exception:  # a failed run is counted in fail_frac, not fatal
            failures.append(traceback.format_exc(limit=3))
            return None
        wall = time.perf_counter() - t0
        problems = check.check_outputs(out, reference, args.seed, argv_list)
        if problems:
            failures.append("; ".join(problems))
            return None
        return wall

    warmup_s = run_once()
    samples, traced_samples, traced_spans = [], [], []
    start = time.perf_counter()
    # Start another unit only if the last one's duration predicts that it
    # ends within the share, so a run never measures past its budget.
    while True:
        unit_start = time.perf_counter()
        wall = run_once()
        if wall is not None:
            samples.append(wall)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall = run_once(tracer)
            finally:
                tracer.uninstall()
            if wall is not None:
                traced_samples.append(wall)
                traced_spans.append(tracer.spans)
        now = time.perf_counter()
        if now - start + (now - unit_start) > args.share:
            break

    result = {
        "attempted": attempted,
        "failures": failures,
        "warmup_s": warmup_s,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "machine": machine.record(
            Path(args.src).parent,
            16 * (2 * workload.density_n) ** 2 if workload.density_n else None),
    }
    if args.trace and samples and traced_spans:
        n_sites, sigma = workloads.replay_size(workload)
        per_call = tracing.replay(n_sites, sigma, workloads.reference_theta(argv_list[0][0]))
        per_run = [tracing.span_metrics(s) for s in traced_spans]
        layers = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        layers.update(per_call)
        layers["analysis.revival_protocol.unreplayed_s"] = statistics.median(
            tracing.unreplayed_revival_s(s, per_call) for s in traced_spans)
        layers["trace.overhead_s"] = statistics.median(traced_samples) - statistics.median(samples)
        result.update(
            layers=layers,
            traced_samples=traced_samples,
            counted_steps=sorted({tracing.counted_steps(s) for s in traced_spans}),
            spans=tracing.spans_to_dicts(traced_spans[-1]),
        )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
