"""The tracemalloc peak of each closed scenario against the one-state guard.

Run as ``PYTHONPATH=src python tests/closed_peaks.py``.  It runs each
closed scenario of the benchmark's ``closed_sweep`` in process at
``--steps 1000 --sigma 25``, through ``catwalk.cli.main`` into a temporary
directory, so that the peak covers the run and its emit.  Each scenario
runs once untraced first, so that caches built on first use (the encoder's
tables) are not counted.  It prints the resolved lattice size N, the peak
and the peak over 32 N, the one pure state every closed run's
``scenarios._guard_state`` prediction counts (``evolve`` and ``qwalk`` add
32 N bytes per kept P(x) row).  pytest does not collect this file.
"""

import contextlib
import io
import tempfile
import tracemalloc
from pathlib import Path

from catwalk import cli

SCENARIOS = ("evolve", "catstates", "catfourier", "qwalk", "dirac", "returnk0", "electricfid")
FLAGS = ("--steps", "1000", "--sigma", "25")


def run(scenario: str) -> int:
    """Run ``scenario`` once; returns the lattice size it resolved."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        if cli.main([scenario, *FLAGS, "--out", out]) != 0:
            raise SystemExit(f"{scenario} failed")
        meta = (Path(out) / f"{scenario}_meta.txt").read_text().splitlines()
    return int(dict(line.split("=", 1) for line in meta)["lattice"])


def main() -> None:
    print(f"{'scenario':<12} {'N':>6} {'peak MB':>8} {'peak / 32 N':>12}")
    for scenario in SCENARIOS:
        run(scenario)
        tracemalloc.start()
        try:
            n = run(scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"{scenario:<12} {n:>6} {peak / 1e6:>8.2f} {peak / (32 * n):>12.1f}")


if __name__ == "__main__":
    main()
