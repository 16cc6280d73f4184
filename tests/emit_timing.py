"""Time ``emit_results`` on the ``evolve --steps 1000 --sigma 25`` record.

Run as ``PYTHONPATH=src python tests/emit_timing.py [runs]``.  It builds
the record once (222,200 rows of P(x, t)), then alternates writing it with
the table shared between two processes and with ``os.sched_getaffinity``
patched to one CPU, ``runs`` times each (default 25), and prints each
side's median and quartiles.  Sharing needs two CPUs; on one, both sides
run the same single-process path.  pytest does not collect this file.
"""

import os
import statistics
import sys
import tempfile
import time
from unittest import mock

from catwalk.config import parse_config
from catwalk.io import emit_results
from catwalk.scenarios import run_scenario


def main(runs: int = 25) -> None:
    record = run_scenario(parse_config(flags={"steps": "1000", "sigma": "25"}, scenario="evolve"))
    sides = {"shared": os.sched_getaffinity, "one CPU": lambda pid: {0}}
    times = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as out:
        for _ in range(runs):
            for side, affinity in sides.items():
                with mock.patch.object(os, "sched_getaffinity", affinity):
                    start = time.perf_counter()
                    emit_results(record, out)
                    times[side].append(time.perf_counter() - start)
    print(f"emit_results of {record.tables[0].rows.shape[0]} rows, {runs} alternations, "
          f"{len(os.sched_getaffinity(0))} CPUs")
    for side, seconds in times.items():
        q1, median, q3 = statistics.quantiles(seconds, n=4)
        print(f"{side:>8}: median {median:.3f} s, quartiles {q1:.3f}-{q3:.3f} s")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
