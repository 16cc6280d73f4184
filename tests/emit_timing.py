"""Time ``emit_results`` on the ``evolve --steps 1000 --sigma 25`` record.

Run as ``PYTHONPATH=src python tests/emit_timing.py [runs]``.  It builds
the record once (222,200 rows of P(x, t)), then alternates writing it with
``emit_results``, which the numpy encoder writes, and with a plain writer
that formats every row as ``line % row`` (``catwalk.encoder._line``),
``runs`` times each (default 25), and prints each side's median and
quartiles.  pytest does not collect this file.
"""

import statistics
import sys
import tempfile
import time
from pathlib import Path

from catwalk.config import parse_config
from catwalk.encoder import _line
from catwalk.io import emit_results
from catwalk.scenarios import run_scenario


def percent_written(record, out) -> None:
    """The record's csv tables, every row written as ``line % row``."""
    for table in record.tables:
        rows, names = table.rows, table.rows.dtype.names
        line = _line(rows, ",")
        with (Path(out) / f"{record.scenario}_{table.name}.csv").open("w") as fh:
            fh.write(",".join(names) + "\n")
            fh.writelines(line % row for row in zip(*(rows[n].tolist() for n in names)))


def main(runs: int = 25) -> None:
    record = run_scenario(parse_config(flags={"steps": "1000", "sigma": "25"}, scenario="evolve"))
    rows = record.tables[0].rows.shape[0]
    sides = {"encoder": emit_results, "%": percent_written}
    times = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as out:
        emit_results(record, out)  # builds the encoder's tables
        for _ in range(runs):
            for side, write in sides.items():
                start = time.perf_counter()
                write(record, out)
                times[side].append(time.perf_counter() - start)
    print(f"emit_results of {rows} rows, {runs} alternations")
    for side, seconds in times.items():
        q1, median, q3 = statistics.quantiles(seconds, n=4)
        print(f"{side:>8}: median {median:.3f} s, quartiles {q1:.3f}-{q3:.3f} s")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
