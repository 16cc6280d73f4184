"""Self-test of the correctness gate.

    python3 bench/selftest.py

Runs every workload once at seed 0 and closed_sweep once at seed 1, then
shows that real outputs pass while a perturbed reference value, a
perturbed metadata number and a corrupted output file are each caught.
Exits 0 when every case behaves as expected.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import catwalk.cli as cli  # noqa: E402

import check  # noqa: E402
from workloads import WORKLOADS, argvs  # noqa: E402

# one reference value per workload, pushed 10x past its tolerance
PERTURB = {
    "open_revival": ("decohere_bit_flip", "r", 10 * check.VALUE_TOL),
    "open_final": ("decohereprob_amplitude_damping", "probability", 10 * check.DIST_TOL),
    "closed_sweep": ("evolve_distribution", "probability", 10 * check.DIST_TOL),
}


def _run(workload, seed: int, out: Path) -> list[list[str]]:
    argv_list = argvs(workload, seed)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argv_list:
            if cli.main(argv + ["--out", str(out)]) != 0:
                raise RuntimeError(f"{argv} failed")
    return argv_list


def _perturb_table(reference, stem: str, column: str, delta: float):
    meta, tables = reference
    columns, rows = tables[stem]
    rows = rows.copy()
    j = columns.index(column)
    rows[int(np.argmax(np.abs(rows[:, j]))), j] += delta
    return meta, {**tables, stem: (columns, rows)}


def _perturb_meta(reference, scenario: str, key: str, rel: float):
    meta, tables = reference
    changed = dict(meta[scenario])
    changed[key] = repr(float(changed[key]) * (1 + rel))
    return {**meta, scenario: changed}, tables


def _corrupt_csv(path: Path, line_no: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    fields = lines[line_no].split(",")
    fields[-1] = "%.17g" % (float(fields[-1]) + delta)
    lines[line_no] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    bad = []

    def expect(name: str, problems: list[str], caught: bool) -> None:
        ok = bool(problems) == caught
        detail = f": {problems[0]}" if problems else ""
        print(f"{'ok  ' if ok else 'FAIL'} {name}{detail}")
        if not ok:
            bad.append(name)

    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    for name, (stem, column, delta) in PERTURB.items():
        workload = WORKLOADS[name]
        reference = check.load_reference(BENCH / "reference" / f"{name}.npz")
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            out = Path(tmp)
            argv_list = _run(workload, 0, out)
            expect(f"{name} seed 0 matches its reference",
                   check.check_outputs(out, reference, 0, argv_list), False)
            expect(f"{name} reference {stem}.{column} + {delta:g} is caught",
                   check.check_outputs(out, _perturb_table(reference, stem, column, delta),
                                       0, argv_list), True)
            if name == "closed_sweep":
                expect("closed_sweep reference catfourier visibility x (1 + 1e-8) is caught",
                       check.check_outputs(out, _perturb_meta(reference, "catfourier",
                                                              "visibility", 1e-8),
                                           0, argv_list), True)

    reference = check.load_reference(BENCH / "reference" / "closed_sweep.npz")
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        out = Path(tmp)
        argv_list = _run(WORKLOADS["closed_sweep"], 1, out)
        expect("closed_sweep seed 1 passes the invariants",
               check.check_outputs(out, reference, 1, argv_list), False)
        _corrupt_csv(out / "evolve_distribution.csv", 1101, 1e-6)
        expect("closed_sweep seed 1 output probability + 1e-6 is caught",
               check.check_outputs(out, reference, 1, argv_list), True)

    print("selftest:", "passed" if not bad else f"{len(bad)} case(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
