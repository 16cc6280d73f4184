"""Record the seed-0 reference outputs that ``check.py`` compares against.

    python3 bench/record_reference.py [workload ...]

Runs each workload once at seed 0 through ``catwalk.cli.main`` and writes
``bench/reference/<workload>.npz``.  Only re-record on purpose: the
reference pins the outputs of the commit that defined the benchmark.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import catwalk.cli as cli  # noqa: E402

from check import read_outputs, save_reference  # noqa: E402
from workloads import WORKLOADS, argvs  # noqa: E402


def main(names) -> int:
    for name in names or sorted(WORKLOADS):
        with tempfile.TemporaryDirectory(dir=BENCH) as out:
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in argvs(WORKLOADS[name], 0):
                    if cli.main(argv + ["--out", out]) != 0:
                        print(f"{name}: {argv} failed", file=sys.stderr)
                        return 1
            meta, tables = read_outputs(Path(out))
        path = BENCH / "reference" / f"{name}.npz"
        path.parent.mkdir(exist_ok=True)
        save_reference(path, meta, tables)
        print(f"{path.relative_to(BENCH.parent)}: {len(meta)} scenarios, {len(tables)} tables, "
              f"{path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
