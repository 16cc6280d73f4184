"""Print the sha256 of every file a fixed set of CLI runs writes.

Run as ``PYTHONPATH=<tree>/src python tests/output_digest.py``.  It calls
``catwalk.cli.main`` on each argv set below, each into its own temporary
directory, and prints one sorted ``sha256  <run>/<file>`` line per file
written.  Diffing its output for two trees shows exactly which output
files moved between them.  pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from catwalk.cli import main

CLOSED = ("--steps", "1000", "--sigma", "25", "--format", "both")
RUNS = (
    # the benchmark's closed_sweep runs
    *((scenario, *CLOSED) for scenario in ("qwalk", "dirac", "catstates", "catfourier",
                                           "returnk0", "electricfid", "evolve")),
    ("spectrum", "--format", "both"),
    ("decohere", "--steps", "30", "--sigma", "5"),
    ("decohereprob", "--steps", "40", "--lattice", "400", "--target", "both"),
    ("decohereprob", "--steps", "40", "--lattice", "400", "--target", "walker"),
    ("revival",),
    ("revival", "--eta", "0"),
    # reads a fidelity at every step while the channel is owed (S^T start)
    ("revival", "--channel", "amplitude_damping"),
    ("electricfid",),
)


def digests(argv: tuple[str, ...]) -> list[str]:
    """``sha256  <run>/<file>`` for each file one run writes."""
    run = "_".join(arg.lstrip("-") for arg in argv)
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", out])
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {run}/{path.name}"
                for path in Path(out).iterdir()]


if __name__ == "__main__":
    lines = [line for argv in RUNS for line in digests(argv)]
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
