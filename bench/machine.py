"""Machine and provenance record attached to every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMPY_MADVISE_HUGEPAGE")
BANDWIDTH_NOTE = (
    "not measured: a bandwidth array must be at least 4x the last-level "
    "cache, about 1.2 GB for a 300 MiB L3, beyond this benchmark's memory "
    "budget"
)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _parse_size(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    text = text.strip()
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cache_sizes() -> dict:
    """Bytes per cache level of cpu0 (data and unified caches)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            sizes[f"L{level}"] = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
    return sizes


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "catwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def record(root: Path, density_bytes: int | None) -> dict:
    """Machine, library and provenance facts; numpy must be importable."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = cache_sizes()
    l2 = caches.get("L2")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "density_matrix_bytes": density_bytes,
        "density_matrix_fits_l2": (density_bytes <= l2) if density_bytes and l2 else None,
        "memory_bandwidth": BANDWIDTH_NOTE,
    }
