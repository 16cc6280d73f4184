"""Correctness gate for benchmark runs.

A run's outputs are the files ``catwalk.cli.main`` writes: one
``<scenario>_meta.txt`` of key=value lines per scenario and one
``<scenario>_<table>.csv`` per table.  Every run, whatever its seed, must
satisfy the invariants below.  Seed-0 runs must also match the reference
recorded at the commit that defined the benchmark
(``reference/<workload>.npz``, written by ``record_reference.py``).

Tolerances, absolute unless stated:
  distributions (probability columns)        1e-10 against the reference
  revival r, fidelities and other reals      1e-9 against the reference
  key columns (step, x, k, eta, ...)         1e-12, every seed
  metadata numbers                           1e-9 relative
  distribution sums (trace of rho for the    1e-9 from 1, every seed
  open runs) and 0 <= r, fidelity <= 1

Reference values are stored as integers in units of ``QUANTUM`` (1e-13),
which keeps the file small and adds at most 5e-14 to each comparison.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

QUANTUM = 1e-13
DIST_TOL = 1e-10
VALUE_TOL = 1e-9
KEY_TOL = 1e-12
META_RTOL = 1e-9
SUM_TOL = 1e-9

DIST_COLUMNS = {"probability", "p_walk", "p_dirac", "p_x", "p_x_perp"}
UNIT_INTERVAL_COLUMNS = {"r", "fidelity", "mass_balance", "residual", "entropy_bits"}
KEY_COLUMNS = {"step", "x", "k", "k0", "eta", "p", "sigma0"}
# metadata that does not depend on the seed
FIXED_META = ("lattice", "steps", "sigma", "stride", "eta", "channel",
              "target", "p", "n")
MAX_PROBLEMS = 10


def read_outputs(out_dir: Path) -> tuple[dict, dict]:
    """(metadata by scenario, (columns, rows) by table file stem)."""
    meta = {}
    for path in sorted(out_dir.glob("*_meta.txt")):
        pairs = (line.split("=", 1) for line in path.read_text().splitlines())
        meta[path.name[: -len("_meta.txt")]] = {k: v for k, v in pairs}
    tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        with path.open() as fh:
            columns = tuple(fh.readline().strip().split(","))
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        tables[path.stem] = (columns, rows)
    return meta, tables


def save_reference(path: Path, meta: dict, tables: dict) -> None:
    arrays = {"meta": np.array(json.dumps(meta, sort_keys=True))}
    for stem, (columns, rows) in tables.items():
        if np.abs(rows).max(initial=0.0) > 1e5:
            raise ValueError(f"{stem}: values too large for the reference encoding")
        arrays[f"columns:{stem}"] = np.array(columns)
        # column-major so that each column compresses on its own
        arrays[f"table:{stem}"] = np.ascontiguousarray(np.rint(rows / QUANTUM).astype(np.int64).T)
    np.savez_compressed(path, **arrays)


def load_reference(path: Path) -> tuple[dict, dict]:
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        tables = {}
        for key in data.files:
            if key.startswith("table:"):
                stem = key[len("table:"):]
                columns = tuple(str(c) for c in data[f"columns:{stem}"])
                tables[stem] = (columns, data[key].T * QUANTUM)
    return meta, tables


def _as_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _check_invariants(meta, tables, ref_meta, ref_tables, expected_echo, problems):
    if set(tables) != set(ref_tables):
        problems.append(f"tables {sorted(tables)} != reference {sorted(ref_tables)}")
    if set(meta) != set(ref_meta):
        problems.append(f"scenarios {sorted(meta)} != reference {sorted(ref_meta)}")
    for scenario, ref in ref_meta.items():
        got = meta.get(scenario, {})
        for key in FIXED_META:
            if got.get(key) != ref.get(key):
                problems.append(f"{scenario} meta {key}={got.get(key)!r}, expected {ref.get(key)!r}")
        for key, value in expected_echo.get(scenario, {}).items():
            if got.get(key) != value:
                problems.append(f"{scenario} meta {key}={got.get(key)!r} does not echo {value!r}")

    for stem, (columns, rows) in tables.items():
        if stem not in ref_tables:
            continue
        ref_columns, ref_rows = ref_tables[stem]
        if columns != ref_columns or rows.shape != ref_rows.shape:
            problems.append(f"{stem}: layout {columns} {rows.shape} != reference "
                            f"{ref_columns} {ref_rows.shape}")
            continue
        if not np.all(np.isfinite(rows)):
            problems.append(f"{stem}: non-finite values")
            continue
        for j, name in enumerate(columns):
            col = rows[:, j]
            if name in KEY_COLUMNS:
                err = np.abs(col - ref_rows[:, j]).max()
                if err > KEY_TOL:
                    problems.append(f"{stem}.{name}: key column differs by {err:.3g}")
            elif name in DIST_COLUMNS:
                if col.min() < -KEY_TOL:
                    problems.append(f"{stem}.{name}: negative probability {col.min():.3g}")
                groups = rows[:, columns.index("step")] if "step" in columns else np.zeros(len(col))
                _, inverse = np.unique(groups, return_inverse=True)
                sums = np.bincount(inverse, weights=col)
                err = np.abs(sums - 1.0).max()
                if err > SUM_TOL:
                    problems.append(f"{stem}.{name}: distribution sums deviate from 1 by {err:.3g}")
            elif name in UNIT_INTERVAL_COLUMNS:
                if col.min() < -KEY_TOL or col.max() > 1.0 + SUM_TOL:
                    problems.append(f"{stem}.{name}: outside [0, 1]: {col.min():.17g}..{col.max():.17g}")
        if columns[1:3] == ("e_minus", "e_plus"):
            err = np.abs(rows[:, 1] + rows[:, 2]).max()
            if err > KEY_TOL or np.abs(rows[:, 1:3]).max() > math.pi + KEY_TOL:
                problems.append(f"{stem}: bands not symmetric within [-pi, pi]")


def _check_reference(meta, tables, ref_meta, ref_tables, problems):
    for scenario, ref in ref_meta.items():
        got = meta.get(scenario, {})
        for key, ref_value in ref.items():
            value = got.get(key)
            a, b = _as_float(ref_value), _as_float(value) if value is not None else None
            if a is not None and b is not None and math.isfinite(a):
                if abs(a - b) > META_RTOL * max(abs(a), 1.0):
                    problems.append(f"{scenario} meta {key}={value}, reference {ref_value}")
            elif value != ref_value:
                problems.append(f"{scenario} meta {key}={value!r}, reference {ref_value!r}")
    for stem, (columns, rows) in tables.items():
        ref = ref_tables.get(stem)
        if ref is None or rows.shape != ref[1].shape:
            continue
        for j, name in enumerate(columns):
            if name in KEY_COLUMNS:
                continue
            tol = DIST_TOL if name in DIST_COLUMNS else VALUE_TOL
            err = np.abs(rows[:, j] - ref[1][:, j]).max()
            if not err <= tol:
                problems.append(f"{stem}.{name}: differs from reference by {err:.3g} (tol {tol:g})")


def check_outputs(out_dir: Path, reference, seed: int, argv_list) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed."""
    ref_meta, ref_tables = reference
    meta, tables = read_outputs(out_dir)
    expected_echo = {}
    for argv in argv_list:
        flags = dict(zip(argv[1::2], argv[2::2]))
        expected_echo[argv[0]] = {
            k: repr(float(flags[f"--{k}"])) for k in ("theta", "k0") if f"--{k}" in flags
        }
    problems: list[str] = []
    _check_invariants(meta, tables, ref_meta, ref_tables, expected_echo, problems)
    if seed == 0:
        _check_reference(meta, tables, ref_meta, ref_tables, problems)
    return problems[:MAX_PROBLEMS]
