"""Result persistence: CSV tables, key=value metadata, plot-data files.

A table is one structured array: its fields are the columns, in order, and
each field's type says how it is written, integers as %d and reals at 17
significant digits.  Everything emitted is deterministic text: metadata
keys sorted, no timestamps in files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 8192  # rows formatted per write: bounds the text held in memory


class Table:
    """A named table of keyword columns, in keyword order, each a 1-D
    integer or float array of one common length.

    ``rows`` is the structured array of those columns, one field per
    column, so ``rows.shape[0]`` is the row count.
    """

    def __init__(self, name: str, /, **columns):
        cols = {key: np.asarray(col) for key, col in columns.items()}
        sizes = {col.size for col in cols.values()}
        if len(sizes) != 1 or any(col.ndim != 1 or col.dtype.kind not in "iuf"
                                  for col in cols.values()):
            got = ", ".join(f"{key} {col.dtype} {col.shape}" for key, col in cols.items())
            raise ValueError(f"table {name!r}: columns must be 1-D integer or float arrays "
                             f"of one length, got {got or 'none'}")
        self.name = name
        self.rows = np.empty(sizes.pop(), [(key, col.dtype) for key, col in cols.items()])
        for key, col in cols.items():
            self.rows[key] = col


@dataclass
class ResultRecord:
    scenario: str
    metadata: dict
    tables: list[Table] = field(default_factory=list)


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_rows(path: Path, header: str, rows: np.ndarray, sep: str) -> None:
    """Write ``header`` then one ``sep``-joined line per row of the
    structured array ``rows``, CHUNK_ROWS at a time: integer fields as %d,
    float fields as FLOAT_FMT."""
    names = rows.dtype.names
    line = sep.join("%d" if rows.dtype[n].kind in "iu" else FLOAT_FMT for n in names) + "\n"
    try:
        with path.open("w") as fh:
            fh.write(header)
            for start in range(0, rows.shape[0], CHUNK_ROWS):
                chunk = rows[start : start + CHUNK_ROWS]
                fh.write("".join(line % row for row in zip(*(chunk[n].tolist() for n in names))))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_results(record: ResultRecord, out_dir, fmt: str = "csv") -> list[Path]:
    """Write the record's tables and metadata under ``out_dir``.

    ``fmt`` selects csv tables, two-column whitespace plot files (last two
    columns of each table), or both.  Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    meta_lines = [f"scenario={record.scenario}", f"version={__version__}"]
    for key in sorted(record.metadata):
        meta_lines.append(f"{key}={record.metadata[key]}")
    meta_path = out / f"{record.scenario}_meta.txt"
    _write_text(meta_path, "\n".join(meta_lines) + "\n")
    written.append(meta_path)

    for table in record.tables:
        names = table.rows.dtype.names
        if fmt in ("csv", "both"):
            path = out / f"{record.scenario}_{table.name}.csv"
            _write_rows(path, ",".join(names) + "\n", table.rows, ",")
            written.append(path)
        if fmt in ("plot", "both") and len(names) >= 2:
            path = out / f"{record.scenario}_{table.name}.dat"
            _write_rows(path, "", table.rows[list(names[-2:])], " ")
            written.append(path)
    return written
