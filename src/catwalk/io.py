"""Result persistence: CSV tables, key=value metadata, plot-data files.

A table is one structured array: its fields are the columns, in order, and
each field's type says how it is written, integers as %d and reals as
%.17g.  Every table is written CHUNK_ROWS rows at a time by the numpy
encoder of ``catwalk.encoder``, which writes, byte for byte, what ``%``
writes and leaves to ``%`` the few rows it cannot decide.  Everything
emitted is deterministic text: metadata keys sorted, no timestamps in files.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

FORMATS = ("csv", "plot", "both")
_HELD = {"i": np.int64, "u": np.uint64, "f": np.float64}


class Table:
    """A named table of keyword columns, in keyword order, each a 1-D
    integer or float array of one common length.

    ``rows`` is the structured array of those columns, one field per
    column, so ``rows.shape[0]`` is the row count.  Every field is held
    in the 8 native bytes ``_HELD`` gives its kind, the int64, uint64 or
    float64 the encoder reads.
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
        held = [(key, _HELD[col.dtype.kind]) for key, col in cols.items()]
        self.rows = np.empty(sizes.pop(), held)
        for key, col in cols.items():
            self.rows[key] = col


@dataclass
class ResultRecord:
    scenario: str
    metadata: dict
    tables: list[Table] = field(default_factory=list)


def _write(path: Path, head: str, chunks: Iterable[bytes] = ()) -> None:
    """Write ``head``, then stream ``chunks``: a table's whole text is
    never held."""
    try:
        with path.open("wb") as fh:
            fh.write(head.encode())
            fh.writelines(chunks)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_results(record: ResultRecord, out_dir, fmt: str = "csv") -> list[Path]:
    """Write the record's tables and metadata under ``out_dir``.

    ``fmt``, one of FORMATS, selects csv tables, two-column whitespace plot
    files (last two columns of each table), or both.  Returns the written
    paths.
    """
    if fmt not in FORMATS:
        raise ValueError(f"fmt: must be one of {FORMATS}, got {fmt!r}")
    from .encoder import encoded  # loaded at the first emit, so set-up does not compile it

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    meta_lines = [f"scenario={record.scenario}", f"version={__version__}"]
    for key in sorted(record.metadata):
        meta_lines.append(f"{key}={record.metadata[key]}")
    meta_path = out / f"{record.scenario}_meta.txt"
    _write(meta_path, "\n".join(meta_lines) + "\n")
    written.append(meta_path)

    for table in record.tables:
        names = table.rows.dtype.names
        if fmt in ("csv", "both"):
            path = out / f"{record.scenario}_{table.name}.csv"
            _write(path, ",".join(names) + "\n", encoded(table.rows, ","))
            written.append(path)
        if fmt in ("plot", "both") and len(names) >= 2:
            path = out / f"{record.scenario}_{table.name}.dat"
            _write(path, "", encoded(table.rows[list(names[-2:])], " "))
            written.append(path)
    return written
