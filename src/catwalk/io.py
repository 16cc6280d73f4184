"""Result persistence: CSV tables, key=value metadata, plot-data files.

A table is one structured array: its fields are the columns, in order, and
each field's type says how it is written, integers as %d and reals as
%.17g.  A table of ENCODER_ROWS rows or more is written CHUNK_ROWS rows at
a time by the numpy encoder of ``catwalk.encoder``, which writes, byte for
byte, what ``%`` writes and leaves to ``%`` the few values it cannot
decide; a smaller table is written by ``%`` alone.  Everything emitted
is deterministic text: metadata keys sorted, no timestamps in files.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 8192  # rows written at a time: bounds the encoder's block and the held text
# rows from which a table is written by catwalk.encoder: in a fresh process
# its first table pays about 7 ms and 1.5 MB of max RSS to load it, which it
# wins back only from a few thousand rows (timings in CHANGES.md); runs that
# write only smaller tables never import it
ENCODER_ROWS = 4096
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


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _line(rows: np.ndarray, sep: str) -> str:
    """The ``%`` format of one row: integer fields as %d, float fields as
    FLOAT_FMT, joined by ``sep``."""
    names = rows.dtype.names
    return sep.join("%d" if rows.dtype[n].kind in "iu" else FLOAT_FMT for n in names) + "\n"


def _formatted(rows: np.ndarray, sep: str) -> Iterator[bytes]:
    """The text of ``rows``, CHUNK_ROWS at a time, one ``line % row`` each."""
    line = _line(rows, sep)
    for s in range(0, rows.shape[0], CHUNK_ROWS):
        cols = (rows[n][s : s + CHUNK_ROWS].tolist() for n in rows.dtype.names)
        yield "".join(line % row for row in zip(*cols)).encode()


def _write_rows(path: Path, header: str, rows: np.ndarray, sep: str) -> None:
    """Write ``header`` then one ``sep``-joined line per row of the
    structured array ``rows``: integer fields as %d, float fields as
    FLOAT_FMT.  A table of ENCODER_ROWS rows or more is written by
    ``catwalk.encoder.encoded``, a smaller one by ``_formatted``; the bytes
    are the same."""
    if rows.shape[0] >= ENCODER_ROWS:
        from .encoder import encoded  # imported by the first large table only
        chunks = encoded(rows, sep)
    else:
        chunks = _formatted(rows, sep)
    try:
        with path.open("wb") as fh:
            fh.write(header.encode())
            fh.writelines(chunks)
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
