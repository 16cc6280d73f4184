"""Result persistence: CSV tables, key=value metadata, plot-data files.

Everything emitted is deterministic text: reals at 17 significant digits,
metadata keys sorted, no timestamps in files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 8192  # rows formatted per write: bounds the text held in memory


@dataclass(frozen=True)
class Table:
    """Named columns over rows; dtypes are 'int' or 'float' per column."""

    name: str
    columns: tuple[str, ...]
    dtypes: tuple[str, ...]
    rows: np.ndarray  # shape (n_rows, n_cols)

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.size and rows.shape[1] != len(self.columns):
            raise ValueError(
                f"table {self.name!r}: {rows.shape[1]} columns of data for "
                f"{len(self.columns)} headers"
            )
        if len(self.dtypes) != len(self.columns):
            raise ValueError(f"table {self.name!r}: dtype/column count mismatch")
        object.__setattr__(self, "rows", rows)


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


def _write_rows(path: Path, header: str, rows: np.ndarray, dtypes, sep: str) -> None:
    """Write ``header`` then one ``sep``-joined line per row, CHUNK_ROWS at a time.

    Int columns go through round(), which gives an int rounded half to even
    and raises ValueError on NaN (OverflowError on inf), after which the
    partial file is removed; float columns use FLOAT_FMT.
    """
    line = sep.join("%d" if d == "int" else FLOAT_FMT for d in dtypes) + "\n"
    ints = [i for i, d in enumerate(dtypes) if d == "int"]
    try:
        with path.open("w") as fh:
            fh.write(header)
            for start in range(0, rows.shape[0], CHUNK_ROWS):
                cols = rows[start : start + CHUNK_ROWS].T.tolist()
                for i in ints:
                    cols[i] = list(map(round, cols[i]))
                fh.write("".join(line % row for row in zip(*cols)))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    except (ValueError, OverflowError):
        path.unlink()  # leave no truncated table behind
        raise


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
        if fmt in ("csv", "both"):
            path = out / f"{record.scenario}_{table.name}.csv"
            header = ",".join(table.columns) + "\n"
            _write_rows(path, header, table.rows, table.dtypes, ",")
            written.append(path)
        if fmt in ("plot", "both") and len(table.columns) >= 2:
            path = out / f"{record.scenario}_{table.name}.dat"
            _write_rows(path, "", table.rows[:, -2:], table.dtypes[-2:], " ")
            written.append(path)
    return written
