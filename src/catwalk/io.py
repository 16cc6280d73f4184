"""Result persistence: CSV tables, key=value metadata, plot-data files.

A table is one structured array: its fields are the columns, in order, and
each field's type says how it is written, integers as %d and reals at 17
significant digits.  Rows are formatted CHUNK_ROWS at a time; a table of
PARALLEL_ROWS rows or more, on a machine with two CPUs or more, is
formatted by this process from its first chunk and by one forked child
from its last, each taking the next chunk while any is left.  Everything
emitted is deterministic text, the same bytes either way: metadata keys
sorted, no timestamps in files.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

FLOAT_FMT = "%.17g"
CHUNK_ROWS = 8192  # rows formatted per write, and per token when shared: bounds held text
# rows from which a table is shared between two processes, well above the
# size (about 16k rows on two CPUs) where the fork, pipes and reap cost what
# they save
PARALLEL_ROWS = 65536
_HELD = {"i": np.int64, "u": np.uint64, "f": np.float64}


class Table:
    """A named table of keyword columns, in keyword order, each a 1-D
    integer or float array of one common length.

    ``rows`` is the structured array of those columns, one field per
    column, so ``rows.shape[0]`` is the row count.  Every field is held
    in the 8 native bytes ``_HELD`` gives its kind, which a memoryview
    reads and ``%`` writes as the column's own values.
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


def _chunk(line: str, cols: list[memoryview], i: int, total: int) -> str:
    """The text of chunk ``i`` of a table of ``total`` rows: rows
    i·CHUNK_ROWS.. of ``cols``, one ``line % row`` each."""
    s = i * CHUNK_ROWS
    rows = zip(*(col[s : min(s + CHUNK_ROWS, total)].tolist() for col in cols))
    return "".join(line % row for row in rows)


def _claim(tokens: int | None, chunks: Iterable[int]):
    """The chunks of ``chunks``, in its order, that this process takes: one
    per byte it reads from the pipe ``tokens``, which holds one byte per
    chunk of the table for both processes, until it is empty.  Without a
    pipe, every chunk."""
    for i in chunks:
        if tokens is not None and not os.read(tokens, 1):
            return
        yield i


def _write_tail(pipe: tuple[int, int], tokens: int, encoding: str, line: str,
                cols: list[memoryview], chunks: range, total: int) -> None:
    """The forked child: take chunks from the last one down while tokens
    last, then write their text, encoded and in row order, to the write end
    of ``pipe`` and exit 0, or 1 on any exception.  It closes the read end,
    so a write fails once the parent's is closed, and formats all its rows
    before it writes, as the parent reads only after its own.  It calls no
    numpy (``cols`` are memoryviews) and never returns or flushes a buffer
    it inherited."""
    code = 1
    try:
        os.close(pipe[0])
        text = [_chunk(line, cols, i, total).encode(encoding)
                for i in _claim(tokens, reversed(chunks))]
        with open(pipe[1], "wb") as out:
            out.writelines(reversed(text))
        code = 0
    finally:
        os._exit(code)


def _fork_tail(encoding: str, line: str, cols: list[memoryview], chunks: range,
               total: int) -> tuple[int, int, int] | None:
    """Fork the child that takes chunks from the end (``_write_tail``) and
    return its pid, the read end of its pipe and the read end of the token
    pipe both processes take chunks from; or None, holding no pipe, if no
    pipe or process could be made or the tokens do not fit in their pipe."""
    fds: list[int] = []
    try:
        fds += os.pipe()  # the child's text
        fds += os.pipe()  # the tokens
        os.set_blocking(fds[3], False)
        if os.write(fds[3], bytes(len(chunks))) < len(chunks):
            raise BlockingIOError("the tokens do not fit in a pipe")
        os.close(fds.pop())
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        _write_tail((fds[0], fds[1]), fds[2], encoding, line, cols, chunks, total)
    os.close(fds[1])
    return pid, fds[0], fds[2]


def _write_rows(path: Path, header: str, rows: np.ndarray, sep: str) -> None:
    """Write ``header`` then one ``sep``-joined line per row of the
    structured array ``rows``, CHUNK_ROWS at a time: integer fields as %d,
    float fields as FLOAT_FMT.

    With PARALLEL_ROWS rows or more and two CPUs or more, a forked child
    takes chunks from the end while this process writes chunks from the
    start, each taking the next while any is left, so that the faster takes
    more; then this process copies the child's text from a pipe and reaps
    it.  On any error it closes the pipes, then kills and reaps the child.
    Otherwise, and where no child can be forked, this process writes every
    chunk."""
    names = rows.dtype.names
    line = sep.join("%d" if rows.dtype[n].kind in "iu" else FLOAT_FMT for n in names) + "\n"
    cols = [memoryview(rows[n]) for n in names]
    total = rows.shape[0]
    chunks = range(-(-total // CHUNK_ROWS))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    pid = read = tokens = None
    try:
        with path.open("w") as fh:
            fh.write(header)
            if total >= PARALLEL_ROWS and cpus > 1:
                fh.flush()
                child = _fork_tail(fh.encoding, line, cols, chunks, total)
                pid, read, tokens = child or (None, None, None)
            fh.writelines(_chunk(line, cols, i, total) for i in _claim(tokens, chunks))
            if pid:
                fh.flush()
                while data := os.read(read, 1 << 16):
                    fh.buffer.write(data)
                code, pid = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), None
                if code:
                    raise OSError(f"the child formatting the last rows exited with {code}")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        for fd in (read, tokens):
            if fd is not None:
                os.close(fd)
        if pid:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


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
