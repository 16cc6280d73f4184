import contextlib
import copy
import importlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catwalk
import catwalk.encoder
from catwalk import channels, lattice, scenarios
from catwalk.analysis import position_distribution, revival_protocol
from catwalk.channels import (CHANNEL_KINDS, TARGETS, ChannelSpec, MomentumLayout, OpenResult,
                              evolve_open, fidelity_trace)
from catwalk.cli import build_parser, main
from catwalk.config import KEYS, ConfigError, ExperimentConfig, parse_config
from catwalk.encoder import CHUNK_ROWS
from catwalk.io import FORMATS, ResultRecord, Table, emit_results
from catwalk.lattice import COIN_SYMMETRIC, DensityOperator, gaussian_position_state, make_lattice
from catwalk.scenarios import density_working_set_bytes
from catwalk.walk import Schedule


def read(path):
    return path.read_bytes()


def test_parse_config_defaults_and_provenance():
    cfg = parse_config("", scenario="evolve")
    assert cfg.theta == pytest.approx(np.pi / 4)
    assert cfg.lattice is None
    assert cfg.provenance["theta"] == "default"


def test_parse_config_file_and_flag_precedence():
    text = "theta = 0.5\nsteps = 20  # comment\n\nlattice = auto\n"
    cfg = parse_config(text, flags={"steps": 30}, scenario="evolve")
    assert cfg.theta == 0.5
    assert cfg.steps == 30
    assert cfg.provenance["theta"] == "file"
    assert cfg.provenance["steps"] == "flag"
    assert cfg.provenance["sigma"] == "default"


def test_parse_config_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("theta=0.5\nbogus=1\n")


def test_parse_config_bad_value_and_range():
    with pytest.raises(ConfigError, match="steps"):
        parse_config("steps=twenty\n")
    with pytest.raises(ConfigError, match="sigma"):
        parse_config("sigma=-3\n")
    with pytest.raises(ConfigError, match="lattice"):
        parse_config("lattice=7\n")
    with pytest.raises(ConfigError, match="--format"):
        parse_config("", flags={"fmt": "json"})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["theta", "sigma", "k0", "eta", "max_bytes"])
def test_non_finite_values_exit_2(key, value, tmp_path, capsys):
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key}={value}\n")
    code = main(["revival", "--steps", "2", "--sigma", "2", f"{KEYS[key].flag}={value}",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, accepted, refused, message", [
    ("theta", "1.7976931348623157e308", "inf", "theta: must be finite, got inf"),
    ("k0", "-1.7976931348623157e308", "-inf", "k0: must be finite, got -inf"),
    ("sigma", "5e-324", "0", "sigma: must be > 0, got 0.0"),
    ("steps", "0", "-1", "steps: must be >= 0, got -1"),
    ("eta", "0", "-5e-324", "eta: must be >= 0, got -5e-324"),
    ("p", "1", "0", "p: must be >= 1, got 0"),
    ("n", "0", "-1", "n: must be >= 0, got -1"),
    ("lattice", "6", "7", "lattice: must be even and >= 4 (or auto), got 7"),
    ("lattice", "4", "2", "lattice: must be even and >= 4 (or auto), got 2"),
    ("lattice", "auto", "0", "lattice: must be even and >= 4 (or auto), got 0"),
    ("stride", "1", "0", "stride: must be >= 1, got 0"),
    ("max_bytes", "5e-324", "0", "max_bytes: must be > 0, got 0.0"),
    ("max_bytes", "4e9", "x", "max_bytes: could not convert string to float: 'x'"),
    ("channel", "bit_flip", "bitflip",
     "channel: must be one of ('dephasing', 'amplitude_damping', 'bit_flip'), got 'bitflip'"),
    ("target", "both", "all", "target: must be one of ('coin', 'walker', 'both'), got 'all'"),
    ("fmt", "both", "json", "fmt: must be one of ('csv', 'plot', 'both'), got 'json'"),
])
def test_each_key_range_edge(key, accepted, refused, message):
    # a file value and a flag value meet the same parse and range; the
    # refusal names the file line and key, or the flag as typed
    flag_message = f"flag {KEYS[key].flag}: " + message.removeprefix(f"{key}: ")
    for build, named in ((lambda v: parse_config(f"{key}={v}\n"), f"line 1: {message}"),
                         (lambda v: parse_config(flags={key: v}), flag_message)):
        expected = None if accepted == "auto" else KEYS[key].type(accepted)
        assert getattr(build(accepted), key) == expected
        with pytest.raises(ConfigError) as refusal:
            build(refused)
        assert str(refusal.value) == named


def test_parser_flags_are_the_config_keys():
    config_keys = {f.name for f in fields(ExperimentConfig)} - {"scenario", "provenance"}
    assert set(KEYS) == config_keys
    for scenario in ("evolve", "revival", "spectrum"):
        dests = set(vars(build_parser().parse_args([scenario])))
        assert dests - {"scenario", "config"} == config_keys


def test_flags_may_come_before_the_scenario(tmp_path, capsys):
    assert main(["--theta", "0.7", "spectrum", "--lattice", "16", "--out", str(tmp_path)]) == 0
    meta = (tmp_path / "spectrum_meta.txt").read_text().splitlines()
    assert {"theta=0.7", "provenance.theta=flag"} <= set(meta)


def test_format_is_refused_by_the_config_range(tmp_path, capsys):
    assert main(["spectrum", "--lattice", "16", "--format", "json", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "catwalk: config error: flag --format: must be one of ('csv', 'plot', 'both'), "
        "got 'json'\n")
    assert list(tmp_path.iterdir()) == []


def test_one_parser_registers_each_flag_once():
    parser = build_parser()
    flags = [flag for action in parser._actions for flag in action.option_strings]
    assert sorted(flags) == sorted(["-h", "--help", "--config",
                                    *(key.flag for key in KEYS.values())])
    text = parser.format_help()
    assert all(name in text for name in scenarios.RUNNERS)
    assert all(key.flag in text for key in KEYS.values())


def test_scenario_defaults_are_resolved_by_parse_config():
    cfg = parse_config("", scenario="revival")
    assert (cfg.steps, cfg.provenance["steps"]) == (97, "default")
    assert parse_config("steps=5\n", scenario="revival").steps == 5
    assert parse_config(flags={"steps": "5"}, scenario="revival").steps == 5
    assert parse_config("", scenario="evolve").steps == 150


def test_run_scenario_leaves_the_config_unchanged():
    cfg = parse_config(flags={"steps": "2", "sigma": "1"}, scenario="dirac")
    before = copy.deepcopy(cfg)
    scenarios.run_scenario(cfg)
    assert cfg == before


@pytest.mark.filterwarnings("error")
def test_cli_dirac_without_steps_warns_nothing(tmp_path, capsys):
    # a product state's second Schmidt branch is empty; its width is nan, silently
    assert main(["dirac", "--steps", "0", "--out", str(tmp_path)]) == 0


def test_emit_results_formats(tmp_path):
    table = Table("demo", x=[1, 2], y=[0.5, 0.25])
    record = ResultRecord("toy", {"alpha": 1}, [table])
    paths = emit_results(record, tmp_path, fmt="both")
    names = {p.name for p in paths}
    assert names == {"toy_meta.txt", "toy_demo.csv", "toy_demo.dat"}
    csv = (tmp_path / "toy_demo.csv").read_text()
    assert csv.splitlines()[0] == "x,y"
    assert csv.splitlines()[1] == "1,0.5"
    dat = (tmp_path / "toy_demo.dat").read_text()
    assert dat.splitlines()[0] == "1 0.5"
    meta = (tmp_path / "toy_meta.txt").read_text()
    assert meta.startswith("scenario=toy\nversion=")
    assert "alpha=1" in meta


def test_emit_results_refuses_an_unknown_format(tmp_path):
    # the config's --format range and the writer share one vocabulary
    assert catwalk.config.FORMATS is catwalk.io.FORMATS
    record = ResultRecord("toy", {}, [Table("t", x=[1, 2], y=[0.5, 0.25])])
    with pytest.raises(ValueError) as refusal:
        emit_results(record, tmp_path / "out", fmt="json")
    assert str(refusal.value) == "fmt: must be one of ('csv', 'plot', 'both'), got 'json'"
    assert not (tmp_path / "out").exists()


def test_emit_results_seventeen_digits(tmp_path):
    value = 1.0 / 3.0
    emit_results(ResultRecord("toy", {}, [Table("v", y=[value])]), tmp_path)
    body = (tmp_path / "toy_v.csv").read_text().splitlines()[1]
    assert float(body) == value
    assert len(body.replace(".", "").lstrip("0")) >= 17


def per_cell(value):
    return str(value) if isinstance(value, int) else "%.17g" % value


def oracle(cols, sep=","):
    # the rows of ``cols`` as `%` writes them, cell by cell
    rows = zip(*(col.tolist() for col in cols.values()))
    return "".join(sep.join(map(per_cell, row)) + "\n" for row in rows)


def encoded(cols, sep=","):
    return b"".join(catwalk.encoder.encoded(Table("t", **cols).rows, sep)).decode()


def awkward_columns(n, *edges):
    """Four columns of n rows, the awkward values on the five rows around
    each of ``edges``."""
    rng = np.random.default_rng(0)
    a, d = rng.random(n), rng.random(n)
    b = np.arange(n) - 7
    c = rng.integers(-(10**6), 10**6, n)
    for e in edges:
        edge = slice(e - 2, e + 3)
        a[edge] = [1e300, -5e-324, 5e-324, 1 / 3, -0.0]
        c[edge] = [2**63 - 1, -(2**63 - 1), 0, -1, 2**63 - 1]
        d[edge] = [-0.0, 1 / 3, 5e-324, -5e-324, 1e300]
    return {"a": a, "b": b, "c": c, "d": d}


def edge_columns():
    # a table the encoder writes, the awkward values around every chunk edge
    n = 3 * CHUNK_ROWS + 3
    return awkward_columns(n, *range(CHUNK_ROWS, n, CHUNK_ROWS), n - 3)


def later_undecided_columns():
    # four real columns, one chunk and a few rows; only the last holds values
    # left to `%`, so those rows are handed over for a later column alone
    a, b, c, d = np.random.default_rng(2).random((4, CHUNK_ROWS + 5))
    d[[3, CHUNK_ROWS - 1, CHUNK_ROWS + 2]] = [2.0**-25, np.inf, np.nan]
    return {"a": a, "b": b, "c": c, "d": d}


def assert_same_lines(got, want):
    # equal line lists are equal texts; pytest reports a list mismatch at
    # once, where its diff of two texts of megabytes takes minutes
    assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


@pytest.mark.parametrize("fmt", ["csv", "plot", "both"])
def test_emit_results_matches_per_cell_oracle(fmt, tmp_path):
    # one and a half chunks, the awkward values straddling the chunk
    # boundary, a table of several chunks, the awkward values around every
    # chunk edge, and real columns of which only the last leaves rows to `%`
    columns = {"t": awkward_columns(CHUNK_ROWS + CHUNK_ROWS // 2, CHUNK_ROWS),
               "s": edge_columns(), "u": later_undecided_columns()}
    tables = [Table(name, **cols) for name, cols in columns.items()]
    emit_results(ResultRecord("toy", {}, tables), tmp_path, fmt=fmt)
    for name, cols in columns.items():
        csv = tmp_path / f"toy_{name}.csv"
        dat = tmp_path / f"toy_{name}.dat"
        if fmt == "plot":
            assert not csv.exists()
        else:
            assert_same_lines(csv.read_text(), "a,b,c,d\n" + oracle(cols))
        if fmt == "csv":
            assert not dat.exists()
        else:
            assert_same_lines(dat.read_text(), oracle({k: cols[k] for k in "cd"}, " "))


def test_the_encoder_reads_every_column_type(tmp_path):
    # a table holds each column in 8 native bytes, which the encoder reads
    rng = np.random.default_rng(1)
    n = 40
    reals = rng.normal(size=n) * 1e3
    cols = {"f2": reals.astype(np.float16), "f4": reals.astype(np.float32),
            "fb": reals.astype(">f8"), "fl": reals.astype(np.longdouble) / 3,
            "ib": rng.integers(-(2**31), 2**31, n).astype(">i4"),
            "u8": rng.integers(2**63, 2**64 - 1, n, dtype=np.uint64),
            "i1": rng.integers(-128, 128, n).astype(np.int8)}
    emit_results(ResultRecord("toy", {}, [Table("s", **cols)]), tmp_path)
    assert_same_lines((tmp_path / "toy_s.csv").read_text(), ",".join(cols) + "\n" + oracle(cols))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.floats(), st.integers(-(2**63), 2**63 - 1),
                          st.integers(0, 2**64 - 1)), min_size=1, max_size=40),
       st.sampled_from([",", " "]))
def test_the_encoder_writes_what_percent_writes(cells, sep):
    # any float64 bit pattern, any float, any int64 and uint64
    bits, reals, ints, uints = zip(*cells)
    cols = {"bits": np.array(bits, np.uint64).view(np.float64), "real": np.array(reals),
            "i": np.array(ints, np.int64), "u": np.array(uints, np.uint64)}
    assert encoded(cols, sep) == oracle(cols, sep)


@pytest.mark.parametrize("sep", [",", " "])
def test_the_encoder_writes_the_awkward_reals(sep):
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    named = np.array([
        2.0**-25, 2173395701334014.75,  # exact ties: %.17g rounds half to even
        1e-4, 9.9999999999999991e-05, 1e-5, 9.9999999999999991e-06,  # "0.0001" and "1e-05"
        1e16, 99999999999999984.0, 1e17, 1.0000000000000002e17,  # 17 digits and "1e+17"
        1e-14, 1e23,  # 17 digits round up to a power of ten: a carry to 10**17
        5e-324, -0.0, 0.0, np.nan, np.inf, -np.inf, np.finfo(float).max])
    with np.errstate(over="ignore"):
        reals = np.concatenate([x for v in (tens, twos, named)
                                for x in (v, -v, np.nextafter(v, 0), np.nextafter(v, np.inf))])
    cols = {"i": np.arange(reals.size), "x": reals}
    assert_same_lines(encoded(cols, sep), oracle(cols, sep))


@pytest.mark.parametrize("step", [-1e-9, 1e-9], ids=["below", "above"])
def test_a_log10_a_step_off_leaves_the_value_to_percent(step, monkeypatch):
    # next to a power of ten a log10 a little off floors to the next
    # exponent, and y lands outside [10**16, 10**17): `%` writes such values
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    reals = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + step)
    assert catwalk.encoder._decimal(reals)[2].sum() > 300
    cols = {"x": reals}
    assert_same_lines(encoded(cols), oracle(cols))


@pytest.mark.parametrize("sep", [",", " "])
def test_every_row_left_to_percent_writes_the_same_bytes(sep, monkeypatch):
    # a tie window as wide as any fraction leaves every row undecided, and
    # `line % row` writes each one
    cols = awkward_columns(CHUNK_ROWS + 5, 2, CHUNK_ROWS, CHUNK_ROWS + 2)
    monkeypatch.setattr(catwalk.encoder, "_TIE", 1.0)
    for key in "ad":
        assert catwalk.encoder._decimal(cols[key])[2].all()
    assert_same_lines(encoded(cols, sep), oracle(cols, sep))


@pytest.mark.parametrize("rows", [0, 1, 2])
def test_tables_either_side_of_the_encoder_limit(rows, tmp_path, monkeypatch):
    # the encoder writes every table file, however few its rows, one of one
    # column too, and writes what `%` writes
    calls, encode = [], catwalk.encoder.encoded
    monkeypatch.setattr(catwalk.encoder, "encoded", lambda *a: calls.append(a) or encode(*a))
    rng = np.random.default_rng(rows)
    two = {"x": np.arange(rows) - rows // 2, "p": rng.random(rows) ** 9}
    one = {"e": rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, rows)}
    tables = [Table("two", **two), Table("one", **one)]
    emit_results(ResultRecord("toy", {}, tables), tmp_path, fmt="both")
    assert len(calls) == 3
    assert (tmp_path / "toy_two.csv").read_text() == "x,p\n" + oracle(two)
    assert (tmp_path / "toy_two.dat").read_text() == oracle(two, " ")
    assert (tmp_path / "toy_one.csv").read_text() == "e\n" + oracle(one)
    assert not (tmp_path / "toy_one.dat").exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
@pytest.mark.parametrize("tie", [None, 1.0], ids=["encoder", "percent"])
def test_a_write_failing_after_its_header_fails_the_table(tie, tmp_path, monkeypatch):
    # a table file that links to /dev/full takes its header into the buffer
    # and refuses the rows, of a one-row table and of a table of many chunks,
    # whether the encoder decides the rows or leaves every one to `%`
    if tie is not None:
        monkeypatch.setattr(catwalk.encoder, "_TIE", tie)
    for name, cols in (("one", {"x": [3], "p": [0.25]}), ("s", edge_columns())):
        (tmp_path / f"toy_{name}.csv").symlink_to("/dev/full")
        with pytest.raises(OSError, match=rf"cannot write .*toy_{name}\.csv: .*No space left"):
            emit_results(ResultRecord("toy", {}, [Table(name, **cols)]), tmp_path)
    out = tmp_path / "cli"
    out.mkdir()
    (out / "evolve_distribution.csv").symlink_to("/dev/full")
    assert main(["evolve", "--steps", "4", "--sigma", "1", "--out", str(out)]) == 4


@pytest.mark.parametrize(
    "columns",
    [{"x": [1j, 2j]}, {"x": [True, False]}, {"x": ["1", "2"]}, {"x": np.zeros((2, 2))},
     {"x": [1, 2], "p": [0.5]}, {}],
    ids=["complex", "bool", "string", "2d", "unequal", "none"],
)
def test_table_refuses_bad_columns(columns, tmp_path):
    # a column is a 1-D integer or float array, all of one length
    with pytest.raises(ValueError, match="1-D integer or float"):
        emit_results(ResultRecord("toy", {}, [Table("t", **columns)]), tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scenario", sorted(scenarios.RUNNERS))
def test_scenario_tables_write_steps_sites_and_p_as_integers(scenario):
    flags = {"lattice": "16"} if scenario == "spectrum" else {"steps": "2", "sigma": "1"}
    record = scenarios.run_scenario(parse_config(flags=flags, scenario=scenario))
    assert record.tables
    for table in record.tables:
        for name in table.rows.dtype.names:
            kind = table.rows.dtype[name].kind
            assert kind == ("i" if name in ("step", "x", "p") else "f"), (table.name, name)


def test_cli_import_leaves_scipy_out():
    code = "import sys, catwalk.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(catwalk.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_open_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every scenario runs with numpy's OpenBLAS held at one thread, so no
    # contraction is split
    if lattice._openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count symbols here")
    # and P(x) read from each block's line sums; r and P(x) byte for byte.
    # The closed electricfid is at N = 5,200: OpenBLAS splits its overlaps
    # only from about N = 4,000 on
    code = "import sys; from catwalk.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(catwalk.__file__).resolve().parents[1])
    for argv, files in ((["decohere", "--steps", "30", "--sigma", "5"], 6),
                        (["decohereprob", "--steps", "40", "--lattice", "400"], 4),
                        (["electricfid", "--steps", "1000", "--sigma", "25"], 2)):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / argv[0] / threads
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)], env=env,
                           capture_output=True, check=True)
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(outputs[0]) == files and outputs[0].keys() == outputs[1].keys()
        for name, data in outputs[0].items():
            assert outputs[1][name] == data, name


def test_cli_evolve_success(tmp_path, capsys):
    code = main(
        [
            "evolve",
            "--steps", "6",
            "--sigma", "2",
            "--stride", "3",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert str(tmp_path / "evolve_meta.txt") in out_lines
    csv = (tmp_path / "evolve_distribution.csv").read_text()
    assert csv.splitlines()[0] == "step,x,probability"
    meta = (tmp_path / "evolve_meta.txt").read_text()
    assert "lattice=28" in meta
    assert "provenance.steps=flag" in meta
    assert "provenance.theta=default" in meta


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=4\nsigma=2\nstride=2\n")
    code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    meta = (tmp_path / "evolve_meta.txt").read_text()
    assert "provenance.steps=file" in meta


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["evolve", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_config_file_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_config_file_reads_utf8_comments(tmp_path, capsys):
    path = tmp_path / "theta.cfg"
    path.write_bytes("lattice = 16  # \u03b8 = \u03c0/4\n".encode("utf-8"))
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "lattice=16" in (tmp_path / "spectrum_meta.txt").read_text().splitlines()


def test_cli_bad_parameter_exits_2(tmp_path, capsys):
    assert main(["evolve", "--steps", "-3", "--out", str(tmp_path)]) == 2
    assert main(["evolve", "--lattice", "7", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_lattice_auto_flag_sizes_like_the_default(tmp_path, capsys):
    # a flag value parses as a config-file value does, so "auto" is a size
    argv = ["evolve", "--steps", "4", "--sigma", "1"]
    assert main(argv + ["--lattice", "auto", "--out", str(tmp_path / "auto")]) == 0
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    names = sorted(p.name for p in (tmp_path / "auto").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "default").iterdir())
    for name in names:
        auto, default = (read(tmp_path / d / name) for d in ("auto", "default"))
        # only the recorded origin of the lattice value differs
        assert auto == default.replace(b"provenance.lattice=default",
                                       b"provenance.lattice=flag"), name


@pytest.mark.parametrize("argv, code", [
    (["evolve", "--steps", "40", "--lattice", "32"], 2),
    # the sizing rule N >= 2T + 8 sigma gives 96
    (["evolve", "--steps", "40", "--lattice", "94"], 2),
    (["evolve", "--steps", "40", "--lattice", "96"], 0),
    # a revival runs 2T steps: 48
    (["revival", "--steps", "8", "--lattice", "46", "--eta", "0"], 2),
    (["revival", "--steps", "8", "--lattice", "48", "--eta", "0"], 0),
])
def test_cli_refuses_a_lattice_the_packet_would_wrap_around(argv, code, tmp_path, capsys):
    assert main(argv + ["--sigma", "2", "--out", str(tmp_path)]) == code
    if code:
        assert "wrap around" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_cli_memory_guard_exits_3(tmp_path, capsys):
    code = main(
        [
            "revival",
            "--steps", "5",
            "--sigma", "2",
            "--eta", "0.01",
            "--max-bytes", "1000",
            "--out", str(tmp_path),
        ]
    )
    assert code == 3
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["revival", "decohere", "decohereprob"])
def test_memory_guard_refuses_before_building_the_packet(scenario, monkeypatch, tmp_path, capsys):
    # 1e7 steps need N near 2e7: the guard refuses on that size alone, no state built
    def unbuilt(*args, **kwargs):
        raise AssertionError("the packet was built before the memory guard ran")

    monkeypatch.setattr(scenarios, "gaussian_position_state", unbuilt)
    argv = [scenario, "--steps", "10000000", "--eta", "0.01", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (["qwalk", "--sigma", "1e308"], 2, "config error: lattice size"),
    (["decohere", "--sigma", "1e308"], 2, "config error: lattice size"),
    (["qwalk", "--steps", "100000000000000000000"], 3, "refused"),
    (["electricfid", "--steps", "5", "--n", "1000000000000000000"], 3, "refused"),
    # spectrum builds no packet, so only the one-state guard applies
    (["spectrum", "--lattice", "1000000000000000000"], 3, "refused"),
    (["dirac", "--steps", "4", "--theta", "1e300"], 2, "config error: theta=1e+300 is too large"),
])
def test_cli_refuses_oversized_inputs_without_a_traceback(argv, code, message, tmp_path, capsys):
    # an infinite sizing rule is a config error; a lattice whose one (N, 2)
    # state alone exceeds --max-bytes is refused before anything is allocated
    assert main(argv + ["--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"catwalk: {message}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_run_that_runs_out_of_memory_is_refused(tmp_path):
    # sigma = 1e6 builds N = 8,000,008 sites, about 250 MB a state, which the
    # guard lets through; under a 1 GiB address-space limit, set in the child
    # alone, an allocation fails: exit 3, one line on stderr, nothing written
    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = "import sys; from catwalk.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(catwalk.__file__).resolve().parents[1])
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-c", code, "evolve", "--steps", "4", "--sigma", "1e6",
                          "--out", str(out)], preexec_fn=limited, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert run.returncode == 3, run.stderr
    assert run.stderr.startswith("catwalk: refused: ") and run.stderr.count("\n") == 1
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("sigma", ["1e-300", "1e-200"])
def test_a_sigma_whose_square_underflows_is_refused(sigma, tmp_path, capsys):
    # 4 sigma^2 would be 0, and the envelope 0/0 at x = 0: the run is refused,
    # naming sigma, before the packet is built and without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--steps", "4", "--sigma", sigma, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"catwalk: config error: sigma={float(sigma)} is too small: "
                   "4 sigma^2 underflows to 0\n")
    assert list(tmp_path.iterdir()) == []
    # a small sigma whose square stays above 0 still runs
    assert main(["evolve", "--steps", "4", "--sigma", "1e-150", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("sigma", ["1e-161", "1e-155"])
def test_a_sigma_whose_envelope_overflows_runs_on_one_site(sigma, tmp_path):
    # 4 sigma^2 stays above 0 but x^2 / (4 sigma^2) overflows to inf off
    # x = 0, where exp(-inf) = 0 is the right limit: the run gives the
    # one-site packet, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--steps", "4", "--sigma", sigma, "--out", str(tmp_path)]) == 0
        psi = gaussian_position_state(make_lattice(8), float(sigma), COIN_SYMMETRIC)
    prob = (np.abs(psi.amplitudes) ** 2).sum(axis=1)
    assert psi.lattice.sites[np.flatnonzero(prob)].tolist() == [0]
    assert prob.sum() == pytest.approx(1.0, abs=1e-15)
    rows = [row.split(",") for row in
            (tmp_path / "evolve_distribution.csv").read_text().splitlines()[1:]]
    occupied = [(x, float(p)) for step, x, p in rows if step == "0" and float(p) != 0]
    assert occupied == [("0", pytest.approx(1.0, abs=1e-15))]


# each key's domain edges, as typed after its flag
_NUMBER_EDGES = ("0", "-1", "1", "1.5", "1e-300", "-1e-300", "1e300", "-1e300", "inf", "-inf",
                 "nan")
_KEY_EDGES = {
    **{key: _NUMBER_EDGES for key, spec in KEYS.items() if spec.type in (int, float)},
    "theta": _NUMBER_EDGES + ("1e10", "-1e10"),
    "k0": _NUMBER_EDGES + ("1e10", "-1e10"),
    "lattice": (*map(str, range(8)), "auto", "1.5", "1e300", "inf", "nan"),
    "channel": ("", "x", *CHANNEL_KINDS),
    "target": ("", "x", *TARGETS),
    "fmt": ("", "x", *FORMATS),
}


def _numbers(path):
    """Every token of a table or metadata file that reads as a float."""
    for token in path.read_text().replace(",", " ").replace("=", " ").split():
        try:
            yield float(token)
        except ValueError:
            continue


@settings(max_examples=600, deadline=None)
@given(scenario=st.sampled_from(sorted(scenarios.RUNNERS)), key=st.sampled_from(sorted(_KEY_EDGES)),
       data=st.data())
def test_every_scenario_takes_every_key_edge(scenario, key, data):
    # a small run with one key at a domain edge exits 0 with finite outputs,
    # 2 naming the key, or 3 (refused by the memory budget, which keeps every
    # admitted run small)
    value = data.draw(st.sampled_from(_KEY_EDGES[key]))
    flag = KEYS[key].flag
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([scenario, "--steps", "4", "--sigma", "1", "--max-bytes", "2e7",
                         f"{flag}={value}", "--out", out])
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            for path in Path(out).iterdir():
                assert all(np.isfinite(list(_numbers(path)))), path.name
        if code == 2:
            assert key in err.getvalue() or flag in err.getvalue(), err.getvalue()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_catstates_refuses_a_theta_that_is_not_finite(value, tmp_path, capsys):
    # the edge test above draws this case about once in 500 examples; here
    # it runs every time
    assert main(["catstates", "--steps", "4", "--sigma", "1", f"--theta={value}",
                 "--out", str(tmp_path)]) == 2
    assert "--theta" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_catstates_width_sweep_lattice_is_guarded(tmp_path, capsys):
    # the run's own N=28 state fits 20000 B; the width sweep's N=920 state,
    # 29440 B, does not, and is refused before anything is written
    argv = ["catstates", "--steps", "10", "--sigma", "1", "--max-bytes", "20000"]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert "N=920" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_catstates_entropy_of_the_product_start_reads_0(tmp_path):
    # the step-0 start is a product state: its entropy is written 0, not -0
    assert main(["catstates", "--steps", "20", "--sigma", "3", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "catstates_entropy.csv").read_text().splitlines()
    assert rows[:2] == ["step,entropy_bits", "0,0"]


def test_cli_unwritable_out_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["spectrum", "--lattice", "4", "--out", str(blocker / "sub")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("catwalk: cannot write outputs: ")
    assert err.count("\n") == 1


def test_open_revival_peak_within_guard_prediction():
    n = 64
    psi = gaussian_position_state(make_lattice(n), 3.0, COIN_SYMMETRIC)
    spec = ChannelSpec("amplitude_damping", 0.01)
    revival_protocol(psi, np.pi / 4, 3, channel=spec)  # first-call allocations
    tracemalloc.start()
    try:
        revival_protocol(psi, np.pi / 4, 3, channel=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= density_working_set_bytes(n)


@pytest.mark.parametrize("n", [64, 160, 300])
@pytest.mark.parametrize("spec, density", [
    pytest.param(ChannelSpec("dephasing", 0.01, "coin"), False, id="coin"),
    pytest.param(ChannelSpec("bit_flip", 0.01), False, id="flip"),
    pytest.param(ChannelSpec("dephasing", 0.01, "walker"), False, id="walker"),
    # the largest one-block fidelity layout: a DensityOperator start keeps
    # every line of all N momenta, beside the fidelity start and the S^T
    # start that an owing state is read against
    pytest.param(ChannelSpec("amplitude_damping", 0.01), True, id="density"),
])
def test_open_fidelity_peak_within_guard_prediction(spec, density, n):
    # a coin-local fidelity run holds S^T start beside the fidelity start
    psi = gaussian_position_state(make_lattice(n), 3.0, COIN_SYMMETRIC)
    sched = Schedule(6, np.pi / 4, channel=spec)
    # the start is built before the trace, as psi is
    rho0 = DensityOperator.from_pure(psi) if density else None
    run = ((lambda: channels._run_open(rho0, sched, fidelity_times=range(7))) if density
           else (lambda: fidelity_trace(psi, sched)))
    run()  # first-call allocations
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= density_working_set_bytes(n)


def _final_distribution(result):
    return position_distribution(result.final)


@pytest.mark.parametrize("n", [64, 160, 300])
@pytest.mark.parametrize("spec, observe", [
    pytest.param(ChannelSpec("dephasing", 0.01, "both"), OpenResult.distribution, id="spec0"),
    pytest.param(ChannelSpec("amplitude_damping", 0.01), OpenResult.distribution, id="spec1"),
    pytest.param(ChannelSpec("bit_flip", 0.01), OpenResult.distribution, id="spec2"),
    # a library caller that reads the final state materializes and validates it
    pytest.param(ChannelSpec("dephasing", 0.01, "both"), _final_distribution, id="final"),
])
def test_open_final_peak_within_guard_prediction(spec, observe, n):
    # shaped like decohereprob: state preparation, evolve_open, final
    # distribution, from the largest layout, every line of all N momenta
    lat = make_lattice(n)

    def run():
        psi = gaussian_position_state(lat, 3.0, COIN_SYMMETRIC)
        sched = Schedule(6, np.pi / 4, channel=spec)
        return observe(evolve_open(DensityOperator.from_pure(psi), sched))

    run()  # first-call allocations
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= density_working_set_bytes(n)


@pytest.mark.parametrize("target", ["coin", "walker", "both"])
def test_cli_revival_huge_eta_gives_finite_r(target, tmp_path, capsys):
    argv = ["revival", "--eta", "1000", "--steps", "5", "--sigma", "2",
            "--target", target, "--out", str(tmp_path)]
    assert main(argv) == 0
    r = _meta_r(tmp_path / "revival_meta.txt")
    assert np.isfinite(r) and 0.0 <= r <= 1.0


def _meta_r(path):
    meta = path.read_text().splitlines()
    return float(next(line for line in meta if line.startswith("r="))[2:])


@pytest.mark.parametrize("target", [None, "walker"])
@pytest.mark.parametrize("channel", ["amplitude_damping", "bit_flip"])
def test_cli_revival_coin_channels_ignore_target(channel, target, tmp_path, capsys):
    # amplitude damping and bit flip act on the coin whatever --target says
    argv = ["revival", "--eta", "0.01", "--steps", "3", "--sigma", "2",
            "--channel", channel, "--out", str(tmp_path)]
    assert main(argv + (["--target", target] if target else [])) == 0
    assert 0.0 <= _meta_r(tmp_path / "revival_meta.txt") <= 1.0


@pytest.mark.parametrize("target", [None, "walker"])
@pytest.mark.parametrize("channel", ["amplitude_damping", "bit_flip"])
def test_cli_revival_records_the_target_used(channel, target, tmp_path, capsys):
    argv = ["revival", "--eta", "0.01", "--steps", "3", "--sigma", "2",
            "--channel", channel, "--out", str(tmp_path)]
    assert main(argv + (["--target", target] if target else [])) == 0
    assert "target=coin" in (tmp_path / "revival_meta.txt").read_text().splitlines()


def test_cli_decohereprob_records_the_target_of_each_table(tmp_path, capsys):
    # target= echoes the config; amplitude damping and bit flip ran on the coin
    argv = ["decohereprob", "--eta", "0.01", "--steps", "3", "--sigma", "2",
            "--target", "walker", "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "decohereprob_meta.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("target")] == [
        "target=walker", "target.amplitude_damping=coin", "target.bit_flip=coin",
        "target.dephasing=walker"]


def test_cli_decohereprob_records_the_trace_defect_of_each_table(tmp_path, capsys):
    argv = ["decohereprob", "--eta", "0.01", "--steps", "10", "--sigma", "3",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    meta = dict(line.split("=", 1) for line in
                (tmp_path / "decohereprob_meta.txt").read_text().splitlines())
    for kind in CHANNEL_KINDS:
        table = np.genfromtxt(tmp_path / f"decohereprob_{kind}.csv", delimiter=",", names=True)
        defect = float(meta[f"trace_defect.{kind}"])
        assert defect == abs(table["probability"].sum() - 1.0) <= 1e-10


@pytest.mark.parametrize("scenario, channel", [
    pytest.param("decohere", None, id="decohere"),
    pytest.param("decohereprob", None, id="decohereprob"),
    pytest.param("revival", "dephasing", id="revival"),
    pytest.param("revival", "amplitude_damping", id="revival_coin"),
])
def test_cli_open_scenarios_record_the_support_of_each_table(scenario, channel, tmp_path, capsys):
    # support.<table>=LINESxRING: walker and both dephasing step the ring of
    # all N momenta, the coin-local channels a narrower window ring (on a
    # lattice wider than the sizing rule's: a tight one keeps every momentum);
    # support_tail.<table> is the weight of the lines a ring of all N drops
    argv = [scenario, "--steps", "6", "--sigma", "5", "--lattice", "160", "--target", "walker",
            "--out", str(tmp_path)]
    assert main(argv + (["--channel", channel] if channel else [])) == 0
    meta = dict(line.split("=", 1) for line in
                (tmp_path / f"{scenario}_meta.txt").read_text().splitlines())
    n = int(meta["lattice"])
    tables = {path.stem.removeprefix(f"{scenario}_") for path in tmp_path.glob("*.csv")}
    support = {key.removeprefix("support."): value for key, value in meta.items()
               if key.startswith("support.")}
    tails = {key.removeprefix("support_tail."): float(value) for key, value in meta.items()
             if key.startswith("support_tail.")}
    assert set(support) == set(tails) == tables
    for table, value in support.items():
        lines, ring = map(int, value.split("x"))
        assert 1 <= lines <= ring // 2 + 1
        full_ring = table in ("dephasing_walker", "dephasing_both", "dephasing") or (
            table == "fidelity" and channel == "dephasing")
        assert (ring == n) == full_ring, (table, value)
        assert 0.0 <= tails[table] <= 1e-30
        assert (tails[table] > 0) == full_ring == (lines < ring // 2 + 1), (table, tails[table])


@pytest.mark.parametrize("argv, layouts", [
    pytest.param(["decohere", "--steps", "30", "--sigma", "5"], 15, id="decohere"),
    pytest.param(["decohereprob", "--steps", "40", "--lattice", "400"], 3, id="decohereprob"),
    pytest.param(["revival", "--eta", "0.01", "--steps", "30", "--sigma", "5"], 1, id="revival"),
])
def test_cli_open_scenarios_lay_each_run_out_once(argv, layouts, monkeypatch, tmp_path, capsys):
    # the support a table records is the one its run stepped, not a second layout;
    # every module-level binding of open_layout counts
    calls = []
    original = channels.open_layout

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("catwalk")]:
        if getattr(module, "open_layout", None) is original:
            monkeypatch.setattr(module, "open_layout", counted)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == layouts


def test_cli_decohere_contracts_once_per_revival(monkeypatch, tmp_path, capsys):
    # decohere reads r alone, so each of its 15 revivals (5 variants x 3 eta)
    # takes one overlap, at 2T, not one after each of its 2T + 1 = 61 times
    calls = []
    vdot = np.vdot

    def counted(*args):
        calls.append(args)
        return vdot(*args)

    monkeypatch.setattr(np, "vdot", counted)
    assert main(["decohere", "--steps", "30", "--sigma", "5", "--out", str(tmp_path)]) == 0
    assert len(calls) == 15


@pytest.mark.parametrize("target", TARGETS)
def test_cli_decohereprob_never_materializes_rho(target, monkeypatch, tmp_path, capsys):
    # P(x) comes from the momentum support; no (N, 2, N, 2) matrix is built
    def refuse(layout, work):
        raise AssertionError("decohereprob materialized rho")

    monkeypatch.setattr(MomentumLayout, "materialize", refuse)
    argv = ["decohereprob", "--steps", "10", "--lattice", "64", "--sigma", "3",
            "--target", target, "--out", str(tmp_path)]
    assert main(argv) == 0


def test_cli_decohereprob_results_hold_no_rows(monkeypatch, tmp_path, capsys):
    # a final-state run from a pure start keeps only two sums a line, not its
    # block allocation, so a result held through the next channel's run
    # holds no rows beside it
    results = []

    def tracked(*args):
        result = evolve_open(*args)
        results.append(result)
        return result

    monkeypatch.setattr(scenarios, "evolve_open", tracked)
    argv = ["decohereprob", "--steps", "10", "--lattice", "64", "--sigma", "3",
            "--target", "coin", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert len(results) == len(CHANNEL_KINDS)
    for result in results:
        assert result.work is None and result.sums.shape == (2, result.layout.lines)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("channel", CHANNEL_KINDS)
@pytest.mark.parametrize("scenario", ["revival", "decohere", "decohereprob"])
def test_cli_channel_vocabulary_never_raises(scenario, channel, target, tmp_path, capsys):
    # every kind x target the config accepts reaches a channel runner without a traceback
    argv = [scenario, "--steps", "2", "--sigma", "1", "--eta", "0.01",
            "--channel", channel, "--target", target, "--out", str(tmp_path)]
    assert main(argv) in (0, 2, 3)


def test_cli_out_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CATWALK_OUT", str(tmp_path))
    code = main(["spectrum", "--lattice", "16"])
    assert code == 0
    assert (tmp_path / "spectrum_bands.csv").exists()


def test_cli_out_precedence_is_flag_file_env(tmp_path, capsys, monkeypatch):
    # $CATWALK_OUT is the default of out, so a config file's out= beats it
    monkeypatch.setenv("CATWALK_OUT", str(tmp_path / "env"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out={tmp_path / 'file'}\n")
    assert main(["spectrum", "--lattice", "16", "--config", str(cfg)]) == 0
    assert (tmp_path / "file" / "spectrum_bands.csv").exists()
    assert main(["spectrum", "--lattice", "16", "--config", str(cfg),
                 "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "spectrum_bands.csv").exists()
    assert not (tmp_path / "env").exists()
    assert main(["spectrum", "--lattice", "16"]) == 0
    assert "provenance.out=default" in (tmp_path / "env" / "spectrum_meta.txt").read_text()


def test_cli_metadata_echoes_every_key_but_out_fmt_and_max_bytes(tmp_path, capsys):
    # floats are written as repr, the rest as text, lattice as the resolved N
    echoed = {"theta": "0.30000000000000004", "sigma": "2.5", "steps": "3", "eta": "0.001",
              "channel": "bit_flip", "target": "coin", "p": "7", "n": "2", "k0": "0.1",
              "lattice": "16", "stride": "2"}
    argv = ["spectrum", "--theta", "0.30000000000000004", "--sigma", "2.50", "--steps", "03",
            "--eta", "1e-3", "--channel", "bit_flip", "--target", "coin", "--p", "7", "--n", "2",
            "--k0", ".1", "--lattice", "16", "--stride", "2", "--max-bytes", "1e9",
            "--format", "csv", "--out", str(tmp_path)]
    assert {key.flag for key in KEYS.values()} <= set(argv)
    assert main(argv) == 0
    lines = (tmp_path / "spectrum_meta.txt").read_text().splitlines()
    meta = dict(line.split("=", 1) for line in lines)
    provenance = {k[len("provenance."):]: v for k, v in meta.items() if k.startswith("provenance.")}
    assert provenance == dict.fromkeys([*echoed, "out", "fmt", "max_bytes"], "flag")
    assert len(provenance) == 14
    assert {k: v for k, v in meta.items() if not k.startswith("provenance.")} == {
        "scenario": "spectrum", "version": catwalk.__version__, **echoed}


def test_cli_plot_format(tmp_path, capsys):
    code = main(
        ["spectrum", "--lattice", "16", "--format", "plot", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "spectrum_bands.dat").exists()
    assert not (tmp_path / "spectrum_bands.csv").exists()
    line = (tmp_path / "spectrum_bands.dat").read_text().splitlines()[0]
    assert len(line.split()) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--steps", "8", "--sigma", "2", "--stride", "4"],
        ["spectrum", "--lattice", "32", "--theta", "0.7"],
        ["qwalk", "--steps", "12", "--sigma", "2", "--lattice", "64"],
        ["revival", "--steps", "10", "--sigma", "2", "--eta", "0"],
        ["revival", "--steps", "5", "--sigma", "2", "--eta", "0.01", "--target", "walker"],
    ],
)
def test_cli_reruns_are_byte_identical(argv, tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert read(a / name) == read(b / name)


def test_bench_replay_runs_on_the_public_wrappers(monkeypatch):
    # the benchmark's --trace 1 replays these wrappers; keep them importable and working
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(tracing, "REPLAY_MIN_S", 0.0)
    out = tracing.replay(16, 2.0, np.pi / 4)
    assert set(out) == {
        "walk.step_density.ms",
        "walk.conjugate_coin.ms",
        "lattice.fidelity_with_density.ms",
        "lattice.density_validate.ms",
        "lattice.density_matrix_mb",
        *(f"channels.apply_channel.ms.{v}" for v in tracing.CHANNEL_VARIANTS),
    }
    assert all(np.isfinite(v) for v in out.values())


@pytest.mark.parametrize("workload", ["open_revival", "open_final", "closed_sweep"])
def test_seed_0_passes_the_bench_reference(workload, monkeypatch, tmp_path, capsys):
    # the benchmark's correctness gate on each workload, so that a numerics
    # change that moves a reference output fails here first; the open
    # workloads also run seed 7, checked on the invariants only, and every
    # workload runs seed 0 again with the benchmark's tracer installed, as
    # its traced runs do, which must count the workload's steps
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    for name in ("check", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    check = importlib.import_module("check")
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    reference = check.load_reference(
        Path(check.__file__).parent / "reference" / f"{workload}.npz")
    seeds = (0,) if workload == "closed_sweep" else (0, 7)
    runs = [(seed, None) for seed in seeds] + [(0, tracing.Tracer())]
    for i, (seed, tracer) in enumerate(runs):
        out = tmp_path / str(i)
        out.mkdir()
        argv_list = workloads.argvs(workloads.WORKLOADS[workload], seed)
        if tracer is not None:
            tracer.install()
        try:
            for argv in argv_list:
                assert main(argv + ["--out", str(out)]) == 0
        finally:
            if tracer is not None:
                tracer.uninstall()
        assert check.check_outputs(out, reference, seed, argv_list) == []
        if tracer is not None:
            assert tracing.counted_steps(tracer.spans) == workloads.WORKLOADS[workload].steps
            # the tracer counts a table's rows as Table.rows.shape[0]
            data_lines = sum(len(p.read_text().splitlines()) - 1 for p in out.glob("*.csv"))
            assert tracing.span_metrics(tracer.spans)["io.rows"] == data_lines
