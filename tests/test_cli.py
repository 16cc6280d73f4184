import copy
import importlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import catwalk
from catwalk import scenarios
from catwalk.analysis import position_distribution, revival_protocol
from catwalk.channels import CHANNEL_KINDS, TARGETS, ChannelSpec, evolve_open
from catwalk.cli import build_parser, main
from catwalk.config import KEYS, ConfigError, ExperimentConfig, parse_config
from catwalk.io import CHUNK_ROWS, ResultRecord, Table, emit_results
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
    with pytest.raises(ConfigError, match="fmt"):
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
    ("channel", "bit_flip", "bitflip",
     "channel: must be one of ('dephasing', 'amplitude_damping', 'bit_flip'), got 'bitflip'"),
    ("target", "both", "all", "target: must be one of ('coin', 'walker', 'both'), got 'all'"),
    ("fmt", "both", "json", "fmt: must be one of ('csv', 'plot', 'both'), got 'json'"),
])
def test_each_key_range_edge(key, accepted, refused, message):
    # a file value and a flag value meet the same range and the same refusal
    for build in (lambda v: parse_config(f"{key}={v}\n"), lambda v: parse_config(flags={key: v})):
        expected = None if accepted == "auto" else KEYS[key].type(accepted)
        assert getattr(build(accepted), key) == expected
        with pytest.raises(ConfigError) as refusal:
            build(refused)
        assert str(refusal.value) == message


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
        "catwalk: config error: fmt: must be one of ('csv', 'plot', 'both'), got 'json'\n")
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
    table = Table("demo", ("x", "y"), ("int", "float"), np.array([[1, 0.5], [2, 0.25]]))
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


def test_emit_results_seventeen_digits(tmp_path):
    value = 1.0 / 3.0
    table = Table("v", ("y",), ("float",), np.array([[value]]))
    emit_results(ResultRecord("toy", {}, [table]), tmp_path)
    body = (tmp_path / "toy_v.csv").read_text().splitlines()[1]
    assert float(body) == value
    assert len(body.replace(".", "").lstrip("0")) >= 17


def per_cell(value, dtype):
    return str(int(round(value))) if dtype == "int" else "%.17g" % value


@pytest.mark.parametrize("fmt", ["csv", "plot", "both"])
def test_emit_results_matches_per_cell_oracle(fmt, tmp_path):
    # one and a half chunks, the awkward values straddling the chunk boundary
    rows = np.random.default_rng(0).random((CHUNK_ROWS + CHUNK_ROWS // 2, 4))
    rows[:, 1] = np.arange(rows.shape[0]) - 7
    edge = slice(CHUNK_ROWS - 2, CHUNK_ROWS + 3)
    rows[edge, 0] = [1e300, -5e-324, 5e-324, 1 / 3, -0.0]
    rows[edge, 2] = [-0.4, 2.5, 3.5, -2.5, 1e300]
    rows[edge, 3] = [-0.0, 1 / 3, 5e-324, -5e-324, 1e300]
    dtypes = ("float", "int", "int", "float")
    table = Table("t", ("a", "b", "c", "d"), dtypes, rows)
    emit_results(ResultRecord("toy", {}, [table]), tmp_path, fmt=fmt)
    cells = [[per_cell(v, d) for v, d in zip(row, dtypes)] for row in rows.tolist()]
    csv = tmp_path / "toy_t.csv"
    dat = tmp_path / "toy_t.dat"
    if fmt == "plot":
        assert not csv.exists()
    else:
        assert csv.read_text() == "a,b,c,d\n" + "".join(",".join(c) + "\n" for c in cells)
    if fmt == "csv":
        assert not dat.exists()
    else:
        assert dat.read_text() == "".join(" ".join(c[-2:]) + "\n" for c in cells)


def test_emit_results_refuses_nan_in_int_column(tmp_path):
    rows = np.zeros((CHUNK_ROWS + 3, 2))
    rows[CHUNK_ROWS + 1, 0] = np.nan
    table = Table("t", ("x", "p"), ("int", "float"), rows)
    for fmt in ("csv", "plot"):
        with pytest.raises(ValueError):
            emit_results(ResultRecord("toy", {}, [table]), tmp_path, fmt=fmt)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["toy_meta.txt"]


def test_cli_import_leaves_scipy_out():
    code = "import sys, catwalk.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(catwalk.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


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
])
def test_cli_refuses_oversized_inputs_without_a_traceback(argv, code, message, tmp_path, capsys):
    # an infinite sizing rule is a config error; a lattice whose one (N, 2)
    # state alone exceeds --max-bytes is refused before anything is allocated
    assert main(argv + ["--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"catwalk: {message}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_catstates_width_sweep_lattice_is_guarded(tmp_path, capsys):
    # the run's own N=28 state fits 20000 B; the width sweep's N=920 state,
    # 29440 B, does not, and is refused before anything is written
    argv = ["catstates", "--steps", "10", "--sigma", "1", "--max-bytes", "20000"]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert "N=920" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
@pytest.mark.parametrize("spec, fm_windows", [
    pytest.param(ChannelSpec("dephasing", 0.01, "both"), (), id="spec0"),
    pytest.param(ChannelSpec("amplitude_damping", 0.01), (), id="spec1"),
    pytest.param(ChannelSpec("bit_flip", 0.01), (), id="spec2"),
    # an F_m window runs apply_fm, which goes through position space block by block
    pytest.param(ChannelSpec("dephasing", 0.01, "both"), ((2, 4, 0.3),), id="fm"),
])
def test_open_final_peak_within_guard_prediction(spec, fm_windows, n):
    # shaped like decohereprob: state preparation, evolve_open, final distribution
    lat = make_lattice(n)

    def run():
        psi = gaussian_position_state(lat, 3.0, COIN_SYMMETRIC)
        sched = Schedule(6, np.pi / 4, fm_windows=fm_windows, channel=spec)
        return position_distribution(evolve_open(DensityOperator.from_pure(psi), sched).final)

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
