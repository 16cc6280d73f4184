"""Experiment configuration: flat key=value files, flag overrides, defaults.

Precedence is flag > file > default, and the origin of every value is
recorded so emitted metadata can state where each parameter came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
import math
from typing import Callable, NamedTuple

from .channels import CHANNEL_KINDS, DEPHASING, TARGET_BOTH, TARGETS

FORMATS = ("csv", "plot", "both")

OUT_ENV = "CATWALK_OUT"


class ConfigError(ValueError):
    """Bad key, bad type, or out-of-range value in a configuration."""


@dataclass
class ExperimentConfig:
    """Resolved parameters for one scenario run.

    ``lattice`` of None means auto-sizing from the run length and packet
    width.  ``provenance`` maps each field name to "flag", "file", or
    "default".
    """

    scenario: str = ""
    theta: float = math.pi / 4
    sigma: float = 10.0
    k0: float = 0.0
    steps: int = 150
    eta: float = 0.01
    channel: str = DEPHASING
    target: str = TARGET_BOTH
    p: int = 10
    n: int = 5
    lattice: int | None = None
    out: str = "."
    stride: int = 10
    fmt: str = "csv"
    max_bytes: float = 4e9
    provenance: dict = field(default_factory=dict)


class Key(NamedTuple):
    """One scenario key: its CLI flag, value type and help text."""

    flag: str
    type: Callable
    help: str
    choices: tuple | None = None


# Every key a config file or a flag may set, in CLI help order.  File values
# and flags are parsed alike, with the key's type, except that lattice also
# takes "auto".
KEYS = {
    "theta": Key("--theta", float, "coin angle (radians)"),
    "sigma": Key("--sigma", float, "initial Gaussian width (sites)"),
    "steps": Key("--steps", int, "walk steps (T or t per scenario)"),
    "eta": Key("--eta", float, "per-step bath strength"),
    "channel": Key("--channel", str, " | ".join(CHANNEL_KINDS)),
    "target": Key("--target", str, " | ".join(TARGETS) + " (dephasing only)"),
    "p": Key("--p", int, "momentum-shift period parameter"),
    "n": Key("--n", int, "number of 2p hold cycles"),
    "k0": Key("--k0", float, "initial mean momentum"),
    "lattice": Key("--lattice", int, "lattice size N (default auto)"),
    "stride": Key("--stride", int, "snapshot stride in steps"),
    "max_bytes": Key("--max-bytes", float, "memory budget in bytes for one run's states"),
    "out": Key("--out", str, f"output directory (default ${OUT_ENV} or current dir)"),
    "fmt": Key("--format", str, "table output format (default csv)", FORMATS),
}


def _parse(key: str, text: str):
    return None if key == "lattice" and text == "auto" else KEYS[key].type(text)


def _validate(cfg: ExperimentConfig) -> None:
    def bad(key, why):
        raise ConfigError(f"{key}: {why}")

    for key in ("theta", "sigma", "k0", "eta", "max_bytes"):
        if not math.isfinite(getattr(cfg, key)):
            bad(key, f"must be finite, got {getattr(cfg, key)}")
    if cfg.sigma <= 0:
        bad("sigma", f"must be > 0, got {cfg.sigma}")
    if cfg.steps < 0:
        bad("steps", f"must be >= 0, got {cfg.steps}")
    if cfg.eta < 0:
        bad("eta", f"must be >= 0, got {cfg.eta}")
    if cfg.channel not in CHANNEL_KINDS:
        bad("channel", f"must be one of {CHANNEL_KINDS}, got {cfg.channel!r}")
    if cfg.target not in TARGETS:
        bad("target", f"must be one of {TARGETS}, got {cfg.target!r}")
    if cfg.p < 1:
        bad("p", f"must be >= 1, got {cfg.p}")
    if cfg.n < 0:
        bad("n", f"must be >= 0, got {cfg.n}")
    if cfg.lattice is not None and (cfg.lattice < 4 or cfg.lattice % 2):
        bad("lattice", f"must be even and >= 4 (or auto), got {cfg.lattice}")
    if cfg.stride < 1:
        bad("stride", f"must be >= 1, got {cfg.stride}")
    if cfg.fmt not in FORMATS:
        bad("fmt", f"must be one of {FORMATS}, got {cfg.fmt!r}")
    if cfg.max_bytes <= 0:
        bad("max_bytes", f"must be > 0, got {cfg.max_bytes}")


def parse_config(
    text: str = "",
    flags: dict | None = None,
    scenario: str = "",
) -> ExperimentConfig:
    """Build a validated config from file text plus flag overrides.

    File format is one ``key=value`` per line with ``#`` comments and
    blank lines allowed.  Unknown keys, unparsable values, and range
    violations raise ConfigError naming the offender (with its line
    number for file entries).
    """
    cfg = ExperimentConfig(scenario=scenario)
    prov = {f.name: "default" for f in fields(cfg) if f.name not in ("scenario", "provenance")}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _parse(key, value))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
        prov[key] = "file"

    for key, value in (flags or {}).items():
        if value is None:
            continue
        if key not in KEYS:
            raise ConfigError(f"flag --{key}: unknown key")
        try:
            parsed = _parse(key, value) if isinstance(value, str) else value
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"flag --{key}: {exc}") from exc
        setattr(cfg, key, parsed)
        prov[key] = "flag"

    cfg.provenance = prov
    _validate(cfg)
    return cfg
