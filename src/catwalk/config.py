"""Experiment configuration: flat key=value files, flag overrides, defaults.

Precedence is flag > file > the scenario's own default (SCENARIO_DEFAULTS)
> the key's default, and the origin of every value is recorded ("flag",
"file" or "default") so emitted metadata can state where each came from.
Each key is one ExperimentConfig field: its annotation is the value type,
and its metadata holds the flag, help, valid range and whether runs echo
it.  ``out`` defaults to $CATWALK_OUT, else ".", read when a config is built.
"""

from dataclasses import dataclass, field, fields
import math
import os
from typing import NamedTuple, get_args

from .channels import CHANNEL_KINDS, DEPHASING, TARGET_BOTH, TARGETS
from .io import FORMATS

OUT_ENV = "CATWALK_OUT"


class ConfigError(ValueError):
    """Bad key, bad type, or out-of-range value in a configuration."""


# A valid range is (test, text): a value failing the test is refused as
# "<where>: must be <text>, got <value>", <where> naming the flag or the
# file line and key that set it (the key alone for a default).
def _above(low):
    return (lambda v: v > low), f"> {low}"


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _one_of(values):
    return (lambda v: v in values), f"one of {values}"


def _key(flag, help, valid=None, echo=True, **default):
    """A key's field; ``default`` is its ``default=`` or ``default_factory=``."""
    return field(**default, metadata=dict(flag=flag, help=help, valid=valid, echo=echo))


@dataclass
class ExperimentConfig:
    """Resolved parameters for one scenario run, one field per key in CLI
    help order.

    ``lattice`` of None means auto-sizing from the run length and packet
    width.  ``provenance`` maps each key to "flag", "file", or "default".
    """

    scenario: str = ""
    theta: float = _key("--theta", "coin angle (radians)", default=math.pi / 4)
    sigma: float = _key("--sigma", "initial Gaussian width (sites)", _above(0), default=10.0)
    steps: int = _key("--steps", "walk steps (T or t per scenario)", _at_least(0), default=150)
    eta: float = _key("--eta", "per-step bath strength", _at_least(0), default=0.01)
    channel: str = _key("--channel", " | ".join(CHANNEL_KINDS), _one_of(CHANNEL_KINDS),
                        default=DEPHASING)
    target: str = _key("--target", " | ".join(TARGETS) + " (dephasing only)", _one_of(TARGETS),
                       default=TARGET_BOTH)
    p: int = _key("--p", "momentum-shift period parameter", _at_least(1), default=10)
    n: int = _key("--n", "number of 2p hold cycles", _at_least(0), default=5)
    k0: float = _key("--k0", "initial mean momentum", default=0.0)
    # a key whose type admits None also takes "auto" for it
    lattice: int | None = _key(
        "--lattice", "lattice size N (default auto)",
        ((lambda n: n is None or (n >= 4 and n % 2 == 0)), "even and >= 4 (or auto)"),
        default=None)
    stride: int = _key("--stride", "snapshot stride in steps", _at_least(1), default=10)
    max_bytes: float = _key("--max-bytes", "memory budget in bytes for one run's states",
                            _above(0), echo=False, default=4e9)
    out: str = _key("--out", f"output directory (default ${OUT_ENV} or current dir)",
                    echo=False, default_factory=lambda: os.environ.get(OUT_ENV, "."))
    fmt: str = _key("--format", "table output format: " + " | ".join(FORMATS) + " (default csv)",
                    _one_of(FORMATS), echo=False, default="csv")
    provenance: dict = field(default_factory=dict)


# Figure-faithful defaults: a scenario's value for a key that neither the
# file nor a flag sets.
SCENARIO_DEFAULTS = {
    "dirac": {"theta": math.pi / 2.4},
    "revival": {"steps": 97},
    "decohereprob": {"steps": 250},
    "decohere": {"steps": 50},
    "electricfid": {"sigma": 9.0, "steps": 100},
}


class Key(NamedTuple):
    """One key's field: ``type`` is what its text parses to, and ``auto``
    whether it also takes "auto" (None)."""

    flag: str
    type: type
    help: str
    valid: tuple | None
    echo: bool
    auto: bool


# Every key a config file or a flag may set, in CLI help order.  File values
# and flags are parsed alike.  The types are read from the field annotations
# at run time, which is why this module does not postpone annotations.
KEYS = {
    f.name: Key(type=(get_args(f.type) or (f.type,))[0], auto=type(None) in get_args(f.type),
                **f.metadata)
    for f in fields(ExperimentConfig) if f.metadata
}


def _parse(key: str, text: str):
    return None if KEYS[key].auto and text == "auto" else KEYS[key].type(text)


def _validate(cfg: ExperimentConfig, named: dict) -> None:
    for key, spec in KEYS.items():
        value, where = getattr(cfg, key), named.get(key, key)
        if spec.type is float and not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite, got {value}")
        if spec.valid and not spec.valid[0](value):
            raise ConfigError(f"{where}: must be {spec.valid[1]}, got {value!r}")


def parse_config(
    text: str = "",
    flags: dict | None = None,
    scenario: str = "",
) -> ExperimentConfig:
    """Build a validated config for ``scenario`` from file text plus flag
    overrides, over the scenario's SCENARIO_DEFAULTS and the key defaults.

    File format is one ``key=value`` per line with ``#`` comments and
    blank lines allowed.  Unknown keys, unparsable values, and range
    violations raise ConfigError naming the offender as the user wrote
    it: a flag by its flag, a file entry by its line number and key.
    """
    cfg = ExperimentConfig(scenario=scenario, **SCENARIO_DEFAULTS.get(scenario, {}))
    prov = dict.fromkeys(KEYS, "default")
    named = {}  # how refusals name each key that is set
    for where, key, value, origin in _entries(text, flags or {}):
        if key not in KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        named[key] = f"flag {KEYS[key].flag}" if origin == "flag" else f"{where}: {key}"
        try:
            setattr(cfg, key, _parse(key, value) if isinstance(value, str) else value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{named[key]}: {exc}") from exc
        prov[key] = origin
    cfg.provenance = prov
    _validate(cfg, named)
    return cfg


def _entries(text: str, flags: dict):
    """(where, key, value, origin) of each file line, then of each flag that
    is set; a line that is not key=value raises ConfigError."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        yield f"line {lineno}", key.strip(), value.strip(), "file"
    for key, value in flags.items():
        if value is not None:
            yield f"flag --{key}", key, value, "flag"
