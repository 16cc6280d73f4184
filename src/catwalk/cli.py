"""Command-line entry point.

One subcommand per figure scenario plus generic ``evolve`` and
``spectrum``.  Exit codes: 0 success, 2 configuration error, 3 resource
guard refusal.  The CATWALK_OUT environment variable sets the default
output root; --out overrides it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .channels import ChannelError
from .config import KEYS, OUT_ENV, ConfigError, parse_config
from .io import emit_results
from .lattice import LatticeError, StateError
from .scenarios import RUNNERS, ResourceGuardError, run_scenario
from .walk import ScheduleError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catwalk",
        description="Quantum-walk cat-state experiments; emits CSV tables "
        "and key=value metadata per scenario.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in sorted(RUNNERS):
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", help="key=value config file")
        for dest, key in KEYS.items():
            sp.add_argument(key.flag, dest=dest, help=key.help, choices=key.choices)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: getattr(args, k) for k in KEYS}
    if flags["out"] is None:
        flags["out"] = os.environ.get(OUT_ENV)

    try:
        text = ""
        if args.config:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text, flags=flags, scenario=args.scenario)
        record = run_scenario(cfg)
        written = emit_results(record, cfg.out, cfg.fmt)
    except ResourceGuardError as exc:
        print(f"catwalk: refused: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConfigError, ChannelError, LatticeError, StateError, ScheduleError) as exc:
        print(f"catwalk: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
