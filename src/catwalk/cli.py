"""Command-line entry point.

``catwalk <scenario> [flags]``: one scenario per figure plus generic
``evolve`` and ``spectrum``, with ``--config`` and a flag per config key in
any order.  Exit codes: 0 success, 2 configuration error, 3 resource guard
refusal, 4 outputs that cannot be written.  The output directory is --out,
else a config file's out=, else $CATWALK_OUT, else ".".
"""

from __future__ import annotations

import argparse
import sys

from .channels import ChannelError
from .config import KEYS, ConfigError, parse_config
from .io import emit_results
from .lattice import LatticeError, StateError
from .scenarios import RUNNERS, ResourceGuardError, run_scenario
from .walk import ScheduleError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_OUTPUT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catwalk",
        description="Quantum-walk cat-state experiments; emits CSV tables "
        "and key=value metadata per scenario.",
    )
    parser.add_argument("scenario", choices=sorted(RUNNERS), metavar="scenario",
                        help=" | ".join(sorted(RUNNERS)))
    parser.add_argument("--config", help="key=value config file")
    for dest, key in KEYS.items():
        parser.add_argument(key.flag, dest=dest, help=key.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: getattr(args, k) for k in KEYS}

    try:
        text = ""
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text, flags=flags, scenario=args.scenario)
        record = run_scenario(cfg)
    except ResourceGuardError as exc:
        print(f"catwalk: refused: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConfigError, ChannelError, LatticeError, StateError, ScheduleError) as exc:
        print(f"catwalk: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        written = emit_results(record, cfg.out, cfg.fmt)
    except OSError as exc:
        print(f"catwalk: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
