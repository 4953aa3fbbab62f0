"""Command line front end: `doilab <subcommand> [--config path] [--seed N] [--out path]`.

Exit codes: 0 success, 2 assertion-experiment violation, 3 config error
(including an output path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import (
    RUNNERS,
    ConfigError,
    ExperimentConfig,
    ViolationError,
    config_from_dict,
    run_all,
    write_outputs,
)

SUBCOMMANDS = [*sorted(RUNNERS), "all"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="doilab", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output CSV path")
    return parser


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def check_output_path(path: str):
    """Raise ConfigError unless neither `path` nor its summary
    `<path>.summary.json` is a directory, their directory exists and is
    writable, and both names fit its NAME_MAX, so that a run learns before
    it computes any row that it could not save them."""
    directory = os.path.dirname(path) or "."
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"cannot write output: the directory of {path} is missing or not writable")
    # -1: the file system sets no limit, or the platform has no pathconf
    name_max = os.pathconf(directory, "PC_NAME_MAX") if hasattr(os, "pathconf") else -1
    for target in (path, path + ".summary.json"):
        if os.path.isdir(target):
            raise ConfigError(f"cannot write output: {target} is a directory")
        if 0 <= name_max < len(os.fsencode(os.path.basename(target))):
            raise ConfigError(f"cannot write output: the name of {target} is longer than {name_max} bytes")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out = args.out or cfg.output_path
        check_output_path(out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    runner = run_all if args.subcommand == "all" else RUNNERS[args.subcommand]
    try:
        rows = runner(cfg)
    except ViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        print(json.dumps(exc.dump, indent=2, default=str), file=sys.stderr)
        return 2
    try:
        path = write_outputs(rows, cfg, out)
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
