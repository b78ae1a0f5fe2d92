"""Command-line entry point.

    chaoskit <suite> --config <path> [--seed S] [--paths N] [--out DIR]

Runs one of the verification suites and writes a report bundle into a fresh
timestamped directory under the output root.  Exit status is 0 exactly when
every record passes.
"""
from __future__ import annotations

import argparse
import os
import sys

from .config import SUITES, RunConfig
from .reporting import emit_report, format_value, make_run_dir
from .suites import run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoskit",
        description="run the chaoskit verification suites and emit a report",
    )
    parser.add_argument("suite", choices=[s for s in SUITES], help="suite to run")
    parser.add_argument("--config", help="JSON config file with explicit field names")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--paths", type=int, help="override the Monte Carlo path count")
    parser.add_argument("--out", help="override the output directory")
    return parser


def _resolved_config(args) -> RunConfig:
    base = RunConfig.from_file(args.config) if args.config else RunConfig()
    data = base.to_dict()
    data["suite"] = args.suite
    if args.seed is not None:
        data["seed"] = args.seed
    if args.paths is not None:
        data["n_paths"] = args.paths
    if args.out is not None:
        data["out_dir"] = args.out
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolved_config(args)
    except (OSError, ValueError) as exc:
        print(f"chaoskit: invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        # an unusable output root is refused before any check runs
        os.makedirs(config.resolve_out_dir(), exist_ok=True)
    except OSError as exc:
        print(f"chaoskit: invalid config: output root: {exc}", file=sys.stderr)
        return 2
    records = run_suite(config)
    run_dir = make_run_dir(config.resolve_out_dir())
    manifest = {
        "suite": config.suite,
        "seed": config.seed,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
    }
    summary = emit_report(records, run_dir, manifest)
    width = max(len(r.check_id) for r in records)
    for r in records:
        line = f"{r.check_id:<{width}}  {r.status:<4}  value={format_value(r.value)}"
        if r.se is not None:
            line += f"  se={format_value(r.se)}"
        print(line)
    print(f"{summary}  [{run_dir}]")
    return 0 if all(r.passed for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
