"""Command-line entry point.

Subcommands map onto the experiment drivers:

    specnash solve            --config cfg.json [--out out.csv]
    specnash check-uniqueness --config cfg.json [--out out.json]
    specnash montecarlo       --config cfg.json [--out out.csv] [--workers N]
    specnash rate-region      --config cfg.json [--out out.csv]
    specnash verify-theorem1  --config cfg.json [--out out.json]

Exit codes: 0 success, 1 config or I/O error (including a user whose
budget no feasible allocation can meet), 2 acceptance violation (the
diagonal-optimality oracle observed a dominance breach), 3 numeric
failure.  Plotting is out of scope; the CSV files are the contract.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InfeasibleWaterfillError, InvalidInputError, NumericFailureError
from .experiments import (
    run_check_uniqueness,
    run_psd,
    run_rate_region,
    run_uniqueness_mc,
    run_verify_theorem1,
)


def _load_config(args, default_out: str) -> tuple[dict, str]:
    """The config object (seed overridden by ``--seed``) and the output path."""
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InvalidInputError(f"config must be a JSON object, got {type(cfg).__name__}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg, args.out or cfg.get("out") or default_out


def _cmd_solve(args) -> int:
    run_psd(*_load_config(args, "psd.csv"))
    return 0


def _cmd_check_uniqueness(args) -> int:
    report = run_check_uniqueness(*_load_config(args, "uniqueness.json"))
    errors = [f"{name}: {v['error']}" for name, v in report["conditions"].items() if v["error"]]
    if errors:  # the report is written, error verdicts included
        print(f"numeric failure: {'; '.join(errors)}", file=sys.stderr)
        return 3
    return 0


def _cmd_montecarlo(args) -> int:
    result = run_uniqueness_mc(*_load_config(args, "uniqueness_mc.csv"), workers=args.workers)
    boundary, errors = sum(result["boundary"].values()), sum(result["errors"].values())
    if boundary or errors:
        print(f"note: {boundary} boundary and {errors} error verdicts, not counted as holding",
              file=sys.stderr)
    return 0


def _cmd_rate_region(args) -> int:
    run_rate_region(*_load_config(args, "rate_region.csv"))
    return 0


def _cmd_verify_theorem1(args) -> int:
    report = run_verify_theorem1(*_load_config(args, "theorem1.json"))
    if report["total_violations"] > 0:
        print(
            f"diagonal-optimality violations: {report['total_violations']}",
            file=sys.stderr,
        )
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specnash",
        description="Noncooperative spectrum power-allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "solve": _cmd_solve,
        "check-uniqueness": _cmd_check_uniqueness,
        "montecarlo": _cmd_montecarlo,
        "rate-region": _cmd_rate_region,
        "verify-theorem1": _cmd_verify_theorem1,
    }
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output path (CSV or JSON)")
        p.add_argument("--workers", type=int, default=1, help="montecarlo worker processes")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers != 1 and args.command != "montecarlo":
            raise InvalidInputError(f"--workers is for montecarlo only, not {args.command}")
        return args.handler(args)
    except (InvalidInputError, InfeasibleWaterfillError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericFailureError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
