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

from .channel import build_game
from .errors import InfeasibleWaterfillError, InvalidInputError, NumericFailureError
from .experiments import (
    _json_default,
    run_psd,
    run_rate_region,
    run_uniqueness_mc,
    run_verify_theorem1,
    scenario_from_config,
)
from .uniqueness import check_conditions


def _load_config(path: str, seed_override) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if seed_override is not None:
        cfg["seed"] = seed_override
    return cfg


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config, args.seed)
    run_psd(cfg, args.out or cfg.get("out", "psd.csv"))
    return 0


def _cmd_check_uniqueness(args) -> int:
    cfg = _load_config(args.config, args.seed)
    ch = scenario_from_config(cfg["scenario"], seed=(int(cfg.get("seed", 0)),))
    game = build_game(ch)
    report = check_conditions(game, Dq_mode=cfg.get("Dq_mode", "virtual_interferer"))
    out = args.out or cfg.get("out", "uniqueness.json")
    with open(out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = _load_config(args.config, args.seed)
    run_uniqueness_mc(cfg, args.out or cfg.get("out", "uniqueness_mc.csv"), workers=args.workers)
    return 0


def _cmd_rate_region(args) -> int:
    cfg = _load_config(args.config, args.seed)
    run_rate_region(cfg, args.out or cfg.get("out", "rate_region.csv"))
    return 0


def _cmd_verify_theorem1(args) -> int:
    cfg = _load_config(args.config, args.seed)
    report = run_verify_theorem1(cfg, args.out or cfg.get("out", "theorem1.json"))
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
        if args.workers < 1:
            raise InvalidInputError(f"--workers must be >= 1, got {args.workers}")
        if args.workers != 1 and args.command != "montecarlo":
            raise InvalidInputError(f"--workers is for montecarlo only, not {args.command}")
        return args.handler(args)
    except (InvalidInputError, InfeasibleWaterfillError, KeyError, ValueError, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericFailureError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
