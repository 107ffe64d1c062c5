"""Command-line entry point."""
from __future__ import annotations

import argparse
import sys

from .config import load_config
from .pipeline import STAGE_ORDER, StageError, export_report, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadroughness",
        description="Road roughness estimation pipeline: simulation, map "
                    "matching, alignment, feature extraction, selection, "
                    "training and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    help_by_stage = {
        "simulate": "generate road, route, telemetry and reference labels",
        "match": "map-match the GPS fixes onto the road network",
        "align": "assign samples to segments and build sliding windows",
        "featurize": "extract per-window features",
        "select": "feature selection and principal-component basis",
        "train": "tune and fit all model families",
        "evaluate": "score the trained models on the held-out split",
    }
    commands = list(STAGE_ORDER) + ["run", "report"]
    for name in commands:
        p = sub.add_parser(name, help=help_by_stage.get(name, {
            "run": "run every stage in order",
            "report": "export the report tables as CSV files",
        }.get(name)))
        p.add_argument("--config", default=None,
                       help="JSON config file (merged over defaults)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the config working directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, workdir=args.out)
        if args.command == "run":
            for stage in STAGE_ORDER:
                print(f"[{stage}] ...", flush=True)
                summary = run_stage(stage, config)
                print(f"[{stage}] {summary}", flush=True)
        elif args.command == "report":
            for path in export_report(config):
                print(path)
        else:
            summary = run_stage(args.command, config)
            print(f"[{args.command}] {summary}")
    except (StageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
