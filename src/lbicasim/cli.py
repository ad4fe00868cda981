"""Command line front end.

``lbicasim run`` executes one scenario and writes ``intervals.csv`` and
``summary.csv`` (plus ``events.log`` with ``--events``) into the output
directory.  ``lbicasim compare`` reads two such directories produced
from the same scenario and prints burst-window reductions of the second
run against the first.

Exit codes: 0 on success, 1 for configuration or trace errors, 2 for
filesystem errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .report import compare_runs, format_comparison, write_run
from .runner import EventLog, Simulation, build_requests
from .workload import TraceFormatError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbicasim",
        description="two-tier storage simulator with adaptive cache load balancing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario and write reports")
    run.add_argument("config", type=Path, help="scenario config file (key = value lines)")
    run.add_argument("--out", type=Path, required=True, help="output directory")
    run.add_argument("--balancer", help="override the configured balancer")
    run.add_argument("--seed", type=int, help="override the configured seed")
    run.add_argument("--events", action="store_true", help="also write events.log")
    run.add_argument("--quiet", action="store_true", help="suppress the summary printout")

    compare = sub.add_parser("compare", help="compare two run directories (same scenario)")
    compare.add_argument("baseline", type=Path, help="reference run directory")
    compare.add_argument("candidate", type=Path, help="run directory to measure against it")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.balancer is not None:
        overrides["balancer"] = args.balancer
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    warnings = config.validate()
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    # a malformed trace fails here, before the output directory or log exists
    schedule = build_requests(config)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.events:
        with open(args.out / "events.log", "w", newline="") as fh:
            events = EventLog(fh, config.scenario_hash())
            result = Simulation(config, schedule, events).run()
    else:
        result = Simulation(config, schedule).run()
    write_run(result, args.out)
    if not args.quiet:
        summary = result.summary
        print(
            f"{config.balancer}: {summary['app_completed']}/{summary['app_requests']} requests,"
            f" mean latency {summary['mean_latency_us']:.1f}us,"
            f" {summary['burst_intervals']} burst intervals,"
            f" {summary['bypassed_total']} bypassed"
        )
        print(f"reports written to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    print(format_comparison(compare_runs(args.baseline, args.candidate)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (ConfigError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
