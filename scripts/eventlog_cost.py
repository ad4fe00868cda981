"""Event-log cost probe: perfbench's replay pairs with and without ``events.log``.

Usage, from the root of a checkout::

    python3 scripts/eventlog_cost.py [--repeats 8]

The pairs are those of perfbench's replay workload
(``harness.WORKLOADS["replay"]``): random_read and write_intensive
under none-wb, lbica and sib, each with its committed seed. Each pair
runs through ``harness.run_pair``, the benchmark's own timed region:
construct and run the simulation, write the reports and, on the side
with the log, stream ``events.log`` to a temporary directory. Each
pair's request schedule is built once, before any round, since a run
only reads it. Each round runs both sides once, and the side that goes first
alternates from round to round, so a drift in host speed does not
favour one side. A side's time for a round is the sum over its pairs.

The probe prints each side's median, quartiles, minimum and maximum
over the rounds and the ratio of the medians, with the log to without
it: the log's cost as a multiple of the run. Since host speed drifts
between rounds more than within one, it also prints the minimum, median
and maximum of the ratio taken round by round; a change in the log's
cost is resolved only when it moves that spread. It exits 1 if a pair's
summary differs between the two sides, since the log must not change
what is simulated.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402

SIDES = ("without log", "with log")


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile; a single round is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=8, help="rounds of both sides")
    args = parser.parse_args(argv)

    lb = harness.import_lbicasim()
    pairs = harness.WORKLOADS["replay"]
    walls: dict[str, list[float]] = {side: [] for side in SIDES}
    summaries: dict[str, list[dict]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        configs = harness.load_pairs(lb, pairs, Path(tmp), None)
        schedules = [lb.runner.build_requests(config) for config in configs]
        for repeat in range(args.repeats):
            for side in SIDES if repeat % 2 == 0 else SIDES[::-1]:
                total = 0.0
                summaries[side] = []
                for config, schedule in zip(configs, schedules):
                    run = harness.run_pair(lb, config, schedule, Path(tmp), side == "with log")
                    total += run.wall_s
                    summaries[side].append(run.summary)
                walls[side].append(total)
            if summaries["with log"] != summaries["without log"]:
                print("error: the event log changed a simulated summary", file=sys.stderr)
                return 1
    print(f"{len(pairs)} pairs, {args.repeats} rounds, timed as perfbench's replay:")
    for side in SIDES:
        runs = walls[side]
        q1, q3 = quartiles(runs)
        print(
            f"  {side:<12} median {statistics.median(runs):.3f} s"
            f" [q1 {q1:.3f}, q3 {q3:.3f}] (min {min(runs):.3f}, max {max(runs):.3f})"
        )
    ratio = statistics.median(walls["with log"]) / statistics.median(walls["without log"])
    print(f"  with / without log: {ratio:.2f}x")
    ratios = [a / b for a, b in zip(walls["with log"], walls["without log"])]
    print(
        f"  per round: min {min(ratios):.2f}x, median {statistics.median(ratios):.2f}x,"
        f" max {max(ratios):.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
