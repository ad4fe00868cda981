"""Wall time of the nine committed scenario x balancer pairs.

Usage, from the root of a checkout::

    python3 perfbench/table.py

Each pair runs without and then with the event log, and every run's
outputs are checked as in run.py. A cell gives the median host time of
one pair run (simulation, event log where on, and reports) as
``without / with`` the event log. Exits 1 if any run fails a check.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import harness
import run

REPEATS = 3


def main() -> int:
    try:
        lb = harness.import_lbicasim()
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="table-", dir=run.OUT_DIR))
    walls: dict[tuple[str, bool], float] = {}
    requests: dict[str, int] = {}
    failed = 0
    try:
        for events in (False, True):
            pairs = tuple(
                harness.Pair(s, b, events) for s in harness.COMMITTED for b in harness.BALANCERS
            )
            configs = harness.load_pairs(lb, pairs, workdir, None)
            rounds = run.Rounds(lb, pairs, configs, workdir / ("events" if events else "plain"))
            for _ in range(REPEATS):
                rounds.run()
            failed += rounds.failed
            for pair in pairs:
                if rounds.walls[pair.label]:
                    walls[pair.label, events] = statistics.median(rounds.walls[pair.label])
                    requests[pair.scenario] = rounds.last[pair.label].summary["app_requests"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def cell(label: str) -> str:
        times = (walls.get((label, events)) for events in (False, True))
        return " / ".join("failed" if w is None else f"{w:.2f}" for w in times) + " s"

    print(f"median of {REPEATS} runs, without / with the event log")
    print("| scenario (app requests) | " + " | ".join(harness.BALANCERS) + " |")
    print("| --- |" + " --- |" * len(harness.BALANCERS))
    for scenario in harness.COMMITTED:
        cells = " | ".join(cell(f"{scenario}/{b}") for b in harness.BALANCERS)
        print(f"| {scenario} ({requests.get(scenario, '?')}) | {cells} |")
    if failed:
        print(f"{failed} pair runs failed their output checks", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
