"""Scaling probe: mixed_rw under none-wb at 1x, 2x and 4x its length.

Usage, from the root of a checkout::

    python3 scripts/scaling.py [--repeats 5]

The cache queue of mixed_rw grows with its burst, so a cost per tick
that depends on queue depth shows here as superlinear growth. Every
phase's duration is multiplied by the factor at an unchanged rate,
so a factor-k run carries about k times the application requests. Each
run times its two stages apart: building the request list
(``build_requests``) and simulating it (no event log, no reports). For
each factor the probe prints the request count, then one line per stage
with the best and the median wall time of ``--repeats`` runs, each
relative to the 1x run. Each round runs every factor once, in rotating
order, so a drift in host speed does not favour one factor; the best
time is the least disturbed by other load on the host.
If cost is linear in request count, the 4x run costs about 4x the 1x run.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lbicasim import Simulation, build_requests, load_config  # noqa: E402

SCENARIO = ROOT / "scenarios" / "mixed_rw.cfg"
BALANCER = "none-wb"
FACTORS = (1, 2, 4)


def scaled(config, factor: int):
    phases = tuple(dataclasses.replace(p, duration_us=p.duration_us * factor) for p in config.phases)
    return dataclasses.replace(config, phases=phases)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    base = dataclasses.replace(load_config(SCENARIO), balancer=BALANCER)
    stages = ("build", "simulate")
    walls = {(stage, factor): [] for stage in stages for factor in FACTORS}
    requests = {}
    for repeat in range(args.repeats):
        shift = repeat % len(FACTORS)
        for factor in FACTORS[shift:] + FACTORS[:shift]:
            config = scaled(base, factor)
            started = time.perf_counter()
            built = build_requests(config)
            split = time.perf_counter()
            result = Simulation(config, built).run()
            walls["build", factor].append(split - started)
            walls["simulate", factor].append(time.perf_counter() - split)
            requests[factor] = result.summary["app_requests"]
    for factor in FACTORS:
        print(f"{SCENARIO.stem}/{BALANCER} x{factor}: {requests[factor]} requests")
        for stage in stages:
            best, median = min(walls[stage, factor]), statistics.median(walls[stage, factor])
            best1, median1 = min(walls[stage, 1]), statistics.median(walls[stage, 1])
            print(
                f"  {stage:<8} best {best:.3f} s ({best / best1:.2f}x), "
                f"median {median:.3f} s ({median / median1:.2f}x)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
