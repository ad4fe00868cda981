"""Scaling probe: mixed_rw and steady under none-wb at 1x, 2x, 4x and 8x their length.

Usage, from the root of a checkout::

    python3 scripts/scaling.py [--repeats 5]

The cache queue of mixed_rw grows with its burst, so a cost per tick
that depends on queue depth shows here as superlinear growth, and its
queued requests show in memory. steady is the benchmark's generated
config (perfbench's ``harness.STEADY_CONFIG``, read, not changed): its
queues stay a few entries deep, so its memory per request is what a
scheduled request costs. Every phase's duration is multiplied by the
factor at an unchanged rate, so a factor-k run carries about k times
the application requests. Each run times its two stages apart: building
the request schedule (``build_requests``) and simulating it (no event
log, no reports).

Every run is made in a fresh child process, started one at a time, so
no run inherits the heap of another and the child's peak resident set
(``resource.getrusage``) is that run's memory alone. For each scenario
and factor the probe prints the request count, the median peak RSS of
its runs and, past 1x, the bytes per scheduled request: the rise in
peak RSS over the 1x run divided by the rise in request count, so the
interpreter's fixed share drops out. A second line gives the median
peak RSS as it stood after the build and after the run, and their
difference: what simulating adds on top of the built schedule. Then it
prints one line per stage with the best and the median wall time of
``--repeats`` runs, each relative to the 1x run. Each round runs every
scenario and factor once, factors in rotating order, so a drift in host
speed does not favour one factor; the best time is the least disturbed
by other load on the host. If cost is linear in request count, the 8x
run costs about 8x the 1x run.

The probe exits 1 if any run leaves an application request incomplete
(``app_completed`` differs from ``app_requests``).
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
from lbicasim import Simulation, build_requests, load_config  # noqa: E402
from lbicasim.config import parse_config_text  # noqa: E402

SCENARIOS = ("mixed_rw", "steady")
BALANCER = "none-wb"
FACTORS = (1, 2, 4, 8)
STAGES = ("build", "simulate")


def base_config(scenario: str):
    if scenario == "steady":
        return parse_config_text(harness.STEADY_CONFIG, "steady")
    return load_config(ROOT / "scenarios" / f"{scenario}.cfg")


def scaled(config, factor: int):
    phases = tuple(dataclasses.replace(p, duration_us=p.duration_us * factor) for p in config.phases)
    return dataclasses.replace(config, phases=phases)


def peak_rss() -> int:
    """This process's peak resident set so far, in bytes (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def measure(scenario: str, factor: int) -> tuple[int, int, float, float, int, int]:
    """One run of ``scenario`` at ``factor``, in a child: requests scheduled
    and completed, the two stage times, and the peak RSS in bytes after
    the build and after the run."""
    config = scaled(dataclasses.replace(base_config(scenario), balancer=BALANCER), factor)
    started = time.perf_counter()
    built = build_requests(config)
    split = time.perf_counter()
    build_peak = peak_rss()
    summary = Simulation(config, built).run().summary
    done = time.perf_counter()
    return (
        summary["app_requests"],
        summary["app_completed"],
        split - started,
        done - split,
        build_peak,
        peak_rss(),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    runs = [(scenario, factor) for scenario in SCENARIOS for factor in FACTORS]
    walls = {(stage, run): [] for stage in STAGES for run in runs}
    peaks = {run: [] for run in runs}
    build_peaks = {run: [] for run in runs}
    requests = {}
    incomplete = []
    # one worker at a time, replaced after every run
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for repeat in range(args.repeats):
            shift = repeat % len(FACTORS)
            for scenario in SCENARIOS:
                for factor in FACTORS[shift:] + FACTORS[:shift]:
                    run = scenario, factor
                    count, completed, build, simulate, build_peak, peak = pool.apply(measure, run)
                    if completed != count:
                        incomplete.append(f"{scenario} x{factor}: {completed} of {count} completed")
                    requests[run] = count
                    walls["build", run].append(build)
                    walls["simulate", run].append(simulate)
                    build_peaks[run].append(build_peak)
                    peaks[run].append(peak)
    for scenario in SCENARIOS:
        first = scenario, 1
        peak1 = statistics.median(peaks[first])
        for factor in FACTORS:
            run = scenario, factor
            peak = statistics.median(peaks[run])
            line = (
                f"{scenario}/{BALANCER} x{factor}: {requests[run]} requests,"
                f" peak RSS {peak / 2**20:.1f} MB"
            )
            if factor > 1:
                per_request = (peak - peak1) / (requests[run] - requests[first])
                line += f" ({per_request:.0f} B per scheduled request over x1)"
            print(line)
            build_peak = statistics.median(build_peaks[run])
            print(
                f"  peak RSS after build {build_peak / 2**20:.1f} MB,"
                f" after run {peak / 2**20:.1f} MB:"
                f" the run adds {(peak - build_peak) / 2**20:.1f} MB"
            )
            for stage in STAGES:
                best, median = min(walls[stage, run]), statistics.median(walls[stage, run])
                best1, median1 = min(walls[stage, first]), statistics.median(walls[stage, first])
                print(
                    f"  {stage:<8} best {best:.3f} s ({best / best1:.2f}x), "
                    f"median {median:.3f} s ({median / median1:.2f}x)"
                )
    for problem in incomplete:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
