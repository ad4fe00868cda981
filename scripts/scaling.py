"""Scaling probe: mixed_rw under none-wb at 1x, 2x, 4x and 8x its length.

Usage, from the root of a checkout::

    python3 scripts/scaling.py [--repeats 5]

The cache queue of mixed_rw grows with its burst, so a cost per tick
that depends on queue depth shows here as superlinear growth. Every
phase's duration is multiplied by the factor at an unchanged rate,
so a factor-k run carries about k times the application requests. Each
run times its two stages apart: building the request list
(``build_requests``) and simulating it (no event log, no reports).

Every run is made in a fresh child process, started one at a time, so
no run inherits the heap of another and the child's peak resident set
(``resource.getrusage``) is that run's memory alone. For each factor the
probe prints the request count, the median peak RSS of its runs and,
past 1x, the bytes per request: the rise in peak RSS over the 1x run
divided by the rise in request count, so the interpreter's fixed share
drops out. A second line gives the median peak RSS as it stood after
the build and after the run, and their difference: what simulating adds
on top of the built list. Then it prints one line per stage with the
best and the median wall time of ``--repeats`` runs, each relative to
the 1x run. Each round runs every factor once, in rotating order, so a
drift in host speed does not favour one factor; the best time is the
least disturbed by other load on the host. If cost is linear in request
count, the 8x run costs about 8x the 1x run.
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

from lbicasim import Simulation, build_requests, load_config  # noqa: E402

SCENARIO = ROOT / "scenarios" / "mixed_rw.cfg"
BALANCER = "none-wb"
FACTORS = (1, 2, 4, 8)
STAGES = ("build", "simulate")


def scaled(config, factor: int):
    phases = tuple(dataclasses.replace(p, duration_us=p.duration_us * factor) for p in config.phases)
    return dataclasses.replace(config, phases=phases)


def peak_rss() -> int:
    """This process's peak resident set so far, in bytes (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def measure(factor: int) -> tuple[int, float, float, int, int]:
    """One run at ``factor``, in a child: requests, the two stage times, and
    the peak RSS in bytes after the build and after the run."""
    config = scaled(dataclasses.replace(load_config(SCENARIO), balancer=BALANCER), factor)
    started = time.perf_counter()
    built = build_requests(config)
    split = time.perf_counter()
    build_peak = peak_rss()
    result = Simulation(config, built).run()
    done = time.perf_counter()
    return result.summary["app_requests"], split - started, done - split, build_peak, peak_rss()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    walls = {(stage, factor): [] for stage in STAGES for factor in FACTORS}
    peaks = {factor: [] for factor in FACTORS}
    build_peaks = {factor: [] for factor in FACTORS}
    requests = {}
    # one worker at a time, replaced after every run
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for repeat in range(args.repeats):
            shift = repeat % len(FACTORS)
            for factor in FACTORS[shift:] + FACTORS[:shift]:
                count, build, simulate, build_peak, peak = pool.apply(measure, (factor,))
                requests[factor] = count
                walls["build", factor].append(build)
                walls["simulate", factor].append(simulate)
                build_peaks[factor].append(build_peak)
                peaks[factor].append(peak)
    peak1 = statistics.median(peaks[1])
    for factor in FACTORS:
        peak = statistics.median(peaks[factor])
        line = (
            f"{SCENARIO.stem}/{BALANCER} x{factor}: {requests[factor]} requests,"
            f" peak RSS {peak / 2**20:.1f} MB"
        )
        if factor > 1:
            per_request = (peak - peak1) / (requests[factor] - requests[1])
            line += f" ({per_request:.0f} B per request over x1)"
        print(line)
        build_peak = statistics.median(build_peaks[factor])
        print(
            f"  peak RSS after build {build_peak / 2**20:.1f} MB, after run {peak / 2**20:.1f} MB:"
            f" the run adds {(peak - build_peak) / 2**20:.1f} MB"
        )
        for stage in STAGES:
            best, median = min(walls[stage, factor]), statistics.median(walls[stage, factor])
            best1, median1 = min(walls[stage, 1]), statistics.median(walls[stage, 1])
            print(
                f"  {stage:<8} best {best:.3f} s ({best / best1:.2f}x), "
                f"median {median:.3f} s ({median / median1:.2f}x)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
