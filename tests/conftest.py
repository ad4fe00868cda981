"""Shared fixtures: cached scenario runs and event-log helpers.

The acceptance tests measure full runs of the committed scenarios under
several balancers. Runs are deterministic, so they execute once per
session and every test reads from the cache. Each cached run keeps the
in-memory result, the written report directory (with events.log), and
the wall-clock duration of the run itself.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from lbicasim import EventLog, RunResult, load_config, run_simulation, write_run
from lbicasim.balancer import BALANCERS
from lbicasim.engine import Origin, Schedule

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

SCENARIOS = {
    "random_read": SCENARIO_DIR / "random_read.cfg",
    "mixed_rw": SCENARIO_DIR / "mixed_rw.cfg",
    "write_intensive": SCENARIO_DIR / "write_intensive.cfg",
}


@dataclass
class CachedRun:
    result: RunResult
    out_dir: Path
    elapsed_s: float

    @property
    def summary(self) -> dict:
        return self.result.summary


def execute_run(config_path: Path, balancer: str, out_dir: Path) -> CachedRun:
    config = dataclasses.replace(load_config(config_path), balancer=balancer)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    with open(out_dir / "events.log", "w", newline="") as fh:
        result = run_simulation(config, events=EventLog(fh, config.scenario_hash()))
    elapsed = time.monotonic() - started
    write_run(result, out_dir)
    return CachedRun(result=result, out_dir=out_dir, elapsed_s=elapsed)


@pytest.fixture(scope="session")
def scenario_runs(tmp_path_factory) -> dict[tuple[str, str], CachedRun]:
    """Every scenario x balancer pair, each with its event log and reports."""
    root = tmp_path_factory.mktemp("runs")
    runs = {}
    for scenario, config_path in SCENARIOS.items():
        for balancer in BALANCERS:
            out = root / f"{scenario}-{balancer}"
            runs[(scenario, balancer)] = execute_run(config_path, balancer, out)
    return runs


class CacheReplica:
    """Independent metadata replay from access and policy rows alone.

    An access is an application request's first ``submit`` row
    (``req == app``); its ``op`` and ``lba`` drive ``read`` or ``write``.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []  # LRU first
        self.dirty = set()
        self.policy = "WB"
        self.evict_writes = 0
        self.read_hits = 0

    def _touch(self, lba):
        self.order.remove(lba)
        self.order.append(lba)

    def _admit(self, lba, dirty):
        if len(self.order) == self.capacity:
            victim = self.order.pop(0)
            if victim in self.dirty:
                self.dirty.discard(victim)
                self.evict_writes += 1
        self.order.append(lba)
        if dirty:
            self.dirty.add(lba)

    def read(self, lba):
        if lba in self.order:
            self.read_hits += 1
            self._touch(lba)
        elif self.policy != "WO":
            self._admit(lba, dirty=False)

    def write(self, lba):
        if self.policy == "RO":
            if lba in self.order:
                self.order.remove(lba)
                if lba in self.dirty:
                    self.dirty.discard(lba)
                    self.evict_writes += 1
            return
        if self.policy == "WT":
            if lba in self.order:
                self._touch(lba)
                self.dirty.discard(lba)
            else:
                self._admit(lba, dirty=False)
            return
        if lba in self.order:  # WB and WO buffer the write
            self._touch(lba)
            self.dirty.add(lba)
        else:
            self._admit(lba, dirty=True)


def schedule_of(rows) -> Schedule:
    """A schedule of application requests from ``(arrival, lba, origin)`` rows, in order.

    Row ``i`` becomes request ``i``; ``origin`` is ``Origin.R`` or ``Origin.W``.
    The columns are filled by index, as ``generate`` fills them, and the
    order is checked once at the end.
    """
    rows = list(rows)
    schedule = Schedule(len(rows))
    for i, (arrival, lba, origin) in enumerate(rows):
        schedule.arrival[i] = arrival
        schedule.lba[i] = lba
        schedule.read[i] = origin is Origin.R
    schedule.check_order()
    return schedule


def scheduled(schedule: Schedule) -> list[tuple[int, int, Origin]]:
    """Each scheduled request as an ``(arrival, lba, origin)`` row, request 0 first."""
    return [
        (arrival, lba, Origin.R if read else Origin.W)
        for arrival, lba, read in zip(schedule.arrival, schedule.lba, schedule.read)
    ]


def recount_origins(device) -> list[int]:
    """Per-origin counts of the device's pending requests in ``Origin`` order, by a full walk.

    A schedule row counts as a read or a write by the device's ``reads`` column.
    """
    origins = [
        (Origin.R if device.reads[r] else Origin.W) if r.__class__ is int else r.origin
        for r in (device.in_service, *device.waiting)
        if r is not None
    ]
    return [origins.count(origin) for origin in Origin]


def read_events(path: Path) -> tuple[str, list[dict[str, str]]]:
    """Load events.log rows in written order, plus the scenario hash."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        assert first.startswith("# scenario="), f"{path}: missing scenario header"
        rows = list(csv.DictReader(fh))
    return first.removeprefix("# scenario="), rows


def burst_window_indices(result: RunResult) -> set[int]:
    """Interval indices the run flagged as cache-side bottlenecks."""
    return {row.stats.interval_index for row in result.rows if row.burst}


def ssd_submits_per_window(rows: list[dict[str, str]], interval_us: int) -> dict[int, int]:
    """Count cache-queue submissions per interval window from an event log.

    Window k covers times ((k-1)*L, k*L]; a submission at t lands in
    window ceil(t / L).
    """
    counts: dict[int, int] = {}
    for row in rows:
        if row["event"] == "submit" and row["target"] == "ssd":
            t = int(row["time"])
            window = -(-t // interval_us)
            counts[window] = counts.get(window, 0) + 1
    return counts
