"""Shared fixtures: cached scenario runs and event-log helpers.

The acceptance tests measure full runs of the committed scenarios under
several balancers. Runs are deterministic, so they execute once per
session and every test reads from the cache. Each cached run keeps the
in-memory result, the written report directory (with events.log), and
the wall-clock duration of the run itself. Each run's events.log is
replayed once, by the version oracle, and the tests read that replay.
``tests/scenarios/read_then_write.cfg`` runs once per balancer, with its
ticks recorded and its log kept in memory.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import time
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

import pytest

from lbicasim import (
    EventLog,
    RunResult,
    Simulation,
    build_requests,
    load_config,
    run_simulation,
    write_run,
)
from lbicasim.balancer import BALANCERS
from lbicasim.engine import Origin, Schedule
from lbicasim.telemetry import IntervalStats

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

SCENARIOS = {
    "random_read": SCENARIO_DIR / "random_read.cfg",
    "mixed_rw": SCENARIO_DIR / "mixed_rw.cfg",
    "write_intensive": SCENARIO_DIR / "write_intensive.cfg",
}
READ_THEN_WRITE = Path(__file__).with_name("scenarios") / "read_then_write.cfg"


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


@pytest.fixture(scope="session")
def scenario_replays(scenario_runs) -> dict[tuple[str, str], VersionOracle]:
    """Every scenario x balancer pair's events.log, replayed once by the version oracle."""
    replays = {}
    for pair, run in scenario_runs.items():
        _, rows = read_events(run.out_dir / "events.log")
        replays[pair] = oracle = VersionOracle(run.result.config.cache_blocks)
        oracle.replay(rows)
    return replays


@dataclass
class LoggedRun:
    result: RunResult
    ticks: list  # (the policy before each tick, the tick's decision)
    log: str  # the run's events.log

    @functools.cached_property
    def replay(self) -> VersionOracle:
        """The version oracle after replaying ``log``."""
        oracle = VersionOracle(self.result.config.cache_blocks)
        oracle.replay(read_events(io.StringIO(self.log))[1])
        return oracle


def logged_run(config_path: Path, balancer: str) -> LoggedRun:
    config = dataclasses.replace(load_config(config_path), balancer=balancer)
    buffer = io.StringIO()
    sim = Simulation(config, build_requests(config), events=EventLog(buffer, config.scenario_hash()))
    decide, ticks = sim.balancer.tick, []

    def recording_tick(stats, ratios):
        decision = decide(stats, ratios)
        ticks.append((sim.cache.policy, decision))
        return decision

    sim.balancer.tick = recording_tick
    result = sim.run()
    assert len(ticks) == len(result.rows)
    return LoggedRun(result, ticks, buffer.getvalue())


@pytest.fixture(scope="session")
def read_then_write():
    """``read_then_write(balancer)``: that balancer's run of read_then_write.cfg, made once."""
    return functools.cache(functools.partial(logged_run, READ_THEN_WRITE))


class CacheReplica:
    """Independent metadata replay from access and policy rows alone.

    An access is an application request's first ``submit`` row
    (``req == app``); its ``op`` and ``lba`` drive ``read`` or ``write``.

    The replica also follows the data the cache is to hold. Every
    admission of a block starts a residency, numbered in admission
    order; ``residencies[n]`` maps each cache-bound write of residency
    ``n`` (the writing request's id) to the version of the block it
    carries, in submit order. A buffered or write-through write joins
    its block's residency at its access, and a promotion when it is
    submitted (``promote``). ``cancel`` applies a ``remove`` or ``drop``
    row: the request's data never reaches the cache, so it leaves its
    residency. Neither changes the metadata, as neither does in the
    package. ``copy(lba)`` is the version the cache holds once its queue
    drains: the last write of the block's residency that survives, or
    None when none does. A dirty block's eviction or invalidation queues
    ``(lba, copy)`` on ``writebacks``, the data its write-back carries.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []  # LRU first
        self.dirty = set()
        self.policy = "WB"
        self.evict_writes = 0
        self.read_hits = 0
        self.residencies = []  # residency number -> {request id: version}
        self.resident = {}  # lba -> its residency number, while resident
        self.writebacks = deque()  # (lba, version) per write-back, oldest first

    def copy(self, lba):
        data = self.residencies[self.resident[lba]]
        return next(reversed(data.values())) if data else None

    def _touch(self, lba):
        self.order.remove(lba)
        self.order.append(lba)

    def _leave(self, lba):
        """Drop ``lba`` from the cache, writing back its copy if dirty."""
        self.order.remove(lba)
        if lba in self.dirty:
            self.dirty.discard(lba)
            self.evict_writes += 1
            self.writebacks.append((lba, self.copy(lba)))
        del self.resident[lba]

    def _admit(self, lba, dirty):
        if len(self.order) == self.capacity:
            self._leave(self.order[0])
        self.order.append(lba)
        if dirty:
            self.dirty.add(lba)
        self.resident[lba] = len(self.residencies)
        self.residencies.append({})

    def read(self, lba):
        """Access ``lba`` for a read; returns whether it hit."""
        if lba in self.order:
            self.read_hits += 1
            self._touch(lba)
            return True
        if self.policy != "WO":
            self._admit(lba, dirty=False)
        return False

    def write(self, lba, req=None, version=None):
        """Access ``lba`` for request ``req``'s write of ``version``."""
        if self.policy == "RO":
            if lba in self.order:
                self._leave(lba)
            return
        if self.policy == "WT":
            if lba in self.order:
                self._touch(lba)
                self.dirty.discard(lba)
            else:
                self._admit(lba, dirty=False)
        elif lba in self.order:  # WB and WO buffer the write
            self._touch(lba)
            self.dirty.add(lba)
        else:
            self._admit(lba, dirty=True)
        self.residencies[self.resident[lba]][req] = version

    def promote(self, req, lba, version):
        """A promotion of ``lba`` entered the cache queue; it joins the block's residency."""
        if lba in self.resident:
            self.residencies[self.resident[lba]][req] = version

    def cancel(self, req, lba):
        """Apply a ``remove`` or ``drop`` row; returns whether cache-bound data left the cache."""
        data = self.residencies[self.resident[lba]] if lba in self.resident else {}
        if req not in data:
            return False
        del data[req]
        return True


class VersionOracle:
    """Replays an event log with a version per block write: stale disk writes and phantom hits.

    Each application write gives its block a new version, at its access;
    version 0 is the disk's initial contents. A write request's data is
    fixed when it is first submitted: an application write carries its
    version and its write-through mirror the same, a promotion the
    disk's version at its submit (the instant its disk read completed),
    and an eviction write-back the cache's copy, from the
    :class:`CacheReplica`. The disk's version changes when a disk write
    completes, in the log's order.

    * A **stale disk write** completes with an older version than the
      disk holds. It is charged to the path that put the newer version
      on the disk and not in the cache: ``buffered_write`` for a bypassed
      WB or WO write, ``wt_half`` for a bypassed write-through cache
      half. The bypassed write itself landing late is charged to its own
      path, and a write-back carrying an older copy than the disk to the
      path of the disk's version.
    * A **phantom hit** is a read hit served by the cache from a
      residency that no write ever reaches. It is charged to the read
      miss that started the residency: ``dropped_promotion`` when its
      promotion was dropped, ``late_promotion`` when its promotion
      entered the cache queue only after the residency had ended.

    Anything else lands in ``other_stale`` or ``other_phantom``.

    An **early hit** is a read hit that the cache serves before the first
    install of its residency completes: before a cache-bound write that
    joined the residency (a buffered or write-through cache write, or a
    promotion) completes on the cache device. A hit queued while its
    block's promotion still waits for its disk read is one, and so is
    every phantom hit, whose residency is never installed.
    ``early_hits`` counts them, apart from ``counts``.

    The replay also checks each request's lifecycle: an access's submit
    is at its arrival; every ``submit`` is closed by a ``complete`` or
    ``remove`` row (a ``drop`` closes none) before the same id is
    submitted again, and no id is submitted after its ``complete`` row,
    so an application request is submitted again only after a bypass
    removed it. It records the accessed application ids in order
    (``accessed``), the ``complete`` rows per id (``completions``), the
    eviction write-backs submitted (``evict_submits``), the rows setting
    each policy (``policies``) and the submits to the cache device, per
    policy and origin (``cache_submits``) and per time
    (``cache_submit_times``).
    """

    PATHS = (
        "buffered_write",
        "wt_half",
        "dropped_promotion",
        "late_promotion",
        "other_stale",
        "other_phantom",
    )

    def __init__(self, cache_blocks):
        self.replica = CacheReplica(cache_blocks)
        self.latest = Counter()  # lba -> newest application version
        self.disk = Counter()  # lba -> version on the disk
        self.data = {}  # write request id -> (lba, version, path if bypassed)
        self.bypassed = set()  # application writes a bypass took out of the cache
        self.path_of = {}  # (lba, version) -> path of the bypassed write that carried it
        self.hits = {}  # read hit id -> residency it reads
        self.served = Counter()  # residency -> read hits the cache served from it
        self.admitted = {}  # read miss id -> the residency its access started
        self.promoting = {}  # promotion id -> the residency its read miss started
        self.install_of = {}  # cache-bound write id -> the residency it joined
        self.installed = set()  # residencies whose first install completed
        self.early_hits = 0
        self.dropped = set()  # residencies whose promotion was dropped
        self.late = set()  # residencies whose promotion came after they ended
        self.counts = dict.fromkeys(self.PATHS, 0)
        self.accessed = {}  # application request id -> None, in access order
        self.completions = Counter()  # request id -> its complete rows
        self.evict_submits = 0
        self.policies = Counter()  # policy -> rows that set it
        self.cache_submits = Counter()  # (policy, origin) -> submits to the cache device
        self.cache_submit_times = Counter()  # time -> submits to the cache device

    def replay(self, rows):
        rows = list(rows)
        pending = set()  # ids submitted and not yet completed or removed
        for k, row in enumerate(rows):
            event = row["event"]
            if event == "policy":
                self.replica.policy = row["note"]
                self.policies[row["note"]] += 1
                continue
            req, lba, origin = int(row["req"]), int(row["lba"]), row["origin"]
            if event in ("complete", "remove"):
                assert req in pending, f"{event} of request {req} at {row['time']} closes no submit"
                pending.remove(req)
            if event == "submit":
                again = f"request {req} submitted again at {row['time']}"
                assert req not in pending, f"{again} before its complete or remove row"
                assert req not in self.completions, f"{again} after its complete row"
                pending.add(req)
                if row["target"] == "ssd":
                    self.cache_submits[self.replica.policy, origin] += 1
                    self.cache_submit_times[int(row["time"])] += 1
                if row["app"] == row["req"]:
                    if req not in self.accessed:
                        self._access(row)
                elif origin == "W":  # a write-through mirror
                    self.data[req] = (lba, self.data[int(row["app"])][1], None)
                elif origin == "E":
                    self.evict_submits += 1
                    if not self.replica.writebacks:
                        # a write-back before its access: the next row is that access
                        nxt = rows[k + 1]
                        assert nxt["event"] == "submit" and nxt["req"] == nxt["app"], nxt
                        self._access(nxt)
                    written, version = self.replica.writebacks.popleft()
                    assert written == lba, (row, written)
                    self.data[req] = (lba, -1 if version is None else version, None)
                elif origin == "P" and req not in self.data:
                    residency = self._promoting(req, rows[k - 1])
                    if self.replica.resident.get(lba) != residency:
                        self.late.add(residency)
                    self.data[req] = (lba, self.disk[lba], None)
                    self.replica.promote(req, lba, self.disk[lba])
                    self._joined(req, lba)
            elif event in ("remove", "drop"):
                if event == "drop":
                    self.dropped.add(self._promoting(req, rows[k - 1]))
                if self.replica.cancel(req, lba) and origin == "W":
                    self.bypassed.add(req)
                    _lba, version, path = self.data[req]
                    self.path_of[lba, version] = path
            elif event == "complete":
                self.completions[req] += 1
                if row["target"] == "hdd" and req in self.data:
                    self._disk_write(req)
                elif row["target"] == "ssd" and req in self.hits:
                    self.served[self.hits[req]] += 1
                    self.early_hits += self.hits[req] not in self.installed
                elif row["target"] == "ssd" and req in self.install_of:
                    self.installed.add(self.install_of[req])
        assert not pending, (
            f"{len(pending)} submit rows never end in a complete or remove row"
            f" (e.g. request {min(pending)})"
        )
        assert not self.replica.writebacks
        for residency, hits in self.served.items():
            if not self.replica.residencies[residency]:
                if residency in self.dropped:
                    self.counts["dropped_promotion"] += hits
                elif residency in self.late:
                    self.counts["late_promotion"] += hits
                else:
                    self.counts["other_phantom"] += hits
        return self.counts

    def _promoting(self, req, previous):
        """The residency promotion ``req`` is for; ``previous`` is the row before its first.

        A promotion is first logged, submitted or dropped, right after
        its read miss's ``complete`` row.
        """
        if req not in self.promoting:
            assert previous["event"] == "complete" and previous["origin"] == "R", previous
            self.promoting[req] = self.admitted[int(previous["req"])]
        return self.promoting[req]

    def _access(self, row):
        """Apply the access of the application request whose first ``submit`` is ``row``."""
        req, lba, origin = int(row["req"]), int(row["lba"]), row["origin"]
        assert row["time"] == row["arrival"], f"request {req}'s access is not at its arrival"
        self.accessed[req] = None
        if origin == "R":
            if self.replica.read(lba):
                self.hits[req] = self.replica.resident[lba]
            elif lba in self.replica.resident:
                self.admitted[req] = self.replica.resident[lba]
            return
        self.latest[lba] += 1
        version = self.latest[lba]
        policy = self.replica.policy
        path = "wt_half" if policy == "WT" else None if policy == "RO" else "buffered_write"
        self.data[req] = (lba, version, path)
        self.replica.write(lba, req, version)
        self._joined(req, lba)

    def _joined(self, req, lba):
        """Cache-bound write ``req`` of ``lba`` was submitted; note the residency it joined."""
        if lba in self.replica.resident:
            self.install_of[req] = self.replica.resident[lba]

    def _disk_write(self, req):
        lba, version, path = self.data[req]
        newer = self.disk[lba]
        if version < newer:
            if req not in self.bypassed:  # else the bypassed write lands late itself
                path = self.path_of.get((lba, newer))
            self.counts[path or "other_stale"] += 1
        self.disk[lba] = version


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


def make_stats(ssd_qsize, ssd_lat, hdd_qsize, hdd_lat) -> IntervalStats:
    """An idle interval's record with these queue depths and latency terms."""
    zeros = (0, 0, 0, 0)
    return IntervalStats(1, 0, 100_000, ssd_qsize, hdd_qsize, ssd_lat, hdd_lat, zeros, zeros, 0, 0)


def scheduled(schedule: Schedule) -> list[tuple[int, int, Origin]]:
    """Each scheduled request as an ``(arrival, lba, origin)`` row, request 0 first."""
    return [
        (arrival, lba, Origin.R if read else Origin.W)
        for arrival, lba, read in zip(schedule.arrival, schedule.lba, schedule.read)
    ]


def recount_origins(device) -> list[int]:
    """Per-origin counts of the device's pending requests in ``Origin`` order, by a full walk."""
    origins = [device.origins[r] for r in (device.in_service, *device.waiting) if r is not None]
    return [origins.count(origin.index) for origin in Origin]


def read_events(source) -> tuple[str, list[dict[str, str]]]:
    """The scenario hash and the rows of an events.log, a path or a text buffer read from its start."""
    if isinstance(source, Path):
        with open(source, newline="") as fh:
            return read_events(fh)
    source.seek(0)
    first = source.readline().strip()
    assert first.startswith("# scenario="), f"{source}: missing scenario header"
    return first.removeprefix("# scenario="), list(csv.DictReader(source))


def burst_window_indices(result: RunResult) -> set[int]:
    """Interval indices the run flagged as cache-side bottlenecks."""
    return {row.interval_index for row in result.rows if row.burst}

