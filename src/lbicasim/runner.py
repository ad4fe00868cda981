"""Run orchestration: workload -> cache engine -> event loop -> telemetry -> balancer.

The engine owns the event loop; the :class:`Simulation` gives it the
:class:`~lbicasim.engine.Schedule` of the application requests,
supplies its two handlers and calls ``Simulator.step`` once per
interval. Every request is an ``int`` id (see :mod:`lbicasim.engine`).
The arrival handler dispatches each application arrival, a schedule
row, through the cache engine, which creates the access's cache
traffic in the run's request table, and submits the row and that
traffic to their devices. The completion handler submits deferred
promotions when their backing disk reads complete and keeps the
per-application bookkeeping that defines request latency (a
write-through write completes when both halves finish). Between two
``step`` calls, with the clock at the interval boundary, it ticks the
balancer.

Balancer ticks only return a decision; the simulation applies it through
two methods, so every policy change and queue edit flows through one
logged place:

* ``bypass_tail`` removes requests from the cache queue tail, discarding
  promotions (the disk copy is current, nothing is lost) and resubmitting
  application requests to the disk;
* ``set_policy`` switches the cache policy (logged when it changes).

With an event log enabled, every request lifecycle step and policy
change is recorded, which is enough to independently replay cache
metadata and re-derive interval statistics.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import IO

from .balancer import RatioVector, make_balancer
from .cache import CacheEngine, WritePolicy
from .config import RunConfig
from .engine import Device, DeviceRole, Origin, Requests, Schedule, Simulator
from .telemetry import IntervalStats, IntervalTracker, take_snapshot
from .workload import generate, load_trace

_SSD, _HDD = DeviceRole
# the origin and op fields of a request row, by Origin.index
_ORIGIN_FIELDS = tuple(f"{origin.value},{origin.op}" for origin in Origin)

EVENT_COLUMNS = ("time", "event", "req", "app", "origin", "op", "target", "lba", "arrival", "note")


class EventLog:
    """CSV event stream: submissions, completions, queue edits, policy changes.

    Two writers cover every row:

    * ``request`` writes one request row: ``submit``, ``complete``,
      ``remove`` or ``drop``;
    * ``policy`` writes a policy change.

    ``request`` takes a request's id and its ``target``, the device that
    holds it or takes it. The row's other fields come from ``requests``,
    the run's request table, which the :class:`Simulation` writing the
    log binds: a cache request's must still be in its ``live`` map.

    An application request's arrival has no row of its own. Its access
    is its first ``submit`` row, which carries its arrival as the row's
    time; a later ``submit`` of the same id follows a ``remove`` of it
    (a bypass). Each submit row is written right after its request
    enters a device queue, so if ``Simulator.submit`` raises, the log
    holds every row before that request's.

    Every row, the header included, is formatted directly rather than
    through ``csv.writer`` and goes straight to ``fh``; the log holds
    nothing back between calls. The format matches ``csv.writer`` only
    for fields it would not quote, so every ``event`` and ``note``
    passed in must be CSV-safe: free of ``,``, ``"``, ``\\r`` and ``\\n``.
    """

    def __init__(self, fh: IO[str], scenario: str):
        self._write = fh.write
        self.requests = Requests(Schedule())
        fh.write(f"# scenario={scenario}\n{','.join(EVENT_COLUMNS)}\n")

    def request(self, time: int, event: str, i: int, target: DeviceRole, note: str = "") -> None:
        requests = self.requests
        if i < requests.rows:
            schedule = requests.schedule
            arrival, lba, app = schedule.arrival[i], schedule.lba[i], i
        else:
            arrival, lba, app = requests.live[i]
        # ``_value_`` is the member's stored value; ``.value`` reaches the
        # same string through a descriptor that costs several times more
        self._write(
            f"{time},{event},{i},{'' if app < 0 else app},{_ORIGIN_FIELDS[requests.origin[i]]},"
            f"{target._value_},{lba},{arrival},{note}\n"
        )

    def policy(self, time: int, policy: WritePolicy) -> None:
        self._write(f"{time},policy,,,,,,,,{policy._value_}\n")


@dataclass
class RunResult:
    config: RunConfig
    rows: list[IntervalStats]
    summary: dict


class Simulation:
    """One run of ``config`` over ``schedule``, its application requests in arrival order.

    ``schedule`` becomes the simulator's arrival schedule: request ``i``
    of it has id ``i``, and cache traffic takes ids from ``len(schedule)``
    on, in the simulator's request table. The schedule is only read, so
    runs may share one.
    """

    def __init__(self, config: RunConfig, schedule: Schedule, events: EventLog | None = None):
        self.config = config
        self.events = events
        ssd = Device(DeviceRole.SSD, config.ssd_read_us, config.ssd_write_us)
        hdd = Device(DeviceRole.HDD, config.hdd_read_us, config.hdd_write_us)
        self.sim = Simulator(ssd, hdd, self._on_complete, self._dispatch, schedule)
        requests = self.sim.requests
        self._arrivals, self._lbas, self._reads = schedule.arrival, schedule.lba, schedule.read
        self._origins, self._live = requests.origin, requests.live
        if events:
            events.requests = requests
        self._n_app = len(schedule)
        self.cache = CacheEngine(config.cache_blocks, requests=requests)
        self.tracker = IntervalTracker(config.ssd_latency_avg, config.hdd_latency_avg)
        self.balancer = make_balancer(config.balancer, config.theta_dom)
        self.rows: list[IntervalStats] = []
        self.dropped_promotions = 0
        # an application read's row -> the id of its deferred promotion
        self._deferred: dict[int, int] = {}
        # per application row: 1 while both halves of its write-through
        # write are pending; empty until the run's first write-through
        # write, so a run without one pays no byte per row
        self._both_halves_pending = bytearray()
        self._latencies: list[int] = []

    # ------------------------------------------------------------------
    # applying controller decisions

    def set_policy(self, policy: WritePolicy) -> None:
        if policy is not self.cache.policy:
            self.cache.policy = policy
            if self.events:
                self.events.policy(self.sim.clock, policy)

    def bypass_tail(self, count: int) -> int:
        removed = self.sim.ssd.remove_tail(count)
        events, clock = self.events, self.sim.clock
        for req in removed:
            if events:
                events.request(clock, "remove", req, _SSD)
            if req < self._n_app:
                self._submit(req, _HDD)
            else:
                # the cache queue's only cache traffic is promotions, and a
                # dropped one loses no data: the disk copy is current
                self.dropped_promotions += 1
                if events:
                    events.request(clock, "drop", req, _SSD, "bypassed promotion")
                del self._live[req]
        return len(removed)

    # ------------------------------------------------------------------
    # event handling

    def _submit(self, req: int, target: DeviceRole) -> None:
        self.sim.submit(req, target)
        if self.events:
            self.events.request(self.sim.clock, "submit", req, target)

    def _dispatch(self, row: int) -> None:
        before, target, after, promotion, foreground = self.cache.access(
            row, self._lbas[row], self._reads[row], self.sim.clock
        )
        if foreground == 2:
            if not self._both_halves_pending:
                self._both_halves_pending = bytearray(self._n_app)
            self._both_halves_pending[row] = 1
        if promotion is not None:
            self._deferred[row] = promotion
        # cache traffic other than a promotion goes to the disk
        if before is not None:
            self._submit(before, _HDD)
        # ``_submit`` of the row, inline on the per-request path
        self.sim.submit(row, target)
        if self.events:
            self.events.request(self.sim.clock, "submit", row, target)
        if after is not None:
            self._submit(after, _HDD)

    def _on_complete(self, req: int, role: DeviceRole) -> None:
        clock = self.sim.clock
        events = self.events
        if events:
            events.request(clock, "complete", req, role)
        if req < self._n_app:
            arrival = self._arrivals[req]
            app = req
        else:
            arrival, _lba, app = self._live.pop(req)
        self.tracker.record_completion(role.index, self._origins[req], clock - arrival)
        if self._deferred:
            promotion = self._deferred.pop(req, None)
            if promotion is not None:
                if self.cache.admits_promotion:
                    # it enters the cache queue now, for the row's block
                    self._live[promotion] = (clock, self._lbas[req], -1)
                    self._submit(promotion, _SSD)
                else:
                    self.dropped_promotions += 1
                    if events:
                        events.request(clock, "drop", promotion, _SSD, "write-only policy")
                    del self._live[promotion]
        # an application request and its WT mirror are foreground, and
        # both carry the application's arrival: the mirror is created at it
        if app >= 0:
            pending = self._both_halves_pending
            if pending and pending[app]:
                pending[app] = 0
            else:
                self._latencies.append(clock - arrival)

    def _tick(self, boundary: int) -> None:
        ssd, hdd = self.sim.ssd, self.sim.hdd
        ratios = RatioVector.from_snapshot(take_snapshot(ssd, hdd))
        stats = self.tracker.close_interval(boundary, ssd.qsize, hdd.qsize)
        decision = self.balancer.tick(stats, ratios)
        if decision.bypass_depth:
            stats.bypassed = self.bypass_tail(decision.bypass_depth)
        self.set_policy(decision.policy)
        stats.ratios = ratios
        stats.klass = decision.klass.value if decision.klass is not None else ""
        stats.policy = decision.policy.value
        self.rows.append(stats)

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        self.set_policy(self.balancer.initial_policy)
        interval = self.config.interval_us
        boundary = interval
        sim = self.sim
        while sim.step(boundary):
            # events remain past the boundary, where step left the clock:
            # close this interval first
            self._tick(boundary)
            boundary += interval
        end_time = sim.clock
        if end_time > boundary - interval:
            # final partial interval: queues are empty, the tick just closes it
            sim.clock = boundary
            self._tick(boundary)
        # the handlers are bound methods of this Simulation: dropping them
        # breaks the cycle, so a finished run is freed by reference counting
        sim.on_complete = sim.on_arrive = None
        return RunResult(self.config, self.rows, self._summary(end_time))

    def _summary(self, end_time: int) -> dict:
        latencies = self._latencies
        latencies.sort()
        if latencies:
            mean_lat = statistics.fmean(latencies)
            # what ``statistics.median`` returns, without sorting a copy
            half = len(latencies) // 2
            if len(latencies) % 2:
                median_lat = latencies[half]
            else:
                median_lat = (latencies[half - 1] + latencies[half]) / 2
            p99_lat = latencies[-(-99 * len(latencies) // 100) - 1]
            max_lat = latencies[-1]
        else:
            mean_lat = median_lat = 0.0
            p99_lat = max_lat = 0
        burst_rows = [row for row in self.rows if row.burst]
        summary = {
            "scenario": self.config.scenario_hash(),
            "balancer": self.config.balancer,
            "seed": self.config.seed,
            "simulated_end_us": end_time,
            "intervals": len(self.rows),
            "app_requests": self._n_app,
            "app_completed": len(latencies),
            "mean_latency_us": mean_lat,
            "median_latency_us": median_lat,
            "p99_latency_us": p99_lat,
            "max_latency_us": max_lat,
            "cache_read_hits": self.cache.read_hits,
            "cache_read_misses": self.cache.read_misses,
            "ssd_submitted": self.sim.ssd.submitted,
            "hdd_submitted": self.sim.hdd.submitted,
            "bypassed_total": sum(row.bypassed for row in self.rows),
            "dropped_promotions": self.dropped_promotions,
            "dirty_writebacks": self.cache.dirty_writebacks,
            "dirty_resident_end": len(self.cache.dirty_lbas()),
            "burst_intervals": len(burst_rows),
            "mean_ssd_qsize_burst": (
                statistics.fmean(row.ssd_qsize for row in burst_rows) if burst_rows else 0.0
            ),
            "mean_hdd_qsize": (
                statistics.fmean(row.hdd_qsize for row in self.rows) if self.rows else 0.0
            ),
        }
        for device, served in (
            ("ssd", [row.ssd_served for row in self.rows]),
            ("hdd", [row.hdd_served for row in self.rows]),
        ):
            for origin in Origin:
                summary[f"{device}_completed_{origin.value.lower()}"] = sum(
                    counts[origin.index] for counts in served
                )
        return summary


def build_requests(config: RunConfig) -> Schedule:
    """The schedule of ``config``'s application requests: its trace, or its phases."""
    if config.trace_path is not None:
        return load_trace(config.trace_path)
    return generate(config.phases, config.seed)


def run_simulation(config: RunConfig, events: EventLog | None = None) -> RunResult:
    return Simulation(config, build_requests(config), events=events).run()
