"""Run orchestration: dispatch, deferred promotions, bypass, interval rows."""

import ast
import csv
import dataclasses
import gc
import inspect
import io
import sys
import tracemalloc
import weakref
from collections import deque
from enum import Enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbicasim import (
    EventLog,
    RunConfig,
    Simulation,
    build_requests,
    load_config,
    run_simulation,
    runner,
    write_run,
)
from lbicasim.balancer import BALANCERS, PolicyDecision
from lbicasim.cache import WritePolicy
from lbicasim.engine import DeviceRole, Origin, Requests, Schedule, Simulator
from lbicasim.report import read_intervals, read_summary
from lbicasim.workload import PhaseSpec, UniformRandom, dump_trace

from conftest import SCENARIOS, read_events, recount_origins, schedule_of


def small_config(**overrides):
    fields = dict(
        cache_blocks=8,
        seed=3,
        interval_us=10_000,
        phases=(
            PhaseSpec(
                duration_us=40_000,
                arrival_rate=500,
                read_fraction=0.5,
                address_model=UniformRandom(),
                working_set_blocks=32,
            ),
        ),
    )
    fields.update(overrides)
    return RunConfig(**fields)


def writes_at_zero(count):
    """A schedule of ``count`` application writes arriving at 0, row ``i`` to block ``i``."""
    return schedule_of((0, i, Origin.W) for i in range(count))


def logged_sim(config, schedule):
    """A simulation whose event log is written to the returned buffer."""
    buffer = io.StringIO()
    return Simulation(config, schedule, events=EventLog(buffer, config.scenario_hash())), buffer


class TestEndToEnd:
    def test_all_application_requests_complete(self):
        result = run_simulation(small_config())
        assert result.summary["app_completed"] == result.summary["app_requests"] == 20

    def test_row_count_covers_the_whole_run(self):
        config = small_config()
        result = run_simulation(config)
        expected = -(-result.summary["simulated_end_us"] // config.interval_us)
        assert result.summary["intervals"] == len(result.rows) == expected

    def test_interval_windows_tile_without_gaps(self):
        config = small_config()
        result = run_simulation(config)
        for i, row in enumerate(result.rows):
            assert row.interval_index == i + 1
            assert row.window_start == i * config.interval_us
            assert row.window_end == (i + 1) * config.interval_us

    def test_repeat_runs_agree_exactly(self):
        a = run_simulation(small_config())
        b = run_simulation(small_config())
        assert a.summary == b.summary
        assert a.rows == b.rows

    def test_completion_totals_match_submission_totals(self):
        result = run_simulation(small_config())
        summary = result.summary
        ssd_done = sum(summary[f"ssd_completed_{o}"] for o in "rwpe")
        hdd_done = sum(summary[f"hdd_completed_{o}"] for o in "rwpe")
        assert ssd_done == summary["ssd_submitted"]
        assert hdd_done == summary["hdd_submitted"]

    def test_latencies_of_three_queued_reads(self):
        # three read misses queue on the disk and finish 5, 10 and 15 ms in
        schedule = schedule_of((0, lba, Origin.R) for lba in range(3))
        summary = Simulation(small_config(phases=()), schedule).run().summary
        latencies = [summary[f"{k}_latency_us"] for k in ("mean", "median", "p99", "max")]
        assert latencies == [10_000, 10_000, 15_000, 15_000]

    def test_an_empty_schedule_closes_no_interval(self):
        result = Simulation(small_config(phases=()), Schedule()).run()
        assert result.rows == []
        latencies = [result.summary[f"{k}_latency_us"] for k in ("mean", "median", "p99", "max")]
        assert latencies == [0, 0, 0, 0]

    def test_event_log_records_the_scenario_hash(self):
        config = small_config()
        buffer = io.StringIO()
        run_simulation(config, events=EventLog(buffer, config.scenario_hash()))
        buffer.seek(0)
        assert buffer.readline().strip() == f"# scenario={config.scenario_hash()}"


class TestTraceRoundTrip:
    def test_a_dumped_and_reloaded_schedule_reports_the_same_rows(self, tmp_path):
        # write_intensive/lbica bypasses writes, so the run reads every column
        config = scenario_config("write_intensive", "lbica")
        trace = tmp_path / "trace.txt"
        dump_trace(build_requests(config), trace)
        replayed = dataclasses.replace(config, phases=(), trace_path=str(trace))
        write_run(run_simulation(config), tmp_path / "phases")
        write_run(run_simulation(replayed), tmp_path / "trace")
        generated_hash, generated_rows = read_intervals(tmp_path / "phases" / "intervals.csv")
        replayed_hash, replayed_rows = read_intervals(tmp_path / "trace" / "intervals.csv")
        assert replayed_hash != generated_hash
        assert replayed_rows == generated_rows
        assert sum(int(row["bypassed"]) for row in replayed_rows) > 0
        summaries = []
        for name, scenario in (("phases", generated_hash), ("trace", replayed_hash)):
            file_hash, summary = read_summary(tmp_path / name / "summary.csv")
            assert file_hash == summary.pop("scenario") == scenario
            summaries.append(summary)
        assert summaries[0] == summaries[1]


class TestDeferredPromotion:
    def test_read_miss_promotes_after_the_disk_read(self):
        sim, buffer = logged_sim(small_config(phases=()), schedule_of([(0, 5, Origin.R)]))
        result = sim.run()
        assert result.summary["ssd_completed_p"] == 1
        assert result.summary["hdd_completed_r"] == 1
        assert result.summary["app_completed"] == 1
        # the promotion enters the cache queue the instant the disk read completes
        steps = [
            (r["event"], r["origin"], r["target"], int(r["time"]))
            for r in read_events(buffer)[1]
            if r["event"] in ("submit", "complete")
        ]
        assert steps[:3] == [
            ("submit", "R", "hdd", 0),
            ("complete", "R", "hdd", 5000),
            ("submit", "P", "ssd", 5000),
        ]

    def test_promotion_dropped_when_policy_turned_write_only(self):
        sim = Simulation(small_config(phases=()), schedule_of([(0, 5, Origin.R)]))
        sim.set_policy(sim.balancer.initial_policy)
        assert sim.sim.step(0) is True  # the arrival is dispatched, its disk read pending
        assert sim.sim.hdd.in_service == 0  # request 0's schedule row
        sim.set_policy(WritePolicy.WO)  # flips while the disk read is in flight
        assert sim.sim.step(sys.maxsize) is False
        assert sim.dropped_promotions == 1
        assert sim.sim.ssd.submitted == 0


class TestBypassTail:
    def test_promotions_are_discarded_and_writes_move_to_disk(self):
        sim, buffer = logged_sim(small_config(phases=()), writes_at_zero(3))
        promo = sim.sim.requests.add(Origin.P.index, 0, 9)
        # row 0 enters service, protected from removal; rows 1 and 2 wait
        for row in range(3):
            sim._submit(row, DeviceRole.SSD)
        sim._submit(promo, DeviceRole.SSD)
        moved = sim.bypass_tail(10)  # clamped to the waiting queue
        assert moved == 3
        assert sim.dropped_promotions == 1
        # the application writes now sit in the disk queue, as their rows
        hdd = sim.sim.hdd
        assert [hdd.in_service, *hdd.waiting] == [1, 2]
        assert hdd.inqueue == [0, 2, 0, 0]
        # the dropped promotion left the table of cache requests in flight
        assert sim.sim.requests.live == {}
        # each moved write left the cache queue, then entered the disk
        # queue, its origin and arrival intact
        rows = read_events(buffer)[1]
        for row in (1, 2):
            steps = [
                (r["event"], r["target"], r["origin"], r["arrival"])
                for r in rows
                if r["req"] == str(row)
            ]
            assert steps == [
                ("submit", "ssd", "W", "0"),
                ("remove", "ssd", "W", "0"),
                ("submit", "hdd", "W", "0"),
            ]

    def test_bypass_of_an_empty_queue_moves_nothing(self):
        sim = Simulation(small_config(phases=()), Schedule())
        assert sim.bypass_tail(4) == 0


class FixedDecision:
    """Stub balancer whose every tick returns the same decision."""

    def __init__(self, decision):
        self.decision = decision
        self.initial_policy = decision.policy

    def tick(self, stats, ratios):
        return self.decision


class TestApplyDecision:
    def submit_ssd_writes(self, sim, first_row, count):
        for row in range(first_row, first_row + count):
            sim._submit(row, DeviceRole.SSD)

    def test_runner_clamps_the_requested_bypass_then_switches_policy(self):
        config = small_config(phases=())
        sim, buffer = logged_sim(config, writes_at_zero(5))
        self.submit_ssd_writes(sim, 0, 3)  # one in service, two waiting
        sim.balancer = FixedDecision(PolicyDecision(WritePolicy.WT, bypass_depth=10))
        sim._tick(config.interval_us)
        assert sim.rows[-1].bypassed == 2  # clamped to the waiting queue
        assert sim.rows[-1].policy == "WT"
        events = [r["event"] for r in read_events(buffer)[1]]
        assert events == ["submit"] * 3 + ["remove", "submit"] * 2 + ["policy"]
        # a decision without a bypass leaves the queue alone
        self.submit_ssd_writes(sim, 3, 2)
        sim.balancer = FixedDecision(PolicyDecision(WritePolicy.WT))
        sim._tick(2 * config.interval_us)
        assert sim.rows[-1].bypassed == 0
        assert sim.sim.ssd.qsize == 3
        assert [r["event"] for r in read_events(buffer)[1]].count("remove") == 2


class RecountingSimulation(Simulation):
    """Checks every device's per-origin counts against a recount at each tick."""

    ticks = 0

    def _tick(self, boundary):
        self.check_counts()
        super()._tick(boundary)
        self.check_counts()  # after the tick's tail bypass
        self.ticks += 1

    def check_counts(self):
        for device in (self.sim.ssd, self.sim.hdd):
            assert device.inqueue == recount_origins(device), (self.sim.clock, device.role)


def scenario_config(scenario, balancer):
    return dataclasses.replace(load_config(SCENARIOS[scenario]), balancer=balancer)


class TestQueueCounts:
    @pytest.mark.parametrize(
        "scenario, balancer, exercised",
        [
            ("write_intensive", "lbica", "bypassed_total"),  # writes moved to disk
            ("random_read", "sib", "dropped_promotions"),  # promotions dropped by bypass
            ("mixed_rw", "lbica", "burst_intervals"),  # thousands deep, policy switches
        ],
    )
    def test_counts_match_a_recount_at_every_tick(self, scenario, balancer, exercised):
        config = scenario_config(scenario, balancer)
        sim = RecountingSimulation(config, build_requests(config))
        result = sim.run()
        assert sim.ticks == len(result.rows) > 0
        assert result.summary[exercised] > 0

    def test_ticks_never_walk_the_queue(self):
        config = scenario_config("mixed_rw", "none-wb")
        sim = Simulation(config, build_requests(config))
        for device in (sim.sim.ssd, sim.sim.hdd):
            device.waiting = UnwalkableQueue(device.role)
        result = sim.run()
        assert result.summary["app_completed"] == result.summary["app_requests"]
        assert max(row.ssd_qsize for row in result.rows) > 1000


class UnwalkableQueue(deque):
    """A waiting queue that serves its FIFO operations but refuses to be walked."""

    def __init__(self, role):
        super().__init__()
        self.role = role

    def refuse(self, *args):
        raise AssertionError(f"{self.role.name} waiting queue walked")

    __iter__ = __reversed__ = __contains__ = __getitem__ = count = index = copy = refuse


class TestEnumHashing:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("balancer", BALANCERS)
    def test_requests_hash_no_enum_members(self, monkeypatch, scenario, balancer):
        # enum-keyed dicts are built per tick, never per request
        config = scenario_config(scenario, balancer)
        sim = Simulation(config, build_requests(config))
        hashes = 0

        def counting_hash(member):
            nonlocal hashes
            hashes += 1
            return Enum.__hash__(member)

        for enum in (Origin, DeviceRole, WritePolicy):
            monkeypatch.setattr(enum, "__hash__", counting_hash)
        result = sim.run()
        monkeypatch.undo()
        assert result.summary["app_completed"] == result.summary["app_requests"]
        assert hashes <= 40 * len(result.rows), (hashes, len(result.rows))


class TestLoopCalls:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("balancer", BALANCERS)
    def test_one_step_call_per_interval(self, monkeypatch, scenario, balancer):
        # the engine walks a whole interval per call, never one event per call
        config = scenario_config(scenario, balancer)
        sim = Simulation(config, build_requests(config))
        calls = 0
        step = Simulator.step

        def counting_step(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        monkeypatch.setattr(Simulator, "step", counting_step)
        result = sim.run()
        monkeypatch.undo()
        assert result.summary["app_completed"] == result.summary["app_requests"]
        intervals = len(result.rows)
        assert calls <= intervals + 1, (calls, intervals)
        # every write-through write saw both of its halves complete
        assert not any(sim._both_halves_pending)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("balancer", BALANCERS)
    def test_every_submission_goes_through_simulator_submit(self, monkeypatch, scenario, balancer):
        # the benchmark samples the SSD queue peak after each Simulator.submit
        config = scenario_config(scenario, balancer)
        sim = Simulation(config, build_requests(config))
        calls = 0
        submit = Simulator.submit

        def counting_submit(*args):
            nonlocal calls
            calls += 1
            return submit(*args)

        monkeypatch.setattr(Simulator, "submit", counting_submit)
        sim.run()
        monkeypatch.undo()
        assert calls == sim.sim.ssd.submitted + sim.sim.hdd.submitted > 0


class TestRunLifetime:
    def test_finished_run_is_freed_without_the_cyclic_gc(self):
        config = scenario_config("mixed_rw", "none-wb")
        sim = Simulation(config, build_requests(config))
        gc.disable()
        try:
            result = sim.run()
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()
        assert result.summary["app_completed"] == result.summary["app_requests"]

    def test_a_shallow_queue_run_holds_few_bytes_per_scheduled_request(self):
        # the benchmark's steady phase at 1 s and 2 s: its queues stay a few
        # entries deep, so a scheduled request costs its schedule row (17 B
        # and list growth) and its latency sample; a request object built
        # ahead of its arrival would cost about 150 B
        def traced_peak(seconds):
            phase = PhaseSpec(
                duration_us=seconds * 1_000_000,
                arrival_rate=6000,
                read_fraction=0.7,
                address_model=UniformRandom(),
                working_set_blocks=2048,
                jitter=0.5,
            )
            config = RunConfig(
                seed=1,
                interval_us=100_000,
                ssd_read_us=100,
                ssd_write_us=100,
                hdd_read_us=150,
                hdd_write_us=150,
                cache_blocks=1024,
                phases=(phase,),
            )
            tracemalloc.start()
            try:
                schedule = build_requests(config)
                result = Simulation(config, schedule).run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.summary["app_completed"] == len(schedule) == 6000 * seconds
            assert max(row.ssd_qsize for row in result.rows) < 50
            return len(schedule), peak

        short_n, short_peak = traced_peak(1)
        long_n, long_peak = traced_peak(2)
        # the fixed share (cache table, interval rows) drops out of the difference
        assert (long_peak - short_peak) / (long_n - short_n) <= 40


class DiscardedSamples(list):
    """A latency list that keeps no sample, so a run's memory is its queues and state."""

    def append(self, sample):
        pass


class QueueSampling(Simulation):
    """Records, at every tick, the application requests both devices hold.

    With ``held_at`` set, it also reads the memory ``tracemalloc`` traces
    when it ticks at that boundary. It discards its latency samples.
    """

    held_at = None

    def __init__(self, config, schedule):
        super().__init__(config, schedule)
        self._latencies = DiscardedSamples()
        self.queued = []

    def _tick(self, boundary):
        if boundary == self.held_at:
            self.held = tracemalloc.get_traced_memory()[0]
        # Origin R and W are the application requests
        app = sum(device.inqueue[0] + device.inqueue[1] for device in (self.sim.ssd, self.sim.hdd))
        self.queued.append((app, boundary))
        super()._tick(boundary)


class TestDeepQueueMemory:
    def test_a_queued_application_request_costs_its_row_and_a_queue_slot(self):
        # mixed_rw/none-wb queues about 30 000 application requests at its
        # burst's peak. Each waits as its schedule row: an int (32 B) in a
        # deque slot (8 B). A request object built at its arrival adds its
        # 80 B and an arrival int, about 150 B in all.
        config = scenario_config("mixed_rw", "none-wb")
        schedule = build_requests(config)
        probe = QueueSampling(config, schedule)
        probe.run()
        peak, boundary = max(probe.queued)
        assert peak > 20_000
        traced = QueueSampling(config, schedule)
        traced.held_at = boundary
        tracemalloc.start()
        try:
            traced.run()
        finally:
            tracemalloc.stop()
        assert traced.queued == probe.queued  # the traced run repeated the first
        # everything the run holds at the peak, its cache map and interval
        # rows included, per queued application request
        assert traced.held / peak <= 48, (traced.held, peak)


class TestPolicyLog:
    def test_policy_changes_logged_once_per_transition(self):
        sim, buffer = logged_sim(small_config(phases=()), Schedule())
        sim.set_policy(sim.balancer.initial_policy)  # WB -> WB, not a transition
        sim.set_policy(WritePolicy.WO)
        sim.set_policy(WritePolicy.WO)  # repeat is not logged
        sim.set_policy(WritePolicy.WB)
        rows = [r for r in read_events(buffer)[1] if r["event"] == "policy"]
        assert [r["note"] for r in rows] == ["WO", "WB"]



def logged_event_fields():
    """Every ``event`` and ``note`` literal the runner writes to a request row.

    Every request row is written by an ``EventLog.request`` call, which
    takes ``(time, event, req, target, note)``.
    """
    events, notes = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(runner))):
        if not isinstance(node, ast.Call) or getattr(node.func, "attr", None) != "request":
            continue
        fields = [node.args[1], *node.args[4:5]]  # the event, a positional note
        fields += [kw.value for kw in node.keywords if kw.arg == "note"]
        assert all(isinstance(f, ast.Constant) and isinstance(f.value, str) for f in fields)
        events.add(fields[0].value)
        notes.update(f.value for f in fields[1:])
    return sorted(events), sorted(notes)


LOGGED_EVENTS, LOGGED_NOTES = logged_event_fields()

# small values collide often, so rows where an app equals its request's
# id are drawn as often as the rest
numbers = st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=10**9)

# a cache request's (origin, arrival, lba, app), -1 for background traffic
logged_requests = st.tuples(st.sampled_from(Origin), numbers, numbers, st.just(-1) | numbers)


LOGGED_SCHEDULE = [(0, 5, Origin.R), (7, 10**9, Origin.W), (7, 0, Origin.R)]


def reference_row(time, event, req, target, note, fields):
    """The row ``csv.writer`` writes for request ``req``, given each id's fields.

    ``fields[req]`` is ``(origin, arrival, lba, app)``.
    """
    origin, arrival, lba, app = fields[req]
    return (
        time,
        event,
        req,
        "" if app < 0 else app,
        origin.value,
        "read" if origin is Origin.R else "write",
        target.value,
        lba,
        arrival,
        note,
    )


class TestEventLogFormat:
    def test_runner_passes_only_csv_safe_events_and_notes(self):
        # EventLog formats every row without quoting, which csv.writer
        # would apply to any field holding one of these characters
        assert set(LOGGED_EVENTS) == {"submit", "complete", "remove", "drop"}
        assert set(LOGGED_NOTES) == {"bypassed promotion", "write-only policy"}
        policies = [policy.value for policy in WritePolicy]
        for text in LOGGED_EVENTS + LOGGED_NOTES + policies + list(runner.EVENT_COLUMNS):
            assert not set(text) & set(',"\r\n'), text

    @given(
        st.lists(logged_requests, max_size=5),
        st.lists(
            # a request by position among LOGGED_SCHEDULE's rows and the
            # cache requests, and the device that holds it
            st.tuples(
                numbers,
                st.sampled_from(LOGGED_EVENTS),
                st.integers(min_value=0, max_value=7),
                st.sampled_from([""] + LOGGED_NOTES),
                st.sampled_from(DeviceRole),
            )
            | st.tuples(numbers, st.sampled_from(WritePolicy)),
            max_size=20,
        ),
    )
    def test_rows_match_a_csv_writer_byte_for_byte(self, cache_requests, rows):
        buffer = io.StringIO()
        log = EventLog(buffer, "abc")
        log.requests = Requests(schedule_of(LOGGED_SCHEDULE))
        # each request's fields by id: a row's app is itself
        fields = [
            (origin, arrival, lba, i) for i, (arrival, lba, origin) in enumerate(LOGGED_SCHEDULE)
        ]
        for origin, arrival, lba, app in cache_requests:
            assert log.requests.add(origin.index, arrival, lba, app) == len(fields)
            fields.append((origin, arrival, lba, app))
        reference = io.StringIO()
        reference.write("# scenario=abc\n")
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(runner.EVENT_COLUMNS)
        for row in rows:
            if len(row) == 2:
                time, policy = row
                log.policy(time, policy)
                writer.writerow((time, "policy", "", "", "", "", "", "", "", policy.value))
                continue
            time, event, position, note, target = row
            req = position % len(fields)
            log.request(time, event, req, target, note)
            writer.writerow(reference_row(time, event, req, target, note, fields))
        assert buffer.getvalue() == reference.getvalue()


class TestIntervalRows:
    def test_burst_flag_marks_cache_side_bottlenecks(self, scenario_runs):
        # every balancer reports bursts, the baseline too, though it never acts
        bursts = dict.fromkeys(BALANCERS, 0)
        for (_scenario, balancer), run in scenario_runs.items():
            bursts[balancer] += sum(row.burst for row in run.result.rows)
        assert all(count > 0 for count in bursts.values()), bursts


class TestWriteThroughRun:
    def test_sib_run_mirrors_every_write(self):
        config = small_config(balancer="sib", phases=())
        writes = schedule_of((i * 10, i, Origin.W) for i in range(5))
        result = Simulation(config, writes).run()
        assert result.summary["ssd_completed_w"] == 5
        assert result.summary["hdd_completed_w"] == 5
        assert result.summary["app_completed"] == 5
        assert result.summary["dirty_resident_end"] == 0

    def test_write_through_latency_waits_for_both_halves(self):
        config = small_config(balancer="sib", phases=())
        sim = Simulation(config, schedule_of([(0, 1, Origin.W)]))
        result = sim.run()
        # disk half is the slower one: 5000us write service
        assert sim._latencies == [5000]
        assert result.summary["mean_latency_us"] == 5000.0

    def test_write_through_latency_waits_for_a_slower_cache_half(self):
        # inverted latencies: the disk mirror completes first, at 5000us
        config = small_config(balancer="sib", phases=(), ssd_write_us=8000)
        sim = Simulation(config, schedule_of([(0, 1, Origin.W)]))
        result = sim.run()
        assert sim._latencies == [8000]
        assert result.summary["app_completed"] == 1

    def test_write_through_latency_waits_for_a_bypassed_cache_half(self):
        # a slow cache-queue blocker keeps the WT cache half waiting until the
        # first tick (10ms) moves it behind the mirror, which finished at 5ms
        config = small_config(phases=(), ssd_write_us=20_000)
        sim = Simulation(config, schedule_of([(0, 1, Origin.W)]))
        sim.balancer = FixedDecision(PolicyDecision(WritePolicy.WT, bypass_depth=1))
        blocker = sim.sim.requests.add(Origin.P.index, 0, 9)
        sim._submit(blocker, DeviceRole.SSD)
        result = sim.run()
        assert result.rows[0].bypassed == 1
        assert result.summary["hdd_completed_w"] == 2
        assert sim._latencies == [15_000]
