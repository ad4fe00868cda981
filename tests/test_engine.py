"""Event loop and device queue semantics."""

import heapq
import random
import sys
from array import array
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbicasim.engine import Device, DeviceRole, Origin, Requests, Schedule, Simulator

from conftest import schedule_of

ORIGINS = list(Origin)


def submit_new(sim, origin=Origin.R, target=DeviceRole.SSD, arrival=0, lba=0):
    """Create a cache-traffic request in ``sim``'s table, submit it to ``target``; its id."""
    req = sim.requests.add(origin.index, arrival, lba)
    sim.submit(req, target)
    return req


def bound_device(read=100, write=100):
    """An SSD whose requests live in a table of their own, and that table."""
    dev = Device(DeviceRole.SSD, read, write)
    requests = Requests(Schedule())
    dev.origins = requests.origin
    return dev, requests


def add_read(requests, arrival=0):
    return requests.add(Origin.R.index, arrival, 0)


@pytest.mark.parametrize("origin", list(Origin))
def test_a_request_reads_exactly_when_its_origin_is_an_application_read(origin):
    assert origin.op == ("read" if origin is Origin.R else "write")


# a step bound past every event a test schedules
FOREVER = sys.maxsize


# a finished request as the recorder reads it back from its run's table
Done = namedtuple("Done", "id target origin arrival lba")


class Recorder:
    """Recording handlers: every call as ``(clock, kind, request id)``.

    With ``submit`` set, the arrival handler submits each arrival's
    schedule row to the device ``targets`` names for it, the way the
    runner's dispatch does once it has planned the access. Each finished
    request is kept as a :class:`Done`, its fields read from the
    simulator's request table; a cache request's entry is popped then,
    as the runner pops it.
    """

    def __init__(self, submit=True):
        self.sim = None
        self.submit = submit
        self.targets = []
        self.calls = []
        self.completed = []

    def on_complete(self, req, role):
        self.calls.append((self.sim.clock, "complete", req))
        requests = self.sim.requests
        if req < requests.rows:
            arrival, lba = requests.schedule.arrival[req], requests.schedule.lba[req]
        else:
            arrival, lba, _app = requests.live.pop(req)
        self.completed.append(Done(req, role, ORIGINS[requests.origin[req]], arrival, lba))

    def on_arrive(self, row):
        assert row.__class__ is int
        self.calls.append((self.sim.clock, "arrive", row))
        if self.submit:
            self.sim.submit(row, self.targets[row])

    def arrived(self):
        return [req_id for _, kind, req_id in self.calls if kind == "arrive"]

    def completions(self):
        """``(id, completion instant)`` of every completion, in handler order."""
        return [(req_id, clock) for clock, kind, req_id in self.calls if kind == "complete"]


def new_sim(ssd=(100, 100), hdd=(5000, 5000), submit=True, recorder=None, arrivals=()):
    """A simulator over devices with the given (read, write) latencies, and its recorder.

    ``arrivals`` are ``(arrival, lba, origin, target)`` rows in arrival
    order: the schedule, and the device the recorder routes each row to.
    """
    rec = recorder or Recorder(submit)
    rec.targets = [target for *_, target in arrivals]
    schedule = schedule_of(row[:3] for row in arrivals)
    ssd_dev, hdd_dev = Device(DeviceRole.SSD, *ssd), Device(DeviceRole.HDD, *hdd)
    rec.sim = Simulator(ssd_dev, hdd_dev, rec.on_complete, rec.on_arrive, schedule)
    return rec.sim, rec


def make_sim(submit=True, arrivals=()):
    return new_sim(ssd=(100, 300), hdd=(4000, 6000), submit=submit, arrivals=arrivals)


def drain(sim, rec):
    """Run the loop dry, returning completions in completion order."""
    assert sim.step(FOREVER) is False
    return rec.completed


class TestSubmit:
    def test_empty_queue_accepts_one_read(self):
        dev, requests = bound_device()
        dev.submit(add_read(requests), now=0)
        assert dev.qsize == 1

    def test_back_to_back_submissions_keep_fifo_order(self):
        dev, requests = bound_device()
        for _ in range(5):
            dev.submit(add_read(requests), now=0)
        assert dev.qsize == 5
        assert [dev.in_service, *dev.waiting] == [0, 1, 2, 3, 4]

    def test_a_schedule_row_is_queued_as_itself_and_served_by_its_op(self):
        # a write row on an SSD with 100us reads and 300us writes
        sim, rec = new_sim(ssd=(100, 300), submit=False, arrivals=[(0, 7, Origin.W, None)])
        sim.step(0)
        sim.submit(0, DeviceRole.SSD)
        read = submit_new(sim)  # a read request behind it, the first cache request
        assert read == 1
        assert sim.ssd.in_service == 0  # the row is its own id
        assert list(sim.ssd.waiting) == [1]
        assert sim.ssd.inqueue == [1, 1, 0, 0]
        drain(sim, rec)
        assert rec.completions() == [(0, 300), (1, 400)]
        assert rec.completed[0] == Done(0, DeviceRole.SSD, Origin.W, 0, 7)
        assert sim.requests.live == {}

    def test_negative_latency_rejected(self):
        for latencies in ((0, 100), (100, 0), (-1, 100), (100, -1)):
            with pytest.raises(ValueError):
                Device(DeviceRole.SSD, *latencies)
        assert Device(DeviceRole.SSD, 1, 1).busy_time == 0  # one microsecond is enough


class TestStep:
    def test_single_read_completes_after_service_latency(self):
        sim, rec = new_sim()
        submit_new(sim)
        drain(sim, rec)
        assert rec.completions() == [(0, 100)]

    def test_two_reads_serialize_fifo(self):
        sim, rec = new_sim()
        submit_new(sim)
        submit_new(sim)
        drain(sim, rec)
        assert rec.completions() == [(0, 100), (1, 200)]

    def test_mixed_read_then_write_schedule(self):
        # read 100us then write 200us, both queued at t=0 -> 100 and 300
        sim, rec = new_sim(ssd=(100, 200))
        submit_new(sim)
        submit_new(sim, origin=Origin.W)
        drain(sim, rec)
        assert rec.completions() == [(0, 100), (1, 300)]

    def test_no_pending_events_signals_end(self):
        sim, rec = new_sim()
        assert sim.step(FOREVER) is False
        assert rec.calls == []
        assert sim.clock == 0

    def test_scheduled_arrivals_surface_at_their_instant(self):
        sim, rec = new_sim(submit=False, arrivals=[(250, 7, Origin.W, None)])
        assert sim.step(249) is True
        assert rec.calls == []
        assert sim.step(250) is False
        assert sim.clock == 250
        assert rec.calls == [(250, "arrive", 0)]

    def test_same_instant_completions_precede_arrivals(self):
        sim, rec = new_sim(submit=False, arrivals=[(100, 0, Origin.R, None)])
        submit_new(sim)  # request 1: the schedule holds request 0
        assert sim.step(100) is False
        assert sim.clock == 100
        assert rec.calls == [(100, "complete", 1), (100, "arrive", 0)]

    def test_both_due_completions_leave_their_devices_before_either_handler(self):
        seen = []

        def on_complete(req, role):
            seen.append((req, role, sim.ssd.in_service, sim.hdd.in_service))

        ssd, hdd = Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 100, 100)
        sim = Simulator(ssd, hdd, on_complete, seen.append, Schedule())
        submit_new(sim)
        submit_new(sim, target=DeviceRole.HDD)
        assert sim.step(100) is False
        # SSD first; when its handler runs the HDD is already idle
        assert seen == [(0, DeviceRole.SSD, None, None), (1, DeviceRole.HDD, None, None)]

    def test_step_stops_at_until_and_resumes_there(self):
        sim, rec = new_sim()
        for _ in range(3):
            submit_new(sim)
        assert sim.step(150) is True
        assert sim.clock == 150  # left at ``until`` while events remain past it
        assert rec.calls == [(100, "complete", 0)]
        assert sim.step(200) is True  # the event at exactly ``until`` is handled
        assert rec.calls[-1] == (200, "complete", 1)
        assert sim.clock == 200
        assert sim.step(FOREVER) is False
        assert rec.calls[-1] == (300, "complete", 2)


class TestArrivalOrder:
    def test_out_of_order_arrival_is_rejected_by_name(self):
        with pytest.raises(
            ValueError,
            match=r"request 1 arrives at 400, before the preceding scheduled arrival at 500",
        ):
            schedule_of([(500, 0, Origin.R), (400, 1, Origin.R)])

    @pytest.mark.parametrize(
        "arrivals, row",
        [
            ((15, 10, 20, 30, 40), 1),  # the first row arrives after the second
            ((0, 10, 5, 30, 40), 2),
            ((0, 10, 20, 30, 25), 4),
        ],
        ids=["first", "middle", "last"],
    )
    def test_check_order_names_the_first_out_of_order_row(self, arrivals, row):
        filled = Schedule(len(arrivals))
        filled.arrival[:] = array("q", arrivals)
        with pytest.raises(ValueError) as by_check:
            filled.check_order()
        assert str(by_check.value) == (
            f"request {row} arrives at {arrivals[row]}, "
            f"before the preceding scheduled arrival at {arrivals[row - 1]}"
        )

    @pytest.mark.parametrize("arrivals", [(), (7,), (0, 0, 3, 3, 9)])
    def test_check_order_passes_non_decreasing_arrivals(self, arrivals):
        schedule = Schedule(len(arrivals))
        zeros = [0] * len(arrivals)  # the rows of zeros ``Schedule(n)`` starts with
        assert (schedule.arrival.tolist(), schedule.lba, list(schedule.read)) == (zeros,) * 3
        schedule.arrival[:] = array("q", arrivals)
        schedule.check_order()


# sorted arrival times drawn from few distinct values, so many coincide
# with each other and, on the 100us grid, with SSD completions (100/300us)
sorted_schedules = st.lists(st.integers(min_value=0, max_value=12), max_size=50).map(
    lambda ticks: [100 * t for t in sorted(ticks)]
)


@given(sorted_schedules, st.randoms(use_true_random=False))
def test_arrival_cursor_matches_a_heap_reference(times, rng):
    reqs = [(t, i, Origin.R, rng.choice(list(DeviceRole))) for i, t in enumerate(times)]
    # reference: the (arrival, seq) heap the cursor replaced; row i is request i
    heap = [(arrival, seq, seq) for seq, (arrival, *_) in enumerate(reqs)]
    heapq.heapify(heap)
    expected = []
    while heap:
        t = heap[0][0]
        ids = []
        while heap and heap[0][0] == t:
            ids.append(heapq.heappop(heap)[2])
        expected.append((t, ids))

    sim, rec = make_sim(arrivals=reqs)
    assert sim.step(FOREVER) is False
    got = []
    for clock, kind, req_id in rec.calls:
        if kind != "arrive":
            continue
        if got and got[-1][0] == clock:
            got[-1][1].append(req_id)
        else:
            got.append((clock, [req_id]))
    assert got == expected


class TestRemoveTail:
    def setup_method(self):
        self.dev, self.requests = bound_device()

    def test_removes_tail_in_queue_order(self):
        # build a waiting-only queue: nothing has entered service
        self.dev.waiting.extend(add_read(self.requests) for _ in range(3))
        removed = self.dev.remove_tail(2)
        assert removed == [1, 2]
        assert list(self.dev.waiting) == [0]

    def test_remove_zero_is_identity(self):
        self.dev.submit(add_read(self.requests), now=0)
        assert self.dev.remove_tail(0) == []
        assert self.dev.qsize == 1

    def test_in_service_request_is_protected(self):
        for _ in range(3):
            self.dev.submit(add_read(self.requests), now=0)
        assert self.dev.in_service == 0
        removed = self.dev.remove_tail(3)  # clamped to the waiting portion
        assert removed == [1, 2]
        assert self.dev.qsize == 1
        assert self.dev.in_service == 0


def random_schedule(seed, n=60):
    rng = random.Random(seed)
    reqs = []
    t = 0
    for i in range(n):
        t += rng.randrange(0, 300)
        target = DeviceRole.SSD if rng.random() < 0.7 else DeviceRole.HDD
        origin = Origin.R if rng.random() < 0.5 else Origin.W
        reqs.append((t, i, origin, target))
    return reqs


def run_schedule(seed):
    """Drain a random schedule; the recorder submits each request as it arrives."""
    sim, rec = make_sim(arrivals=random_schedule(seed))
    drain(sim, rec)
    return sim, rec


def service_latency(sim, req):
    dev = sim.ssd if req.target is DeviceRole.SSD else sim.hdd
    return dev.read_latency if req.origin is Origin.R else dev.write_latency


@given(st.integers(min_value=0, max_value=10_000))
def test_fifo_completion_order_per_device(seed):
    _sim, rec = run_schedule(seed)
    done = rec.completed
    target = {r.id: r.target for r in done}
    completed_at = dict(rec.completions())
    for role in DeviceRole:
        times = [completed_at[r.id] for r in done if r.target is role]
        assert times == sorted(times)
        ids_by_completion = [r.id for r in done if r.target is role]
        ids_by_submit = [i for i in rec.arrived() if target[i] is role]
        assert ids_by_completion == ids_by_submit


@given(st.integers(min_value=0, max_value=10_000))
def test_busy_time_equals_sum_of_service_latencies(seed):
    sim, rec = run_schedule(seed)
    for dev in (sim.ssd, sim.hdd):
        expected = sum(service_latency(sim, r) for r in rec.completed if r.target is dev.role)
        assert dev.busy_time == expected


@given(st.integers(min_value=0, max_value=10_000))
def test_timestamp_ordering_invariant(seed):
    sim, rec = run_schedule(seed)
    completed_at = dict(rec.completions())
    for role in DeviceRole:
        previous = 0  # completion of the request served before, on this device
        for req in (r for r in rec.completed if r.target is role):
            started = completed_at[req.id] - service_latency(sim, req)
            assert req.arrival <= started
            assert previous <= started
            previous = completed_at[req.id]


class TestRequestCreation:
    def test_no_application_request_object_exists_until_a_device_finishes_it(self):
        # nor after: the simulator hands each handler a row id and a role
        rows = [(100 * k, k, Origin.W, DeviceRole.SSD) for k in range(1, 6)]
        # a 1 ms write service keeps every arrived request queued until
        # long after the last arrival; request k - 1 finishes at 100 + 1000k
        sim, rec = new_sim(ssd=(1000, 1000), arrivals=rows)
        for k in range(1, 6):
            # the instant before request k - 1 arrives, then the instant itself
            assert sim.step(100 * k - 1) is True
            sim.step(100 * k)
            # only cache requests have an entry in the request table
            assert sim.requests.live == {}
        # all five wait or are in service, each as its schedule row
        assert (sim.ssd.in_service, *sim.ssd.waiting) == (0, 1, 2, 3, 4)
        assert drain(sim, rec) == [
            Done(k - 1, DeviceRole.SSD, Origin.W, 100 * k, k) for k in range(1, 6)
        ]
        assert sim.requests.live == {}


def test_identical_schedules_replay_identically():
    first_sim, first = run_schedule(424242)
    # the second run reads the first one's schedule object: a run only reads it
    second = Recorder()
    second.targets = first.targets
    ssd, hdd = Device(DeviceRole.SSD, 100, 300), Device(DeviceRole.HDD, 4000, 6000)
    second.sim = Simulator(ssd, hdd, second.on_complete, second.on_arrive, first_sim.schedule)
    drain(second.sim, second)
    assert first.calls == second.calls
    assert first.completions() == second.completions()
