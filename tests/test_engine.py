"""Event loop and device queue semantics."""

import heapq
import random
import sys
from array import array
from collections import deque

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
    dev.bind(requests)
    return dev, requests


def add_read(requests, arrival=0):
    return requests.add(Origin.R.index, arrival, 0)


@pytest.mark.parametrize("origin", list(Origin))
def test_a_request_reads_exactly_when_its_origin_is_an_application_read(origin):
    assert origin.op == ("read" if origin is Origin.R else "write")


# a step bound past every event a test schedules
FOREVER = sys.maxsize


class Recorder:
    """Recording handlers: every call as ``(clock, kind, request id)``.

    With ``submit`` set, the arrival handler submits each arrival's
    schedule row to the device ``targets`` names for it, the way the
    runner's dispatch does once it has planned the access.
    """

    def __init__(self, submit=True):
        self.sim = None
        self.submit = submit
        self.targets = []
        self.calls = []

    def on_promote(self, req):
        self.calls.append((self.sim.clock, "promote", req))

    def on_arrive(self, row):
        assert row.__class__ is int
        self.calls.append((self.sim.clock, "arrive", row))
        if self.submit:
            self.sim.submit(row, self.targets[row])


def new_sim(ssd=(100, 100), hdd=(5000, 5000), submit=True, recorder=None, arrivals=()):
    """A simulator over devices with the given (read, write) latencies, and its recorder.

    ``arrivals`` are ``(arrival, lba, origin, target)`` rows in arrival
    order: the schedule, and the device the recorder routes each row to.
    """
    rec = recorder or Recorder(submit)
    rec.targets = [target for *_, target in arrivals]
    schedule = schedule_of(row[:3] for row in arrivals)
    ssd_dev, hdd_dev = Device(DeviceRole.SSD, *ssd), Device(DeviceRole.HDD, *hdd)
    rec.sim = Simulator(ssd_dev, hdd_dev, rec.on_promote, rec.on_arrive, schedule)
    return rec.sim, rec


def make_sim(submit=True, arrivals=()):
    return new_sim(ssd=(100, 300), hdd=(4000, 6000), submit=submit, arrivals=arrivals)


def finishes(device):
    """``(id, finish)`` of every request the device holds, retired or not, in queue order."""
    return list(zip(device.ids, device.finish))


class TestSubmit:
    def test_empty_queue_accepts_one_read(self):
        dev, requests = bound_device()
        assert dev.submit(add_read(requests), now=0) == 100
        assert dev.qsize == 1

    def test_back_to_back_submissions_keep_fifo_order(self):
        dev, requests = bound_device()
        for _ in range(5):
            dev.submit(add_read(requests), now=0)
        assert dev.qsize == 5
        assert finishes(dev) == [(0, 100), (1, 200), (2, 300), (3, 400), (4, 500)]

    def test_an_idle_device_starts_at_the_submission(self):
        # finish = max(now, previous finish) + service
        dev, requests = bound_device()
        assert [dev.submit(add_read(requests), now) for now in (0, 50, 500)] == [100, 200, 600]
        assert dev.busy_until == 600

    def test_qsize_counts_what_is_pending_at_the_latest_submission(self):
        # unretired requests that finished by then are not pending
        dev, requests = bound_device()
        dev.submit(add_read(requests), now=0)
        dev.submit(add_read(requests), now=0)
        dev.submit(add_read(requests), now=150)  # request 0 finished at 100
        assert dev.qsize == 2
        assert dev.inqueue == [3, 0, 0, 0]  # until a retire takes request 0 off
        dev.retire(150)
        assert (dev.qsize, dev.inqueue) == (2, [2, 0, 0, 0])

    def test_a_schedule_row_is_queued_as_itself_and_served_by_its_op(self):
        # a write row on an SSD with 100us reads and 300us writes
        sim, rec = new_sim(ssd=(100, 300), submit=False, arrivals=[(0, 7, Origin.W, None)])
        sim.step(0)
        assert sim.submit(0, DeviceRole.SSD) == 300
        read = submit_new(sim)  # a read request behind it, the first cache request
        assert read == 1
        assert list(sim.ssd.ids) == [0, 1]  # the row is its own id
        assert sim.ssd.inqueue == [1, 1, 0, 0]
        assert list(sim.ssd.latency) == [300, 400]
        assert sim.requests.live == {1: (0, 0, -1)}
        drain(sim)
        assert finishes(sim.ssd) == [(0, 300), (1, 400)]

    def test_a_resubmitted_row_keeps_its_arrival(self):
        # a row arriving at 100 that reaches the disk only at 2 000 waits 7 000
        sim, rec = new_sim(submit=False, arrivals=[(100, 7, Origin.R, None)])
        sim.step(100)
        sim.clock = 2_000  # as the runner's tick at a boundary leaves it
        assert sim.submit(0, DeviceRole.HDD) == 7_000
        assert list(sim.hdd.latency) == [6_900]

    def test_negative_latency_rejected(self):
        for latencies in ((0, 100), (100, 0), (-1, 100), (100, -1)):
            with pytest.raises(ValueError):
                Device(DeviceRole.SSD, *latencies)
        assert Device(DeviceRole.SSD, 1, 1).busy_time == 0  # one microsecond is enough


def drain(sim):
    """Run the loop dry; it must end."""
    assert sim.step(FOREVER) is False


class TestStep:
    def test_single_read_completes_after_service_latency(self):
        sim, rec = new_sim()
        submit_new(sim)
        drain(sim)
        assert finishes(sim.ssd) == [(0, 100)]
        assert sim.clock == 100  # the run ends at its last finish

    def test_two_reads_serialize_fifo(self):
        sim, rec = new_sim()
        submit_new(sim)
        submit_new(sim)
        drain(sim)
        assert finishes(sim.ssd) == [(0, 100), (1, 200)]

    def test_mixed_read_then_write_schedule(self):
        # read 100us then write 200us, both queued at t=0 -> 100 and 300
        sim, rec = new_sim(ssd=(100, 200))
        submit_new(sim)
        submit_new(sim, origin=Origin.W)
        drain(sim)
        assert finishes(sim.ssd) == [(0, 100), (1, 300)]

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

    def test_promotions_surface_at_their_instant_in_order(self):
        sim, rec = new_sim(submit=False)
        sim.promotions.extend([(100, 7), (300, 8)])
        assert sim.step(99) is True
        assert sim.step(300) is False
        assert rec.calls == [(100, "promote", 7), (300, "promote", 8)]
        assert sim.clock == 300

    def test_same_instant_completions_precede_arrivals(self):
        # the promotion a disk read's completion releases goes first
        sim, rec = new_sim(submit=False, arrivals=[(100, 0, Origin.R, None)])
        sim.promotions.append((100, 7))
        assert sim.step(100) is False
        assert rec.calls == [(100, "promote", 7), (100, "arrive", 0)]

    def test_both_due_completions_leave_their_devices_before_either_handler(self):
        # an SSD and an HDD request finish at 100, when a promotion is due:
        # the promotion's handler finds both done
        seen = []

        def on_promote(req):
            finish = sim.submit(req, DeviceRole.SSD)
            seen.append((finish, sim.ssd.qsize, sim.hdd.retire(sim.clock)))

        ssd, hdd = Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 100, 100)
        sim = Simulator(ssd, hdd, on_promote, None, Schedule())
        submit_new(sim)
        submit_new(sim, target=DeviceRole.HDD)
        sim.promotions.append((100, sim.requests.add(Origin.P.index, 100, 0)))
        assert sim.step(100) is True  # the promotion is pending past 100
        assert seen == [(200, 1, ([1, 0, 0, 0], 100))]

    def test_step_stops_at_until_and_resumes_there(self):
        sim, rec = new_sim()
        for _ in range(3):
            submit_new(sim)
        # no event is left, but the device is busy until 300
        assert sim.step(150) is True
        assert sim.clock == 150  # left at ``until`` while anything is pending past it
        assert sim.ssd.retire(150) == ([1, 0, 0, 0], 100)
        assert sim.step(300) is False  # the finish at exactly ``until`` ends the run
        assert sim.clock == 300
        assert sim.ssd.retire(300) == ([2, 0, 0, 0], 300)

    def test_step_stops_at_the_last_event_when_nothing_else_is_pending(self):
        # the last arrival submits nothing, and the device finished before it
        sim, rec = new_sim(submit=False, arrivals=[(500, 0, Origin.R, None)])
        submit_new(sim)
        assert sim.step(FOREVER) is False
        assert sim.clock == 500


class TestRetire:
    def setup_method(self):
        self.dev, self.requests = bound_device(read=100, write=300)

    def test_retire_counts_the_window_per_origin_with_its_largest_latency(self):
        for origin in (Origin.R, Origin.P, Origin.P, Origin.W):
            self.dev.submit(self.requests.add(origin.index, 0, 0), now=0)
        # finishes 100, 400, 700, 1 000
        assert self.dev.retire(99) == ([0, 0, 0, 0], 0)
        assert self.dev.retire(700) == ([1, 0, 2, 0], 700)
        assert self.dev.inqueue == [0, 1, 0, 0]
        assert self.dev.qsize == 1
        assert self.dev.retire(700) == ([0, 0, 0, 0], 0)  # nothing twice
        assert self.dev.retire(5_000) == ([0, 1, 0, 0], 1_000)
        assert (self.dev.qsize, self.dev.inqueue) == (0, [0, 0, 0, 0])

    def test_the_columns_drop_a_retired_prefix_longer_than_the_pending_part(self):
        for _ in range(4):
            self.dev.submit(add_read(self.requests), now=0)
        self.dev.retire(200)  # two retired, two pending: kept
        assert (len(self.dev.ids), self.dev.head, self.dev.offset) == (4, 2, 0)
        self.dev.retire(300)  # three retired, one pending: dropped
        assert (list(self.dev.ids), self.dev.head, self.dev.offset) == ([3], 0, 3)
        assert self.dev.submitted == 4
        self.dev.submit(add_read(self.requests), now=300)
        assert finishes(self.dev) == [(3, 400), (4, 500)]
        assert self.dev.submitted == 5


class TestTimelineMatchesAPerEventQueue:
    """The timeline ``Device`` against a queue that finishes one request per event."""

    class NaiveFifo:
        """A single-server FIFO queue stepped completion by completion."""

        def __init__(self, service):
            self.service = service  # by Origin.index
            self.queue = deque()  # (id, origin, arrival), the head in service
            self.started = 0  # when the head entered service
            self.done = []  # (id, finish, origin, latency), in completion order

        def advance(self, t):
            while self.queue:
                req, origin, arrival = self.queue[0]
                finish = self.started + self.service[origin]
                if finish > t:
                    return
                self.queue.popleft()
                self.done.append((req, finish, origin, finish - arrival))
                self.started = finish

        def submit(self, req, origin, arrival, now):
            self.advance(now)
            if not self.queue:
                self.started = now
            self.queue.append((req, origin, arrival))

        def remove_tail(self, count):
            removed = [self.queue.pop()[0] for _ in range(min(count, len(self.queue) - 1))]
            return removed[::-1]

    operations = st.lists(
        st.tuples(st.sampled_from(["submit", "retire", "cut"]), st.integers(0, 400),
                  st.integers(0, 5)),
        max_size=60,
    )

    @given(operations)
    def test_finishes_counts_latencies_and_depths_agree(self, operations):
        rows = 6  # schedule rows 0-5, all arriving at 0, reads and writes
        schedule = schedule_of((0, row, (Origin.R, Origin.W)[row % 2]) for row in range(rows))
        requests = Requests(schedule)
        dev = Device(DeviceRole.SSD, 70, 250)
        dev.bind(requests)
        ref = self.NaiveFifo(dev._service)
        now, seen, finish_of = 0, 0, {}
        for kind, step, pick in operations:
            now += step
            if kind == "submit":
                # a schedule row, its first time on the device, or a cache request
                fresh = [row for row in range(rows) if row not in finish_of]
                req = fresh[0] if fresh and pick < 2 else requests.add(pick % 4, now, 0)
                arrival = 0 if req < rows else now
                finish_of[req] = dev.submit(req, now)
                ref.submit(req, requests.origin[req], arrival, now)
                continue
            served, max_latency = dev.retire(now)
            ref.advance(now)
            window = ref.done[seen:]
            seen = len(ref.done)
            assert [(req, finish_of[req]) for req, *_ in window] == [(r, f) for r, f, *_ in window]
            assert served == [sum(o == k for _r, _f, o, _l in window) for k in range(4)]
            assert max_latency == max((lat for *_, lat in window), default=0)
            assert dev.qsize == len(ref.queue)
            assert dev.inqueue == [sum(o == k for _r, o, _a in ref.queue) for k in range(4)]
            if kind == "cut":
                assert dev.remove_tail(pick) == ref.remove_tail(pick)
                assert dev.qsize == len(ref.queue)
        # what is left finishes as the reference finishes it
        ref.advance(FOREVER)
        dev.retire(FOREVER)
        assert [(r, finish_of[r]) for r, *_ in ref.done] == [(r, f) for r, f, *_ in ref.done]
        assert dev.busy_time == sum(ref.service[o] for _r, _f, o, _l in ref.done)


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
        for _ in range(4):
            self.dev.submit(add_read(self.requests), now=0)
        removed = self.dev.remove_tail(2)
        assert removed == [2, 3]
        assert finishes(self.dev) == [(0, 100), (1, 200)]
        assert self.dev.inqueue == [2, 0, 0, 0]
        assert self.dev.submitted == 4

    def test_remove_zero_is_identity(self):
        self.dev.submit(add_read(self.requests), now=0)
        assert self.dev.remove_tail(0) == []
        assert self.dev.qsize == 1

    def test_in_service_request_is_protected(self):
        for _ in range(3):
            self.dev.submit(add_read(self.requests), now=0)
        removed = self.dev.remove_tail(3)  # clamped to the waiting portion
        assert removed == [1, 2]
        assert self.dev.qsize == 1
        assert list(self.dev.ids) == [0]

    def test_a_cut_frees_the_device_after_the_request_in_service(self):
        for _ in range(3):
            self.dev.submit(add_read(self.requests), now=0)
        self.dev.retire(150)  # request 1 is in service, 2 waits
        assert self.dev.remove_tail(5) == [2]
        assert (self.dev.busy_until, self.dev.busy_time) == (200, 200)
        # the next request starts when request 1 finishes
        assert self.dev.submit(add_read(self.requests), now=150) == 300


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
    drain(sim)
    return sim, rec


@given(st.integers(min_value=0, max_value=10_000))
def test_busy_time_equals_sum_of_service_latencies(seed):
    sim, rec = run_schedule(seed)
    for dev in (sim.ssd, sim.hdd):
        reads = [sim.schedule.read[req] for req in dev.ids]
        expected = sum(dev.read_latency if read else dev.write_latency for read in reads)
        assert dev.busy_time == expected


class TestRequestCreation:
    def test_no_application_request_object_exists_until_a_device_finishes_it(self):
        # each waits as its schedule row, in the device's id column
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
        assert list(sim.ssd.ids) == [0, 1, 2, 3, 4]
        drain(sim)
        assert finishes(sim.ssd) == [(k - 1, 100 + 1000 * k) for k in range(1, 6)]
        assert list(sim.ssd.latency) == [1000 * k - 100 * (k - 1) for k in range(1, 6)]


def test_identical_schedules_replay_identically():
    first_sim, first = run_schedule(424242)
    # the second run reads the first one's schedule object: a run only reads it
    second = Recorder()
    second.targets = first.targets
    ssd, hdd = Device(DeviceRole.SSD, 100, 300), Device(DeviceRole.HDD, 4000, 6000)
    second.sim = Simulator(ssd, hdd, second.on_promote, second.on_arrive, first_sim.schedule)
    drain(second.sim)
    assert first.calls == second.calls
    for a, b in ((first_sim.ssd, ssd), (first_sim.hdd, hdd)):
        assert finishes(a) == finishes(b)
