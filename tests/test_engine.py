"""Event loop and device queue semantics."""

import heapq
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbicasim import RunConfig, Simulation
from lbicasim.engine import Device, DeviceRole, IoRequest, OpType, Origin, RoutingError, Simulator

from conftest import recount_origins


def make_request(req_id, arrival=0, op=OpType.READ, origin=Origin.R, target=DeviceRole.SSD, lba=0):
    return IoRequest(id=req_id, arrival=arrival, lba=lba, op=op, origin=origin, target=target)


def drain(sim):
    """Run the loop dry, returning completions in completion order."""
    done = []
    while True:
        step = sim.step()
        if step is None:
            return done
        completed, arrived = step
        done.extend(completed)
        for req in arrived:
            sim.submit(req)


class TestSubmit:
    def test_empty_queue_accepts_one_read(self):
        dev = Device(DeviceRole.SSD, 100, 100)
        dev.submit(make_request(1), now=0)
        assert dev.qsize == 1

    def test_back_to_back_submissions_keep_fifo_order(self):
        dev = Device(DeviceRole.SSD, 100, 100)
        for i in range(5):
            dev.submit(make_request(i), now=0)
        assert dev.qsize == 5
        assert [r.id for r in (dev.in_service, *dev.waiting)] == [0, 1, 2, 3, 4]

    def test_target_mismatch_is_a_routing_error(self):
        hdd = Device(DeviceRole.HDD, 5000, 5000)
        with pytest.raises(RoutingError):
            hdd.submit(make_request(1, target=DeviceRole.SSD), now=0)

    def test_unrouted_request_is_a_routing_error(self):
        sim = Simulator(Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 5000, 5000))
        with pytest.raises(RoutingError):
            sim.submit(make_request(1, target=None))

    def test_enqueued_at_is_max_of_clock_and_arrival(self):
        dev = Device(DeviceRole.SSD, 100, 100)
        early = make_request(1, arrival=0)
        dev.submit(early, now=40)
        late = make_request(2, arrival=90)
        dev.submit(late, now=40)
        assert early.enqueued_at == 40
        assert late.enqueued_at == 90

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Device(DeviceRole.SSD, 0, 100)


class TestStep:
    def test_single_read_completes_after_service_latency(self):
        sim = Simulator(Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 5000, 5000))
        sim.submit(make_request(1))
        done = drain(sim)
        assert [(r.id, r.completed_at) for r in done] == [(1, 100)]

    def test_two_reads_serialize_fifo(self):
        sim = Simulator(Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 5000, 5000))
        sim.submit(make_request(1))
        sim.submit(make_request(2))
        done = drain(sim)
        assert [(r.id, r.completed_at) for r in done] == [(1, 100), (2, 200)]

    def test_mixed_read_then_write_schedule(self):
        # read 100us then write 200us, both queued at t=0 -> 100 and 300
        sim = Simulator(Device(DeviceRole.SSD, 100, 200), Device(DeviceRole.HDD, 5000, 5000))
        sim.submit(make_request(1, op=OpType.READ))
        sim.submit(make_request(2, op=OpType.WRITE, origin=Origin.W))
        done = drain(sim)
        assert [(r.id, r.completed_at) for r in done] == [(1, 100), (2, 300)]

    def test_no_pending_events_signals_end(self):
        sim = Simulator(Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 5000, 5000))
        assert sim.step() is None

    def test_scheduled_arrivals_surface_at_their_instant(self):
        sim = Simulator(Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 5000, 5000))
        sim.schedule_arrivals([make_request(1, arrival=250)])
        completed, arrived = sim.step()
        assert sim.clock == 250
        assert completed == []
        assert [r.id for r in arrived] == [1]

    def test_same_instant_completions_precede_arrivals(self):
        sim = Simulator(Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 5000, 5000))
        sim.submit(make_request(1))
        sim.schedule_arrivals([make_request(2, arrival=100)])
        completed, arrived = sim.step()
        assert sim.clock == 100
        assert [r.id for r in completed] == [1]
        assert [r.id for r in arrived] == [2]


def make_sim():
    return Simulator(Device(DeviceRole.SSD, 100, 300), Device(DeviceRole.HDD, 4000, 6000))


class TestArrivalOrder:
    def test_out_of_order_arrival_is_rejected_by_name(self):
        sim = make_sim()
        sim.schedule_arrivals([make_request(1, arrival=500)])
        with pytest.raises(ValueError, match=r"request 2 arrives at 400"):
            sim.schedule_arrivals([make_request(2, arrival=400)])

    def test_batch_names_the_first_out_of_order_request_and_schedules_nothing(self):
        sim = make_sim()
        batch = [make_request(i, arrival=t) for i, t in enumerate((0, 10, 10, 5, 3))]
        with pytest.raises(ValueError, match=r"request 3 arrives at 5"):
            sim.schedule_arrivals(batch)
        assert sim.next_event_time() is None

    def test_batch_is_checked_against_what_is_already_scheduled(self):
        sim = make_sim()
        sim.schedule_arrivals([make_request(0, arrival=100)])
        with pytest.raises(ValueError, match=r"request 1 arrives at 99"):
            sim.schedule_arrivals([make_request(1, arrival=99)])
        sim.schedule_arrivals([make_request(2, arrival=100)])
        assert [r.id for r in sim.step()[1]] == [0, 2]

    def test_scheduling_after_the_schedule_ran_dry_resumes_the_cursor(self):
        sim = make_sim()
        sim.schedule_arrivals([make_request(0, arrival=10)])
        assert [r.id for r in sim.step()[1]] == [0]
        assert sim.step() is None
        sim.schedule_arrivals([make_request(1, arrival=20)])
        assert sim.next_event_time() == 20
        assert [r.id for r in sim.step()[1]] == [1]

    def test_simulation_rejects_unsorted_requests(self):
        requests = [
            IoRequest(id=i, arrival=t, lba=i, op=OpType.READ, origin=Origin.R, app_id=i)
            for i, t in enumerate((0, 200, 100))
        ]
        with pytest.raises(ValueError, match=r"request 2 arrives at 100"):
            Simulation(RunConfig(cache_blocks=8), requests)


# sorted arrival times drawn from few distinct values, so many coincide
# with each other and, on the 100us grid, with SSD completions (100/300us)
sorted_schedules = st.lists(st.integers(min_value=0, max_value=12), max_size=50).map(
    lambda ticks: [100 * t for t in sorted(ticks)]
)


@given(sorted_schedules, st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
def test_arrival_cursor_matches_a_heap_reference(times, chunk, rng):
    reqs = [
        make_request(i, arrival=t, target=rng.choice(list(DeviceRole))) for i, t in enumerate(times)
    ]
    # reference: the (arrival, seq) heap the cursor replaced
    heap = [(req.arrival, seq, req.id) for seq, req in enumerate(reqs)]
    heapq.heapify(heap)
    expected = []
    while heap:
        t = heap[0][0]
        ids = []
        while heap and heap[0][0] == t:
            ids.append(heapq.heappop(heap)[2])
        expected.append((t, ids))

    sim = make_sim()
    for start in range(0, len(reqs), chunk):
        sim.schedule_arrivals(reqs[start : start + chunk])
    got = []
    while (step := sim.step()) is not None:
        completed, arrived = step
        if arrived:
            got.append((sim.clock, [r.id for r in arrived]))
        for req in arrived:
            sim.submit(req)
    assert got == expected


class TestRemoveTail:
    def setup_method(self):
        self.dev = Device(DeviceRole.SSD, 100, 100)

    def test_removes_tail_in_queue_order(self):
        # build a waiting-only queue: nothing has entered service
        self.dev.waiting.extend(make_request(i) for i in (1, 2, 3))
        removed = self.dev.remove_tail(2)
        assert [r.id for r in removed] == [2, 3]
        assert [r.id for r in self.dev.waiting] == [1]

    def test_remove_zero_is_identity(self):
        self.dev.submit(make_request(1), now=0)
        assert self.dev.remove_tail(0) == []
        assert self.dev.qsize == 1

    def test_in_service_request_is_protected(self):
        for i in (1, 2, 3):
            self.dev.submit(make_request(i), now=0)
        assert self.dev.in_service.id == 1
        removed = self.dev.remove_tail(3)  # clamped to the waiting portion
        assert [r.id for r in removed] == [2, 3]
        assert self.dev.qsize == 1
        assert self.dev.in_service.id == 1


class TestAdvance:
    def test_advance_through_idle_time(self):
        sim = Simulator(Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 5000, 5000))
        sim.advance_to(1_000)
        assert sim.clock == 1_000

    def test_advance_may_not_skip_pending_events(self):
        sim = Simulator(Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 5000, 5000))
        sim.submit(make_request(1))
        with pytest.raises(ValueError):
            sim.advance_to(500)

    def test_advance_backwards_rejected(self):
        sim = Simulator(Device(DeviceRole.SSD, 100, 100), Device(DeviceRole.HDD, 5000, 5000))
        sim.advance_to(100)
        with pytest.raises(ValueError):
            sim.advance_to(50)


def random_schedule(seed, n=60):
    rng = random.Random(seed)
    reqs = []
    t = 0
    for i in range(n):
        t += rng.randrange(0, 300)
        target = DeviceRole.SSD if rng.random() < 0.7 else DeviceRole.HDD
        op = OpType.READ if rng.random() < 0.5 else OpType.WRITE
        origin = Origin.R if op is OpType.READ else Origin.W
        reqs.append(make_request(i, arrival=t, op=op, origin=origin, target=target))
    return reqs


def run_schedule(seed):
    sim = Simulator(Device(DeviceRole.SSD, 100, 300), Device(DeviceRole.HDD, 4000, 6000))
    for req in random_schedule(seed):
        sim.schedule_arrivals([req])
    done = drain(sim)
    return sim, done


@given(st.integers(min_value=0, max_value=10_000))
def test_fifo_completion_order_per_device(seed):
    _sim, done = run_schedule(seed)
    for role in DeviceRole:
        times = [r.completed_at for r in done if r.target is role]
        assert times == sorted(times)
        ids_by_completion = [r.id for r in done if r.target is role]
        ids_by_enqueue = sorted(
            (r.id for r in done if r.target is role),
            key=lambda i: next(r.enqueued_at for r in done if r.id == i),
        )
        assert ids_by_completion == ids_by_enqueue


@given(st.integers(min_value=0, max_value=10_000))
def test_busy_time_equals_sum_of_service_latencies(seed):
    sim, done = run_schedule(seed)
    for dev in (sim.ssd, sim.hdd):
        expected = sum(dev.latency_for(r.op) for r in done if r.target is dev.role)
        assert dev.busy_time == expected


@given(st.integers(min_value=0, max_value=10_000))
def test_timestamp_ordering_invariant(seed):
    _sim, done = run_schedule(seed)
    for req in done:
        assert req.arrival <= req.enqueued_at <= req.service_start <= req.completed_at


@given(st.integers(min_value=0, max_value=10_000))
def test_step_at_the_next_event_time_matches_a_plain_step(seed):
    # arrivals on a 100us grid coincide with SSD completions (100/300us),
    # so many instants hold both completions and arrivals
    def build():
        sim = Simulator(Device(DeviceRole.SSD, 100, 300), Device(DeviceRole.HDD, 4000, 6000))
        for req in random_schedule(seed):
            req.arrival -= req.arrival % 100
            sim.schedule_arrivals([req])
        return sim

    plain, passed = build(), build()
    while True:
        expected = plain.step()
        got = passed.step(passed.next_event_time())
        if expected is None:
            assert got is None
            return
        assert passed.clock == plain.clock
        for (completed, arrived), sim in ((expected, plain), (got, passed)):
            # one step returns every completion and arrival of its instant,
            # so the caller can handle that instant's completions first
            assert all(r.completed_at == sim.clock for r in completed)
            assert all(r.arrival == sim.clock for r in arrived)
            nxt = sim.next_event_time()
            assert nxt is None or nxt > sim.clock
            for req in arrived:
                sim.submit(req)
        assert [r.id for r in got[0]] == [r.id for r in expected[0]]
        assert [r.id for r in got[1]] == [r.id for r in expected[1]]


def test_identical_schedules_replay_identically():
    _, first = run_schedule(424242)
    _, second = run_schedule(424242)
    trace_a = [(r.id, r.enqueued_at, r.service_start, r.completed_at) for r in first]
    trace_b = [(r.id, r.enqueued_at, r.service_start, r.completed_at) for r in second]
    assert trace_a == trace_b


queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(list(Origin))),
        st.tuples(st.just("complete"), st.booleans()),
        st.tuples(st.just("remove_tail"), st.integers(min_value=0, max_value=6)),
    ),
    max_size=60,
)


@given(queue_ops)
def test_per_origin_counts_match_a_recount_after_every_operation(ops):
    dev = Device(DeviceRole.SSD, 100, 300)
    now = 0
    for i, (op, arg) in enumerate(ops):
        if op == "submit":
            kind = OpType.READ if arg is Origin.R else OpType.WRITE
            dev.submit(make_request(i, arrival=now, op=kind, origin=arg), now)
        elif op == "complete":
            # arg: complete at the due time, or poll one tick early (a no-op)
            due = dev.busy_until if dev.in_service is not None else now
            now = max(now, due if arg else due - 1)
            dev.complete_due(now)
        else:
            dev.remove_tail(arg)
        assert dev.inqueue == recount_origins(dev)
        assert sum(dev.inqueue) == dev.qsize
