"""Event-driven simulation core: clock, device queues, request lifecycle.

Each storage device is a single-server FIFO queue with fixed per-op
service latencies. Time is integer microseconds and moves to the
earliest pending event (a scheduled arrival or an in-service
completion). Arrivals are given once, at construction, as a
:class:`Schedule` of plain columns in non-decreasing time order. The
loop walks them with a cursor.

Every request is an ``int`` id from its arrival or creation to its
completion, and no request object exists: application requests are
their schedule rows, ``0 .. n-1``, and the cache traffic of a run takes
``n, n+1, ...`` in creation order. A run's :class:`Requests` table maps
each id to its origin, and each cache request in flight to its arrival,
block and application. Device queues, the arrival and completion
handlers and the event log all take ids.

The engine owns the event loop: :meth:`Simulator.step` processes every
event up to a given time and hands each completion and each arrival to
a handler that its owner supplied at construction. It finds each instant
inline, reading each device once, and finishes every due request through
:meth:`Device.finish`, the one completion body. The run loop above it
(:class:`lbicasim.runner.Simulation`) calls ``step`` once per interval
and only acts between calls. Everything else in the package (cache
engine, telemetry, balancers) runs on top of this substrate, so
determinism here means determinism everywhere: equal inputs replay to
bit-identical schedules.
"""

from __future__ import annotations

from array import array
from collections import deque
from enum import Enum
from itertools import compress, count, islice
from operator import gt
from typing import Callable


class Origin(Enum):
    """Request provenance: application traffic (R/W) or cache traffic (P/E).

    ``op`` is the operation every request of this origin performs, as the
    event log spells it: an application read is a ``"read"``, and every
    other origin writes a block.
    """

    R = "R"  # application read
    W = "W"  # application write
    P = "P"  # promotion: write a block fetched from disk into the cache
    E = "E"  # eviction: write a dirty block back to disk

    def __init__(self, value: str):
        # declaration position: the index of this origin in per-origin counts
        self.index = len(type(self).__members__)
        self.op = "read" if value == "R" else "write"


class DeviceRole(Enum):
    """The device a request is routed to; ``index`` orders per-device counts."""

    SSD = "ssd"
    HDD = "hdd"

    def __init__(self, value: str):
        # declaration position: the index of this role in per-device counts
        self.index = len(type(self).__members__)


# Members bound once: reading one off its class costs a metaclass lookup,
# which the per-request paths below would otherwise pay on every call.
_SSD, _HDD = DeviceRole

# ``Schedule.read`` byte -> ``Origin.index``: a read (1) is R (0), a write (0) is W (1)
_ORIGIN_OF_READ = bytes([Origin.W.index, Origin.R.index]) + bytes(254)


class Schedule:
    """The application requests of a run, as three columns in arrival order.

    Request ``i`` is row ``i``: it arrives at ``arrival[i]``, accesses
    block ``lba[i]`` and is a read when ``read[i]`` is 1, a write when it
    is 0; its id and its app id are both ``i``. From its arrival until a
    device finishes it, the request is the int ``i`` (the simulator hands
    it to its arrival handler, and device queues hold it), so a scheduled
    request costs a slot in each column (8 B of ``array('q')``, one list
    slot and one byte), a byte of its run's :class:`Requests` table and,
    while it waits, an int and a queue slot. ``lba`` is a list, so
    requests drawing the same block can share one int object (see
    ``workload._region``).

    ``Schedule(n)`` allocates each column once at ``n`` rows of zeros,
    for a caller that knows its row count to fill by index and then
    :meth:`check_order`. ``load_trace`` grows ``Schedule()``'s columns
    line by line instead, and checks each line's order as it reads it; a
    grown column reallocates as it grows, and keeps its spare capacity.
    """

    __slots__ = ("arrival", "lba", "read")

    def __init__(self, length: int = 0) -> None:
        self.arrival = array("q", [0]) * length
        self.lba: list[int] = [0] * length
        self.read = bytearray(length)

    def __len__(self) -> int:
        return len(self.arrival)

    def check_order(self) -> None:
        """Raise ValueError at the first row that arrives before its predecessor.

        One pass in C over the filled arrival column; the row is looked
        up only when the check fails.
        """
        arrivals = self.arrival
        if any(map(gt, arrivals, islice(arrivals, 1, None))):
            row = next(compress(count(1), map(gt, arrivals, islice(arrivals, 1, None))))
            raise ValueError(
                f"request {row} arrives at {arrivals[row]},"
                f" before the preceding scheduled arrival at {arrivals[row - 1]}"
            )


class Requests:
    """Every request of one run, by id: its origin, and each cache request's fields.

    ``origin[i]`` is request ``i``'s ``Origin.index``. Its first
    ``rows`` bytes are the schedule's ``read`` column, translated once;
    each cache request appends one byte. ``live`` maps each cache request
    not yet finished to its ``(arrival, lba, app)``, ``app`` being the
    application request it completes or -1 for background traffic. Its
    owner pops an entry when the request completes or is dropped. An
    application request's fields are its schedule row's, and its app is
    itself.
    """

    __slots__ = ("schedule", "rows", "origin", "live")

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.rows = len(schedule)
        self.origin = schedule.read.translate(_ORIGIN_OF_READ)
        self.live: dict[int, tuple[int, int, int]] = {}

    def add(self, origin: int, arrival: int, lba: int, app: int = -1) -> int:
        """Create a cache request of ``Origin.index`` ``origin``; return its id."""
        i = len(self.origin)
        self.origin.append(origin)
        self.live[i] = (arrival, lba, app)
        return i


class Device:
    """Single-server FIFO queue with per-op service latencies (microseconds).

    A pending request is an id. Its origin is ``origins[i]``, the
    ``Requests.origin`` column of its run, which the :class:`Simulator`
    driving the device binds, and its service time is the op's latency
    for that origin: an application read reads, every other origin
    writes. Its target is the device it was submitted to.

    ``qsize`` counts every pending request including the one in service.
    The in-service request can never be cancelled; queue surgery such as
    tail bypassing only reaches the waiting portion of the queue.

    ``inqueue`` counts the same pending requests per origin, indexed by
    ``Origin.index`` (``R, W, P, E``). ``submit``, ``finish`` and
    ``remove_tail`` keep it current, so reading the queue's origin mix
    costs the same at any depth and never walks ``waiting``.
    ``submitted`` counts every request ever submitted here, including
    those later moved off by ``remove_tail``.
    """

    def __init__(self, role: DeviceRole, read_latency: int, write_latency: int):
        if read_latency <= 0 or write_latency <= 0:
            raise ValueError("service latencies must be positive")
        self.role = role
        self.read_latency = int(read_latency)
        self.write_latency = int(write_latency)
        # service time by Origin.index: R reads, W, P and E write
        self._service = (self.read_latency, *[self.write_latency] * (len(Origin) - 1))
        self.origins: bytes | bytearray = b""  # see the class docstring
        self.waiting: deque[int] = deque()
        self.in_service: int | None = None
        self.inqueue = [0] * len(Origin)
        self.submitted = 0
        self.busy_until = 0
        # summed service time of every request that entered service; a
        # finished run drains every queue, so this is then the busy time
        self.busy_time = 0

    @property
    def qsize(self) -> int:
        return len(self.waiting) + (1 if self.in_service is not None else 0)

    def submit(self, req: int, now: int) -> None:
        origin = self.origins[req]
        self.inqueue[origin] += 1
        self.submitted += 1
        if self.in_service is None:
            # an idle device has an empty waiting queue: start at once
            self.in_service = req
            service = self._service[origin]
            self.busy_until = now + service
            self.busy_time += service
        else:
            self.waiting.append(req)

    def finish(self, now: int) -> int:
        """Finish the in-service request, which the caller knows is due at ``now``.

        The next waiting request, if any, enters service at ``now``.
        """
        req = self.in_service
        origins = self.origins
        self.inqueue[origins[req]] -= 1
        if self.waiting:
            nxt = self.in_service = self.waiting.popleft()
            service = self._service[origins[nxt]]
            self.busy_until = now + service
            self.busy_time += service
        else:
            self.in_service = None
        return req

    def remove_tail(self, count: int) -> list[int]:
        """Detach up to ``count`` requests from the tail of the waiting queue.

        The in-service request is never touched, so the removable depth is
        the waiting-queue length; larger counts are clamped. Removed
        requests are returned in queue order (closest-to-service first).
        """
        n = min(count, len(self.waiting))
        removed = [self.waiting.pop() for _ in range(n)]
        removed.reverse()
        inqueue, origins = self.inqueue, self.origins
        for req in removed:
            inqueue[origins[req]] -= 1
        return removed


class Simulator:
    """Deterministic event loop over two devices and a schedule of arrivals.

    ``schedule`` holds every application arrival; it is kept as given, not
    copied, and a cursor marks the next one to surface. At that arrival's
    instant ``step`` hands ``on_arrive`` the request's row ``i``, its id:
    ``on_arrive`` routes it and submits it to a device (the runner plans
    its access first). ``requests``, the run's :class:`Requests` table,
    is built from the schedule, and both devices read their requests'
    origins from it. When a device finishes a request, ``step`` hands
    ``on_complete`` its id and the device's role. The schedule itself is
    only read, so one schedule can drive any number of simulators. Both
    handlers run with :attr:`clock` at their instant and may submit
    requests, and an owner may set both to None once it is done stepping.
    Tie-breaking at an equal timestamp is fixed: service completions are
    handled before arrivals, SSD before HDD, and arrivals in schedule
    order.
    """

    def __init__(
        self,
        ssd: Device,
        hdd: Device,
        on_complete: Callable[[int, DeviceRole], None],
        on_arrive: Callable[[int], None],
        schedule: Schedule,
    ):
        self.clock = 0
        self.ssd = ssd
        self.hdd = hdd
        self.requests = Requests(schedule)
        ssd.origins = hdd.origins = self.requests.origin
        self.on_complete = on_complete
        self.on_arrive = on_arrive
        self.schedule = schedule
        self._cursor = 0  # row in ``schedule`` of the next arrival to surface
        # its arrival time, None once every arrival has surfaced
        self._next_arrival = schedule.arrival[0] if len(schedule) else None

    def submit(self, req: int, target: DeviceRole) -> None:
        """Queue request ``req`` on the ``target`` device."""
        if target is _SSD:
            self.ssd.submit(req, self.clock)
        else:
            self.hdd.submit(req, self.clock)

    def step(self, until: int) -> bool:
        """Process every event due at or before ``until``, instant by instant.

        At each instant the clock moves to it, the due completions leave
        their devices (SSD, then HDD) before either is handed to
        ``on_complete``, and then that instant's arrivals go to
        ``on_arrive`` in schedule order. Returns True while events remain
        after ``until``, with the clock left at ``until``, and False once
        nothing is pending, with the clock at the last instant processed:
        the end of the simulation rather than an error.
        """
        ssd, hdd = self.ssd, self.hdd
        on_complete, on_arrive = self.on_complete, self.on_arrive
        arrivals = self.schedule.arrival
        count = len(arrivals)
        # only this method moves the cursor, so it lives in locals while
        # the loop runs and is stored back however the loop is left
        cursor, next_arrival = self._cursor, self._next_arrival
        try:
            while True:
                # the next instant, reading each device once; a device due
                # at it is then finished
                t = next_arrival
                ssd_due = ssd.busy_until if ssd.in_service is not None else None
                hdd_due = hdd.busy_until if hdd.in_service is not None else None
                if ssd_due is not None and (t is None or ssd_due < t):
                    t = ssd_due
                if hdd_due is not None and (t is None or hdd_due < t):
                    t = hdd_due
                if t is None:
                    return False
                if t > until:
                    self.clock = until
                    return True
                self.clock = t
                if ssd_due == t:
                    done = ssd.finish(t)
                    if hdd_due == t:
                        hdd_done = hdd.finish(t)
                        on_complete(done, _SSD)
                        on_complete(hdd_done, _HDD)
                    else:
                        on_complete(done, _SSD)
                elif hdd_due == t:
                    on_complete(hdd.finish(t), _HDD)
                if next_arrival == t:
                    # one arrival per pass: the next pass finds this instant
                    # again while arrivals remain at it, and no completion
                    # can fall due at it in between, since every service
                    # takes time
                    i = cursor
                    cursor += 1
                    next_arrival = arrivals[cursor] if cursor < count else None
                    on_arrive(i)
        finally:
            self._cursor, self._next_arrival = cursor, next_arrival
