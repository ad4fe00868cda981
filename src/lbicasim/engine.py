"""Event-driven simulation core: clock, device timelines, request lifecycle.

Each storage device is a single-server FIFO queue with fixed per-op
service latencies, so a request's finish is known the moment it is
submitted: the later of its submission and the previous request's
finish, plus its service time (Lindley's recurrence for a single-server
queue). A :class:`Device` is therefore a timeline rather than a queue
that is stepped: ``submit`` returns the request's finish and appends it
to the device's pending columns, and ``retire`` takes every request done
by an instant off their front in bulk. Completions are not events.

Time is integer microseconds. The events are the application arrivals,
given once, at construction, as a :class:`Schedule` of plain columns in
non-decreasing time order and walked with a cursor, and the deferred
promotions, each due when the disk read it waits for finishes. The
disk is FIFO and its queue is never cut, so those finishes only grow,
and a plain deque in submission order holds the promotions in time
order. At an equal instant a promotion goes before an arrival, as the
disk read's completion that releases it comes before the arrival, and
``retire(t)`` takes the requests finishing at ``t`` itself.

Every request is an ``int`` id from its arrival or creation to its
completion, and no request object exists: application requests are
their schedule rows, ``0 .. n-1``, and the cache traffic of a run takes
``n, n+1, ...`` in creation order. A run's :class:`Requests` table maps
each id to its origin, and, for an event log, each cache request in
flight to its arrival, block and application. Device columns, the
event handlers and the event log all take ids.

The engine owns the event loop: :meth:`Simulator.step` processes every
event up to a given time and hands each arrival and each due promotion
to a handler that its owner supplied at construction. The run loop
above it (:class:`lbicasim.runner.Simulation`) calls ``step`` once per
interval and retires both devices at each boundary. Everything else in
the package (cache engine, telemetry, balancers) runs on top of this
substrate, so determinism here means determinism everywhere: equal
inputs replay to bit-identical schedules.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from enum import Enum
from itertools import compress, count, islice
from operator import add, gt, mul, sub
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
    owner pops an entry when the request completes or is dropped. Only
    an event log reads these fields, so a run without one sets ``live``
    to None, and the table then keeps each request's origin alone. An
    application request's fields are its schedule row's, and its app is
    itself.
    """

    __slots__ = ("schedule", "rows", "origin", "live")

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.rows = len(schedule)
        self.origin = schedule.read.translate(_ORIGIN_OF_READ)
        self.live: dict[int, tuple[int, int, int]] | None = {}

    def add(self, origin: int, arrival: int, lba: int, app: int = -1) -> int:
        """Create a cache request of ``Origin.index`` ``origin``; return its id."""
        i = len(self.origin)
        self.origin.append(origin)
        if self.live is not None:
            self.live[i] = (arrival, lba, app)
        return i


# ``Origin.index`` of every origin, for per-origin counts of a column
_ORIGIN_INDICES = range(len(Origin))


class Device:
    """Single-server FIFO queue with per-op service latencies (microseconds), as a timeline.

    A request is an id. :meth:`bind` gives the device the table of the
    run driving it: a request's origin is ``origins[i]``, its service
    time the op's latency for that origin (an application read reads,
    every other origin writes), and its arrival ``arrivals[i]`` for a
    schedule row (``i < rows``), or its submission for cache traffic,
    which is submitted when it is created.

    ``submit`` computes a request's finish and appends the request to
    the columns, oldest first: ``finish``, ``ids`` and ``latency``
    (finish less arrival) as ``array('q')``, and ``origin`` as a
    ``bytearray``. Finishes strictly increase along the columns. Entries
    before ``head`` are retired. ``retire(t)`` moves ``head`` past every
    entry finished by ``t`` and counts that window in C, with no Python
    loop over it; the columns drop their retired prefix only once it is
    longer than the pending part, so the entries moved never outnumber
    the entries dropped. ``offset`` counts the entries dropped, so entry
    ``k`` of the device's history sits at column index ``k - offset``.

    ``inqueue`` counts the unretired entries per origin, indexed by
    ``Origin.index`` (``R, W, P, E``); after ``retire(t)`` these are
    exactly the requests pending at ``t``, the one in service included.
    ``submit`` leaves it alone: the entries submitted since it was last
    read are counted, once each, when it is next read. ``qsize`` counts
    the requests pending at ``now``, the instant of the latest ``submit``
    or ``retire``: those finishing after it. Neither walks the pending
    columns. ``busy_until`` is the last pending finish, when the device
    falls idle. ``submitted`` counts every request ever submitted here,
    including those later moved off by ``remove_tail``, and ``busy_time``
    sums the service time of every request submitted and not removed:
    once a run drains every queue, the device's busy time.
    """

    def __init__(self, role: DeviceRole, read_latency: int, write_latency: int):
        if read_latency <= 0 or write_latency <= 0:
            raise ValueError("service latencies must be positive")
        self.role = role
        self.read_latency = int(read_latency)
        self.write_latency = int(write_latency)
        # service time by Origin.index: R reads, W, P and E write
        self._service = (self.read_latency, *[self.write_latency] * (len(Origin) - 1))
        self.origins: bytes | bytearray = b""  # see :meth:`bind`
        self.arrivals = array("q")
        self.rows = 0
        self.finish = array("q")
        self.ids = array("q")
        self.latency = array("q")
        self.origin = bytearray()
        self.head = 0
        self.offset = 0
        self.removed = 0
        self._inqueue = [0] * len(Origin)
        self._counted = 0  # the column entries counted into ``_inqueue``
        self._retired = [0] * len(Origin)  # per origin, every request retired
        self.now = 0
        self.busy_until = 0

    def bind(self, requests: Requests) -> None:
        """Read origins and schedule arrivals from ``requests``, the table of the driving run."""
        self.origins = requests.origin
        self.arrivals = requests.schedule.arrival
        self.rows = requests.rows

    @property
    def inqueue(self) -> list[int]:
        counted, origin = self._counted, self.origin
        if counted < len(origin):
            added = [origin.count(o, counted) for o in _ORIGIN_INDICES]
            self._inqueue = list(map(add, self._inqueue, added))
            self._counted = len(origin)
        return self._inqueue

    @property
    def qsize(self) -> int:
        return len(self.finish) - bisect_right(self.finish, self.now, self.head)

    @property
    def submitted(self) -> int:
        return self.offset + len(self.ids) + self.removed

    @property
    def busy_time(self) -> int:
        return sum(map(mul, self._service, map(add, self._retired, self.inqueue)))

    def submit(self, req: int, now: int) -> int:
        """Queue request ``req`` at ``now``; return the instant it finishes."""
        origin = self.origins[req]
        service = self._service[origin]
        busy_until = self.busy_until
        finish = self.busy_until = (busy_until if busy_until > now else now) + service
        self.now = now
        self.finish.append(finish)
        self.ids.append(req)
        self.latency.append(finish - (self.arrivals[req] if req < self.rows else now))
        self.origin.append(origin)
        return finish

    def retire(self, t: int) -> tuple[list[int], int]:
        """Retire every request finished by ``t``: their per-origin counts and largest latency.

        The counts are in ``Origin`` order; the latency is 0 when none finished.
        """
        finish, head = self.finish, self.head
        self.now = t
        end = bisect_right(finish, t, head)
        if end == head:
            return [0] * len(Origin), 0
        origin = self.origin
        served = [origin.count(o, head, end) for o in _ORIGIN_INDICES]
        self._inqueue = list(map(sub, self.inqueue, served))
        self._retired = list(map(add, self._retired, served))
        max_latency = max(self.latency[head:end])
        if end > len(finish) - end:
            # the retired prefix outgrew the pending part: drop it
            for column in (finish, self.ids, self.latency, origin):
                del column[:end]
            self.offset += end
            self._counted -= end
            end = 0
        self.head = end
        return served, max_latency

    def remove_tail(self, count: int) -> list[int]:
        """Detach up to ``count`` requests from the tail of the waiting queue.

        The waiting queue is every pending entry after the head, which is
        in service once the device is retired to the current instant, as
        the caller ensures. The request in service is never touched, so
        larger counts are clamped. Removed requests are returned in queue
        order (closest-to-service first), and the device is then busy
        until the last one kept finishes.
        """
        finish = self.finish
        n = min(count, len(finish) - self.head - 1)
        if n <= 0:
            return []
        cut = len(finish) - n
        origin = self.origin
        self._inqueue = [k - origin.count(o, cut) for o, k in zip(_ORIGIN_INDICES, self.inqueue)]
        self.busy_until = finish[cut - 1]
        removed = self.ids[cut:].tolist()
        for column in (finish, self.ids, self.latency, origin):
            del column[cut:]
        self._counted = cut
        self.removed += n
        return removed


class Simulator:
    """Deterministic event loop over two device timelines and a schedule of arrivals.

    ``schedule`` holds every application arrival; it is kept as given, not
    copied, and a cursor marks the next one to surface. At that arrival's
    instant ``step`` hands ``on_arrive`` the request's row ``i``, its id:
    ``on_arrive`` routes it and submits it to a device (the runner plans
    its access first). ``requests``, the run's :class:`Requests` table,
    is built from the schedule, and both devices are bound to it.

    ``promotions`` holds ``(instant, id)`` pairs in non-decreasing
    instant order: each a request its owner deferred until a disk read
    finishes, which ``step`` hands to ``on_promote`` at that instant. The
    schedule itself is only read, so one schedule can drive any number
    of simulators. Both handlers run with :attr:`clock` at their instant
    and may submit requests, and an owner may set both to None once it
    is done stepping. Tie-breaking at an equal timestamp is fixed: a
    promotion goes before an arrival, and arrivals go in schedule order.
    """

    def __init__(
        self,
        ssd: Device,
        hdd: Device,
        on_promote: Callable[[int], None],
        on_arrive: Callable[[int], None],
        schedule: Schedule,
    ):
        self.clock = 0
        self.ssd = ssd
        self.hdd = hdd
        self.requests = Requests(schedule)
        ssd.bind(self.requests)
        hdd.bind(self.requests)
        self.on_promote = on_promote
        self.on_arrive = on_arrive
        self.schedule = schedule
        self.promotions: deque[tuple[int, int]] = deque()
        self._cursor = 0  # row in ``schedule`` of the next arrival to surface
        # its arrival time, None once every arrival has surfaced
        self._next_arrival = schedule.arrival[0] if len(schedule) else None

    def submit(self, req: int, target: DeviceRole) -> int:
        """Queue request ``req`` on the ``target`` device; return the instant it finishes."""
        return (self.ssd if target is _SSD else self.hdd).submit(req, self.clock)

    def step(self, until: int) -> bool:
        """Process every event due at or before ``until``, in time order.

        Returns True while anything is pending after ``until``, an event
        or a device's request, with the clock left at ``until``; False
        once nothing is, with the clock at the last instant anything
        happened, the last event or the last finish: the end of the
        simulation rather than an error.
        """
        on_promote, on_arrive = self.on_promote, self.on_arrive
        promotions = self.promotions
        arrivals = self.schedule.arrival
        count = len(arrivals)
        # only this method moves the cursor, so it lives in locals while
        # the loop runs and is stored back however the loop is left
        cursor, next_arrival = self._cursor, self._next_arrival
        try:
            while True:
                if promotions and (next_arrival is None or promotions[0][0] <= next_arrival):
                    t, req = promotions[0]
                    if t > until:
                        break
                    promotions.popleft()
                    self.clock = t
                    on_promote(req)
                elif next_arrival is not None:
                    if next_arrival > until:
                        break
                    self.clock = next_arrival
                    i = cursor
                    cursor += 1
                    next_arrival = arrivals[cursor] if cursor < count else None
                    on_arrive(i)
                else:
                    # no event is left; the devices finish what they hold
                    last = max(self.ssd.busy_until, self.hdd.busy_until)
                    if last > until:
                        break
                    if last > self.clock:
                        self.clock = last
                    return False
            self.clock = until
            return True
        finally:
            self._cursor, self._next_arrival = cursor, next_arrival
