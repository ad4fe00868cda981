"""Event-driven simulation core: clock, device queues, request lifecycle.

Each storage device is a single-server FIFO queue with fixed per-op
service latencies. Time is integer microseconds and moves to the
earliest pending event (a scheduled arrival or an in-service
completion). Arrivals are given once, at construction, as a
:class:`Schedule` of plain columns in non-decreasing time order. The
loop walks them with a cursor and creates each application request at
its arrival instant, so no request object exists before it arrives.

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
from dataclasses import dataclass
from enum import Enum
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
_R, _W = Origin.R, Origin.W
_SSD, _HDD = DeviceRole


class RoutingError(ValueError):
    """A request was submitted to a device that does not match its target."""


@dataclass(slots=True)
class IoRequest:
    """One block-granular device access.

    Application requests (origin R/W) carry ``app_id == id``; auxiliary
    requests created by the cache engine (promotions, eviction
    write-backs, the disk half of a write-through write) either link back
    through ``app_id`` or carry ``None``. ``target`` is unset until the
    cache engine routes the request. The op is not stored: it is
    ``origin.op``, a read for origin R and a write for every other.

    A request's completion time is not stored either. A device finishes
    it exactly its op's service latency after it entered service, and the
    completion handler reads that instant from the simulator's clock. It
    entered service no earlier than its arrival and no earlier than the
    previous completion on its device, so ``arrival <= clock - latency``
    when it completes. An application request is created at its arrival
    instant, from its row of the :class:`Schedule`, and lives until it
    completes, so every field costs memory per request in a device queue.
    """

    id: int
    arrival: int
    lba: int
    origin: Origin
    target: DeviceRole | None = None
    app_id: int | None = None


class Schedule:
    """The application requests of a run, as three columns in arrival order.

    Request ``i`` arrives at ``arrival[i]``, accesses block ``lba[i]``
    and is a read when ``read[i]`` is 1, a write when it is 0; its id and
    its app id are both ``i``. No request object exists until the
    simulator creates it at its arrival instant, so a scheduled request
    costs a slot in each column: 8 B of ``array('q')``, one list slot
    and one byte. ``lba`` is a list, so requests drawing the same block
    can share one int object (see ``workload._region``).
    """

    __slots__ = ("arrival", "lba", "read")

    def __init__(self) -> None:
        self.arrival = array("q")
        self.lba: list[int] = []
        self.read = bytearray()

    def __len__(self) -> int:
        return len(self.arrival)

    def append(self, arrival: int, lba: int, read: bool) -> None:
        """Schedule the next request; its arrival may not precede the last one's."""
        arrivals = self.arrival
        if arrivals and arrival < arrivals[-1]:
            raise ValueError(
                f"request {len(arrivals)} arrives at {arrival}, "
                f"before the preceding scheduled arrival at {arrivals[-1]}"
            )
        arrivals.append(arrival)
        self.lba.append(lba)
        self.read.append(read)


class Device:
    """Single-server FIFO queue with per-op service latencies (microseconds).

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
        self.waiting: deque[IoRequest] = deque()
        self.in_service: IoRequest | None = None
        self.inqueue = [0] * len(Origin)
        self.submitted = 0
        self.busy_until = 0
        # summed service time of every request that entered service; a
        # finished run drains every queue, so this is then the busy time
        self.busy_time = 0

    @property
    def qsize(self) -> int:
        return len(self.waiting) + (1 if self.in_service is not None else 0)

    def submit(self, req: IoRequest, now: int) -> None:
        if req.target is not self.role:
            raise RoutingError(
                f"request {req.id} targets {req.target and req.target.name}, "
                f"submitted to {self.role.name}"
            )
        self.inqueue[req.origin.index] += 1
        self.submitted += 1
        if self.in_service is None:
            # an idle device has an empty waiting queue: start at once
            self.in_service = req
            service = self.read_latency if req.origin is _R else self.write_latency
            self.busy_until = now + service
            self.busy_time += service
        else:
            self.waiting.append(req)

    def finish(self, now: int) -> IoRequest:
        """Finish the in-service request, which the caller knows is due at ``now``.

        The next waiting request, if any, enters service at ``now``.
        """
        req = self.in_service
        self.inqueue[req.origin.index] -= 1
        if self.waiting:
            nxt = self.waiting.popleft()
            self.in_service = nxt
            service = self.read_latency if nxt.origin is _R else self.write_latency
            self.busy_until = now + service
            self.busy_time += service
        else:
            self.in_service = None
        return req

    def remove_tail(self, count: int) -> list[IoRequest]:
        """Detach up to ``count`` requests from the tail of the waiting queue.

        The in-service request is never touched, so the removable depth is
        the waiting-queue length; larger counts are clamped. Removed
        requests are returned in queue order (closest-to-service first).
        """
        n = min(count, len(self.waiting))
        if n <= 0:
            return []
        removed = [self.waiting.pop() for _ in range(n)]
        removed.reverse()
        inqueue = self.inqueue
        for req in removed:
            inqueue[req.origin.index] -= 1
        return removed


class Simulator:
    """Deterministic event loop over two devices and a schedule of arrivals.

    ``schedule`` holds every application arrival; it is kept as given, not
    copied, and a cursor marks the next one to surface. At that arrival's
    instant ``step`` creates its :class:`IoRequest` (id and app id ``i``
    for row ``i``, no target) and hands it to ``on_arrive``, so only what
    ``on_arrive`` keeps holds the request (the runner submits it to a
    device queue), and it is freed when it completes. The schedule itself
    is only read, so one schedule can drive any number of simulators.
    ``on_complete`` receives every request a device finishes and
    ``on_arrive`` every scheduled arrival, each at its own instant; both
    run with :attr:`clock` at that instant and may submit requests, and
    an owner may set both to None once it is done stepping.
    Tie-breaking at an equal timestamp is fixed: service completions are
    handled before arrivals, SSD before HDD, and arrivals in schedule order.
    """

    def __init__(
        self,
        ssd: Device,
        hdd: Device,
        on_complete: Callable[[IoRequest], None],
        on_arrive: Callable[[IoRequest], None],
        schedule: Schedule,
    ):
        self.clock = 0
        self.ssd = ssd
        self.hdd = hdd
        self.on_complete = on_complete
        self.on_arrive = on_arrive
        self.schedule = schedule
        self._cursor = 0  # row in ``schedule`` of the next arrival to surface
        # its arrival time, None once every arrival has surfaced
        self._next_arrival = schedule.arrival[0] if len(schedule) else None

    def submit(self, req: IoRequest) -> None:
        target = req.target
        if target is _SSD:
            self.ssd.submit(req, self.clock)
        elif target is None:
            raise RoutingError(f"request {req.id} is unrouted: it has no target device")
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
        schedule = self.schedule
        arrivals, lbas, reads = schedule.arrival, schedule.lba, schedule.read
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
                        on_complete(done)
                        on_complete(hdd_done)
                    else:
                        on_complete(done)
                elif hdd_due == t:
                    on_complete(hdd.finish(t))
                if next_arrival == t:
                    # one arrival per pass: the next pass finds this instant
                    # again while arrivals remain at it, and no completion
                    # can fall due at it in between, since every service
                    # takes time
                    i = cursor
                    cursor += 1
                    next_arrival = arrivals[cursor] if cursor < count else None
                    # fields (id, arrival, lba, origin, target, app_id)
                    on_arrive(IoRequest(i, t, lbas[i], _R if reads[i] else _W, None, i))
        finally:
            self._cursor, self._next_arrival = cursor, next_arrival
