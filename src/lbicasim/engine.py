"""Event-driven simulation core: clock, device queues, request lifecycle.

Each storage device is a single-server FIFO queue with fixed per-op
service latencies. Time is integer microseconds and moves to the
earliest pending event (a scheduled arrival or an in-service
completion). Arrivals are given once, at construction, as a
:class:`Schedule` of plain columns in non-decreasing time order. The
loop walks them with a cursor. An application request stays its
schedule row, an ``int``, from its arrival until a device finishes it:
the arrival handler and the device queues take the row itself, and the
loop builds the request's :class:`IoRequest` only at its completion.

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
    when it completes. Cache traffic is an ``IoRequest`` from its
    creation to its completion. An application request is one only from
    its completion on: it waits and is served as its row of the
    :class:`Schedule`, and :meth:`Simulator.step` builds its object,
    target set to the device that finished it, just before handing it to
    the completion handler.
    """

    id: int
    arrival: int
    lba: int
    origin: Origin
    target: DeviceRole | None = None
    app_id: int | None = None


class Schedule:
    """The application requests of a run, as three columns in arrival order.

    Request ``i`` is row ``i``: it arrives at ``arrival[i]``, accesses
    block ``lba[i]`` and is a read when ``read[i]`` is 1, a write when it
    is 0; its id and its app id are both ``i``. From its arrival until a
    device finishes it, the request is the int ``i`` (the simulator hands
    it to its arrival handler, and device queues hold it), so a scheduled
    request costs a slot in each column (8 B of ``array('q')``, one list
    slot and one byte) and, while it waits, an int and a queue slot. Its
    :class:`IoRequest` exists only from its completion on. ``lba`` is a
    list, so requests drawing the same block can share one int object
    (see ``workload._region``).

    ``Schedule(n)`` allocates each column once at ``n`` rows of zeros,
    for a caller that knows its row count to fill by index and then
    :meth:`check_order`; a column grown by :meth:`append` reallocates
    as it grows, and keeps its spare capacity.
    """

    __slots__ = ("arrival", "lba", "read")

    def __init__(self, length: int = 0) -> None:
        self.arrival = array("q", [0]) * length
        self.lba: list[int] = [0] * length
        self.read = bytearray(length)

    def __len__(self) -> int:
        return len(self.arrival)

    def append(self, arrival: int, lba: int, read: bool) -> None:
        """Schedule the next request; its arrival may not precede the last one's."""
        arrivals = self.arrival
        if arrivals and arrival < arrivals[-1]:
            raise _out_of_order(len(arrivals), arrival, arrivals[-1])
        arrivals.append(arrival)
        self.lba.append(lba)
        self.read.append(read)

    def check_order(self) -> None:
        """Raise :meth:`append`'s error at the first row that arrives before its predecessor.

        One pass in C over the filled arrival column; the row is looked
        up only when the check fails.
        """
        arrivals = self.arrival
        if any(map(gt, arrivals, islice(arrivals, 1, None))):
            row = next(compress(count(1), map(gt, arrivals, islice(arrivals, 1, None))))
            raise _out_of_order(row, arrivals[row], arrivals[row - 1])


def _out_of_order(row: int, arrival: int, previous: int) -> ValueError:
    return ValueError(
        f"request {row} arrives at {arrival}, before the preceding scheduled arrival at {previous}"
    )


class Device:
    """Single-server FIFO queue with per-op service latencies (microseconds).

    A pending request is either an :class:`IoRequest` routed to this
    device (cache traffic, or a request built by hand) or an application
    request's schedule row, an ``int``. A row's target is the device that
    holds it, and its op is ``reads[row]``: ``reads`` is the ``read``
    column of the schedule whose rows the device takes, which the
    :class:`Simulator` driving it binds. ``waiting`` and ``in_service``
    hold both kinds as they are, so callers that take requests off a
    device (``finish``, ``remove_tail``) receive rows as ints.

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
        self.reads: bytes | bytearray = b""  # see the class docstring
        self.waiting: deque[IoRequest | int] = deque()
        self.in_service: IoRequest | int | None = None
        self._serving_origin = 0  # Origin.index of the in-service request
        self.inqueue = [0] * len(Origin)
        self.submitted = 0
        self.busy_until = 0
        # summed service time of every request that entered service; a
        # finished run drains every queue, so this is then the busy time
        self.busy_time = 0

    @property
    def qsize(self) -> int:
        return len(self.waiting) + (1 if self.in_service is not None else 0)

    def submit(self, req: IoRequest | int, now: int) -> None:
        if type(req) is int:
            read = self.reads[req]
            index = 1 - read  # Origin declares R (index 0), then W (index 1)
        else:
            if req.target is not self.role:
                raise RoutingError(
                    f"request {req.id} targets {req.target and req.target.name}, "
                    f"submitted to {self.role.name}"
                )
            read = req.origin is _R
            index = req.origin.index
        self.inqueue[index] += 1
        self.submitted += 1
        if self.in_service is None:
            # an idle device has an empty waiting queue: start at once
            self.in_service = req
            self._serving_origin = index
            service = self.read_latency if read else self.write_latency
            self.busy_until = now + service
            self.busy_time += service
        else:
            self.waiting.append(req)

    def finish(self, now: int) -> IoRequest | int:
        """Finish the in-service request, which the caller knows is due at ``now``.

        The next waiting request, if any, enters service at ``now``.
        """
        req = self.in_service
        self.inqueue[self._serving_origin] -= 1
        if self.waiting:
            nxt = self.waiting.popleft()
            self.in_service = nxt
            if type(nxt) is int:
                read = self.reads[nxt]
                self._serving_origin = 1 - read
            else:
                read = nxt.origin is _R
                self._serving_origin = nxt.origin.index
            service = self.read_latency if read else self.write_latency
            self.busy_until = now + service
            self.busy_time += service
        else:
            self.in_service = None
        return req

    def remove_tail(self, count: int) -> list[IoRequest | int]:
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
        inqueue, reads = self.inqueue, self.reads
        for req in removed:
            inqueue[1 - reads[req] if type(req) is int else req.origin.index] -= 1
        return removed


class Simulator:
    """Deterministic event loop over two devices and a schedule of arrivals.

    ``schedule`` holds every application arrival; it is kept as given, not
    copied, and a cursor marks the next one to surface. At that arrival's
    instant ``step`` hands ``on_arrive`` the request's row ``i``, a plain
    int, and no request object: ``on_arrive`` routes the row and submits
    it to a device (the runner plans its access first), and the devices
    read its op from the schedule's ``read`` column, which the simulator
    binds to both at construction. When a device finishes a row, ``step``
    builds its :class:`IoRequest` (id and app id ``i``, target the device
    that finished it) and hands that to ``on_complete``, like every other
    request a device finishes; it is freed once the handler drops it. The
    schedule itself is only read, so one schedule can drive any number of
    simulators. Both handlers run with :attr:`clock` at their instant and
    may submit requests, and an owner may set both to None once it is
    done stepping. Tie-breaking at an equal timestamp is fixed: service
    completions are handled before arrivals, SSD before HDD, and arrivals
    in schedule order.
    """

    def __init__(
        self,
        ssd: Device,
        hdd: Device,
        on_complete: Callable[[IoRequest], None],
        on_arrive: Callable[[int], None],
        schedule: Schedule,
    ):
        self.clock = 0
        self.ssd = ssd
        self.hdd = hdd
        ssd.reads = hdd.reads = schedule.read
        self.on_complete = on_complete
        self.on_arrive = on_arrive
        self.schedule = schedule
        self._cursor = 0  # row in ``schedule`` of the next arrival to surface
        # its arrival time, None once every arrival has surfaced
        self._next_arrival = schedule.arrival[0] if len(schedule) else None

    def submit(self, req: IoRequest | int, target: DeviceRole | None = None) -> None:
        """Queue ``req`` on a device: a schedule row on ``target``, a request on its own.

        A request submitted with a ``target`` must carry that target too.
        """
        if target is None:
            try:
                target = req.target
            except AttributeError:  # a schedule row carries no target of its own
                raise RoutingError(
                    f"request {req} is unrouted: a schedule row needs a target"
                ) from None
            if target is None:
                raise RoutingError(f"request {req.id} is unrouted: it has no target device")
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
                # a finished schedule row becomes its request here; fields
                # (id, arrival, lba, origin, target, app_id)
                if ssd_due == t:
                    done = ssd.finish(t)
                    if type(done) is int:
                        i = done
                        done = IoRequest(i, arrivals[i], lbas[i], _R if reads[i] else _W, _SSD, i)
                    if hdd_due == t:
                        hdd_done = hdd.finish(t)
                        if type(hdd_done) is int:
                            i = hdd_done
                            hdd_done = IoRequest(
                                i, arrivals[i], lbas[i], _R if reads[i] else _W, _HDD, i
                            )
                        on_complete(done)
                        on_complete(hdd_done)
                    else:
                        on_complete(done)
                elif hdd_due == t:
                    done = hdd.finish(t)
                    if type(done) is int:
                        i = done
                        done = IoRequest(i, arrivals[i], lbas[i], _R if reads[i] else _W, _HDD, i)
                    on_complete(done)
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
