"""Cache admission, eviction, and write-policy semantics.

The cache engine owns the block map (residency, dirty bits, LRU recency)
and decides, per application access, which device requests realize it.
Metadata updates synchronously when the access is planned; the returned
:class:`RoutingPlan` models the device traffic the access costs. Hit and
miss behaviour therefore matches a pure LRU run over the access sequence,
independent of device timing.

Four write policies steer where writes and promotions go:

* WB, write-back: writes buffered in cache and marked dirty; the disk is
  only updated when a dirty victim is evicted.
* WT, write-through: writes go to cache and disk together; the access
  completes when both finish.
* WO, write-only: writes are buffered like WB, but read misses are never
  promoted, so the cache takes no promotion traffic.
* RO, read-only: only read traffic is cached; application writes bypass
  to disk, invalidating any cached copy (dirty copies are written back
  first).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .engine import DeviceRole, IoRequest, OpType, Origin


class WritePolicy(Enum):
    WB = "WB"
    WT = "WT"
    WO = "WO"
    RO = "RO"


# members bound once, so planning an access makes no enum class lookups
_R, _W, _P, _E = Origin
_READ, _WRITE = OpType
_SSD, _HDD = DeviceRole
_WB, _WT, _WO, _RO = WritePolicy


@dataclass
class RoutingPlan:
    """Device submissions realizing one application access.

    ``immediate`` is ordered; same-device entries must be submitted in
    list order (e.g. the write-back of a stale dirty copy precedes the
    invalidating disk write). ``foreground`` counts the requests whose
    completion completes the application access: 1, or 2 for a
    write-through write (the cache write and its disk mirror). Other
    traffic in the plan (promotions, eviction write-backs) is background.

    ``promotion``, set by a read miss that admits its block, is held back
    until the access's own disk read completes: a promotion installs data
    fetched from disk, so it cannot enter the cache queue earlier. When it
    is submitted the active policy is checked again; if the cache switched
    to WO while the read was in flight, the promotion is dropped. The
    runner refreshes its ``arrival`` to the submission instant.
    """

    immediate: list[IoRequest] = field(default_factory=list)
    promotion: IoRequest | None = None
    foreground: int = 1


class CacheEngine:
    """Block map, LRU recency, and the active write policy.

    ``next_id`` allocates ids for the auxiliary requests the engine
    creates; the runner passes its global counter so ids stay unique
    across application and cache traffic.
    """

    def __init__(
        self,
        capacity_blocks: int,
        policy: WritePolicy = WritePolicy.WB,
        next_id: Callable[[], int] | None = None,
    ):
        if capacity_blocks < 1:
            raise ValueError("cache capacity must be at least one block")
        self.capacity_blocks = capacity_blocks
        self.policy = policy
        # lba -> dirty; insertion order is recency order, first entry is the LRU victim
        self._entries: OrderedDict[int, bool] = OrderedDict()
        self._next_id = next_id or itertools.count(1_000_000).__next__
        self.read_hits = 0
        self.read_misses = 0
        self.dirty_writebacks = 0  # every origin-E request ever emitted

    # ------------------------------------------------------------------
    # state inspection

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def resident(self, lba: int) -> bool:
        return lba in self._entries

    def resident_lbas(self) -> list[int]:
        """Resident blocks in recency order, LRU first."""
        return list(self._entries)

    def dirty_lbas(self) -> set[int]:
        return {lba for lba, dirty in self._entries.items() if dirty}

    @property
    def admits_promotion(self) -> bool:
        return self.policy is not _WO

    # ------------------------------------------------------------------
    # operations

    def set_policy(self, policy: WritePolicy) -> None:
        """Switch the write policy in place.

        Resident blocks and dirty bits survive the switch; nothing is
        flushed. Subsequent accesses follow the new policy.
        """
        self.policy = policy

    def access(self, req: IoRequest, now: int) -> RoutingPlan:
        """Plan the device traffic for one application access."""
        if req.origin is not _R and req.origin is not _W:
            raise ValueError(
                f"cache access takes application traffic only, got origin {req.origin.name}"
            )
        plan = RoutingPlan()
        if req.op is _READ:
            self._plan_read(req, now, plan)
        else:
            self._plan_write(req, now, plan)
        return plan

    def evict_victim(self, now: int) -> tuple[int, IoRequest | None]:
        """Evict the LRU block from a full cache.

        Returns the victim lba and, when the victim was dirty, the HDD
        write-back request that persists it. Clean victims leave silently.
        """
        if len(self._entries) < self.capacity_blocks:
            raise ValueError("evict_victim called on a cache that is not full")
        lba, dirty = self._entries.popitem(last=False)
        if dirty:
            return lba, self._writeback(lba, now)
        return lba, None

    # ------------------------------------------------------------------
    # internals

    def _plan_read(self, req: IoRequest, now: int, plan: RoutingPlan) -> None:
        if req.lba in self._entries:
            self.read_hits += 1
            self._touch(req.lba)
            req.target = _SSD
            plan.immediate.append(req)
            return
        self.read_misses += 1
        req.target = _HDD
        plan.immediate.append(req)
        if self.policy is _WO:
            return  # miss served by disk alone, nothing admitted
        writeback = self._admit(req.lba, dirty=False, now=now)
        if writeback is not None:
            plan.immediate.append(writeback)
        plan.promotion = IoRequest(
            id=self._next_id(),
            arrival=now,
            lba=req.lba,
            op=_WRITE,
            origin=_P,
            target=_SSD,
        )

    def _plan_write(self, req: IoRequest, now: int, plan: RoutingPlan) -> None:
        if self.policy is _RO:
            if self._entries.pop(req.lba, False):  # invalidate any cached copy
                # the cached copy holds unwritten data: persist it before
                # the new write lands on the same device queue
                plan.immediate.append(self._writeback(req.lba, now))
            req.target = _HDD
            plan.immediate.append(req)
            return

        if self.policy is _WT:
            if req.lba in self._entries:
                self._entries[req.lba] = False  # disk copy becomes current again
                self._touch(req.lba)
            else:
                writeback = self._admit(req.lba, dirty=False, now=now)
                if writeback is not None:
                    plan.immediate.append(writeback)
            req.target = _SSD
            plan.immediate.append(req)
            mirror = IoRequest(
                id=self._next_id(),
                arrival=req.arrival,
                lba=req.lba,
                op=_WRITE,
                origin=_W,
                target=_HDD,
                app_id=req.app_id,
            )
            plan.immediate.append(mirror)
            plan.foreground = 2
            return

        # WB and WO both buffer the write and mark the block dirty
        req.target = _SSD
        plan.immediate.append(req)
        if req.lba in self._entries:
            self._entries[req.lba] = True
            self._touch(req.lba)
        else:
            writeback = self._admit(req.lba, dirty=True, now=now)
            if writeback is not None:
                plan.immediate.append(writeback)

    def _touch(self, lba: int) -> None:
        self._entries.move_to_end(lba)

    def _admit(self, lba: int, dirty: bool, now: int) -> IoRequest | None:
        """Insert a non-resident block as MRU, evicting first if full."""
        writeback = None
        if len(self._entries) >= self.capacity_blocks:
            _victim, writeback = self.evict_victim(now)
        self._entries[lba] = dirty
        return writeback

    def _writeback(self, lba: int, now: int) -> IoRequest:
        self.dirty_writebacks += 1
        return IoRequest(
            id=self._next_id(),
            arrival=now,
            lba=lba,
            op=_WRITE,
            origin=_E,
            target=_HDD,
        )
