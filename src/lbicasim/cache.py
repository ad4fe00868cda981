"""Cache admission, eviction, and write-policy semantics.

The cache engine owns the block map (residency, dirty bits, LRU recency)
and decides, per application access, which device requests realize it.
Metadata updates synchronously when the access is planned; the tuple
:meth:`CacheEngine.access` returns models the device traffic the access
costs, as the ids of the cache requests it creates in its run's
:class:`~lbicasim.engine.Requests` table. Hit and miss behaviour
therefore matches a pure LRU run over the access sequence, independent
of device timing.

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

from collections import OrderedDict
from enum import Enum

from .engine import DeviceRole, Origin, Requests, Schedule


class WritePolicy(Enum):
    WB = "WB"
    WT = "WT"
    WO = "WO"
    RO = "RO"


# bound once, so planning an access makes no enum class lookups
_W, _P, _E = Origin.W.index, Origin.P.index, Origin.E.index
_SSD, _HDD = DeviceRole
_WB, _WT, _WO, _RO = WritePolicy


class CacheEngine:
    """Block map, LRU recency, and the active write policy.

    Assigning ``policy`` switches it: resident blocks and dirty bits
    survive, nothing is flushed, and later accesses follow the new policy.

    ``requests`` is the run's request table: the engine adds each cache
    request it creates there, so ids stay unique across application and
    cache traffic. Without one, the engine keeps a table of its own.
    """

    def __init__(
        self,
        capacity_blocks: int,
        policy: WritePolicy = WritePolicy.WB,
        requests: Requests | None = None,
    ):
        if capacity_blocks < 1:
            raise ValueError("cache capacity must be at least one block")
        self.capacity_blocks = capacity_blocks
        self.policy = policy
        # lba -> dirty; insertion order is recency order, first entry is the LRU victim
        self._entries: OrderedDict[int, bool] = OrderedDict()
        self.requests = requests if requests is not None else Requests(Schedule())
        self._add = self.requests.add
        self.read_hits = 0
        self.read_misses = 0
        self.dirty_writebacks = 0  # every origin-E request ever emitted

    # ------------------------------------------------------------------
    # state inspection

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

    def access(
        self, row: int, lba: int, is_read: int, now: int
    ) -> tuple[int | None, DeviceRole, int | None, int | None, int]:
        """Plan the device traffic for one application access, at its arrival ``now``.

        The access is schedule row ``row``, a read of block ``lba`` when
        ``is_read`` is true and a write of it otherwise (its ``Schedule``
        columns). Returns ``(before, target, after, promotion,
        foreground)``: the row itself is to be submitted to ``target``,
        right after the request ``before`` and right before the request
        ``after``, when these are set. ``before``, ``after`` and
        ``promotion`` are ids of cache requests the engine created, in that
        order; ``before`` and ``after`` always go to the disk. Under WT
        and RO a write-back comes ``before``: under RO it persists a stale
        dirty copy before the invalidating disk write, and under WT the
        evicted victim's write-back precedes the cache write and its
        mirror, which comes ``after``. Under WB, WO and on a read miss the
        write-back comes ``after``. ``foreground`` counts the requests
        whose completion completes the application access: 1, or 2 for a
        write-through write (the cache write and its disk mirror, which
        carries ``row`` as its app). Other traffic (promotions, eviction
        write-backs) is background.

        ``promotion``, set by a read miss that admits its block, is held
        back until the access's own disk read completes: a promotion
        installs data fetched from disk, so it cannot enter the cache queue
        earlier, and it always enters the cache queue. When it is submitted
        the active policy is checked again; if the cache switched to WO
        while the read was in flight, the promotion is dropped. The runner
        refreshes its ``arrival`` to the submission instant.
        """
        entries = self._entries
        policy = self.policy
        if is_read:
            if lba in entries:
                self.read_hits += 1
                entries.move_to_end(lba)
                return None, _SSD, None, None, 1
            self.read_misses += 1
            if policy is _WO:
                return None, _HDD, None, None, 1  # miss served by disk alone, nothing admitted
            target = _HDD
            dirty = False
        elif policy is _RO:
            if entries.pop(lba, False):  # invalidate any cached copy
                # the cached copy holds unwritten data: persist it before
                # the new write lands on the same device queue
                return self._writeback(lba, now), _HDD, None, None, 1
            return None, _HDD, None, None, 1
        else:
            # WB and WO buffer the write and mark the block dirty; under WT
            # the disk copy becomes current again
            target = _SSD
            dirty = policy is not _WT

        # the block becomes MRU; a non-resident one evicts first if full
        writeback = None
        if lba in entries:  # only a write reaches here with its block resident
            entries.move_to_end(lba)
        elif len(entries) >= self.capacity_blocks:
            victim, victim_dirty = entries.popitem(last=False)
            if victim_dirty:
                writeback = self._writeback(victim, now)
        entries[lba] = dirty

        if is_read:
            promotion = self._add(_P, now, lba)
        elif policy is _WT:
            return writeback, _SSD, self._add(_W, now, lba, row), None, 2
        else:
            promotion = None
        return None, target, writeback, promotion, 1

    def _writeback(self, lba: int, now: int) -> int:
        self.dirty_writebacks += 1
        return self._add(_E, now, lba)
