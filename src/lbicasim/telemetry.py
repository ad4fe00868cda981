"""Queue statistics: snapshots and the per-interval record.

The balancers act on two views of the system, both produced here:

* a point-in-time :class:`QueueSnapshot` of how many requests of each
  origin sit in each device queue, copied from the devices' running
  counts (constant cost at any queue depth), which the runner reduces to
  the cache queue's origin mix to characterize the queued workload;
* an :class:`IntervalStats` record closed at every interval boundary,
  which becomes one row of ``intervals.csv``.

Per-origin counts are 4-tuples in ``Origin`` order ``(r, w, p, e)``,
the format ``Device.inqueue`` keeps. The open window counts completions
in one list per device, indexed by ``Origin.index``, and closing it
copies each list into a tuple of :class:`IntervalStats`.

The latency term is the configured per-device average of read and write
service latency, fixed for the whole run; queue times are exact integer
products of that and the sampled depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .engine import Device, DeviceRole, Origin

if TYPE_CHECKING:
    from .balancer import RatioVector


@dataclass(frozen=True)
class QueueSnapshot:
    """Per-origin queue counts of both devices at one instant.

    Each field holds the number of pending requests of each origin, the
    in-service request included, in ``Origin`` order ``(r, w, p, e)``.
    Later simulation steps never mutate a snapshot.
    """

    ssd_inqueue: tuple[int, int, int, int]
    hdd_inqueue: tuple[int, int, int, int]


def take_snapshot(ssd: Device, hdd: Device) -> QueueSnapshot:
    return QueueSnapshot(ssd_inqueue=tuple(ssd.inqueue), hdd_inqueue=tuple(hdd.inqueue))


@dataclass
class IntervalStats:
    """One closed reporting interval: one row of ``intervals.csv``.

    Queue depths are sampled at the window end. Construction derives
    ``cache_qtime`` and ``disk_qtime``, each depth times its latency
    term, and ``burst``, true when the cache queue would take strictly
    longer to drain. ``ssd_served`` and ``hdd_served`` count each
    device's completions inside the window per origin, in ``Origin``
    order ``(r, w, p, e)``; ``ssd_max_latency`` and ``hdd_max_latency``
    are the largest completion time less arrival that each device saw in
    the window (zero when idle). The runner sets the last four fields
    after the balancer's tick; ``bypassed`` counts the requests that
    actually left the cache queue, which may be fewer than requested.
    """

    interval_index: int
    window_start: int
    window_end: int
    ssd_qsize: int
    hdd_qsize: int
    ssd_latency_avg: int
    hdd_latency_avg: int
    cache_qtime: int = field(init=False)
    disk_qtime: int = field(init=False)
    burst: bool = field(init=False)
    ssd_served: tuple[int, int, int, int]
    hdd_served: tuple[int, int, int, int]
    ssd_max_latency: int
    hdd_max_latency: int
    ratios: RatioVector | None = None
    klass: str = ""
    policy: str = ""
    bypassed: int = 0

    def __post_init__(self) -> None:
        self.cache_qtime = self.ssd_qsize * self.ssd_latency_avg
        self.disk_qtime = self.hdd_qsize * self.hdd_latency_avg
        self.burst = self.cache_qtime > self.disk_qtime


class IntervalTracker:
    """Streams completions into non-overlapping interval windows.

    The open window's counts are int-indexed: ``_served[role][origin]``
    and ``_max_latency[role]`` by ``DeviceRole.index`` and
    ``Origin.index``.
    """

    def __init__(self, ssd_latency_avg: int, hdd_latency_avg: int):
        self.ssd_latency_avg = ssd_latency_avg
        self.hdd_latency_avg = hdd_latency_avg
        self._window_start = 0
        self._index = 0
        self._reset_window()

    def _reset_window(self) -> None:
        self._served = [[0] * len(Origin) for _role in DeviceRole]
        self._max_latency = [0] * len(DeviceRole)

    def record_completion(self, role: int, origin: int, latency: int) -> None:
        """Count one completion: its device's and origin's indices, and its latency."""
        self._served[role][origin] += 1
        if latency > self._max_latency[role]:
            self._max_latency[role] = latency

    def close_interval(self, end: int, ssd_qsize: int, hdd_qsize: int) -> IntervalStats:
        """Close the window ending at ``end`` and reset windowed counters."""
        if end <= self._window_start:
            raise ValueError(
                f"interval windows must not overlap: "
                f"close at {end} after window start {self._window_start}"
            )
        self._index += 1
        ssd_served, hdd_served = self._served  # DeviceRole order
        ssd_max_latency, hdd_max_latency = self._max_latency
        stats = IntervalStats(
            interval_index=self._index,
            window_start=self._window_start,
            window_end=end,
            ssd_qsize=ssd_qsize,
            hdd_qsize=hdd_qsize,
            ssd_latency_avg=self.ssd_latency_avg,
            hdd_latency_avg=self.hdd_latency_avg,
            ssd_served=tuple(ssd_served),
            hdd_served=tuple(hdd_served),
            ssd_max_latency=ssd_max_latency,
            hdd_max_latency=hdd_max_latency,
        )
        self._window_start = end
        self._reset_window()
        return stats
