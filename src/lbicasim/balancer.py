"""Load balancing controllers for the two-tier stack.

Three controllers share one tick interface, invoked at every interval
boundary with the closed interval's stats and the origin mix of the
cache queue:

* ``none-wb``: write-back cache, no balancing. The baseline.
* ``lbica``: detects a cache-side bottleneck by comparing queue times,
  characterizes the workload from the origin mix sitting in the cache
  queue, and reassigns the write policy to steer traffic away from the
  overloaded cache; write-intensive queues additionally get their tail
  bypassed to the disk.
* ``sib``: prior selective-bypass baseline. The cache is pinned to
  write-through and every tick requests the same tail cut as LBICA's
  write-intensive bypass, capped so the in-service request is never
  moved. It never changes the write policy.

A tick is a pure function of its inputs: it returns a
:class:`PolicyDecision` and touches nothing. The runner is the only
mutator. It applies each decision (tail bypass first, then the policy
switch), so every queue edit is logged and accounted in one place. The
decision's ``bypass_depth`` is the depth the controller requested; the
runner records how many requests actually moved, which can be fewer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .cache import WritePolicy
from .telemetry import IntervalStats, QueueSnapshot


class WorkloadClass(Enum):
    RANDOM_READ = "random-read"
    MIXED_READ_WRITE = "mixed-read-write"
    RANDOM_WRITE = "random-write"
    SEQUENTIAL_WRITE = "sequential-write"
    SEQUENTIAL_READ = "sequential-read"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class RatioVector:
    """Origin mix of the cache queue as fractions in [0, 1]."""

    r: float
    w: float
    p: float
    e: float

    @classmethod
    def from_counts(cls, r: int, w: int, p: int, e: int) -> RatioVector:
        total = r + w + p + e
        if total <= 0:
            return cls(0.0, 0.0, 0.0, 0.0)
        return cls(r / total, w / total, p / total, e / total)

    @classmethod
    def from_snapshot(cls, snapshot: QueueSnapshot) -> RatioVector:
        return cls.from_counts(*snapshot.ssd_inqueue)


@dataclass(frozen=True)
class PolicyDecision:
    """What one controller tick asks the runner to do.

    ``policy`` is the write policy to run the next interval under.
    ``bypass_depth`` is the number of requests the controller asks to
    move from the cache queue tail to the disk. The runner clamps it to
    the waiting queue, so the count that actually moved can be smaller
    (``IntervalStats.bypassed``). ``klass`` is None when the tick did not
    classify (no bottleneck, or a controller that never classifies).
    """

    policy: WritePolicy
    bypass_depth: int = 0
    klass: WorkloadClass | None = None


def classify(ratios: RatioVector, theta_dom: float) -> WorkloadClass:
    """Name the workload from the origin mix of the cache queue.

    A promotion-dominated queue is a sequential read (a miss streak being
    installed). Otherwise the largest origin pair that reaches the
    dominance threshold wins: r+p reads the cache, w+e writes it under
    pressure, r+w is a mixed foreground. Ties go to the more specific
    signature (r+p, then w+e) so a pure-read or pure-write queue is not
    absorbed into the mixed class. Below the threshold the queue stays
    unclassified. ``theta_dom`` must lie in (0.5, 1.0], which
    :class:`LbicaBalancer` checks once.
    """
    if ratios.p >= theta_dom:
        return WorkloadClass.SEQUENTIAL_READ
    groups: list[tuple[float, WorkloadClass | None]] = [
        (ratios.r + ratios.p, WorkloadClass.RANDOM_READ),
        (ratios.w + ratios.e, None),  # split on w vs e below
        (ratios.r + ratios.w, WorkloadClass.MIXED_READ_WRITE),
    ]
    # ``max`` keeps the first of equal scores, so ties go in list order
    score, klass = max(groups, key=lambda g: g[0])
    if score < theta_dom:
        return WorkloadClass.UNCLASSIFIED
    if klass is None:
        return (
            WorkloadClass.RANDOM_WRITE if ratios.w > ratios.e else WorkloadClass.SEQUENTIAL_WRITE
        )
    return klass


def assign_policy(klass: WorkloadClass) -> PolicyDecision:
    """Map a workload class to the write policy that unloads the cache.

    Only called during a bottleneck; outside one the cache reverts to
    write-back without classifying. Read-heavy queues stop taking
    promotions (WO), mixed queues stop taking writes (RO), and
    write-intensive or unrecognized queues keep WB (the balancer's tick
    also sheds their queue tail to the disk, see :data:`TAIL_CUT_CLASSES`).
    A promotion-dominated queue keeps WB: its load comes from misses the
    disk must serve anyway.
    """
    if klass is WorkloadClass.RANDOM_READ:
        return PolicyDecision(WritePolicy.WO, klass=klass)
    if klass is WorkloadClass.MIXED_READ_WRITE:
        return PolicyDecision(WritePolicy.RO, klass=klass)
    return PolicyDecision(WritePolicy.WB, klass=klass)


# the classes whose bottleneck LBICA answers with a tail cut under WB
TAIL_CUT_CLASSES = frozenset(
    (WorkloadClass.RANDOM_WRITE, WorkloadClass.SEQUENTIAL_WRITE, WorkloadClass.UNCLASSIFIED)
)


def compute_bypass_depth(stats: IntervalStats) -> int:
    """Smallest tail cut that rebalances the queue times.

    Returns the minimal k >= 0 with
    ``(ssd_qsize - k) * ssd_latency_avg <= (hdd_qsize + k) * hdd_latency_avg``.
    Each bypassed request both shortens the cache queue and lengthens the
    disk queue, hence the combined divisor.
    """
    excess = stats.cache_qtime - stats.disk_qtime
    if excess <= 0:
        return 0
    step = stats.ssd_latency_avg + stats.hdd_latency_avg
    return -(-excess // step)


class WriteBackBaseline:
    """No balancing: the cache stays write-back for the whole run."""

    name = "none-wb"
    initial_policy = WritePolicy.WB

    def __init__(self, theta_dom: float):
        """The baseline never classifies, so ``theta_dom`` is unused."""

    def tick(self, stats: IntervalStats, ratios: RatioVector) -> PolicyDecision:
        return PolicyDecision(WritePolicy.WB)


class LbicaBalancer:
    """Adaptive policy assignment driven by queue-time comparison."""

    name = "lbica"
    initial_policy = WritePolicy.WB

    def __init__(self, theta_dom: float):
        if not 0.5 < theta_dom <= 1.0:
            raise ValueError("theta_dom must be in (0.5, 1.0]")
        self.theta_dom = theta_dom

    def tick(self, stats: IntervalStats, ratios: RatioVector) -> PolicyDecision:
        if not stats.burst:
            return PolicyDecision(WritePolicy.WB)
        klass = classify(ratios, self.theta_dom)
        decision = assign_policy(klass)
        if klass in TAIL_CUT_CLASSES:
            return replace(decision, bypass_depth=compute_bypass_depth(stats))
        return decision


class SibBalancer:
    """Selective bypass over a write-through cache.

    Every tick requests the same tail cut as LBICA's write-intensive
    bypass (:func:`compute_bypass_depth`), capped at ``ssd_qsize - 1`` so
    the in-service request is never moved. The policy never changes.
    """

    name = "sib"
    initial_policy = WritePolicy.WT

    def __init__(self, theta_dom: float):
        """SIB never classifies, so ``theta_dom`` is unused."""

    def tick(self, stats: IntervalStats, ratios: RatioVector) -> PolicyDecision:
        depth = min(compute_bypass_depth(stats), max(stats.ssd_qsize - 1, 0))
        return PolicyDecision(WritePolicy.WT, bypass_depth=depth)


BALANCERS: dict[str, type] = {
    WriteBackBaseline.name: WriteBackBaseline,
    LbicaBalancer.name: LbicaBalancer,
    SibBalancer.name: SibBalancer,
}


def make_balancer(name: str, theta_dom: float):
    try:
        cls = BALANCERS[name]
    except KeyError:
        raise ValueError(f"unknown balancer {name!r}, expected one of {sorted(BALANCERS)}")
    return cls(theta_dom)
