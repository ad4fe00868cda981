"""Bottleneck detection, classification, policy mapping, bypass depth, the ticks."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lbicasim.balancer import (
    LbicaBalancer,
    PolicyDecision,
    RatioVector,
    SibBalancer,
    WorkloadClass,
    WriteBackBaseline,
    assign_policy,
    classify,
    compute_bypass_depth,
    make_balancer,
)
from lbicasim.cache import WritePolicy
from lbicasim.telemetry import QueueSnapshot

from conftest import make_stats

THETA_DOM = 0.8  # the dominance threshold every committed scenario runs at


class TestDetectBottleneck:
    """The burst flag LBICA acts on, as the interval record derives it."""

    def test_cache_side_strictly_larger(self):
        assert make_stats(60, 100, 1, 5000).burst is True

    def test_equal_queue_times_are_not_a_bottleneck(self):
        assert make_stats(50, 100, 1, 5000).burst is False

    def test_idle_system(self):
        assert make_stats(0, 100, 0, 5000).burst is False

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_detection_matches_strict_product_comparison(self, s, ls, h, lh):
        assert make_stats(s, ls, h, lh).burst is (s * ls > h * lh)


class TestClassify:
    # observed in-queue mixes with known classes, dominance threshold 0.8
    FIXTURES = [
        ((0.44, 0.022, 0.51, 0.028), WorkloadClass.RANDOM_READ),
        ((0.139, 0.704, 0.039, 0.118), WorkloadClass.MIXED_READ_WRITE),
        ((0.179, 0.638, 0.079, 0.104), WorkloadClass.MIXED_READ_WRITE),
        ((0.05, 0.60, 0.05, 0.30), WorkloadClass.RANDOM_WRITE),
        ((1.0, 0.0, 0.0, 0.0), WorkloadClass.RANDOM_READ),
        ((0.8, 0.0, 0.0, 0.2), WorkloadClass.RANDOM_READ),  # a pair at the threshold reaches it
        ((0.0, 0.5, 0.0, 0.5), WorkloadClass.SEQUENTIAL_WRITE),  # w == e is not random
    ]

    @pytest.mark.parametrize("vector,expected", FIXTURES)
    def test_known_mixes(self, vector, expected):
        assert classify(RatioVector(*vector), THETA_DOM) is expected

    def test_promotion_dominated_queue_is_sequential_read(self):
        ratios = RatioVector(0.1, 0.05, 0.8, 0.05)
        assert classify(ratios, THETA_DOM) is WorkloadClass.SEQUENTIAL_READ

    def test_eviction_heavy_write_queue_is_sequential_write(self):
        ratios = RatioVector(0.05, 0.30, 0.05, 0.60)
        assert classify(ratios, THETA_DOM) is WorkloadClass.SEQUENTIAL_WRITE

    def test_no_dominant_pair_is_unclassified(self):
        assert classify(RatioVector(0.4, 0.2, 0.2, 0.2), THETA_DOM) is WorkloadClass.UNCLASSIFIED

    def test_pure_write_queue_is_random_write(self):
        # w+e and r+w tie at 1.0; the write signature is the more specific
        assert classify(RatioVector(0.0, 1.0, 0.0, 0.0), THETA_DOM) is WorkloadClass.RANDOM_WRITE

    def test_threshold_bounds_enforced(self):
        # checked once, when the balancer is built, not on every tick
        with pytest.raises(ValueError):
            LbicaBalancer(theta_dom=0.5)
        with pytest.raises(ValueError):
            LbicaBalancer(theta_dom=1.1)
        assert LbicaBalancer(theta_dom=1.0).theta_dom == 1.0

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=2, max_value=9),
    )
    def test_ratio_invariance_under_scaling(self, r, w, p, e, k):
        base = classify(RatioVector.from_counts(r, w, p, e), THETA_DOM)
        scaled = classify(RatioVector.from_counts(k * r, k * w, k * p, k * e), THETA_DOM)
        assert scaled is base


class TestRatioVector:
    def test_counts_normalize(self):
        v = RatioVector.from_counts(2, 1, 1, 0)
        assert (v.r, v.w, v.p, v.e) == (0.5, 0.25, 0.25, 0.0)

    def test_empty_queue_is_all_zero(self):
        v = RatioVector.from_counts(0, 0, 0, 0)
        assert (v.r, v.w, v.p, v.e) == (0.0, 0.0, 0.0, 0.0)

    def test_from_snapshot_counts_cache_queue_only(self):
        snap = QueueSnapshot(ssd_inqueue=(1, 1, 2, 0), hdd_inqueue=(0, 0, 0, 1))
        v = RatioVector.from_snapshot(snap)
        assert (v.r, v.w, v.p, v.e) == (0.25, 0.25, 0.5, 0.0)


# one cache-queue mix per workload class, in ``(r, w, p, e)`` counts
CLASS_MIXES = {
    WorkloadClass.RANDOM_READ: (30, 0, 30, 0),
    WorkloadClass.MIXED_READ_WRITE: (14, 70, 4, 12),
    WorkloadClass.RANDOM_WRITE: (0, 1, 0, 0),
    WorkloadClass.SEQUENTIAL_WRITE: (5, 30, 5, 60),
    WorkloadClass.SEQUENTIAL_READ: (10, 5, 80, 5),
    WorkloadClass.UNCLASSIFIED: (4, 2, 2, 2),
}


def lbica_burst_tick(klass):
    """LBICA's decision on a cache-side bottleneck whose queue classifies as ``klass``."""
    decision = LbicaBalancer(THETA_DOM).tick(
        make_stats(60, 100, 1, 5000), RatioVector.from_counts(*CLASS_MIXES[klass])
    )
    assert decision.klass is klass
    return decision


class TestAssignPolicy:
    def test_read_heavy_burst_blocks_promotions(self):
        decision = assign_policy(WorkloadClass.RANDOM_READ)
        assert decision.policy is WritePolicy.WO

    def test_mixed_burst_blocks_cache_writes(self):
        decision = assign_policy(WorkloadClass.MIXED_READ_WRITE)
        assert decision.policy is WritePolicy.RO

    @pytest.mark.parametrize(
        "klass",
        [WorkloadClass.RANDOM_WRITE, WorkloadClass.SEQUENTIAL_WRITE, WorkloadClass.UNCLASSIFIED],
    )
    def test_write_pressure_keeps_wb_and_sheds_the_tail(self, klass):
        assert assign_policy(klass).policy is WritePolicy.WB
        decision = lbica_burst_tick(klass)
        assert decision.policy is WritePolicy.WB
        assert decision.bypass_depth == 1  # the minimal cut for this state

    def test_sequential_read_burst_keeps_wb_without_bypass(self):
        assert assign_policy(WorkloadClass.SEQUENTIAL_READ).policy is WritePolicy.WB
        decision = lbica_burst_tick(WorkloadClass.SEQUENTIAL_READ)
        assert decision.policy is WritePolicy.WB
        assert decision.bypass_depth == 0

    def test_tail_bypass_only_ever_pairs_with_wb(self):
        for klass in WorkloadClass:
            decision = lbica_burst_tick(klass)
            assert decision.policy is assign_policy(klass).policy
            if decision.bypass_depth:
                assert decision.policy is WritePolicy.WB


def scan_minimal_depth(s, ls, h, lh):
    """Linear-scan oracle: first k whose cut rebalances the queue times."""
    k = 0
    while (s - k) * ls > (h + k) * lh:
        k += 1
    return k


class TestComputeBypassDepth:
    def test_small_imbalance_needs_one(self):
        assert compute_bypass_depth(make_stats(60, 100, 1, 5000)) == 1

    def test_balanced_queues_need_nothing(self):
        assert compute_bypass_depth(make_stats(50, 100, 1, 5000)) == 0

    def test_disk_side_dominant_needs_nothing(self):
        assert compute_bypass_depth(make_stats(3, 100, 10, 5000)) == 0

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=10_000),
    )
    @example(1, 1, 0, 1)  # the cache side ahead by 1 us still needs a cut
    def test_matches_scan_oracle_and_is_minimal(self, s, ls, h, lh):
        k = compute_bypass_depth(make_stats(s, ls, h, lh))
        assert k == scan_minimal_depth(s, ls, h, lh)
        assert (s - k) * ls <= (h + k) * lh
        if k >= 1:
            assert (s - (k - 1)) * ls > (h + (k - 1)) * lh


def sib_scan_oracle(s, ls, h, lh):
    """SIB's per-request scan: walk the cache queue from the tail inward.

    A request at 1-based position ``pos`` is expected to wait ``pos * ls``
    and is bypassed while that exceeds the disk-side estimate
    ``(h + already_bypassed) * lh``. The in-service request (position 1)
    is never considered.
    """
    pos = s
    bypassed = 0
    while pos >= 2 and pos * ls > (h + bypassed) * lh:
        bypassed += 1
        pos -= 1
    return bypassed


class TestControllers:
    def test_baseline_never_balances(self):
        balancer = WriteBackBaseline(THETA_DOM)
        decision = balancer.tick(make_stats(60, 100, 1, 5000), RatioVector.from_counts(1, 0, 0, 0))
        assert balancer.initial_policy is WritePolicy.WB
        assert decision == PolicyDecision(WritePolicy.WB)  # no bypass requested

    def test_lbica_reverts_outside_bursts(self):
        # without a bottleneck every class reverts to WB, unclassified
        # and without a bypass
        for klass, mix in CLASS_MIXES.items():
            assert classify(RatioVector.from_counts(*mix), THETA_DOM) is klass
        balancer = LbicaBalancer(THETA_DOM)
        for mix in CLASS_MIXES.values():
            decision = balancer.tick(make_stats(1, 100, 1, 5000), RatioVector.from_counts(*mix))
            assert decision == PolicyDecision(WritePolicy.WB)

    def test_lbica_assigns_wo_on_read_heavy_burst(self):
        balancer = LbicaBalancer(THETA_DOM)
        ratios = RatioVector.from_counts(30, 0, 30, 0)
        decision = balancer.tick(make_stats(60, 100, 1, 5000), ratios)
        assert decision.policy is WritePolicy.WO
        assert decision.klass is WorkloadClass.RANDOM_READ
        assert decision.bypass_depth == 0

    def test_lbica_bypasses_write_heavy_burst(self):
        balancer = LbicaBalancer(THETA_DOM)
        ratios = RatioVector.from_counts(0, 60, 0, 0)
        decision = balancer.tick(make_stats(60, 100, 1, 5000), ratios)
        assert decision.policy is WritePolicy.WB
        assert decision.klass is WorkloadClass.RANDOM_WRITE
        assert decision.bypass_depth == 1  # requested depth for this state

    def test_sib_locks_write_through_and_never_changes_it(self):
        balancer = SibBalancer(THETA_DOM)
        decision = balancer.tick(make_stats(60, 100, 1, 5000), RatioVector.from_counts(0, 1, 0, 0))
        assert balancer.initial_policy is WritePolicy.WT
        assert decision.policy is WritePolicy.WT
        assert decision.bypass_depth == 1

    def test_sib_idle_tick_skips_queue_surgery(self):
        balancer = SibBalancer(THETA_DOM)
        decision = balancer.tick(make_stats(1, 100, 1, 5000), RatioVector.from_counts(0, 1, 0, 0))
        assert decision.bypass_depth == 0

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=10_000),
    )
    @example(1, 100, 0, 1)  # a lone in-service request never moves
    def test_sib_requests_the_scan_oracle_depth(self, s, ls, h, lh):
        depth = sib_scan_oracle(s, ls, h, lh)
        assert sib_requested_depth(s, ls, h, lh) == depth
        assert depth <= max(s - 1, 0)  # the in-service request never moves
        if s * ls <= h * lh:
            assert depth == 0


def sib_requested_depth(s, ls, h, lh):
    """The bypass depth ``SibBalancer.tick`` requests for this queue state."""
    stats = make_stats(s, ls, h, lh)
    return SibBalancer(THETA_DOM).tick(stats, RatioVector.from_counts(0, 0, 0, 0)).bypass_depth


class TestSibScanDepth:
    def test_balanced_queues_bypass_nothing(self):
        assert sib_requested_depth(10, 100, 1, 5000) == 0

    def test_imbalanced_queue_bypasses_until_the_inequality_flips(self):
        assert sib_requested_depth(60, 100, 1, 5000) == sib_scan_oracle(60, 100, 1, 5000) == 1

    def test_lockstep_queues_never_bypass(self):
        # mirrored write-through queues: equal depths, equal latencies
        assert sib_requested_depth(300, 100, 300, 100) == 0

    def test_in_service_position_is_never_bypassed(self):
        # disk estimate of zero would otherwise drain the whole queue
        assert sib_requested_depth(5, 100, 0, 1) == 4


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_balancer("none-wb", THETA_DOM), WriteBackBaseline)
        assert isinstance(make_balancer("lbica", THETA_DOM), LbicaBalancer)
        assert isinstance(make_balancer("sib", THETA_DOM), SibBalancer)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_balancer("round-robin", THETA_DOM)
