"""Cache policy semantics and LRU equivalence against a brute-force oracle."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbicasim.cache import CacheEngine, WritePolicy
from lbicasim.engine import DeviceRole, IoRequest, OpType, Origin


def make_engine(capacity=4, policy=WritePolicy.WB):
    return CacheEngine(capacity, policy=policy)


def app_request(req_id, lba, op, arrival=0):
    origin = Origin.R if op is OpType.READ else Origin.W
    return IoRequest(id=req_id, arrival=arrival, lba=lba, op=op, origin=origin, app_id=req_id)


def read(engine, req_id, lba, now=0):
    return engine.access(app_request(req_id, lba, OpType.READ, arrival=now), now)


def write(engine, req_id, lba, now=0):
    return engine.access(app_request(req_id, lba, OpType.WRITE, arrival=now), now)


def shapes(plan):
    """(origin, target) of every immediate submission, in plan order."""
    return [(r.origin, r.target) for r in plan.immediate]


class TestReadPaths:
    def test_hit_is_one_cache_read(self):
        engine = make_engine()
        read(engine, 1, lba=7)
        plan = read(engine, 2, lba=7)
        assert shapes(plan) == [(Origin.R, DeviceRole.SSD)]
        assert plan.promotion is None

    def test_miss_fetches_from_disk_and_defers_promotion(self):
        engine = make_engine()
        plan = read(engine, 1, lba=7)
        assert shapes(plan) == [(Origin.R, DeviceRole.HDD)]
        promote = plan.promotion
        assert promote is not None
        assert promote.origin is Origin.P
        assert promote.op is OpType.WRITE
        assert promote.target is DeviceRole.SSD

    def test_miss_on_full_cache_evicts_dirty_victim_first(self):
        engine = make_engine(capacity=1)
        write(engine, 1, lba=5)  # resident and dirty under WB
        plan = read(engine, 2, lba=9)
        assert shapes(plan) == [(Origin.R, DeviceRole.HDD), (Origin.E, DeviceRole.HDD)]
        assert plan.promotion.origin is Origin.P

    def test_wo_miss_is_disk_only(self):
        engine = make_engine(policy=WritePolicy.WO)
        plan = read(engine, 1, lba=7)
        assert shapes(plan) == [(Origin.R, DeviceRole.HDD)]
        assert plan.promotion is None
        assert engine.occupancy == 0


class TestWritePaths:
    def test_wb_write_buffers_and_dirties(self):
        engine = make_engine()
        plan = write(engine, 1, lba=3)
        assert shapes(plan) == [(Origin.W, DeviceRole.SSD)]
        assert engine.dirty_lbas() == {3}

    def test_wo_write_buffers_like_wb(self):
        engine = make_engine(policy=WritePolicy.WO)
        plan = write(engine, 1, lba=3)
        assert shapes(plan) == [(Origin.W, DeviceRole.SSD)]
        assert engine.dirty_lbas() == {3}

    def test_wt_write_mirrors_to_disk_with_dual_foreground(self):
        engine = make_engine(policy=WritePolicy.WT)
        plan = write(engine, 1, lba=3)
        assert shapes(plan) == [(Origin.W, DeviceRole.SSD), (Origin.W, DeviceRole.HDD)]
        assert plan.foreground == 2
        assert engine.dirty_lbas() == set()

    def test_wt_write_over_dirty_block_cleans_it(self):
        engine = make_engine()
        write(engine, 1, lba=3)
        engine.set_policy(WritePolicy.WT)
        write(engine, 2, lba=3)
        assert engine.resident(3)
        assert engine.dirty_lbas() == set()

    def test_ro_write_bypasses_to_disk(self):
        engine = make_engine(policy=WritePolicy.RO)
        plan = write(engine, 1, lba=3)
        assert shapes(plan) == [(Origin.W, DeviceRole.HDD)]
        assert engine.occupancy == 0

    def test_ro_write_invalidates_clean_copy_silently(self):
        engine = make_engine()
        read(engine, 1, lba=3)
        engine.set_policy(WritePolicy.RO)
        plan = write(engine, 2, lba=3)
        assert shapes(plan) == [(Origin.W, DeviceRole.HDD)]
        assert not engine.resident(3)

    def test_ro_write_over_dirty_copy_writes_back_first(self):
        engine = make_engine()
        write(engine, 1, lba=3)  # dirty under WB
        engine.set_policy(WritePolicy.RO)
        plan = write(engine, 2, lba=3)
        assert shapes(plan) == [(Origin.E, DeviceRole.HDD), (Origin.W, DeviceRole.HDD)]
        assert not engine.resident(3)


class TestEviction:
    def test_clean_victim_leaves_silently(self):
        engine = make_engine(capacity=2)
        read(engine, 1, lba=5, now=1)
        read(engine, 2, lba=9, now=2)
        write(engine, 3, lba=9, now=3)  # lba 9 dirty, lba 5 least recent
        victim, writeback = engine.evict_victim(now=4)
        assert victim == 5
        assert writeback is None

    def test_dirty_victim_writes_back(self):
        engine = make_engine(capacity=2)
        write(engine, 1, lba=9, now=1)
        read(engine, 2, lba=5, now=2)  # lba 9 least recent and dirty
        victim, writeback = engine.evict_victim(now=3)
        assert victim == 9
        assert writeback is not None
        assert (writeback.origin, writeback.target, writeback.lba) == (
            Origin.E,
            DeviceRole.HDD,
            9,
        )

    def test_retouched_block_survives_eviction(self):
        # touch 1, touch 2, touch 1, insert 3 on capacity 2 -> victim is 2
        engine = make_engine(capacity=2)
        read(engine, 1, lba=1, now=1)
        read(engine, 2, lba=2, now=2)
        read(engine, 3, lba=1, now=3)
        read(engine, 4, lba=3, now=4)
        assert engine.resident(1) and engine.resident(3)
        assert not engine.resident(2)

    def test_eviction_requires_a_full_cache(self):
        engine = make_engine(capacity=2)
        read(engine, 1, lba=1)
        with pytest.raises(ValueError):
            engine.evict_victim(now=1)


class TestSetPolicy:
    def test_switch_preserves_residency_and_dirty_bits(self):
        engine = make_engine()
        for i, lba in enumerate((1, 2, 3)):
            write(engine, i, lba=lba)
        engine.set_policy(WritePolicy.WO)
        assert engine.policy is WritePolicy.WO
        assert engine.dirty_lbas() == {1, 2, 3}

    def test_switch_back_resumes_promotion(self):
        engine = make_engine(policy=WritePolicy.WO)
        plan = read(engine, 1, lba=7)
        assert plan.promotion is None
        engine.set_policy(WritePolicy.WB)
        plan = read(engine, 2, lba=8)
        assert plan.promotion.origin is Origin.P

    def test_idempotent_switch(self):
        engine = make_engine()
        read(engine, 1, lba=7)
        before = (engine.policy, engine.resident_lbas(), engine.dirty_lbas())
        engine.set_policy(WritePolicy.WB)
        assert (engine.policy, engine.resident_lbas(), engine.dirty_lbas()) == before


class TestContracts:
    def test_cache_traffic_origins_rejected(self):
        engine = make_engine()
        promo = IoRequest(id=1, arrival=0, lba=1, op=OpType.WRITE, origin=Origin.P)
        with pytest.raises(ValueError):
            engine.access(promo, now=0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CacheEngine(0)

    def test_occupancy_never_exceeds_capacity(self):
        engine = make_engine(capacity=3)
        for i in range(20):
            read(engine, i, lba=i, now=i)
            assert engine.occupancy <= 3


class LruOracle:
    """Independent list-based LRU: index 0 is the victim."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []

    def touch(self, lba):
        """Access one block; returns whether it was a hit."""
        if lba in self.order:
            self.order.remove(lba)
            self.order.append(lba)
            return True
        if len(self.order) == self.capacity:
            self.order.pop(0)
        self.order.append(lba)
        return False


def replay_against_oracle(capacity, accesses):
    """Drive engine and oracle in lockstep; returns per-access hit flags."""
    engine = make_engine(capacity=capacity)
    oracle = LruOracle(capacity)
    engine_hits = []
    oracle_hits = []
    for step, (lba, is_read) in enumerate(accesses):
        engine_hits.append(engine.resident(lba))
        oracle_hits.append(oracle.touch(lba))
        op = OpType.READ if is_read else OpType.WRITE
        engine.access(app_request(step, lba, op, arrival=step), now=step)
    assert engine.resident_lbas() == oracle.order  # same blocks, same recency order
    return engine_hits, oracle_hits


@given(
    st.integers(min_value=1, max_value=16),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=48), st.booleans()),
        max_size=200,
    ),
)
def test_lru_equivalence_property(capacity, accesses):
    engine_hits, oracle_hits = replay_against_oracle(capacity, accesses)
    assert engine_hits == oracle_hits


def test_read_hit_miss_counters():
    engine = make_engine(capacity=2)
    read(engine, 1, lba=1)
    read(engine, 2, lba=1)
    read(engine, 3, lba=2)
    assert (engine.read_hits, engine.read_misses) == (1, 2)


def test_dirty_episode_accounting_small_scale():
    """Every dirtied block ends resident or with exactly one writeback."""
    rng = random.Random(99)
    engine = make_engine(capacity=4)
    evictions = []
    for step in range(400):
        lba = rng.randrange(12)
        if rng.random() < 0.5:
            plan = write(engine, step, lba, now=step)
        else:
            plan = read(engine, step, lba, now=step)
        evictions.extend(r for r in plan.immediate if r.origin is Origin.E)
    assert engine.dirty_writebacks == len(evictions)
    # engine-reported writebacks all target the disk
    assert all(r.target is DeviceRole.HDD for r in evictions)
