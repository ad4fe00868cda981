"""Cache policy semantics, counters, and access planning against the cache replica."""

from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbicasim.cache import CacheEngine, WritePolicy
from lbicasim.engine import DeviceRole, Origin

from conftest import CacheReplica

SSD, HDD = DeviceRole.SSD, DeviceRole.HDD
ORIGINS = list(Origin)

# a planned request, its fields read back from the engine's request table
Planned = namedtuple("Planned", "id origin target lba arrival app")


def make_engine(capacity=4, policy=WritePolicy.WB):
    return CacheEngine(capacity, policy=policy)


def planned(engine, req, target):
    """Cache request ``req`` (an id, or None) as the engine created it, routed to ``target``."""
    if req is None:
        return None
    arrival, lba, app = engine.requests.live[req]
    return Planned(req, ORIGINS[engine.requests.origin[req]], target, lba, arrival, app)


def submit_order(engine, row, lba, is_read, now, before, target, after):
    """What ``access`` plans to submit at once, in order: ``before``, the row, ``after``.

    The row is shown as the request it stands for, routed to ``target``;
    ``before`` and ``after`` go to the disk, as the runner routes them.
    """
    access = Planned(row, Origin.R if is_read else Origin.W, target, lba, now, row)
    requests = (planned(engine, before, HDD), access, planned(engine, after, HDD))
    return tuple(r for r in requests if r is not None)


def access(engine, row, lba, is_read, now=0):
    """Plan schedule row ``row``'s access: ``(immediate, promotion, foreground)``."""
    before, target, after, promotion, foreground = engine.access(row, lba, is_read, now)
    immediate = submit_order(engine, row, lba, is_read, now, before, target, after)
    return immediate, planned(engine, promotion, SSD), foreground


def read(engine, req_id, lba, now=0):
    return access(engine, req_id, lba, True, now)


def write(engine, req_id, lba, now=0):
    return access(engine, req_id, lba, False, now)


def shapes(immediate):
    """(origin, target) of every immediate submission, in submit order."""
    return [(r.origin, r.target) for r in immediate]


class TestReadPaths:
    def test_hit_is_one_cache_read(self):
        engine = make_engine()
        read(engine, 1, lba=7)
        immediate, promotion, _ = read(engine, 2, lba=7)
        assert shapes(immediate) == [(Origin.R, DeviceRole.SSD)]
        assert promotion is None

    def test_miss_fetches_from_disk_and_defers_promotion(self):
        engine = make_engine()
        immediate, promote, _ = read(engine, 1, lba=7)
        assert shapes(immediate) == [(Origin.R, DeviceRole.HDD)]
        assert promote is not None
        assert promote.origin is Origin.P
        assert promote.origin.op == "write"
        assert promote.target is DeviceRole.SSD

    def test_miss_on_full_cache_evicts_dirty_victim_first(self):
        engine = make_engine(capacity=1)
        write(engine, 1, lba=5)  # resident and dirty under WB
        immediate, promotion, _ = read(engine, 2, lba=9)
        assert shapes(immediate) == [(Origin.R, DeviceRole.HDD), (Origin.E, DeviceRole.HDD)]
        assert promotion.origin is Origin.P

    def test_wo_miss_is_disk_only(self):
        engine = make_engine(policy=WritePolicy.WO)
        immediate, promotion, _ = read(engine, 1, lba=7)
        assert shapes(immediate) == [(Origin.R, DeviceRole.HDD)]
        assert promotion is None
        assert engine.resident_lbas() == []


class TestWritePaths:
    def test_wb_write_buffers_and_dirties(self):
        engine = make_engine()
        immediate, _, _ = write(engine, 1, lba=3)
        assert shapes(immediate) == [(Origin.W, DeviceRole.SSD)]
        assert engine.dirty_lbas() == {3}

    def test_wo_write_buffers_like_wb(self):
        engine = make_engine(policy=WritePolicy.WO)
        immediate, _, _ = write(engine, 1, lba=3)
        assert shapes(immediate) == [(Origin.W, DeviceRole.SSD)]
        assert engine.dirty_lbas() == {3}

    def test_wt_write_mirrors_to_disk_with_dual_foreground(self):
        engine = make_engine(policy=WritePolicy.WT)
        immediate, _, foreground = write(engine, 1, lba=3, now=40)
        assert shapes(immediate) == [(Origin.W, DeviceRole.SSD), (Origin.W, DeviceRole.HDD)]
        assert foreground == 2
        mirror = immediate[1]  # carries the access's app id and arrival
        assert (mirror.app, mirror.arrival) == (1, 40)
        assert engine.dirty_lbas() == set()

    def test_wt_write_over_dirty_block_cleans_it(self):
        engine = make_engine()
        write(engine, 1, lba=3)
        engine.policy = WritePolicy.WT
        write(engine, 2, lba=3)
        assert 3 in engine.resident_lbas()
        assert engine.dirty_lbas() == set()

    def test_ro_write_bypasses_to_disk(self):
        engine = make_engine(policy=WritePolicy.RO)
        immediate, _, _ = write(engine, 1, lba=3)
        assert shapes(immediate) == [(Origin.W, DeviceRole.HDD)]
        assert engine.resident_lbas() == []

    def test_ro_write_invalidates_clean_copy_silently(self):
        engine = make_engine()
        read(engine, 1, lba=3)
        engine.policy = WritePolicy.RO
        immediate, _, _ = write(engine, 2, lba=3)
        assert shapes(immediate) == [(Origin.W, DeviceRole.HDD)]
        assert 3 not in engine.resident_lbas()

    def test_ro_write_over_dirty_copy_writes_back_first(self):
        engine = make_engine()
        write(engine, 1, lba=3)  # dirty under WB
        engine.policy = WritePolicy.RO
        immediate, _, _ = write(engine, 2, lba=3)
        assert shapes(immediate) == [(Origin.E, DeviceRole.HDD), (Origin.W, DeviceRole.HDD)]
        assert 3 not in engine.resident_lbas()


class TestEviction:
    def test_clean_victim_leaves_silently(self):
        engine = make_engine(capacity=2)
        read(engine, 1, lba=5, now=1)
        read(engine, 2, lba=9, now=2)
        write(engine, 3, lba=9, now=3)  # lba 9 dirty, lba 5 least recent
        immediate, _, _ = read(engine, 4, lba=7, now=4)  # a miss on the full cache
        assert shapes(immediate) == [(Origin.R, DeviceRole.HDD)]
        assert engine.resident_lbas() == [9, 7]
        assert engine.dirty_writebacks == 0

    def test_dirty_victim_writes_back(self):
        engine = make_engine(capacity=2)
        write(engine, 1, lba=9, now=1)
        read(engine, 2, lba=5, now=2)  # lba 9 least recent and dirty
        immediate, _, _ = read(engine, 3, lba=7, now=3)  # a miss on the full cache
        assert shapes(immediate) == [(Origin.R, DeviceRole.HDD), (Origin.E, DeviceRole.HDD)]
        writeback = immediate[1]
        assert (writeback.lba, writeback.arrival) == (9, 3)
        assert engine.resident_lbas() == [5, 7]
        assert engine.dirty_writebacks == 1

    def test_retouched_block_survives_eviction(self):
        # touch 1, touch 2, touch 1, insert 3 on capacity 2 -> victim is 2
        engine = make_engine(capacity=2)
        read(engine, 1, lba=1, now=1)
        read(engine, 2, lba=2, now=2)
        read(engine, 3, lba=1, now=3)
        read(engine, 4, lba=3, now=4)
        assert engine.resident_lbas() == [1, 3]


class TestSetPolicy:
    def test_switch_preserves_residency_and_dirty_bits(self):
        engine = make_engine()
        for i, lba in enumerate((1, 2, 3)):
            write(engine, i, lba=lba)
        engine.policy = WritePolicy.WO
        assert engine.policy is WritePolicy.WO
        assert engine.dirty_lbas() == {1, 2, 3}

    def test_switch_back_resumes_promotion(self):
        engine = make_engine(policy=WritePolicy.WO)
        _, promotion, _ = read(engine, 1, lba=7)
        assert promotion is None
        engine.policy = WritePolicy.WB
        _, promotion, _ = read(engine, 2, lba=8)
        assert promotion.origin is Origin.P

    def test_idempotent_switch(self):
        engine = make_engine()
        read(engine, 1, lba=7)
        before = (engine.policy, engine.resident_lbas(), engine.dirty_lbas())
        engine.policy = WritePolicy.WB
        assert (engine.policy, engine.resident_lbas(), engine.dirty_lbas()) == before


class TestContracts:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CacheEngine(0)

    def test_occupancy_never_exceeds_capacity(self):
        engine = make_engine(capacity=3)
        for i in range(20):
            read(engine, i, lba=i, now=i)
            assert len(engine.resident_lbas()) <= 3


def test_read_hit_miss_counters():
    engine = make_engine(capacity=2)
    read(engine, 1, lba=1)
    read(engine, 2, lba=1)
    read(engine, 3, lba=2)
    assert (engine.read_hits, engine.read_misses) == (1, 2)


def documented_plan(policy, is_read, lba, hit, writeback_lba):
    """What ``access`` documents for one access: shapes, promotion, foreground.

    ``writeback_lba`` is the block an eviction or RO invalidation writes
    back, or None. Under WT and RO the write-back precedes the cache
    write; under WB, WO and on a read miss it follows the access itself.
    """
    writeback = [(Origin.E, HDD, writeback_lba)] if writeback_lba is not None else []
    if is_read:
        if hit:
            return [(Origin.R, SSD, lba)], False, 1
        return [(Origin.R, HDD, lba), *writeback], policy is not WritePolicy.WO, 1
    if policy is WritePolicy.RO:
        return [*writeback, (Origin.W, HDD, lba)], False, 1
    if policy is WritePolicy.WT:
        return [*writeback, (Origin.W, SSD, lba), (Origin.W, HDD, lba)], False, 2
    return [(Origin.W, SSD, lba), *writeback], False, 1


cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("write"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("policy"), st.sampled_from(list(WritePolicy))),
    ),
    max_size=80,
)


@settings(derandomize=True, max_examples=300)
@given(st.integers(min_value=1, max_value=4), cache_ops)
def test_access_matches_the_replica_and_its_documented_submit_order(capacity, ops):
    engine = CacheEngine(capacity)
    replica = CacheReplica(capacity)
    for step, (kind, arg) in enumerate(ops):
        if kind == "policy":
            engine.policy = arg
            replica.policy = arg.value
            continue
        lba, is_read = arg, kind == "read"
        hit = lba in replica.order
        victim = replica.order[0] if replica.order else None
        writebacks = replica.evict_writes
        (replica.read if is_read else replica.write)(lba)
        writeback_lba = None
        if replica.evict_writes > writebacks:
            # an RO write invalidates its own block; anything else evicts the LRU
            ro_write = not is_read and engine.policy is WritePolicy.RO
            writeback_lba = lba if ro_write else victim

        first_id = len(engine.requests.origin)
        before, target, after, promotion, foreground = engine.access(step, lba, is_read, step)
        immediate = submit_order(engine, step, lba, is_read, step, before, target, after)

        shapes, promotes, expected_foreground = documented_plan(
            engine.policy, is_read, lba, hit, writeback_lba
        )
        assert [(r.origin, r.target, r.lba) for r in immediate] == shapes
        assert foreground == expected_foreground
        assert (promotion is not None) == promotes
        if promotion is not None:
            promoted = planned(engine, promotion, SSD)
            assert (promoted.origin, promoted.lba, promoted.app) == (Origin.P, lba, -1)
        # cache request ids are drawn in submit order, the deferred promotion
        # last, each the next id of the engine's table
        aux_ids = [r for r in (before, after, promotion) if r is not None]
        assert aux_ids == list(range(first_id, len(engine.requests.origin)))

        assert engine.resident_lbas() == replica.order
        assert engine.dirty_lbas() == replica.dirty
        assert engine.read_hits == replica.read_hits
        assert engine.dirty_writebacks == replica.evict_writes
