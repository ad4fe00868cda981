"""Cache coherence, measured: the version oracle's counts per pair and per path.

The modelled cache is not coherent yet. Metadata is committed when an
access is planned, and three paths later undo or reorder the data
movement without touching it (see ``VersionOracle`` in conftest for how
each count is charged):

* ``buffered_write``: a bypassed WB or WO write reaches the disk while
  its block stays dirty in the cache, so the block's later write-back
  puts an older copy over it;
* ``wt_half``: a bypassed write-through cache half is resubmitted to
  the disk, which its mirror already wrote, and lands after a newer
  write to the same block;
* ``dropped_promotion`` and ``late_promotion``: a read miss reserves
  its block, and the promotion that would fill it is dropped, or enters
  the cache queue only after the block was evicted again; the read hits
  served in between read a block that never reached the cache.

The oracle also counts early hits apart: read hits the cache serves
before the first install of their residency completes, such as a hit
queued while its block's promotion still waits for its disk read.

The counts are pinned, so a change that moves one shows here; a fix to a
path sets its counts to 0 in the same change.
"""

import io
import sys

import pytest

from lbicasim import EventLog, RunConfig, Simulation
from lbicasim.balancer import BALANCERS
from lbicasim.cache import WritePolicy
from lbicasim.engine import Origin

from conftest import SCENARIOS, VersionOracle, read_events, schedule_of

# per pair, the paths the oracle charges; every other path counts 0
PINNED = {
    ("random_read", "sib"): {"dropped_promotion": 1076, "late_promotion": 1251},
    ("mixed_rw", "sib"): {"wt_half": 2258, "dropped_promotion": 23},
    ("write_intensive", "lbica"): {"buffered_write": 421},
    ("read_then_write", "lbica"): {"buffered_write": 529, "dropped_promotion": 131},
    ("read_then_write", "sib"): {"wt_half": 48, "dropped_promotion": 519, "late_promotion": 457},
}

# per pair, the oracle's early hits; every other pair has none
EARLY_HITS = {
    ("random_read", "none-wb"): 173,
    ("random_read", "lbica"): 1,
    ("random_read", "sib"): 3964,
    ("mixed_rw", "sib"): 23,
    ("read_then_write", "none-wb"): 77,
    ("read_then_write", "lbica"): 185,
    ("read_then_write", "sib"): 1812,
}


def expected(pair):
    return {**dict.fromkeys(VersionOracle.PATHS, 0), **PINNED.get(pair, {})}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("balancer", BALANCERS)
def test_the_oracle_counts_are_pinned_per_pair_and_path(runs, scenario, balancer):
    replay = runs(scenario, balancer).replay
    assert replay.counts == expected((scenario, balancer))
    assert replay.early_hits == EARLY_HITS.get((scenario, balancer), 0)


def test_the_oracle_counts_are_pinned_on_read_then_write(runs):
    counts = {b: runs("read_then_write", b).replay.counts for b in BALANCERS}
    assert counts == {b: expected(("read_then_write", b)) for b in BALANCERS}


@pytest.mark.parametrize("balancer", BALANCERS)
def test_the_early_hits_are_pinned_on_read_then_write(runs, balancer):
    early_hits = runs("read_then_write", balancer).replay.early_hits
    assert early_hits == EARLY_HITS.get(("read_then_write", balancer), 0)


def small_run(schedule, cache_blocks, drive):
    """Run ``schedule`` through ``drive(sim)``; the oracle's nonzero counts over its log.

    Early hits count under ``early_hits``.
    """
    config = RunConfig(cache_blocks=cache_blocks, phases=())  # SSD 100us, HDD 5000us
    buffer = io.StringIO()
    sim = Simulation(config, schedule, events=EventLog(buffer, config.scenario_hash()))
    sim.set_policy(sim.balancer.initial_policy)
    drive(sim)
    assert sim.sim.step(sys.maxsize) is False
    oracle = VersionOracle(cache_blocks)
    oracle.replay(read_events(buffer)[1])
    counts = {**oracle.counts, "early_hits": oracle.early_hits}
    return {path: n for path, n in counts.items() if n}


def test_a_bypassed_buffered_write_makes_the_later_write_back_stale():
    # two writes to block 1, the second bypassed to the disk; block 2's
    # write then evicts block 1, whose write-back carries the first
    # version over the second
    schedule = schedule_of([(0, 1, Origin.W), (0, 1, Origin.W), (100, 2, Origin.W)])

    def drive(sim):
        sim.sim.step(0)
        assert sim.bypass_tail(1) == 1

    assert small_run(schedule, 1, drive) == {"buffered_write": 1}


def test_a_hit_on_a_block_whose_promotion_is_dropped_is_a_phantom():
    # a read miss, then a hit on its block that the cache serves while the
    # disk read is in flight; the policy turns write-only before it lands
    schedule = schedule_of([(0, 1, Origin.R), (10, 1, Origin.R)])

    def drive(sim):
        sim.sim.step(10)
        sim.set_policy(WritePolicy.WO)

    # its residency is never installed, so the phantom hit is also early
    assert small_run(schedule, 4, drive) == {"dropped_promotion": 1, "early_hits": 1}


def test_a_hit_queued_before_its_blocks_promotion_is_early():
    # the hit enters the cache queue at 10 and is served at 110; the
    # miss's promotion enters it only when the disk read ends, at 5 000
    schedule = schedule_of([(0, 1, Origin.R), (10, 1, Origin.R)])
    assert small_run(schedule, 4, lambda sim: None) == {"early_hits": 1}
