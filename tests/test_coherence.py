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

The counts are pinned, so a change that moves one shows here; a fix to a
path sets its counts to 0 in the same change.
"""

import csv
import io
import sys
from pathlib import Path

import pytest

from lbicasim import EventLog, RunConfig, Simulation, load_config, run_simulation
from lbicasim.balancer import BALANCERS
from lbicasim.cache import WritePolicy
from lbicasim.engine import Origin

from conftest import SCENARIOS, VersionOracle, schedule_of

READ_THEN_WRITE = Path(__file__).with_name("scenarios") / "read_then_write.cfg"

# per pair, the paths the oracle charges; every other path counts 0
PINNED = {
    ("random_read", "sib"): {"dropped_promotion": 1076, "late_promotion": 1251},
    ("mixed_rw", "sib"): {"wt_half": 2258, "dropped_promotion": 23},
    ("write_intensive", "lbica"): {"buffered_write": 421},
    ("read_then_write", "lbica"): {"buffered_write": 529, "dropped_promotion": 131},
}


def expected(pair):
    return {**dict.fromkeys(VersionOracle.PATHS, 0), **PINNED.get(pair, {})}


def replayed(text, cache_blocks):
    """The oracle's counts over an ``events.log`` held in ``text``."""
    with io.StringIO(text) as fh:
        fh.readline()  # "# scenario=..." header
        return VersionOracle(cache_blocks).replay(csv.DictReader(fh))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("balancer", BALANCERS)
def test_the_oracle_counts_are_pinned_per_pair_and_path(scenario_replays, scenario, balancer):
    assert scenario_replays[(scenario, balancer)].counts == expected((scenario, balancer))


def test_the_oracle_counts_are_pinned_on_read_then_write():
    config = load_config(READ_THEN_WRITE)
    buffer = io.StringIO()
    run_simulation(config, events=EventLog(buffer, config.scenario_hash()))
    counts = replayed(buffer.getvalue(), config.cache_blocks)
    assert counts == expected(("read_then_write", config.balancer))


def small_run(schedule, cache_blocks, drive):
    """Run ``schedule`` through ``drive(sim)``; the oracle's counts over its log."""
    config = RunConfig(cache_blocks=cache_blocks, phases=())  # SSD 100us, HDD 5000us
    buffer = io.StringIO()
    sim = Simulation(config, schedule, events=EventLog(buffer, config.scenario_hash()))
    sim.set_policy(sim.balancer.initial_policy)
    drive(sim)
    assert sim.sim.step(sys.maxsize) is False
    counts = replayed(buffer.getvalue(), cache_blocks)
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

    assert small_run(schedule, 4, drive) == {"dropped_promotion": 1}
