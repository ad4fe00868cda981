"""Output digests of a run that exercises how the runner applies decisions.

The golden digests cover the committed scenarios, and none of them has a
tick that bypasses and also switches policy, or one that asks for a
deeper bypass than the waiting queue holds. ``scenarios/read_then_write.cfg``
under lbica has both. The tests check that both happen, then compare the
outputs byte for byte, so applying the policy before the bypass,
recording the requested depth as moved, or miscounting the queue after a
clamped ``remove_tail`` changes a digest.
"""

import hashlib
import json

import pytest

from lbicasim import load_config, write_run

from conftest import READ_THEN_WRITE

OUTPUT_FILES = ("intervals.csv", "summary.csv", "events.log")
DIGESTS = {
    "events.log": "288d1b72851ffa566bfd5ba34d9782b216a45d2cb33a914624a737c32c9a85fc",
    "intervals.csv": "fe694ae0289a4c49d405f804435652198de98d966ece34b84b934f3f4bb2e1dc",
    "summary.csv": "f322980f80152e3ffdb3d568204619d0efc2cfdb38d8ae224ab5668c1fdb3b07",
}


@pytest.fixture(scope="module")
def applied_run(read_then_write, tmp_path_factory):
    """The lbica run, each tick's policy before it, its decision, and the run directory."""
    run = read_then_write(load_config(READ_THEN_WRITE).balancer)
    out_dir = tmp_path_factory.mktemp("read_then_write")
    (out_dir / "events.log").write_bytes(run.log.encode())
    write_run(run.result, out_dir)
    return run.result, run.ticks, out_dir


def test_a_tick_bypasses_and_switches_policy(applied_run):
    result, ticks, _ = applied_run
    switched = [
        row.interval_index
        for row, (before, decision) in zip(result.rows, ticks)
        if row.bypassed > 0 and decision.policy is not before
    ]
    assert switched


def test_a_tick_asks_for_more_than_the_waiting_queue_holds(applied_run):
    result, ticks, _ = applied_run
    clamped = [
        row.interval_index
        for row, (_before, decision) in zip(result.rows, ticks)
        if decision.bypass_depth > row.bypassed
    ]
    assert clamped


def test_outputs_match_digests(applied_run):
    _result, _ticks, out_dir = applied_run
    actual = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES
    }
    assert actual == DIGESTS, "outputs changed; actual digests:\n" + json.dumps(
        actual, indent=2, sort_keys=True
    )
