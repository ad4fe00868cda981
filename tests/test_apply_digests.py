"""A run that exercises how the runner applies decisions.

None of the committed scenarios has a tick that bypasses and also
switches policy, or one that asks for a deeper bypass than the waiting
queue holds. ``tests/scenarios/read_then_write.cfg`` under lbica has
both. These tests check that both happen; its outputs are pinned in
``golden_digests.json`` with every other pair's, so applying the policy
before the bypass, recording the requested depth as moved, or
miscounting the queue after a clamped ``remove_tail`` changes a digest.
"""


def test_a_tick_bypasses_and_switches_policy(runs):
    run = runs("read_then_write", "lbica")
    switched = [
        row.interval_index
        for row, (before, decision) in zip(run.result.rows, run.ticks)
        if row.bypassed > 0 and decision.policy is not before
    ]
    assert switched


def test_a_tick_asks_for_more_than_the_waiting_queue_holds(runs):
    run = runs("read_then_write", "lbica")
    clamped = [
        row.interval_index
        for row, (_before, decision) in zip(run.result.rows, run.ticks)
        if decision.bypass_depth > row.bypassed
    ]
    assert clamped
