"""Acceptance gate: ten criteria covering equations, fixtures, and full runs.

Each test is one criterion; the `pytest -v` status line is the pass/fail
line, and every test also prints a one-line result with the measured
values. Full-run criteria read the session-cached runs of conftest's
``runs`` fixture, and their event logs' cached replays.
"""

import itertools
import random
import time
from statistics import fmean

import pytest

from lbicasim import EventLog, Simulation, build_requests, load_config
from lbicasim.balancer import (
    BALANCERS,
    TAIL_CUT_CLASSES,
    RatioVector,
    WorkloadClass,
    assign_policy,
    classify,
    compute_bypass_depth,
)
from lbicasim.cache import CacheEngine, WritePolicy
from lbicasim.engine import DeviceRole
from lbicasim.runner import EVENT_COLUMNS

from conftest import (
    CONFIGS,
    SCENARIOS,
    CacheReplica,
    VersionOracle,
    burst_window_indices,
    logged_run,
    make_stats,
    read_events,
)


def report(criterion, detail):
    print(f"criterion {criterion:02d}: PASS - {detail}")


# ----------------------------------------------------------------------
# criterion 1: queue-time equation, exact integer products


def test_criterion_01_queue_time_equation_exact():
    rng = random.Random(0xC1)
    started = time.monotonic()
    for _ in range(1000):
        s, h = rng.randrange(0, 1_000_000), rng.randrange(0, 1_000_000)
        ls, lh = rng.randrange(1, 100_000), rng.randrange(1, 100_000)
        stats = make_stats(s, ls, h, lh)
        assert (stats.cache_qtime, stats.disk_qtime) == (s * ls, h * lh)  # zero tolerance
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, f"1000 random queue states, exact products, {elapsed * 1000:.0f}ms")


# ----------------------------------------------------------------------
# criterion 2: published in-queue mixes classify and map to the right policy


CLASSIFICATION_FIXTURES = [
    # (r, w, p, e) observed mix, expected class, policy under burst, tail bypass
    ((0.44, 0.022, 0.51, 0.028), WorkloadClass.RANDOM_READ, WritePolicy.WO, False),
    ((0.139, 0.704, 0.039, 0.118), WorkloadClass.MIXED_READ_WRITE, WritePolicy.RO, False),
    ((0.05, 0.60, 0.05, 0.30), WorkloadClass.RANDOM_WRITE, WritePolicy.WB, True),
    ((0.179, 0.638, 0.079, 0.104), WorkloadClass.MIXED_READ_WRITE, WritePolicy.RO, False),
]


def test_criterion_02_reference_mixes_classify_exactly():
    for vector, expected_class, expected_policy, expected_bypass in CLASSIFICATION_FIXTURES:
        klass = classify(RatioVector(*vector), theta_dom=0.8)
        assert klass is expected_class, vector
        decision = assign_policy(klass)
        assert decision.policy is expected_policy, vector
        assert (klass in TAIL_CUT_CLASSES) is expected_bypass, vector
    report(2, f"{len(CLASSIFICATION_FIXTURES)} reference mixes, zero tolerance")


# ----------------------------------------------------------------------
# criterion 3: zero-traffic guarantees while WO / RO are active


def test_criterion_03_policy_zero_traffic_guarantees(runs):
    wo = runs("random_read", "lbica").replay
    assert wo.policies["WO"] >= 1  # the policy actually engaged
    assert wo.cache_submits["WO", "P"] == 0  # zero tolerance: no promotion enters the cache
    ro = runs("mixed_rw", "lbica").replay
    assert ro.policies["RO"] >= 1
    assert ro.cache_submits["RO", "W"] == 0  # zero tolerance: no write enters the cache
    report(
        3,
        f"WO active {wo.policies['WO']}x with 0 promote submits;"
        f" RO active {ro.policies['RO']}x with 0 cache write submits",
    )


# ----------------------------------------------------------------------
# criterion 4: LRU equivalence against the event-log replay's cache replica


def test_criterion_04_lru_matches_brute_force():
    rng = random.Random(0xC4)
    started = time.monotonic()
    sequences = 0
    for _ in range(200):
        capacity = rng.randint(1, 16)
        length = rng.randint(1, 1000)
        engine = CacheEngine(capacity)
        oracle = CacheReplica(capacity)  # write-back, a list with the next victim first
        for step in range(length):
            lba = rng.randrange(3 * capacity)
            is_read = rng.random() < 0.6
            expect_hit = lba in oracle.order
            assert (lba in engine.resident_lbas()) == expect_hit  # hit/miss identical
            _, target, _, _, _ = engine.access(step, lba, is_read, step)
            if is_read:  # routed to the cache exactly on a hit
                assert (target is DeviceRole.SSD) == expect_hit
            (oracle.read if is_read else oracle.write)(lba)
        assert engine.resident_lbas() == oracle.order  # same blocks, same order
        sequences += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(4, f"{sequences} random sequences, identical hit/miss and order, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 5: random-read burst, promote-heavy queue, cache load drops >= 40%


def burst_reduction(runs, scenario):
    """Cache submits in none-wb's burst windows, under none-wb and under lbica, and their drop.

    Window k covers times ((k-1)*L, k*L].
    """
    baseline = runs(scenario, "none-wb").result
    windows = burst_window_indices(baseline)
    assert windows, "scenario never saturated the cache queue"
    interval = baseline.config.interval_us
    counts = [runs(scenario, b).replay.cache_submit_times for b in ("none-wb", "lbica")]
    before, after = (sum(n for t, n in c.items() if -(-t // interval) in windows) for c in counts)
    assert before > 0
    return before, after, 1.0 - after / before


def test_criterion_05_random_read_burst_reduction(runs):
    baseline = runs("random_read", "none-wb")
    lbica = runs("random_read", "lbica")
    assert baseline.elapsed_s < 60 and lbica.elapsed_s < 60

    before, after, reduction = burst_reduction(runs, "random_read")
    promote_ratios = [row.ratios.p for row in baseline.result.rows if row.burst]
    mean_p = fmean(promote_ratios)
    assert 0.45 <= mean_p <= 0.55  # tuned promote share, +/- 0.05
    assert reduction >= 0.40
    report(
        5,
        f"promote share {mean_p:.3f} in [0.45, 0.55];"
        f" cache submissions {before} -> {after} ({reduction:.1%} >= 40%)",
    )


# ----------------------------------------------------------------------
# criterion 6: mixed burst at write fraction 0.70, cache load drops >= 60%


def test_criterion_06_mixed_burst_reduction(runs):
    baseline = runs("mixed_rw", "none-wb")
    lbica = runs("mixed_rw", "lbica")
    assert baseline.elapsed_s < 60 and lbica.elapsed_s < 60

    for phase in baseline.result.config.phases:
        assert abs((1.0 - phase.read_fraction) - 0.70) < 1e-9  # stated write fraction

    before, after, reduction = burst_reduction(runs, "mixed_rw")
    assert reduction >= 0.60
    report(6, f"cache submissions {before} -> {after} ({reduction:.1%} >= 60%)")


# ----------------------------------------------------------------------
# criterion 7: latency orderings across balancers


def test_criterion_07_latency_orderings(runs):
    means = {}
    for scenario in SCENARIOS:
        wb = runs(scenario, "none-wb")
        lb = runs(scenario, "lbica")
        assert wb.elapsed_s < 60 and lb.elapsed_s < 60
        means[scenario] = (wb.summary["mean_latency_us"], lb.summary["mean_latency_us"])
        assert means[scenario][1] < means[scenario][0], scenario  # adaptive beats baseline

    sib = runs("write_intensive", "sib")
    lb = runs("write_intensive", "lbica")
    assert sib.elapsed_s < 60
    assert lb.summary["mean_latency_us"] < sib.summary["mean_latency_us"]
    # the write-through bypass baseline piles work onto the disk queue
    assert sib.summary["mean_hdd_qsize"] > lb.summary["mean_hdd_qsize"] + 10
    ordered = ", ".join(
        f"{scenario}: {lb_mean:.0f}us < {wb_mean:.0f}us"
        for scenario, (wb_mean, lb_mean) in means.items()
    )
    report(
        7,
        f"{ordered}; write burst: {lb.summary['mean_latency_us']:.0f}us"
        f" < sib {sib.summary['mean_latency_us']:.0f}us,"
        f" disk qsize {sib.summary['mean_hdd_qsize']:.1f} vs {lb.summary['mean_hdd_qsize']:.1f}",
    )


# ----------------------------------------------------------------------
# criterion 8: bypass depth is the minimal rebalancing cut


def test_criterion_08_bypass_depth_minimality():
    rng = random.Random(0xC8)
    for _ in range(1000):
        s, h = rng.randrange(0, 5000), rng.randrange(0, 5000)
        ls, lh = rng.randrange(1, 10_000), rng.randrange(1, 10_000)
        k = compute_bypass_depth(make_stats(s, ls, h, lh))
        assert k >= 0
        assert (s - k) * ls <= (h + k) * lh  # k rebalances
        if k >= 1:
            assert (s - (k - 1)) * ls > (h + (k - 1)) * lh  # k-1 does not
    report(8, "1000 random queue states, k satisfies the balance bound and k-1 never does")


# ----------------------------------------------------------------------
# criterion 9: repeat runs are byte-identical


def test_criterion_09_repeat_runs_byte_identical(runs, tmp_path):
    repeats = [
        ("random_read", "none-wb"),
        ("random_read", "lbica"),
        ("write_intensive", "sib"),
    ]
    for scenario, balancer in repeats:
        cached = runs(scenario, balancer).digests(tmp_path / f"{scenario}-{balancer}")
        fresh = logged_run(scenario, balancer).digests(tmp_path / f"{scenario}-{balancer}-again")
        assert fresh == cached, (scenario, balancer)
    report(9, f"{len(repeats)} repeated runs, {3 * len(repeats)} files byte-identical")


# ----------------------------------------------------------------------
# criterion 10: event-log conservation and dirty-block accounting


def test_criterion_10_event_log_conservation(runs):
    # the version oracle's replay checks each request's lifecycle on every
    # row: an access at its arrival, every submit closed by one complete or
    # remove row, no id submitted again before then or after its complete
    checked = 0
    for scenario, balancer in itertools.product(CONFIGS, BALANCERS):
        run = runs(scenario, balancer)
        summary, replay = run.summary, run.replay
        replica = replay.replica

        # each application request is accessed once and completes once
        assert len(replay.accessed) == summary["app_requests"]
        for req_id in replay.accessed:
            assert replay.completions[req_id] == 1, (scenario, balancer, req_id)

        # every dirty block still resident, or exactly one eviction write:
        # the replayed eviction-write count matches the logged origin-E
        # submissions, and the replayed dirty set matches the reported
        # end-of-run state, so no dirty block was lost or written twice
        assert replica.evict_writes == replay.evict_submits == summary["dirty_writebacks"]
        assert len(replica.dirty) == summary["dirty_resident_end"]
        assert replica.read_hits == summary["cache_read_hits"]
        checked += 1
    report(10, f"{checked} runs replayed: single completion per request, dirty blocks accounted")


def test_event_log_replay_rejects_a_double_dispatch(tmp_path):
    # the replay reads each access off its first submit row, so a
    # request dispatched twice must still fail it
    config = load_config(SCENARIOS["write_intensive"])
    first = 0  # the first scheduled request's id
    path = tmp_path / "events.log"
    with open(path, "w", newline="") as fh:
        events = EventLog(fh, config.scenario_hash())
        sim = Simulation(config, build_requests(config), events=events)
        dispatch = sim._dispatch

        def dispatch_first_twice(row):
            dispatch(row)
            if row == first:
                dispatch(row)

        sim.sim.on_arrive = dispatch_first_twice
        sim.run()
    _, rows = read_events(path)
    with pytest.raises(AssertionError, match=rf"request {first} submitted again at \d+ before"):
        VersionOracle(config.cache_blocks).replay(rows)


# hand-written logs, one "time,event,req,app,origin,op,target,lba" row a line:
# request 0 reads block 1 from the disk
ACCESS = ["0,submit,0,0,R,read,hdd,1", "5000,complete,0,0,R,read,hdd,1"]


@pytest.mark.parametrize(
    "lines, problem",
    [
        # a late second dispatch, which passes a check that forgets a completed id
        (
            [*ACCESS, "5000,submit,0,0,R,read,hdd,1", "10000,complete,0,0,R,read,hdd,1"],
            "request 0 submitted again at 5000 after its complete row",
        ),
        (
            [
                *ACCESS,
                "5000,submit,1,0,P,write,ssd,1",
                "5100,complete,1,0,P,write,ssd,1",
                "5100,submit,1,0,P,write,ssd,1",
            ],
            "request 1 submitted again at 5100 after its complete row",
        ),
        (ACCESS[:1], "1 submit rows never end in a complete or remove row"),
        # a drop discards a request; only a remove takes it off its device
        (
            [*ACCESS, "5000,submit,1,0,P,write,ssd,1", "6000,drop,1,0,P,write,ssd,1"],
            r"never end .* \(e\.g\. request 1\)",
        ),
        (["7,submit,0,0,W,write,ssd,1"], "request 0's access is not at its arrival"),
    ],
    ids=["late-dispatch", "promotion-after-complete", "no-end", "drop-no-end", "late-access"],
)
def test_event_log_replay_rejects_a_broken_lifecycle(lines, problem):
    # every row arrived at 0 and has no note
    rows = [dict(zip(EVENT_COLUMNS, f"{line},0,".split(","))) for line in lines]
    with pytest.raises(AssertionError, match=problem):
        VersionOracle(4).replay(rows)
