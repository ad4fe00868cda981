"""Tests of the benchmark's own code.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import tracing


def make_spans(names, rows) -> tracing.Spans:
    spans = tracing.Spans(list(names))
    for name, parent, start, end in rows:
        spans.name.append(name)
        spans.parent.append(parent)
        spans.start.append(start)
        spans.end.append(end)
    return spans


def test_self_time_subtracts_only_direct_children():
    # a [0, 100] holds b [10, 40] and b [50, 70]; the first b holds c [20, 30]
    spans = make_spans(
        "abc",
        [(0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 20, 30), (1, 0, 50, 70)],
    )
    assert spans.self_ns() == [100 - 30 - 20, 30 - 10, 10, 20]
    assert spans.by_name() == {"a": (1, 50), "b": (2, 40), "c": (1, 10)}
    # self times of all spans add up to the root's duration
    assert sum(spans.self_ns()) == 100


def test_tracer_records_parent_links_and_counts():
    class Toy:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

        @classmethod
        def build(cls):
            return cls()

    tracer = tracing.Tracer()
    tracer.wrap(Toy, "outer", "toy.outer")
    tracer.wrap(Toy, "inner", "toy.inner", lambda counts, args, result: counts.update(n=result))
    tracer.wrap(Toy, "build", "toy.build")
    try:
        assert Toy.build().outer() == 2
    finally:
        tracer.restore()
    spans = tracer.take()
    assert [spans.names[i] for i in spans.name] == ["toy.build", "toy.outer", "toy.inner", "toy.inner"]
    assert list(spans.parent) == [-1, -1, 1, 1]
    assert spans.counts["n"] == 2
    assert all(e >= s for s, e in zip(spans.start, spans.end))
    assert len(tracer.take()) == 0


@pytest.fixture(scope="module")
def lb():
    return harness.import_lbicasim()


def run_one(lb, scenario, balancer, outdir, tracer=None) -> harness.PairRun:
    pair = harness.Pair(scenario, balancer, True)
    (config,) = harness.load_pairs(lb, [pair], outdir, None)
    requests = lb.runner.build_requests(config)
    if tracer is None:
        return harness.run_pair(lb, config, requests, outdir, events=True)
    tracer.install(tracing.span_targets(lb))
    try:
        return harness.run_pair(lb, config, requests, outdir, events=True)
    finally:
        tracer.restore()


def test_traced_run_restores_every_wrapped_callable(lb, tmp_path):
    targets = tracing.span_targets(lb)
    originals = [vars(owner)[attr] for _name, owner, attr, _hook in targets]
    tracer = tracing.Tracer()
    run_one(lb, "write_intensive", "lbica", tmp_path, tracer)
    assert [vars(owner)[attr] for _n, owner, attr, _h in targets] == originals
    assert all(vars(o)[a] is orig for (_n, o, a, _h), orig in zip(targets, originals))
    spans = tracer.take()
    calls = {name: n for name, (n, _ns) in spans.by_name().items()}
    # write_intensive/lbica bypasses the cache queue tail, so bypass_tail
    # spans exist and their resubmissions nest under them
    bypass = spans.names.index("balancer.bypass")
    submit = spans.names.index("engine.submit")
    assert any(spans.name[spans.parent[i]] == bypass for i in range(len(spans)) if spans.name[i] == submit)
    assert spans.counts["balancer.bypass_moved"] == 901
    assert calls["runner.run"] == 1 and calls["report.write"] == 1
    assert calls["cache.access"] == 6800


def test_traced_round_yields_every_per_layer_metric(lb, tmp_path):
    tracer = tracing.Tracer()
    pair_run = run_one(lb, "write_intensive", "lbica", tmp_path, tracer)
    pair = harness.Pair("write_intensive", "lbica", True)
    metrics = run.layer_metrics(tracing.Spans(tracer.names), [(pair, pair_run, tracer.take())])
    assert set(metrics) | {"trace.overhead_ratio"} == set(run.LAYER_METRICS)
    assert metrics["balancer.bypass_moved"] == pair_run.summary["bypassed_total"]
    assert metrics["runner.eventlog_rows"] > metrics["cache.access_calls"] > 0
    # the peak is taken after every submit, so no interval-boundary sample exceeds it
    _scenario, rows = lb.report.read_intervals(tmp_path / "intervals.csv")
    sampled = max(int(row["ssd_qsize"]) for row in rows)
    assert metrics["engine.ssd_qsize_peak"] >= sampled > 0


def test_tracer_cost_inside_a_span_is_part_of_the_whole():
    inside, whole = tracing.tracer_cost_ns(2_000)
    assert 0 < inside < whole < 100_000


@pytest.mark.parametrize(
    "scenario, balancer", [("write_intensive", "lbica"), ("random_read", "sib")]
)
def test_tracing_changes_no_simulated_behaviour(lb, tmp_path, scenario, balancer):
    plain = run_one(lb, scenario, balancer, tmp_path / "plain")
    traced = run_one(lb, scenario, balancer, tmp_path / "traced", tracing.Tracer())
    assert traced.digests == plain.digests
    assert traced.summary == plain.summary
    assert harness.check_pair(traced, tmp_path / "traced", events=True) == []


def test_event_log_check_finds_an_open_submit(tmp_path):
    log = tmp_path / "events.log"
    header = "time,event,req,app,origin,op,target,lba,arrival,note\n"
    rows = [
        "0,submit,1,1,W,write,ssd,5,0,",
        "5,remove,1,1,W,write,ssd,5,0,",
        "5,submit,1,1,W,write,hdd,5,0,",
        "9,complete,1,1,W,write,hdd,5,0,",
        "9,submit,2,2,R,read,ssd,6,9,",
    ]
    log.write_text("# scenario=x\n" + header + "\n".join(rows) + "\n")
    (problem,) = harness.check_event_log(log)
    assert "request 2" in problem


def test_summary_check_finds_lost_completions():
    summary = {"app_requests": 3, "app_completed": 3, "ssd_submitted": 4, "hdd_submitted": 1,
               "bypassed_total": 1}
    summary.update({f"{d}_completed_{o}": 0 for d in ("ssd", "hdd") for o in "rwpe"})
    summary.update(ssd_completed_r=3, hdd_completed_w=1)
    assert harness.check_summary(summary) == []
    summary["ssd_completed_r"] = 2
    (problem,) = harness.check_summary(summary)
    assert problem.startswith("SSD completions 2")


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _e2e, _w) in run.LAYER_METRICS.items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
