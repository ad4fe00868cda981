"""The benchmark record in ``scripts/bench.py`` holds every part, per workload and once."""

import dataclasses
import importlib
import json
from pathlib import Path

from lbicasim import RunConfig
from lbicasim.workload import PhaseSpec, UniformRandom

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def tiny_pairs(_workload):
    """Two small pairs, one with the event log, so the bytecode count takes a moment."""
    phase = PhaseSpec(
        duration_us=20_000,
        arrival_rate=2_000,
        read_fraction=0.5,
        address_model=UniformRandom(),
        working_set_blocks=16,
    )
    config = RunConfig(cache_blocks=4, seed=3, interval_us=5_000, balancer="lbica", phases=(phase,))
    return [(config, True), (dataclasses.replace(config, balancer="sib"), False)]


def test_a_record_holds_every_part_under_its_label(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    bench = importlib.import_module("bench")
    # the perfbench subprocess runs the real workload for one round; the
    # in-process bytecode count runs the tiny pairs
    monkeypatch.setattr(bench.opcount, "load", tiny_pairs)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"parent": {}}))
    argv = ["--out", str(out), "--label", "change", "--seconds", "0.01", "--repeats", "1"]
    assert bench.main(argv + ["--workload", "backlog"]) == 0
    records = json.loads(out.read_text())
    assert sorted(records) == ["change", "parent"]  # a record under another label is kept
    record = records["change"]
    assert sorted(record) == ["codesize", "eventlog_cost", "host", "settings", "workloads"]
    assert list(record["workloads"]) == ["backlog"]
    backlog = record["workloads"]["backlog"]
    timed = backlog["perfbench"]
    assert timed["correct"] and timed["failed"] == 0
    assert {"setup_s", "wall_s", "requests_per_s", "device_ops_per_s", "peak_rss_mb"} <= set(
        timed["metrics"]
    )
    counted = backlog["opcount"]
    assert counted["requests"] == 80
    assert 0 < sum(counted["top"].values()) <= counted["run_opcodes"]
    assert counted["build_opcodes"] > 0
    assert record["eventlog_cost"]["rounds"] == 1 and record["eventlog_cost"]["ratio"] > 1
    assert list(record["codesize"]) == ["src/lbicasim", "tests", "perfbench", "scripts"]
    assert len(record["host"]["calibration_s"]) == 3  # before, between and after the parts
    assert record["settings"] == {"seconds": 0.01, "repeats": 1}
