"""CSV writing, reading, and run comparison."""

import dataclasses

import pytest

from lbicasim import (
    ConfigError,
    RunConfig,
    compare_runs,
    format_comparison,
    run_simulation,
    write_run,
)
from lbicasim.report import INTERVAL_COLUMNS, read_intervals, read_summary
from lbicasim.workload import PhaseSpec, UniformRandom


def demo_config(**overrides):
    fields = dict(
        cache_blocks=8,
        seed=5,
        interval_us=10_000,
        phases=(
            PhaseSpec(
                duration_us=50_000,
                arrival_rate=1000,
                read_fraction=0.6,
                address_model=UniformRandom(),
                working_set_blocks=64,
            ),
        ),
    )
    fields.update(overrides)
    return RunConfig(**fields)


@pytest.fixture
def run_dir(tmp_path):
    result = run_simulation(demo_config())
    out = tmp_path / "run"
    write_run(result, out)
    return result, out


class TestWriteAndRead:
    def test_interval_header_and_row_count(self, run_dir):
        result, out = run_dir
        scenario, rows = read_intervals(out / "intervals.csv")
        assert scenario == result.config.scenario_hash()
        assert len(rows) == len(result.rows)
        assert tuple(rows[0].keys()) == INTERVAL_COLUMNS

    def test_rows_round_trip_key_fields(self, run_dir):
        result, out = run_dir
        _, rows = read_intervals(out / "intervals.csv")
        for written, row in zip(rows, result.rows):
            assert int(written["interval"]) == row.interval_index
            assert int(written["ssd_qsize"]) == row.ssd_qsize
            assert int(written["cache_qtime_us"]) == row.cache_qtime
            assert written["policy"] == row.policy
            assert int(written["burst"]) == int(row.burst)

    def test_summary_round_trips_metrics(self, run_dir):
        result, out = run_dir
        scenario, metrics = read_summary(out / "summary.csv")
        assert scenario == result.config.scenario_hash()
        assert int(metrics["app_requests"]) == result.summary["app_requests"]
        assert float(metrics["mean_latency_us"]) == pytest.approx(
            result.summary["mean_latency_us"], abs=1e-6
        )

    def test_missing_scenario_header_rejected(self, tmp_path):
        path = tmp_path / "intervals.csv"
        path.write_text("interval,policy\n1,WB\n")
        with pytest.raises(ConfigError, match="scenario header"):
            read_intervals(path)


class TestCompare:
    def test_run_compared_against_itself_is_all_zero(self, run_dir):
        _result, out = run_dir
        cmp = compare_runs(out, out)
        assert cmp.cache_ops_reduction_pct == 0.0
        assert cmp.ssd_qsize_reduction_pct == 0.0
        assert cmp.mean_latency_reduction_pct == 0.0
        assert cmp.p99_latency_reduction_pct == 0.0

    def test_scenario_mismatch_refused(self, tmp_path, run_dir):
        _result, out = run_dir
        other = run_simulation(demo_config(seed=6))
        other_dir = tmp_path / "other"
        write_run(other, other_dir)
        with pytest.raises(ConfigError, match="scenario mismatch"):
            compare_runs(out, other_dir)

    def test_balancers_compare_over_the_baseline_windows(self, tmp_path):
        base = run_simulation(demo_config())
        cand = run_simulation(dataclasses.replace(demo_config(), balancer="lbica"))
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_run(base, dir_a)
        write_run(cand, dir_b)
        cmp = compare_runs(dir_a, dir_b)
        assert cmp.balancer_a == "none-wb"
        assert cmp.balancer_b == "lbica"
        assert cmp.burst_intervals == sum(1 for row in base.rows if row.burst)

    def test_format_is_human_readable(self, run_dir):
        _result, out = run_dir
        text = format_comparison(compare_runs(out, out))
        assert "mean latency" in text
        assert "burst intervals" in text
        assert "cache ops" in text
