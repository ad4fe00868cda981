"""CSV reporting: per-interval rows, run summaries, and run comparison.

Every file this module writes starts with a ``# scenario=<hash>`` comment
line carrying :meth:`RunConfig.scenario_hash`, which covers everything
about a run except the balancer.  Two runs are comparable exactly when
their hashes match: same workload, same devices, same cache geometry,
same seed, different controller.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path

from .config import ConfigError
from .runner import RunResult
from .telemetry import IntervalStats

INTERVAL_COLUMNS = (
    "interval",
    "window_start_us",
    "window_end_us",
    "ssd_qsize",
    "hdd_qsize",
    "cache_qtime_us",
    "disk_qtime_us",
    "ratio_r",
    "ratio_w",
    "ratio_p",
    "ratio_e",
    "burst",
    "workload_class",
    "policy",
    "bypassed",
    "ssd_done_r",
    "ssd_done_w",
    "ssd_done_p",
    "ssd_done_e",
    "hdd_done_r",
    "hdd_done_w",
    "hdd_done_p",
    "hdd_done_e",
    "ssd_max_latency_us",
    "hdd_max_latency_us",
)


def _interval_record(row: IntervalStats) -> tuple:
    return (
        row.interval_index,
        row.window_start,
        row.window_end,
        row.ssd_qsize,
        row.hdd_qsize,
        row.cache_qtime,
        row.disk_qtime,
        f"{row.ratios.r:.6f}",
        f"{row.ratios.w:.6f}",
        f"{row.ratios.p:.6f}",
        f"{row.ratios.e:.6f}",
        int(row.burst),
        row.klass,
        row.policy,
        row.bypassed,
        *row.ssd_served,
        *row.hdd_served,
        row.ssd_max_latency,
        row.hdd_max_latency,
    )


def write_intervals(result: RunResult, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# scenario={result.summary['scenario']}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(INTERVAL_COLUMNS)
        for row in result.rows:
            writer.writerow(_interval_record(row))


def write_summary(result: RunResult, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# scenario={result.summary['scenario']}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("metric", "value"))
        for key, value in result.summary.items():
            writer.writerow((key, f"{value:.6f}" if isinstance(value, float) else value))


def write_run(result: RunResult, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_intervals(result, directory / "intervals.csv")
    write_summary(result, directory / "summary.csv")


def _read_csv(path: Path) -> tuple[str, list[dict[str, str]]]:
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("# scenario="):
            raise ConfigError(f"{path}: missing scenario header")
        scenario = first.removeprefix("# scenario=")
        rows = list(csv.DictReader(fh))
    return scenario, rows


def read_intervals(path: Path) -> tuple[str, list[dict[str, str]]]:
    return _read_csv(path)


def read_summary(path: Path) -> tuple[str, dict[str, str]]:
    scenario, rows = _read_csv(path)
    return scenario, {row["metric"]: row["value"] for row in rows}


@dataclass(frozen=True)
class Comparison:
    """Run B measured against run A over A's burst-flagged intervals."""

    scenario: str
    balancer_a: str
    balancer_b: str
    burst_intervals: int
    cache_ops_a: int
    cache_ops_b: int
    mean_ssd_qsize_a: float
    mean_ssd_qsize_b: float
    mean_latency_a: float
    mean_latency_b: float
    p99_latency_a: float
    p99_latency_b: float

    @staticmethod
    def _reduction(before: float, after: float) -> float:
        return 0.0 if before == 0 else 100.0 * (before - after) / before

    @property
    def cache_ops_reduction_pct(self) -> float:
        return self._reduction(self.cache_ops_a, self.cache_ops_b)

    @property
    def ssd_qsize_reduction_pct(self) -> float:
        return self._reduction(self.mean_ssd_qsize_a, self.mean_ssd_qsize_b)

    @property
    def mean_latency_reduction_pct(self) -> float:
        return self._reduction(self.mean_latency_a, self.mean_latency_b)

    @property
    def p99_latency_reduction_pct(self) -> float:
        return self._reduction(self.p99_latency_a, self.p99_latency_b)


def _cache_ops(rows: list[dict[str, str]], indices: set[int]) -> int:
    total = 0
    for row in rows:
        if int(row["interval"]) in indices:
            total += sum(int(row[f"ssd_done_{k}"]) for k in "rwpe")
    return total


def _mean_qsize(rows: list[dict[str, str]], indices: set[int]) -> float:
    sizes = [int(row["ssd_qsize"]) for row in rows if int(row["interval"]) in indices]
    return statistics.fmean(sizes) if sizes else 0.0


def compare_runs(dir_a: Path, dir_b: Path) -> Comparison:
    """Compare two run directories produced from the same scenario.

    Run A supplies the reference burst windows; both runs are measured
    over those interval indices, which line up because the scenario hash
    pins the workload, the seed, and the interval length.
    """
    scen_a, intervals_a = read_intervals(dir_a / "intervals.csv")
    scen_b, intervals_b = read_intervals(dir_b / "intervals.csv")
    if scen_a != scen_b:
        raise ConfigError(
            f"scenario mismatch: {dir_a} has {scen_a}, {dir_b} has {scen_b}"
        )
    _, summary_a = read_summary(dir_a / "summary.csv")
    _, summary_b = read_summary(dir_b / "summary.csv")
    burst = {int(row["interval"]) for row in intervals_a if row["burst"] == "1"}
    return Comparison(
        scenario=scen_a,
        balancer_a=summary_a["balancer"],
        balancer_b=summary_b["balancer"],
        burst_intervals=len(burst),
        cache_ops_a=_cache_ops(intervals_a, burst),
        cache_ops_b=_cache_ops(intervals_b, burst),
        mean_ssd_qsize_a=_mean_qsize(intervals_a, burst),
        mean_ssd_qsize_b=_mean_qsize(intervals_b, burst),
        mean_latency_a=float(summary_a["mean_latency_us"]),
        mean_latency_b=float(summary_b["mean_latency_us"]),
        p99_latency_a=float(summary_a["p99_latency_us"]),
        p99_latency_b=float(summary_b["p99_latency_us"]),
    )


def format_comparison(cmp: Comparison) -> str:
    lines = [
        f"scenario {cmp.scenario}: {cmp.balancer_b} vs {cmp.balancer_a}",
        f"  burst intervals (reference run): {cmp.burst_intervals}",
        (
            f"  cache ops in burst windows: {cmp.cache_ops_a} -> {cmp.cache_ops_b}"
            f" ({cmp.cache_ops_reduction_pct:+.1f}% reduction)"
        ),
        (
            f"  mean cache qsize in burst windows: {cmp.mean_ssd_qsize_a:.1f} ->"
            f" {cmp.mean_ssd_qsize_b:.1f} ({cmp.ssd_qsize_reduction_pct:+.1f}% reduction)"
        ),
        (
            f"  mean latency: {cmp.mean_latency_a:.1f}us -> {cmp.mean_latency_b:.1f}us"
            f" ({cmp.mean_latency_reduction_pct:+.1f}% reduction)"
        ),
        (
            f"  p99 latency: {cmp.p99_latency_a:.1f}us -> {cmp.p99_latency_b:.1f}us"
            f" ({cmp.p99_latency_reduction_pct:+.1f}% reduction)"
        ),
    ]
    return "\n".join(lines)
