"""Host-time benchmark for lbicasim.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload backlog --seed 1 --seconds 30 --trace 0

One single-threaded process runs every scenario x balancer pair of the
workload, round after round, for about ``--seconds`` seconds, and checks
every run's outputs. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count pair runs. Lines before it give per-pair wall times,
the SHA-256 of every report file and, with ``--trace 1``, per-layer
self times.

``--trace 0`` reports the end-to-end metrics (host time, tracing off).
``--trace 1`` alternates untraced rounds with rounds in which every
public lbicasim callable listed in ``tracing.span_targets`` records a
span, and reports the per-layer metrics. Each per-layer metric is listed
in ``LAYER_METRICS`` with the end-to-end metric and workload it should
move.

``--seed`` replaces the seed of every pair's config; without it the
committed scenarios keep their seeds (mixed_rw 11, random_read 7,
write_intensive 13) and the generated steady config uses seed 1.

The simulated results are not validated against hardware, so the
benchmark reports no error figure for them: it checks only that they
are conserved, complete and repeatable.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import harness
import tracing

OUT_DIR = harness.ROOT / ".perfbench_out"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "requests_per_s": "1/s",
    "device_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name: (unit, better, end-to-end metric it should move, workload)
LAYER_METRICS = {
    "config.load_s": ("s", "lower", "setup_s", "steady"),
    "workload.generate_s": ("s", "lower", "setup_s", "steady"),
    "workload.requests": ("count", "higher", "setup_s", "steady"),
    "cache.access_calls": ("count", "lower", "requests_per_s", "steady"),
    "cache.access_s": ("s", "lower", "requests_per_s", "steady"),
    "cache.read_hits": ("count", "higher", "requests_per_s", "steady"),
    "cache.read_misses": ("count", "lower", "requests_per_s", "steady"),
    "cache.hit_ratio": ("ratio", "higher", "requests_per_s", "steady"),
    "cache.dirty_writebacks": ("count", "lower", "requests_per_s", "steady"),
    "engine.step_calls": ("count", "lower", "device_ops_per_s", "steady"),
    "engine.step_s": ("s", "lower", "device_ops_per_s", "steady"),
    "engine.submit_calls": ("count", "lower", "device_ops_per_s", "steady"),
    "engine.submit_s": ("s", "lower", "device_ops_per_s", "steady"),
    "engine.ssd_busy_frac": ("ratio", "lower", "requests_per_s", "steady"),
    "engine.hdd_busy_frac": ("ratio", "lower", "requests_per_s", "steady"),
    "engine.ssd_qsize_peak": ("count", "lower", "requests_per_s", "steady"),
    "telemetry.snapshot_calls": ("count", "lower", "wall_s", "backlog"),
    "telemetry.snapshot_s": ("s", "lower", "wall_s", "backlog"),
    "telemetry.snapshot_entries": ("count", "lower", "wall_s", "backlog"),
    "telemetry.record_completion_s": ("s", "lower", "wall_s", "backlog"),
    "telemetry.close_interval_s": ("s", "lower", "wall_s", "backlog"),
    "balancer.tick_calls": ("count", "lower", "wall_s", "backlog"),
    "balancer.tick_s": ("s", "lower", "wall_s", "backlog"),
    "balancer.ratio_s": ("s", "lower", "wall_s", "backlog"),
    "balancer.bypass_s": ("s", "lower", "wall_s", "backlog"),
    "balancer.bypass_requested": ("count", "lower", "wall_s", "backlog"),
    "balancer.bypass_moved": ("count", "lower", "wall_s", "backlog"),
    "balancer.policy_switches": ("count", "lower", "wall_s", "backlog"),
    "balancer.burst_intervals": ("count", "lower", "wall_s", "backlog"),
    "runner.self_s": ("s", "lower", "wall_s", "replay"),
    "runner.dropped_promotions": ("count", "lower", "wall_s", "replay"),
    "runner.eventlog_rows": ("count", "lower", "wall_s", "replay"),
    "runner.eventlog_s": ("s", "lower", "wall_s", "replay"),
    "report.write_s": ("s", "lower", "wall_s", "replay"),
    "report.bytes": ("count", "lower", "wall_s", "replay"),
    "trace.overhead_ratio": ("ratio", "lower", "wall_s", "all"),
}

TICK_PATH = (
    "telemetry.snapshot",
    "telemetry.close_interval",
    "balancer.tick",
    "balancer.ratio",
    "balancer.bypass",
)
OUTPUT_PATH = ("runner.eventlog", "report.write")


class Rounds:
    """Runs rounds of a workload's pairs and checks every pair run.

    The first successful run of a pair fixes its reference digests; a
    later run, traced or not, that writes different bytes fails. Output
    checks read the files only when their digests are new.
    """

    def __init__(self, lb, pairs, configs, workdir: Path):
        self.lb = lb
        self.pairs = pairs
        self.configs = configs
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, dict[str, str]] = {}
        self.verified: dict[str, dict[str, str]] = {}
        self.walls: dict[str, list[float]] = {p.label: [] for p in pairs}
        self.traced_walls: dict[str, list[float]] = {p.label: [] for p in pairs}
        self.last: dict[str, harness.PairRun] = {}

    def run(self, tracer: tracing.Tracer | None = None) -> list[tuple]:
        """One round; with ``tracer``, returns ``(pair, run, spans)`` per pair."""
        traced = []
        for pair, config in zip(self.pairs, self.configs):
            requests = self.lb.runner.build_requests(config)
            if tracer is not None:
                tracer.take()  # drop the spans of the rebuild
            outdir = self.workdir / pair.label.replace("/", "-")
            self.attempted += 1
            try:
                run = harness.run_pair(self.lb, config, requests, outdir, pair.events)
                problems = self._check(pair, run, outdir, tracer is not None)
            except Exception:
                traceback.print_exc()
                self.failed += 1
                continue
            for problem in problems:
                print(f"FAIL {pair.label}: {problem}", file=sys.stderr)
            self.failed += bool(problems)
            (self.walls if tracer is None else self.traced_walls)[pair.label].append(run.wall_s)
            self.last[pair.label] = run
            if tracer is not None:
                traced.append((pair, run, tracer.take()))
        return traced

    def _check(self, pair, run: harness.PairRun, outdir: Path, traced: bool) -> list[str]:
        reference = self.reference.setdefault(pair.label, run.digests)
        if run.digests == self.verified.get(pair.label):
            return []  # same bytes as a run that passed every check
        problems = harness.check_pair(run, outdir, pair.events)
        if run.digests != reference:
            kind = "traced" if traced else "repeat"
            problems.append(f"{kind} run wrote different report bytes than the first run")
        elif not problems:
            self.verified[pair.label] = run.digests
        return problems

    def wall(self, walls: dict[str, list[float]]) -> float:
        """Median wall time of each pair, summed over the workload."""
        return sum(statistics.median(w) for w in walls.values() if w)


def until(seconds: float, body) -> None:
    """Call ``body`` at least once, and again while the next call fits in ``seconds``."""
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            return


def measure(pairs, workdir: Path, seed: int | None, seconds: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        lb = harness.import_lbicasim(fresh=True)
        configs = harness.setup(lb, pairs, workdir, seed)
        setups.append(time.perf_counter() - started)
    rounds = Rounds(lb, pairs, configs, workdir)
    until(seconds, rounds.run)
    wall = rounds.wall(rounds.walls)
    runs = rounds.last.values()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "requests_per_s": sum(r.app_completed for r in runs) / wall if wall else 0.0,
        "device_ops_per_s": sum(r.device_ops for r in runs) / wall if wall else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for pair in pairs:
        w = rounds.walls[pair.label]
        if w:
            print(f"pair {pair.label}: wall {statistics.median(w):.4f} s median of {len(w)}")
    return rounds, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def layer_metrics(setup_spans: tracing.Spans, traced) -> dict[str, float]:
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    counts: Counter = Counter()
    ssd_qsize_peak = 0
    for spans in [setup_spans] + [s for _p, _r, s in traced]:
        for name, (n, ns) in spans.by_name().items():
            calls[name] += n
            self_ns[name] += ns
        counts.update(spans.counts)
        ssd_qsize_peak = max(ssd_qsize_peak, spans.counts["engine.ssd_qsize_peak"])
    runs = [r for _p, r, _s in traced]

    def secs(name: str) -> float:
        return self_ns[name] / 1e9

    def total(key: str) -> int:
        return sum(r.summary[key] for r in runs)

    hits, misses = total("cache_read_hits"), total("cache_read_misses")
    end_us = total("simulated_end_us")
    return {
        "config.load_s": secs("config.load"),
        "workload.generate_s": secs("workload.generate"),
        "workload.requests": counts["workload.requests"],
        "cache.access_calls": calls["cache.access"],
        "cache.access_s": secs("cache.access"),
        "cache.read_hits": hits,
        "cache.read_misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.dirty_writebacks": total("dirty_writebacks"),
        "engine.step_calls": calls["engine.step"],
        "engine.step_s": secs("engine.step"),
        "engine.submit_calls": calls["engine.submit"],
        "engine.submit_s": secs("engine.submit"),
        "engine.ssd_busy_frac": sum(r.ssd_busy_us for r in runs) / end_us if end_us else 0.0,
        "engine.hdd_busy_frac": sum(r.hdd_busy_us for r in runs) / end_us if end_us else 0.0,
        "engine.ssd_qsize_peak": ssd_qsize_peak,
        "telemetry.snapshot_calls": calls["telemetry.snapshot"],
        "telemetry.snapshot_s": secs("telemetry.snapshot"),
        "telemetry.snapshot_entries": counts["telemetry.snapshot_entries"],
        "telemetry.record_completion_s": secs("telemetry.record_completion"),
        "telemetry.close_interval_s": secs("telemetry.close_interval"),
        "balancer.tick_calls": calls["balancer.tick"],
        "balancer.tick_s": secs("balancer.tick"),
        "balancer.ratio_s": secs("balancer.ratio"),
        "balancer.bypass_s": secs("balancer.bypass"),
        "balancer.bypass_requested": counts["balancer.bypass_requested"],
        "balancer.bypass_moved": counts["balancer.bypass_moved"],
        "balancer.policy_switches": sum(r.policy_switches for r in runs),
        "balancer.burst_intervals": total("burst_intervals"),
        "runner.self_s": secs("runner.run"),
        "runner.dropped_promotions": total("dropped_promotions"),
        "runner.eventlog_rows": calls["runner.eventlog"],
        "runner.eventlog_s": secs("runner.eventlog"),
        "report.write_s": secs("report.write"),
        "report.bytes": sum(r.report_bytes for r in runs),
    }


def print_layer_shares(traced) -> None:
    """Per pair, each layer's self time as a share of the pair's wall time."""
    columns = ("cache", "engine", "telemetry", "balancer", "runner", "eventlog", "report")
    columns += ("other", "tick_path", "output")
    print("layer self time, % of pair wall (traced):")
    print(f"  {'pair':28} {'wall_s':>8} " + " ".join(f"{c:>9}" for c in columns))
    rows = []
    for pair, run, spans in traced:
        by_name = {name: ns / 1e9 for name, (_n, ns) in spans.by_name().items()}
        layer = Counter()
        for name, s in by_name.items():
            layer["eventlog" if name == "runner.eventlog" else name.split(".")[0]] += s
        layer["other"] = run.wall_s - sum(by_name.values())
        layer["tick_path"] = sum(by_name.get(n, 0.0) for n in TICK_PATH)
        layer["output"] = sum(by_name.get(n, 0.0) for n in OUTPUT_PATH)
        rows.append((pair.label, run.wall_s, layer))
    total_wall = sum(w for _l, w, _c in rows)
    total = sum((c for _l, _w, c in rows), Counter())
    for label, wall, layer in rows + [("all pairs", total_wall, total)]:
        shares = " ".join(f"{100 * layer[c] / wall:9.1f}" for c in columns)
        print(f"  {label:28} {wall:8.3f} {shares}")
    print(
        "  tick_path = telemetry.snapshot + telemetry.close_interval + balancer;"
        " output = runner.eventlog + report.write"
    )


def print_tick_layer_share(traced, inside_ns: float, whole_ns: float) -> None:
    """Telemetry + balancer self time per pair, with and without the tracer's cost.

    The corrected share takes ``inside_ns`` off each telemetry or balancer
    span's self time, and ``whole_ns`` per span of any layer off the
    traced pair wall, which estimates the pair's untraced wall.
    """
    print(
        "telemetry + balancer self time, % of pair wall: traced; less the tracer's"
        f" cost ({inside_ns:.0f} ns inside each span, {whole_ns:.0f} ns in all):"
    )
    rows = []
    for pair, run, spans in traced:
        raw = corrected = 0.0
        for name, (n, ns) in spans.by_name().items():
            if name.split(".")[0] in ("telemetry", "balancer"):
                raw += ns / 1e9
                corrected += (ns - n * inside_ns) / 1e9
        untraced = run.wall_s - len(spans) * whole_ns / 1e9
        rows.append((pair.label, raw, run.wall_s, corrected, untraced))
    totals = [sum(column) for column in list(zip(*rows))[1:]]
    for label, raw, wall, corrected, untraced in rows + [("all pairs", *totals)]:
        print(f"  {label:28} {100 * raw / wall:6.1f} {100 * corrected / untraced:6.1f}")


def trace(pairs, workdir: Path, seed: int | None, seconds: float, workload: str):
    lb = harness.import_lbicasim()
    tracer = tracing.Tracer()
    targets = tracing.span_targets(lb)
    tracer.install(targets)
    try:
        configs = harness.setup(lb, pairs, workdir, seed)
        setup_spans = tracer.take()
    finally:
        tracer.restore()
    rounds = Rounds(lb, pairs, configs, workdir)
    per_round = []
    last_traced = []

    def untraced_then_traced():
        rounds.run()
        tracer.install(targets)
        try:
            traced = rounds.run(tracer)
        finally:
            tracer.restore()
        if len(traced) == len(pairs):
            per_round.append(layer_metrics(setup_spans, traced))
            last_traced[:] = traced

    until(seconds, untraced_then_traced)
    metrics = {}
    if per_round:
        metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        untraced = rounds.wall(rounds.walls)
        metrics["trace.overhead_ratio"] = rounds.wall(rounds.traced_walls) / untraced
        print_layer_shares(last_traced)
        print_tick_layer_share(last_traced, *tracing.tracer_cost_ns())
        tracing.write_spans(
            OUT_DIR / f"spans-{workload}.bin",
            [("setup", setup_spans)] + [(p.label, s) for p, _r, s in last_traced],
        )
    return rounds, {k: (v, LAYER_METRICS[k][0]) for k, v in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, help="replace every config's seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.import_lbicasim()
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pairs = harness.WORKLOADS[args.workload]
    print(f"workload {args.workload}: " + ", ".join(p.label for p in pairs))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        if args.trace:
            rounds, metrics = trace(pairs, workdir, args.seed, args.seconds, args.workload)
        else:
            rounds, metrics = measure(pairs, workdir, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, digests in rounds.reference.items():
        print(f"sha256 {label}: " + " ".join(f"{n}={d}" for n, d in digests.items()))
    for name, (value, unit) in metrics.items():
        target = ""
        if args.trace:
            _unit, _better, e2e, workload = LAYER_METRICS[name]
            target = f"  -> {e2e} on {workload}"
        print(f"{name} = {value:.6g} {unit}{target}")
    fail_rate = rounds.failed / rounds.attempted if rounds.attempted else 1.0
    print(f"fail_rate = {fail_rate:.6g} ratio ({rounds.failed} of {rounds.attempted} pair runs)")
    correct = rounds.failed == 0 and rounds.attempted > 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
