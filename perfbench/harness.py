"""Workloads, pair runs and output checks shared by run.py and table.py.

A *pair* is one scenario under one balancer. Each workload is a fixed
list of pairs; a pass over every pair is a *round*. The package is
always imported from the checkout's ``src/`` directory, never from an
installed copy, so the benchmark measures the code it ships with.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
BALANCERS = ("none-wb", "lbica", "sib")
COMMITTED = ("random_read", "mixed_rw", "write_intensive")

# One long mixed phase: 70% reads, uniform over twice the cache, 6 000
# requests/s. Under every balancer the SSD runs at about 60% and the HDD
# at 50-60% utilization, so queues stay a few entries deep and the
# interval tick is a negligible share of host time. A slower HDD (2 ms)
# lets the disk queue grow without bound, and the tick then dominates.
STEADY_CONFIG = """\
seed = 1
interval_ms = 100
ssd_read_us = 100
ssd_write_us = 100
hdd_read_us = 150
hdd_write_us = 150
cache_blocks = 1024
phase1.duration_ms = 10000
phase1.rate = 6000
phase1.read_fraction = 0.7
phase1.address = uniform
phase1.working_set = 2048
phase1.jitter = 0.5
"""


@dataclass(frozen=True)
class Pair:
    scenario: str
    balancer: str
    events: bool

    @property
    def label(self) -> str:
        return f"{self.scenario}/{self.balancer}"


# backlog: mixed_rw's cache queue grows thousands deep, so the interval
#   tick (snapshot plus origin count) dominates host time.
# steady: queues stay shallow; the per-request path dominates and a tick
#   optimisation should not move it.
# replay: event log and reports on; the output layer is a large share, and
#   the two scenarios exercise bypasses and dropped promotions.
WORKLOADS: dict[str, tuple[Pair, ...]] = {
    "backlog": tuple(Pair("mixed_rw", b, False) for b in BALANCERS),
    "steady": tuple(Pair("steady", b, False) for b in BALANCERS),
    "replay": tuple(
        Pair(s, b, True) for s in ("random_read", "write_intensive") for b in BALANCERS
    ),
}


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs to run."""


def import_lbicasim(fresh: bool = False):
    """Import lbicasim from ``src/``; with ``fresh``, re-execute its modules."""
    package = SRC / "lbicasim"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"{package} not found: run from a full checkout")
    for name in COMMITTED:
        if not (SCENARIO_DIR / f"{name}.cfg").is_file():
            raise SetupError(f"{SCENARIO_DIR / name}.cfg not found: run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "lbicasim" or m.startswith("lbicasim.")]:
            del sys.modules[name]
    lb = importlib.import_module("lbicasim")
    if Path(lb.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported lbicasim from {lb.__file__}, not from {package}")
    return lb


def config_path(scenario: str, workdir: Path) -> Path:
    if scenario != "steady":
        return SCENARIO_DIR / f"{scenario}.cfg"
    path = workdir / "steady.cfg"
    if not path.exists():
        path.write_text(STEADY_CONFIG)
    return path


def load_pairs(lb, pairs, workdir: Path, seed: int | None) -> list:
    """Load and validate each pair's config; ``seed`` replaces the configured one."""
    configs = []
    for pair in pairs:
        config = lb.config.load_config(config_path(pair.scenario, workdir))
        overrides = {"balancer": pair.balancer}
        if seed is not None:
            overrides["seed"] = seed
        config = dataclasses.replace(config, **overrides)
        config.validate()
        configs.append(config)
    return configs


def setup(lb, pairs, workdir: Path, seed: int | None) -> list:
    """The set-up a sweep pays per pair: load configs and build request lists.

    Returns the configs; the request lists are built only for their cost,
    since a simulation consumes its list and each run rebuilds one.
    """
    configs = load_pairs(lb, pairs, workdir, seed)
    for config in configs:
        lb.runner.build_requests(config)
    return configs


@dataclass
class PairRun:
    """Host time and simulated outcome of one pair run."""

    wall_s: float
    summary: dict
    ssd_busy_us: int
    hdd_busy_us: int
    policy_switches: int
    report_bytes: int
    digests: dict[str, str]

    @property
    def app_completed(self) -> int:
        return self.summary["app_completed"]

    @property
    def device_ops(self) -> int:
        return sum(v for k, v in self.summary.items() if "_completed_" in k)


REPORT_FILES = ("intervals.csv", "summary.csv")


def run_pair(lb, config, requests, outdir: Path, events: bool) -> PairRun:
    """Simulate one pair and write its reports; only this is timed.

    The timed region is what ``lbicasim run`` does after loading its
    config: construct and run the simulation, stream the event log when
    asked for, and write the reports.
    """
    runner = lb.runner
    outdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    started = time.perf_counter()
    if events:
        with open(outdir / "events.log", "w", newline="") as fh:
            sim = runner.Simulation(config, requests, runner.EventLog(fh, config.scenario_hash()))
            result = sim.run()
    else:
        sim = runner.Simulation(config, requests)
        result = sim.run()
    lb.report.write_run(result, outdir)
    wall = time.perf_counter() - started
    files = REPORT_FILES + (("events.log",) if events else ())
    policies = [row.policy for row in result.rows]
    return PairRun(
        wall_s=wall,
        summary=result.summary,
        ssd_busy_us=sim.sim.ssd.busy_time,
        hdd_busy_us=sim.sim.hdd.busy_time,
        policy_switches=sum(a != b for a, b in zip(policies, policies[1:])),
        report_bytes=sum((outdir / name).stat().st_size for name in REPORT_FILES),
        digests={name: sha256(outdir / name) for name in files},
    )


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_summary(summary: dict) -> list[str]:
    """Conservation checks on one run's summary; returns the violations."""
    problems = []
    if summary["app_completed"] != summary["app_requests"]:
        problems.append(
            f"app_completed {summary['app_completed']} != app_requests {summary['app_requests']}"
        )
    ssd_done = sum(summary[f"ssd_completed_{o}"] for o in "rwpe")
    ssd_expected = summary["ssd_submitted"] - summary["bypassed_total"]
    if ssd_done != ssd_expected:
        problems.append(
            f"SSD completions {ssd_done} != ssd_submitted - bypassed_total {ssd_expected}"
        )
    hdd_done = sum(summary[f"hdd_completed_{o}"] for o in "rwpe")
    if hdd_done != summary["hdd_submitted"]:
        problems.append(f"HDD completions {hdd_done} != hdd_submitted {summary['hdd_submitted']}")
    return problems


def check_event_log(path: Path) -> list[str]:
    """Every ``submit`` row must be followed by a ``complete`` or ``remove`` row."""
    open_submits: set[str] = set()
    problems = []
    with open(path, newline="") as fh:
        fh.readline()  # "# scenario=..." header
        reader = csv.DictReader(fh)
        for row in reader:
            event, req = row["event"], row["req"]
            if event == "submit":
                if req in open_submits:
                    problems.append(f"request {req} submitted again before completing")
                open_submits.add(req)
            elif event in ("complete", "remove"):
                open_submits.discard(req)
    if open_submits:
        problems.append(
            f"{len(open_submits)} submit rows never end in complete or remove"
            f" (e.g. request {min(open_submits, key=int)})"
        )
    return problems


def check_pair(run: PairRun, outdir: Path, events: bool) -> list[str]:
    problems = check_summary(run.summary)
    if events:
        problems += check_event_log(outdir / "events.log")
    return problems
