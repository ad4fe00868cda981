"""Deterministic two-tier storage simulator with adaptive cache load balancing.

An SSD I/O cache fronts an HDD backing store, both modeled as single
server FIFO queues in integer microseconds.  A pluggable balancer
watches per-interval queue telemetry; the adaptive controller detects
when the cache queue becomes the bottleneck, classifies the queued
workload from its origin mix, switches the cache write policy to match,
and can bypass the cache queue tail straight to the disk.
"""

from .config import ConfigError, RunConfig, load_config
from .report import compare_runs, format_comparison, write_run
from .runner import EventLog, RunResult, Simulation, build_requests, run_simulation
from .workload import TraceFormatError

__all__ = [
    "ConfigError",
    "EventLog",
    "RunConfig",
    "RunResult",
    "Simulation",
    "TraceFormatError",
    "build_requests",
    "compare_runs",
    "format_comparison",
    "load_config",
    "run_simulation",
    "write_run",
]
