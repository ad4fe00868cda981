"""Deterministic two-tier storage simulator with adaptive cache load balancing.

An SSD I/O cache fronts an HDD backing store, both modeled as single
server FIFO queues in integer microseconds.  A pluggable balancer
watches per-interval queue telemetry; the adaptive controller detects
when the cache queue becomes the bottleneck, classifies the queued
workload from its origin mix, switches the cache write policy to match,
and can bypass the cache queue tail straight to the disk.
"""

from .balancer import (
    BALANCERS,
    LbicaBalancer,
    PolicyDecision,
    RatioVector,
    SibBalancer,
    WorkloadClass,
    WriteBackBaseline,
    assign_policy,
    classify,
    compute_bypass_depth,
    detect_bottleneck,
    make_balancer,
)
from .cache import CacheConfig, CacheEngine, RoutingPlan, WritePolicy
from .config import ConfigError, RunConfig, load_config, parse_config_text
from .engine import Device, DeviceRole, IoRequest, OpType, Origin, RoutingError, Simulator
from .report import Comparison, compare_runs, format_comparison, write_run
from .runner import EventLog, IntervalRow, RunResult, Simulation, build_requests, run_simulation
from .telemetry import IntervalStats, IntervalTracker, QueueSnapshot, compute_queue_times, take_snapshot
from .workload import PhaseSpec, Sequential, TraceFormatError, UniformRandom, dump_trace, generate, load_trace

__version__ = "0.1.0"

__all__ = [
    "BALANCERS",
    "CacheConfig",
    "CacheEngine",
    "Comparison",
    "ConfigError",
    "Device",
    "DeviceRole",
    "EventLog",
    "IntervalRow",
    "IntervalStats",
    "IntervalTracker",
    "IoRequest",
    "LbicaBalancer",
    "OpType",
    "Origin",
    "PhaseSpec",
    "PolicyDecision",
    "QueueSnapshot",
    "RatioVector",
    "RoutingError",
    "RoutingPlan",
    "RunConfig",
    "RunResult",
    "Sequential",
    "SibBalancer",
    "Simulation",
    "Simulator",
    "TraceFormatError",
    "UniformRandom",
    "WorkloadClass",
    "WriteBackBaseline",
    "WritePolicy",
    "assign_policy",
    "build_requests",
    "classify",
    "compare_runs",
    "compute_bypass_depth",
    "compute_queue_times",
    "detect_bottleneck",
    "dump_trace",
    "format_comparison",
    "generate",
    "load_config",
    "load_trace",
    "make_balancer",
    "parse_config_text",
    "run_simulation",
    "take_snapshot",
    "write_run",
]
