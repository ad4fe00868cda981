"""In-memory span tracing around lbicasim's public callables.

A :class:`Tracer` replaces module functions and class methods with
wrappers that record one span per call: a name, the span that was open
when the call started (its parent), and start and end times from
``time.perf_counter_ns``. Spans live in flat arrays so a traced run of
a million calls costs tens of megabytes, not hundreds. Nothing inside
``lbicasim`` changes; :meth:`Tracer.restore` puts every original back.

A span's self time is its duration minus the time its child spans
cover. The program is single-threaded, so the children of a span never
overlap and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# hook(counts, args, result) adds to named counters after a call returns
Hook = Callable[[Counter, tuple, object], None]


def _count_snapshot_entries(counts: Counter, args: tuple, snapshot) -> None:
    counts["telemetry.snapshot_entries"] += len(snapshot.ssd_inqueue) + len(snapshot.hdd_inqueue)


def _count_bypass(counts: Counter, args: tuple, moved) -> None:
    counts["balancer.bypass_requested"] += args[1]
    counts["balancer.bypass_moved"] += moved


def _count_requests(counts: Counter, args: tuple, requests) -> None:
    counts["workload.requests"] += len(requests)


def _track_ssd_qsize_peak(counts: Counter, args: tuple, result) -> None:
    # Every request reaches a device queue through Simulator.submit, so the
    # SSD queue is at its largest right after one of these calls returns.
    qsize = args[0].ssd.qsize
    if qsize > counts["engine.ssd_qsize_peak"]:
        counts["engine.ssd_qsize_peak"] = qsize


def span_targets(lb) -> list[tuple[str, object, str, Hook | None]]:
    """Every traced callable as ``(span name, owner, attribute, hook)``.

    Span names are ``<layer>.<what>``, the layer being the lbicasim
    module whose work the call does. Module-level functions are wrapped
    in the namespace their caller looks them up in: the runner imports
    ``take_snapshot`` by name, so the runner's binding is the one patched.
    """
    runner = lb.runner
    targets = [
        ("config.load", lb.config, "load_config", None),
        ("workload.generate", runner, "build_requests", _count_requests),
        ("cache.access", lb.cache.CacheEngine, "access", None),
        ("engine.step", lb.engine.Simulator, "step", None),
        ("engine.submit", lb.engine.Simulator, "submit", _track_ssd_qsize_peak),
        ("telemetry.snapshot", runner, "take_snapshot", _count_snapshot_entries),
        ("telemetry.record_completion", lb.telemetry.IntervalTracker, "record_completion", None),
        ("telemetry.close_interval", lb.telemetry.IntervalTracker, "close_interval", None),
        ("balancer.ratio", lb.balancer.RatioVector, "from_snapshot", None),
        ("balancer.bypass", runner.Simulation, "bypass_tail", _count_bypass),
        ("runner.run", runner.Simulation, "run", None),
        ("runner.eventlog", runner.EventLog, "request", None),
        ("runner.eventlog", runner.EventLog, "policy", None),
        ("report.write", lb.report, "write_run", None),
    ]
    for cls in lb.balancer.BALANCERS.values():
        targets.append(("balancer.tick", cls, "tick", None))
    return targets


@dataclass
class Spans:
    """Spans of one traced region in call order, plus the counters."""

    names: list[str]
    name: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("q"))
    end: array = field(default_factory=lambda: array("q"))
    counts: Counter = field(default_factory=Counter)

    def __len__(self) -> int:
        return len(self.end)

    def self_ns(self) -> list[int]:
        """Per span, duration minus the summed durations of its children."""
        parent, start, end = self.parent, self.start, self.end
        own = [end[i] - start[i] for i in range(len(end))]
        covered = [0] * len(own)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += own[i]
        return [d - c for d, c in zip(own, covered)]

    def by_name(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, summed self time in ns)."""
        calls: Counter = Counter()
        self_total: Counter = Counter()
        for idx, s in zip(self.name, self.self_ns()):
            calls[idx] += 1
            self_total[idx] += s
        return {self.names[i]: (calls[i], self_total[i]) for i in calls}


class Tracer:
    """Records spans for every call into the wrapped callables."""

    def __init__(self):
        self.names: list[str] = []
        self._spans = Spans(self.names)
        self._current = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        for name, owner, attr, hook in targets:
            self.wrap(owner, attr, name, hook)

    def wrap(self, owner, attr: str, name: str, hook: Hook | None = None) -> None:
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        if name not in self.names:
            self.names.append(name)
        traced = self._traced(func, self.names.index(name), hook)
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        """Put back every wrapped callable, last wrapped first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def take(self) -> Spans:
        """Return the spans recorded so far and start an empty record."""
        if self._current != -1:
            raise RuntimeError("cannot take spans while a span is open")
        spans = self._spans
        taken = Spans(
            self.names,
            spans.name[:],
            spans.parent[:],
            spans.start[:],
            spans.end[:],
            Counter(spans.counts),
        )
        for column in (spans.name, spans.parent, spans.start, spans.end):
            del column[:]
        spans.counts.clear()
        return taken

    def _traced(self, func, name_index: int, hook: Hook | None):
        spans = self._spans
        add_name, add_parent = spans.name.append, spans.parent.append
        add_start, ends, add_end = spans.start.append, spans.end, spans.end.append
        counts = spans.counts
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._current
            index = len(ends)
            add_name(name_index)
            add_parent(parent)
            add_end(0)
            tracer._current = index
            add_start(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer._current = parent
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced


def tracer_cost_ns(calls: int = 20_000) -> tuple[float, float]:
    """Tracer time per span in ns: the part inside the span, and the whole.

    Measured on a no-op method. The whole cost is a traced call less an
    untraced one. The inside part is a traced no-op's median span less an
    untraced no-op call: the wrapper's argument forwarding, ``try`` block
    and end-clock call, which a span's self time carries on top of the
    work of the callable it wraps. The rest lands in the parent's self time.
    """

    class Probe:
        def noop(self):
            pass

    probe = Probe()
    clock = time.perf_counter_ns

    def per_call(body) -> float:
        """Fastest of five loops of ``calls`` calls to ``body`` (none: bare loop)."""
        best = float("inf")
        for _ in range(5):
            t0 = clock()
            if body is None:
                for _ in range(calls):
                    pass
            else:
                for _ in range(calls):
                    body()
            best = min(best, (clock() - t0) / calls)
        return best

    loop = per_call(None)
    plain = per_call(probe.noop)
    tracer = Tracer()
    tracer.wrap(Probe, "noop", "probe.noop")
    try:
        traced = per_call(probe.noop)
    finally:
        tracer.restore()
    spans = tracer.take()
    span_ns = statistics.median(e - s for s, e in zip(spans.start, spans.end))
    return max(span_ns - (plain - loop), 0.0), traced - plain


def write_spans(path: Path, labelled: list[tuple[str, Spans]]) -> None:
    """Write spans as one JSON header line followed by raw arrays.

    After the header come, for each entry of ``header["regions"]`` in
    order, its ``count`` name indices (int32), parent indices (int32,
    -1 for a root), start and end times (int64 ns).
    """
    header = {
        "names": labelled[0][1].names if labelled else [],
        "columns": ["name:int32", "parent:int32", "start_ns:int64", "end_ns:int64"],
        "regions": [{"label": label, "count": len(spans)} for label, spans in labelled],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for _label, spans in labelled:
            for column in (spans.name, spans.parent, spans.start, spans.end):
                column.tofile(fh)
