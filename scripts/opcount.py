"""Bytecode counter: the interpreted work a benchmark workload's runs execute.

Usage, from the root of a checkout::

    python3 scripts/opcount.py [--workload steady] [--top 12]

Wall time on a shared host moves by more than most changes do; the
number of bytecodes a run executes does not move at all between repeats
on one interpreter. For each workload of the benchmark (perfbench's
``harness.WORKLOADS``, read, not changed) the probe loads each pair's
config as the benchmark does (``harness.load_pairs``), builds every
pair's schedule with ``build_requests``, then runs each pair's
``Simulation.run`` (with ``events.log`` where the workload writes one,
to the null device; no reports), both under ``sys.settrace`` with
``f_trace_opcodes`` set on every frame. It prints, per workload:

* the bytecodes executed inside ``Simulation.run``, in total and per
  application request;
* the schedule build's bytecodes, counted apart, so that work moved
  between build and run shows as a move rather than as a gain;
* the Python frames entered (each ``call`` trace event, so a resumed
  generator counts again);
* the functions that executed the most bytecodes, by module and
  ``co_qualname``;
* ``sys.version``: counts differ between interpreter versions, so
  compare them only on one.

The count misses all C-level work: string formatting, ``deque`` and
``dict`` operations, allocation. A change that moves work into C, or
out of it, changes the count by more or less than it changes the time.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import lbicasim  # noqa: E402
from lbicasim import EventLog, Simulation, build_requests  # noqa: E402


@dataclasses.dataclass
class Count:
    """Bytecodes executed and frames entered, in total and per function."""

    opcodes: int = 0
    frames: int = 0
    by_function: Counter = dataclasses.field(default_factory=Counter)


def counted(body, count: Count):
    """Call ``body()`` with every bytecode it executes added to ``count``; return its result.

    The cyclic collector is off meanwhile, so that a ``gc.callbacks``
    hook, which runs whenever a collection happens to fall, adds none.
    """
    opcodes: Counter = Counter()  # code object -> bytecodes executed
    frames: Counter = Counter()  # code object -> frames entered
    collecting = gc.isenabled()
    gc.disable()
    try:
        return (_monitored if hasattr(sys, "monitoring") else _traced)(body, opcodes, frames)
    finally:
        if collecting:
            gc.enable()
        for code, n in opcodes.items():
            name = getattr(code, "co_qualname", code.co_name)  # co_qualname is 3.11+
            count.by_function[f"{Path(code.co_filename).stem}:{name}"] += n
        count.opcodes += sum(opcodes.values())
        count.frames += sum(frames.values())


def _traced(body, opcodes: Counter, frames: Counter):
    """``body()`` under ``sys.settrace``, every frame tracing its opcodes (Python 3.10, 3.11)."""

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        code = frame.f_code
        frames[code] += 1

        def on_opcode(frame, event, arg):
            if event == "opcode":
                opcodes[code] += 1
            return on_opcode

        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        return body()
    finally:
        sys.settrace(previous)


def _monitored(body, opcodes: Counter, frames: Counter):
    """``body()`` under ``sys.monitoring`` instruction events (Python 3.12 on).

    There ``sys.settrace`` misses the opcodes of the first frame of each
    code object, so its count rises between repeats.
    """

    def on_frame(code, offset):
        frames[code] += 1

    def on_instruction(code, offset):
        opcodes[code] += 1

    monitoring = sys.monitoring
    tool, events = monitoring.PROFILER_ID, monitoring.events
    callbacks = {
        events.PY_START: on_frame,
        events.PY_RESUME: on_frame,
        events.INSTRUCTION: on_instruction,
    }
    monitoring.use_tool_id(tool, "opcount")
    for event, callback in callbacks.items():
        monitoring.register_callback(tool, event, callback)
    monitoring.set_events(tool, sum(callbacks))
    try:
        return body()
    finally:
        monitoring.set_events(tool, 0)
        for event in callbacks:
            monitoring.register_callback(tool, event, None)
        monitoring.free_tool_id(tool)
        # the instructions of this frame after ``set_events`` are not the body's
        del opcodes[_monitored.__code__]


def count_pairs(pairs) -> tuple[Count, Count, int]:
    """``(build, run, application requests)`` counts over ``pairs`` of ``(config, events)``.

    Every schedule is built before the first run is counted.
    """
    build, run = Count(), Count()
    schedules = [counted(lambda c=config: build_requests(c), build) for config, _ in pairs]
    for (config, events), schedule in zip(pairs, schedules):
        if events:
            with open(os.devnull, "w") as fh:
                sim = Simulation(config, schedule, EventLog(fh, config.scenario_hash()))
                result = counted(sim.run, run)
        else:
            sim = Simulation(config, schedule)
            result = counted(sim.run, run)
        summary = result.summary
        if summary["app_completed"] != summary["app_requests"]:
            raise SystemExit(f"{config.balancer}: an application request did not complete")
    return build, run, sum(len(schedule) for schedule in schedules)


def load(workload: str) -> list:
    """``(config, events)`` of each pair of the workload, loaded as the benchmark loads them."""
    pairs = harness.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as workdir:  # where steady's config is written
        configs = harness.load_pairs(lbicasim, pairs, Path(workdir), seed=None)
    return [(config, pair.events) for config, pair in zip(configs, pairs)]


def counts(pairs, top: int) -> dict:
    """The counts of ``count_pairs(pairs)``, with the ``top`` functions by bytecodes run."""
    build, run, requests = count_pairs(pairs)
    return {
        "requests": requests,
        "run_opcodes": run.opcodes,
        "run_opcodes_per_request": run.opcodes / requests,
        "run_frames": run.frames,
        "build_opcodes": build.opcodes,
        "build_frames": build.frames,
        "top": dict(run.by_function.most_common(top)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(harness.WORKLOADS), help="default: all"
    )
    parser.add_argument("--top", type=int, default=12, help="functions listed per workload")
    args = parser.parse_args(argv)
    print(f"python {sys.version.split()[0]} ({sys.version})")
    for workload in args.workload or list(harness.WORKLOADS):
        c = counts(load(workload), args.top)
        print(
            f"{workload}: {c['requests']} requests; run {c['run_opcodes']} bytecodes"
            f" ({c['run_opcodes_per_request']:.1f} per request), {c['run_frames']} frames;"
            f" build {c['build_opcodes']} bytecodes, {c['build_frames']} frames"
        )
        for name, opcodes in c["top"].items():
            print(f"  {opcodes:>12}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
