"""Benchmark record: perfbench's metrics, bytecode counts, event-log cost and code size as JSON.

Usage, from the root of a checkout::

    python3 scripts/bench.py --out BENCH_<n>.json [--label NAME] [--seconds 30] [--repeats 8]

For each workload of the benchmark (perfbench's ``harness.WORKLOADS``,
read, not changed) the record holds:

* ``perfbench``: the JSON object that ``perfbench/run.py --workload W
  --trace 0 --seconds S`` prints last, run as a subprocess of this
  interpreter: the end-to-end metrics and the pair runs attempted and
  failed;
* ``opcount``: ``scripts/opcount.py``'s counts, the bytecodes of the
  runs and of the schedule builds apart, and the top functions.

Once per record it also holds ``eventlog_cost``, ``scripts/eventlog_cost.py``'s
rounds and ratios over replay's pairs, ``codesize``, the four trees of
``scripts/codesize.py``, and ``host``: the interpreter, the platform,
the processor count, the load average, and the best of three timings of
a fixed 3 000 000-step summing loop, taken before each part, so that
times from different hosts or loads can be told apart. Bytecode counts
and sizes are exact on any host with the same interpreter; times are
not.

The record goes under ``--label`` (default: the checkout's ``git
describe --always --dirty``) in ``--out``; records already in that file
under other labels are kept, so one file can hold a parent and a change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import codesize  # noqa: E402
import eventlog_cost  # noqa: E402
import harness  # noqa: E402
import opcount  # noqa: E402

TOP = 12  # functions kept per workload's bytecode count


def calibrate() -> float:
    """Seconds of the fixed summing loop, the best of three."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(3_000_000):
            total += i
        best = min(best, time.perf_counter() - started)
    return best


def perfbench(workload: str, seconds: float) -> dict:
    """The last line of ``perfbench/run.py --trace 0`` on ``workload``, parsed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if not done.stdout.strip():
        raise SystemExit(f"perfbench {workload} printed nothing: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def label() -> str:
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def record(workloads: list[str], seconds: float, repeats: int) -> dict:
    calibrations = [calibrate()]
    result = {"workloads": {}}
    for workload in workloads:
        timed = perfbench(workload, seconds)
        calibrations.append(calibrate())
        counted = opcount.counts(opcount.load(workload), TOP)
        result["workloads"][workload] = {"perfbench": timed, "opcount": counted}
    calibrations.append(calibrate())
    result["eventlog_cost"] = eventlog_cost.measure(repeats)
    result["codesize"] = codesize.sizes()
    result["host"] = {
        "python": sys.version,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "calibration_s": calibrations,
    }
    result["settings"] = {"seconds": seconds, "repeats": repeats}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--label", help="the record's key in the file")
    parser.add_argument("--seconds", type=float, default=30.0, help="perfbench time per workload")
    parser.add_argument("--repeats", type=int, default=8, help="event-log cost rounds")
    parser.add_argument(
        "--workload", action="append", choices=sorted(harness.WORKLOADS), help="default: all"
    )
    args = parser.parse_args(argv)
    entry = record(args.workload or list(harness.WORKLOADS), args.seconds, args.repeats)
    records = json.loads(args.out.read_text()) if args.out.exists() else {}
    records[args.label or label()] = entry
    args.out.write_text(json.dumps(records, indent=2) + "\n")
    failed = [w for w, r in entry["workloads"].items() if not r["perfbench"]["correct"]]
    if failed:
        print(f"error: perfbench failed on {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
