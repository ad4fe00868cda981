"""Mutation probe: single-point mutants of ``src/lbicasim``, each run against tier-1.

Usage, from the root of a checkout::

    python3 scripts/mutants.py [--module engine ...] [--kill-matrix FILE]
    python3 scripts/mutants.py --named

Each mutant changes one place in one module of the package, found with
``ast``: ``<``/``<=``, ``>``/``>=`` and ``==``/``!=`` swapped, ``+`` and
``-`` swapped, an int constant moved by one either way, ``True`` and
``False`` swapped, an ``if`` test negated, or an augmented assignment
dropped. Strings are never changed, so no docstring is, and neither is
an annotation or anything inside an f-string. A mutant's id is
``module:line:col:kind``, with the line and the column of the operator,
constant or statement it changes, so ids stay put while the code around
them does not move.

Every run works in a copy of the files tier-1 reads (``src``, ``tests``,
``scenarios``, ``scripts``, ``perfbench``, ``pyproject.toml`` and
``README.md``) in a temporary directory, never in the checkout. One copy
is made per worker; each run writes its mutant into the copy's module,
clears the copy's package bytecode and hypothesis database, runs the
tier-1 command with ``-x -q -p no:cacheprovider --hypothesis-seed=0``
(so a kill repeats from run to run), leaving out ``GUARD``, and puts
the module back. The unmutated copy runs first; if it fails, the probe
exits 2. A run that takes longer than ``TIMEOUT_FACTOR`` times the
unmutated run counts as a kill. Each run starts in its own session, and
a timed-out run's whole process group is killed, so a mutant that loops
leaves nothing behind. ``os.cpu_count()`` runs go at once.

``--module NAME`` (repeatable) limits the probe to those modules.
``--kill-matrix FILE`` drops ``-x``, so every test runs against every
mutant, and writes the tests that kill each mutant to ``FILE`` as JSON.
``--named`` runs ``NAMED`` instead, the hand-made mutants of ordering
and capping rules that no single-point mutant expresses, reports the
tests that kill each one, and exits 1 if any survives.

Survivors listed in ``scripts/mutants_equivalent.txt`` (one id per
line, followed by the reason it changes nothing) are reported apart as
equivalent. The report gives, per module, the mutants killed, survived,
timed out and equivalent, then each survivor's id and source line, then
the runtime.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "lbicasim"
EQUIVALENTS = ROOT / "scripts" / "mutants_equivalent.txt"
# everything tier-1 reads, relative to the root of a checkout
COPIED = ("src", "tests", "scenarios", "scripts", "perfbench", "pyproject.toml", "README.md")
# the guard on the equivalents file reads the package's source, which each
# run mutates, so a mutant would move the very ids the guard checks
GUARD = "tests/test_mutants.py::test_every_listed_equivalent_is_a_mutant_of_the_package"
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
TIER1 += ("--deselect", GUARD)
REPEATABLE = ("--hypothesis-seed=0", "-rfE", "--tb=no")
TIMEOUT_FACTOR = 4
MIN_TIMEOUT_S = 10.0
WORKERS = os.cpu_count() or 1

SWAPS = {
    ast.Lt: (ast.LtE, "<", "<="),
    ast.LtE: (ast.Lt, "<=", "<"),
    ast.Gt: (ast.GtE, ">", ">="),
    ast.GtE: (ast.Gt, ">=", ">"),
    ast.Eq: (ast.NotEq, "==", "!="),
    ast.NotEq: (ast.Eq, "!=", "=="),
    ast.Add: (ast.Sub, "+", "-"),
    ast.Sub: (ast.Add, "-", "+"),
}

# (name, module, text, replacement): each text occurs once in its module
NAMED = (
    (
        "HDD finished before SSD at an equal instant",
        "engine",
        "on_complete(done, _SSD)\n                        on_complete(hdd_done, _HDD)",
        "on_complete(hdd_done, _HDD)\n                        on_complete(done, _SSD)",
    ),
    (
        "arrival handled before a completion at an equal instant",
        "engine",
        "                if ssd_due == t:",
        "                if next_arrival == t:\n"
        "                    ssd_due = hdd_due = None\n"
        "                if ssd_due == t:",
    ),
    (
        "remove_tail taking one request too many",
        "engine",
        "n = min(count, len(self.waiting))",
        "n = min(count + 1, len(self.waiting))",
    ),
    (
        "remove_tail taking one request too few",
        "engine",
        "n = min(count, len(self.waiting))",
        "n = min(count - 1, len(self.waiting))",
    ),
    (
        "a promotion admitted under WO",
        "cache",
        "return self.policy is not _WO",
        "return True",
    ),
    (
        "SIB's ssd_qsize - 1 cap dropped",
        "balancer",
        "depth = min(compute_bypass_depth(stats), max(stats.ssd_qsize - 1, 0))",
        "depth = compute_bypass_depth(stats)",
    ),
)


@dataclass
class Mutant:
    id: str
    module: str
    line: str  # the source line it changes, as written
    source: str  # the whole mutated module


@dataclass
class Outcome:
    status: str  # "killed", "survived" or "timeout"
    killers: list[str] = field(default_factory=list)
    seconds: float = 0.0


def _offset(lines: list[bytes], lineno: int, col: int) -> int:
    """Byte offset in the joined source of ``ast``'s (line, byte column)."""
    return sum(map(len, lines[: lineno - 1])) + col


def _position(lines: list[bytes], offset: int) -> tuple[int, int]:
    for lineno, line in enumerate(lines, 1):
        if offset < len(line):
            return lineno, offset
        offset -= len(line)
    raise ValueError("offset past the end of the source")


def mutants(module: str, source: str) -> list[Mutant]:
    """Every single-point mutant of one module's source, in source order."""
    tree = ast.parse(source)
    lines = source.encode("utf-8").splitlines(keepends=True)
    data = b"".join(lines)
    skipped = set()  # annotations and f-strings are never mutated
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            skipped.update(map(id, ast.walk(node.returns)))
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            skipped.update(map(id, ast.walk(node.annotation)))
        elif isinstance(node, ast.JoinedStr):
            skipped.update(map(id, ast.walk(node)))

    found = []  # (line, col, kind, [(start, end, replacement)])

    def node_span(node) -> tuple[int, int]:
        start = _offset(lines, node.lineno, node.col_offset)
        return start, _offset(lines, node.end_lineno, node.end_col_offset)

    def operator(left, right, op) -> None:
        new, old_text, new_text = SWAPS[type(op)]
        start = data.index(old_text.encode(), node_span(left)[1], node_span(right)[0])
        lineno, col = _position(lines, start)
        kind = f"{type(op).__name__}->{new.__name__}"
        found.append((lineno, col, kind, [(start, start + len(old_text), new_text)]))

    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            for i, (op, right) in enumerate(zip(node.ops, node.comparators)):
                if type(op) in SWAPS:
                    operator(node.comparators[i - 1] if i else node.left, right, op)
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            operator(node.left, node.right, node.op)
        elif isinstance(node, ast.Constant) and type(node.value) in (bool, int):
            start, end = node_span(node)
            if type(node.value) is bool:
                moves = [str(not node.value)]
            else:
                moves = [str(node.value + 1), str(node.value - 1)]
            for text in moves:
                kind = f"{node.value}->{text}"
                found.append((node.lineno, node.col_offset, kind, [(start, end, f"({text})")]))
        elif isinstance(node, ast.If):
            start, end = node_span(node.test)
            edits = [(start, start, "not ("), (end, end, ")")]
            found.append((node.test.lineno, node.test.col_offset, "not-if", edits))
        elif isinstance(node, ast.AugAssign):
            start, end = node_span(node)
            found.append((node.lineno, node.col_offset, "drop-aug", [(start, end, "pass")]))

    result = []
    for lineno, col, kind, edits in sorted(found, key=lambda f: f[:3]):
        mutated = data
        for start, end, text in sorted(edits, reverse=True):
            mutated = mutated[:start] + text.encode() + mutated[end:]
        line = lines[lineno - 1].decode("utf-8").strip()
        result.append(Mutant(f"{module}:{lineno}:{col}:{kind}", module, line, mutated.decode()))
    return result


def named_mutants(package_dir: Path) -> list[Mutant]:
    """``NAMED``, applied; raises if a text no longer occurs exactly once."""
    result = []
    for name, module, text, replacement in NAMED:
        source = (package_dir / f"{module}.py").read_text(encoding="utf-8")
        if source.count(text) != 1:
            raise SystemExit(f"named mutant {name!r}: its text occurs {source.count(text)} times")
        result.append(Mutant(name, module, text.strip(), source.replace(text, replacement)))
    return result


def read_equivalents(path: Path) -> dict[str, str]:
    """Mutant id -> the reason it is equivalent, from ``id reason`` lines."""
    if not path.exists():
        return {}
    entries = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        raw = raw.strip()
        if raw and not raw.startswith("#"):
            mutant_id, _, reason = raw.partition(" ")
            entries[mutant_id] = reason.strip()
    return entries


class Workspace:
    """One worker's copy of the checkout, in which each run writes its mutant."""

    def __init__(self, root: Path, package: str, parent: Path):
        self.tree = Path(tempfile.mkdtemp(prefix="mutants-", dir=parent))
        for name in COPIED:
            if (root / name).is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                shutil.copytree(root / name, self.tree / name, ignore=ignore)
            elif (root / name).exists():
                shutil.copy2(root / name, self.tree / name)
        self.package_dir = self.tree / "src" / package

    def run(self, mutant: Mutant | None, keep_going: bool, timeout: float | None) -> Outcome:
        path = self.package_dir / f"{mutant.module}.py" if mutant else None
        original = path.read_text(encoding="utf-8") if path else None
        if path:
            path.write_text(mutant.source, encoding="utf-8")
        # a bytecode file of the same size and second would otherwise pass
        # for the mutated module, and a saved failing example would carry
        # one mutant's kill over to the next run
        shutil.rmtree(self.package_dir / "__pycache__", ignore_errors=True)
        shutil.rmtree(self.tree / ".hypothesis", ignore_errors=True)
        command = [sys.executable, *TIER1, *REPEATABLE, *([] if keep_going else ["-x"])]
        env = {**os.environ, "PYTHONPATH": str(self.tree / "src")}
        started = time.monotonic()
        proc = subprocess.Popen(
            command,
            cwd=self.tree,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return Outcome("timeout", seconds=time.monotonic() - started)
        finally:
            if path:
                path.write_text(original, encoding="utf-8")
        seconds = time.monotonic() - started
        if proc.returncode == 0:
            return Outcome("survived", seconds=seconds)
        killers = [
            line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))
        ]
        return Outcome("killed", killers or [f"exit {proc.returncode}"], seconds)

    def imports_from_copy(self, package: str) -> bool:
        env = {**os.environ, "PYTHONPATH": str(self.tree / "src")}
        out = subprocess.run(
            [sys.executable, "-c", f"import {package}; print({package}.__file__)"],
            cwd=self.tree,
            env=env,
            capture_output=True,
            text=True,
        ).stdout.strip()
        return Path(out).is_relative_to(self.tree)


def package_mutants(package_dir: Path, modules: list[str] | None = None) -> list[Mutant]:
    """Every single-point mutant of the package's ``modules`` (all by default)."""
    return [
        mutant
        for path in sorted(package_dir.glob("*.py"))
        if modules is None or path.stem in modules
        for mutant in mutants(path.stem, path.read_text(encoding="utf-8"))
    ]


def probe(
    root: Path, package: str, chosen: list[Mutant], keep_going: bool = False, progress=None
) -> tuple[dict[str, Outcome], float, dict]:
    """Run tier-1 against each of ``chosen`` in a copy of ``root``.

    Returns each mutant's outcome by id, the runtime, and the run's
    setting; exits 2 if the unmutated copy does not pass.
    """
    started = time.monotonic()
    parent = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        spaces = [Workspace(root, package, parent) for _ in range(min(WORKERS, len(chosen) or 1))]
        baseline = spaces[0].run(None, keep_going=True, timeout=None)
        if baseline.status != "survived" or not spaces[0].imports_from_copy(package):
            print(f"the unmutated copy does not pass tier-1: {baseline.killers}", file=sys.stderr)
            raise SystemExit(2)
        timeout = max(TIMEOUT_FACTOR * baseline.seconds, MIN_TIMEOUT_S)
        free: queue.Queue[Workspace] = queue.Queue()
        for space in spaces:
            free.put(space)

        def one(mutant: Mutant) -> tuple[str, Outcome]:
            space = free.get()
            try:
                outcome = space.run(mutant, keep_going, timeout)
            finally:
                free.put(space)
            if progress:
                progress(mutant, outcome)
            return mutant.id, outcome

        pool = ThreadPoolExecutor(max_workers=len(spaces))
        try:
            outcomes = dict(pool.map(one, chosen))
        finally:
            # on an interrupt, runs not yet started never start; each one
            # running ends by itself or at its timeout
            pool.shutdown(cancel_futures=True)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    setting = {
        "runs_at_once": len(spaces),
        "baseline_s": round(baseline.seconds, 2),
        "timeout_s": round(timeout, 2),
    }
    return outcomes, time.monotonic() - started, setting


STATUSES = ("killed", "survived", "timeout", "equivalent")


def tally(
    chosen: list[Mutant], outcomes: dict[str, Outcome], equivalents: dict[str, str]
) -> dict[str, dict[str, int]]:
    """Per module, the mutants killed, survived, timed out and listed as equivalent."""
    counts: dict[str, dict[str, int]] = {}
    for mutant in chosen:
        status = outcomes[mutant.id].status
        if status == "survived" and mutant.id in equivalents:
            status = "equivalent"
        row = counts.setdefault(mutant.module, dict.fromkeys(STATUSES, 0))
        row[status] += 1
    return counts



def report(chosen, outcomes, equivalents, runtime, setting) -> None:
    counts = tally(chosen, outcomes, equivalents)
    print(f"{'module':<12}" + "".join(f"{s:>12}" for s in STATUSES) + f"{'kill rate':>12}")
    for module, row in counts.items():
        decided = row["killed"] + row["timeout"]
        rate = decided / (decided + row["survived"]) if decided + row["survived"] else 1.0
        print(f"{module:<12}" + "".join(f"{row[s]:>12}" for s in STATUSES) + f"{rate:>12.1%}")
    print("survivors:")
    for mutant in chosen:
        if outcomes[mutant.id].status == "survived" and mutant.id not in equivalents:
            print(f"  {mutant.id}  {mutant.line}")
    stale = [m.id for m in chosen if m.id in equivalents and outcomes[m.id].status != "survived"]
    for mutant_id in stale:
        print(f"listed as equivalent but killed: {mutant_id}")
    print(
        f"runtime: {runtime:.1f} s, {len(chosen)} mutants, {setting['runs_at_once']} runs at once,"
        f" unmutated run {setting['baseline_s']} s, timeout {setting['timeout_s']} s"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", action="append", help="limit the probe to this module")
    parser.add_argument("--kill-matrix", type=Path, help="run every test; write the kills here")
    parser.add_argument("--named", action="store_true", help="run the named mutants instead")
    args = parser.parse_args(argv)

    def progress(mutant: Mutant, outcome: Outcome) -> None:
        print(f"{outcome.status:>9} {outcome.seconds:6.1f}s {mutant.id}", file=sys.stderr)

    if args.named:
        chosen = named_mutants(ROOT / "src" / PACKAGE)
        outcomes, runtime, setting = probe(ROOT, PACKAGE, chosen, keep_going=True)
        for mutant in chosen:
            outcome = outcomes[mutant.id]
            print(f"{mutant.id}: {outcome.status}")
            for killer in outcome.killers:
                print(f"  {killer}")
        print(f"runtime: {runtime:.1f} s, {setting['runs_at_once']} runs at once")
        return 1 if any(o.status == "survived" for o in outcomes.values()) else 0

    chosen = package_mutants(ROOT / "src" / PACKAGE, args.module)
    keep_going = args.kill_matrix is not None
    outcomes, runtime, setting = probe(ROOT, PACKAGE, chosen, keep_going=keep_going, progress=progress)
    equivalents = read_equivalents(EQUIVALENTS)
    report(chosen, outcomes, equivalents, runtime, setting)
    if args.kill_matrix:
        matrix = {
            **setting,
            "runtime_s": round(runtime, 1),
            "mutants": {
                m.id: {"status": outcomes[m.id].status, "killers": outcomes[m.id].killers, "line": m.line}
                for m in chosen
            },
        }
        args.kill_matrix.write_text(json.dumps(matrix, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
