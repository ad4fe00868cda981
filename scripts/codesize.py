"""Code-size probe: total lines and code lines of the package, tests, benchmark and scripts.

Usage, from the root of a checkout::

    python3 scripts/codesize.py

A code line is one that is not blank, does not start with ``#`` and is
not part of a docstring: the string literal that opens a module, class
or function body, found with ``ast``. These are the sizes CHANGES.md and
ROADMAP.md quote.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src/lbicasim", "tests", "perfbench", "scripts")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """Total lines and code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = source.splitlines()
    code = [
        n
        for n, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and n not in docstrings
    ]
    return len(lines), len(code)


def sizes() -> dict[str, dict[str, int]]:
    """Total lines and code lines of each tree, by its path from the root."""
    result = {}
    for tree in TREES:
        counts = [count(path.read_text()) for path in sorted((ROOT / tree).rglob("*.py"))]
        total, code = (sum(column) for column in zip(*counts))
        result[tree] = {"lines": total, "code_lines": code}
    return result


def main() -> None:
    for tree, size in sizes().items():
        print(f"{tree}: {size['lines']} lines, {size['code_lines']} code lines")


if __name__ == "__main__":
    main()
