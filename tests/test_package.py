"""The package surface: the public API, the submodules, and unused imports."""

from __future__ import annotations

import ast
from pathlib import Path

import lbicasim

PUBLIC_API = {
    "ConfigError",
    "RunConfig",
    "load_config",
    "TraceFormatError",
    "build_requests",
    "Simulation",
    "EventLog",
    "RunResult",
    "run_simulation",
    "write_run",
    "compare_runs",
    "format_comparison",
}

# reached as ``lbicasim.<module>`` by the benchmark harness after ``import lbicasim``
SUBMODULES = ("config", "runner", "cache", "engine", "telemetry", "balancer", "report")

PACKAGE_DIR = Path(lbicasim.__file__).parent


def test_all_is_the_public_api_and_resolves():
    assert len(lbicasim.__all__) == len(PUBLIC_API)
    assert set(lbicasim.__all__) == PUBLIC_API
    for name in lbicasim.__all__:
        assert getattr(lbicasim, name) is not None, name


def test_import_binds_the_submodules():
    for name in SUBMODULES:
        module = getattr(lbicasim, name)
        assert module.__name__ == f"lbicasim.{name}"


def unused_imports(tree: ast.Module, exported: set[str]) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name not in exported
    ]


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_level_import_is_unused():
    problems = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exported = exported_names(tree) if path.name == "__init__.py" else set()
        unused = unused_imports(tree, exported)
        if unused:
            problems[path.name] = unused
    assert problems == {}
