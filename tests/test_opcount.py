"""The bytecode counter in ``scripts/opcount.py`` gives the same counts on every run."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from lbicasim import RunConfig
from lbicasim.workload import PhaseSpec, UniformRandom

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "opcount.py"


def load_opcount():
    spec = importlib.util.spec_from_file_location("opcount", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its annotations through its module's entry
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_two_counts_of_the_same_pairs_are_identical():
    opcount = load_opcount()
    phase = PhaseSpec(
        duration_us=40_000,
        arrival_rate=2_000,
        read_fraction=0.5,
        address_model=UniformRandom(),
        working_set_blocks=32,
    )
    config = RunConfig(cache_blocks=8, seed=3, interval_us=5_000, balancer="lbica", phases=(phase,))
    # one pair with the event log, one without
    pairs = [(config, True), (dataclasses.replace(config, balancer="sib"), False)]
    first = opcount.count_pairs(pairs)
    second = opcount.count_pairs(pairs)
    assert first == second
    build, run, requests = first
    assert requests == 160
    assert run.opcodes > build.opcodes > 0
    assert run.frames > 0
    assert sum(run.by_function.values()) == run.opcodes
    # a function is keyed by its qualified name from Python 3.11 on
    name = "Simulator.step" if sys.version_info >= (3, 11) else "step"
    assert run.by_function[f"engine:{name}"] > 0
