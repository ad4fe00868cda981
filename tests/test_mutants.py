"""The mutation probe in ``scripts/mutants.py``, run on a toy package."""

import importlib
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TOY = """def larger(a, b):
    if a > b:
        return a
    return b


def double(x):
    return x + x
"""

TESTS = """from toy.arith import double, larger


def test_larger():
    assert [larger(1, 2), larger(2, 1)] == [2, 2]


def test_double():
    assert double(3) == 6
"""

IDS = ["arith:2:7:not-if", "arith:2:9:Gt->GtE", "arith:8:13:Add->Sub"]
# the one survivor: at a == b both branches return the same value
EQUIVALENT = "arith:2:9:Gt->GtE"


def test_the_probe_kills_all_but_the_equivalent_mutant(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(SCRIPTS)
    mutants = importlib.import_module("mutants")
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "arith.py").write_text(TOY)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(TESTS)

    chosen = mutants.package_mutants(package)
    assert [mutant.id for mutant in chosen] == IDS
    outcomes, _runtime, _setting = mutants.probe(tmp_path, "toy", chosen)
    assert (package / "arith.py").read_text() == TOY
    survived = [mutant_id for mutant_id, o in outcomes.items() if o.status == "survived"]
    assert survived == [EQUIVALENT]
    assert mutants.tally(chosen, outcomes, {}) == {
        "arith": {"killed": 2, "survived": 1, "timeout": 0, "equivalent": 0}
    }

    listed = tmp_path / "equivalent.txt"
    listed.write_text(f"# id, then why it changes nothing\n{EQUIVALENT} a == b returns b either way\n")
    equivalents = mutants.read_equivalents(listed)
    assert equivalents == {EQUIVALENT: "a == b returns b either way"}
    assert mutants.tally(chosen, outcomes, equivalents) == {
        "arith": {"killed": 2, "survived": 0, "timeout": 0, "equivalent": 1}
    }
