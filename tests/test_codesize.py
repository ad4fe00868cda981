"""The code-size probe in ``scripts/codesize.py`` counts code lines without docstrings."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "codesize.py"

# 20 lines; code lines are 5, 8, 11, 14, 18, 19 and 20
MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import os


class Box:
    """Class docstring."""

    size = 1  # a trailing comment keeps its line


def area(box):
    """Function docstring,

    with a blank line inside."""
    text = """a string that is not a docstring
"""
    return box.size * len(text) + len(os.sep)
'''


def test_a_module_counts_its_code_lines_only(capsys):
    spec = importlib.util.spec_from_file_location("codesize", SCRIPT)
    codesize = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(codesize)
    assert codesize.count(MODULE) == (20, 7)
    codesize.main()
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == list(codesize.TREES)
