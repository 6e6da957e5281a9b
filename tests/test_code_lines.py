"""tools/code_lines.py counts code lines without docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment still leaves code on the line

# a comment line


class Kept:
    """A class docstring."""

    size = 3


def work(a,
         b):
    """A function docstring
    over three lines.
    """
    text = """a string
    that is not a docstring"""
    "a string statement that does not open the body"
    return (a +
            b)
'''


def test_a_snippet_counts_its_code_lines_only():
    # import, class, size = 3, def over 2 lines, text over 2 lines, the
    # string statement, return over 2 lines
    assert code_lines.code_lines(SNIPPET) == 1 + 1 + 1 + 2 + 2 + 1 + 2
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
