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


def test_main_prints_a_line_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "one.py").write_text(SNIPPET)
    (tmp_path / "two.py").write_text('"""Docstring."""\n\nx = 1\ny = [\n    2,\n]\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    10  {tmp_path / 'pkg' / 'one.py'}",
        f"     4  {tmp_path / 'two.py'}",
        "    14  total",
    ]


def test_main_defaults_to_the_package_named_from_the_root(capsys):
    assert code_lines.main([]) == 0
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert "src/nrp/model.py" in [path for _, path in modules]
    assert all(path.startswith("src/nrp/") for _, path in modules)
    assert total == [str(sum(int(count) for count, _ in modules)), "total"]
