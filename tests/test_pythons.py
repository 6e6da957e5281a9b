"""tools/pythons.py runs the byte-pinning tests under each interpreter given."""

import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("pythons", ROOT / "tools" / "pythons.py")
pythons = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pythons)


def test_an_interpreter_that_does_not_exist_could_not_run(tmp_path, capsys):
    missing = tmp_path / "no-such-python"
    assert pythons.main([str(missing)]) == 1
    assert capsys.readouterr().out == f"{missing}: could not run (No such file or directory)\n"


def test_failing_tests_fail_and_src_comes_before_the_inherited_path(tmp_path, monkeypatch, capsys):
    # a stand-in interpreter: `-c "import pytest"` succeeds, and `-m pytest`
    # prints the PYTHONPATH it was given as its summary and fails
    fake = tmp_path / "fake-python"
    fake.write_text('#!/bin/sh\n[ "$2" = pytest ] || exit 0\necho "$PYTHONPATH"\nexit 1\n')
    fake.chmod(0o755)
    monkeypatch.setenv("PYTHONPATH", "inherited")
    assert pythons.main([str(fake)]) == 1
    src = ROOT / "src"
    assert capsys.readouterr().out == f"{fake}: failed ({src}{os.pathsep}inherited)\n"
