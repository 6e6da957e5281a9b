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


def stand_in(path, script):
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(0o755)
    return path


def test_a_pyenv_shim_of_a_version_not_active_names_the_missing_command(tmp_path, capsys):
    # what a pyenv shim prints on stderr, for any arguments, when its version is not active
    shim = stand_in(tmp_path / "python3.12", """cat >&2 <<'END'
pyenv: python3.12: command not found

The `python3.12' command exists in these Python versions:
  3.12.1

Note: See 'pyenv help global' for tips on allowing multiple
      Python versions to be found at the same time.
END
exit 127
""")
    assert pythons.main([str(shim)]) == 1
    assert capsys.readouterr().out == (
        f"{shim}: could not run (pyenv: python3.12: command not found)\n")


def test_an_interpreter_without_pytest_names_the_import_error(tmp_path, capsys):
    # it starts, but `-c "import pytest"` ends in a traceback
    bare = stand_in(tmp_path / "bare-python", """[ "$2" = "import pytest" ] || exit 0
echo 'Traceback (most recent call last):' >&2
echo '  File "<string>", line 1, in <module>' >&2
echo "ModuleNotFoundError: No module named 'pytest'" >&2
exit 1
""")
    assert pythons.main([str(bare)]) == 1
    assert capsys.readouterr().out == (
        f"{bare}: could not run (ModuleNotFoundError: No module named 'pytest')\n")
