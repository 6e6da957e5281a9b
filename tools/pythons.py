"""Run the byte-pinning tests under each Python interpreter given.

    python3 tools/pythons.py PYTHON [PYTHON ...]

Each PYTHON, a path or a command name, runs tests/test_golden.py,
tests/test_replay.py, tests/test_oracle_pin.py and the fitness test that
compares component_fitness_all with its per-nurse definition through
`-m pytest`, with this tree's src first on PYTHONPATH, ahead of any
inherited entries.  These tests pin generated instances, solver runs, CSV
tables, oracle results and fitness floats byte for byte, so they pass under
an interpreter only if it draws, sums and prints exactly as the one that
recorded them.  One line per interpreter reads `passed` or `failed` with
pytest's summary, or `could not run` with
the reason: no such interpreter; the first line it printed on stderr when
it could not start, such as a pyenv shim's `command not found` for a
version that is not active; or the last line of the error when it starts
but cannot import pytest.  The exit
status is 0 only when every interpreter passed.  Only the standard library
is used.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_golden.py", "tests/test_replay.py", "tests/test_oracle_pin.py",
         "tests/test_evaluate.py::TestComponentFitness::test_tables_give_the_definitions_floats_bit_for_bit")


def _line(text: str, index: int = -1) -> str:
    lines = text.strip().splitlines()
    return lines[index].strip("= ") if lines else ""


def check(python: str, env: dict[str, str]) -> tuple[str, str]:
    """(verdict, detail) for the pinned tests under one interpreter."""
    try:
        start = subprocess.run([python, "-c", ""], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError as exc:
        return "could not run", exc.strerror or str(exc)
    if start.returncode:
        return "could not run", _line(start.stderr, 0) or f"exit status {start.returncode}"
    probe = subprocess.run([python, "-c", "import pytest"], cwd=ROOT, env=env,
                           capture_output=True, text=True)
    if probe.returncode:
        return "could not run", _line(probe.stderr) or f"exit status {probe.returncode}"
    run = subprocess.run([python, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    summary = _line(run.stdout) or _line(run.stderr)
    if run.returncode == 0:
        return "passed", summary
    if run.returncode in (1, 2):  # tests failed, or collection stopped on an error
        return "failed", summary
    return "could not run", f"pytest exit status {run.returncode}: {summary}"


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/pythons.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    inherited = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{inherited}" if inherited else src}
    verdicts = []
    for python in argv:
        verdict, detail = check(python, env)
        verdicts.append(verdict)
        print(f"{python}: {verdict} ({detail})")
    return 0 if all(v == "passed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
