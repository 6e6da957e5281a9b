"""tools/oracle_rate.py times exact_solve on the oracle-proof instances."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("oracle_rate", ROOT / "tools" / "oracle_rate.py")
oracle_rate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(oracle_rate)


def test_one_pass_prints_each_figure(capsys):
    assert oracle_rate.main(["--passes", "1"]) == 0
    figures = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert list(figures) == [
        "instances", "passes", "pass_ms", "proofs/s", "nodes", "nodes/s",
        "components_ms", "tables_ms", "setup_share",
    ]
    assert (figures["instances"], figures["passes"]) == ("12", "1")
    assert int(figures["nodes"]) > 0
    assert float(figures["setup_share"]) > 0


def test_passes_below_one_exit_with_a_usage_error():
    with pytest.raises(SystemExit) as exited:
        oracle_rate.main(["--passes", "0"])
    assert exited.value.code == 2
