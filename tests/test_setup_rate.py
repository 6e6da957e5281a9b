"""tools/setup_rate.py times each layer of the benchmark workloads' set-up."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("setup_rate", ROOT / "tools" / "setup_rate.py")
setup_rate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(setup_rate)


def test_one_build_prints_each_layer_of_each_workload(capsys):
    assert setup_rate.main(["--repeats", "1"]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title == "ms, median of 1 builds"
    assert header.split() == [
        "workload", "instances", "generate", "annotate", "serialize", "parse", "tables",
        "warm-up", "total",
    ]
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    assert [row.split()[0] for row in rows] == list(workloads)
    for row in rows:
        name, instances, *figures = row.split()
        spec = workloads[name]
        assert int(instances) == len(spec["instances"])
        *layers, total = map(float, figures)
        assert all(ms > 0 for ms in layers[:1] + layers[2:])
        assert (layers[1] > 0) == bool(spec.get("annotate_optimum"))
        assert total == pytest.approx(sum(layers), abs=0.01)


def test_repeats_below_one_exit_with_a_usage_error():
    with pytest.raises(SystemExit) as exited:
        setup_rate.main(["--repeats", "0"])
    assert exited.value.code == 2
