import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from nrp import cli, harness, oracle
from nrp.cli import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_TIMEOUT,
    _build_spec,
    build_parser,
    main,
)
from nrp.eliminate import EliminationConfig
from nrp.evaluate import EvalWeights
from nrp.harness import RunSpec
from nrp.instance_io import (
    GeneratorParams,
    generate_instance,
    load_instance,
    save_instance,
    serialize_instance,
)
from nrp.model import Nurse
from nrp.oracle import exact_solve
from nrp.reconstruct import ReconstructionConfig
from nrp.solver import SolverConfig

from conftest import demand_rows, impossible_instance, make_instance


def write_instance(tmp_path: Path, name="case.nrp", seed=60) -> Path:
    path = tmp_path / name
    save_instance(generate_instance(GeneratorParams(n=4, m=8, g=2, seed=seed)), path)
    return path


def write_deep_instance(tmp_path: Path) -> Path:
    """An instance whose components hold more nurses than the exact
    solver's search can recurse through."""
    path = tmp_path / "deep.nrp"
    save_instance(generate_instance(GeneratorParams(n=2600, m=12, g=1)), path)
    return path


def assert_one_line_error(capsys, *words) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    for word in words:
        assert word in err


def write_impossible(tmp_path: Path) -> Path:
    path = tmp_path / "impossible.nrp"
    save_instance(impossible_instance(), path)
    return path


class TestSolve:
    def test_feasible_instance_exits_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code = main(["solve", str(path), "--max-iters", "200", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "best cost:" in out and "feasible: yes" in out

    def test_impossible_instance_exits_two(self, tmp_path, capsys):
        path = write_impossible(tmp_path)
        code = main(["solve", str(path), "--max-iters", "50"])
        assert code == EXIT_INFEASIBLE
        assert "feasible: no" in capsys.readouterr().out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.nrp")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exits_one_with_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "broken.nrp"
        path.write_text("NRP 1\nn zero\n")
        code = main(["solve", str(path)])
        assert code == EXIT_ERROR
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, word", [
        (["--max-iters", "abc"], "--max-iters"),
        (["--e-mode", "both"], "--e-mode"),
        (["--no-such-flag"], "--no-such-flag"),
        # the random rule's rate is 1 - p1 - p2 and w2 is 1 - w1: neither is a flag
        (["--p3", "0.2"], "--p3"),
        (["--w2", "0.75"], "--w2"),
    ])
    def test_rejected_flag_exits_one_with_one_line(self, tmp_path, capsys, flags, word):
        path = write_instance(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(["solve", str(path), *flags])
        assert exited.value.code == EXIT_ERROR
        assert_one_line_error(capsys, word)

    @pytest.mark.parametrize("flag, value, word", [
        ("--p1", "nan", "finite"),
        ("--p2", "inf", "finite"),
        ("--w1", "nan", "finite"),
        ("--w1", "inf", "finite"),
        ("--wdemand", "nan", "w_demand"),
    ])
    def test_non_finite_value_exits_one_with_one_line(self, tmp_path, capsys, flag, value, word):
        path = write_instance(tmp_path)
        assert main(["solve", str(path), "--max-iters", "10", flag, value]) == EXIT_ERROR
        assert_one_line_error(capsys, word)
        assert "best cost" not in capsys.readouterr().out

    def test_preset_and_overrides_accepted(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        code = main([
            "solve", str(path), "--preset", "elim1-only", "--max-iters", "100",
            "--rm", "0.1", "--p1", "0.5", "--p2", "0.4",
            "--w1", "0.6", "--wdemand", "150", "--e-mode", "shortfall",
        ])
        assert code == EXIT_OK


def gen_graded_instance(tmp_path: Path, g: int = 4) -> Path:
    out_dir = tmp_path / f"g{g}"
    assert main([
        "gen", "--g", str(g), "--n", "6", "--m", "12", "--count", "1",
        "--out-dir", str(out_dir),
    ]) == EXIT_OK
    return out_dir / "inst_000.nrp"


class TestGradeWeights:
    """Instances with more grade bands than the default three weights.

    The last weight covers every band past the list, so these run with
    default flags; --w-grade is a solve and batch flag only.
    """

    @pytest.mark.parametrize("g", [4, 5, 6])
    def test_gen_then_solve_runs_with_default_weights(self, tmp_path, capsys, g):
        path = gen_graded_instance(tmp_path, g)
        code = main(["solve", str(path), "--max-iters", "50"])
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        captured = capsys.readouterr()
        assert "best cost:" in captured.out and not captured.err

    def test_gen_then_solve_with_w_grade(self, tmp_path, capsys):
        path = gen_graded_instance(tmp_path)
        code = main(["solve", str(path), "--max-iters", "50", "--w-grade", "8,4,2,1"])
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert "best cost:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["batch", "--runs", "1", "--max-iters", "10"],
        ["ablate", "--runs", "1", "--budgets", "10", "--presets", "full", "--preset-iters", "10"],
    ], ids=["batch", "ablate"])
    def test_batch_and_ablate_run_with_default_weights(self, tmp_path, capsys, command):
        path = gen_graded_instance(tmp_path)
        out = tmp_path / "out.csv"
        assert main([command[0], str(path), *command[1:], "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("instance,") and lines[1].startswith("inst_000,")
        assert not capsys.readouterr().err

    def test_batch_with_w_grade(self, tmp_path):
        path = gen_graded_instance(tmp_path)
        out = tmp_path / "out.csv"
        flags = ["--runs", "1", "--max-iters", "10", "--out", str(out), "--w-grade", "8,4,2,1"]
        assert main(["batch", str(path), *flags]) == EXIT_OK
        assert out.read_text().startswith("instance,")

    def test_ablate_w_grade_is_an_unknown_flag(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(["ablate", str(path), "--runs", "1", "--w-grade", "8,4,2,1"])
        assert exited.value.code == EXIT_ERROR
        assert_one_line_error(capsys, "--w-grade")

    # each bad value and a phrase of its message, the config's for a parsed
    # number; 1e400 parses as inf
    BAD_W_GRADES = {"8,-1,2": "grade weights must be non-negative and finite",
                    "8,x": "expected numbers",
                    "nan": "grade weights must be non-negative and finite",
                    "1,,2": "expected numbers",
                    "1e400": "grade weights must be non-negative and finite",
                    "inf": "grade weights must be non-negative and finite"}

    @pytest.mark.parametrize("value", list(BAD_W_GRADES))
    def test_bad_w_grade_exits_one_with_one_line(self, tmp_path, capsys, value):
        path = write_instance(tmp_path)
        for command in (["solve"], ["batch", "--runs", "1"]):
            args = [command[0], str(path), *command[1:], f"--w-grade={value}"]
            assert main(args) == EXIT_ERROR
            assert_one_line_error(capsys, "--w-grade", self.BAD_W_GRADES[value])


def write_with_warnings(tmp_path: Path, name="warned.nrp") -> Path:
    """A feasible instance whose pattern 1 works no period and whose demand
    row 0 falls from band 1 to band 2: one parse warning each."""
    path = tmp_path / name
    text = serialize_instance(make_instance(
        [(0,), (1,)],
        [Nurse(0, 1, {0: 5, 1: 0})],
        demand_rows([[0, 0]] * 14),
    ))
    text = text.replace("1 01000000000000", "1 00000000000000")
    path.write_text(text.replace("DEMAND\n0 0\n", "DEMAND\n1 0\n"))
    return path


@pytest.mark.parametrize("command", [["solve"], ["batch", "--runs", "2"]])
def test_parse_warnings_print_one_line_each(tmp_path, capsys, command):
    path = write_with_warnings(tmp_path)
    assert main([command[0], str(path), *command[1:], "--max-iters", "10"]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("warning: ") for line in lines)
    assert "pattern 1 covers no periods" in lines[0]
    assert "demand row 0 is not non-decreasing" in lines[1]


@pytest.mark.parametrize("command", [
    ["solve", "--max-iters", "10"],
    ["batch", "--runs", "1", "--max-iters", "10"],
    ["exact", "--annotate"],
], ids=["solve", "batch", "exact-annotate"])
def test_a_non_cumulative_demand_row_prints_one_warning_naming_its_line(
    tmp_path, capsys, command
):
    # --annotate rebuilds the instance with its optimum, which must not warn again
    path = write_with_warnings(tmp_path)
    path.write_text(path.read_text().replace("1 00000000000000", "1 01000000000000"))
    annotated = [str(tmp_path / "annotated.nrp")] if command[0] == "exact" else []
    assert main([command[0], str(path), *command[1:], *annotated]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert lines[0].endswith(
        "line 9: demand row 0 is not non-decreasing across grade bands;"
        " demands are interpreted as cumulative"
    )


@pytest.mark.parametrize("command", [
    ["batch", "--runs", "1", "--max-iters", "10"],
    ["ablate", "--runs", "1", "--budgets", "10", "--presets", "full", "--preset-iters", "10"],
], ids=["batch", "ablate"])
def test_batch_warnings_name_their_file_once_per_file(tmp_path, capsys, command):
    # two names: a batch refuses two files of one name
    paths = [str(write_with_warnings(tmp_path, f"{name}.nrp")) for name in ("w1", "w2")]
    assert main([command[0], *paths, *command[1:]]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4 and all(line.startswith("warning: ") for line in lines)
    for path, pair in zip(paths, (lines[:2], lines[2:])):
        assert all(line.startswith(f"warning: {path}: ") for line in pair)
        assert "pattern 1 covers no periods" in pair[0]
        assert "demand row 0 is not non-decreasing" in pair[1]


@pytest.mark.parametrize("command", [
    ["batch", "--runs", "1", "--max-iters", "10"],
    ["ablate", "--runs", "1", "--budgets", "10", "--presets", "full", "--preset-iters", "10"],
], ids=["batch", "ablate"])
def test_batch_error_and_warning_lines_come_in_file_order(tmp_path, capsys, command):
    bad = tmp_path / "bad.nrp"
    bad.write_text("not an instance\n")
    paths = [str(bad), str(write_with_warnings(tmp_path))]
    assert main([command[0], *paths, *command[1:]]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ", 2)[:2] for line in lines] == [
        ["error", paths[0]], ["warning", paths[1]], ["warning", paths[1]]]


@pytest.mark.parametrize("command", [
    ["batch", "--runs", "1", "--max-iters", "10"],
    ["ablate", "--runs", "1", "--budgets", "10", "--presets", "full", "--preset-iters", "10"],
], ids=["batch", "ablate"])
def test_a_file_that_warns_then_fails_prints_its_warning_before_its_error(
    tmp_path, capsys, command
):
    # its pattern 1 works no period, and a later line, its first demand row, is garbage
    bad = write_with_warnings(tmp_path)
    bad.write_text(bad.read_text().replace("DEMAND\n1 0\n", "DEMAND\nnot a row\n"))
    good = str(write_instance(tmp_path))
    assert main([command[0], str(bad), good, *command[1:]]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ", 2)[:2] for line in lines] == [
        ["warning", str(bad)], ["error", str(bad)]]
    assert "pattern 1 covers no periods" in lines[0] and "demand row 0" in lines[1]


@pytest.mark.parametrize("command", [["solve"], ["batch", "--runs", "1"]])
def test_optimal_no_roster_can_cost_exits_one_with_one_line(tmp_path, capsys, command):
    path = write_instance(tmp_path)
    path.write_text(path.read_text() + "OPTIMAL 999999\n")
    assert main([command[0], str(path), *command[1:]]) == EXIT_ERROR
    assert_one_line_error(capsys, "OPTIMAL 999999 outside [0, 400]", "line ")


class TestBatch:
    def test_writes_summary_and_per_run_csv(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        out = tmp_path / "stats.csv"
        per_run = tmp_path / "runs.csv"
        code = main([
            "batch", str(path), "--runs", "3", "--max-iters", "100",
            "--out", str(out), "--per-run", str(per_run),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("instance,runs,best")
        assert lines[1].startswith("case,3,")
        assert per_run.read_text().count("\n") == 4  # header + 3 runs

    def test_replay_is_byte_identical(self, tmp_path):
        path = write_instance(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main([
                "batch", str(path), "--runs", "3", "--max-iters", "150",
                "--base-seed", "5", "--out", str(out), "--per-run",
                str(tmp_path / ("runs_" + name)),
            ])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert (tmp_path / "runs_a.csv").read_bytes() == (tmp_path / "runs_b.csv").read_bytes()

    def test_parse_failures_reported_but_batch_continues(self, tmp_path, capsys):
        good = write_instance(tmp_path)
        bad = tmp_path / "bad.nrp"
        bad.write_text("not an instance\n")
        out = tmp_path / "stats.csv"
        code = main(["batch", str(bad), str(good), "--runs", "2",
                     "--max-iters", "50", "--out", str(out)])
        assert code == EXIT_OK
        assert "bad.nrp" in capsys.readouterr().err
        assert "case," in out.read_text()

    def test_no_loadable_instances_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.nrp"
        bad.write_text("garbage\n")
        assert main(["batch", str(bad)]) == EXIT_ERROR

    def test_zero_runs_exits_one_with_one_line(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        assert main(["batch", str(path), "--runs", "0"]) == EXIT_ERROR
        assert_one_line_error(capsys, "--runs")

    def test_zero_max_iters_exits_one_with_one_line(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        assert main(["batch", str(path), "--max-iters", "0"]) == EXIT_ERROR
        assert_one_line_error(capsys, "max_iterations")

    def test_summary_row_recomputes_from_per_run_rows(self, tmp_path):
        # the batch statistics must be a pure function of the per-run results
        paths = [write_instance(tmp_path, f"w{k}.nrp", seed=70 + k) for k in range(3)]
        out = tmp_path / "stats.csv"
        per_run = tmp_path / "runs.csv"
        code = main([
            "batch", *map(str, paths), "--runs", "4", "--max-iters", "300",
            "--out", str(out), "--per-run", str(per_run),
        ])
        assert code == EXIT_OK

        by_instance = {}
        for line in per_run.read_text().strip().split("\n")[1:]:
            name, _seed, cost, feasible, *_ = line.split(",")
            value = float(cost) if feasible == "1" else 255.0
            by_instance.setdefault(name, []).append(value)

        lines = out.read_text().strip().split("\n")
        for row in lines[1:-2]:
            cells = row.split(",")
            values = by_instance[cells[0]]
            assert cells[3] == f"{sum(values) / len(values):.1f}"
        av_mean = sum(sum(v) / len(v) for v in by_instance.values()) / len(by_instance)
        assert lines[-2].split(",")[3] == f"{av_mean:.1f}"


class TestAblate:
    def test_small_matrix(self, tmp_path):
        path = write_instance(tmp_path)
        out = tmp_path / "matrix.csv"
        code = main([
            "ablate", str(path), "--runs", "2", "--budgets", "20", "50",
            "--presets", "full", "construct-only", "--preset-iters", "20",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "instance,iters_20,iters_50,full,construct-only"
        assert lines[-1].startswith("Av.,")

    def test_zero_iteration_budgets_exit_one_with_one_line(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        for flags in (["--preset-iters", "0"], ["--budgets", "50", "0"]):
            assert main(["ablate", str(path), "--runs", "1", *flags]) == EXIT_ERROR
            assert_one_line_error(capsys, "budgets")

    def test_zero_runs_exits_one_with_one_line(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        assert main(["ablate", str(path), "--runs", "0"]) == EXIT_ERROR
        assert_one_line_error(capsys, "runs")

    @pytest.mark.parametrize("flags, words", [
        (["--presets", "full", "full"], ("presets", "full", "twice")),
        (["--budgets", "10", "10"], ("budgets", "10", "twice")),
        (["--budgets", "10", "20", "10", "--presets", "full", "elim2-only", "full"],
         ("presets", "full", "twice")),
    ], ids=["presets", "budgets", "both"])
    def test_a_repeated_column_exits_one_before_loading(
        self, tmp_path, capsys, monkeypatch, flags, words
    ):
        path, out = write_instance(tmp_path), tmp_path / "matrix.csv"
        refuse_runs(monkeypatch)
        command = ["ablate", str(path), "--runs", "1", *flags, "--out", str(out)]
        assert main(command) == EXIT_ERROR
        assert_one_line_error(capsys, *words)
        assert not out.exists()

    def test_no_columns_exits_one_before_loading(self, tmp_path, capsys, monkeypatch):
        path, out = write_instance(tmp_path), tmp_path / "matrix.csv"
        refuse_runs(monkeypatch)
        command = ["ablate", str(path), "--budgets", "--presets", "--out", str(out)]
        assert main(command) == EXIT_ERROR
        assert_one_line_error(capsys, "budgets", "presets")
        assert not out.exists()


class TestExact:
    def test_optimal_exit_and_annotation(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        annotated = tmp_path / "with_opt.nrp"
        code = main(["exact", str(path), "--annotate", str(annotated)])
        assert code == EXIT_OK
        assert "status: optimal" in capsys.readouterr().out
        reloaded = load_instance(annotated)
        assert reloaded.known_optimal == exact_solve(reloaded).optimal_cost

    def test_infeasible_exit(self, tmp_path):
        assert main(["exact", str(write_impossible(tmp_path))]) == EXIT_INFEASIBLE

    def test_timeout_exit(self, tmp_path):
        path = write_instance(tmp_path)
        assert main(["exact", str(path), "--node-budget", "1"]) == EXIT_TIMEOUT

    def test_a_search_too_deep_for_the_stack_exits_as_a_timeout(self, tmp_path, capsys):
        assert main(["exact", str(write_deep_instance(tmp_path))]) == EXIT_TIMEOUT
        captured = capsys.readouterr()
        assert "status: timeout" in captured.out and captured.err == ""

    def test_timeout_reports_at_most_the_budget(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        assert main(["exact", str(path), "--node-budget", "3"]) == EXIT_TIMEOUT
        out = capsys.readouterr().out
        assert "status: timeout" in out and "nodes explored: 3\n" in out

    def test_prints_cut_counters_after_nodes(self, tmp_path, capsys):
        assert main(["exact", str(write_impossible(tmp_path))]) == EXIT_INFEASIBLE
        lines = capsys.readouterr().out.splitlines()
        nodes = next(i for i, line in enumerate(lines) if line.startswith("nodes explored:"))
        assert lines[nodes + 1] == "cost cuts: 0"
        assert lines[nodes + 2] == "coverage cuts: 1"

    def test_node_budget_below_one_exits_one_with_one_line(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        for budget in ("0", "-5"):
            assert main(["exact", str(path), "--node-budget", budget]) == EXIT_ERROR
            assert_one_line_error(capsys, "node_budget")

    def test_prints_the_component_count_after_the_cuts(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        assert main(["exact", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        cuts = next(i for i, line in enumerate(lines) if line.startswith("coverage cuts:"))
        expected = exact_solve(load_instance(path)).components
        assert lines[cuts + 1] == f"components: {expected}"
        assert expected == 2  # a generated instance splits into days and nights

    def test_prints_the_wall_time_after_the_components(self, tmp_path, capsys):
        assert main(["exact", str(write_instance(tmp_path))]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        components = next(i for i, line in enumerate(lines) if line.startswith("components:"))
        assert re.fullmatch(r"wall time: \d+\.\d\ds", lines[components + 1])

    @pytest.mark.parametrize("parent", ["missing", "file", "directory"])
    def test_bad_annotate_directory_exits_before_the_search(
        self, tmp_path, capsys, monkeypatch, parent
    ):
        instance = write_instance(tmp_path)
        where = tmp_path / "missing" if parent == "missing" else instance
        words = (str(where), "not a directory")
        if parent == "directory":  # the annotate path itself is a directory
            where = tmp_path
            (where / "a.nrp").mkdir()
            words = (str(where / "a.nrp"), "is a directory")

        def refuse(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(oracle, "exact_solve", refuse)
        code = main(["exact", str(instance), "--annotate", str(where / "a.nrp")])
        assert code == EXIT_ERROR
        assert_one_line_error(capsys, *words)


@pytest.mark.parametrize("command", [
    ["batch", "{instance}", "--runs", "1", "--max-iters", "10", "--out", "{missing}/x.csv"],
    ["batch", "{instance}", "--runs", "1", "--max-iters", "10", "--per-run", "{missing}/r.csv"],
    ["ablate", "{instance}", "--runs", "1", "--budgets", "10", "--presets", "full",
     "--preset-iters", "10", "--out", "{missing}/m.csv"],
    ["exact", "{instance}", "--annotate", "{missing}/a.nrp"],
    ["gen", "--count", "1", "--out-dir", "{instance}"],
], ids=["batch-out", "batch-per-run", "ablate-out", "exact-annotate", "gen-out-dir"])
def test_unwritable_output_exits_one_with_one_line(tmp_path, capsys, command):
    paths = {"instance": str(write_instance(tmp_path)), "missing": str(tmp_path / "missing")}
    assert main([part.format(**paths) for part in command]) == EXIT_ERROR
    assert_one_line_error(capsys, str(tmp_path))


BATCH_COMMANDS = {
    "batch-out": ["batch", "{instance}", "--runs", "1", "--out", "{parent}/x.csv"],
    "batch-per-run": ["batch", "{instance}", "--runs", "1", "--per-run", "{parent}/r.csv"],
    "ablate-out": ["ablate", "{instance}", "--runs", "1", "--out", "{parent}/m.csv"],
}


def refuse_runs(monkeypatch) -> None:
    """Make loading an instance or starting a batch fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a batch started or an instance was loaded")

    monkeypatch.setattr(harness, "run_batch", refuse)
    monkeypatch.setattr(cli, "load_instance", refuse)


@pytest.mark.parametrize("parent", ["missing", "file", "directory"])
@pytest.mark.parametrize("command", list(BATCH_COMMANDS.values()), ids=list(BATCH_COMMANDS))
def test_bad_output_directory_exits_before_any_run(tmp_path, capsys, monkeypatch, command, parent):
    instance = write_instance(tmp_path)
    paths = {"instance": str(instance), "parent": str(tmp_path / "missing")}
    if parent == "file":
        paths["parent"] = str(instance)
    words = (paths["parent"], "not a directory")
    if parent == "directory":  # the output path itself is a directory
        paths["parent"] = str(tmp_path)
        output = Path(command[-1].format(**paths))
        output.mkdir()
        words = (str(output), "is a directory")
    refuse_runs(monkeypatch)
    assert main([part.format(**paths) for part in command]) == EXIT_ERROR
    assert_one_line_error(capsys, *words)


@pytest.mark.parametrize("command, words", [
    (["batch", "a.nrp", "--out", "./a.nrp"], ["./a.nrp", "instance file a.nrp"]),
    (["batch", "a.nrp", "--out", "r.csv", "--per-run", "./r.csv"], ["./r.csv", "output r.csv"]),
    (["ablate", "a.nrp", "--out", "sub/../a.nrp"], ["sub/../a.nrp", "instance file a.nrp"]),
], ids=["batch-out-input", "batch-per-run-out", "ablate-out-input"])
def test_an_output_that_is_an_input_or_the_other_output_exits_before_any_run(
    tmp_path, capsys, monkeypatch, command, words
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    text = write_instance(tmp_path, "a.nrp").read_text()
    refuse_runs(monkeypatch)
    assert main(command) == EXIT_ERROR
    assert_one_line_error(capsys, "same file", *words)
    assert (tmp_path / "a.nrp").read_text() == text
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", ["batch", "ablate"])
def test_two_inputs_of_one_name_exit_before_any_run(tmp_path, capsys, monkeypatch, command):
    # both would be named inst_000, so their rows could not be told apart
    for folder in ("d1", "d2"):
        (tmp_path / folder).mkdir()
        write_instance(tmp_path / folder, "inst_000.nrp")
    monkeypatch.chdir(tmp_path)
    refuse_runs(monkeypatch)
    out = tmp_path / "r.csv"
    code = main([command, "d1/inst_000.nrp", "d2/inst_000.nrp", "--runs", "1", "--out", str(out)])
    assert code == EXIT_ERROR
    assert_one_line_error(capsys, "d1/inst_000.nrp", "d2/inst_000.nrp", "'inst_000'")
    assert not out.exists()


def test_an_empty_output_path_writes_to_stdout(tmp_path, capsys):
    # "" names the current directory to pathlib, but no path to the commands
    command = ["batch", str(write_instance(tmp_path)), "--runs", "1", "--max-iters", "10"]
    assert main([*command, "--out", ""]) == EXIT_OK
    assert capsys.readouterr().out.startswith(harness.BATCH_CSV_HEADER + "\n")


@pytest.mark.parametrize("value", ["junk", "0", "-2"])
@pytest.mark.parametrize("command", ["batch", "ablate"])
def test_bad_thread_count_exits_before_any_run(tmp_path, capsys, monkeypatch, command, value):
    monkeypatch.setenv("NRP_THREADS", value)
    refuse_runs(monkeypatch)
    assert main([command, str(write_instance(tmp_path)), "--runs", "1"]) == EXIT_ERROR
    assert_one_line_error(capsys, "NRP_THREADS", repr(value))


class TestGen:
    def test_help_names_each_field_and_its_default(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["gen", "--help"])
        assert exited.value.code == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())  # undo the line wrapping
        for f in fields(GeneratorParams):
            assert f"GeneratorParams.{f.name} (default: {f.default})" in text

    def test_zero_count_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "suite"
        assert main(["gen", "--out-dir", str(out_dir), "--count", "0"]) == EXIT_ERROR
        assert_one_line_error(capsys, "--count")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, word", [
        (["--count", "-1"], "--count"),
        (["--count", "2", "--tightness", "0"], "tightness"),
        (["--count", "2", "--feasible-min", "5", "--feasible-max", "2"], "feasible_min"),
        (["--count", "2", "--n", "0"], "n, m and g"),
        (["--count", "2", "--with-optimal", "--node-budget", "0"], "--node-budget"),
        (["--count", "1", "--cost-exponent", "nan"], "cost_exponent"),
    ])
    def test_bad_flags_exit_one_before_writing(self, tmp_path, capsys, flags, word):
        out_dir = tmp_path / "suite"
        assert main(["gen", "--out-dir", str(out_dir), *flags]) == EXIT_ERROR
        assert_one_line_error(capsys, word)
        assert not out_dir.exists()

    def test_same_flags_are_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main([
                "gen", "--out-dir", str(d), "--count", "3", "--seed", "9",
                "--n", "4", "--m", "8", "--g", "2",
            ]) == EXIT_OK
        for k in range(3):
            a = (dirs[0] / f"inst_{k:03d}.nrp").read_bytes()
            b = (dirs[1] / f"inst_{k:03d}.nrp").read_bytes()
            assert a == b

    @pytest.mark.parametrize("flags, params", [
        ([], GeneratorParams()),
        (["--n", "5", "--m", "10", "--g", "2", "--feasible-min", "3", "--feasible-max", "6",
          "--cost-exponent", "1.5", "--tightness", "0.9", "--seed", "4"],
         GeneratorParams(n=5, m=10, g=2, feasible_min=3, feasible_max=6,
                         cost_exponent=1.5, tightness=0.9, seed=4)),
    ], ids=["defaults", "every-flag"])
    def test_flags_map_to_generator_params(self, tmp_path, flags, params):
        out_dir = tmp_path / "suite"
        assert main(["gen", "--out-dir", str(out_dir), "--count", "2", *flags]) == EXIT_OK
        for k in range(2):
            expected = generate_instance(replace(params, seed=params.seed + k))
            text = (out_dir / f"inst_{k:03d}.nrp").read_text(encoding="utf-8")
            assert text == serialize_instance(expected)

    def test_with_optimal_embeds_a_verified_optimum(self, tmp_path):
        out_dir = tmp_path / "suite"
        code = main([
            "gen", "--out-dir", str(out_dir), "--count", "2", "--seed", "13",
            "--n", "4", "--m", "8", "--g", "2", "--with-optimal",
        ])
        assert code == EXIT_OK
        for path in sorted(out_dir.glob("*.nrp")):
            inst = load_instance(path)
            assert inst.known_optimal is not None
            assert exact_solve(inst).optimal_cost == inst.known_optimal

    def test_exact_timeout_during_gen_warns_and_omits_optimal(self, tmp_path, capsys):
        out_dir = tmp_path / "suite"
        code = main([
            "gen", "--out-dir", str(out_dir), "--count", "1", "--seed", "13",
            "--n", "4", "--m", "8", "--g", "2", "--with-optimal",
            "--node-budget", "1",
        ])
        assert code == EXIT_OK
        assert "timeout" in capsys.readouterr().err
        assert load_instance(out_dir / "inst_000.nrp").known_optimal is None

    def test_a_search_too_deep_for_the_stack_during_gen_warns_and_omits_optimal(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "suite"
        code = main([
            "gen", "--out-dir", str(out_dir), "--count", "1", "--n", "2600", "--m", "12",
            "--g", "1", "--with-optimal",
        ])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert err == (
            "warning: instance 0: exact solve ended with timeout; written without OPTIMAL\n"
        )
        written = out_dir / "inst_000.nrp"
        assert load_instance(written).known_optimal is None
        assert written.read_bytes() == write_deep_instance(tmp_path).read_bytes()


def _config(**fields) -> SolverConfig:
    return SolverConfig(max_iterations=50_000, seed=7, **fields)


FLAG_SPECS = {
    "full": (["--preset", "full"], RunSpec(_config())),
    "elim1-fixed05": (["--preset", "elim1-fixed05"],
                      RunSpec(_config(elim=EliminationConfig(fixed_threshold=0.5)))),
    "elim1-only": (["--preset", "elim1-only"],
                   RunSpec(_config(elim=EliminationConfig(enable_random_elim=False)))),
    "elim2-only": (["--preset", "elim2-only"],
                   RunSpec(_config(elim=EliminationConfig(enable_fitness_elim=False)))),
    "cover-only": (["--preset", "cover-only"],
                   RunSpec(_config(recon=ReconstructionConfig(p1=1.0, p2=0.0)))),
    "combined-only": (["--preset", "combined-only"],
                      RunSpec(_config(recon=ReconstructionConfig(p1=0.0, p2=1.0)))),
    "construct-only": (["--preset", "construct-only"],
                       RunSpec(_config(), construction_only=True)),
    "rm-fixed-rs": (["--rm", "0.1", "--fixed-rs", "0.3"],
                    RunSpec(_config(elim=EliminationConfig(r_m=0.1, fixed_threshold=0.3)))),
    "rules-e-mode": (["--p1", "0.5", "--p2", "0.3", "--e-mode", "shortfall"],
                     RunSpec(_config(recon=ReconstructionConfig(p1=0.5, p2=0.3,
                                                                e_mode="shortfall")))),
    "w1": (["--w1", "0.25"], RunSpec(_config(eval_weights=EvalWeights(w1=0.25)))),
    "wdemand": (["--wdemand", "150"], RunSpec(_config(eval_weights=EvalWeights(w_demand=150.0)))),
    "w-grade": (["--w-grade", "4,2,1"],
                RunSpec(_config(recon=ReconstructionConfig(w_grade=(4.0, 2.0, 1.0))))),
    "no-stop": (["--no-stop-at-optimal"], RunSpec(_config(stop_at_known_optimal=False))),
    "all-on-elim1-only": (
        ["--preset", "elim1-only", "--max-iters", "123", "--rm", "0.1", "--fixed-rs", "0.3",
         "--p1", "0.5", "--p2", "0.3", "--e-mode", "shortfall",
         "--w1", "0.25", "--wdemand", "150", "--w-grade", "4,2,1",
         "--no-stop-at-optimal"],
        RunSpec(SolverConfig(
            max_iterations=123,
            seed=7,
            eval_weights=EvalWeights(w1=0.25, w_demand=150.0),
            elim=EliminationConfig(r_m=0.1, fixed_threshold=0.3, enable_random_elim=False),
            recon=ReconstructionConfig(p1=0.5, p2=0.3, e_mode="shortfall",
                                       w_grade=(4.0, 2.0, 1.0)),
            stop_at_known_optimal=False,
        )),
    ),
}


@pytest.mark.parametrize("flags, expected", list(FLAG_SPECS.values()), ids=list(FLAG_SPECS))
def test_flags_build_the_expected_spec(flags, expected):
    args = build_parser().parse_args(["solve", "x.nrp", *flags])
    assert _build_spec(args, 7) == expected
