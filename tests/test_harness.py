import os
import random
from dataclasses import replace

import pytest

from nrp.harness import (
    AblationSpec,
    CENSOR_COST,
    PRESET_NAMES,
    ablation_csv,
    batch_csv,
    censored_cost,
    compute_batch_stats,
    execute,
    execute_many,
    preset_spec,
    run_batch,
    run_csv_row,
    worker_count,
)
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import Nurse, Roster
from nrp.solver import RunResult

from conftest import demand_rows, make_instance, pattern


def fake_result(cost, feasible, seed=0):
    return RunResult(
        best_cost=cost,
        best_roster=Roster([0]),
        best_feasible=feasible,
        iterations_executed=10,
        iteration_of_best=3,
        wall_time=0.01,
        seed=seed,
    )


def impossible_instance():
    """Demand two nurses where only one exists."""
    return make_instance(
        [pattern(0, 0)],
        [Nurse(0, 1, (0,), {0: 5})],
        demand_rows([[2]] + [[0]] * 13),
    )


class TestPresets:
    def test_every_preset_builds_and_runs(self):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=50))
        for name in PRESET_NAMES:
            spec = preset_spec(name, max_iterations=30, seed=1)
            result = execute(inst, spec)
            assert result.best_roster.is_complete()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_spec("annealing")

    def test_construct_only_does_not_iterate(self):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=51))
        result = execute(inst, preset_spec("construct-only", seed=1))
        assert result.iterations_executed == 0

    def test_fixed_threshold_preset_sets_half(self):
        spec = preset_spec("elim1-fixed05")
        assert spec.config.elim.fixed_threshold == 0.5


class TestBatchStats:
    def test_all_infeasible_runs_mean_the_censor_value(self):
        results = [fake_result(400.0, False) for _ in range(5)]
        stats = compute_batch_stats("x", None, results)
        assert stats.mean_censored == CENSOR_COST
        assert stats.best == CENSOR_COST
        assert stats.inf_count == 5

    def test_every_run_optimal_counts_fully(self):
        results = [fake_result(8.0, True) for _ in range(4)]
        stats = compute_batch_stats("x", 8, results)
        assert stats.optimal_count == 4
        assert stats.within3_count == 4
        assert stats.best == 8.0

    def test_within3_accepts_small_gaps_only(self):
        results = [fake_result(c, True) for c in (8.0, 10.0, 11.0, 12.0)]
        stats = compute_batch_stats("x", 8, results)
        assert stats.optimal_count == 1
        assert stats.within3_count == 3  # 8, 10, 11 but not 12

    def test_counts_need_a_known_optimum(self):
        stats = compute_batch_stats("x", None, [fake_result(8.0, True)])
        assert stats.optimal_count is None
        assert stats.within3_count is None

    def test_censoring_only_applies_to_infeasible_runs(self):
        # a feasible run costing more than the censor value keeps its cost
        assert censored_cost(fake_result(300.0, True)) == 300.0
        assert censored_cost(fake_result(300.0, False)) == CENSOR_COST

    def test_counts_never_exceed_runs(self):
        rng = random.Random(0)
        for _ in range(50):
            results = [
                fake_result(float(rng.randint(5, 20)), rng.random() < 0.8)
                for _ in range(rng.randint(1, 10))
            ]
            stats = compute_batch_stats("x", 9, results)
            assert 0 <= stats.optimal_count <= stats.within3_count <= stats.runs


class TestBatchCsv:
    def test_summary_rows_recompute_from_instance_rows(self):
        stats = [
            compute_batch_stats("a", 10, [fake_result(10.0, True), fake_result(12.0, True)]),
            compute_batch_stats("b", 20, [fake_result(25.0, True), fake_result(200.0, False)]),
        ]
        text = batch_csv(stats)
        lines = text.strip().split("\n")
        assert lines[0] == "instance,runs,best,mean_censored,inf,optimal_count,within3"
        av = lines[-2].split(",")
        best_mean = (10.0 + 25.0) / 2
        mean_mean = (11.0 + (25.0 + 255.0) / 2) / 2
        assert av[0] == "Av."
        assert av[2] == f"{best_mean:.1f}"
        assert av[3] == f"{mean_mean:.1f}"
        pct = lines[-1].split(",")
        opt_mean = 15.0
        assert pct[0] == "%"
        assert pct[2] == f"{100 * (best_mean - opt_mean) / opt_mean:.1f}"

    def test_csv_is_byte_stable(self):
        stats = [compute_batch_stats("a", 5, [fake_result(5.0, True)])]
        assert batch_csv(stats) == batch_csv(stats)

    def test_per_run_row_is_byte_stable_and_excludes_wall_time(self):
        a = fake_result(8.0, True, seed=3)
        b = fake_result(8.0, True, seed=3)
        b.wall_time = 99.9
        assert run_csv_row("x", a) == run_csv_row("x", b)


class TestRunBatch:
    def test_seed_schedule_is_base_plus_index(self):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=52))
        results = run_batch(inst, preset_spec("full", max_iterations=20), 4, base_seed=7)
        assert [r.seed for r in results] == [7, 8, 9, 10]

    def test_batch_is_reproducible(self):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=53))
        spec = preset_spec("full", max_iterations=50)
        a = run_batch(inst, spec, 3, base_seed=0)
        b = run_batch(inst, spec, 3, base_seed=0)
        assert [run_csv_row("x", r) for r in a] == [run_csv_row("x", r) for r in b]

    def test_parallel_execution_matches_sequential(self):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=54))
        spec = preset_spec("full", max_iterations=50)
        jobs = [
            (inst, replace(spec, config=replace(spec.config, seed=s))) for s in range(4)
        ]
        seq = execute_many(jobs, threads=1)
        par = execute_many(jobs, threads=2)
        assert [run_csv_row("x", r) for r in seq] == [run_csv_row("x", r) for r in par]

    def test_worker_count_reads_environment(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("NRP_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("NRP_THREADS", "junk")
        assert worker_count() == 1
        monkeypatch.delenv("NRP_THREADS")
        assert worker_count() == 1

    def test_worker_count_is_capped_at_the_cpu_count(self, monkeypatch):
        monkeypatch.setenv("NRP_THREADS", "100000")
        assert 1 <= worker_count() <= (os.cpu_count() or 1)


class TestAblationCsv:
    def test_matrix_shape_and_average_row(self):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=55))
        spec = AblationSpec(
            presets=("full", "construct-only"),
            budgets=(20, 40),
            preset_iterations=20,
            runs=2,
            base_seed=0,
        )
        text = ablation_csv([("a", inst), ("b", inst)], spec)
        lines = text.strip().split("\n")
        assert lines[0] == "instance,iters_20,iters_40,full,construct-only"
        assert len(lines) == 4  # header, two instances, Av.
        assert lines[-1].startswith("Av.,")
        cells = [line.split(",") for line in lines[1:]]
        for idx in range(1, 5):
            av = sum(float(row[idx]) for row in cells[:-1]) / 2
            assert float(cells[-1][idx]) == pytest.approx(av, abs=0.051)
