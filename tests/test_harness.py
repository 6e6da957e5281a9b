import os
import pickle
import random

import pytest

import nrp.harness as harness_module
from nrp.harness import (
    AblationSpec,
    CENSOR_COST,
    PRESET_NAMES,
    ablation_csv,
    batch_csv,
    censored_cost,
    compute_batch_stats,
    execute,
    preset_spec,
    run_batch,
    run_csv_row,
    worker_count,
)
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import Instance, Roster, is_feasible
from nrp.oracle import INFEASIBLE, OPTIMAL, exact_solve
from nrp.solver import RunResult, SolverConfig, run

from bruteforce import penalized_cost_by_definition
from conftest import leftover_garbage


def fake_result(cost, feasible, seed=0):
    return RunResult(
        best_roster=Roster([0]),
        best_feasible=feasible,
        iterations_executed=10,
        wall_time=0.01,
        seed=seed,
        trajectory=[(0, cost + 10), (3, cost)],
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

    def test_no_stats_raise_value_error(self):
        with pytest.raises(ValueError, match="at least one"):
            batch_csv([])

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
        params = GeneratorParams(n=4, m=8, g=2, seed=54)
        spec = preset_spec("full", max_iterations=50)

        def rows(inst, threads):
            batch = run_batch(inst, spec, 4, base_seed=0, threads=threads)
            return [run_csv_row("x", r) for r in batch]

        # sequential first: the workers get the tables its runs built
        inst = generate_instance(params)
        seq = rows(inst, 1)
        assert rows(inst, 2) == seq
        # pooled first, on an instance whose tables were never read: the batch
        # builds them once before the pool starts, so every worker receives them
        inst = generate_instance(params)
        assert "_search_tables" not in vars(inst)
        par = rows(inst, 2)
        assert "_search_tables" in vars(inst)
        assert par == rows(inst, 1) == seq

    def test_a_pooled_batch_pickles_the_instance_at_most_once_per_worker(self, monkeypatch):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=56))
        spec = preset_spec("full", max_iterations=20)
        seq = [run_csv_row("x", r) for r in run_batch(inst, spec, 8, base_seed=0, threads=1)]
        pickled = []

        def getstate(self):
            pickled.append(self)
            return self.__dict__

        monkeypatch.setattr(Instance, "__getstate__", getstate, raising=False)
        assert pickle.loads(pickle.dumps(inst)) == inst and len(pickled) == 1  # it counts
        pickled.clear()
        # 8 runs on 2 workers: a copy sent with each task would make 8 pickles
        par = [run_csv_row("x", r) for r in run_batch(inst, spec, 8, base_seed=0, threads=2)]
        assert len(pickled) <= 2
        assert par == seq

    @pytest.mark.parametrize("threads", [0, -4])
    def test_fewer_than_one_thread_raises(self, monkeypatch, threads):
        def refuse(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness_module, "execute", refuse)
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=52))
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_batch(inst, preset_spec("full", max_iterations=20), 4, base_seed=0, threads=threads)

    def test_a_run_and_a_sequential_batch_leave_no_cyclic_garbage(self):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=55))
        assert leftover_garbage(lambda: run(inst, SolverConfig(max_iterations=50))) == 0
        spec = preset_spec("full", max_iterations=50)
        assert leftover_garbage(lambda: run_batch(inst, spec, 3, base_seed=0, threads=1)) == 0

    def test_worker_count_reads_environment(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("NRP_THREADS", "3")
        assert worker_count() == 3
        for value in ("junk", "0", "-2"):
            monkeypatch.setenv("NRP_THREADS", value)
            with pytest.raises(ValueError, match="NRP_THREADS"):
                worker_count()
        monkeypatch.delenv("NRP_THREADS")
        assert worker_count() == 1

    def test_worker_count_is_capped_at_the_cpu_count(self, monkeypatch):
        monkeypatch.setenv("NRP_THREADS", "100000")
        assert 1 <= worker_count() <= (os.cpu_count() or 1)
        if hasattr(os, "sched_getaffinity"):
            assert worker_count() == len(os.sched_getaffinity(0))

    def test_worker_count_is_capped_at_the_cpus_the_process_may_run_on(self, monkeypatch):
        # as under `taskset -c 0` on a two-CPU machine: one of the two is allowed
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("NRP_THREADS", "2")
        assert worker_count() == 1

    def test_worker_count_falls_back_to_the_cpu_count(self, monkeypatch):
        # a platform without an affinity set, as macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("NRP_THREADS", "4")
        assert worker_count() == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
        assert worker_count() == 1


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

    def test_no_instances_raise_value_error(self):
        with pytest.raises(ValueError, match="at least one"):
            ablation_csv([], AblationSpec(runs=1, budgets=(10,), presets=()))

    @staticmethod
    def count_batches(monkeypatch, batch=run_batch) -> list:
        """Record the spec of each run_batch call ablation_csv makes."""
        specs = []

        def counted(instance, run_spec, *args):
            specs.append(run_spec)
            return batch(instance, run_spec, *args)

        monkeypatch.setattr(harness_module, "run_batch", counted)
        return specs

    def test_equal_columns_share_one_batch(self, monkeypatch):
        """The full preset column at 40 iterations repeats iters_40: it is
        run once per instance, and the CSV is byte-identical to the one
        computed column by column."""
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=55))
        spec = AblationSpec(presets=("full", "cover-only", "construct-only"),
                            budgets=(20, 40), preset_iterations=40, runs=3, base_seed=5)
        named = [("a", inst), ("b", generate_instance(GeneratorParams(n=5, m=9, g=3, seed=56)))]
        specs = self.count_batches(monkeypatch)
        text = ablation_csv(named, spec)
        assert len(specs) == 2 * 4 and len(set(specs)) == 4
        # the reference: every column run on its own, as the matrix is defined
        columns = [(f"iters_{b}", preset_spec("full", b)) for b in spec.budgets]
        columns += [(p, preset_spec(p, spec.preset_iterations)) for p in spec.presets]
        lines = ["instance," + ",".join(name for name, _ in columns)]
        totals = [0.0] * len(columns)
        for name, instance in named:
            cells = []
            for idx, (_, run_spec) in enumerate(columns):
                results = run_batch(instance, run_spec, spec.runs, spec.base_seed)
                mean = sum(censored_cost(r) for r in results) / len(results)
                totals[idx] += mean
                cells.append(f"{mean:.1f}")
            lines.append(name + "," + ",".join(cells))
        lines.append("Av.," + ",".join(f"{t / len(named):.1f}" for t in totals))
        assert text == "\n".join(lines) + "\n"

    def test_the_default_matrix_runs_eleven_of_its_twelve_columns(self, monkeypatch):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=55))

        def no_run(instance, run_spec, runs, base_seed):
            return [fake_result(7, True, seed=base_seed + k) for k in range(runs)]

        specs = self.count_batches(monkeypatch, no_run)
        text = ablation_csv([("a", inst)], AblationSpec(runs=2))
        assert text.splitlines()[0].count(",") == 12 and len(specs) == 11
        assert specs.count(preset_spec("full", 50_000)) == 1


# every shape at every grade count 1..6: the smallest instance, one pattern,
# one nurse, one feasible pattern each, the default shape and a tight one
DOMAIN_SHAPES = (
    dict(n=1, m=1, feasible_min=1, feasible_max=1),
    dict(n=1, m=4),
    dict(n=5, m=1, feasible_min=1, feasible_max=1),
    dict(n=7, m=10, feasible_min=1, feasible_max=1),
    dict(),
    dict(n=8, m=14, feasible_min=3, feasible_max=5, tightness=1.0),
)


@pytest.mark.parametrize("g", range(1, 7))
def test_generator_domain_runs_through_the_solver_and_the_oracle(g):
    for k, shape in enumerate(DOMAIN_SHAPES):
        instance = generate_instance(GeneratorParams(g=g, seed=100 * g + k, **shape))
        exact = exact_solve(instance, node_budget=2000)
        for name in PRESET_NAMES:  # "full" is solver.run, "construct-only" its one pass
            spec = preset_spec(name, max_iterations=30, seed=k)
            result = execute(instance, spec)
            roster = result.best_roster
            assert penalized_cost_by_definition(instance, roster, spec.config.eval_weights) == (
                result.best_cost
            )
            assert is_feasible(instance, roster) == result.best_feasible
            if exact.status == OPTIMAL and result.best_feasible:
                assert result.best_cost >= exact.optimal_cost
            assert not (exact.status == INFEASIBLE and result.best_feasible)
