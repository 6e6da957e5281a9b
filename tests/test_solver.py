import copy
import hashlib
import itertools
import pickle
import random
from dataclasses import replace

import pytest

import nrp.eliminate as eliminate_module
import nrp.evaluate as evaluate_module
import nrp.reconstruct as reconstruct_module
import nrp.solver as solver_module
from nrp.eliminate import EliminationConfig, eliminate_at_random, eliminate_by_fitness
from nrp.evaluate import EvalWeights, component_fitness_all, penalized_cost
from nrp.harness import PRESET_NAMES, preset_spec, run_batch, run_csv_row
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import (
    CoverageState,
    Nurse,
    Roster,
    compute_coverage,
    is_feasible,
    preference_cost,
)
from nrp.oracle import OPTIMAL, exact_solve
from nrp.reconstruct import E_MODES, ReconstructionConfig, reconstruct
from nrp.solver import (
    RunResult,
    SolverConfig,
    initial_roster,
    run,
    run_construction_only,
)

from bruteforce import penalized_cost_by_definition
from conftest import (
    count_solver_calls,
    demand_rows,
    flat_demand,
    make_instance,
    repair,
)
from suite import build_desk_suite


def result_fields(result: RunResult):
    """Everything except wall_time, which legitimately varies between runs."""
    return (
        result.best_cost,
        result.best_roster.assignment,
        result.best_feasible,
        result.iterations_executed,
        result.iteration_of_best,
        result.seed,
        result.trajectory,
    )


class TestInitialRoster:
    def test_singleton_feasible_sets_force_the_unique_roster(self):
        patterns = [(0,), (1,)]
        nurses = [Nurse(0, 1, {0: 0}), Nurse(1, 1, {1: 0})]
        inst = make_instance(patterns, nurses, flat_demand(1))
        roster = initial_roster(inst, random.Random(0))
        assert roster.assignment == [0, 1]

    def test_same_seed_same_roster(self):
        inst = generate_instance(GeneratorParams(n=8, m=12, g=3, seed=10))
        a = initial_roster(inst, random.Random(42))
        b = initial_roster(inst, random.Random(42))
        assert a.assignment == b.assignment

    def test_choices_are_uniform_over_feasible_sets(self):
        inst = generate_instance(GeneratorParams(n=4, m=10, g=2, feasible_min=3, seed=11))
        rng = random.Random(1)
        trials = 10_000
        counts = [dict.fromkeys(n.feasible, 0) for n in inst.nurses]
        for _ in range(trials):
            roster = initial_roster(inst, rng)
            for i, j in enumerate(roster.assignment):
                counts[i][j] += 1
        for i, nurse in enumerate(inst.nurses):
            expected = 1 / len(nurse.feasible)
            for j in nurse.feasible:
                assert counts[i][j] / trials == pytest.approx(expected, abs=0.02)


class TestRun:
    def test_single_iteration_equals_one_eliminate_reconstruct_pass(self):
        inst = generate_instance(GeneratorParams(n=5, m=10, g=2, seed=20))
        result = run(inst, SolverConfig(max_iterations=1, seed=3))
        assert result.iterations_executed == 1
        assert result.iteration_of_best in (0, 1)
        assert result.best_cost == penalized_cost_by_definition(
            inst, result.best_roster, EvalWeights())

    def test_forced_instance_resolves_at_iteration_zero(self):
        patterns = [(0,)]
        nurses = [Nurse(0, 1, {0: 9})]
        inst = make_instance(patterns, nurses, demand_rows([[1]] + [[0]] * 13))
        result = run(inst, SolverConfig(max_iterations=50, seed=0))
        assert result.iteration_of_best == 0
        assert result.best_cost == 9.0
        assert result.best_feasible

    def test_deterministic_replay(self):
        inst = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=30))
        config = SolverConfig(max_iterations=300, seed=17)
        assert result_fields(run(inst, config)) == result_fields(run(inst, config))

    def test_best_cost_is_monotone_along_trajectory(self):
        # one entry at t = 0, then one per improvement of the best cost
        inst = generate_instance(GeneratorParams(n=6, m=12, g=3, tightness=1.0, seed=31))
        result = run(inst, SolverConfig(max_iterations=2500, seed=5))
        times = [t for t, _ in result.trajectory]
        costs = [cost for _, cost in result.trajectory]
        assert times[0] == 0
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert result.trajectory[-1] == (result.iteration_of_best, result.best_cost)

    def test_result_invariants_hold(self):
        inst = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=32))
        result = run(inst, SolverConfig(max_iterations=200, seed=7))
        assert result.best_cost == penalized_cost_by_definition(
            inst, result.best_roster, EvalWeights())
        assert result.best_feasible == is_feasible(inst, result.best_roster)

    def test_stops_early_at_known_optimal(self):
        inst = generate_instance(GeneratorParams(n=5, m=10, g=2, seed=33))
        optimum = exact_solve(inst).optimal_cost
        annotated = replace(inst, known_optimal=optimum)
        result = run(annotated, SolverConfig(max_iterations=5000, seed=2))
        assert result.best_feasible and result.best_cost == optimum
        assert result.iterations_executed == result.iteration_of_best

    def test_early_stop_can_be_disabled(self):
        inst = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=34))
        optimum = exact_solve(inst).optimal_cost
        annotated = replace(inst, known_optimal=optimum)
        result = run(annotated, SolverConfig(max_iterations=100, seed=2, stop_at_known_optimal=False))
        assert result.iterations_executed == 100

    def test_disabled_eliminations_freeze_the_roster(self):
        inst = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=35))
        config = SolverConfig(
            max_iterations=50,
            seed=9,
            elim=EliminationConfig(enable_fitness_elim=False, enable_random_elim=False),
        )
        result = run(inst, config)
        assert result.iteration_of_best == 0  # nothing ever changes after init

    def test_budget_prefix_property(self):
        # a longer run extends a shorter one with the same seed, so its best
        # can only be equal or better
        inst = generate_instance(GeneratorParams(n=6, m=12, g=3, tightness=1.0, seed=36))
        for seed in range(5):
            short = run(inst, SolverConfig(max_iterations=100, seed=seed))
            long = run(inst, SolverConfig(max_iterations=400, seed=seed))
            assert long.best_cost <= short.best_cost

    def test_finds_oracle_optimum_on_tiny_instances(self):
        # small sanity version of the full acceptance sweep
        hits = 0
        pairs = 0
        for inst in build_desk_suite(10, seed0=6100):
            for run_seed in range(3):
                pairs += 1
                result = run(inst, SolverConfig(max_iterations=5000, seed=run_seed))
                if result.best_feasible and result.best_cost == inst.known_optimal:
                    hits += 1
        assert hits / pairs >= 0.9

    def test_incremental_state_matches_a_recomputation(self, monkeypatch):
        # the loop releases nurses from the state and reconstruct places its
        # picks on it, both in place; every repair receives the state as
        # coverage=, so check it there against a fresh count, on the way in
        # and after the repair, and check the starting state too.  An
        # iteration that releases no one makes no repair, so also check the
        # state once per iteration against the fitness elimination's input,
        # the complete roster it holds at the top of the iteration
        starts = calls = iterations = released = 0
        current = {}

        def recount(instance, roster, weights, coverage):
            coverage.check(roster)  # rest, costs and cost against a recount
            fresh = compute_coverage(instance, roster)
            assert coverage.total_shortfall() == fresh.total_shortfall()
            if roster.is_complete():
                cost = penalized_cost(roster, weights, coverage)
                recomputed = (
                    preference_cost(instance, roster)
                    + weights.w_demand * fresh.total_shortfall()
                )
                assert cost == recomputed

        def started(instance, roster):
            nonlocal starts
            starts += 1
            state = compute_coverage(instance, roster)
            recount(instance, roster, EvalWeights(), state)
            current.update(instance=instance, state=state)
            return state

        def by_fitness(roster, fitness, config, rng):
            nonlocal iterations
            iterations += 1
            assert roster.is_complete()
            recount(current["instance"], roster, EvalWeights(), current["state"])
            return eliminate_by_fitness(roster, fitness, config, rng)

        def at_random(roster, config, rng):
            nonlocal released
            result = eliminate_at_random(roster, config, rng)
            released += not result.is_complete()
            return result

        def checked(instance, roster, config, rng, coverage, memo):
            nonlocal calls
            calls += 1
            recount(instance, roster, EvalWeights(), coverage)
            result = reconstruct(instance, roster, config, rng, coverage, memo)
            recount(instance, result, EvalWeights(), coverage)
            return result

        monkeypatch.setattr("nrp.solver.compute_coverage", started)
        monkeypatch.setattr("nrp.solver.reconstruct", checked)
        monkeypatch.setattr("nrp.solver.eliminate_by_fitness", by_fitness)
        monkeypatch.setattr("nrp.solver.eliminate_at_random", at_random)
        suite = build_desk_suite(8)
        for e_mode in E_MODES:
            config = SolverConfig(
                max_iterations=300,
                recon=ReconstructionConfig(e_mode=e_mode),
                stop_at_known_optimal=False,
            )
            for inst in suite:
                for seed in range(3):
                    run(inst, replace(config, seed=seed))
        assert starts == len(E_MODES) * len(suite) * 3
        assert iterations == len(E_MODES) * len(suite) * 3 * 300
        # one repair per iteration that released a nurse, and only then
        assert 0 < calls == released < iterations

    @pytest.mark.parametrize("params", [
        GeneratorParams(n=6, m=12, g=3, seed=11005),
        GeneratorParams(n=30, m=411, g=3, feasible_min=75, feasible_max=150, seed=1),
    ], ids=["desk", "ward"])
    def test_the_loop_never_sums_the_roster_cost_again(self, monkeypatch, params):
        """penalized_cost reads the state's kept cost, so the loop never
        calls preference_cost: no module of the loop imports it, and a call
        through nrp.model raises."""
        instance = generate_instance(params)
        expected = run(instance, SolverConfig(max_iterations=300, stop_at_known_optimal=False))

        def summed(*args):
            raise AssertionError("preference_cost called in the solver loop")

        for module in (solver_module, evaluate_module, eliminate_module, reconstruct_module):
            assert not hasattr(module, "preference_cost"), module.__name__
        monkeypatch.setattr("nrp.model.preference_cost", summed)
        result = run(instance, SolverConfig(max_iterations=300, stop_at_known_optimal=False))
        assert result_fields(result) == result_fields(expected)
        assert result.iterations_executed == 300

    def test_results_survive_pickle_and_deepcopy(self, week_instance):
        result = run(week_instance, SolverConfig(max_iterations=50, seed=3))
        for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert result_fields(copied) == result_fields(result)
            assert copied.best_roster is not result.best_roster
            assert copied.best_roster.assignment is not result.best_roster.assignment
        roster = Roster([0, None, 2])
        for copied in (pickle.loads(pickle.dumps(roster)), copy.deepcopy(roster)):
            assert copied == roster and not hasattr(copied, "__dict__")


@pytest.mark.parametrize("params", [
    GeneratorParams(n=6, m=12, g=3, seed=15),
    GeneratorParams(n=30, m=411, g=3, feasible_min=75, feasible_max=150, seed=1),
], ids=["desk", "ward"])
def test_the_loop_never_calls_add(monkeypatch, params):
    """Only the starting roster enters the coverage state through
    CoverageState.add; reconstruct writes its picks back itself.  An add
    made once the run's state exists raises."""
    instance = generate_instance(params)
    started, add = [], CoverageState.add

    def add_before_the_loop(state, i, j):
        if started:
            raise AssertionError(f"CoverageState.add({i}, {j}) inside the loop")
        add(state, i, j)

    def start(instance, roster):
        state = compute_coverage(instance, roster)
        started.append(state)
        return state

    monkeypatch.setattr(CoverageState, "add", add_before_the_loop)
    monkeypatch.setattr(solver_module, "compute_coverage", start)
    result = run(instance, SolverConfig(max_iterations=300, seed=4))
    assert len(started) == 1 and result.iterations_executed == 300


@pytest.mark.parametrize("params", [
    GeneratorParams(n=6, m=12, g=3, seed=15),
    GeneratorParams(n=30, m=411, g=3, feasible_min=75, feasible_max=150, seed=1),
], ids=["desk", "ward"])
def test_the_loop_never_calls_remove(monkeypatch, params):
    """The loop releases nurses on local copies of the coverage and writes
    them back once per iteration, so CoverageState.remove is never called."""
    instance = generate_instance(params)

    def remove(state, i, j):
        raise AssertionError(f"CoverageState.remove({i}, {j}) inside the loop")

    monkeypatch.setattr(CoverageState, "remove", remove)
    result = run(instance, SolverConfig(max_iterations=300, seed=4))
    assert result.iterations_executed == 300


@pytest.mark.parametrize("step", ["fitness", "random", "reconstruct"])
def test_each_step_returns_a_new_roster_and_keeps_its_input(step):
    """perfbench's shims count the Nones of each step's input and output
    rosters after the call, so each step must return a new Roster with its
    own list and leave its input's list as it was."""
    instance = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=15))
    rng = random.Random(5)
    for trial in range(40):
        roster = initial_roster(instance, rng)
        # the later steps take partial rosters: none, some or all released
        if step == "random":
            fitness = [trial % 3 / 2] * instance.n
            roster = eliminate_by_fitness(roster, fitness, EliminationConfig(fixed_threshold=0.5), rng)
        elif step == "reconstruct":
            roster = eliminate_at_random(roster, EliminationConfig(r_m=trial % 4 / 3), rng)
        assignment, before = roster.assignment, roster.assignment[:]
        if step == "fitness":
            fitness = component_fitness_all(instance, roster, EvalWeights(),
                                            compute_coverage(instance, roster))
            result = eliminate_by_fitness(roster, fitness, EliminationConfig(), rng)
        elif step == "random":
            result = eliminate_at_random(roster, EliminationConfig(r_m=0.3), rng)
        else:
            result = repair(instance, roster, ReconstructionConfig(), rng)
        assert type(result) is Roster and result is not roster
        assert result.assignment is not assignment
        assert roster.assignment is assignment and assignment == before


def test_a_run_that_releases_no_one_keeps_its_start(monkeypatch):
    """With the fitness elimination off and r_m = 0 no iteration releases a
    nurse, so after the start the loop never repairs and never sums the
    shortfall again, and the result is the start roster's."""
    instance = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=15))
    starts = []

    def started(instance, rng):
        roster = initial_roster(instance, rng)
        starts.append((penalized_cost_by_definition(instance, roster, EvalWeights()), roster.copy(),
                       is_feasible(instance, roster)))
        return roster

    calls = count_solver_calls(monkeypatch)
    monkeypatch.setattr(solver_module, "initial_roster", started)
    elim = EliminationConfig(r_m=0.0, enable_fitness_elim=False)
    for seed in range(3):
        result = run(instance, SolverConfig(max_iterations=200, seed=seed, elim=elim))
        cost, roster, feasible = starts[-1]
        assert result_fields(result) == (
            cost, roster.assignment, feasible, 200, 0, seed, [(0, cost)],
        )
    # one penalized cost per run, the start's
    assert calls == {"reconstruct": 0, "penalized_cost": 3}


def gain_cases():
    """(name, instance, iterations, seeds): desk instances with and without a
    known optimum, one desk instance at each g = 1-6, and the ward."""
    desk = generate_instance(GeneratorParams(n=5, m=10, g=2, seed=33))
    yield "desk-optimum", replace(desk, known_optimal=exact_solve(desk).optimal_cost), 300, 3
    yield "desk", generate_instance(GeneratorParams(n=6, m=12, g=3, tightness=1.0, seed=31)), 300, 3
    for g in range(1, 7):
        yield f"g{g}", generate_instance(GeneratorParams(n=6, m=12, g=g, seed=13000 + g)), 300, 2
    ward = GeneratorParams(n=30, m=411, g=3, feasible_min=75, feasible_max=150, seed=1)
    yield "ward", generate_instance(ward), 60, 1


@pytest.mark.parametrize("w_demand", [200.0, 0.5, 1e-9])
@pytest.mark.parametrize("e_mode", E_MODES)
def test_no_gain_is_skipped(monkeypatch, e_mode, w_demand):
    """The loop repairs only an iteration that released a nurse, and sums
    the shortfall only when the kept preference cost plus w_demand per short
    cell beats the best.  Recount every iteration's penalized cost from
    scratch, at the repair, or from the eliminations' output when no one was
    released; derive the best, its roster, its feasibility, its iteration,
    the trajectory and the early stop from the recounts alone, and compare.
    With one elimination off, most desk iterations release no one."""
    weights = EvalWeights(w_demand=w_demand)
    recounts, current, unrepaired = [], {}, [0]

    def recorded(instance, roster):
        recounts.append((penalized_cost_by_definition(instance, roster, weights), roster.copy(),
                         is_feasible(instance, roster)))

    def started(instance, rng):
        roster = initial_roster(instance, rng)
        recorded(instance, roster)
        current["instance"] = instance
        return roster

    def repaired(instance, *args, **kwargs):
        result = reconstruct(instance, *args, **kwargs)
        recorded(instance, result)
        return result

    def eliminated(elimination):
        def hooked(*args):
            result = elimination(*args)
            config = args[-2]  # both eliminations take (..., config, rng)
            last = elimination is eliminate_at_random or not config.enable_random_elim
            if last and result.is_complete():
                recorded(current["instance"], result)  # no release, so no repair
                unrepaired[0] += 1
            return result
        return hooked

    monkeypatch.setattr("nrp.solver.initial_roster", started)
    monkeypatch.setattr("nrp.solver.reconstruct", repaired)
    monkeypatch.setattr("nrp.solver.eliminate_by_fitness", eliminated(eliminate_by_fitness))
    monkeypatch.setattr("nrp.solver.eliminate_at_random", eliminated(eliminate_at_random))
    elims = (EliminationConfig(), EliminationConfig(enable_random_elim=False),
             EliminationConfig(enable_fitness_elim=False))
    for (name, instance, iterations, seeds), elim in itertools.product(gain_cases(), elims):
        for seed in range(seeds):
            config = SolverConfig(max_iterations=iterations, seed=seed, eval_weights=weights,
                                  elim=elim, recon=ReconstructionConfig(e_mode=e_mode))
            recounts.clear()
            result = run(instance, config)
            best_cost, best_roster, best_feasible = recounts[0]
            best_t, trajectory = 0, [(0, best_cost)]
            for t, (cost, roster, feasible) in enumerate(recounts[1:], 1):
                if cost < best_cost:
                    best_cost, best_roster, best_feasible, best_t = cost, roster, feasible, t
                    trajectory.append((t, cost))
            reached = (instance.known_optimal is not None and best_feasible
                       and best_cost <= instance.known_optimal)
            assert len(recounts) - 1 == (best_t if reached else iterations), name
            assert result_fields(result) == (
                best_cost, best_roster.assignment, best_feasible, len(recounts) - 1,
                best_t, seed, trajectory,
            ), name
    assert unrepaired[0] > 0


def count_fitness_calls(monkeypatch) -> list[int]:
    """Count the loop's component_fitness_all calls, the fitness memo's misses."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return component_fitness_all(*args, **kwargs)

    monkeypatch.setattr("nrp.solver.component_fitness_all", counted)
    return calls


LOOPING_PRESETS = [name for name in PRESET_NAMES if not preset_spec(name).construction_only]


class TestFitnessMemo:
    def test_a_memo_emptied_before_every_store_changes_nothing(self, monkeypatch):
        calls = count_fitness_calls(monkeypatch)
        suite = build_desk_suite(8)
        default_calls = capped_calls = 0
        for name in LOOPING_PRESETS:
            config = replace(
                preset_spec(name).config, max_iterations=300, stop_at_known_optimal=False
            )
            for e_mode in E_MODES:
                moded = replace(config, recon=replace(config.recon, e_mode=e_mode))
                for inst in suite:
                    for seed in range(2):
                        seeded = replace(moded, seed=seed)
                        before = calls[0]
                        default = run(inst, seeded)
                        default_calls += calls[0] - before
                        with monkeypatch.context() as capped:
                            capped.setattr("nrp.solver.FITNESS_MEMO_ROSTERS", 1)
                            before = calls[0]
                            emptied = run(inst, seeded)
                            capped_calls += calls[0] - before
                        assert result_fields(emptied) == result_fields(default)
        # the default memo answered most calls, the one-roster memo far fewer
        assert 0 < default_calls < capped_calls

    def test_each_memoized_fitness_equals_a_fresh_one(self, monkeypatch):
        misses = count_fitness_calls(monkeypatch)
        calls = 0

        def checked(roster, fitness, config, rng):
            nonlocal calls
            calls += 1
            assert fitness == component_fitness_all(inst, roster, EvalWeights(),
                                                    compute_coverage(inst, roster))
            return eliminate_by_fitness(roster, fitness, config, rng)

        monkeypatch.setattr("nrp.solver.eliminate_by_fitness", checked)
        suite = build_desk_suite(8)
        for e_mode in E_MODES:
            config = SolverConfig(
                max_iterations=300,
                recon=ReconstructionConfig(e_mode=e_mode),
                stop_at_known_optimal=False,
            )
            for inst in suite:
                for seed in range(3):
                    run(inst, replace(config, seed=seed))
        assert calls == len(E_MODES) * len(suite) * 3 * 300
        assert misses[0] < calls / 2  # the memo, not a fresh call, answered most

    def test_elim2_only_scores_no_fitness_and_keeps_its_rows(self, monkeypatch):
        # rows recorded before fitness was skipped for this preset
        calls = count_fitness_calls(monkeypatch)
        desk = generate_instance(GeneratorParams(n=5, m=12, g=3, tightness=0.75, seed=11001))
        proof = exact_solve(desk)
        assert proof.status == OPTIMAL
        desk = replace(desk, known_optimal=proof.optimal_cost)
        mid = generate_instance(
            GeneratorParams(n=12, m=40, g=3, feasible_min=6, feasible_max=16, seed=5)
        )
        recorded = {
            "desk": (desk, 2000, 5,
                     "99b5bc406769e4883eb9e5a42e926141ca1c2c005b4678691d6507df707002e1"),
            "mid": (mid, 300, 2,
                    "cf4ea331c9bca19d1076c807bb8a0dc30a71b16dcac21df8a3950bf190f74bca"),
        }
        for name, (inst, iterations, runs, digest) in recorded.items():
            spec = preset_spec("elim2-only", max_iterations=iterations)
            results = run_batch(inst, spec, runs, base_seed=0, threads=1)
            text = "\n".join(run_csv_row(name, r) for r in results) + "\n"
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
        assert calls[0] == 0


class TestConstructionOnly:
    def test_deterministic_given_seed(self):
        inst = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=40))
        config = SolverConfig(seed=11)
        a = run_construction_only(inst, config)
        b = run_construction_only(inst, config)
        assert result_fields(a) == result_fields(b)

    def test_executes_no_loop_iterations(self):
        inst = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=41))
        result = run_construction_only(inst, SolverConfig(seed=1))
        assert result.iterations_executed == 0
        assert result.best_roster.is_complete()

    def test_never_beats_the_full_loop_in_aggregate(self):
        full_total = 0.0
        single_total = 0.0
        for seed in range(12):
            inst = generate_instance(
                GeneratorParams(n=6, m=12, g=3, tightness=1.0, seed=6700 + seed)
            )
            config = SolverConfig(max_iterations=800, seed=seed)
            full_total += run(inst, config).best_cost
            single_total += run_construction_only(inst, config).best_cost
        assert full_total < single_total
