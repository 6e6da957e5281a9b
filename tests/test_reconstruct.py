import math
import pickle
import random
from dataclasses import replace

import pytest

import nrp.reconstruct as reconstruct_module
from nrp.harness import RunSpec, execute, preset_spec, run_batch, run_csv_row
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import (
    N_PERIODS,
    CoverageState,
    InvalidRosterError,
    Nurse,
    Roster,
    compute_coverage,
)
from nrp.reconstruct import (
    E_MODES,
    MEMO_PICKS_PER_NURSE,
    PickMemo,
    ReconstructionConfig,
    _band_state,
    _focus_mask,
    combined_score,
    cover_value,
    reconstruct,
)
from nrp.oracle import exact_solve
from nrp.solver import SolverConfig, run

from bruteforce import combined_score_by_definition, cover_value_by_definition
from suite import build_desk_suite
from conftest import (
    count_rows_scored,
    count_solver_calls,
    demand_rows,
    flat_demand,
    make_instance,
    repair,
)

CHI2_CRIT_DF4_P001 = 18.467  # chi-square 0.999 quantile, 4 degrees of freedom


class TestReconstructionConfig:
    def test_rates_must_sum_to_one(self):
        # the random rule takes 1 - p1 - p2, so p1 + p2 above 1 is rejected
        with pytest.raises(ValueError, match="exceed 1"):
            ReconstructionConfig(p1=0.5, p2=0.6)
        with pytest.raises(ValueError, match="nonnegative"):
            ReconstructionConfig(p1=1.2, p2=-0.2)
        for p1, p2 in ((0.5, 0.5), (0.7, 0.3 + 1e-13), (0.0, 0.0)):
            assert ReconstructionConfig(p1=p1, p2=p2).p1 == p1

    def test_takes_keywords_only(self):
        # positionally, a third rate would land in e_mode
        with pytest.raises(TypeError):
            ReconstructionConfig(0.5, 0.3)

    def test_rejects_non_finite_rates(self):
        for value in (math.nan, math.inf):
            for rates in ({"p1": value}, {"p2": value}):
                with pytest.raises(ValueError, match="finite"):
                    ReconstructionConfig(**rates)

    def test_rejects_unknown_e_mode(self):
        with pytest.raises(ValueError, match="e_mode"):
            ReconstructionConfig(e_mode="literal")

    def test_rejects_non_finite_weights(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                ReconstructionConfig(w_p=value)
        with pytest.raises(ValueError, match="finite"):
            ReconstructionConfig(w_grade=(8.0, math.nan, 1.0))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="w_p"):
            ReconstructionConfig(w_p=-0.5)
        with pytest.raises(ValueError, match="grade weights"):
            ReconstructionConfig(w_grade=(8.0, -1.0, 1.0))

    def test_stores_its_weights_as_floats(self):
        # so a PickMemo key, which holds them, is one tuple of floats
        config = ReconstructionConfig(w_p=1, w_grade=[8, 2, True])
        assert (config.w_p, config.w_grade) == (1.0, (8.0, 2.0, 1.0))
        assert type(config.w_p) is float and type(config.w_grade) is tuple
        assert {type(w) for w in config.w_grade} == {float}
        with pytest.raises(TypeError):
            ReconstructionConfig(w_p="1.0")

    def test_rejects_empty_grade_weights(self):
        # band s reads w_grade[min(s, len(w_grade)) - 1], so one weight is needed
        with pytest.raises(ValueError, match="w_grade"):
            ReconstructionConfig(w_grade=())


class TestCoverValue:
    def test_week_of_mixed_night_shortfalls(self):
        # net night requirements Mon..Sun: -4, 0, +1, -3, -1, -2, 0
        # (Wednesday over-covered by an already-assigned nurse)
        patterns = [(7, 8, 9, 10, 11), (9,)]
        nurses = [
            Nurse(0, 1, {0: 0}),
            Nurse(1, 1, {1: 0}),
        ]
        demand = demand_rows([[0]] * 7 + [[4], [0], [0], [3], [1], [2], [0]])
        inst = make_instance(patterns, nurses, demand)
        roster = Roster([None, 1])
        cov = compute_coverage(inst, roster)
        # Mon, Thu and Fri nights are still short; Tue/Wed/Sun are not
        assert cover_value(inst, cov, 0, 0) == 3

    def test_zero_shortfall_makes_every_pattern_worthless(self, week_instance):
        roster = Roster([0, 1, 2])
        cov = compute_coverage(week_instance, roster)
        for j in week_instance.nurses[2].feasible:
            assert cover_value(week_instance, cov, 2, j) == 0

    def test_focus_band_is_highest_priority_short_band(self):
        # band 1 fully covered, band 2 short: a grade-1 nurse should be
        # scored against band 2, her next-priority band
        patterns = [(0,), (1,)]
        nurses = [
            Nurse(0, 1, {0: 0, 1: 0}),
            Nurse(1, 2, {0: 0}),
        ]
        demand = demand_rows([[0, 1], [0, 1]] + [[0, 0]] * 12)
        inst = make_instance(patterns, nurses, demand)
        cov = compute_coverage(inst, Roster([None, 0]))  # nurse 1 covers day 0 at band 2
        assert cover_value(inst, cov, 0, 0) == 0  # day 0 already fine
        assert cover_value(inst, cov, 0, 1) == 1  # day 1 still short at band 2

    def test_higher_band_shortfall_takes_priority_over_lower(self):
        # both bands short: a grade-1 nurse is scored at band 1 only
        patterns = [(0, 1)]
        nurses = [Nurse(0, 1, {0: 0})]
        demand = demand_rows([[1, 2], [0, 2]] + [[0, 0]] * 12)
        inst = make_instance(patterns, nurses, demand)
        cov = compute_coverage(inst, Roster([None]))
        # band 1 (top priority) is short on day 0 only; day 1 is ignored
        assert cover_value(inst, cov, 0, 0) == 1

    def test_infeasible_pattern_raises(self, week_instance):
        cov = compute_coverage(week_instance, Roster.empty(3))
        with pytest.raises(InvalidRosterError):
            cover_value(week_instance, cov, 0, 1)

    def test_matches_brute_force_on_random_states(self):
        rng = random.Random(23)
        for trial in range(60):
            inst = generate_instance(
                GeneratorParams(n=rng.randint(2, 6), m=10, g=3, seed=1700 + trial)
            )
            roster = Roster(
                [
                    rng.choice(n.feasible) if rng.random() < 0.6 else None
                    for n in inst.nurses
                ]
            )
            cov = compute_coverage(inst, roster)
            for i in range(inst.n):
                if roster.assignment[i] is None:
                    for j in inst.nurses[i].feasible:
                        assert cover_value(inst, cov, i, j) == (
                            cover_value_by_definition(inst, roster, i, j)
                        )


class TestCombinedScore:
    def test_free_pattern_with_no_shortfall_scores_100(self):
        inst = make_instance(
            [(0,)], [Nurse(0, 1, {0: 0})], flat_demand(1)
        )
        cov = compute_coverage(inst, Roster([None]))
        assert combined_score(inst, cov, ReconstructionConfig(), 0, 0) == 100.0

    def test_worst_preference_with_no_shortfall_scores_0(self):
        inst = make_instance(
            [(0,)], [Nurse(0, 1, {0: 100})], flat_demand(1)
        )
        cov = compute_coverage(inst, Roster([None]))
        assert combined_score(inst, cov, ReconstructionConfig(), 0, 0) == 0.0

    def test_one_short_period_at_three_bands_scores_111(self):
        # free pattern covering a period short at all 3 bands: 100 + 8 + 2 + 1
        inst = make_instance(
            [(0,)], [Nurse(0, 1, {0: 0})],
            demand_rows([[1, 1, 1]] + [[0, 0, 0]] * 13),
        )
        cov = compute_coverage(inst, Roster([None]))
        config = ReconstructionConfig(w_p=1.0, w_grade=(8.0, 2.0, 1.0))
        assert combined_score(inst, cov, config, 0, 0) == 111.0

    def test_shortfall_mode_weights_by_missing_nurses(self):
        inst = make_instance(
            [(0,)], [Nurse(0, 1, {0: 0})],
            demand_rows([[3]] + [[0]] * 13),
        )
        cov = compute_coverage(inst, Roster([None]))
        indicator = ReconstructionConfig(w_grade=(8.0,), e_mode="indicator")
        shortfall = replace(indicator, e_mode="shortfall")
        assert combined_score(inst, cov, indicator, 0, 0) == 108.0
        assert combined_score(inst, cov, shortfall, 0, 0) == 124.0

    def test_matches_brute_force_on_random_states(self):
        rng = random.Random(29)
        configs = {mode: ReconstructionConfig(e_mode=mode) for mode in E_MODES}
        for trial in range(60):
            inst = generate_instance(
                GeneratorParams(n=rng.randint(2, 6), m=10, g=3, seed=2300 + trial)
            )
            roster = Roster(
                [
                    rng.choice(n.feasible) if rng.random() < 0.6 else None
                    for n in inst.nurses
                ]
            )
            cov = compute_coverage(inst, roster)
            mode = "indicator" if trial % 2 == 0 else "shortfall"
            config = configs[mode]
            for i in range(inst.n):
                for j in inst.nurses[i].feasible:
                    assert combined_score(inst, cov, config, i, j) == (
                        pytest.approx(
                            combined_score_by_definition(
                                inst, roster, config.w_p, config.w_grade, i, j, mode
                            )
                        )
                    )


def rule_probe_instance():
    """One nurse, four patterns arranged so every rule picks a distinct one.

    Feasible order (z1, X, Y, z2): the cover rule uniquely picks X, the
    combined rule uniquely picks Y, so outcome frequencies identify the rule
    that was drawn.
    """
    patterns = [
        (4,),       # z1: covers nothing demanded, cost 60
        (0, 1, 2),  # X: covers all three demanded days, cost 100
        (3,),       # Y: covers nothing demanded, cost 0
        (5,),       # z2: covers nothing demanded, cost 60
    ]
    nurses = [Nurse(0, 1, {0: 60, 1: 100, 2: 0, 3: 60})]
    demand = demand_rows([[1], [1], [1]] + [[0]] * 11)
    return make_instance(patterns, nurses, demand)


class TestReconstruct:
    def test_complete_roster_returned_unchanged_without_draws(self, week_instance):
        roster = Roster([0, 1, 2])
        rng = random.Random(77)
        out = repair(week_instance, roster, ReconstructionConfig(), rng)
        assert out.assignment == roster.assignment
        assert rng.random() == random.Random(77).random()

    def test_a_complete_roster_leaves_the_rng_the_state_and_the_memo_alone(self):
        """A complete roster frees no nurse, so reconstruct draws nothing,
        returns an equal new roster and leaves the run's state as it was:
        rest, costs and cost, and no pick in the memo."""
        rng = random.Random(71)
        config = ReconstructionConfig()
        for trial in range(30):
            inst = generate_instance(GeneratorParams(
                n=rng.randint(1, 9), m=12, g=1 + trial % 6, seed=7100 + trial))
            memo, coverage = PickMemo(inst), CoverageState(inst)
            # the state and the memo a run holds after its first repair
            roster = reconstruct(inst, Roster.empty(inst.n), config, rng, coverage, memo)
            held = coverage.rest, coverage.costs[:], coverage.cost
            picks = memo_picks(memo, "cover"), memo_picks(memo, "combined")
            before = rng.getstate()
            out = reconstruct(inst, roster, config, rng, coverage, memo)
            assert rng.getstate() == before
            assert out == roster and out is not roster
            assert out.assignment is not roster.assignment
            assert (coverage.rest, coverage.costs, coverage.cost) == held
            assert (memo_picks(memo, "cover"), memo_picks(memo, "combined")) == picks

    def test_existing_assignments_never_change(self):
        rng = random.Random(41)
        config = ReconstructionConfig()
        for trial in range(30):
            inst = generate_instance(GeneratorParams(n=6, m=10, g=3, seed=2900 + trial))
            roster = Roster(
                [
                    rng.choice(n.feasible) if rng.random() < 0.5 else None
                    for n in inst.nurses
                ]
            )
            out = repair(inst, roster, config, rng)
            assert out.is_complete()
            for i, before in enumerate(roster.assignment):
                if before is not None:
                    assert out.assignment[i] == before
                assert out.assignment[i] in inst.nurses[i].feasible

    def test_pure_cover_greedy_hand_trace(self):
        # nurse 0's best-cover pattern is unique; nurse 1 must then prefer
        # the remaining short day over an already-covered one
        patterns = [
            (0, 1),  # pA
            (2,),    # pB
            (0,),    # pC: short before nurse 0 acts, covered after
            (2,),    # pD
        ]
        nurses = [
            Nurse(0, 1, {0: 0, 1: 0}),
            Nurse(1, 1, {2: 0, 3: 0}),
        ]
        demand = demand_rows([[1], [1], [1]] + [[0]] * 11)
        inst = make_instance(patterns, nurses, demand)
        config = ReconstructionConfig(p1=1.0, p2=0.0)
        out = repair(inst, Roster.empty(2), config, random.Random(0))
        assert out.assignment == [0, 3]

    def test_pure_cover_from_empty_is_deterministic(self):
        config = ReconstructionConfig(p1=1.0, p2=0.0)
        for trial in range(10):
            inst = generate_instance(GeneratorParams(n=5, m=8, g=2, seed=3100 + trial))
            a = repair(inst, Roster.empty(5), config, random.Random(1))
            b = repair(inst, Roster.empty(5), config, random.Random(2))
            assert a.assignment == b.assignment

    def test_score_ties_break_to_first_feasible_pattern(self):
        # zero demand: every pattern scores alike under both rules
        patterns = [(0,), (1,), (2,)]
        nurses = [Nurse(0, 1, {2: 5, 0: 5, 1: 5})]
        inst = make_instance(patterns, nurses, flat_demand(1))
        for p1, p2 in ((1.0, 0.0), (0.0, 1.0)):
            config = ReconstructionConfig(p1=p1, p2=p2)
            out = repair(inst, Roster.empty(1), config, random.Random(3))
            assert out.assignment == [2]

    def test_random_rule_is_uniform_over_feasible_set(self):
        patterns = [(j,) for j in range(5)]
        nurses = [Nurse(0, 1, {j: 0 for j in range(5)})]
        inst = make_instance(patterns, nurses, flat_demand(1))
        config = ReconstructionConfig(p1=0.0, p2=0.0)
        rng = random.Random(55)
        counts = [0] * 5
        trials = 10_000
        for _ in range(trials):
            out = repair(inst, Roster.empty(1), config, rng)
            counts[out.assignment[0]] += 1
        expected = trials / 5
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < CHI2_CRIT_DF4_P001

    def test_rule_draw_frequencies_match_configured_rates(self):
        inst = rule_probe_instance()
        config = ReconstructionConfig(p1=0.80, p2=0.18)
        rng = random.Random(61)
        counts = {j: 0 for j in range(4)}
        trials = 10_000
        for _ in range(trials):
            out = repair(inst, Roster.empty(1), config, rng)
            counts[out.assignment[0]] += 1
        p3_hat = 2.0 * (counts[0] + counts[3]) / trials
        p1_hat = counts[1] / trials - p3_hat / 4
        p2_hat = counts[2] / trials - p3_hat / 4
        assert p1_hat == pytest.approx(0.80, abs=0.02)
        assert p2_hat == pytest.approx(0.18, abs=0.02)
        assert p3_hat == pytest.approx(0.02, abs=0.02)

    def test_incremental_coverage_matches_scratch_after_repair(self):
        rng = random.Random(67)
        config = ReconstructionConfig()
        for trial in range(30):
            inst = generate_instance(GeneratorParams(n=6, m=10, g=3, seed=3700 + trial))
            roster = Roster(
                [
                    rng.choice(n.feasible) if rng.random() < 0.4 else None
                    for n in inst.nurses
                ]
            )
            cov = compute_coverage(inst, roster)
            out = reconstruct(inst, roster, config, rng, cov, PickMemo(inst))
            cov.check(out)
            fresh = compute_coverage(inst, out)
            assert cov.total_shortfall() == fresh.total_shortfall()


def memo_sequence_case(trial: int):
    """A small instance, the default rule config with fractional weights, and
    a release rng for one sequence."""
    rng = random.Random(8100 + trial)
    g = 1 + trial % 3
    instance = generate_instance(
        GeneratorParams(
            n=rng.randint(3, 9),
            m=rng.randint(6, 24),
            g=g,
            feasible_min=1,
            feasible_max=rng.randint(2, 10),
            tightness=rng.uniform(0.5, 1.0),
            seed=8200 + trial,
        )
    )
    w_grade = tuple(round(rng.uniform(0.05, 6.0), 3) for _ in range(g))
    weights = ReconstructionConfig(w_p=round(rng.uniform(0.1, 2.0), 3), w_grade=w_grade)
    return instance, weights, rng


class CountedClears(dict):
    """A memo dict that counts how often it was emptied."""

    clears = 0

    def clear(self) -> None:
        self.clears += 1
        super().clear()


def memo_dicts(memo: PickMemo, rule: str) -> list[dict[int, int]]:
    """One rule's pick dict of every nurse, in id order."""
    return [row[5] if rule == "cover" else row[6] for row in memo.nurses]


def memo_picks(memo: PickMemo, rule: str) -> dict[tuple[int, int], int]:
    """One rule's picks of every nurse, keyed (nurse id, mask)."""
    return {
        (i, key): pick for i, picks in enumerate(memo_dicts(memo, rule)) for key, pick in picks.items()
    }


LIMIT = 3  # the per-nurse, per-rule cap the emptying tests set


class TestPickMemo:
    STEPS = 60

    def repair_sequence(self, trial: int, e_mode: str, counted: bool = False):
        """Repair a release-and-repair sequence like the solver loop's twice:
        with one memo kept across the whole sequence and with a fresh memo
        per call.  Every step must give the same roster, coverage and rng
        state, and no dict may outgrow MEMO_PICKS_PER_NURSE as it stands
        (a test may have patched it).  With counted, the shared memo's dicts
        count their clears.  Returns the shared memo and the fresh memos'
        total size."""
        instance, weights, release = memo_sequence_case(trial)
        config = replace(weights, p1=0.5, p2=0.45, e_mode=e_mode)
        shared = PickMemo(instance)
        if counted:
            shared.nurses = [row[:5] + (CountedClears(), CountedClears()) + row[7:]
                             for row in shared.nurses]
        rng_shared, rng_fresh = random.Random(trial), random.Random(trial)
        roster = Roster.empty(instance.n)
        fresh_entries = 0
        for _ in range(self.STEPS):
            cov_shared = compute_coverage(instance, roster)
            cov_fresh = compute_coverage(instance, roster)
            fresh = PickMemo(instance)
            out_shared = reconstruct(
                instance, roster, config, rng_shared, cov_shared, memo=shared
            )
            out_fresh = reconstruct(
                instance, roster, config, rng_fresh, cov_fresh, memo=fresh
            )
            assert out_shared.assignment == out_fresh.assignment
            assert cov_shared.rest == cov_fresh.rest
            assert cov_shared.total_shortfall() == cov_fresh.total_shortfall()
            assert rng_shared.getstate() == rng_fresh.getstate()
            for rule in ("cover", "combined"):
                assert max(map(len, memo_dicts(shared, rule))) <= (
                    reconstruct_module.MEMO_PICKS_PER_NURSE
                )
                fresh_entries += len(memo_picks(fresh, rule))
            keep = release.random()
            roster = Roster(
                [j if release.random() < keep else None for j in out_shared.assignment]
            )
        return shared, fresh_entries

    def test_shared_memo_equals_a_fresh_memo_per_call(self):
        cross_call_hits = 0
        for trial in range(36):
            for e_mode in E_MODES:
                shared, fresh_entries = self.repair_sequence(trial, e_mode)
                # the limit (256 picks per nurse and rule) is never reached here
                shared_entries = len(memo_picks(shared, "cover")) + len(memo_picks(shared, "combined"))
                cross_call_hits += fresh_entries - shared_entries
        assert cross_call_hits > 1000  # the shared memo did answer picks

    def test_a_memo_emptied_at_its_limit_still_agrees(self, monkeypatch):
        monkeypatch.setattr(reconstruct_module, "MEMO_PICKS_PER_NURSE", LIMIT)
        cover_clears = combined_clears = 0
        for trial in range(12):
            for e_mode in E_MODES:
                shared, _ = self.repair_sequence(trial, e_mode, counted=True)
                cover_clears += sum(picks.clears for picks in memo_dicts(shared, "cover"))
                combined_clears += sum(picks.clears for picks in memo_dicts(shared, "combined"))
        assert cover_clears > 50 and combined_clears > 50

    def test_the_limit_is_per_nurse_and_per_rule(self, monkeypatch):
        """Each nurse has a dict per rule, each capped at MEMO_PICKS_PER_NURSE,
        so a rule's memo holds at most n times that many picks."""
        instance, weights, _ = memo_sequence_case(0)
        memo = PickMemo(instance)
        dicts = memo_dicts(memo, "cover") + memo_dicts(memo, "combined")
        assert len({id(picks) for picks in dicts}) == 2 * instance.n
        # reconstruct reads the constant: a dict one short of it grows to
        # it, a full one is emptied before the new pick is stored
        roster = Roster([None] + [nurse.feasible[0] for nurse in instance.nurses[1:]])
        for rule, (p1, p2) in (("cover", (1.0, 0.0)), ("combined", (0.0, 1.0))):
            for held, after in ((MEMO_PICKS_PER_NURSE - 1, MEMO_PICKS_PER_NURSE),
                                (MEMO_PICKS_PER_NURSE, 1)):
                memo = PickMemo(instance)
                picks = memo_dicts(memo, rule)[0]
                picks.update((-1 - key, 0) for key in range(held))  # no mask is negative
                repair(instance, roster, replace(weights, p1=p1, p2=p2), random.Random(0),
                       memo=memo)
                assert len(picks) == after
        # a nurse's full dict leaves the others' picks alone
        monkeypatch.setattr(reconstruct_module, "MEMO_PICKS_PER_NURSE", LIMIT)
        shared, _ = self.repair_sequence(0, "indicator", counted=True)
        for rule in ("cover", "combined"):
            assert max(map(len, memo_dicts(shared, rule))) <= LIMIT
            assert len(memo_picks(shared, rule)) > LIMIT


RULE_MIXES = {"cover": (1.0, 0.0), "combined": (0.0, 1.0), "random": (0.0, 0.0),
              "default": (0.80, 0.18)}  # (p1, p2); the random rule takes the rest


@pytest.mark.parametrize("e_mode", E_MODES)
@pytest.mark.parametrize("mix", RULE_MIXES)
def test_each_write_back_matches_a_recount(monkeypatch, mix, e_mode):
    """reconstruct places its picks on local copies of the state and writes
    them back once per call.  After every call, with picks answered by the
    memo and emptied dicts alike (one pick per nurse and rule), the state
    must equal a recount of the returned roster, at every grade count."""
    monkeypatch.setattr(reconstruct_module, "MEMO_PICKS_PER_NURSE", 1)
    p1, p2 = RULE_MIXES[mix]
    config = ReconstructionConfig(p1=p1, p2=p2, e_mode=e_mode)
    for g in range(1, 7):
        instance = generate_instance(GeneratorParams(n=8, m=16, g=g, seed=14000 + g))
        memo, rng, release = PickMemo(instance), random.Random(g), random.Random(100 + g)
        roster, coverage = Roster.empty(instance.n), CoverageState(instance)
        for _ in range(40):
            roster = reconstruct(instance, roster, config, rng, coverage, memo)
            assert max(map(len, memo_dicts(memo, "cover") + memo_dicts(memo, "combined"))) <= 1
            coverage.check(roster)
            keep = release.random()
            for i, j in enumerate(roster.assignment):
                if release.random() >= keep:
                    coverage.remove(i, j)
                    roster.assignment[i] = None


def test_the_pick_keys_are_the_reference_masks():
    """reconstruct computes the focus band and the band state inline.  With
    one freed nurse and one rule always drawn, the rule's one key must be
    (i, _focus_mask or _band_state & the cells she can work), whichever band
    the shortfall lies in."""
    rng = random.Random(131)
    cover = ReconstructionConfig(p1=1.0, p2=0.0)
    combined = [ReconstructionConfig(p1=0.0, p2=1.0, e_mode=mode) for mode in E_MODES]
    focus_bands, above_own = set(), 0  # the focus bands met, as band indices or None
    for trial in range(360):
        instance = generate_instance(GeneratorParams(
            n=rng.randint(2, 9), m=rng.randint(4, 20), g=1 + trial % 6, feasible_min=1,
            feasible_max=rng.randint(1, 10), tightness=rng.uniform(0.3, 1.0), seed=13100 + trial,
        ))
        roster = Roster([rng.choice(nurse.feasible) for nurse in instance.nurses])
        i = rng.randrange(instance.n)
        roster.assignment[i] = None
        before = compute_coverage(instance, roster)
        nurse, span = instance.nurses[i], instance.band_span
        works = instance.reach[i] >> (nurse.grade - 1) * span
        short = before.short_mask() >> (nurse.grade - 1) * span
        above = ((short & -short).bit_length() - 1) // span if short else None
        focus_bands.add(None if above is None else nurse.grade - 1 + above)
        above_own += bool(above)
        for config in [cover, *combined]:
            memo = PickMemo(instance)
            reconstruct(instance, roster, config, random.Random(trial),
                        coverage=compute_coverage(instance, roster), memo=memo)
            cover_keys, combined_keys = memo_picks(memo, "cover"), memo_picks(memo, "combined")
            if config is cover:
                assert list(cover_keys) == [(i, _focus_mask(instance, before, nurse) & works)]
                assert not combined_keys
            else:
                state = _band_state(instance, before, nurse, config.e_mode) & works
                assert list(combined_keys) == [(i, state)] and not cover_keys
    assert focus_bands == {None, 0, 1, 2, 3, 4, 5} and above_own > 10


WARD = GeneratorParams(n=30, m=411, g=3, feasible_min=75, feasible_max=150, seed=1)
NIGHTS = range(7, N_PERIODS)


def count_kernel_calls(monkeypatch) -> dict[str, int]:
    """Count the calls of the two scoring kernels, the pick memo's misses."""
    calls = {"cover": 0, "combined": 0}
    for rule in calls:
        kernel = getattr(reconstruct_module, f"_argmax_{rule}")

        def counted(*args, kernel=kernel, rule=rule):
            calls[rule] += 1
            return kernel(*args)

        monkeypatch.setattr(reconstruct_module, f"_argmax_{rule}", counted)
    return calls


class TestReachKeys:
    """The memo keys hold only the cells a nurse can work, so a coverage
    change outside them is answered from the memo."""

    def night_change(self, instance):
        """A day nurse, plus two rosters that differ only in one night
        nurse's pattern, in which the day nurse alone is free and every
        unmasked mask her rules read differs."""
        def works_nights(i):
            return any(
                k in instance.patterns[j] for j in instance.nurses[i].feasible for k in NIGHTS
            )

        day = next(i for i in range(instance.n) if not works_nights(i))
        base = [nurse.feasible[0] for nurse in instance.nurses]
        base[day] = None
        for x in filter(works_nights, range(instance.n)):
            for j in instance.nurses[x].feasible[1:]:
                changed = base.copy()
                changed[x] = j
                rosters = (Roster(base), Roster(changed))
                states = [compute_coverage(instance, r) for r in rosters]
                nurse = instance.nurses[day]
                reads = [
                    [_focus_mask(instance, cov, nurse)]
                    + [_band_state(instance, cov, nurse, mode) for mode in E_MODES]
                    for cov in states
                ]
                if all(a != b for a, b in zip(*reads)):
                    return day, rosters
        raise AssertionError("no night change moves every unmasked mask")

    @pytest.mark.parametrize(
        "rule, e_mode", [("cover", "indicator"), ("combined", "indicator"), ("combined", "shortfall")]
    )
    def test_night_change_keeps_a_day_nurses_keys(self, monkeypatch, rule, e_mode):
        instance = generate_instance(WARD)
        day, (before, after) = self.night_change(instance)
        p = (1.0, 0.0) if rule == "cover" else (0.0, 1.0)
        config = ReconstructionConfig(p1=p[0], p2=p[1], e_mode=e_mode)
        calls = count_kernel_calls(monkeypatch)
        memo = PickMemo(instance)
        first = repair(instance, before, config, random.Random(0), memo=memo)
        assert calls[rule] == 1
        keys = memo_picks(memo, rule)
        second = repair(instance, after, config, random.Random(0), memo=memo)
        # the same key, answered from the memo without a kernel call
        assert calls[rule] == 1
        assert memo_picks(memo, rule) == keys
        assert second.assignment[day] == first.assignment[day]
        fresh = repair(instance, after, config, random.Random(0))
        assert calls[rule] == 2 and fresh.assignment == second.assignment

    def test_ward_runs_make_the_pinned_kernel_calls(self, monkeypatch):
        """Six 200-iteration runs on the ward shape, each on an instance of
        its own, so with a memo of its own, and then the same six on one
        instance, whose memo they share.  Keyed on all 14 periods, the
        memos of their own missed 4,844 cover and 2,132 combined picks.
        The shared memo misses less than half as often: states recur across
        seeds."""
        calls = count_kernel_calls(monkeypatch)
        counted, instance = [], generate_instance(WARD)
        for shared in (False, True):
            for seed in range(6):
                run(instance if shared else generate_instance(WARD),
                    SolverConfig(max_iterations=200, seed=seed))
            counted.append(dict(calls))
            calls.update(cover=0, combined=0)
        assert counted == [{"cover": 2161, "combined": 1384}, {"cover": 772, "combined": 711}]

    def test_ward_runs_sum_the_pinned_shortfalls(self, monkeypatch):
        """The six runs above repair 1,193 of their 1,200 iterations; the
        other 7 release no nurse.  They compute the penalized cost 51 times:
        once at each start and then only where the kept preference cost plus
        w_demand per short cell beats the best.  With the kept cost alone as
        the bound it took 61, and computed after every repair 6 * 201 =
        1,206."""
        instance = generate_instance(WARD)
        calls = count_solver_calls(monkeypatch)
        for seed in range(6):
            run(instance, SolverConfig(max_iterations=200, seed=seed))
        assert calls == {"reconstruct": 1193, "penalized_cost": 51}

    def test_desk_runs_sum_the_pinned_shortfalls(self, monkeypatch):
        """desk-03 of the benchmark's desk batch, seeds 0-9, run to its
        proven optimum: 8,041 iterations.  172 of them release no nurse and
        make no repair.  The penalized cost is computed 62 times; with the
        kept cost alone as the bound it took 4,035."""
        params = GeneratorParams(n=4, m=12, g=3, tightness=0.75, seed=11003,
                                 feasible_min=2, feasible_max=8)
        instance = generate_instance(params)
        instance = replace(instance, known_optimal=exact_solve(instance).optimal_cost)
        calls = count_solver_calls(monkeypatch)
        iterations = sum(
            run(instance, SolverConfig(seed=seed)).iterations_executed for seed in range(10)
        )
        assert (iterations, calls) == (8041, {"reconstruct": 7869, "penalized_cost": 62})

    def test_ward_runs_score_the_pinned_rows(self, monkeypatch):
        """The six runs above, in both e-modes, each on an instance of its
        own and then all twelve on one instance, which keeps a memo per
        e-mode.  The shortfall memo there shares the indicator memo's cover
        picks, which read no scoring field; with cover dicts of its own it
        made 823 cover kernel calls and scored 6,843 cover rows.  Before the
        scans capped their stops at the nurse's longest pattern, the runs on
        instances of their own scored 27,336 cover and 18,223 combined rows
        in indicator mode, and 29,620 and 36,635 in shortfall mode; the
        kernel calls, the memo's misses, are the same either way."""
        calls = count_kernel_calls(monkeypatch)
        rows = count_rows_scored(monkeypatch)
        scored, instance = {}, generate_instance(WARD)
        for shared in (False, True):
            for e_mode in E_MODES:
                config = ReconstructionConfig(e_mode=e_mode)
                for seed in range(6):
                    run(instance if shared else generate_instance(WARD),
                        SolverConfig(max_iterations=200, seed=seed, recon=config))
                scored[shared, e_mode] = (dict(rows), dict(calls))
                for counts in (rows, calls):
                    counts.update(cover=0, combined=0)
        assert scored == {
            (False, "indicator"): ({"cover": 15812, "combined": 14298},
                                   {"cover": 2161, "combined": 1384}),
            (False, "shortfall"): ({"cover": 17160, "combined": 26109},
                                   {"cover": 2294, "combined": 2067}),
            (True, "indicator"): ({"cover": 6143, "combined": 7971},
                                  {"cover": 772, "combined": 711}),
            (True, "shortfall"): ({"cover": 2493, "combined": 18165},
                                  {"cover": 245, "combined": 1392}),
        }


def ward_spec(preset: str, seed: int, **recon) -> RunSpec:
    """A 200-iteration run of the preset, its rule config changed by recon."""
    spec = preset_spec(preset, 200, seed)
    config = spec.config
    return replace(spec, config=replace(config, recon=replace(config.recon, **recon)))


def outcome(instance, spec: RunSpec) -> tuple[str, list[int]]:
    """A run's per-run CSV row and its best roster."""
    result = execute(instance, spec)
    return run_csv_row("ward", result), result.best_roster.assignment


class TestInstanceMemos:
    """An instance keeps one PickMemo per set of scoring fields for all its
    runs.  A pick is pure, so a run must come out the same whatever ran on
    the instance before."""

    # four sets of scoring fields, each differing from the first in one: the
    # presets share the first
    CONFIGS = (("full", {}), ("cover-only", {}), ("combined-only", {}),
               ("full", {"e_mode": "shortfall"}), ("full", {"w_p": 0.35}),
               ("full", {"w_grade": (2.5, 0.0, 1.3)}))

    def test_a_used_instance_runs_as_a_fresh_one(self, monkeypatch):
        targets = [ward_spec(preset, seed, **recon) for preset, recon in self.CONFIGS
                   for seed in (0, 1)]
        calls = count_kernel_calls(monkeypatch)
        fresh = [outcome(generate_instance(WARD), spec) for spec in targets]
        cold = dict(calls)
        used = generate_instance(WARD)
        for preset, recon in self.CONFIGS:  # other seeds
            for seed in (7, 8):
                execute(used, ward_spec(preset, seed, **recon))
        with monkeypatch.context() as patched:  # each dict emptied before every store
            patched.setattr(reconstruct_module, "MEMO_PICKS_PER_NURSE", 1)
            for preset, recon in self.CONFIGS:
                execute(used, ward_spec(preset, 9, **recon))
        for preset, recon in self.CONFIGS[::-1]:
            execute(used, ward_spec(preset, 10, **recon))
        assert len(used.pick_memos) == 4
        # a cover pick reads no scoring field, so the four memos share one cover dict a nurse
        assert len({id(d) for memo in used.pick_memos.values()
                    for d in memo_dicts(memo, "cover")}) == used.n
        calls.update(cover=0, combined=0)
        assert [outcome(used, spec) for spec in targets] == fresh
        # the history answered picks the fresh instances had to compute
        assert calls["cover"] < cold["cover"] / 2 and calls["combined"] < cold["combined"] / 2
        cover, combined = (preset_spec(name).config.recon for name in ("cover-only", "combined-only"))
        assert PickMemo.of(used, cover) is PickMemo.of(used, combined)

    def test_a_replace_copy_starts_with_no_memo(self):
        instance = generate_instance(WARD)
        before = outcome(instance, ward_spec("full", 0))
        copy = replace(instance)
        assert instance.pick_memos and not copy.pick_memos
        assert copy == instance and repr(copy) == repr(instance)
        assert outcome(copy, ward_spec("full", 0)) == before

    def test_a_pooled_batch_after_sequential_runs_gives_their_rows(self):
        instance, spec = generate_instance(WARD), ward_spec("full", 0)

        def rows(threads):
            return [run_csv_row("ward", r) for r in run_batch(instance, spec, 4, 0, threads=threads)]

        sequential = rows(1)
        memo = PickMemo.of(instance, spec.config.recon)
        # each worker receives the instance, and its memo, pickled
        carried = PickMemo.of(pickle.loads(pickle.dumps(instance)), spec.config.recon)
        assert memo_picks(carried, "cover") == memo_picks(memo, "cover")
        assert memo_picks(carried, "combined") == memo_picks(memo, "combined")
        assert rows(2) == sequential


def test_int_and_float_weights_key_one_memo_and_pick_alike():
    """Weights spelled as ints and as floats of equal value make one memo
    key and the same picks on the desk suite."""
    floats = {"w_p": 1.0, "w_grade": (8.0, 2.0, 1.0)}
    spellings = [floats, {**floats, "w_p": 1}, {**floats, "w_grade": (8, 2, 1)}]
    compared = 0
    for instance in build_desk_suite(8):
        for e_mode in E_MODES:
            configs = [ReconstructionConfig(p1=0.4, p2=0.6, e_mode=e_mode, **weights)
                       for weights in spellings]
            assert len({PickMemo.of(instance, config) for config in configs}) == 1
            picks = []
            for config in configs:
                copy = replace(instance)
                for seed in range(3):
                    run(copy, SolverConfig(max_iterations=300, seed=seed, recon=config))
                memo = PickMemo.of(copy, config)
                picks.append((memo_picks(memo, "cover"), memo_picks(memo, "combined")))
            assert picks[1] == picks[2] == picks[0]
            compared += len(picks[0][1])
    assert compared > 100
