"""Greedy repair of a partial roster back to a complete one.

Freed nurses are processed in ascending id order.  For each one a rule is
drawn: the cover rule picks the feasible pattern plugging the most holes at
the worst understaffed band the nurse can serve, the combined rule trades
preference cost against shortfall reduction, and the random rule picks any
feasible pattern.  Existing assignments are never touched, and coverage is
updated after every assignment so later choices see earlier ones.

Scoring runs on 14-bit masks.  Each pattern carries its worked periods as
ShiftPattern.bits, and a band's still-short periods come from
CoverageState.short_mask(s), built on demand once per pick (14 comparisons)
rather than kept up to date by every coverage change.  The number of short
periods a pattern covers at band s is then (bits & short).bit_count().  The
cover rule builds one mask per nurse, for the nurse's focus band; the
combined rule in indicator mode builds one per weighted band and adds the
bands in ascending order, the order the per-period definition sums them
in, so the float scores and hence the first-pattern tie-breaks are
unchanged.  The shortfall e-mode weights each period by its shortfall and
so still sums over the pattern's periods.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .evaluate import EvalWeights
from .model import (
    CoverageState,
    Instance,
    InvalidRosterError,
    Nurse,
    Roster,
    compute_coverage,
)

E_MODES = ("indicator", "shortfall")


@dataclass(frozen=True)
class ReconstructionConfig:
    """Rule probabilities for {cover, combined, random} plus the e-term mode.

    e_mode chooses how the combined rule scores an understaffed period:
    "indicator" counts it once, "shortfall" weights it by the number of
    nurses still missing.
    """

    p1: float = 0.80
    p2: float = 0.18
    p3: float = 0.02
    e_mode: str = "indicator"

    def __post_init__(self) -> None:
        if min(self.p1, self.p2, self.p3) < 0:
            raise ValueError("rule probabilities must be nonnegative")
        if abs(self.p1 + self.p2 + self.p3 - 1.0) > 1e-12:
            raise ValueError("p1 + p2 + p3 must equal 1")
        if self.e_mode not in E_MODES:
            raise ValueError(f"e_mode must be one of {E_MODES}")


def _focus_mask(instance: Instance, coverage: CoverageState, nurse: Nurse) -> int:
    """Short mask of the first band the nurse serves that has any shortfall.

    Zero when no band the nurse can serve is short.
    """
    band_short = coverage.band_short
    for s in range(nurse.grade - 1, instance.g):
        if band_short[s] > 0:
            return coverage.short_mask(s)
    return 0


def cover_value(
    instance: Instance, coverage: CoverageState, i: int, j: int
) -> int:
    """How many currently-short periods pattern j fills at the focus band.

    The focus band is the highest-priority (lowest-numbered) band the nurse
    is qualified for that still has any shortfall; only that band's short
    periods are counted, so higher-graded nurses do not burn their value on
    demand a lower grade could meet.  Zero when no band the nurse can serve
    is short.
    """
    nurse = instance.nurses[i]
    if j not in nurse.feasible_set:
        raise InvalidRosterError(f"pattern {j} is not feasible for nurse {i}")
    short = _focus_mask(instance, coverage, nurse)
    return (instance.patterns[j].bits & short).bit_count()


def combined_score(
    instance: Instance,
    coverage: CoverageState,
    weights: EvalWeights,
    i: int,
    j: int,
    e_mode: str = "indicator",
) -> float:
    """Weighted blend of pattern cheapness and shortfall reduction.

    Score = w_p * (100 - cost) + sum over qualified bands s of
    w_grade[s] * (short periods the pattern covers at band s).
    """
    nurse = instance.nurses[i]
    if j not in nurse.feasible_set:
        raise InvalidRosterError(f"pattern {j} is not feasible for nurse {i}")
    if len(weights.w_grade) < instance.g:
        raise ValueError(
            f"w_grade has {len(weights.w_grade)} entries, instance needs {instance.g}"
        )
    return _combined_scores(instance, coverage, weights, nurse, (j,), e_mode)[0]


def _combined_scores(
    instance: Instance,
    coverage: CoverageState,
    weights: EvalWeights,
    nurse: Nurse,
    pattern_ids: tuple[int, ...],
    e_mode: str,
) -> list[float]:
    """combined_score of each pattern id, in order.

    Every score is summed in the same order (preference term, then bands
    ascending, zero weights skipped), so equal inputs give bit-equal floats.
    """
    patterns = instance.patterns
    costs = nurse.pref_cost
    w_p = weights.w_p
    scores = [w_p * (100 - costs[j]) for j in pattern_ids]
    w_grade = weights.w_grade
    pattern_bits = [patterns[j].bits for j in pattern_ids]
    for s in range(nurse.grade - 1, instance.g):
        ws = w_grade[s]
        if ws == 0:
            continue
        if e_mode == "indicator":
            short = coverage.short_mask(s)
            scores = [
                score + ws * (bits & short).bit_count()
                for score, bits in zip(scores, pattern_bits)
            ]
        else:
            column = [row[s] for row in coverage.shortfall]
            scores = [
                score + ws * sum(column[k] for k in patterns[j].periods)
                for score, j in zip(scores, pattern_ids)
            ]
    return scores


def reconstruct(
    instance: Instance,
    roster: Roster,
    config: ReconstructionConfig,
    weights: EvalWeights,
    rng: random.Random,
    coverage: CoverageState | None = None,
) -> Roster:
    """Assign every freed nurse a pattern; existing assignments are kept.

    Per freed nurse (ascending id) one uniform draw selects the rule; the
    random rule consumes one extra draw to index the feasible set.  Ties on
    rule scores go to the first pattern in the nurse's feasible list.  When a
    coverage state is passed in it must match the input roster and is updated
    in place to match the returned complete roster.
    """
    result = roster.copy()
    free = result.unassigned_ids()
    if not free:
        return result
    if coverage is None:
        coverage = compute_coverage(instance, roster)
    p1, p2 = config.p1, config.p2
    e_mode = config.e_mode

    for i in free:
        nurse = instance.nurses[i]
        u = rng.random()
        if u < p1:
            choice = _argmax_cover(instance, coverage, nurse)
        elif u < p1 + p2:
            choice = _argmax_combined(instance, coverage, weights, nurse, e_mode)
        else:
            choice = nurse.feasible[rng.randrange(len(nurse.feasible))]
        result.assignment[i] = choice
        coverage.add(instance, i, choice)
    return result


def _argmax_cover(instance: Instance, coverage: CoverageState, nurse: Nurse) -> int:
    short = _focus_mask(instance, coverage, nurse)
    feasible = nurse.feasible
    if not short:
        return feasible[0]
    patterns = instance.patterns
    return _first_max(feasible, [(patterns[j].bits & short).bit_count() for j in feasible])


def _argmax_combined(
    instance: Instance, coverage: CoverageState, weights: EvalWeights, nurse: Nurse, e_mode: str
) -> int:
    feasible = nurse.feasible
    return _first_max(
        feasible, _combined_scores(instance, coverage, weights, nurse, feasible, e_mode)
    )


def _first_max(feasible: tuple[int, ...], values: list) -> int:
    """The pattern with the highest value; ties go to the earliest one."""
    return feasible[values.index(max(values))]
