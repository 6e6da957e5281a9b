"""Per-nurse fitness of a complete roster, and the penalized objective.

Each nurse's current assignment is scored on two normalized axes: how cheap
it is relative to the other current assignments, and how much demand
coverage would be lost if it were removed.  Both are rescaled to [0, 1]
against the minima/maxima over the current schedule only, so the fitness of
a component is always relative to the schedule it sits in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    CoverageState,
    IncompleteRosterError,
    Instance,
    Roster,
    compute_coverage,
    preference_cost,
)


@dataclass(frozen=True)
class EvalWeights:
    """Weights for component fitness, the repair score and the penalty term.

    w1/w2 blend the preference and coverage fitness parts and must sum to 1.
    w_demand is the penalty per uncovered (period, band) shift.  w_p and
    w_grade belong to the combined reconstruction rule: preference weight and
    one weight per grade band (band 1 first).
    """

    w1: float = 0.5
    w2: float = 0.5
    w_demand: float = 200.0
    w_p: float = 1.0
    w_grade: tuple[float, ...] = (8.0, 2.0, 1.0)

    def __post_init__(self) -> None:
        finite = (self.w1, self.w2, self.w_demand, self.w_p, *self.w_grade)
        if not all(map(math.isfinite, finite)):
            raise ValueError("w1, w2, w_demand, w_p and the grade weights must be finite")
        if abs(self.w1 + self.w2 - 1.0) > 1e-12:
            raise ValueError("w1 + w2 must equal 1")
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError("w1 and w2 must be nonnegative")
        if self.w_demand <= 0:
            raise ValueError("w_demand must be positive")
        if self.w_p < 0:
            raise ValueError("w_p must be nonnegative")
        if any(w < 0 for w in self.w_grade):
            raise ValueError("grade weights must be nonnegative")

    def check_bands(self, g: int) -> None:
        """Raise ValueError unless w_grade has a weight for each of g bands."""
        if len(self.w_grade) < g:
            raise ValueError(
                f"instance has {g} grade bands but {len(self.w_grade)} grade weights are set"
            )


class ComponentFitness(NamedTuple):
    """Normalized fitness of one nurse's assignment within the schedule."""

    preference: float  # 1 = cheapest current assignment, 0 = most expensive
    coverage: float  # 1 = largest coverage contribution, 0 = smallest
    combined: float  # w1 * preference + w2 * coverage


def _contributions(instance: Instance, roster: Roster, coverage: CoverageState) -> list[int]:
    """coverage_contribution of every nurse, one popcount each.

    A nurse's row of Instance.grade_bits holds her pattern in every band she
    serves, so one AND with the all-band needed mask finds her cells.
    """
    needed, tables = coverage.needed_mask(), instance.grade_bits
    return [
        (tables[nurse.grade - 1][j] & needed).bit_count()
        for nurse, j in zip(instance.nurses, roster.assignment)
    ]


def coverage_contribution(
    instance: Instance, roster: Roster, coverage: CoverageState, i: int
) -> int:
    """Count the (period, band) slots that would fall short without nurse i.

    A slot counts when nurse i's pattern covers the period, the nurse is
    qualified for the band, and coverage minus her contribution drops below
    demand there.
    """
    j = roster.assignment[i]
    if j is None:
        raise IncompleteRosterError(f"nurse {i} is unassigned")
    worked = instance.grade_bits[instance.nurses[i].grade - 1][j]
    return (worked & coverage.needed_mask()).bit_count()


def component_fitness_all(
    instance: Instance,
    roster: Roster,
    weights: EvalWeights,
    coverage: CoverageState | None = None,
) -> list[ComponentFitness]:
    """Fitness of every nurse's assignment, all from the same snapshot.

    Normalization bounds are the min/max preference costs and coverage
    contributions among the n current assignments.  Degenerate bounds
    (all equal) pin the corresponding part to 0.5.
    """
    if not roster.is_complete():
        raise IncompleteRosterError("fitness is only defined for complete rosters")
    if coverage is None:
        coverage = compute_coverage(instance, roster)

    costs = [
        instance.nurses[i].pref_cost[j] for i, j in enumerate(roster.assignment)
    ]
    contribs = _contributions(instance, roster, coverage)

    p_min, p_max = min(costs), max(costs)
    c_min, c_max = min(contribs), max(contribs)
    p_span = p_max - p_min
    c_span = c_max - c_min
    w1, w2 = weights.w1, weights.w2

    result = []
    for cost, contrib in zip(costs, contribs):
        f1 = (p_max - cost) / p_span if p_span else 0.5
        f2 = (contrib - c_min) / c_span if c_span else 0.5
        result.append(ComponentFitness(f1, f2, w1 * f1 + w2 * f2))
    return result


def penalized_cost(
    instance: Instance,
    roster: Roster,
    weights: EvalWeights,
    coverage: CoverageState | None = None,
) -> float:
    """Preference cost plus w_demand per uncovered (period, band) shift."""
    cost = preference_cost(instance, roster)
    if coverage is None:
        coverage = compute_coverage(instance, roster)
    return cost + weights.w_demand * coverage.total_shortfall()
