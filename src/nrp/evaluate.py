"""Per-nurse fitness of a complete roster, and the penalized objective.

Each nurse's current assignment is scored on two normalized axes: how cheap
it is relative to the other current assignments (f1), and how much demand
coverage would be lost if it were removed (f2).  Both are rescaled to [0, 1]
against the minima/maxima over the current schedule only, so the fitness of
a component is always relative to the schedule it sits in.  A nurse's
fitness is the one float w1 * f1 + w2 * f2, also in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import CoverageState, IncompleteRosterError, Instance, Roster


@dataclass(frozen=True, kw_only=True)
class EvalWeights:
    """Weights for component fitness and the penalty term.

    w1 in [0, 1] weighs the preference fitness part, and the coverage part
    takes w2 = 1 - w1, which is derived, not passed.  Every field is passed
    by keyword.  w_demand is the penalty per uncovered (period, band) shift.
    The combined reconstruction rule's weights belong to its own config,
    nrp.reconstruct.ReconstructionConfig.
    """

    w1: float = 0.5
    w2: float = field(init=False)
    w_demand: float = 200.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.w1, self.w_demand))):
            raise ValueError("w1 and w_demand must be finite")
        if not 0 <= self.w1 <= 1:
            raise ValueError("w1 must lie in [0, 1]")
        object.__setattr__(self, "w2", 1.0 - self.w1)
        if self.w_demand <= 0:
            raise ValueError("w_demand must be positive")


def _contributions(instance: Instance, roster: Roster, coverage: CoverageState) -> list[int]:
    """coverage_contribution of every nurse, one popcount each.

    Nurse i's row of Instance.nurse_cells holds her pattern in every band
    she serves, so one AND with the all-band needed mask, shifted to the low
    bits, finds her cells.  The state is current between repairs:
    reconstruct writes its picks back once per call, not through
    CoverageState.add.
    """
    needed = coverage.needed_mask() >> (instance.field_width - 1)
    return [
        (cells[j] & needed).bit_count()
        for cells, j in zip(instance.nurse_cells, roster.assignment)
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
    worked = instance.nurse_cells[i][j]
    return (worked & coverage.needed_mask() >> (instance.field_width - 1)).bit_count()


def component_fitness_all(
    instance: Instance, roster: Roster, weights: EvalWeights, coverage: CoverageState
) -> list[float]:
    """Fitness w1 * f1 + w2 * f2 of every nurse's assignment, one snapshot.

    f1 is 1 for the cheapest current assignment and 0 for the most
    expensive; f2 is 1 for the largest coverage contribution and 0 for the
    smallest.  Normalization bounds are the min/max preference costs and
    coverage contributions among the n current assignments.  Degenerate
    bounds (all equal) pin the corresponding part to 0.5.  The caller passes
    the coverage state, which must match the roster: the solver its run's
    state, anyone else compute_coverage(instance, roster).  The costs and
    the contributions are read from it.
    """
    if not roster.is_complete():
        raise IncompleteRosterError("fitness is only defined for complete rosters")

    costs = coverage.costs
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
        result.append(w1 * f1 + w2 * f2)
    return result


def penalized_cost(roster: Roster, weights: EvalWeights, coverage: CoverageState) -> float:
    """Preference cost plus w_demand per uncovered (period, band) shift.

    The caller passes the coverage state, which must match the roster: the
    solver its run's state, anyone else compute_coverage(instance, roster).
    The preference cost is the state's kept total, and the roster is read
    only to refuse an incomplete one.
    """
    if None in roster.assignment:
        raise IncompleteRosterError(f"nurse {roster.assignment.index(None)} is unassigned")
    return coverage.cost + weights.w_demand * coverage.total_shortfall()
