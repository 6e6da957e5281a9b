"""Per-nurse fitness of a complete roster, and the penalized objective.

Each nurse's current assignment is scored on two normalized axes: how cheap
it is relative to the other current assignments (f1), and how much demand
coverage would be lost if it were removed (f2).  Both are rescaled to [0, 1]
against the minima/maxima over the current schedule only, so the fitness of
a component is always relative to the schedule it sits in.  A nurse's
fitness is the one float w1 * f1 + w2 * f2, also in [0, 1].

The costs and the contributions are integers, so each term takes one of
few values: w1 * f1 is fixed by w1, the cost span and p_max - cost, and
w2 * f2 by w2, the contribution span and contrib - c_min.  _terms builds
each such table once per (weight, span) for the process, with the division
and the multiplication of the definition, and a nurse's fitness is the sum
of her two entries, the same addition; so every float is the definition's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    the contributions are read from it.  Each term is looked up in a table
    of _terms, built with the definition's division and multiplication, and
    the two are added as the definition adds them, so every float equals
    the per-nurse loop's (tests/bruteforce.py, fitness_by_definition).
    """
    if not roster.is_complete():
        raise IncompleteRosterError("fitness is only defined for complete rosters")

    costs = coverage.costs
    contribs = _contributions(instance, roster, coverage)

    p_max, c_min = max(costs), min(contribs)
    a = _terms(weights.w1, p_max - min(costs))
    b = _terms(weights.w2, max(contribs) - c_min)
    return [a[p_max - cost] + b[contrib - c_min] for cost, contrib in zip(costs, contribs)]


# A cost span is at most 100 and a contribution span at most 14 * g, so one
# pair of weights needs about a hundred tables at the paper's g = 3.
@lru_cache(maxsize=256)
def _terms(w: float, span: int) -> tuple[float, ...]:
    """w * f for every value v = 0..span of a span's numerator, f = v / span.

    f is pinned to 0.5 when the span is 0.  Equal weights share a table,
    and so may 0 and -0.0, whose products differ only in a zero's sign.
    That changes no fitness: of w1 and w2 = 1 - w1 at most one is zero, the
    other's term is never -0.0, and adding a zero of either sign to it
    gives the same float.
    """
    return tuple(w * (v / span if span else 0.5) for v in range(span + 1))


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
