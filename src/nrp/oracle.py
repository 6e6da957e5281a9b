"""Exact solver for desk-scale instances, used as ground truth in tests.

Depth-first branch and bound over nurses in id order.  Patterns are tried
cheapest-first within each nurse, ties kept in feasible-list order, and an
incumbent is replaced only by a strictly cheaper roster.  One backward sweep
over the nurses builds three per-depth tables once per call, and the search
cuts a branch on two sound bounds taken from them:

* Coverage.  A cell (period, band) still short by more than the number of
  remaining nurses who could work it can never be covered.
* Cost.  Every remaining nurse pays at least her cheapest pattern (the cost
  to go), and each cell still short forces some remaining nurse qualified
  for its band onto a pattern working that period, which costs her at least
  its extra over her cheapest pattern.  The partial cost, plus the cost to
  go, plus the largest such forced extra over the short cells, is a lower
  bound on any completion; a branch whose bound reaches the incumbent is cut.
  Inside a nurse's cost-sorted patterns the cut ends the loop, because every
  later pattern costs at least as much.

Both bounds read the packed coverage of CoverageState, one int for all
bands.  The coverage cut is one packed compare against the remaining
nurses' packed counts, and the forced extra scans one list per depth that
merges the distinct extras of every band, highest first, stopping at the
first one whose cells meet the short mask.

Both bounds only remove subtrees that hold no roster strictly cheaper than
the incumbent, so the search meets the same incumbents in the same order as
an unbounded one: the returned roster is the first optimal roster in the
search order, and the bounds change only how many nodes are explored.  A
node budget turns a runaway search into an explicit timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CoverageState, Instance, Roster

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"
NODE_BUDGET = 10_000_000  # default node budget of exact_solve and the CLI


@dataclass
class ExactResult:
    """Outcome of an exhaustive search.

    On OPTIMAL the roster is feasible, its preference cost equals
    optimal_cost, and no feasible roster costs less.  On TIMEOUT the
    incumbent (if any) is reported without an optimality claim.

    nodes_explored counts pattern assignments tried and never exceeds the
    node budget.  cost_cuts counts branches cut because their cost bound
    reached the incumbent; coverage_cuts counts nodes cut because some
    short cell could no longer be covered.
    """

    status: str
    optimal_cost: int | None
    optimal_roster: Roster | None
    nodes_explored: int
    cost_cuts: int = 0
    coverage_cuts: int = 0


def _bound_tables(
    instance: Instance, ordered: list[list[int]]
) -> tuple[list[int], list[int], list[list[tuple[int, int]]]]:
    """Per-depth bound tables from one backward sweep over the nurses.

    rest[d] is the sum of the cheapest pattern cost of nurses d..n-1.

    cut[d] is demand_bits - low_bits - avail, where avail packs, per cell
    (period, band), the count of nurses d..n-1 qualified for the band with a
    pattern working the period.  At depth d the coverage holds nurses
    0..d-1 only, so avail + covered <= n in every field and (cut[d] - cov)
    cannot borrow (see CoverageState's width rule): a cell's guard bit is
    set iff the cell is short by more than avail, a cell no completion
    covers.

    extra[d] pairs each positive cost with the guard bits of the cells, in
    any band, that force it, highest cost first.  A cell's cost is the least
    any of nurses d..n-1 qualified for its band pays above her cheapest
    pattern to work its period.  Cells no remaining nurse can work are left
    out: the coverage cut settles them before the extras are read.
    """
    n, width, span = instance.n, instance.field_width, instance.band_span
    top = instance.demand_bits - instance.low_bits
    rest = [0] * (n + 1)
    avail = 0
    least: dict[int, int] = {}  # a cell's guard bit index -> its least extra
    cut = [0] * n
    extra: list[list[tuple[int, int]]] = [[]] * n
    for d in range(n - 1, -1, -1):
        nurse = instance.nurses[d]
        cheapest = nurse.pref_cost[ordered[d][0]]
        rest[d] = rest[d + 1] + cheapest
        # the first pattern in cost order that works k is her cheapest cover of k
        forced: dict[int, int] = {}
        cells = instance.grade_cells[nurse.grade - 1]
        reach = 0
        for j in ordered[d]:
            reach |= cells[j]
            for k in instance.patterns[j].periods:
                forced.setdefault(k, nurse.pref_cost[j] - cheapest)
        avail += reach
        cut[d] = top - avail
        for s in range(nurse.grade - 1, instance.g):
            for k, more in forced.items():
                bit = s * span + k * width + width - 1
                least[bit] = min(more, least.get(bit, more))
        by_cost: dict[int, int] = {}
        for bit, more in least.items():
            if more:
                by_cost[more] = by_cost.get(more, 0) | 1 << bit
        extra[d] = sorted(by_cost.items(), reverse=True)
    return rest, cut, extra


def exact_solve(instance: Instance, node_budget: int = NODE_BUDGET) -> ExactResult:
    """Minimum-cost feasible roster, INFEASIBLE if none, TIMEOUT on budget."""
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    n = instance.n
    # cheapest-first ordering makes the in-loop cost cut a break; ties keep list order
    ordered = [
        sorted(nurse.feasible, key=lambda j, nurse=nurse: nurse.pref_cost[j])
        for nurse in instance.nurses
    ]
    rest, cut, extra = _bound_tables(instance, ordered)
    guard_bits = instance.guard_bits

    coverage = CoverageState(instance)
    assignment: list[int | None] = [None] * n
    best_cost: float = math.inf
    best_assignment: list[int] | None = None
    nodes = cost_cuts = coverage_cuts = 0
    out_of_budget = False

    def search(depth: int, cost: int) -> None:
        nonlocal best_cost, best_assignment, nodes, cost_cuts, coverage_cuts, out_of_budget
        if depth == n:
            if coverage.total_shortfall() == 0 and cost < best_cost:
                best_cost = cost
                best_assignment = list(assignment)  # type: ignore[arg-type]
            return
        if (cut[depth] - coverage.cov) & guard_bits:
            coverage_cuts += 1
            return
        # the forced extra cost: the first, costliest entry with a short cell
        short = coverage.short_mask()
        forced = 0
        for more, cells in extra[depth]:
            if short & cells:
                forced = more
                break
        if cost + rest[depth] + forced >= best_cost:
            cost_cuts += 1
            return
        nurse = instance.nurses[depth]
        to_go = rest[depth + 1]
        for j in ordered[depth]:
            new_cost = cost + nurse.pref_cost[j]
            if new_cost + to_go >= best_cost:
                cost_cuts += 1
                break  # patterns are cost-sorted: the rest only cost more
            if nodes == node_budget:
                out_of_budget = True
                return
            nodes += 1
            assignment[depth] = j
            coverage.add(depth, j)
            search(depth + 1, new_cost)
            coverage.remove(depth, j)
            assignment[depth] = None
            if out_of_budget:
                return

    search(0, 0)

    roster = None if best_assignment is None else Roster(best_assignment)
    if out_of_budget:
        status = TIMEOUT
    else:
        status = INFEASIBLE if roster is None else OPTIMAL
    cost = None if roster is None else int(best_cost)
    return ExactResult(status, cost, roster, nodes, cost_cuts, coverage_cuts)
