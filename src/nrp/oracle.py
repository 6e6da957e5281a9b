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

Both bounds only remove subtrees that hold no roster strictly cheaper than
the incumbent, so the search meets the same incumbents in the same order as
an unbounded one: the returned roster is the first optimal roster in the
search order, and the bounds change only how many nodes are explored.  A
node budget turns a runaway search into an explicit timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import N_PERIODS, CoverageState, Instance, Roster

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"


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
) -> tuple[list[int], list[list[list[int]]], list[list[list[int]]]]:
    """Per-depth bound tables from one backward sweep over the nurses.

    rest[d] is the sum of the cheapest pattern cost of nurses d..n-1.
    avail[d][k][s] counts nurses d..n-1 qualified for band s+1 with a
    pattern working period k.  extra[d][k][s] is the least any of them pays
    above her cheapest pattern to work period k; it is 0 where avail is 0,
    a cell the coverage cut settles before reading it.
    """
    n, g = instance.n, instance.g
    rest = [0] * (n + 1)
    none_left = [[0] * g for _ in range(N_PERIODS)]
    avail = [none_left] * (n + 1)
    extra = [none_left] * (n + 1)
    for d in range(n - 1, -1, -1):
        nurse = instance.nurses[d]
        cheapest = nurse.pref_cost[ordered[d][0]]
        rest[d] = rest[d + 1] + cheapest
        # the first pattern in cost order that works k is her cheapest cover of k
        forced: dict[int, int] = {}
        for j in ordered[d]:
            for k in instance.patterns[j].periods:
                forced.setdefault(k, nurse.pref_cost[j] - cheapest)
        can = [row[:] for row in avail[d + 1]]
        pay = [row[:] for row in extra[d + 1]]
        for k, more in forced.items():
            for s in range(nurse.grade - 1, g):
                if can[k][s] == 0 or more < pay[k][s]:
                    pay[k][s] = more
                can[k][s] += 1
        avail[d], extra[d] = can, pay
    return rest, avail, extra


def exact_solve(instance: Instance, node_budget: int = 10_000_000) -> ExactResult:
    """Minimum-cost feasible roster, INFEASIBLE if none, TIMEOUT on budget."""
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    n, g = instance.n, instance.g
    # cheapest-first ordering makes the in-loop cost cut a break; ties keep list order
    ordered = [
        sorted(nurse.feasible, key=lambda j, nurse=nurse: nurse.pref_cost[j])
        for nurse in instance.nurses
    ]
    rest, avail, extra = _bound_tables(instance, ordered)

    coverage = CoverageState.empty(instance)
    shortfall = coverage.shortfall
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
        # one pass over the cells: the coverage cut and the forced extra cost
        forced = 0
        for short_k, avail_k, extra_k in zip(shortfall, avail[depth], extra[depth]):
            for s in range(g):
                short = short_k[s]
                if short:
                    if short > avail_k[s]:
                        coverage_cuts += 1
                        return
                    if extra_k[s] > forced:
                        forced = extra_k[s]
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
            coverage.add(instance, depth, j)
            search(depth + 1, new_cost)
            coverage.remove(instance, depth, j)
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
