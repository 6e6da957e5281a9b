"""Exact solver for desk-scale instances, used as ground truth in tests.

Depth-first branch and bound over nurses in id order.  Patterns are tried
cheapest-first within each nurse, ties kept in feasible-list order, and an
incumbent is replaced only by a strictly cheaper roster.

Components.  Two nurses are joined when both can work some demanded cell
(period, band): demand above 0, a grade that serves the band and a
feasible pattern working the period.  Each component is searched on its
own, over its nurses in id order, against the demand of its own cells
only; the rosters are stitched together and their costs added.  A
generated instance draws every nurse's patterns from days or from nights,
so its two halves are searched apart instead of multiplying each other's
trees.  A demanded cell no nurse can work makes the instance infeasible
before any search.  One node budget covers all components.

Dominated patterns.  A nurse's pattern is left out of her cost-ordered
list when an earlier entry of that list works every period it works
(Instance.supersets): that entry costs no more and covers at least as much.

One backward sweep over a component's nurses builds three per-depth tables
once, and the search cuts a branch on two sound bounds taken from them:

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

Both bounds read the coverage the search carries down as one int, packed
for all bands in CoverageState's layout.  The coverage cut is one packed
compare against the remaining nurses' packed counts, and the forced extra
scans one list per depth that merges the distinct extras of every band,
highest first, stopping at the first one whose cells meet the short mask.

Why the roster is the one an undivided, unpruned search returns.  Both
bounds only remove subtrees that hold no roster strictly cheaper than the
incumbent, so the search meets the same incumbents in the same order as an
unbounded one and returns the first optimal roster in its order: the
lexicographically first, comparing each nurse's rank in her cost-ordered
list.  Components share no demanded cell, so the optimal rosters are the
product of each component's optimal rosters, and the first of them, even
with the components' ids interleaved, is made of each component's first.
A dominated pattern is never in that first roster: swapping in its earlier
superset keeps the roster feasible, costs no more and comes earlier.  Nor
does it change a bound: the first pattern, every cell a nurse can work and
her cheapest cover of each period all stay.  So the bounds and the
order change only how many nodes are explored.  A node budget turns a
runaway search into an explicit timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Instance, Roster

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
    short cell could no longer be covered, plus one for a demanded cell no
    nurse can work.  components counts the nurse components.
    """

    status: str
    optimal_cost: int | None
    optimal_roster: Roster | None
    nodes_explored: int
    cost_cuts: int = 0
    coverage_cuts: int = 0
    components: int = 1


def _search_orders(instance: Instance) -> list[list[int]]:
    """Each nurse's patterns cheapest first, ties in feasible-list order,
    without those an earlier entry works every period of."""
    orders = []
    for nurse in instance.nurses:
        seen = 0
        kept = []
        for j in sorted(nurse.feasible, key=nurse.pref_cost.__getitem__):
            if not instance.supersets[j] & seen:
                kept.append(j)
            seen |= 1 << j
        orders.append(kept)
    return orders


def _components(instance: Instance) -> tuple[list[tuple[list[int], int]], int]:
    """The nurse components, each as (its ids in id order, its top), and
    the demanded cells no nurse can work, as low bits.

    Union-find joins the nurses that can work one demanded cell.  A
    component's top is demand_bits - low_bits with the demand of every
    cell outside the component set to 0.  Components come in the order of
    their least id.
    """
    width, reach = instance.field_width, instance.reach
    demanded = ((instance.demand_bits - instance.low_bits) & instance.guard_bits) >> (width - 1)
    parent = list(range(instance.n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    owner: dict[int, int] = {}  # a demanded cell's low bit -> the first nurse who can work it
    for i in range(instance.n):
        bits = reach[i] & demanded
        while bits:
            low = bits & -bits
            parent[find(i)] = find(owner.setdefault(low, i))
            bits ^= low
    groups: dict[int, list[int]] = {}
    for i in range(instance.n):
        groups.setdefault(find(i), []).append(i)
    components = []
    for ids in groups.values():
        fields = 0
        for i in ids:
            fields |= reach[i]
        top = ((instance.demand_bits & fields) | instance.guard_bits) - instance.low_bits
        components.append((ids, top))
    workable = 0
    for fields in reach:
        workable |= fields
    return components, demanded & ~workable


def _bound_tables(
    instance: Instance, ordered: list[list[int]], ids: list[int], top: int
) -> tuple[list[int], list[int], list[list[tuple[int, int]]]]:
    """Per-depth bound tables from one backward sweep over nurses ids.

    Depth d is nurse ids[d], ordered[i] is nurse i's search order and top
    is demand_bits - low_bits with the demand of the cells outside ids set
    to 0 (see _components).

    rest[d] is the sum of the cheapest pattern cost of nurses ids[d:].

    cut[d] is top - avail, where avail packs, per cell (period, band), the
    count of nurses ids[d:] qualified for the band with a pattern working
    the period.  At depth d the coverage holds nurses ids[:d] only, so
    avail + covered <= n < 2**(w-1) in every field and, by CoverageState's
    width rule, (cut[d] - cov) cannot borrow: a cell's guard bit is set iff
    the cell is short by more than avail, a cell no completion covers.

    extra[d] pairs each positive cost with the guard bits of the cells, in
    any band, that force it, highest cost first.  A cell's cost is the least
    any of nurses ids[d:] qualified for its band pays above her cheapest
    pattern to work its period.  Cells no remaining nurse can work are left
    out: the coverage cut settles them before the extras are read.
    """
    size, width, span = len(ids), instance.field_width, instance.band_span
    rest = [0] * (size + 1)
    avail = 0
    least: dict[int, int] = {}  # a cell's guard bit index -> its least extra
    cut = [0] * size
    extra: list[list[tuple[int, int]]] = [[]] * size
    for d in range(size - 1, -1, -1):
        nurse = instance.nurses[ids[d]]
        order = ordered[nurse.id]
        cheapest = nurse.pref_cost[order[0]]
        rest[d] = rest[d + 1] + cheapest
        # the first pattern in cost order that works k is her cheapest cover of k
        forced: dict[int, int] = {}
        for j in order:
            for k in instance.patterns[j].periods:
                forced.setdefault(k, nurse.pref_cost[j] - cheapest)
        # the dominated patterns left out of order work no period outside it
        avail += instance.reach[nurse.id] & instance.low_bits
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


def _search(
    instance: Instance, ordered: list[list[int]], ids: list[int], top: int, node_budget: int
) -> ExactResult:
    """Branch and bound over one component, nurses ids in order, against top.

    The roster lists the patterns of nurses ids, in that order.  A budget
    of 0 allows the cuts at depth 0 and no node.
    """
    size = len(ids)
    rest, cut, extra = _bound_tables(instance, ordered, ids, top)
    guard_bits = instance.guard_bits
    # per depth, (pattern, its cost, its packed cells) in search order
    choices = []
    for i in ids:
        nurse = instance.nurses[i]
        cells = instance.grade_cells[nurse.grade - 1]
        choices.append([(j, nurse.pref_cost[j], cells[j]) for j in ordered[i]])

    assignment = [0] * size  # every entry is overwritten before a leaf reads it
    best_cost: float = math.inf
    best_assignment: list[int] | None = None
    nodes = cost_cuts = coverage_cuts = 0
    out_of_budget = False

    def search(depth: int, cost: int, cov: int) -> None:
        nonlocal best_cost, best_assignment, nodes, cost_cuts, coverage_cuts, out_of_budget
        short = (top - cov) & guard_bits  # guard bit set iff covered < demand
        if depth == size:
            if not short and cost < best_cost:
                best_cost = cost
                best_assignment = list(assignment)
            return
        if (cut[depth] - cov) & guard_bits:
            coverage_cuts += 1
            return
        # the forced extra cost: the first, costliest entry with a short cell
        forced = 0
        for more, bits in extra[depth]:
            if short & bits:
                forced = more
                break
        if cost + rest[depth] + forced >= best_cost:
            cost_cuts += 1
            return
        to_go = rest[depth + 1]
        for j, price, cells in choices[depth]:
            new_cost = cost + price
            if new_cost + to_go >= best_cost:
                cost_cuts += 1
                break  # patterns are cost-sorted: the rest only cost more
            if nodes == node_budget:
                out_of_budget = True
                return
            nodes += 1
            assignment[depth] = j
            search(depth + 1, new_cost, cov + cells)
            if out_of_budget:
                return

    search(0, 0, 0)

    roster = None if best_assignment is None else Roster(best_assignment)
    if out_of_budget:
        status = TIMEOUT
    else:
        status = INFEASIBLE if roster is None else OPTIMAL
    cost = None if roster is None else int(best_cost)
    return ExactResult(status, cost, roster, nodes, cost_cuts, coverage_cuts)


def exact_solve(instance: Instance, node_budget: int = NODE_BUDGET) -> ExactResult:
    """Minimum-cost feasible roster, INFEASIBLE if none, TIMEOUT on budget.

    The components are searched in turn and the first one that ends
    INFEASIBLE or TIMEOUT ends the call.  A TIMEOUT carries a roster only
    when every component has one.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    components, stranded = _components(instance)
    if stranded:
        return ExactResult(INFEASIBLE, None, None, 0, 0, 1, len(components))
    ordered = _search_orders(instance)
    assignment: list[int | None] = [None] * instance.n
    status, total = OPTIMAL, 0
    nodes = cost_cuts = coverage_cuts = 0
    for ids, top in components:
        part = _search(instance, ordered, ids, top, node_budget - nodes)
        nodes += part.nodes_explored
        cost_cuts += part.cost_cuts
        coverage_cuts += part.coverage_cuts
        if part.optimal_roster is not None:
            total += part.optimal_cost
            for i, j in zip(ids, part.optimal_roster.assignment):
                assignment[i] = j
        if part.status != OPTIMAL:
            status = part.status
            break
    roster = Roster(assignment) if status != INFEASIBLE and None not in assignment else None
    cost = None if roster is None else total
    return ExactResult(status, cost, roster, nodes, cost_cuts, coverage_cuts, len(components))
