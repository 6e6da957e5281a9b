"""Exact solver for desk-scale instances, used as ground truth in tests.

Depth-first branch and bound over nurses in id order.  Patterns are tried
cheapest-first within each nurse, ties kept in feasible-list order, and an
incumbent is replaced only by a strictly cheaper roster.

Components.  Two nurses are joined when both can work some demanded cell
(period, band): demand above 0, a grade that serves the band and a
feasible pattern working the period.  Taking the nurses in id order, each
one merges with every group whose packed reach (Instance.search_tables())
shares a demanded cell with hers.  Each component is searched on its own,
over its nurses in id order, against the demand of its own cells only; the
rosters are stitched together and their costs added.  A generated instance
draws every nurse's patterns from days or from nights, so its two halves
are searched apart instead of multiplying each other's trees.  A demanded cell
no nurse can work makes the instance infeasible before any search.  One
node budget and one set of counters cover all components, and exact_solve
alone decides the status.

Dominated patterns.  A nurse's pattern is left out of her cost-ordered
list when an earlier entry of that list works every period it works
(the supersets of Instance.search_tables()): that entry costs no more and
covers at least as much.  The list walks her combined rows, already in cost
order.  Each pattern they lack has a superset among them earlier in cost
order, so the filter keeps the same patterns as over her whole feasible
list.

One backward sweep over a component's nurses builds one step record per
depth, once: the nurse's patterns in search order, and three figures of
the depth below, from which the search takes two sound bounds to cut a
branch:

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

The sweep builds the forced extras one kept pattern at a time, cheapest
first, not one cell at a time: the cells a pattern works that her cheaper
kept patterns do not are forced at its extra, and a cell moves between the
cost buckets only when its least extra falls (see _tables).

Both bounds read the residual demand the search carries down as one int,
CoverageState's rest packed for all bands: it starts from the component's
top and each pattern subtracts its cells, and a cell is short iff its guard
bit is set in it.  The coverage cut subtracts the remaining nurses' packed
counts from it, and the forced extra scans one list per depth that merges
the distinct extras of every band, highest first, stopping at the first one
whose cells, as guard bits, meet the residual.  Every cut of a child runs
in its parent's pattern loop, so only a child that passes them all costs a
call: its coverage cut and the leaf test are one test, then comes its cost
cut.  The root's coverage cut runs before its search, against the root's
counts, and the root needs no cost cut, because each component starts with
the incumbent at infinity.  Each depth reads its step record alone: its
patterns, and the cost to go, the counts and the extras of the depth below
it, where extras of None mark the last depth.  The search is a closure that
calls itself; exact_solve breaks that reference cycle before it returns, so
the search state, step records included, is freed when exact_solve
returns, not left to the cyclic collector.

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
runaway search into an explicit timeout, and so does a search deeper than
the interpreter's stack allows: the search recurses once per nurse, so a
component of about a thousand nurses or more ends as a TIMEOUT.
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
    optimal_cost, and no feasible roster costs less.  On TIMEOUT, when the
    node budget ran out or a search went too deep for the interpreter's
    stack, the incumbent (if any) is reported without an optimality claim.

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


def _components(instance: Instance) -> tuple[list[tuple[list[int], int]], int]:
    """The nurse components, each as (its ids in id order, its top), and
    the demanded cells no nurse can work, as low bits.

    Nurses are taken in id order, and each one merges with every group whose
    packed reach shares a demanded cell with hers.  A component's top is
    demand_bits - low_bits with the demand of every cell outside the
    component set to 0: the residual, CoverageState's rest, of its empty
    roster, from which the search starts.  Components come in the order of
    their least id.
    """
    width = instance.field_width
    demanded = ((instance.demand_bits - instance.low_bits) & instance.guard_bits) >> (width - 1)
    groups: list[tuple[list[int], int]] = []  # (ids, the union of their reach)
    for i, mine in enumerate(instance.search_tables()[2]):
        ids, fields, apart = [i], mine, []
        for other_ids, other in groups:
            if other & mine & demanded:
                ids += other_ids
                fields |= other
            else:
                apart.append((other_ids, other))
        groups = apart + [(sorted(ids), fields)]
    components, workable = [], 0
    for ids, fields in sorted(groups):
        workable |= fields
        top = ((instance.demand_bits & fields) | instance.guard_bits) - instance.low_bits
        components.append((ids, top))
    return components, demanded & ~workable


def _tables(instance: Instance, ids: list[int]) -> tuple[list[tuple], int]:
    """The search's step records over nurses ids, built in one backward
    sweep, and the counts of the root.  Depth d is nurse ids[d].

    steps[d] = (patterns, later, below, after) is what depth d reads:

    patterns lists nurse ids[d]'s (pattern, its cost, its packed cells) in
    search order, without her dominated patterns (see the module docstring).

    later is the sum of the cheapest pattern cost of nurses ids[d + 1:].

    below packs, per cell (period, band), the count of nurses ids[d + 1:]
    qualified for the band with a pattern working the period; the second
    value returned is that count over all of ids, the root's.  Once nurse
    ids[d] has a pattern the search's residual holds nurses ids[:d + 1]
    only, so below + covered <= n < 2**(w-1) in every field and, by
    CoverageState's width rule, the residual minus below cannot borrow: a
    cell's guard bit is set iff the cell is short by more than below, a
    cell no completion covers; at the last depth, where below is 0, iff it
    is short.  The root's counts test the component's top the same way.

    after pairs each positive cost with the guard bits of the cells, in any
    band, that force it, highest cost first, or is None at the last depth,
    which marks a leaf.  A cell's cost is the least any of nurses ids[d +
    1:] qualified for its band pays above her cheapest pattern to work its
    period.  Cells no such nurse can work are left out: the coverage cut
    settles them before the extras are read.

    The sweep walks each nurse's kept patterns cheapest first.  The cells a
    pattern works that her cheaper kept ones do not are those it is her
    cheapest cover of, at its extra.  Each of them whose least extra so
    falls leaves its dearer bucket for the bucket at that extra or, at extra
    0, for a mask kept apart from the list.  Each fall builds a new list, so
    the list as it stood after a nurse is shared with the records above it
    until the next fall; no depth sorts or copies it.
    """
    supersets, scans, reach = instance.search_tables()
    shift, steps = instance.field_width - 1, []
    later = counts = 0  # of the nurses below the one walked
    after, free, buckets = None, 0, []  # the cells at least extra 0; the others' (extra, bits)
    for i in reversed(ids):
        rows, cells = scans[i][2], instance.nurse_cells[i]
        cheapest, mine = rows[0][0], []
        steps.append((mine, later, counts, after))
        seen = worked = 0  # the ids walked, and the cells her kept patterns work
        for price, _, j, _ in rows:
            if not supersets[j] & seen:
                mine.append((j, price, cells[j]))
                new = cells[j] & ~worked  # j is her cheapest cover of these
                if new:
                    worked |= new
                    more, held, at = price - cheapest, free, len(buckets)
                    while at and buckets[at - 1][0] < more:  # the cheaper buckets
                        at -= 1
                        held |= buckets[at][1]
                    new = (new << shift) & ~held
                    if new:  # their least extra falls to more: dearer buckets give them up
                        merged = []
                        for c, b in buckets[:at]:
                            if c == more:
                                new |= b
                            elif b & ~new:
                                merged.append((c, b & ~new))
                        if more:
                            merged.append((more, new))
                        else:
                            free |= new
                        buckets = merged + buckets[at:]  # a new list: records below keep the old
            seen |= 1 << j
        # a dominated pattern works no period its kept superset does not
        later, counts, after = later + cheapest, counts + (reach[i] & instance.low_bits), buckets
    steps.reverse()
    return steps, counts


class _OutOfBudget(Exception):
    """The node budget ran out during a search."""


def exact_solve(instance: Instance, node_budget: int = NODE_BUDGET) -> ExactResult:
    """Minimum-cost feasible roster, INFEASIBLE if none, else TIMEOUT.

    TIMEOUT ends a search that runs out of node budget or recurses deeper
    than the interpreter's stack allows, one level per nurse of a component.

    The components are searched in turn, each over its nurses in id order
    against its own top, and the first one that ends with no incumbent or
    as a TIMEOUT ends the call.  All share one node count, so a component
    that starts with the budget spent allows the cuts at depth 0 and no
    node.  A TIMEOUT carries a roster only when every component has one.
    Each component's search reads the step records _tables builds for it,
    one per depth, unpacked as they come, and its root's coverage cut the
    root's counts returned with them.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    components, stranded = _components(instance)
    if stranded:
        return ExactResult(INFEASIBLE, None, None, 0, 0, 1, len(components))
    guard_bits = instance.guard_bits
    nodes = cost_cuts = coverage_cuts = 0

    def search(depth: int, cost: int, rest: int) -> None:
        nonlocal best_cost, best, nodes, cost_cuts, coverage_cuts
        patterns, later, below, after = steps[depth]
        for j, price, cells in patterns:
            new_cost = cost + price
            if new_cost + later >= best_cost:
                cost_cuts += 1
                break  # patterns are cost-sorted: the later ones only cost more
            if nodes == node_budget:
                raise _OutOfBudget
            nodes += 1
            path[depth] = j
            left = rest - cells
            if (left - below) & guard_bits:  # a short leaf, or a cell no completion covers
                if after is not None:
                    coverage_cuts += 1
            elif after is None:  # covered, and cheaper than the incumbent as later is 0
                best_cost, best = new_cost, list(path)
            else:  # the child's cost cut, with its forced extra: the costliest with a short cell
                for more, bits in after:
                    if left & bits:  # bits are guard bits, set in left iff covered < demand
                        break
                else:
                    more = 0
                if new_cost + later + more >= best_cost:
                    cost_cuts += 1
                else:
                    search(depth + 1, new_cost, left)

    assignment: list[int | None] = [None] * instance.n
    status, total = OPTIMAL, 0
    for ids, top in components:
        steps, counts = _tables(instance, ids)
        path = [0] * len(ids)  # overwritten before a leaf reads it
        best_cost, best = math.inf, None  # the incumbent's cost and roster
        try:
            if (top - counts) & guard_bits:
                coverage_cuts += 1
            else:
                search(0, 0, top)
        except (_OutOfBudget, RecursionError):
            status = TIMEOUT
        if best is not None:
            total += int(best_cost)
            for i, j in zip(ids, best):
                assignment[i] = j
        elif status == OPTIMAL:
            status = INFEASIBLE
        if status != OPTIMAL:
            break
    del search  # it refers to itself: break the cycle that holds the step tables
    roster = None if status == INFEASIBLE or None in assignment else Roster(assignment)
    cost = None if roster is None else total
    return ExactResult(status, cost, roster, nodes, cost_cuts, coverage_cuts, len(components))
