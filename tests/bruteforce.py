"""Independent reference implementations used as test oracles.

Everything here recomputes from first principles with plain loops over the
raw instance data, deliberately sharing no code with the incremental
machinery under test.  The one exception is exact_solve_child_by_call,
which keeps an earlier form of the exact solver's search over the
oracle's own tables, to pin its counters.
"""

from __future__ import annotations

import itertools
import math

from nrp.model import N_PERIODS, Instance, Roster
from nrp.oracle import INFEASIBLE, OPTIMAL, TIMEOUT, ExactResult, _components, _tables

BF_OPTIMAL = "optimal"
BF_INFEASIBLE = "infeasible"


def qualified(instance: Instance, i: int, band: int) -> bool:
    """Nurse i counts toward 1-based grade band iff her grade is <= band."""
    return instance.nurses[i].grade <= band


def coverage_matrix(instance: Instance, roster: Roster) -> list[list[int]]:
    """covered[k][s] straight from the demand constraint's triple sum."""
    g = instance.g
    covered = [[0] * g for _ in range(N_PERIODS)]
    for i, j in enumerate(roster.assignment):
        if j is None:
            continue
        bands = [s - 1 for s in range(1, g + 1) if qualified(instance, i, s)]
        for k in instance.patterns[j]:
            for s in bands:
                covered[k][s] += 1
    return covered


def feasible_by_definition(instance: Instance, roster: Roster) -> bool:
    if None in roster.assignment:
        return False
    covered = coverage_matrix(instance, roster)
    return all(
        covered[k][s] >= instance.demand[k][s]
        for k in range(N_PERIODS)
        for s in range(instance.g)
    )


def brute_force_solve(instance: Instance) -> tuple[str, int | None]:
    """Minimum feasible cost by raw enumeration of every complete roster."""
    best: int | None = None
    feasible_sets = [nurse.feasible for nurse in instance.nurses]
    for combo in itertools.product(*feasible_sets):
        roster = Roster(list(combo))
        if feasible_by_definition(instance, roster):
            cost = sum(
                instance.nurses[i].pref_cost[j] for i, j in enumerate(combo)
            )
            if best is None or cost < best:
                best = cost
    if best is None:
        return BF_INFEASIBLE, None
    return BF_OPTIMAL, best


def first_optimal_roster(instance: Instance) -> list[int] | None:
    """First minimum-cost feasible roster in the exact solver's search order.

    Rosters are enumerated lexicographically: nurses in id order, each
    nurse's patterns sorted by cost with ties kept in feasible-list order.
    A later roster replaces the best only when strictly cheaper, so the
    first one found at the minimum cost is returned; None if none is feasible.
    """
    orders = [
        sorted(nurse.feasible, key=lambda j, nurse=nurse: nurse.pref_cost[j])
        for nurse in instance.nurses
    ]
    best: int | None = None
    best_combo: list[int] | None = None
    for combo in itertools.product(*orders):
        if not feasible_by_definition(instance, Roster(list(combo))):
            continue
        cost = sum(instance.nurses[i].pref_cost[j] for i, j in enumerate(combo))
        if best is None or cost < best:
            best, best_combo = cost, list(combo)
    return best_combo


class _BudgetSpent(Exception):
    """The node budget of exact_solve_child_by_call ran out."""


def exact_solve_child_by_call(instance: Instance, node_budget: int) -> ExactResult:
    """exact_solve as it was when every child was a call of its own.

    Each search call tests, in this order, the leaf (no short cell and a
    strictly cheaper cost), the coverage cut and the cost cut of its own
    node, so a coverage-cut child, a leaf and the root's coverage cut each
    take a call.  The tables come from the oracle's _components and _tables,
    and each call carries the residual demand rest from the component's top
    down, as the oracle's search does.
    """
    components, stranded = _components(instance)
    if stranded:
        return ExactResult(INFEASIBLE, None, None, 0, 0, 1, len(components))
    guard_bits = instance.guard_bits
    nodes = cost_cuts = coverage_cuts = 0

    def search(depth: int, cost: int, rest: int) -> None:
        nonlocal best_cost, best, nodes, cost_cuts, coverage_cuts
        short = rest & guard_bits
        if depth == size:
            if not short and cost < best_cost:
                best_cost, best = cost, list(path)
            return
        if (rest - avail[depth]) & guard_bits:
            coverage_cuts += 1
            return
        forced = 0
        for more, bits in extra[depth]:
            if short & bits:
                forced = more
                break
        if cost + to_go[depth] + forced >= best_cost:
            cost_cuts += 1
            return
        for j, price, cells in choices[depth]:
            new_cost = cost + price
            if new_cost + to_go[depth + 1] >= best_cost:
                cost_cuts += 1
                break
            if nodes == node_budget:
                raise _BudgetSpent
            nodes += 1
            path[depth] = j
            search(depth + 1, new_cost, rest - cells)

    assignment: list[int | None] = [None] * instance.n
    status, total = OPTIMAL, 0
    for ids, top in components:
        choices, to_go, avail, extra = _tables(instance, ids)
        size, path = len(ids), [0] * len(ids)
        best_cost: float = math.inf
        best: list[int] | None = None
        try:
            search(0, 0, top)
        except _BudgetSpent:
            status = TIMEOUT
        if best is not None:
            total += int(best_cost)
            for i, j in zip(ids, best):
                assignment[i] = j
        elif status == OPTIMAL:
            status = INFEASIBLE
        if status != OPTIMAL:
            break
    roster = None if status == INFEASIBLE or None in assignment else Roster(assignment)
    cost = None if roster is None else total
    return ExactResult(status, cost, roster, nodes, cost_cuts, coverage_cuts, len(components))


def components_by_definition(instance: Instance) -> list[list[int]]:
    """Nurse components: breadth-first search over nurses who share a cell.

    Two nurses share a cell when both can work a (period, band) with
    positive demand: qualified for the band, with a feasible pattern
    working the period.  Each component lists its ids in id order, and the
    components come in the order of their least id.
    """
    cells = [
        {
            (k, s)
            for k in range(N_PERIODS)
            for s in range(instance.g)
            if instance.demand[k][s] > 0
            and qualified(instance, i, s + 1)
            and any(k in instance.patterns[j] for j in nurse.feasible)
        }
        for i, nurse in enumerate(instance.nurses)
    ]
    placed: set[int] = set()
    components = []
    for start in range(instance.n):
        if start in placed:
            continue
        placed.add(start)
        queue, members = [start], []
        while queue:
            i = queue.pop(0)
            members.append(i)
            for other in range(instance.n):
                if other not in placed and cells[i] & cells[other]:
                    placed.add(other)
                    queue.append(other)
        components.append(sorted(members))
    return components


def contribution_by_removal(
    instance: Instance, roster: Roster, i: int, covered: list[list[int]] | None = None
) -> int:
    """Remove nurse i, recount coverage, count her short covered slots.

    covered, when given, is coverage_matrix(instance, roster): in each cell
    that nurse i covers she counts 1, so the count without her is covered
    less 1 there.  Without it, the roster less nurse i is recounted.
    """
    own = 1
    if covered is None:
        without = roster.copy()
        without.assignment[i] = None
        covered, own = coverage_matrix(instance, without), 0
    total = 0
    for k in instance.patterns[roster.assignment[i]]:
        for s in range(1, instance.g + 1):
            if qualified(instance, i, s) and covered[k][s - 1] - own < instance.demand[k][s - 1]:
                total += 1
    return total


def fitness_by_definition(instance: Instance, roster: Roster, weights) -> list[float]:
    """w1 * f1 + w2 * f2 per nurse of a complete roster, one float at a time.

    Costs come from pref_cost and contributions from contribution_by_removal;
    the loop is the per-nurse one component_fitness_all ran before its term
    tables, so its floats are the ones the tables must give bit for bit.
    """
    costs = [instance.nurses[i].pref_cost[j] for i, j in enumerate(roster.assignment)]
    covered = coverage_matrix(instance, roster)
    contribs = [contribution_by_removal(instance, roster, i, covered) for i in range(instance.n)]

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


def shortfall_matrix(instance: Instance, roster: Roster) -> list[list[int]]:
    covered = coverage_matrix(instance, roster)
    return [
        [max(demand - count, 0) for demand, count in zip(demands, counts)]
        for demands, counts in zip(instance.demand, covered)
    ]


def penalized_cost_by_definition(instance: Instance, roster: Roster, weights) -> float:
    """pref_cost summed over a complete roster plus w_demand times the summed shortfall_matrix."""
    cost = sum(instance.nurses[i].pref_cost[j] for i, j in enumerate(roster.assignment))
    return cost + weights.w_demand * sum(map(sum, shortfall_matrix(instance, roster)))


def residual_by_definition(instance: Instance, roster: Roster) -> int:
    """CoverageState.rest from the counts: 2**(w-1) + demand - 1 - covered per field.

    The field of cell (period k, band s+1) starts at bit s * band_span +
    k * field_width, w = field_width wide.
    """
    w, span = instance.field_width, instance.band_span
    covered = coverage_matrix(instance, roster)
    return sum(
        ((1 << (w - 1)) + instance.demand[k][s] - 1 - covered[k][s]) << (s * span + k * w)
        for k in range(N_PERIODS)
        for s in range(instance.g)
    )


def cover_value_by_definition(
    instance: Instance, roster: Roster, i: int, j: int, short=None
) -> int:
    """Cover-rule value recomputed from the partial roster itself.

    short, when given, is the roster's shortfall_matrix, counted once by a
    caller that scores many patterns against one roster.
    """
    short = shortfall_matrix(instance, roster) if short is None else short
    focus = None
    for s in range(1, instance.g + 1):
        if qualified(instance, i, s) and any(row[s - 1] > 0 for row in short):
            focus = s - 1
            break
    if focus is None:
        return 0
    return sum(1 for k in instance.patterns[j] if short[k][focus] > 0)


def combined_score_by_definition(
    instance: Instance,
    roster: Roster,
    w_p: float,
    w_grade: tuple[float, ...],
    i: int,
    j: int,
    e_mode: str = "indicator",
    short=None,
) -> float:
    """Combined-rule score recomputed from the partial roster itself.

    Band s is weighted by w_grade[s - 1], or by the last weight when s is
    past the end of w_grade.  short is as for cover_value_by_definition.
    """
    short = shortfall_matrix(instance, roster) if short is None else short
    score = w_p * (100 - instance.nurses[i].pref_cost[j])
    for s in range(1, instance.g + 1):
        if not qualified(instance, i, s):
            continue
        gain = 0
        for k in instance.patterns[j]:
            if short[k][s - 1] > 0:
                gain += 1 if e_mode == "indicator" else short[k][s - 1]
        score += w_grade[min(s, len(w_grade)) - 1] * gain
    return score


def scan_lists_by_definition(
    instance: Instance, i: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Nurse i's cover and combined scan ids, by pairwise comparison.

    Pattern j leaves the cover list iff an earlier pattern j' of her
    feasible list works every period j works, and leaves the combined list
    iff such a j' also costs no more than j.
    """
    nurse = instance.nurses[i]
    cover, combined = [], []
    for index, j in enumerate(nurse.feasible):
        supersets = [
            earlier
            for earlier in nurse.feasible[:index]
            if all(k in instance.patterns[earlier] for k in instance.patterns[j])
        ]
        if not supersets:
            cover.append(j)
        if all(nurse.pref_cost[earlier] > nurse.pref_cost[j] for earlier in supersets):
            combined.append(j)
    return tuple(cover), tuple(combined)


def sign_test_p_value(wins: int, losses: int) -> float:
    """One-sided exact sign test: P[X >= wins] for X ~ Binomial(wins+losses, 1/2)."""
    import math

    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(wins, n + 1))
    return tail / 2.0**n
