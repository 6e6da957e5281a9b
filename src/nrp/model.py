"""Domain model for the weekly ward rostering problem.

A week is 14 periods: indices 0..6 are the day shifts Mon..Sun, indices
7..13 the night shifts Mon..Sun.  A shift pattern is the ascending tuple
of the periods it works, and its id is its position in the instance's
list.  Each nurse works exactly one pattern out of her personal feasible
set, and staffing demand is given per (period, grade band).  Grade bands
are numbered 1..g with 1 the highest qualification; a nurse of grade q
counts toward every band s >= q, so demand figures are cumulative across
bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

N_PERIODS = 14  # 7 day shifts followed by 7 night shifts


class RosterError(ValueError):
    """Base class for roster-related contract violations."""


class InvalidRosterError(RosterError):
    """An assignment refers to a pattern outside the nurse's feasible set."""


class IncompleteRosterError(RosterError):
    """An operation that requires a complete roster got a partial one."""


@dataclass(frozen=True)
class Nurse:
    """A nurse: qualification grade plus her feasible patterns and their costs.

    grade is 1-based with 1 the highest band.  pref_cost maps each feasible
    pattern id to its preference cost in [0, 100] (0 perfect, 100
    unacceptable), so `j in pref_cost` tests feasibility.  feasible is
    derived: the keys of pref_cost in their insertion order, which is the
    order ties go by.  It is compared, since dict equality ignores order.
    """

    id: int
    grade: int
    pref_cost: dict[int, int]
    feasible: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "feasible", tuple(self.pref_cost))
        if not self.feasible:
            raise ValueError(f"nurse {self.id}: feasible set is empty")
        if self.grade < 1:
            raise ValueError(f"nurse {self.id}: grade must be >= 1")
        for j, cost in self.pref_cost.items():
            if not 0 <= cost <= 100:
                raise ValueError(
                    f"nurse {self.id}: cost {cost} for pattern {j} outside [0, 100]"
                )


@dataclass
class Instance:
    """A full rostering problem instance.

    patterns[j] is the ascending tuple of the periods pattern j works, and
    its id j is its position in the list; a period lies in [0, N_PERIODS)
    and appears at most once.  demand holds N_PERIODS rows of g counts, a
    tuple of tuples: demand[k][s-1] nurses of grade s or higher must work
    period k.  Rows are expected to be non-decreasing across bands (the
    cumulative convention); the parser warns about a row that is not, and
    the instance takes it as given.  n, m and g are derived: the number of
    nurses, of patterns and of the demand's grade columns.  known_optimal,
    when present, is the verified minimum preference cost of a feasible
    roster, in [0, 100 * n] as every roster's is; it drives early stopping
    and batch statistics.
    The rest is the packed layout of CoverageState: cell (period k, band
    s+1) in the field at bit s * band_span + k * field_width.  low_bits and
    guard_bits set the low and the top (guard) bit of every field; demand_bits
    packs the demand matrix, guard bits set.  pattern_bits[j] has pattern
    j's periods as band-1 guard bits.  nurse_cells[i][j] copies pattern
    j's periods, as low bits, into each band nurse i serves, her grade's
    band and every band below it: the one all-band pattern table, indexed
    by nurse id and read by coverage, reconstruction, fitness and the exact
    solver.  Nurses of one grade share one row, so it holds a row per grade
    and n references.  CoverageState keeps the residual rest = demand_bits -
    low_bits - coverage, the one form of the coverage any reader takes, and
    its add and remove step rest by a nurse's row.
    The solver loop does not call them: it adds back the rows of the nurses
    it releases, and reconstruct subtracts the rows of its picks, on a local
    copy of rest written back once per step.  Only the model and the exact
    solver's components read demand_bits; every other reader starts from a
    residual.

    search_tables() returns the instance's search tables, (supersets,
    scans, reach).  Its first call, by a run, a pick or a proof, builds all
    three in one pass, and the field _search_tables keeps them for the
    instance's lifetime; the field is left out of equality and repr.  An
    instance that is only serialized, and a dataclasses.replace copy, hold
    none until the method is called; a pickled copy carries them if built.

    scans[i] is nurse i's (cover ids, cover bits, combined rows, longest),
    the tuple the reconstruction scans unpack.  The cover ids are the
    patterns the cover rule scans for her, in feasible order, and the cover
    bits their pattern bits; the combined rows are the (cost, position in
    her feasible list, id, pattern bits) rows the combined rule scans,
    cheapest first and, at equal cost, in feasible order.  The cover list
    leaves out a pattern when an earlier feasible pattern works all of its
    periods: that one fills every short cell it fills, wins the ties, and
    so the later pattern is never the first maximum.  The combined score
    also rewards a low cost, so its list leaves a pattern out only when such
    an earlier superset costs no more; with non-negative weights it then
    scores at least as much (see the reconstruct module).  The exact solver
    takes its cost-ordered search lists from the combined rows too.  longest
    is the most periods any pattern of her feasible list works.  It is also
    the longest pattern of both her scan lists, since a pattern leaves a
    list only for an earlier superset, which works at least as many
    periods; no pattern fills more short cells than that in a band, so the
    reconstruction scans cap their stopping bounds with it.
    supersets[j] is the set, as a bitset over pattern ids, of the patterns
    that work every period j works (j among them): the one superset test
    of the scan lists and of the exact solver's dominated patterns.
    reach[i] sets every bit of the field of each cell nurse i can work: the
    periods some pattern of her feasible list works, in every band her
    grade serves.  It is the union of her cover list's patterns, because a
    pattern leaves that list only for an earlier one working all its
    periods.  Reconstruction masks its memo keys with it and the exact
    solver finds its components with it.

    pick_memos maps the scoring fields of a ReconstructionConfig, (e_mode,
    w_p, w_grade), to the reconstruction's PickMemo for them, made by
    PickMemo.of on first use and kept for the instance's lifetime, so that
    every run on the instance with those weights shares one.  A pick is a
    pure function of the instance, the nurse, those fields and the masked
    coverage its memo key holds, so what ran before changes no pick.  A
    cover pick reads none of those fields, so the memos share one set of
    cover dicts.  Each memo holds at most n * 2 * MEMO_PICKS_PER_NURSE
    picks.  The field is left out of equality and repr; a
    dataclasses.replace copy starts with none, and a pickled copy carries
    those already made.
    """

    patterns: list[tuple[int, ...]]
    nurses: list[Nurse]
    demand: tuple[tuple[int, ...], ...]
    known_optimal: int | None = None
    n: int = field(init=False, compare=False)
    m: int = field(init=False, compare=False)
    g: int = field(init=False, compare=False)
    field_width: int = field(init=False, repr=False, compare=False)
    band_span: int = field(init=False, repr=False, compare=False)
    low_bits: int = field(init=False, repr=False, compare=False)
    guard_bits: int = field(init=False, repr=False, compare=False)
    demand_bits: int = field(init=False, repr=False, compare=False)
    pattern_bits: tuple[int, ...] = field(init=False, repr=False, compare=False)
    nurse_cells: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _search_tables: tuple | None = field(default=None, init=False, repr=False, compare=False)
    pick_memos: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.patterns or not self.nurses:
            raise ValueError("an instance needs at least one pattern and one nurse")
        if len(self.demand) != N_PERIODS:
            raise ValueError(f"demand must have {N_PERIODS} rows")
        self.n, self.m, self.g = len(self.nurses), len(self.patterns), len(self.demand[0])
        if self.g < 1:
            raise ValueError("demand must have at least one grade column")
        for k, row in enumerate(self.demand):
            if len(row) != self.g:
                raise ValueError(f"demand row {k}: expected {self.g} entries")
            if min(row) < 0:
                raise ValueError(f"demand row {k}: negative entry")
        if self.known_optimal is not None and not 0 <= self.known_optimal <= 100 * self.n:
            raise ValueError(f"known_optimal {self.known_optimal} outside [0, {100 * self.n}]")
        week = set(range(N_PERIODS))
        for j, periods in enumerate(self.patterns):
            if periods != tuple(sorted(set(periods) & week)):
                raise ValueError(
                    f"pattern {j}: {periods!r} is not an ascending tuple of distinct periods"
                    f" in [0, {N_PERIODS})"
                )
        for idx, nurse in enumerate(self.nurses):
            if nurse.id != idx:
                raise ValueError(f"nurse ids must be dense: slot {idx} holds id {nurse.id}")
            if nurse.grade > self.g:
                raise ValueError(f"nurse {idx}: grade {nurse.grade} exceeds g={self.g}")
            for j in nurse.feasible:
                if not 0 <= j < self.m:
                    raise ValueError(f"nurse {idx} references unknown pattern {j}")
        # the width rule and why it is enough: see CoverageState
        width = max(self.n, max(map(max, self.demand))).bit_length() + 1
        span = N_PERIODS * width
        self.field_width, self.band_span = width, span
        # spread[q-1] * x copies band-1 bits x into bands q..g, without carries
        spread = [sum(1 << (s * span) for s in range(lo, self.g)) for lo in range(self.g)]
        self.low_bits = sum(1 << (k * width) for k in range(N_PERIODS)) * spread[0]
        self.guard_bits = self.low_bits << (width - 1)
        self.demand_bits = self.guard_bits | sum(
            d << (s * span + k * width)
            for k, row in enumerate(self.demand) for s, d in enumerate(row)
        )
        cells = [sum(1 << (k * width) for k in periods) for periods in self.patterns]
        self.pattern_bits = tuple(c << (width - 1) for c in cells)
        rows = [tuple(c * copies for c in cells) for copies in spread]
        self.nurse_cells = tuple(rows[nurse.grade - 1] for nurse in self.nurses)

    def search_tables(self) -> tuple[tuple[int, ...], tuple[tuple, ...], tuple[int, ...]]:
        """(supersets, scans, reach), built on the first call and then kept.

        Walking a nurse's feasible list with seen the ids already walked, j
        is left out of her cover list iff supersets[j] & seen is nonzero,
        and out of her combined list iff one of those earlier supersets also
        costs no more than j.  The combined rows are then sorted by (cost,
        position).  Her reach and longest are read off her cover list.
        """
        if self._search_tables is not None:
            return self._search_tables
        workers = [0] * N_PERIODS
        for j, periods in enumerate(self.patterns):
            for k in periods:
                workers[k] |= 1 << j
        sup = tuple(reduce(and_, map(workers.__getitem__, periods), (1 << self.m) - 1)
                    for periods in self.patterns)
        pattern_bits = self.pattern_bits
        fields = (1 << self.field_width) - 1  # low bits times this fill their fields
        scans, reach = [], []
        for nurse, cells in zip(self.nurses, self.nurse_cells):
            costs = nurse.pref_cost
            seen, cover_ids, rows = 0, [], []
            for position, j in enumerate(nurse.feasible):
                earlier = sup[j] & seen
                seen |= 1 << j
                if not earlier:
                    cover_ids.append(j)
                # clear the earlier supersets that cost more, lowest id first
                cost = costs[j]
                while earlier and costs[(earlier & -earlier).bit_length() - 1] > cost:
                    earlier &= earlier - 1
                if not earlier:
                    rows.append((cost, position, j, pattern_bits[j]))
            cover_bits = tuple(pattern_bits[j] for j in cover_ids)
            # (cost, position) is unique, so sorted is the stable sort by cost
            scans.append((tuple(cover_ids), cover_bits, tuple(sorted(rows)),
                          max(map(int.bit_count, cover_bits))))
            reach.append(reduce(or_, map(cells.__getitem__, cover_ids)) * fields)
        self._search_tables = sup, tuple(scans), tuple(reach)
        return self._search_tables


@dataclass(slots=True)
class Roster:
    """One (possibly partial) assignment of a pattern id per nurse.

    None marks a nurse awaiting (re)assignment.
    """

    assignment: list[int | None]

    @classmethod
    def empty(cls, n: int) -> "Roster":
        return cls([None] * n)

    def copy(self) -> "Roster":
        """A new roster with its own list.

        It is built by object.__new__ and one slot store, not by the
        dataclass __init__, whose frame costs more than the copy itself: the
        solver makes three copies per iteration.
        """
        result = object.__new__(Roster)
        result.assignment = self.assignment[:]
        return result

    def is_complete(self) -> bool:
        return None not in self.assignment


class CoverageState:
    """Per-(period, band) nurse counts against demand, maintained incrementally.

    rest packs what every reader needs into one int, in the layout of
    Instance: with H = guard_bits, ONE = low_bits and D = demand_bits, rest =
    D - ONE - cov, where cov's field at bit s * band_span + k * w counts the
    assigned nurses qualified for band s+1 working period k.  Each field of
    rest so holds 2**(w-1) + demand - 1 - covered, and its guard bit is set
    iff covered < demand.  A grade-q nurse counts toward every band s >= q,
    so add and remove step rest by her row of Instance.nurse_cells, all of
    those bands at once.  Each mask covers all bands in one expression:
    short_mask() = rest & H, needed_mask() = (rest + ONE) & H iff covered <=
    demand, and the level mask ((shortfall_bits() | H) - t * ONE) & H iff
    the shortfall is at least t, for t up to max demand + 1.  Readers slice
    out band s+1 by a shift of s * band_span.

    add is the checked way in, used by compute_coverage and other callers.
    reconstruct does not call it: its loop subtracts the picks' rows from a
    local copy of rest, adds their costs to a local cost, writing costs
    entries as it goes, and stores rest and cost back once per call.  The
    solver releases nurses the same way, adding their rows to a local rest
    stored back once per iteration, so remove serves other callers and the
    tests.

    Width rule: w = max(n, max demand).bit_length() + 1 keeps counts,
    demands, shortfalls and levels within 2**(w-1), so every field of these
    expressions stays in [0, 2**w): none borrows from the next, and its
    guard bit reads the comparison.  The last field of a band is no
    different, so no borrow crosses a band boundary either.

    The state also keeps the roster's preference costs: costs[i] is the cost
    of nurse i's current pattern, and cost their sum over the assigned
    nurses.  The entry of an unassigned nurse is stale and never read.
    Fitness reads costs and penalized_cost reads cost, so neither sums the
    roster again.  reconstruct, component_fitness_all and penalized_cost
    build no state of their own: the caller passes one that matches the
    roster, the solver its run's state and any other caller the one
    compute_coverage(instance, roster) returns.  The shortfall has no
    running total: total_shortfall() reads the packed shortfall one bit
    plane at a time, 2**k for each field whose bit k is set, over the w - 1
    bits the width rule leaves a shortfall, so its cost grows with the
    field width, not with the demand.  (The shortfall e-mode's band terms,
    reconstruct._band_terms, still build one level mask per unit of
    shortfall.)  There is no per-cell view: rest fixes every count and every
    shortfall, so check() compares the whole state, rest, costs and cost,
    with a recount of a roster.
    """

    __slots__ = ("instance", "rest", "costs", "cost")

    def __init__(self, instance: Instance) -> None:
        """The state of the empty roster: nothing covered, all demand short."""
        self.instance = instance
        self.rest = instance.demand_bits - instance.low_bits
        self.costs = [0] * instance.n
        self.cost = 0

    def total_shortfall(self) -> int:
        """The shortfall summed over every cell: bit plane k's count times 2**k."""
        short, low_bits = self.shortfall_bits(), self.instance.low_bits
        return sum((short >> k & low_bits).bit_count() << k
                   for k in range(self.instance.field_width - 1))

    def short_mask(self) -> int:
        """Cells still short, guard bit set iff covered < demand."""
        return self.rest & self.instance.guard_bits

    def needed_mask(self) -> int:
        """Cells where one qualified nurse fewer would fall short (covered <= demand)."""
        return (self.rest + self.instance.low_bits) & self.instance.guard_bits

    def shortfall_bits(self) -> int:
        """max(demand - covered, 0) in every cell's field."""
        instance = self.instance
        diff = self.rest + instance.low_bits  # 2**(w-1) + demand - covered
        met = diff & instance.guard_bits  # where demand >= covered
        return diff & (met - (met >> (instance.field_width - 1)))

    def add(self, nurse_id: int, pattern_id: int) -> None:
        """Account for nurse nurse_id starting to work pattern pattern_id.

        Raises InvalidRosterError, before any field changes, when the
        pattern is outside her feasible set.
        """
        instance = self.instance
        nurse = instance.nurses[nurse_id]
        cost = nurse.pref_cost.get(pattern_id)
        if cost is None:
            raise InvalidRosterError(
                f"nurse {nurse_id} assigned pattern {pattern_id} outside A(i)"
            )
        self.rest -= instance.nurse_cells[nurse_id][pattern_id]
        self.costs[nurse_id] = cost
        self.cost += cost

    def remove(self, nurse_id: int, pattern_id: int) -> None:
        """Account for nurse nurse_id being released from pattern pattern_id."""
        self.rest += self.instance.nurse_cells[nurse_id][pattern_id]
        self.cost -= self.costs[nurse_id]

    def check(self, roster: Roster) -> None:
        """Raise ValueError unless the state equals a recount of roster.

        The recount starts from the empty roster; the first field that
        differs, rest, an assigned nurse's costs entry or cost, is named.
        Draws nothing from any rng.
        """
        fresh = compute_coverage(self.instance, roster)
        if self.rest != fresh.rest:
            raise ValueError("rest differs from a recount of the roster")
        for i, j in enumerate(roster.assignment):
            if j is not None and self.costs[i] != fresh.costs[i]:
                raise ValueError(
                    f"costs[{i}] is {self.costs[i]}, but pattern {j} costs {fresh.costs[i]}"
                )
        if self.cost != fresh.cost:
            raise ValueError(f"cost is {self.cost}, but the roster costs {fresh.cost}")


def compute_coverage(instance: Instance, roster: Roster) -> CoverageState:
    """Build the coverage state of a roster from scratch.

    Unassigned nurses contribute nothing.  Raises InvalidRosterError when
    the roster does not hold one entry per nurse or an assignment falls
    outside the nurse's feasible set.
    """
    if len(roster.assignment) != instance.n:
        raise InvalidRosterError(f"{len(roster.assignment)} roster entries for {instance.n} nurses")
    state = CoverageState(instance)
    for i, j in enumerate(roster.assignment):
        if j is not None:
            state.add(i, j)
    return state


def is_feasible(instance: Instance, roster: Roster) -> bool:
    """True iff the roster is complete and meets demand at every (period, band).

    Every roster goes through compute_coverage first, so one whose length
    is not n raises InvalidRosterError, complete or not.
    """
    return not compute_coverage(instance, roster).short_mask() and roster.is_complete()


def preference_cost(instance: Instance, roster: Roster) -> int:
    """Total preference cost of a complete roster.

    Raises InvalidRosterError unless the roster holds one entry per nurse,
    each inside the nurse's feasible set.
    """
    if len(roster.assignment) != instance.n:
        raise InvalidRosterError(f"{len(roster.assignment)} roster entries for {instance.n} nurses")
    total = 0
    for i, j in enumerate(roster.assignment):
        if j is None:
            raise IncompleteRosterError(f"nurse {i} is unassigned")
        if j not in instance.nurses[i].pref_cost:
            raise InvalidRosterError(f"nurse {i} assigned pattern {j} outside A(i)")
        total += instance.nurses[i].pref_cost[j]
    return total
