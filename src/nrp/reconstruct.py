"""Greedy repair of a partial roster back to a complete one.

Freed nurses are processed in ascending id order.  For each one a rule is
drawn: the cover rule picks the feasible pattern plugging the most holes at
the worst understaffed band the nurse can serve, the combined rule trades
preference cost against shortfall reduction, and the random rule picks any
feasible pattern.  Existing assignments are never touched, and coverage is
updated after every assignment so later choices see earlier ones.  The loop
keeps that coverage, and the roster's cost, in local variables: it reads
the CoverageState's residual rest, whose guard bits are the short mask,
subtracts each pick's row of Instance.nurse_cells from it and adds its cost,
and writes rest and cost back once per call, without calling
CoverageState.add.

Scoring runs on the packed masks of CoverageState.  Each pattern carries
its worked periods as band-1 guard bits (Instance.pattern_bits), and
CoverageState.short_mask() gives the short cells of every band at once.  A
band shifted down out of it gives the short periods a pattern covers there
as (bits & short).bit_count().  The cover rule takes one band, the nurse's
focus band, from the mask's lowest set bit at or above her own band.  The
pick loop computes that focus mask, and the combined rule's band state,
inline from the residual it carries; _focus_mask and _band_state are the
references they must equal, read by cover_value, combined_score and the
tests.  The combined rule has one scorer for both e-modes, its scan
(_scan_combined), which combined_score runs over a single pattern.  Per
pick it builds the band terms once (_band_terms): each band she serves
becomes a weight and a tuple of level masks, whose popcounts against a
pattern sum to the band's count.  In indicator mode the one level is the
band's short cells.  The shortfall e-mode weights each period by its
shortfall, so its levels are the masks of cells short by at least t = 1,
2, ..., built from the band's slice of the packed shortfall, and a cell
short by r is counted at r levels.  The scan adds the weighted integer counts to the preference term
band by band in ascending order, the order the per-period definition sums
them in, so the float scores, and hence the tie-breaks, equal the
definition's.

A rule scans only the patterns that can be its first maximum, listed per
nurse in Instance.cover_scan and Instance.combined_scan.  Take pattern j
and an earlier pattern j' of the nurse's feasible list that works every
period j works.  Whatever the coverage, j' fills at least the short cells j
fills, in every band, so its cover value is at least j's; a tie goes to j',
so j is never the cover rule's first maximum and leaves the cover list.
The combined score adds the band terms w_s * count to the preference term
w_p * (100 - cost).  j' scores at least as much as j on every band term
because the weights are non-negative (ReconstructionConfig rejects negative
ones),
and the float sums keep that order because multiplication and addition
round monotonically.  The preference term keeps it only if cost[j'] <=
cost[j], so j leaves the combined list only when such a j' also costs no
more.  The first maximum of the full list is never left out, because an
earlier pattern scoring at least as much would contradict its being first,
so scanning the shorter list gives the same pick.

Both scans also stop once no later pattern can win.  No pattern fills more
cells than are short, nor more than the periods it works, and none of the
nurse's works more than Instance.longest.  So the cover rule, walking its
list in feasible order, returns the first pattern that fills min(short
cells, longest) of them; only when none does is the whole list scored.
The combined list is stored cheapest first, each pattern with its position
in the feasible list.  A pattern's bound is the float chain of its score
with each band's count replaced by the band's cap, the sum over its levels
of min(popcount, longest): w_p * (100 - cost), then + w_s * cap band by
band.  Every weight is non-negative and rounding is monotone, so the bound
is at least the score, and along the cost order the preference term, and
with it the bound, never rises.  The scan evaluates the bound once per
distinct cost and stops at the first whose bound is below the best score
so far.  Scores equal to the best go to the lower feasible position, so the
pick is the first maximum in feasible order, as without the stop.  With
w_p = 0 no bound falls and the whole list is scored.  Both stops pay most
when patterns work few periods, as on the paper's ward shape, where none
works more than 4 or 5.

A pick is a pure function of the nurse and of what its rule reads of the
coverage, and the same states recur across the iterations of a run, so
picks are memoized in a PickMemo, which holds two dicts per nurse, one per
rule, each keyed by one mask int.  The cover rule's key is her focus-band
short mask; the combined rule's is the short mask of the bands the nurse
serves, or in shortfall mode their packed shortfall.  Both masks keep only
the cells the nurse can work (Instance.reach), so a change of coverage in
periods she never works, the other half of the week for a ward nurse,
leaves her keys as they were.  The picks stay the same: every scanned
pattern works only periods inside her reach, so each popcount and each
shortfall sum is unchanged; a band whose masked column is empty is
skipped, which leaves every score's float as it was (see _band_terms); and
the focus band is still chosen from the unmasked short mask.  The pick
loop finds it from per-band masks of the nurse's memo row: the first band
from hers up whose guard bits meet the short cells is the focus band, and
the short cells there, kept to her reach and moved down to band 1's bits,
are the cover key.  The mask keys leave out what else a pick reads, the
instance and the rule config's scoring fields (e_mode, w_p, w_grade), so a
memo serves one instance and one set of those fields: the instance keeps
one memo per set (Instance.pick_memos), and PickMemo.of hands it to every
run and construction pass with those fields, whatever their seed.  A cover
pick reads none of those fields, so the memos of one instance share their
cover dicts.  p1 and p2 only choose the rule, so presets that differ in
them alone share a memo.  The
states recur across seeds, so a run on an instance that has run before
finds many of its picks made.  New states keep arriving, so a nurse's dict
is emptied once it holds MEMO_PICKS_PER_NURSE entries; since a pick is
pure, neither emptying a dict nor what ran before changes a pick.  A rule's
memo so holds at most n * MEMO_PICKS_PER_NURSE picks, and an instance at
most n * 2 * MEMO_PICKS_PER_NURSE per set of scoring fields.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .model import (
    CoverageState,
    Instance,
    InvalidRosterError,
    Nurse,
    Roster,
)

E_MODES = ("indicator", "shortfall")
MEMO_PICKS_PER_NURSE = 256  # per nurse and rule; see the module docstring


@dataclass(frozen=True, kw_only=True)
class ReconstructionConfig:
    """Rule probabilities p1 (cover) and p2 (combined), plus the combined
    rule's e-term mode and weights.

    The random rule takes the rest, 1 - p1 - p2, so p1 + p2 may not exceed
    1.  Every field is passed by keyword.  e_mode chooses how the combined
    rule scores an understaffed period: "indicator" counts it once,
    "shortfall" weights it by the number of nurses still missing.  w_p is
    the combined rule's preference weight and w_grade its grade band
    weights, band 1 first.  Band s takes w_grade[min(s, len(w_grade)) - 1],
    so the last weight also covers every band past the end of the tuple and
    any grade count fits.
    """

    p1: float = 0.80
    p2: float = 0.18
    e_mode: str = "indicator"
    w_p: float = 1.0
    w_grade: tuple[float, ...] = (8.0, 2.0, 1.0)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.p1, self.p2))):
            raise ValueError("rule probabilities must be finite")
        if min(self.p1, self.p2) < 0:
            raise ValueError("rule probabilities must be nonnegative")
        if self.p1 + self.p2 > 1 + 1e-12:
            raise ValueError("p1 + p2 must not exceed 1")
        if self.e_mode not in E_MODES:
            raise ValueError(f"e_mode must be one of {E_MODES}")
        if not (math.isfinite(self.w_p) and self.w_p >= 0):
            raise ValueError("w_p must be non-negative and finite")
        if not self.w_grade:
            raise ValueError("w_grade needs at least one grade weight")
        if not all(math.isfinite(w) and w >= 0 for w in self.w_grade):
            raise ValueError("grade weights must be non-negative and finite")
        # floats, so weights spelled 1 and 1.0 score alike and key one PickMemo
        object.__setattr__(self, "w_p", float(self.w_p))
        object.__setattr__(self, "w_grade", tuple(map(float, self.w_grade)))


def _focus_mask(instance: Instance, coverage: CoverageState, nurse: Nurse) -> int:
    """Short mask of the first band the nurse serves that has any shortfall.

    The mask is moved down to band 1's bits, where Instance.pattern_bits
    sit.  Zero when no band the nurse can serve is short.
    """
    span = instance.band_span
    short = coverage.short_mask() >> (nurse.grade - 1) * span
    if not short:
        return 0
    # the lowest set bit lies in the focus band
    focus = ((short & -short).bit_length() - 1) // span * span
    return (short >> focus) & ((1 << span) - 1)


def _band_state(
    instance: Instance, coverage: CoverageState, nurse: Nurse, e_mode: str
) -> int:
    """What the combined rule reads of the bands the nurse serves, as one int.

    In indicator mode that is the short mask and in shortfall mode the
    packed shortfall, moved down so that the nurse's own band starts at bit
    0; the bands she does not serve drop out.
    """
    packed = coverage.short_mask() if e_mode == "indicator" else coverage.shortfall_bits()
    return packed >> (nurse.grade - 1) * instance.band_span


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
    if j not in nurse.pref_cost:
        raise InvalidRosterError(f"pattern {j} is not feasible for nurse {i}")
    short = _focus_mask(instance, coverage, nurse)
    return (instance.pattern_bits[j] & short).bit_count()


def combined_score(
    instance: Instance, coverage: CoverageState, config: ReconstructionConfig, i: int, j: int
) -> float:
    """Weighted blend of pattern cheapness and shortfall reduction.

    Score = w_p * (100 - cost) + sum over qualified bands s of
    w_grade[min(s, len(w_grade)) - 1] * (short periods the pattern covers
    at band s, each weighted by its shortfall in config's shortfall
    e-mode), so the last weight covers every band past the tuple's end.
    The pattern is scored by the combined rule's own scan (_scan_combined),
    run over its one row, so the float is the one the rule compares.
    """
    nurse = instance.nurses[i]
    if j not in nurse.pref_cost:
        raise InvalidRosterError(f"pattern {j} is not feasible for nurse {i}")
    terms = _band_terms(instance, config, nurse.grade, instance.longest[i],
                        _band_state(instance, coverage, nurse, config.e_mode))
    row = (nurse.pref_cost[j], 0, j, instance.pattern_bits[j])
    return _scan_combined((row,), config.w_p, terms)[0]


def _band_terms(
    instance: Instance, config: ReconstructionConfig, grade: int, longest: int, state: int
) -> list[tuple[float, tuple[int, ...], float]]:
    """(w_s, levels, w_s * cap) for each band from grade up that can score.

    These are the bands a nurse of that grade serves, and state is her
    _band_state in config's e-mode, from which each band is sliced in turn,
    lowest first, and weighted from config.w_grade.  A band's levels are
    guard-bit masks whose popcounts against a pattern's bits sum to its
    count: in indicator mode one level, the short cells,
    built in one step; in shortfall mode level t holds the cells short by
    at least t, so a cell short by r is counted once at each of the levels
    1..r.  No pattern working at most longest periods fills more than
    min(popcount, longest) cells of a level, so cap, the sum of that over
    the levels, bounds the band's count for every pattern of the nurse (see
    Instance.longest).  A band with weight 0 or no short cell is left out:
    it would add ws * 0 = +0.0 to every score, which changes no float but a
    -0.0, and that one compares equal.
    """
    span = instance.band_span
    band = (1 << span) - 1
    guard_bits, low_bits = instance.guard_bits & band, instance.low_bits & band
    w_grade, indicator = config.w_grade, config.e_mode == "indicator"
    last = len(w_grade) - 1
    terms = []
    for s in range(grade - 1, instance.g):
        ws = w_grade[min(s, last)]
        column, state = state & band, state >> span
        if ws == 0 or not column:
            continue
        if indicator:
            terms.append((ws, (column,), ws * min(column.bit_count(), longest)))
            continue
        levels, cap = [], 0
        level = (column | guard_bits) - low_bits
        while cells := level & guard_bits:
            levels.append(cells)
            cap += min(cells.bit_count(), longest)
            level -= low_bits
        terms.append((ws, tuple(levels), ws * cap))
    return terms


def _scan_combined(rows, w_p: float, terms: list) -> tuple[float, int]:
    """The best score over rows, cheapest first, and its first pattern.

    rows are combined_scan rows (cost, position, id, bits), sorted by cost,
    and terms the nurse's _band_terms.  A row's score is its preference term
    w_p * (100 - cost), then each band term w_s * count added lowest band
    first, the order the per-period definition sums them in, so equal
    inputs give bit-equal floats.  Once per distinct cost the bound, the
    same chain with each count replaced by its cap, is compared with the
    best score so far, and the scan stops when it is below.  Equal scores go
    to the lower position.
    """
    best, pick, first, last = -math.inf, 0, 0, None
    for cost, position, j, bits in rows:
        if cost != last:
            last, preference = cost, w_p * (100 - cost)
            bound = preference
            for _, _, most in terms:
                bound += most
            if bound < best:
                break
        score = preference
        for ws, levels, _ in terms:
            count = 0
            for cells in levels:
                count += (bits & cells).bit_count()
            score += ws * count
        if score > best or score == best and position < first:
            best, pick, first = score, j, position
    return best, pick


class PickMemo:
    """The cover and combined picks already made on one instance under one
    set of scoring fields (ReconstructionConfig's e_mode, w_p and w_grade).

    A pick depends only on the nurse and on what the rule reads of the
    coverage, so the memo maps exactly that to the chosen pattern.  It keeps
    one row per nurse, nurses[i] = (nurse, shift, works, cells, pref_cost,
    cover, combined, bands, scan): her band offset (grade - 1) * band_span,
    her reach moved down by it, her row of Instance.nurse_cells, her costs,
    two dicts keyed by a mask int alone, bands, and scan, what a memo miss
    scans: her cover ids, their pattern bits, her combined rows and her
    longest, from Instance.cover_scan, combined_scan and longest, so that a
    miss reads no table's name, a read CPython does not specialise (see
    Instance).  scan stays last; tests/test_kernel.py reads it as row[-1].
    bands holds, for each band from her grade up, lowest first, (the band's
    guard bits, those of them in her reach, the band's offset s *
    band_span).  cover maps her focus-band short mask and combined her
    _band_state, both masked to works, the cells she can work
    (Instance.reach).  reconstruct finds the cover key from bands: the
    first band whose guard bits meet the short mask is her focus band, and
    the key is the short mask kept to her reach there, shifted down by the
    band's offset, or 0 when no band meets it; that is _focus_mask & works,
    since her reach is the same periods in every band she serves.  Her
    patterns fill no other cell, so one key serves every coverage that
    differs only outside them.  The keys leave out the instance and the
    scoring fields, so a memo serves only the instance it was made for and
    one set of those fields: PickMemo.of keeps one per set on the instance,
    for every run with them.  A cover pick reads none of the scoring
    fields, so a memo made with covers, another memo of the instance,
    shares its cover dicts.  A new PickMemo(instance) holds no pick yet, so
    any one config may use it.  A dict that has reached
    MEMO_PICKS_PER_NURSE entries is emptied before the next one is stored.
    reconstruct reads one row per freed nurse, subtracts the pick's cells
    from its local residual and adds the pick's cost, and writes both back
    once per call without calling CoverageState.add.  layout holds what
    every call reads of the packed layout, built once per memo: (low_bits,
    guard_bits, and field_width - 1, the shift from a guard bit to its low
    bit).
    """

    __slots__ = ("nurses", "layout")

    def __init__(self, instance: Instance, covers: PickMemo | None = None) -> None:
        span, self.nurses = instance.band_span, []
        guards = [(instance.guard_bits & ((1 << span) - 1) << at, at)
                  for at in range(0, instance.g * span, span)]
        tables = zip(instance.nurses, instance.reach, instance.nurse_cells, instance.cover_scan,
                     instance.combined_scan, instance.longest)
        for nurse, reach, cells, cover, rows, longest in tables:
            shift, scan = (nurse.grade - 1) * span, (*cover, rows, longest)
            bands = tuple((guard, guard & reach, at) for guard, at in guards[nurse.grade - 1:])
            cover_picks = {} if covers is None else covers.nurses[nurse.id][5]  # her cover dict
            self.nurses.append((nurse, shift, reach >> shift, cells, nurse.pref_cost,
                                cover_picks, {}, bands, scan))
        self.layout = instance.low_bits, instance.guard_bits, instance.field_width - 1

    @classmethod
    def of(cls, instance: Instance, config: ReconstructionConfig) -> PickMemo:
        """The instance's memo for config's scoring fields, made on first use.

        A new memo shares the cover dicts of one the instance already
        holds, since a cover pick reads none of those fields.
        """
        key = config.e_mode, config.w_p, config.w_grade
        memo = instance.pick_memos.get(key)
        if memo is None:
            covers = next(iter(instance.pick_memos.values()), None)
            memo = instance.pick_memos[key] = cls(instance, covers)
        return memo


def reconstruct(
    instance: Instance,
    roster: Roster,
    config: ReconstructionConfig,
    rng: random.Random,
    coverage: CoverageState,
    memo: PickMemo,
) -> Roster:
    """Assign every freed nurse a pattern; existing assignments are kept.

    Per freed nurse (ascending id) one uniform draw selects the rule; the
    random rule consumes one extra draw, rng.choice of the feasible set.
    Ties on rule scores go to the first pattern in the nurse's feasible
    list.  The caller passes the coverage state, which must match the input roster
    (the solver its run's state, anyone else compute_coverage(instance,
    roster)); it is brought in place to the returned complete roster, with
    one write-back after the last pick.  The memo must be PickMemo.of(instance,
    config), or any memo made for this instance and used only with config's
    scoring fields, such as a new PickMemo(instance).
    A complete roster comes back as an equal new roster, with no draw and
    the state as it was.
    """
    result = roster.copy()
    assignment = result.assignment
    free = [i for i, j in enumerate(assignment) if j is None]
    rows = memo.nurses
    low_bits, guard_bits, guard_shift = memo.layout
    p1, p12 = config.p1, config.p1 + config.p2
    indicator = config.e_mode == "indicator"
    # the picks go on local copies, written back once after the loop
    rest, cost, costs = coverage.rest, coverage.cost, coverage.costs

    for i in free:
        nurse, shift, works, cells, prices, cover_picks, combined_picks, bands, scan = rows[i]
        u = rng.random()
        if u < p1:
            # _focus_mask inline: the first band she serves with a short cell
            short = rest & guard_bits
            for guard, mine, at in bands:
                if short & guard:
                    short = (short & mine) >> at
                    break
            else:
                short = 0
            choice = cover_picks.get(short)
            if choice is None:
                if len(cover_picks) >= MEMO_PICKS_PER_NURSE:
                    cover_picks.clear()
                choice = cover_picks[short] = _argmax_cover(instance, short, nurse, scan)
        elif u < p12:
            # _band_state inline; shortfall mode is shortfall_bits()
            if indicator:
                state = (rest & guard_bits) >> shift & works
            else:
                met = (diff := rest + low_bits) & guard_bits
                state = (diff & (met - (met >> guard_shift))) >> shift & works
            choice = combined_picks.get(state)
            if choice is None:
                if len(combined_picks) >= MEMO_PICKS_PER_NURSE:
                    combined_picks.clear()
                choice = combined_picks[state] = _argmax_combined(
                    instance, config, state, nurse, scan
                )
        else:
            choice = rng.choice(nurse.feasible)
        assignment[i] = choice
        costs[i] = price = prices[choice]
        rest, cost = rest - cells[choice], cost + price
    coverage.rest, coverage.cost = rest, cost
    return result


def _argmax_cover(instance: Instance, short: int, nurse: Nurse, scan: tuple) -> int:
    """Cover-rule pick for the nurse's focus mask short (see _focus_mask).

    No pattern fills more than min(short cells, Instance.longest) of them,
    so the first pattern filling that many wins outright and the scan stops
    there; otherwise the first maximum wins.  scan is the nurse's, from her
    PickMemo row.  The pick reads the mask alone, never the coverage state.
    The nurse stays at args[2], where perfbench's shims read her, and
    tests/test_bench_contract.py fails if she moves.
    """
    ids, bits, _, longest = scan
    full, best = min(short.bit_count(), longest), -1
    for j, pattern_bits in zip(ids, bits):
        value = (pattern_bits & short).bit_count()
        if value > best:
            if value == full:
                return j
            best, pick = value, j
    return pick


def _argmax_combined(
    instance: Instance, config: ReconstructionConfig, state: int, nurse: Nurse, scan: tuple
) -> int:
    """Combined-rule pick for the nurse's band state (see _band_state).

    The nurse's combined rows, from the scan of her PickMemo row, go
    through _scan_combined, which runs cheapest first and stops at the
    first cost whose bound falls below the best score; equal scores go to
    the earlier feasible position.  The pick reads the band state alone,
    never the coverage state.  The nurse stays at args[3], where
    perfbench's shims read her, and tests/test_bench_contract.py fails if
    she moves.
    """
    _, _, rows, longest = scan
    terms = _band_terms(instance, config, nurse.grade, longest, state)
    return _scan_combined(rows, config.w_p, terms)[1]
