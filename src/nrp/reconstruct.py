"""Greedy repair of a partial roster back to a complete one.

Freed nurses are processed in ascending id order.  For each one a rule is
drawn: the cover rule picks the feasible pattern plugging the most holes at
the worst understaffed band the nurse can serve, the combined rule trades
preference cost against shortfall reduction, and the random rule picks any
feasible pattern.  Existing assignments are never touched, and coverage is
updated after every assignment so later choices see earlier ones.

Scoring runs on the packed masks of CoverageState.  Each pattern carries
its worked periods as band-1 guard bits (Instance.pattern_bits), and
CoverageState.short_mask() gives the short cells of every band at once.  A
band shifted down out of it gives the short periods a pattern covers there
as (bits & short).bit_count().  The cover rule takes one band, the nurse's
focus band, from the mask's lowest set bit at or above her own band.  The
combined rule has one scorer, _score, for both e-modes.  Per pick it builds
the band terms once (_band_terms): each band she serves becomes a weight
and a tuple of level masks, whose popcounts against a pattern sum to the
band's count.  In indicator mode the one level is the band's short cells.
The shortfall e-mode weights each period by its shortfall, so its levels
are the masks of cells short by at least t = 1, 2, ..., built from the
band's slice of the packed shortfall, and a cell short by r is counted at r
levels.  _score adds the weighted integer counts to the preference term
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
because the weights are non-negative (EvalWeights rejects negative ones),
and the float sums keep that order because multiplication and addition
round monotonically.  The preference term keeps it only if cost[j'] <=
cost[j], so j leaves the combined list only when such a j' also costs no
more.  The first maximum of the full list is never left out, because an
earlier pattern scoring at least as much would contradict its being first,
so scanning the shorter list gives the same pick.

Both scans also stop once no later pattern can win.  No pattern fills more
cells than are short, so the cover rule, walking its list in feasible
order, returns the first pattern that fills all of them; only when none
does is the whole list scored.  The combined list is stored cheapest first,
each pattern with its position in the feasible list.  A pattern's bound is
the float chain of its score with each band's count replaced by the band's
cap, the count of a pattern working every period: w_p * (100 - cost), then
+ w_s * cap band by band.  Every weight is non-negative and rounding is
monotone, so the bound is at least the score, and along the cost order the
preference term, and with it the bound, never rises.  The scan therefore
stops at the first pattern whose bound is below the best score so far.
Scores equal to the best go to the lower feasible position, so the pick is
the first maximum in feasible order, as without the stop.  With w_p = 0 no
bound falls and the whole list is scored.

A pick is a pure function of the nurse and of what its rule reads of the
coverage, and the same states recur across the iterations of a run, so
picks are memoized in a PickMemo.  The cover rule's key is (nurse id,
focus-band short mask); the combined rule's is (nurse id, one int): the
short mask of the bands the nurse serves, or in shortfall mode their
packed shortfall.  Both masks keep only the cells the nurse can work
(Instance.reach), so a change of coverage in periods she never works, the
other half of the week for a ward nurse, leaves her keys as they were.  The
picks stay the same: every scanned pattern works only periods inside her
reach, so each popcount and each shortfall sum is unchanged; a band whose
masked column is empty is skipped, which leaves every score's float as it
was (see _band_terms); and the focus band is still chosen from the
unmasked short mask.  The keys leave out the weights and the e-mode
because one run fixes them, so a memo lasts exactly one solver run: run
makes one and passes it to every reconstruct call, and a reconstruct call
without one memoizes for itself only.  A memo kept across runs would hand
one run's picks to another with different weights.  New states keep
arriving over a long run, so each rule's dict is emptied once it holds
MEMO_PICKS_PER_NURSE entries per nurse; since a pick is pure, emptying it
changes no pick.  On the paper's ward shape (30 nurses) that keeps the
memo of a 100,000-iteration run to about 3 MB; unbounded, it reached 22 MB
in shortfall mode, whose states vary the most.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .evaluate import EvalWeights
from .model import (
    CoverageState,
    Instance,
    InvalidRosterError,
    Nurse,
    Roster,
    compute_coverage,
)

E_MODES = ("indicator", "shortfall")
MEMO_PICKS_PER_NURSE = 256  # per rule; see the module docstring


@dataclass(frozen=True)
class ReconstructionConfig:
    """Rule probabilities for {cover, combined, random} plus the e-term mode.

    e_mode chooses how the combined rule scores an understaffed period:
    "indicator" counts it once, "shortfall" weights it by the number of
    nurses still missing.
    """

    p1: float = 0.80
    p2: float = 0.18
    p3: float = 0.02
    e_mode: str = "indicator"

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.p1, self.p2, self.p3))):
            raise ValueError("rule probabilities must be finite")
        if min(self.p1, self.p2, self.p3) < 0:
            raise ValueError("rule probabilities must be nonnegative")
        if abs(self.p1 + self.p2 + self.p3 - 1.0) > 1e-12:
            raise ValueError("p1 + p2 + p3 must equal 1")
        if self.e_mode not in E_MODES:
            raise ValueError(f"e_mode must be one of {E_MODES}")


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
    instance: Instance,
    coverage: CoverageState,
    weights: EvalWeights,
    i: int,
    j: int,
    e_mode: str = "indicator",
) -> float:
    """Weighted blend of pattern cheapness and shortfall reduction.

    Score = w_p * (100 - cost) + sum over qualified bands s of
    w_grade[min(s, len(w_grade)) - 1] * (short periods the pattern covers
    at band s), so the last weight covers every band past the tuple's end.
    """
    nurse = instance.nurses[i]
    if j not in nurse.pref_cost:
        raise InvalidRosterError(f"pattern {j} is not feasible for nurse {i}")
    terms = _band_terms(instance, weights, nurse, e_mode,
                        _band_state(instance, coverage, nurse, e_mode))
    return _score(weights.w_p * (100 - nurse.pref_cost[j]), terms, instance.pattern_bits[j])


def _band_terms(
    instance: Instance, weights: EvalWeights, nurse: Nurse, e_mode: str, state: int
) -> list[tuple[float, tuple[int, ...], float]]:
    """(w_s, levels, w_s * cap) for each band the nurse serves that can score.

    state is the nurse's _band_state, from which each band is sliced in
    turn, lowest first.  A band's levels are guard-bit masks whose popcounts
    against a pattern's bits sum to its count: in indicator mode one level,
    the short cells; in shortfall mode level t holds the cells short by at
    least t, so a cell short by r is counted once at each of the levels
    1..r.  cap is the count of a pattern working every period, the sum of
    the levels' popcounts, so no pattern counts more.  A band with weight 0
    or no short cell is left out: it would add ws * 0 = +0.0 to every score,
    which changes no float but a -0.0, and that one compares equal.
    """
    span = instance.band_span
    band = (1 << span) - 1
    guard_bits, low_bits = instance.guard_bits & band, instance.low_bits & band
    w_grade = weights.w_grade
    last = len(w_grade) - 1
    terms = []
    for s in range(nurse.grade - 1, instance.g):
        ws = w_grade[min(s, last)]
        column, state = state & band, state >> span
        if ws == 0 or not column:
            continue
        if e_mode == "indicator":
            levels = (column,)
        else:
            levels = []
            level = (column | guard_bits) - low_bits
            while cells := level & guard_bits:
                levels.append(cells)
                level -= low_bits
            levels = tuple(levels)
        terms.append((ws, levels, ws * sum(cells.bit_count() for cells in levels)))
    return terms


def _score(preference: float, terms: list, bits: int) -> float:
    """A pattern's combined score: its preference term, then each band term.

    bits holds the pattern's worked periods as band-1 guard bits and terms
    the nurse's _band_terms.  The band terms are added lowest band first,
    each as w_s times an integer count, the order the per-period definition
    sums them in, so equal inputs give bit-equal floats.
    """
    score = preference
    for ws, levels, _ in terms:
        count = 0
        for cells in levels:
            count += (bits & cells).bit_count()
        score += ws * count
    return score


class PickMemo:
    """The cover and combined picks already made in one solver run.

    A pick depends only on the nurse and on what the rule reads of the
    coverage, so the memo maps exactly that to the chosen pattern: cover
    maps (nurse id, focus-band short mask) and combined maps (nurse id,
    _band_state), both masked to the cells she can work (Instance.reach).
    Her patterns fill no other cell, so one key serves every coverage that
    differs only outside them.  The rules get a dict each, because both
    keys are a nurse id and an int, and a grade-g nurse's combined key in
    indicator mode equals her cover key.  The keys leave out the instance,
    the weights and the e-mode, which one run fixes, so a memo must not
    outlive the run it was made for.  A dict that has reached limit entries
    is emptied before the next one is stored.
    """

    __slots__ = ("cover", "combined", "limit")

    def __init__(self, instance: Instance) -> None:
        self.cover: dict[tuple[int, int], int] = {}
        self.combined: dict[tuple[int, int], int] = {}
        self.limit = MEMO_PICKS_PER_NURSE * instance.n


def reconstruct(
    instance: Instance,
    roster: Roster,
    config: ReconstructionConfig,
    weights: EvalWeights,
    rng: random.Random,
    coverage: CoverageState | None = None,
    memo: PickMemo | None = None,
) -> Roster:
    """Assign every freed nurse a pattern; existing assignments are kept.

    Per freed nurse (ascending id) one uniform draw selects the rule; the
    random rule consumes one extra draw to index the feasible set.  Ties on
    rule scores go to the first pattern in the nurse's feasible list.  When a
    coverage state is passed in it must match the input roster and is updated
    in place to match the returned complete roster.  A memo passed in must
    come from the same run (same instance, config and weights); without one
    the picks are memoized for this call only.
    """
    result = roster.copy()
    free = result.unassigned_ids()
    if not free:
        return result
    if coverage is None:
        coverage = compute_coverage(instance, roster)
    if memo is None:
        memo = PickMemo(instance)
    cover_picks, combined_picks, limit = memo.cover, memo.combined, memo.limit
    p1, p2 = config.p1, config.p2
    e_mode, reach, span = config.e_mode, instance.reach, instance.band_span

    for i in free:
        nurse = instance.nurses[i]
        # the cells she can work, moved down as the rules' masks are
        works = reach[i] >> (nurse.grade - 1) * span
        u = rng.random()
        if u < p1:
            short = _focus_mask(instance, coverage, nurse) & works
            key = (i, short)
            choice = cover_picks.get(key)
            if choice is None:
                if len(cover_picks) >= limit:
                    cover_picks.clear()
                choice = cover_picks[key] = _argmax_cover(instance, coverage, nurse, short)
        elif u < p1 + p2:
            state = _band_state(instance, coverage, nurse, e_mode) & works
            key = (i, state)
            choice = combined_picks.get(key)
            if choice is None:
                if len(combined_picks) >= limit:
                    combined_picks.clear()
                choice = combined_picks[key] = _argmax_combined(
                    instance, coverage, weights, nurse, e_mode, state
                )
        else:
            choice = nurse.feasible[rng.randrange(len(nurse.feasible))]
        result.assignment[i] = choice
        coverage.add(i, choice)
    return result


def _argmax_cover(
    instance: Instance, coverage: CoverageState, nurse: Nurse, short: int
) -> int:
    """Cover-rule pick for the nurse's focus mask short (see _focus_mask).

    The first pattern filling every short cell wins outright, so the scan
    stops there; otherwise the first maximum wins.
    """
    ids, bits = instance.cover_scan[nurse.id]
    full, best = short.bit_count(), -1
    for j, pattern_bits in zip(ids, bits):
        value = (pattern_bits & short).bit_count()
        if value > best:
            if value == full:
                return j
            best, pick = value, j
    return pick


def _argmax_combined(
    instance: Instance,
    coverage: CoverageState,
    weights: EvalWeights,
    nurse: Nurse,
    e_mode: str,
    state: int,
) -> int:
    """Combined-rule pick for the nurse's band state (see _band_state).

    The scan runs cheapest first and stops at the first pattern whose bound
    falls below the best score; equal scores go to the earlier feasible
    position.
    """
    terms = _band_terms(instance, weights, nurse, e_mode, state)
    w_p = weights.w_p
    best, pick, first = -math.inf, 0, 0
    for cost, position, j, bits in instance.combined_scan[nurse.id]:
        bound = preference = w_p * (100 - cost)
        for _, _, most in terms:
            bound += most
        if bound < best:
            break
        score = _score(preference, terms, bits)
        if score > best or score == best and position < first:
            best, pick, first = score, j, position
    return pick
