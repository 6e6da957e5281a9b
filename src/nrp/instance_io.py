"""Instance text format (parse/serialize) and a seeded instance generator.

The format is line oriented and human-diffable::

    NRP 1
    n 2
    m 3
    g 2
    PATTERNS
    0 11111000000000
    1 00000001111100
    2 00000110000000
    DEMAND
    1 2          # 14 rows, one per period, g integers each
    ...
    NURSES
    0 1 2 0:5 2:30   # id grade count pattern:cost ...
    1 2 1 1:0
    OPTIMAL 5        # optional verified optimum

A pattern line's 14-character mask reads as the ascending tuple of the
periods it sets, the form Instance holds.  A '#' starts a comment that runs
to the end of its line, and blank or comment-only lines are ignored.
Serialization is canonical (fixed field order, '\\n' endings), so
parse(serialize(x)) == x and repeated serializations are byte-identical.

The generator's shape is set by GeneratorParams; the number of days a
pattern works is fixed: DAY_PERIODS for day patterns, NIGHT_PERIODS for
night patterns, each an inclusive range drawn uniformly.  A pattern's
periods are drawn through getrandbits, exactly as rng.randint and then
rng.sample(range(7), k) would draw them, so they consume the same words in
the same order; the golden hashes of tests/test_golden.py pin the result.
A slot that draws a pattern already in its pool draws again, up to 20
times, and keeps the last draw.  Once every period set of the pool's size
range has been drawn (91 day sets, 70 night sets), each slot makes all 21
draws and keeps the 21st, so its first 20 are made as their getrandbits
calls alone: whether a call is rejected rests only on the word it returns,
never on the periods, so the words consumed, and every later draw, are
those of the full draws.
"""

from __future__ import annotations

import math
import random
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

from .model import N_PERIODS, Instance, Nurse

FORMAT_HEADER = "NRP 1"
DAY_PERIODS = (3, 5)  # days worked by a day pattern, inclusive range
NIGHT_PERIODS = (3, 4)  # nights worked by a night pattern


class InstanceParseError(ValueError):
    """Parse failure with the offending 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _int_field(no: int, token: str, name: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceParseError(no, f"{name}: expected an integer, got {token!r}") from None


def _scalar(take: Callable[[str], tuple[int, str]], name: str) -> int:
    no, line = take(f"'{name} <int>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != name:
        raise InstanceParseError(no, f"expected '{name} <int>', got {line!r}")
    value = _int_field(no, parts[1], name)
    if value < 1:
        raise InstanceParseError(no, f"{name} must be >= 1")
    return value


def _section(take: Callable[[str], tuple[int, str]], name: str) -> None:
    no, line = take(f"'{name}'")
    if line != name:
        raise InstanceParseError(no, f"expected '{name}', got {line!r}")


_BITS = bytes.maketrans(b"01", b"\0\1")  # a mask's bytes as the 0/1 selectors of compress


def parse_instance(text: str) -> Instance:
    """Parse the text format into an Instance, validating every invariant.

    A pattern that works no period and a demand row that is not
    non-decreasing across grade bands are accepted, each with a warning
    that names its line.  An unexpected end of file is reported on the line
    after the last meaningful one, line 1 for a file with none.
    """
    # a '#' starts a comment, on a line of its own or after the data
    cut = (line.partition("#")[0].strip() for line in text.splitlines())
    items = [(no, line) for no, line in enumerate(cut, start=1) if line]
    lines = iter(items)
    end = items[-1][0] + 1 if items else 1  # the line an unexpected end is reported on

    def take(expecting: str) -> tuple[int, str]:
        item = next(lines, None)
        if item is None:
            raise InstanceParseError(end, f"unexpected end of file, expected {expecting}")
        return item

    no, line = take(f"header {FORMAT_HEADER!r}")
    if line != FORMAT_HEADER:
        raise InstanceParseError(no, f"expected header {FORMAT_HEADER!r}, got {line!r}")
    n = _scalar(take, "n")
    m = _scalar(take, "m")
    g = _scalar(take, "g")

    _section(take, "PATTERNS")
    patterns = []
    for idx in range(m):
        no, line = take(f"pattern line {idx}")
        parts = line.split()
        if len(parts) != 2:
            raise InstanceParseError(no, f"expected '<id> <14-char 0/1 mask>', got {line!r}")
        pid = _int_field(no, parts[0], "pattern id")
        if pid != idx:
            raise InstanceParseError(no, f"pattern ids must be dense: expected {idx}, got {pid}")
        mask = parts[1]
        if len(mask) != N_PERIODS or mask.strip("01"):
            raise InstanceParseError(no, f"mask must be {N_PERIODS} characters of 0/1")
        if "1" not in mask:
            warnings.warn(f"line {no}: pattern {pid} covers no periods", stacklevel=2)
        patterns.append(tuple(compress(range(N_PERIODS), mask.encode().translate(_BITS))))

    _section(take, "DEMAND")
    rows = []
    for k in range(N_PERIODS):
        no, line = take(f"demand row {k}")
        parts = line.split()
        if len(parts) != g:
            raise InstanceParseError(no, f"demand row {k}: expected {g} integers")
        row = tuple(_int_field(no, p, f"demand[{k}]") for p in parts)
        if any(v < 0 for v in row):
            raise InstanceParseError(no, f"demand row {k}: entries must be >= 0")
        if any(a > b for a, b in zip(row, row[1:])):
            warnings.warn(f"line {no}: demand row {k} is not non-decreasing across grade"
                          " bands; demands are interpreted as cumulative", stacklevel=2)
        rows.append(row)

    _section(take, "NURSES")
    nurses = []
    for idx in range(n):
        no, line = take(f"nurse line {idx}")
        parts = line.split()
        if len(parts) < 3:
            raise InstanceParseError(no, "expected '<id> <grade> <count> <pattern>:<cost> ...'")
        nid = _int_field(no, parts[0], "nurse id")
        if nid != idx:
            raise InstanceParseError(no, f"nurse ids must be dense: expected {idx}, got {nid}")
        grade = _int_field(no, parts[1], "grade")
        if not 1 <= grade <= g:
            raise InstanceParseError(no, f"grade {grade} outside [1, {g}]")
        count = _int_field(no, parts[2], "count")
        pairs = parts[3:]
        if count < 1:
            raise InstanceParseError(no, "feasible set must be nonempty")
        if len(pairs) != count:
            raise InstanceParseError(no, f"expected {count} pattern:cost pairs, got {len(pairs)}")
        costs = {}
        for pair in pairs:
            j_str, sep, c_str = pair.partition(":")
            if not sep:
                raise InstanceParseError(no, f"expected '<pattern>:<cost>', got {pair!r}")
            try:
                j, cost = int(j_str), int(c_str)
            except ValueError:  # _int_field names the first token that is not an integer
                j = _int_field(no, j_str, "pattern id")
                cost = _int_field(no, c_str, "cost")
            if not 0 <= j < m:
                raise InstanceParseError(no, f"nurse {nid} references unknown pattern {j}")
            if j in costs:
                raise InstanceParseError(no, f"nurse {nid} lists pattern {j} twice")
            if not 0 <= cost <= 100:
                raise InstanceParseError(no, f"cost {cost} outside [0, 100]")
            costs[j] = cost
        nurses.append(Nurse(nid, grade, costs))

    known_optimal = None
    trailer = next(lines, None)
    if trailer is not None:
        no, line = trailer
        parts = line.split()
        if len(parts) != 2 or parts[0] != "OPTIMAL":
            raise InstanceParseError(no, f"expected 'OPTIMAL <int>' or end of file, got {line!r}")
        known_optimal = _int_field(no, parts[1], "OPTIMAL")
        if not 0 <= known_optimal <= 100 * n:  # every roster costs 0..100 per nurse
            raise InstanceParseError(no, f"OPTIMAL {known_optimal} outside [0, {100 * n}]")
        extra = next(lines, None)
        if extra is not None:
            raise InstanceParseError(extra[0], f"unexpected content after OPTIMAL: {extra[1]!r}")

    return Instance(patterns, nurses, tuple(rows), known_optimal)


def serialize_instance(instance: Instance) -> str:
    """Canonical text form; byte-stable and round-trips through parse."""
    out = [FORMAT_HEADER, f"n {instance.n}", f"m {instance.m}", f"g {instance.g}"]
    out.append("PATTERNS")
    for j, periods in enumerate(instance.patterns):
        mask = ["0"] * N_PERIODS
        for k in periods:
            mask[k] = "1"
        out.append(f"{j} " + "".join(mask))
    out.append("DEMAND")
    for row in instance.demand:
        out.append(" ".join(map(str, row)))
    out.append("NURSES")
    for nurse in instance.nurses:
        pairs = " ".join(f"{j}:{cost}" for j, cost in nurse.pref_cost.items())
        out.append(f"{nurse.id} {nurse.grade} {len(nurse.feasible)} {pairs}")
    if instance.known_optimal is not None:
        out.append(f"OPTIMAL {instance.known_optimal}")
    return "\n".join(out) + "\n"


def load_instance(path: str | Path) -> Instance:
    """Parse the UTF-8 file at path; a leading byte order mark is skipped."""
    return parse_instance(Path(path).read_text(encoding="utf-8-sig"))


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(serialize_instance(instance), encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class GeneratorParams:
    """Shape of randomly generated instances.

    Patterns come in day-only and night-only blocks, working DAY_PERIODS and
    NIGHT_PERIODS days, and each nurse's feasible set draws from just one of
    the two pools.  Costs are sampled as 100 * u**cost_exponent, so
    exponents > 1 bias toward low values.  Demand is set to tightness times
    the coverage of a hidden random roster, which keeps every generated
    instance feasible for tightness <= 1.
    """

    n: int = 6
    m: int = 12
    g: int = 3
    feasible_min: int = 2
    feasible_max: int = 8
    cost_exponent: float = 2.0
    tightness: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n, self.m, self.g) < 1:
            raise ValueError("n, m and g must be >= 1")
        if not 1 <= self.feasible_min <= self.feasible_max:
            raise ValueError("need 1 <= feasible_min <= feasible_max")
        if not 0 < self.tightness <= 1:
            raise ValueError("tightness must be in (0, 1]")
        if not (math.isfinite(self.cost_exponent) and self.cost_exponent > 0):
            raise ValueError("cost_exponent must be positive and finite")


# _STEPS[k]: the k steps of sample(range(7), k), each (slots left, their bit length, last slot)
_STEPS = [[(7 - i, (7 - i).bit_length(), 6 - i) for i in range(k)] for k in range(8)]

# _PERIODS[offset][mask]: the ascending periods offset + d of the days d in a 7-bit mask
_PERIODS = {offset: [tuple(offset + d for d in range(7) if mask >> d & 1) for mask in range(128)]
            for offset in (0, 7)}


def _draw_periods(rng: random.Random, offset: int, lo: int, hi: int) -> tuple[int, ...]:
    """The periods tuple(sorted(offset + d for d in rng.sample(range(7),
    rng.randint(lo, hi)))) returns, from the same getrandbits calls in the
    same order: randint's one draw, then sample's pool swap over range(7).
    Each draw below n is random.Random._randbelow_with_getrandbits, the same
    on Python 3.10-3.13: getrandbits(n.bit_length()) until it is below n."""
    getrandbits = rng.getrandbits
    span = hi - lo + 1
    width = span.bit_length()
    k = getrandbits(width)
    while k >= span:
        k = getrandbits(width)
    pool = [0, 1, 2, 3, 4, 5, 6]
    mask = 0
    for n, bits, last in _STEPS[lo + k]:
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        mask |= 1 << pool[j]
        pool[j] = pool[last]
    return _PERIODS[offset][mask]


def _skip_draws(rng: random.Random, lo: int, hi: int, draws: int) -> None:
    """Make the getrandbits calls of that many _draw_periods draws, in the
    same order, and build nothing: no pool, mask or periods."""
    getrandbits = rng.getrandbits
    span = hi - lo + 1
    width = span.bit_length()
    for _ in range(draws):
        k = getrandbits(width)
        while k >= span:
            k = getrandbits(width)
        for n, bits, _ in _STEPS[lo + k]:
            while getrandbits(bits) >= n:
                pass


def generate_instance(params: GeneratorParams) -> Instance:
    """Deterministic random instance for the given params (seed included)."""
    rng = random.Random(params.seed)
    n_day = math.ceil(params.m / 2)

    patterns = []
    for offset, (lo, hi), count in ((0, DAY_PERIODS, n_day), (7, NIGHT_PERIODS, params.m - n_day)):
        distinct = sum(math.comb(7, k) for k in range(lo, hi + 1))
        seen = set()
        for _ in range(count):
            if len(seen) == distinct:  # every draw repeats: the first 20 are made, not kept
                _skip_draws(rng, lo, hi, 20)
                periods = _draw_periods(rng, offset, lo, hi)
            else:
                periods = _draw_periods(rng, offset, lo, hi)
                for _ in range(20):  # prefer distinct patterns, tolerate repeats
                    if periods not in seen:
                        break
                    periods = _draw_periods(rng, offset, lo, hi)
            seen.add(periods)
            patterns.append(periods)
    day_ids = list(range(n_day))
    night_ids = list(range(n_day, params.m))

    draw, exponent = rng.random, params.cost_exponent
    nurses = []
    for i in range(params.n):
        grade = rng.randint(1, params.g)
        pool = night_ids if (night_ids and draw() < 0.5) else day_ids
        size = rng.randint(params.feasible_min, params.feasible_max)
        size = max(1, min(size, len(pool)))
        costs = {j: min(100, round(100 * draw() ** exponent)) for j in rng.sample(pool, size)}
        nurses.append(Nurse(i, grade, costs))

    # hidden witness roster; scaling its coverage keeps the instance feasible
    covered = [[0] * params.g for _ in range(N_PERIODS)]
    for nurse in nurses:
        j = rng.choice(nurse.feasible)
        for k in patterns[j]:
            for s in range(nurse.grade - 1, params.g):
                covered[k][s] += 1
    demand = tuple(tuple(int(params.tightness * c + 0.5) for c in row) for row in covered)
    return Instance(patterns, nurses, demand)
