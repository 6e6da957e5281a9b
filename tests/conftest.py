"""Shared builders for hand-crafted test instances."""

from __future__ import annotations

import gc

import pytest

from nrp.model import N_PERIODS, Instance, Nurse, Roster, compute_coverage
from nrp.reconstruct import PickMemo, reconstruct


def flat_demand(g: int, value: int = 0) -> tuple[tuple[int, ...], ...]:
    return ((value,) * g,) * N_PERIODS


def demand_rows(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, rows))


def make_instance(patterns, nurses, demand, known_optimal=None) -> Instance:
    return Instance(list(patterns), list(nurses), demand, known_optimal)


def impossible_instance() -> Instance:
    """Demand two nurses where only one exists: no roster is feasible."""
    return make_instance(
        [(0,)],
        [Nurse(0, 1, {0: 5})],
        demand_rows([[2]] + [[0]] * 13),
    )


def leftover_garbage(call) -> int:
    """The unreachable objects gc.collect() finds after call(), run with
    the cyclic collector off: what call left for the collector."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def repair(instance, roster, config, rng, memo=None) -> Roster:
    """reconstruct on a state recounted from the roster and on memo, or on a
    new PickMemo of the call's own when none is given."""
    memo = PickMemo(instance) if memo is None else memo
    return reconstruct(instance, roster, config, rng, compute_coverage(instance, roster), memo)


def count_solver_calls(monkeypatch) -> dict[str, int]:
    """Count the run loop's reconstruct and penalized_cost calls."""
    import nrp.solver as solver_module

    calls = {}

    def counting(name):
        wrapped = getattr(solver_module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(solver_module, name, counted)

    counting("reconstruct")
    counting("penalized_cost")
    return calls


def count_rows_scored(monkeypatch) -> dict[str, int]:
    """Count the rows the two reconstruction scans score.

    The cover kernel's focus mask becomes an int counting its &, which the
    scan takes once per row it scores.  Every _band_terms result gets a band
    term of weight 0 whose one level is an empty mask counting its &, which
    the combined scan takes once per row it scores; adding 0.0 * 0 = +0.0
    changes no score, since none is -0.0.
    """
    import nrp.reconstruct as reconstruct_module

    rows = {"cover": 0, "combined": 0}

    def counting(rule):
        class Counted(int):
            def __rand__(self, other):
                rows[rule] += 1
                return other & int(self)

        return Counted

    cover_kernel, band_terms = reconstruct_module._argmax_cover, reconstruct_module._band_terms
    short_mask, empty_level = counting("cover"), counting("combined")(0)

    def cover(instance, short, nurse):
        return cover_kernel(instance, short_mask(short), nurse)

    def terms(*args):
        return band_terms(*args) + [(0.0, (empty_level,), 0.0)]

    monkeypatch.setattr(reconstruct_module, "_argmax_cover", cover)
    monkeypatch.setattr(reconstruct_module, "_band_terms", terms)
    return rows


def field_maximum_instance(rng, g: int) -> Instance:
    """A random instance with g bands, one cell demanding the field maximum
    2**(w-1) - 1: the largest demand the width rule packs."""
    n, m = rng.randint(1, 8), rng.randint(3, 10)
    peak = (1 << n.bit_length()) - 1  # >= n, so the width is peak's bits + 1
    patterns = [
        tuple(k for k in range(N_PERIODS) if rng.random() < 0.4)
        for j in range(m)
    ]
    nurses = []
    for i in range(n):
        feasible = tuple(rng.sample(range(m), rng.randint(1, m)))
        nurses.append(Nurse(i, rng.randint(1, g), {j: 0 for j in feasible}))
    rows = [sorted(rng.randint(0, peak) for _ in range(g)) for _ in range(N_PERIODS)]
    rows[rng.randrange(N_PERIODS)][g - 1] = peak
    instance = make_instance(patterns, nurses, demand_rows(rows))
    assert peak == (1 << (instance.field_width - 1)) - 1
    return instance


@pytest.fixture
def week_instance() -> Instance:
    """Three nurses, two grades, day/night split; feasible by construction.

    Pattern 0 works Mon-Fri days, pattern 1 Mon-Fri nights, pattern 2
    Sat-Sun days, pattern 3 Wed night only.
    """
    patterns = [
        (0, 1, 2, 3, 4),
        (7, 8, 9, 10, 11),
        (5, 6),
        (9,),
    ]
    nurses = [
        Nurse(0, 1, {0: 10, 2: 40}),
        Nurse(1, 2, {1: 0, 3: 25}),
        Nurse(2, 2, {0: 5, 1: 30, 2: 0}),
    ]
    demand = demand_rows(
        [[0, 1]] * 5 + [[0, 0]] * 2 + [[0, 1]] * 5 + [[0, 0]] * 2
    )
    return make_instance(patterns, nurses, demand)


def complete_roster(instance: Instance, choices: list[int]) -> Roster:
    assert len(choices) == instance.n
    return Roster(list(choices))
