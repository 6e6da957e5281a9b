"""generate_instance against a twin written with the stdlib calls it stands for.

generate_instance draws a pattern's periods through getrandbits, and makes
the draws of a slot whose pool is full without building their periods.
The twin below makes every draw with randint, sample, random and choice, as
the generator's docstring describes them, so the two agree only if they
consume the same words in the same order and keep the same values.
"""

import functools
import math
import random
from types import SimpleNamespace

import pytest

from nrp import instance_io
from nrp.instance_io import (
    DAY_PERIODS,
    NIGHT_PERIODS,
    GeneratorParams,
    _skip_draws,
    generate_instance,
    serialize_instance,
)
from nrp.model import N_PERIODS, Instance, Nurse


@functools.cache
def twin_patterns(m: int, seed: int) -> tuple[tuple, tuple]:
    """The patterns of every generated instance of m patterns and this seed,
    and the rng state after them: the draws so far read no other field."""
    rng = random.Random(seed)
    n_day = math.ceil(m / 2)
    patterns, seen = [], set()
    for pid in range(m):
        offset, (lo, hi) = (0, DAY_PERIODS) if pid < n_day else (7, NIGHT_PERIODS)

        def draw():
            return tuple(sorted(offset + d for d in rng.sample(range(7), rng.randint(lo, hi))))

        periods = draw()
        for _ in range(20):
            if periods not in seen:
                break
            periods = draw()
        seen.add(periods)
        patterns.append(periods)
    return tuple(patterns), rng.getstate()


def twin_generate(params: GeneratorParams) -> tuple[Instance, tuple]:
    """The instance generate_instance(params) should return, and its rng's final state."""
    patterns, state = twin_patterns(params.m, params.seed)
    rng = random.Random()
    rng.setstate(state)
    n_day = math.ceil(params.m / 2)
    day_ids, night_ids = list(range(n_day)), list(range(n_day, params.m))

    nurses = []
    for i in range(params.n):
        grade = rng.randint(1, params.g)
        pool = night_ids if (night_ids and rng.random() < 0.5) else day_ids
        size = max(1, min(rng.randint(params.feasible_min, params.feasible_max), len(pool)))
        costs = {j: min(100, int(round(100 * rng.random() ** params.cost_exponent)))
                 for j in rng.sample(pool, size)}
        nurses.append(Nurse(i, grade, costs))

    covered = [[0] * params.g for _ in range(N_PERIODS)]
    for nurse in nurses:
        for k in patterns[rng.choice(nurse.feasible)]:
            for s in range(nurse.grade - 1, params.g):
                covered[k][s] += 1
    demand = tuple(tuple(int(params.tightness * c + 0.5) for c in row) for row in covered)
    return Instance(list(patterns), nurses, demand), rng.getstate()


@pytest.fixture
def made(monkeypatch):
    """The Random instances generate_instance makes, in order."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(instance_io, "random", SimpleNamespace(Random=Recorded))
    return made


# which pools fill before their last slot, over seeds 0-29: none at m = 12;
# the night pool (70 sets) for 24 and 26 seeds at m = 161 and 162, and for
# all 30 from m = 181; the day pool (91 sets) for 11 seeds at m = 200, and
# both for all 30 at m = 411 and 1001
@pytest.mark.parametrize("m", [12, 161, 162, 200, 411, 1001])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_generated_text_and_final_state_are_the_twins(m, g, made):
    for seed in range(30):
        params = GeneratorParams(n=6, m=m, g=g, seed=seed)
        want, state = twin_generate(params)
        got = serialize_instance(generate_instance(params))
        assert (got, made[-1].getstate()) == (serialize_instance(want), state), (
            f"m={m}, g={g}: first seed that differs is {seed}")


def test_each_slot_of_a_full_pool_makes_its_first_20_draws_unkept(monkeypatch):
    # the paper's ward shape, seed 1: 411 slots, 161 distinct period sets
    skipped = []

    def skip(rng, lo, hi, draws):
        skipped.append(draws)
        _skip_draws(rng, lo, hi, draws)

    monkeypatch.setattr(instance_io, "_skip_draws", skip)
    params = GeneratorParams(n=30, m=411, g=3, feasible_min=75, feasible_max=150, seed=1)
    assert len(set(generate_instance(params).patterns)) == 161
    assert skipped == [20] * 238  # the other 12 repeats came before their pool was full


@pytest.mark.parametrize("draws", [1, 20])
def test_skipped_draws_consume_the_words_of_randint_then_sample(draws):
    for lo in range(8):
        for hi in range(lo, 8):
            for seed in range(100):
                rng, twin = random.Random(seed), random.Random(seed)
                _skip_draws(rng, lo, hi, draws)
                for _ in range(draws):
                    twin.sample(range(7), twin.randint(lo, hi))
                assert rng.getstate() == twin.getstate(), (
                    f"first (seed, lo, hi) that differs is {(seed, lo, hi)}")
