"""The two elimination steps that turn a complete roster into a partial one.

The fitness-driven step draws one survival threshold per call and releases
every nurse whose fitness (one float in [0, 1] per nurse, from
evaluate.component_fitness_all) does not exceed it, so better-placed
assignments survive proportionally more often.  The random step then gives
each survivor an unconditional small chance of being released, which is what
lets the search climb out of local minima.  Both return a new roster and
leave their input untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import Roster


@dataclass(frozen=True)
class EliminationConfig:
    """Knobs for both elimination steps.

    fixed_threshold = None draws a fresh uniform threshold per iteration;
    a value in [0, 1] uses that threshold every time.  r_m is the
    per-survivor release probability of the random step.  The enable flags
    let the solver skip either step entirely (no rng draws consumed).
    """

    r_m: float = 0.05
    fixed_threshold: float | None = None
    enable_fitness_elim: bool = True
    enable_random_elim: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_m <= 1.0:
            raise ValueError("r_m must be in [0, 1]")
        if self.fixed_threshold is not None and not 0.0 <= self.fixed_threshold <= 1.0:
            raise ValueError("fixed_threshold must be in [0, 1]")


def eliminate_by_fitness(
    roster: Roster,
    fitness: list[float],
    config: EliminationConfig,
    rng: random.Random,
) -> Roster:
    """Release every nurse whose fitness is <= the survival threshold.

    Consumes exactly one rng draw when the threshold is random, none when it
    is fixed.  Returns a new roster; the input is untouched.
    """
    if len(fitness) != len(roster.assignment):
        raise ValueError(
            f"fitness length {len(fitness)} does not match roster size "
            f"{len(roster.assignment)}"
        )
    if not roster.is_complete():
        raise ValueError("fitness elimination expects a complete roster")
    if config.fixed_threshold is None:
        threshold = rng.random()
    else:
        threshold = config.fixed_threshold
    result = roster.copy()
    for i, fit in enumerate(fitness):
        if fit <= threshold:
            result.assignment[i] = None
    return result


def eliminate_at_random(
    roster: Roster, config: EliminationConfig, rng: random.Random
) -> Roster:
    """Independently release each still-assigned nurse with probability r_m.

    Draws are consumed in ascending nurse id order, one per assigned nurse;
    unassigned nurses consume none.  Returns a new roster.
    """
    r_m = config.r_m
    result = roster.copy()
    for i, j in enumerate(roster.assignment):
        if j is not None and rng.random() < r_m:
            result.assignment[i] = None
    return result
