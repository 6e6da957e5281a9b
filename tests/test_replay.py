"""run and run_construction_only against a replay built from the definitions.

The golden hashes pin the best cost, the iteration of the best and the
iteration count.  Here every field a run reports besides its wall time,
the best roster and the trajectory too, must equal what tests/replay.py
gets by drawing the same rng stream and taking every decision from the
by-definition helpers, with no memo, packed mask, scan list, bound or skip.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from nrp.harness import PRESET_NAMES, execute, preset_spec
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.reconstruct import E_MODES, ReconstructionConfig
from nrp.solver import SolverConfig, run

from replay import replay
from test_golden import CASES, WARD


GRID_ITERATIONS = 100  # per desk run, so the whole file takes about 5 s


def result_fields(result) -> tuple:
    return (result.best_cost, result.best_roster.assignment, result.best_feasible,
            result.iterations_executed, result.iteration_of_best, result.trajectory)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_first_run_of_each_golden_case_replays(name):
    build_instance, build_spec, _, _ = CASES[name]
    instance, spec = build_instance(), build_spec()
    expected = replay(instance, spec.config, spec.construction_only)
    assert result_fields(execute(instance, spec)) == expected


@pytest.mark.parametrize("g", range(1, 7))
def test_every_preset_replays_in_both_e_modes(g):
    # the generator's default desk shape, n=6 and m=12, at each grade count
    instance = generate_instance(GeneratorParams(g=g, seed=13000 + g))
    for name in PRESET_NAMES:  # the six loop presets and construct-only
        spec = preset_spec(name, max_iterations=GRID_ITERATIONS, seed=g)
        for e_mode in E_MODES:
            config = replace(spec.config, recon=replace(spec.config.recon, e_mode=e_mode))
            expected = replay(instance, config, spec.construction_only)
            assert result_fields(execute(instance, replace(spec, config=config))) == expected, (
                name, e_mode)


def test_a_ward_run_replays_in_shortfall_mode():
    # the golden ward cases run in indicator mode
    config = SolverConfig(max_iterations=40, recon=ReconstructionConfig(e_mode="shortfall"))
    instance = generate_instance(WARD)
    assert result_fields(run(instance, config)) == replay(instance, config)
