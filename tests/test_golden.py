"""Golden per-run CSV rows on a small fixed grid.

Each case runs a seeded batch and compares the SHA-256 of its
`harness.run_csv_row` lines with a recorded value.  The rows carry the best
cost, the iteration it was reached at and the iteration count, so any change
to the rng draw order, a tie-break or a score's float arithmetic shows up
here.  A speedup must leave every hash unchanged; a deliberate behaviour
change must re-record them and say why.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from nrp.evaluate import EvalWeights
from nrp.harness import preset_spec, run_batch, run_csv_row
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.oracle import OPTIMAL, exact_solve
from nrp.reconstruct import ReconstructionConfig

WARD = GeneratorParams(n=30, m=411, g=3, feasible_min=75, feasible_max=150, seed=1)
MID = GeneratorParams(n=12, m=40, g=3, feasible_min=6, feasible_max=16, seed=5)
DESK = (
    GeneratorParams(n=5, m=12, g=3, tightness=0.75, seed=11001),
    GeneratorParams(n=6, m=10, g=2, tightness=0.7, seed=11002),
)


def _with_optimum(params: GeneratorParams):
    instance = generate_instance(params)
    result = exact_solve(instance)
    assert result.status == OPTIMAL
    return replace(instance, known_optimal=result.optimal_cost)


def _ward():
    return generate_instance(WARD)


def _desk(k):
    return lambda: _with_optimum(DESK[k])


def _mid():
    return generate_instance(MID)


def _full(iterations):
    return preset_spec("full", max_iterations=iterations)


def _preset(name, iterations):
    return lambda: preset_spec(name, max_iterations=iterations)


def _shortfall_mode():
    spec = _full(300)
    recon = ReconstructionConfig(p1=0.3, p2=0.6, e_mode="shortfall")
    return replace(spec, config=replace(spec.config, recon=recon))


def _fractional_weights():
    # no preset uses non-integer scoring weights; the zero band weight
    # exercises the skip in the combined rule
    spec = _full(300)
    recon = ReconstructionConfig(p1=0.25, p2=0.7)
    weights = EvalWeights(w1=0.3, w_p=0.35, w_grade=(2.5, 0.0, 1.3))
    return replace(
        spec, config=replace(spec.config, recon=recon, eval_weights=weights)
    )


# name -> (instance factory, spec factory, runs, recorded sha256)
CASES = {
    "ward-full": (
        _ward, lambda: _full(50), 3,
        "e625b3fdf9e27ac7335f199dc79cbd44b52b5eec5626a8c17dbe79302aa3bf06",
    ),
    "desk-a": (
        _desk(0), lambda: _full(2000), 5,
        "4474dbc92096bebc70bd84a4cdf5918067ff3d36b73d8aa181e41f9b19ab8676",
    ),
    "desk-b": (
        _desk(1), lambda: _full(2000), 5,
        "a12e2dc0a83f5b01d8d009355267db3e0ed49bf3cc433072f9fb202f41069351",
    ),
    "mid-shortfall": (
        _mid, _shortfall_mode, 2,
        "b57f720dbde40e203afe590664b10fa9a9a242c307e2d7909cff2efc22ebab55",
    ),
    "mid-fractional": (
        _mid, _fractional_weights, 2,
        "a5ad93cac3a192aea7e0ea318c810cc88434e160a8cd2a72e7c72e928028533a",
    ),
    # one elimination off: iterations that release no nurse are common here
    "desk-b-elim1-only": (
        _desk(1), _preset("elim1-only", 2000), 5,
        "553161a7e4fbe0d1b20e9086c6ca8d5810563179bb5f8ecdf63f3191bded16bc",
    ),
    "desk-b-elim2-only": (
        _desk(1), _preset("elim2-only", 2000), 5,
        "99dc9c178664f6f4104ec432973e1e296f1adf944e02236e3104f2781fda7489",
    ),
    "ward-elim1-only": (
        _ward, _preset("elim1-only", 50), 3,
        "ba1b87ff986d3781408890e99f4111f53d20aa1ba3de8f52bab07be0a91aba04",
    ),
    "ward-elim2-only": (
        _ward, _preset("elim2-only", 50), 3,
        "8e67712aa0baed5445244ab522a683a287040118e29248b1c7d8e9f839617481",
    ),
}


def rows_digest(name: str) -> str:
    build_instance, build_spec, runs, _ = CASES[name]
    results = run_batch(build_instance(), build_spec(), runs, base_seed=0, threads=1)
    text = "\n".join(run_csv_row(name, r) for r in results) + "\n"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_rows_match_recorded_hash(name):
    assert rows_digest(name) == CASES[name][3]
