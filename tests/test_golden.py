"""Golden generated instances, per-run CSV rows and summary tables on a
small fixed grid.

Each instance case compares the SHA-256 of the text that
`serialize_instance` writes for a generated instance with a recorded value,
so a change to the generator's draws or to the file format shows up here.
Each run case runs a seeded batch and compares the SHA-256 of its
`harness.run_csv_row` lines with a recorded value; each table case does the
same for a `batch_csv` or `ablation_csv` text.  The rows carry the best
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
from nrp.harness import (
    AblationSpec,
    BatchStats,
    ablation_csv,
    batch_csv,
    compute_batch_stats,
    preset_spec,
    run_batch,
    run_csv_row,
)
from nrp.instance_io import GeneratorParams, generate_instance, serialize_instance
from nrp.oracle import OPTIMAL, exact_solve
from nrp.reconstruct import ReconstructionConfig

from conftest import impossible_instance

WARD = GeneratorParams(n=30, m=411, g=3, feasible_min=75, feasible_max=150, seed=1)
MID = GeneratorParams(n=12, m=40, g=3, feasible_min=6, feasible_max=16, seed=5)
DESK = (
    GeneratorParams(n=5, m=12, g=3, tightness=0.75, seed=11001),
    GeneratorParams(n=6, m=10, g=2, tightness=0.7, seed=11002),
)
# its optimum is 0, so a table of it alone leaves the % cells blank
ZERO = GeneratorParams(n=5, m=10, g=2, cost_exponent=6.0, tightness=0.5, seed=11)


# name -> (generator params, recorded sha256 of the serialized instance)
INSTANCES = {
    "ward": (WARD, "c7878d2ee1cbd5b981db2b005cab9e0c1db34b49fe6917074a56bf960331a0f0"),
    "mid": (MID, "f9f14321045eda5357e41c78b691e28d0542545a69373a7e31a10796a62cb9aa"),
    "desk-a": (DESK[0], "b37445ffd130e4ef8e792838eb528c47f0d5ae8ec79697d87f4904e7d1072ea8"),
    "desk-b": (DESK[1], "eeca47fad8b69407f5838c85c459cb8a97366e0b1367faa2bb66191463f73c9a"),
    "zero": (ZERO, "e1455b74f745416c9eb32150fc35616192696b74fb31ec482a2392777e618dac"),
    "six-grades": (
        GeneratorParams(n=9, m=20, g=6, seed=6),
        "6e5bae366041ce339451d0495c9b8fa08366e0ed44fb8907f38d04f5b9768d7e",
    ),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_generated_instance_text_matches_recorded_hash(name):
    params, recorded = INSTANCES[name]
    text = serialize_instance(generate_instance(params))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == recorded


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
    recon = ReconstructionConfig(p1=0.25, p2=0.7, w_p=0.35, w_grade=(2.5, 0.0, 1.3))
    weights = EvalWeights(w1=0.3)
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


# label -> (instance factory, iterations) of the summary tables' batches,
# 5 seeds each: the desk ones with their optimum, the mid one without
# OPTIMAL, one that no roster covers and one whose optimum is 0
TABLE_BATCHES = {
    "desk-a": (_desk(0), 3),
    "desk-b": (_desk(1), 3),
    "mid": (_mid, 1000),
    "impossible": (impossible_instance, 3),
    "zero": (lambda: _with_optimum(ZERO), 3),
}

# table -> (its labels, recorded sha256)
TABLES = {
    "batch-optima": (
        ("desk-a", "desk-b", "zero"),
        "7ba9307483ec1284092d573ab4c391cc668df5917a96d1036a5a9b434e4b0cb7",
    ),
    "batch-missing-optimum": (
        ("desk-a", "mid", "impossible", "zero"),
        "81c130f801b21897c2677032120b16d023f5d6ae8fdad3750ff219955d336fae",
    ),
    "batch-impossible": (
        ("impossible",),
        "863c4e585b9ba538981a16319347d8f621a9cddcade91cfee2c20cd93c11a936",
    ),
    "batch-zero-optimum": (
        ("zero",),
        "37c37ede6a51c32f91c631c65d971b3fe74a4d4eb7cd4544c0023daf059b428b",
    ),
    "ablation": (
        tuple(TABLE_BATCHES),
        "100bcda7d1be208f0e46390535d79eb80d533b4b6fec137421e6c9ca422bb216",
    ),
}


@pytest.fixture(scope="module")
def table_inputs():
    """Each label's instance and the stats of its batch."""
    inputs = {}
    for label, (build_instance, iterations) in TABLE_BATCHES.items():
        instance = build_instance()
        results = run_batch(instance, _full(iterations), 5, base_seed=0, threads=1)
        inputs[label] = (instance, compute_batch_stats(label, instance.known_optimal, results))
    return inputs


def table_text(name: str, inputs: dict) -> str:
    labels = TABLES[name][0]
    if name == "ablation":
        spec = AblationSpec(budgets=(10, 30), preset_iterations=30, runs=3,
                            presets=("full", "construct-only"))
        return ablation_csv([(label, inputs[label][0]) for label in labels], spec)
    return batch_csv([inputs[label][1] for label in labels])


@pytest.mark.parametrize("name", sorted(TABLES))
def test_summary_tables_match_recorded_hash(name, table_inputs):
    text = table_text(name, table_inputs)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == TABLES[name][1]


def test_av_row_keeps_its_bytes_where_compensated_sum_rounds_otherwise():
    """The mean of these four censored means prints 120.6 when summed left
    to right, as on Python 3.11, where every hash here was recorded; the
    compensated sum() of Python 3.12 and later prints 120.7."""
    stats = [
        BatchStats(f"i{k}", 10, 0.0, mean, 0, None, None, None)
        for k, mean in enumerate((188.7, 70.2, 208.4, 15.3))
    ]
    assert batch_csv(stats) == (
        "instance,runs,best,mean_censored,inf,optimal_count,within3\n"
        "i0,10,0,188.7,0,,\n"
        "i1,10,0,70.2,0,,\n"
        "i2,10,0,208.4,0,,\n"
        "i3,10,0,15.3,0,,\n"
        "Av.,10.0,0.0,120.6,0.0,,\n"
        "%,,,,,,\n"
    )
