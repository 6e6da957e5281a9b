"""The benchmark's workloads: set-up, the timed window and its checks.

Each workload is a fixed list of units, recorded in workloads.json with the
values its outputs must reproduce.  A solver unit is one seeded run, made
through harness.run_batch; an oracle unit is one exact_solve proof.  A window
runs the units one at a time, in passes, each pass in an order drawn from the
workload seed, until its time is up and every unit has run at least once.
Every result is checked, and a failed check is counted, never raised.
Times are in reference seconds (see calibrate.py).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from nrp.instance_io import GeneratorParams, generate_instance, parse_instance, serialize_instance
from nrp.model import compute_coverage, is_feasible, preference_cost
from nrp.oracle import OPTIMAL

import calibrate

# called through their modules so that the traced run's shims are used
harness = importlib.import_module("nrp.harness")
oracle = importlib.import_module("nrp.oracle")

SETUP_REPEATS = 5


def load_spec() -> dict:
    return json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))


class SetupError(RuntimeError):
    """The workload could not be built; no measurement is possible."""


@dataclass
class Prepared:
    spec: dict
    instances: dict  # name -> Instance, as parsed back from its text form
    units: list  # canonical order: (instance name, solver seed) or instance name
    generate_s: float
    roundtrip_s: float

    @property
    def solver(self) -> bool:
        return self.spec["kind"] == "solver"


def _build(spec: dict) -> Prepared:
    generate_s = roundtrip_s = 0.0
    instances = {}
    for entry in spec["instances"]:
        fields = {**spec["generator"], **entry}
        label = fields.pop("name")
        start = time.perf_counter()
        instance = generate_instance(GeneratorParams(**fields))
        generate_s += time.perf_counter() - start
        if spec.get("annotate_optimum"):
            proof = oracle.exact_solve(instance)
            if proof.status != OPTIMAL:
                raise SetupError(f"{label}: exact_solve ended {proof.status}")
            instance = replace(instance, known_optimal=proof.optimal_cost)
        start = time.perf_counter()
        text = serialize_instance(instance)
        parsed = parse_instance(text)
        same = serialize_instance(parsed) == text
        roundtrip_s += time.perf_counter() - start
        if not same:
            raise SetupError(f"{label}: serialize/parse round trip changed the text")
        instances[label] = parsed

    if spec["kind"] == "solver":
        units = [(label, seed) for label in instances for seed in spec["seeds"]]
        warmup = harness.preset_spec(spec["preset"], spec["warmup_iterations"])
        for instance in instances.values():
            harness.execute(instance, warmup)
    else:
        units = list(instances)
        for instance in instances.values():
            oracle.exact_solve(instance, node_budget=spec["warmup_nodes"])
    return Prepared(spec, instances, units, generate_s, roundtrip_s)


def prepare(spec: dict) -> tuple[Prepared, dict]:
    """Build the workload SETUP_REPEATS times; returns it and median set-up times."""
    times, generate, roundtrip = [], [], []
    timer = calibrate.Timer()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = _build(spec)
        elapsed = time.perf_counter() - start
        factor = timer.scale(elapsed)
        times.append(elapsed / factor)
        generate.append(prepared.generate_s / factor)
        roundtrip.append(prepared.roundtrip_s / factor)
    return prepared, {
        "setup_s": statistics.median(times),
        "generate_s": statistics.median(generate),
        "roundtrip_s": statistics.median(roundtrip),
    }


@dataclass
class Window:
    """Every timing and check outcome of one measured window."""

    unit_s: dict = field(default_factory=dict)  # unit -> times of its calls
    first: dict = field(default_factory=dict)  # unit -> outcome of its first call
    first_run: dict = field(default_factory=dict)  # solver unit -> its first RunResult
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    passes: int = 0
    scale: float = 1.0  # reference seconds per wall second over the window

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def _recomputed_ok(instance, weights, result) -> bool:
    """Best cost from scratch: preference cost plus w_demand per short slot."""
    shortfall = compute_coverage(instance, result.best_roster).total_shortfall()
    cost = preference_cost(instance, result.best_roster) + weights.w_demand * shortfall
    return cost == result.best_cost and result.best_feasible == (shortfall == 0)


def _solver_call(prep: Prepared, unit, window: Window) -> float | None:
    label, seed = unit
    instance = prep.instances[label]
    run_spec = harness.preset_spec(prep.spec["preset"], prep.spec["max_iterations"])
    window.attempted += 1
    start = time.perf_counter()
    try:
        [result] = harness.run_batch(instance, run_spec, 1, seed, threads=1)
    except Exception as exc:  # a failing run is counted, the window goes on
        window.fail(f"{label} seed {seed}: {type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - start
    row = harness.run_csv_row(label, result)
    first = window.first.setdefault(unit, row)
    window.first_run.setdefault(unit, result)
    if not _recomputed_ok(instance, run_spec.config.eval_weights, result):
        window.fail(f"{label} seed {seed}: best_cost {result.best_cost} "
                    "differs from the recomputed cost")
    elif row != first:
        window.fail(f"{label} seed {seed}: row {row!r} differs from the first run's {first!r}")
    return elapsed


def _oracle_call(prep: Prepared, unit, window: Window) -> float | None:
    instance = prep.instances[unit]
    window.attempted += 1
    start = time.perf_counter()
    try:
        result = oracle.exact_solve(instance, node_budget=prep.spec["node_budget"])
    except Exception as exc:  # a failing proof is counted, the window goes on
        window.fail(f"{unit}: {type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - start
    outcome = (result.status, result.optimal_cost, result.nodes_explored)
    first = window.first.setdefault(unit, outcome)
    optimum = prep.spec["expected_optima"][unit]
    if result.status != OPTIMAL:
        window.fail(f"{unit}: exact_solve ended {result.status}")
    elif not is_feasible(instance, result.optimal_roster):
        window.fail(f"{unit}: the proven roster is not feasible")
    elif not preference_cost(instance, result.optimal_roster) == result.optimal_cost == optimum:
        window.fail(f"{unit}: proven cost {result.optimal_cost}, expected {optimum}")
    elif outcome != first:
        window.fail(f"{unit}: {outcome} differs from the first proof's {first}")
    return elapsed


def measure(prep: Prepared, seconds: float, rng) -> Window:
    """Run passes over the units until `seconds` pass and each unit ran once.

    Units are normalized in segments of at least calibrate.SEGMENT_S, so that
    short units share one calibration instead of paying for their own.
    """
    call = _solver_call if prep.solver else _oracle_call
    window = Window()
    timer = calibrate.Timer()
    pending = []  # (unit, wall time) since the last calibration
    deadline = time.perf_counter() + seconds
    done = False
    while not done:
        order = list(prep.units)
        rng.shuffle(order)
        for count, unit in enumerate(order, 1):
            elapsed = call(prep, unit, window)
            if elapsed is not None:
                pending.append((unit, elapsed))
            done = time.perf_counter() >= deadline and (window.passes or count == len(order))
            segment = sum(wall for _, wall in pending)
            if pending and (done or segment >= calibrate.SEGMENT_S):
                factor = timer.scale(segment)
                for timed, wall in pending:
                    window.unit_s.setdefault(timed, []).append(wall / factor)
                pending = []
            if done:
                window.passes += count == len(order)
                break
        else:
            window.passes += 1
    window.scale = timer.reference / timer.raw if timer.raw else 1.0
    return window


def rows_sha256(prep: Prepared, window: Window) -> str | None:
    """SHA-256 of the first call's per-run CSV rows, units in canonical order.

    None when some unit never completed a run.
    """
    if not all(unit in window.first for unit in prep.units):
        return None
    lines = [window.first[unit] for unit in prep.units]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def check_hash(prep: Prepared, window: Window) -> str | None:
    """Compare the rows with the recorded hash; a mismatch fails every run.

    Every repeat of a run is checked against its first row, so when the first
    rows are wrong, every call of the window was wrong.
    """
    if not prep.solver:
        return None
    digest = rows_sha256(prep, window)
    if digest != prep.spec["expected_sha256"]:
        window.fail(f"per-run CSV rows hash to {digest}, expected "
                    f"{prep.spec['expected_sha256']}", count=0)
        window.failed = window.attempted
    return digest


def batch_s(window: Window) -> float:
    """One pass over the unit list: the sum of each unit's median time."""
    return sum(statistics.median(times) for times in window.unit_s.values())


def end_to_end(prep: Prepared, window: Window) -> dict:
    """Every end-to-end figure of a window, as name -> (value, unit, note)."""
    failed_share = (window.failed / max(window.attempted, 1), "ratio",
                    f"{window.failed} of {window.attempted}")
    if not window.unit_s:  # every call failed: there is nothing to time
        return {"failed_share": failed_share}
    per_run = sorted(statistics.median(times) for times in window.unit_s.values())
    samples = f"{len(per_run)} runs x {window.passes} passes, median of each run's repeats"
    figures = {
        "batch_s": (batch_s(window), "s", f"{len(prep.units)} units, sum of unit medians; "
                    f"wall time ran {1 / window.scale:.2f}x reference time"),
        "run_s.p50": (statistics.median(per_run), "s", samples),
    }
    if len(per_run) >= 100:  # at least ten samples above the 90th percentile
        figures["run_s.p90"] = (statistics.quantiles(per_run, n=10)[-1], "s", samples)
    if prep.solver:
        by_instance = {}
        for (label, _), result in window.first_run.items():
            by_instance.setdefault(label, []).append(result)
        runs = list(window.first_run.values())
        iterations = sum(r.iterations_executed for r in runs)
        figures["iters_per_s"] = (iterations / batch_s(window), "it/s",
                                  f"{iterations} iterations per pass")
        stats = [harness.compute_batch_stats(label, prep.instances[label].known_optimal, rs)
                 for label, rs in by_instance.items()]
        figures["mean_censored"] = (
            sum(s.mean_censored * s.runs for s in stats) / len(runs), "cost", f"{len(runs)} runs")
        if all(s.optimal_count is not None for s in stats):
            figures["optimal_share"] = (
                sum(s.optimal_count for s in stats) / len(runs), "ratio", f"{len(runs)} runs")
    else:
        first = [window.first[unit] for unit in prep.units if unit in window.first]
        costs = [outcome[1] for outcome in first if outcome[0] == OPTIMAL]
        figures["proof_set_s"] = (batch_s(window), "s", f"{len(prep.units)} instances")
        figures["mean_censored"] = (
            sum(costs) / len(costs) if costs else harness.CENSOR_COST, "cost",
            "mean proven optimum")
        figures["optimal_share"] = (len(costs) / len(prep.units), "ratio", "proofs OPTIMAL")
    figures["failed_share"] = failed_share
    return figures
