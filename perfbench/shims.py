"""Timing and counting shims for the traced benchmark run.

The shims replace names in the nrp modules from outside, so no source file
under src/nrp changes.  Modules are looked up with importlib: `nrp.reconstruct`
as an attribute is the re-exported function, not the submodule.

A span is recorded only while a root span is open (a batch or a proof the
benchmark started), so the benchmark's own checks, which call some of the
same functions, are never counted.  A span's own time is its duration minus
the durations of the spans it called.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0  # seconds
    own: float = 0.0  # seconds not spent in child spans
    count: int = 0  # filled by the shim's observer, if it has one
    broken: bool = False  # the observer no longer fits the wrapped call


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open span

    def patch(self, owner, attr: str, name: str, root: bool = False, observe=None) -> None:
        """Replace owner.attr by a shim that records the span `name`."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self._shim(name, fn, root, observe))

    def span(self, name: str) -> Span | None:
        found = self.spans.get(name)
        return None if found is None or found.broken else found

    def _shim(self, name, fn, root, observe):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if not (stack or root):
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.own += elapsed - child
            if observe is not None and not span.broken:
                try:
                    span.count += observe(args, result)
                except (AttributeError, IndexError, TypeError):
                    span.broken = True
            return result

        return shim


def _nones(roster) -> int:
    return roster.assignment.count(None)


def install() -> Tracer:
    """Wrap every traced name in place; returns the tracer that records them."""
    solver = importlib.import_module("nrp.solver")
    recon = importlib.import_module("nrp.reconstruct")
    harness = importlib.import_module("nrp.harness")
    oracle = importlib.import_module("nrp.oracle")
    model = importlib.import_module("nrp.model")

    tracer = Tracer()
    patch = tracer.patch
    # roots: the calls the benchmark itself makes
    patch(harness, "run_batch", "harness.run_batch", root=True)
    patch(oracle, "exact_solve", "oracle.exact_solve", root=True,
          observe=lambda args, result: result.nodes_explored)
    # harness.execute calls run through the harness module's globals
    patch(harness, "execute", "harness.execute")
    patch(harness, "run", "solver.run",
          observe=lambda args, result: result.iterations_executed)
    # the loop reaches its phases through the solver module's globals
    patch(solver, "component_fitness_all", "evaluate.fitness")
    patch(solver, "penalized_cost", "evaluate.penalized_cost")
    patch(solver, "eliminate_by_fitness", "eliminate.fitness",
          observe=lambda args, result: _nones(result))
    patch(solver, "eliminate_at_random", "eliminate.random",
          observe=lambda args, result: _nones(result) - _nones(args[0]))
    patch(solver, "reconstruct", "reconstruct",
          observe=lambda args, result: _nones(args[1]))
    patch(recon, "_argmax_cover", "reconstruct.cover",
          observe=lambda args, result: len(args[2].feasible))
    patch(recon, "_argmax_combined", "reconstruct.combined",
          observe=lambda args, result: len(args[3].feasible))
    patch(model.CoverageState, "add", "model.coverage_add")
    patch(model.CoverageState, "remove", "model.coverage_remove")
    return tracer


def _improvements(trajectory) -> int:
    """Strict drops of the best cost; periodic samples repeat it unchanged."""
    return sum(1 for (_, before), (_, after) in zip(trajectory, trajectory[1:]) if after < before)


def layer_metrics(tracer: Tracer, scale: float, figures: dict) -> dict:
    """Per-layer figures, as name -> value; None where a traced name is gone.

    Span times are wall times; `scale` converts them to reference seconds.
    `figures` carries what the traced spans cannot give: the untraced window's
    throughput, one pass of the traced runs and the set-up timings.
    """
    span = tracer.span
    run, exact = span("solver.run"), span("oracle.exact_solve")
    iters = run.count if run else 0
    nodes = exact.count if exact else 0

    def ratio(num, den):
        return num / den if den else 0.0

    def us_per_iter(name):
        found = span(name)
        return None if found is None else ratio(found.total * scale * 1e6, iters)

    def us_per_call(name):
        found = span(name)
        return None if found is None else ratio(found.total * scale * 1e6, found.calls)

    def per_iter(name, attr="count"):
        found = span(name)
        return None if found is None else ratio(getattr(found, attr), iters)

    recon, cover, combined = span("reconstruct"), span("reconstruct.cover"), span("reconstruct.combined")
    add, remove = span("model.coverage_add"), span("model.coverage_remove")
    batch, execute = span("harness.run_batch"), span("harness.execute")
    coverage_calls = None if add is None or remove is None else add.calls + remove.calls
    picks = None if cover is None or combined is None else cover.calls + combined.calls
    runs = figures["runs"]

    return {
        "iters_per_s": figures["iters_per_s"],
        "trace_overhead": figures["trace_overhead"],
        "reconstruct.share": None if recon is None or run is None
        else ratio(recon.total, run.total),
        "reconstruct.us_per_iter": us_per_iter("reconstruct"),
        "reconstruct.nurses_per_iter": per_iter("reconstruct"),
        "reconstruct.cover_us_per_nurse": us_per_call("reconstruct.cover"),
        "reconstruct.combined_us_per_nurse": us_per_call("reconstruct.combined"),
        "reconstruct.cover_picks_per_iter": per_iter("reconstruct.cover", "calls"),
        "reconstruct.combined_picks_per_iter": per_iter("reconstruct.combined", "calls"),
        "reconstruct.random_picks_per_iter": None if recon is None or picks is None
        else ratio(recon.count - picks, iters),
        "reconstruct.patterns_scored_per_nurse": None if picks is None
        else ratio(cover.count + combined.count, picks),
        "evaluate.fitness_us_per_iter": us_per_iter("evaluate.fitness"),
        "evaluate.penalized_cost_us_per_iter": us_per_iter("evaluate.penalized_cost"),
        "eliminate.fitness_us_per_iter": us_per_iter("eliminate.fitness"),
        "eliminate.random_us_per_iter": us_per_iter("eliminate.random"),
        "eliminate.fitness_released_per_iter": per_iter("eliminate.fitness"),
        "eliminate.random_released_per_iter": per_iter("eliminate.random"),
        "model.coverage_add_us_per_call": us_per_call("model.coverage_add"),
        "model.coverage_remove_us_per_call": us_per_call("model.coverage_remove"),
        "model.coverage_calls_per_iter": None if coverage_calls is None
        else ratio(coverage_calls, iters),
        "solver.self_us_per_iter": None if run is None else ratio(run.own * scale * 1e6, iters),
        "solver.improvements_per_run": ratio(
            sum(_improvements(r.trajectory) for r in runs), len(runs)),
        "oracle.nodes": figures["pass_nodes"],
        "oracle.nodes_per_s": figures["nodes_per_s"],
        "oracle.coverage_calls_per_node": None if coverage_calls is None
        else ratio(coverage_calls, nodes),
        "harness.overhead_us_per_run": None if batch is None or execute is None
        else ratio((batch.total - execute.total) * scale * 1e6, execute.calls),
        "instance_io.generate_s": figures["generate_s"],
        "instance_io.roundtrip_s": figures["roundtrip_s"],
    }
