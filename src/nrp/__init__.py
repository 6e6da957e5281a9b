"""Nurse rostering: iterative eliminate-and-repair solver plus benchmark tools."""

from .eliminate import EliminationConfig, eliminate_at_random, eliminate_by_fitness
from .evaluate import (
    ComponentFitness,
    EvalWeights,
    component_fitness_all,
    coverage_contribution,
    penalized_cost,
)
from .instance_io import (
    GeneratorParams,
    InstanceParseError,
    generate_instance,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .model import (
    CoverageState,
    Demand,
    IncompleteRosterError,
    Instance,
    InvalidRosterError,
    Nurse,
    Roster,
    RosterError,
    ShiftPattern,
    compute_coverage,
    is_feasible,
    preference_cost,
)
from .oracle import INFEASIBLE, OPTIMAL, TIMEOUT, ExactResult, exact_solve
from .reconstruct import ReconstructionConfig, combined_score, cover_value, reconstruct
from .solver import (
    RunResult,
    SolverConfig,
    initial_roster,
    run,
    run_construction_only,
)

__all__ = [
    "ComponentFitness",
    "CoverageState",
    "Demand",
    "EliminationConfig",
    "EvalWeights",
    "ExactResult",
    "GeneratorParams",
    "IncompleteRosterError",
    "INFEASIBLE",
    "Instance",
    "InstanceParseError",
    "InvalidRosterError",
    "Nurse",
    "OPTIMAL",
    "ReconstructionConfig",
    "Roster",
    "RosterError",
    "RunResult",
    "ShiftPattern",
    "SolverConfig",
    "TIMEOUT",
    "component_fitness_all",
    "compute_coverage",
    "coverage_contribution",
    "combined_score",
    "cover_value",
    "eliminate_at_random",
    "eliminate_by_fitness",
    "exact_solve",
    "generate_instance",
    "initial_roster",
    "is_feasible",
    "load_instance",
    "parse_instance",
    "penalized_cost",
    "preference_cost",
    "reconstruct",
    "run",
    "run_construction_only",
    "save_instance",
    "serialize_instance",
]

__version__ = "0.1.0"
