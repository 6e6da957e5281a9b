"""Nurse rostering: iterative eliminate-and-repair solver plus benchmark tools.

The package namespace holds the library entry points (generate, load and
save an instance, run the solver, prove an optimum) and the config and
result types they take and return.  Everything else is imported from its
submodule: nrp.model, nrp.evaluate, nrp.eliminate, nrp.reconstruct,
nrp.solver, nrp.oracle, nrp.harness and nrp.instance_io.
"""

from .eliminate import EliminationConfig
from .evaluate import EvalWeights
from .instance_io import GeneratorParams, generate_instance, load_instance, save_instance
from .model import Instance
from .oracle import ExactResult, exact_solve
from .reconstruct import ReconstructionConfig
from .solver import RunResult, SolverConfig, run

__all__ = [
    "EliminationConfig",
    "EvalWeights",
    "ExactResult",
    "GeneratorParams",
    "Instance",
    "ReconstructionConfig",
    "RunResult",
    "SolverConfig",
    "exact_solve",
    "generate_instance",
    "load_instance",
    "run",
    "save_instance",
]

__version__ = "0.1.0"
