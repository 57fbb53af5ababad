"""Gravitational-search optimization with pluggable pairwise force kernels.

The force law between two agents is selectable: the classic GSA rule
(whose magnitude does not depend on inter-agent distance), the corrected
inverse-linear and inverse-square laws, or any nonnegative power law.
``forces`` evaluates it for a whole swarm; ``probe_exponent`` measures a kernel's effective distance exponent
empirically; the experiments module runs seeded comparison grids.
"""

from .core import ConfigError, GsaConfig, KernelSpec, NumericError, ProbeReport, RunTrace
from .engine import run
from .experiments import ExperimentPlan, run_grid, summarize
from .kernels import forces, probe_exponent
from .objectives import make_objective, objective_names

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentPlan",
    "GsaConfig",
    "KernelSpec",
    "NumericError",
    "ProbeReport",
    "RunTrace",
    "forces",
    "make_objective",
    "objective_names",
    "probe_exponent",
    "run",
    "run_grid",
    "summarize",
    "__version__",
]
