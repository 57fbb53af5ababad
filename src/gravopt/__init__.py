"""Gravitational-search optimization with pluggable pairwise force kernels.

The force law between two agents is selectable: the classic GSA rule
(whose magnitude does not depend on inter-agent distance), the corrected
inverse-linear and inverse-square laws, or any nonnegative power law.
``forces`` evaluates it for a whole swarm; ``probe_exponent`` measures a kernel's effective distance exponent
empirically; the experiments module runs seeded comparison grids.
"""

from .core import (
    DEFAULT_EPSILON,
    ConfigError,
    GsaConfig,
    KernelSpec,
    ProbeReport,
    RunTrace,
    TraceRecord,
    validate_config,
)
from .engine import (
    DivergenceError,
    EvaluationError,
    SwarmState,
    compute_masses,
    g_schedule,
    initialize,
    kbest_size,
    run,
    step,
)
from .experiments import (
    ExperimentPlan,
    ResultRow,
    Summary,
    SummaryRow,
    WinCount,
    derive_seed,
    run_grid,
    summarize,
)
from .kernels import (
    DEFAULT_PROBE_DISTANCES,
    ForceOverflowError,
    forces,
    probe_exponent,
)
from .objectives import ObjectiveSpec, evaluate, make_objective, objective_names

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DEFAULT_EPSILON",
    "DEFAULT_PROBE_DISTANCES",
    "DivergenceError",
    "EvaluationError",
    "ExperimentPlan",
    "ForceOverflowError",
    "GsaConfig",
    "KernelSpec",
    "ObjectiveSpec",
    "ProbeReport",
    "ResultRow",
    "RunTrace",
    "Summary",
    "SummaryRow",
    "SwarmState",
    "TraceRecord",
    "WinCount",
    "compute_masses",
    "derive_seed",
    "evaluate",
    "forces",
    "g_schedule",
    "initialize",
    "kbest_size",
    "make_objective",
    "objective_names",
    "probe_exponent",
    "run",
    "run_grid",
    "step",
    "summarize",
    "validate_config",
    "__version__",
]
