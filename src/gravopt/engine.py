"""The optimization loop: masses from fitness, G decay, Kbest forces, motion.

Determinism contract
--------------------
Each run owns a single numpy PCG64 generator seeded from the config
(``RNG_NAME`` names the algorithm for trace headers). Uniform draws are
consumed in a fixed order so traces are bit-identical across machines
with the same numpy build and the same active CPU dispatch level, and
for any number of cores ``kernels.forces`` spreads its rows over:

1. ``initialize``: population * dims uniforms fill the positions
   row-major (agent index ascending, dimension ascending).
2. each ``step``, when ``deterministic_weights`` is false:
   a. force weights: for each agent i in index order, one uniform per
      Kbest member j != i in ascending j order;
   b. velocity coefficients: population * dims uniforms, row-major.

Step 2a is one ``rng.random`` call per step for all n * k - k weights.
They fill the (n, k) weight matrix row-major through a flat mask that
skips each member's own column (flat index ``members * k + c`` for
column c) and holds 1 there, so the stream is consumed in exactly the
order above. With
``deterministic_weights`` set, no draws are consumed inside steps and
every weight and velocity coefficient is exactly 1, which makes
single-step oracle comparisons exact.

Forces come from ``kernels.forces``, the one function that evaluates
the force law: ``step`` calls it once per iteration with the Kbest
members in ascending index order and the (n, k) weight matrix.

An ``Objective`` evaluates the whole population at once: it maps an
(n, d) array of positions, which it must not modify, to n fitness
values, reducing over the last axis as the built-in benchmarks do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Loaded with the module, not by the first run: numpy.random's
# long-lived module data, loaded mid-process, lands inside whatever heap
# the process has built by then, so a long-lived caller's peak RSS would
# depend on when its first run started.
from numpy.random import PCG64, Generator

from .core import GsaConfig, RunTrace
from .kernels import ForceOverflowError, forces

#: Softening added to the acceleration denominator; the worst agent's
#: mass is exactly zero under min-max scaling, so a = F / m needs it.
MASS_SOFTENING = 1e-12

#: Name of the random-generator algorithm, recorded in trace headers.
RNG_NAME = "numpy-pcg64"

Objective = Callable[[np.ndarray], np.ndarray]


class EvaluationError(RuntimeError):
    """The objective returned a non-finite value or a wrongly shaped result,
    or the mean fitness overflowed."""


class DivergenceError(RuntimeError):
    """The dynamics produced non-finite positions or velocities."""


def make_rng(seed: int) -> Generator:
    """The run generator: PCG64 seeded directly with the config seed."""
    return Generator(PCG64(seed))


@dataclass
class SwarmState:
    """Mutable-by-replacement snapshot of one run in progress.

    Arrays are stored population-major: positions and velocities are
    (population, dims), fitnesses and masses are (population,). ``rng``
    is the single generator owned by the run; stepping consumes it.
    """

    positions: np.ndarray
    velocities: np.ndarray
    fitnesses: np.ndarray
    masses: np.ndarray
    iteration: int
    g_current: float
    best_so_far_fitness: float
    best_so_far_position: np.ndarray
    rng: Generator


def compute_masses(fitnesses: Sequence[float]) -> np.ndarray:
    """Min-max mass assignment under minimization.

    raw_i = (worst - fit_i) / (worst - best), normalized to sum to 1.
    The best agent gets the maximum mass, the worst gets exactly 0, and
    a population with all-equal fitness gets uniform masses 1/n. The
    scheme is invariant under positive affine transforms of the fitness.
    """
    fits = np.asarray(fitnesses, dtype=float)
    if fits.ndim != 1 or fits.size < 2:
        raise ValueError("compute_masses needs at least two fitness values")
    if not np.isfinite(fits).all():
        raise ValueError("fitness values must be finite")
    best = fits.min()
    worst = fits.max()
    if best == worst:
        return np.full(fits.size, 1.0 / fits.size)
    raw = (worst - fits) / (worst - best)
    return raw / raw.sum()


def g_schedule(g0: float, alpha: float, t: int, max_iters: int) -> float:
    """Exponentially decaying gravitational constant g0 * exp(-alpha*t/T)."""
    if g0 <= 0.0:
        raise ValueError("g0 must be > 0")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if not 0 <= t <= max_iters:
        raise ValueError(f"t must lie in [0, {max_iters}], got {t}")
    return g0 * math.exp(-alpha * t / max_iters)


def kbest_size(t: int, max_iters: int, population: int, initial_fraction: float) -> int:
    """Number of force-exerting agents at iteration t.

    Decreases linearly from ceil(initial_fraction * population) at t = 0
    to 1 at t = max_iters - 1, rounding half up; always within [1, n].
    """
    if not 0.0 < initial_fraction <= 1.0:
        raise ValueError("initial_fraction must lie in (0, 1]")
    # The 1e-9 nudge keeps ceil() honest when fraction * n lands a few
    # ulps above an exact integer (e.g. 0.2 * 50).
    k0 = math.ceil(initial_fraction * population - 1e-9)
    k0 = min(max(k0, 1), population)
    if max_iters <= 1:
        return k0
    span = t / (max_iters - 1)
    k = math.floor(k0 + (1 - k0) * span + 0.5)
    return min(max(k, 1), population)


def kbest_indices(fitnesses: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best-fitness agents, ties broken by lower index."""
    order = np.argsort(fitnesses, kind="stable")
    return order[:k]


def _evaluate_population(
    objective: Objective, positions: np.ndarray, iteration: int
) -> np.ndarray:
    view = positions.view()
    view.flags.writeable = False
    fitnesses = np.array(objective(view), dtype=float)
    if fitnesses.shape != positions.shape[:1]:
        raise EvaluationError(
            f"objective returned shape {fitnesses.shape} for {positions.shape[0]} agents "
            f"at iteration {iteration}; it must map (n, d) positions to (n,) values"
        )
    finite = np.isfinite(fitnesses)
    if not finite.all():
        i = int(np.argmin(finite))
        raise EvaluationError(
            f"objective returned non-finite value {float(fitnesses[i])} for agent {i} "
            f"at iteration {iteration}, position {positions[i].tolist()}"
        )
    return fitnesses


def initialize(config: GsaConfig, objective: Objective) -> SwarmState:
    """Seeded uniform start: positions in the box, velocities zero."""
    rng = make_rng(config.seed)
    n, d = config.population, config.dims
    width = config.upper_bound - config.lower_bound
    positions = config.lower_bound + rng.random((n, d)) * width
    velocities = np.zeros((n, d))
    fitnesses = _evaluate_population(objective, positions, 0)
    masses = compute_masses(fitnesses)
    best = int(np.argmin(fitnesses))
    return SwarmState(
        positions=positions,
        velocities=velocities,
        fitnesses=fitnesses,
        masses=masses,
        iteration=0,
        g_current=g_schedule(config.g0, config.alpha, 0, config.max_iters),
        best_so_far_fitness=float(fitnesses[best]),
        best_so_far_position=positions[best].copy(),
        rng=rng,
    )


def step(state: SwarmState, config: GsaConfig, objective: Objective) -> SwarmState:
    """Advance the swarm by one iteration; consumes the input state's rng."""
    if state.iteration >= config.max_iters:
        raise ValueError("run already reached max_iters")
    n, d = state.positions.shape
    iteration = state.iteration + 1
    k = kbest_size(
        state.iteration, config.max_iters, n, config.kbest_initial_fraction
    )
    members = np.sort(kbest_indices(state.fitnesses, k))

    weights = np.ones(n * k)
    if not config.deterministic_weights:
        drawn = np.ones(n * k, dtype=bool)
        # Flat index of each member's own column: row members[c], column c.
        drawn[members * k + np.arange(k)] = False
        weights[drawn] = state.rng.random(n * k - k)
    weights = weights.reshape(n, k)

    try:
        accel = forces(state.positions, state.masses, state.g_current, config.kernel,
                       members, weights)
    except ForceOverflowError:
        raise ForceOverflowError(f"force overflow at iteration {iteration}; "
                                 "increase epsilon") from None
    accel /= (state.masses + MASS_SOFTENING)[:, None]

    if config.deterministic_weights:
        velocities = state.velocities + accel
    else:
        velocities = state.rng.random((n, d))
        velocities *= state.velocities
        velocities += accel
    raw = state.positions + velocities
    # Positions are always finite, so raw is finite exactly when the
    # velocities are.
    if not np.isfinite(raw).all():
        raise DivergenceError(
            f"dynamics diverged at iteration {iteration}; increase epsilon or reduce g0"
        )
    positions = np.minimum(np.maximum(raw, config.lower_bound), config.upper_bound)
    velocities[positions != raw] = 0.0

    fitnesses = _evaluate_population(objective, positions, iteration)
    masses = compute_masses(fitnesses)
    best = int(fitnesses.argmin())
    if fitnesses[best] < state.best_so_far_fitness:
        best_fitness = float(fitnesses[best])
        best_position = positions[best].copy()
    else:
        best_fitness = state.best_so_far_fitness
        best_position = state.best_so_far_position
    return SwarmState(
        positions=positions,
        velocities=velocities,
        fitnesses=fitnesses,
        masses=masses,
        iteration=iteration,
        g_current=g_schedule(config.g0, config.alpha, iteration, config.max_iters),
        best_so_far_fitness=best_fitness,
        best_so_far_position=best_position,
        rng=state.rng,
    )


def run(config: GsaConfig, objective: Objective) -> RunTrace:
    """Initialize then step exactly max_iters times.

    Bit-identical traces for identical (config, objective). Raises
    EvaluationError when the population's mean fitness overflows.
    """
    state = initialize(config, objective)
    best_so_far = np.empty(config.max_iters)
    population_best = np.empty(config.max_iters)
    population_mean = np.empty(config.max_iters)
    for t in range(config.max_iters):
        state = step(state, config, objective)
        best_so_far[t] = state.best_so_far_fitness
        population_best[t] = state.fitnesses.min()
        with np.errstate(over="ignore"):
            population_mean[t] = state.fitnesses.mean()
        if not math.isfinite(population_mean[t]):
            raise EvaluationError(
                f"population mean fitness overflowed at iteration {state.iteration}"
            )
    return RunTrace(
        best_so_far=best_so_far,
        population_best=population_best,
        population_mean=population_mean,
        final_best_position=state.best_so_far_position,
    )
