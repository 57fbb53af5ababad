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
They fill the (n, k) weight matrix row-major through an (n, k) mask
that is false at each member's own entry, row members[c], column c,
where the weight stays 1, so the stream is consumed in exactly the
order above. With ``deterministic_weights`` set, no draws are consumed
inside steps: every weight and velocity coefficient is exactly 1, and
the step runs the same code with those coefficients, which makes
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
    """All that one iteration hands the next: positions and velocities
    (population, dims), fitnesses (population,), the steps taken so far
    and the run's single generator, which stepping consumes. ``step``
    derives the masses, G and Kbest; ``run`` tracks the best so far.
    """

    positions: np.ndarray
    velocities: np.ndarray
    fitnesses: np.ndarray
    iteration: int
    rng: Generator


def compute_masses(fitnesses: Sequence[float]) -> np.ndarray:
    """Min-max mass assignment under minimization.

    raw_i = (worst - fit_i) / (worst - best), normalized to sum to 1.
    The best agent gets the maximum mass, the worst gets exactly 0, and
    a population with all-equal fitness gets uniform masses 1/n. The
    scheme is invariant under positive affine transforms of the fitness.
    ``step`` passes the finite fitnesses of a population of at least two.
    """
    fits = np.asarray(fitnesses, dtype=float)
    best = fits.min()
    worst = fits.max()
    if best == worst:
        return np.full(fits.size, 1.0 / fits.size)
    raw = (worst - fits) / (worst - best)
    return raw / raw.sum()


def g_schedule(g0: float, alpha: float, t: int, max_iters: int) -> float:
    """Exponentially decaying gravitational constant g0 * exp(-alpha*t/T)."""
    return g0 * math.exp(-alpha * t / max_iters)


def kbest_size(t: int, max_iters: int, population: int, initial_fraction: float) -> int:
    """Number of force-exerting agents at iteration t.

    Decreases linearly from ceil(initial_fraction * population) at t = 0
    to 1 at t = max_iters - 1, rounding half up; always within [1, n].
    """
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
    return SwarmState(positions=positions, velocities=np.zeros((n, d)),
                      fitnesses=_evaluate_population(objective, positions, 0),
                      iteration=0, rng=rng)


def step(state: SwarmState, config: GsaConfig, objective: Objective) -> SwarmState:
    """Advance the swarm by one iteration; consumes the input state's rng.

    The masses come from ``state.fitnesses``, and G and the Kbest size
    from ``state.iteration``; the returned state holds the moved swarm.
    """
    if state.iteration >= config.max_iters:
        raise ValueError("run already reached max_iters")
    n, d = state.positions.shape
    iteration = state.iteration + 1
    masses = compute_masses(state.fitnesses)
    g = g_schedule(config.g0, config.alpha, state.iteration, config.max_iters)
    k = kbest_size(state.iteration, config.max_iters, n, config.kbest_initial_fraction)
    members = np.sort(kbest_indices(state.fitnesses, k))

    weights = np.ones((n, k))
    if not config.deterministic_weights:
        drawn = np.ones((n, k), dtype=bool)
        drawn[members, np.arange(k)] = False
        weights[drawn] = state.rng.random(n * k - k)

    try:
        accel = forces(state.positions, masses, g, config.kernel, members, weights)
    except ForceOverflowError:
        raise ForceOverflowError(f"force overflow at iteration {iteration}; "
                                 "increase epsilon") from None
    accel /= (masses + MASS_SOFTENING)[:, None]

    velocities = np.ones((n, d)) if config.deterministic_weights else state.rng.random((n, d))
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

    return SwarmState(positions=positions, velocities=velocities,
                      fitnesses=_evaluate_population(objective, positions, iteration),
                      iteration=iteration, rng=state.rng)


def run(config: GsaConfig, objective: Objective) -> RunTrace:
    """Initialize then step exactly max_iters times.

    Only ``run`` tracks the best so far: the initial population's best
    agent, replaced by a step's best agent when that is strictly lower.
    Bit-identical traces for identical (config, objective). Raises
    EvaluationError when the population's mean fitness overflows.
    Overflow warnings are silenced: every overflow that leaves a
    non-finite value ends the run in ForceOverflowError, DivergenceError
    or EvaluationError naming the iteration.
    """
    best_so_far = np.empty(config.max_iters)
    population_best = np.empty(config.max_iters)
    population_mean = np.empty(config.max_iters)
    with np.errstate(over="ignore"):
        state = initialize(config, objective)
        best = int(state.fitnesses.argmin())
        best_fitness = state.fitnesses[best]
        best_position = state.positions[best].copy()
        for t in range(config.max_iters):
            state = step(state, config, objective)
            best = int(state.fitnesses.argmin())
            population_best[t] = state.fitnesses[best]
            if population_best[t] < best_fitness:
                best_fitness = population_best[t]
                # In place: a view keeps this step's positions alive, and a
                # new copy per gain lets large-swarm peak memory flip by 20 MiB.
                best_position[:] = state.positions[best]
            best_so_far[t] = best_fitness
            population_mean[t] = state.fitnesses.mean()
            if not math.isfinite(population_mean[t]):
                raise EvaluationError(
                    f"population mean fitness overflowed at iteration {state.iteration}"
                )
    return RunTrace(best_so_far=best_so_far, population_best=population_best,
                    population_mean=population_mean, final_best_position=best_position)
