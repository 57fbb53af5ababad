"""Benchmark objectives with known optima: sphere, rastrigin, rosenbrock, ackley.

All four are minimized; the global optimum value is 0 (sphere, rastrigin
and ackley at the origin, rosenbrock at the all-ones point). Each carries
its customary symmetric box, as ``dims``-long ``lower_bound`` and
``upper_bound`` vectors, and the fewest dims it is defined for:
rosenbrock sums over consecutive coordinate pairs, so it needs two.

Each function maps (..., d) -> (...) by reducing over the last axis, so
one call evaluates a whole (n, d) population; on a single (d,) point it
returns a numpy float64 scalar. Row i of a batched call equals the call
on row i alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ConfigError, as_count


def sphere(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sum(x * x, axis=-1)


def rastrigin(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def rosenbrock(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    head, tail = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


def ackley(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    s1 = np.sum(x * x, axis=-1)
    s2 = np.sum(np.cos(2.0 * np.pi * x), axis=-1)
    return -20.0 * np.exp(-0.2 * np.sqrt(s1 / n)) - np.exp(s2 / n) + 20.0 + np.e


# name -> (function, symmetric half-width of the default box, fewest dims)
_REGISTRY: dict[str, tuple[Callable[[np.ndarray], np.ndarray], float, int]] = {
    "sphere": (sphere, 100.0, 1),
    "rastrigin": (rastrigin, 5.12, 1),
    "rosenbrock": (rosenbrock, 30.0, 2),
    "ackley": (ackley, 32.0, 1),
}


def objective_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


@dataclass(frozen=True)
class ObjectiveSpec:
    """A named benchmark function at a fixed dimensionality."""

    name: str
    dims: int

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in _REGISTRY:
            raise ConfigError(
                f"unknown objective '{self.name}'; valid names: "
                + ", ".join(objective_names())
            )
        # the objective names its own least dims
        dims = as_count(self.dims, "dims", -math.inf)
        fewest = _REGISTRY[self.name][2]
        if dims < fewest:
            raise ConfigError(f"objective '{self.name}' needs dims >= {fewest}, got {self.dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def function(self) -> Callable[[np.ndarray], np.ndarray]:
        return _REGISTRY[self.name][0]

    @property
    def lower_bound(self) -> np.ndarray:
        return np.full(self.dims, -_REGISTRY[self.name][1])

    @property
    def upper_bound(self) -> np.ndarray:
        return np.full(self.dims, _REGISTRY[self.name][1])


def make_objective(name: str, dims: int) -> ObjectiveSpec:
    """Look up a benchmark by name (case-insensitive) at the given dims."""
    return ObjectiveSpec(name=str(name).strip().lower(), dims=dims)
