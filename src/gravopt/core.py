"""Shared value types: kernel selectors, run configuration, traces.

All types here are plain values, immutable after construction. Vector
fields are stored as read-only float64 numpy arrays. Any bad input from
outside the program raises ConfigError, and KernelSpec and GsaConfig
check every invariant of theirs (population size, bounds box, ...); any
non-finite force, motion or fitness raises NumericError. RunTrace and
ProbeReport carry what ``run`` or ``probe_exponent`` guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default softening constant for the force-law denominators. Far below
#: benchmark length scales yet above double-precision noise at them.
DEFAULT_EPSILON = 1e-12

_UINT64_MAX = 2**64 - 1

#: The most float64 values one numpy array can address; counts above fail.
MAX_VALUES = np.iinfo(np.intp).max // 8

#: The force laws with a name of their own, by distance exponent q; any
#: other q >= 0 is named "power:<q>".
KERNEL_NAMES = {"original": 0.0, "linear": 1.0, "square": 2.0}
KERNEL_CHOICES = ", ".join(KERNEL_NAMES) + ", power:<q>"


class ConfigError(ValueError):
    """A setting or other input from outside the program is invalid."""


class NumericError(ArithmeticError):
    """The force law, the dynamics or the objective gave a non-finite value,
    the probe a zero force, or the objective a wrongly shaped result."""


def as_numeric(value, name: str, vector: bool = False):
    """``value`` as a float, or as a float64 array if ``vector``; a value
    that does not convert is refused."""
    try:
        return np.array(value, dtype=float) if vector else float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be numeric, got {value!r}") from None


def _readonly_vector(values, name: str) -> np.ndarray:
    arr = as_numeric(values, name, vector=True)
    if arr.ndim != 1 or arr.size < 1:
        raise ConfigError(f"{name} must be a 1-D vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must contain only finite values")
    arr.flags.writeable = False
    return arr


def _finite_scalar(value, name: str) -> float:
    value = as_numeric(value, name)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def as_count(value, name: str, least: float, most: int = MAX_VALUES) -> int:
    """``value`` as an int in [least, most]; a fractional, non-finite or
    non-numeric one is refused, never truncated."""
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} >= {least} required")
    if value > most:
        raise ConfigError(f"{name} <= {most} required")
    return int(value)


@dataclass(frozen=True)
class KernelSpec:
    """Selects the pairwise force law.

    ``exponent`` (q) is the distance exponent of the force magnitude: with
    epsilon = 0 the magnitude is G*m_i*m_j / R**q. The per-component rule
    divides by R**(q+1) + epsilon, so q = 0 reproduces the classic GSA
    rule G*m_i*m_j / (R + epsilon) * (x_j - x_i) bit for bit, while q = 1
    and q = 2 give the inverse-linear and inverse-square laws, the three
    exponents ``KERNEL_NAMES`` names; ``named`` and ``name`` convert
    between a kernel and its name.
    """

    exponent: float
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        exponent = _finite_scalar(self.exponent, "exponent")
        epsilon = _finite_scalar(self.epsilon, "epsilon")
        if exponent < 0.0:
            raise ConfigError(f"exponent must be >= 0, got {exponent}")
        if epsilon < 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {epsilon}")
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "epsilon", epsilon)

    @classmethod
    def named(cls, text: str, epsilon: float) -> "KernelSpec":
        """Kernel from its name: original | linear | square | power:<q>."""
        token = str(text).strip().lower()
        if token in KERNEL_NAMES:
            return cls(KERNEL_NAMES[token], epsilon)
        if token.startswith("power:"):
            try:
                exponent = float(token.split(":", 1)[1])
            except ValueError:
                raise ConfigError(
                    f"bad power-law exponent in '{text}'; valid kernels: {KERNEL_CHOICES}"
                ) from None
            return cls(exponent, epsilon)
        raise ConfigError(f"unknown kernel '{text}'; valid kernels: {KERNEL_CHOICES}")

    @property
    def name(self) -> str:
        """Canonical name used by the CLI and in CSV output; ``named``
        parses it back to this exponent exactly."""
        for name, exponent in KERNEL_NAMES.items():
            if self.exponent == exponent:
                return name
        short = f"{self.exponent:g}"
        return f"power:{short if float(short) == self.exponent else repr(self.exponent)}"


@dataclass(frozen=True)
class GsaConfig:
    """Full configuration of one optimization run.

    Construction normalizes every field and raises ConfigError naming the
    first violated invariant, so every GsaConfig is valid, one made by
    ``dataclasses.replace`` included.
    """

    population: int
    dims: int
    lower_bound: np.ndarray
    upper_bound: np.ndarray
    kernel: KernelSpec
    g0: float = 100.0
    alpha: float = 20.0
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name, least, most in (("population", 2, MAX_VALUES), ("dims", 1, MAX_VALUES),
                                  ("max_iters", 1, MAX_VALUES), ("seed", 0, _UINT64_MAX)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, least, most))
        # the first step's (n, n) weight mask and the (n, d) positions
        if self.population * max(self.population, self.dims) > MAX_VALUES:
            raise ConfigError(f"population * max(population, dims) <= {MAX_VALUES} required")
        for name in ("lower_bound", "upper_bound"):
            bound = _readonly_vector(getattr(self, name), name)
            if bound.size != self.dims:
                raise ConfigError(f"{name} length {bound.size} != dims {self.dims}")
            object.__setattr__(self, name, bound)
        if not np.all(self.lower_bound < self.upper_bound):
            raise ConfigError("bounds describe an empty box (lower < upper required)")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.upper_bound - self.lower_bound)):
                raise ConfigError("upper_bound - lower_bound must be finite in float64")
        if not isinstance(self.kernel, KernelSpec):
            raise ConfigError("kernel must be a KernelSpec")
        for name in ("g0", "alpha"):
            object.__setattr__(self, name, _finite_scalar(getattr(self, name), name))
        if self.g0 <= 0.0:
            raise ConfigError("g0 > 0 required")
        if self.alpha < 0.0:
            raise ConfigError("alpha >= 0 required")


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration summary of a completed run, stored as columns.

    best_so_far, population_best and population_mean are float64 arrays
    of equal length; entry t belongs to iteration t + 1. ``run`` fills
    them with finite values, keeps best_so_far non-increasing and hands
    them over, with final_best_position, read-only.
    """

    best_so_far: np.ndarray
    population_best: np.ndarray
    population_mean: np.ndarray
    final_best_position: np.ndarray

    @property
    def final_best(self) -> float:
        return float(self.best_so_far[-1])


@dataclass(frozen=True)
class ProbeReport:
    """Sampled (distance, force magnitude) pairs and their log-log fit, as
    ``probe_exponent`` measured them: finite, with distinct distances > 0
    and magnitudes > 0."""

    samples: tuple[tuple[float, float], ...]
    fitted_slope: float
    fitted_intercept: float
    max_residual: float
