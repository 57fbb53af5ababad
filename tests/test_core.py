import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gravopt
from gravopt import ConfigError, GsaConfig, KernelSpec, RunTrace


def minimal_config(**overrides):
    base = dict(
        population=2,
        dims=1,
        lower_bound=[-1.0],
        upper_bound=[1.0],
        kernel=KernelSpec(0.0),
        g0=100.0,
        alpha=20.0,
        max_iters=10,
        kbest_initial_fraction=1.0,
        deterministic_weights=False,
        seed=7,
    )
    base.update(overrides)
    return GsaConfig(**base)


class TestKernelSpec:
    def test_names(self):
        assert KernelSpec(0.0).name == "original"
        assert KernelSpec(1.0).name == "linear"
        assert KernelSpec(2.0).name == "square"
        assert KernelSpec(1.5).name == "power:1.5"
        assert KernelSpec(3.0).name == "power:3"

    def test_name_keeps_every_digit(self):
        assert KernelSpec(1.2345678).name == "power:1.2345678"
        assert KernelSpec(1.23457).name == "power:1.23457"

    @pytest.mark.parametrize(
        "text, exponent",
        [("original", 0.0), ("linear", 1.0), ("square", 2.0), ("power:1.5", 1.5),
         ("power:0", 0.0), ("power:2", 2.0), ("  Square ", 2.0), ("POWER: 2.5e0", 2.5)],
    )
    def test_named(self, text, exponent):
        assert KernelSpec.named(text, 1e-9) == KernelSpec(exponent, 1e-9)

    @pytest.mark.parametrize(
        "text, message",
        [("cubic", "unknown kernel 'cubic'"), ("power", "unknown kernel 'power'"),
         ("power:abc", "bad power-law exponent in 'power:abc'"),
         ("power:", "bad power-law exponent in 'power:'")],
    )
    def test_bad_name_rejected(self, text, message):
        with pytest.raises(ConfigError) as raised:
            KernelSpec.named(text, 0.0)
        assert str(raised.value) == (
            f"{message}; valid kernels: original, linear, square, power:<q>"
        )

    @pytest.mark.parametrize("text", ["power:-1", "power:inf", "power:nan"])
    def test_bad_power_value_rejected(self, text):
        with pytest.raises(ValueError, match="exponent must be"):
            KernelSpec.named(text, 0.0)

    @given(
        q=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        eps=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_name_round_trips(self, q, eps):
        spec = KernelSpec(q, eps)
        assert KernelSpec.named(spec.name, spec.epsilon) == spec

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-12])
    def test_bad_epsilon_rejected(self, bad):
        with pytest.raises(ValueError):
            KernelSpec(0.0, epsilon=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_bad_exponent_rejected(self, bad):
        with pytest.raises(ValueError):
            KernelSpec(bad)

    @given(
        q=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        eps=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_finite_nonnegative_always_accepted(self, q, eps):
        spec = KernelSpec(q, eps)
        assert spec.exponent == q
        assert spec.epsilon == eps


class TestValidateConfig:
    def test_minimal_valid_config(self):
        minimal_config()  # must not raise

    def test_population_below_two(self):
        with pytest.raises(ConfigError, match="population"):
            minimal_config(population=1)

    def test_replace_checks_the_new_value(self):
        with pytest.raises(ConfigError, match="population >= 2"):
            replace(minimal_config(), population=1)

    def test_empty_box(self):
        with pytest.raises(ConfigError, match="empty box"):
            minimal_config(lower_bound=[0.0], upper_bound=[0.0])

    def test_bounds_length_mismatch(self):
        with pytest.raises(ConfigError, match="lower_bound"):
            minimal_config(lower_bound=[0.0, 0.0])

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            (dict(dims=0, lower_bound=[], upper_bound=[]), "dims"),
            (dict(g0=0.0), "g0"),
            (dict(g0=-1.0), "g0"),
            (dict(alpha=-0.1), "alpha"),
            (dict(max_iters=0), "max_iters"),
            (dict(kbest_initial_fraction=0.0), "kbest"),
            (dict(kbest_initial_fraction=1.5), "kbest"),
            (dict(seed=-1), "seed"),
            (dict(seed=2**64), "seed"),
            (dict(lower_bound=[-1e308], upper_bound=[1e308]), "upper_bound - lower_bound"),
        ],
    )
    def test_each_invariant_named(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            minimal_config(**overrides)

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(ValueError):
            minimal_config(g0=math.inf)
        with pytest.raises(ValueError):
            minimal_config(lower_bound=[math.nan])


def make_trace(best_so_far, population_best=None, population_mean=None):
    n = len(best_so_far)
    return RunTrace(
        best_so_far=best_so_far,
        population_best=best_so_far if population_best is None else population_best,
        population_mean=np.full(n, 9.0) if population_mean is None else population_mean,
        final_best_position=[0.0],
    )


class TestRunTrace:
    def test_best_so_far_must_not_increase(self):
        good = make_trace([5.0, 4.0, 4.0])
        assert good.final_best == 4.0

    def test_columns_are_read_only_float64(self):
        trace = make_trace([3, 2, 1])
        for column in (trace.best_so_far, trace.population_best, trace.population_mean):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.0


def test_every_exported_name_resolves():
    for name in gravopt.__all__:
        assert getattr(gravopt, name) is not None

