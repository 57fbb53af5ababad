import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gravopt
from gravopt import ConfigError, GsaConfig, KernelSpec
from gravopt.core import KERNEL_NAMES


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
        seed=7,
    )
    base.update(overrides)
    return GsaConfig(**base)


class TestKernelSpec:
    def test_names(self):
        assert KernelSpec(0.0).name == "original"
        assert KernelSpec(1.0).name == "linear"
        assert KernelSpec(2.0).name == "square"

    @pytest.mark.parametrize(
        "text, exponent",
        [("original", 0.0), ("linear", 1.0), ("square", 2.0), ("  Square ", 2.0)],
    )
    def test_named(self, text, exponent):
        assert KernelSpec.named(text, 1e-9) == KernelSpec(exponent, 1e-9)

    @pytest.mark.parametrize(
        "text, message",
        [("cubic", "unknown kernel 'cubic'"), ("power", "unknown kernel 'power'"),
         ("power:1.5", "unknown kernel 'power:1.5'")],
    )
    def test_bad_name_rejected(self, text, message):
        with pytest.raises(ConfigError) as raised:
            KernelSpec.named(text, 0.0)
        assert str(raised.value) == f"{message}; valid kernels: original, linear, square"

    @given(
        q=st.sampled_from(list(KERNEL_NAMES.values())),
        eps=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_name_round_trips(self, q, eps):
        spec = KernelSpec(q, eps)
        assert KernelSpec.named(spec.name, spec.epsilon) == spec

    @given(
        q=st.sampled_from(list(KERNEL_NAMES.values())),
        eps=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_finite_nonnegative_always_accepted(self, q, eps):
        # every force law's exponent is accepted with any finite epsilon >= 0
        spec = KernelSpec(q, eps)
        assert spec.exponent == q
        assert spec.epsilon == eps

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-12, None])
    def test_bad_epsilon_rejected(self, bad):
        with pytest.raises(ConfigError, match="epsilon must be"):
            KernelSpec(0.0, epsilon=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, "abc", -1.0, 1.5, 3.0])
    def test_bad_exponent_rejected(self, bad):
        with pytest.raises(ConfigError, match="exponent must be") as raised:
            KernelSpec(bad)
        assert bad == "abc" or "(original, linear, square)" in str(raised.value)


class TestValidateConfig:
    def test_replace_checks_the_new_value(self):
        with pytest.raises(ConfigError, match="population >= 2"):
            replace(minimal_config(), population=1)

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            (dict(dims=0, lower_bound=[], upper_bound=[]), "dims"),
            (dict(g0=0.0), "g0"),
            (dict(g0=-1.0), "g0"),
            (dict(alpha=-0.1), "alpha"),
            (dict(max_iters=0), "max_iters"),
            (dict(upper_bound=[1.0, 2.0]), "upper_bound length 2 != dims 1"),
            (dict(lower_bound=[2.0]), "empty box"),
            (dict(seed=-1), "seed"),
            (dict(seed=2**64), "seed"),
            (dict(lower_bound=[-1e308], upper_bound=[1e308]), "upper_bound - lower_bound"),
            (dict(lower_bound=[0.0], upper_bound=[0.0]), "empty box"),
            (dict(lower_bound=[0.0, 0.0]), "lower_bound length 2 != dims 1"),
            (dict(g0=math.inf), "g0 must be finite"),
            (dict(lower_bound=[math.nan]), "lower_bound must contain only finite values"),
            (dict(lower_bound=[[-1.0]]), "lower_bound must be a 1-D vector"),
            (dict(kernel="original"), "kernel must be a KernelSpec"),
            # the first step's (n, n) weights would exceed what numpy can address
            (dict(population=2**31), r"population \* max\(population, dims\) <= "),
            (dict(g0="abc"), "g0 must be numeric, got 'abc'"),
            (dict(g0=None), "g0 must be numeric, got None"),
            (dict(lower_bound=["a", "b"]), r"lower_bound must be numeric, got \['a', 'b'\]"),
        ],
    )
    def test_each_invariant_named(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            minimal_config(**overrides)

    @pytest.mark.parametrize("name, value", [("population", 5.9), ("dims", 1.5),
                                             ("max_iters", 3.7), ("seed", 1.5),
                                             ("population", math.nan), ("population", math.inf),
                                             ("population", None), ("dims", True),
                                             ("seed", False)])
    def test_non_integral_count_rejected(self, name, value):
        # int() would truncate 5.9 agents to 5, fail on nan, inf and None,
        # and read True as 1
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value}"):
            minimal_config(**{name: value})



class TestRunTrace:
    def test_columns_are_read_only_float64(self):
        trace = gravopt.run(minimal_config(max_iters=3), lambda x: np.sum(x * x, axis=-1))
        for column in (trace.best_so_far, trace.population_best, trace.population_mean,
                       trace.final_best_position):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.0


def test_every_exported_name_resolves():
    for name in gravopt.__all__:
        assert getattr(gravopt, name) is not None

