import math

import numpy as np
import pytest

from gravopt import ConfigError, make_objective, objective_names
from gravopt.objectives import ObjectiveSpec, ackley, rastrigin, rosenbrock, sphere

BOUNDS = {"sphere": 100.0, "rastrigin": 5.12, "rosenbrock": 30.0, "ackley": 32.0}
FUNCTIONS = {"sphere": sphere, "rastrigin": rastrigin, "rosenbrock": rosenbrock, "ackley": ackley}


class TestKnownValues:
    @pytest.mark.parametrize("dims", [1, 2, 30])
    def test_sphere_origin(self, dims):
        assert sphere(np.zeros(dims)) == 0.0

    @pytest.mark.parametrize("dims", [2, 5, 30])
    def test_rosenbrock_at_ones(self, dims):
        assert rosenbrock(np.ones(dims)) == 0.0

    def test_rastrigin_hand_value(self):
        # 2 * [0.25 - 10*cos(pi) + 10] = 2 * 20.25 = 40.5
        assert rastrigin(np.array([0.5, 0.5])) == pytest.approx(40.5, abs=1e-12)

    @pytest.mark.parametrize("dims", [1, 2, 30])
    def test_ackley_origin(self, dims):
        assert abs(ackley(np.zeros(dims))) <= 1e-12


class TestInvariants:
    @pytest.mark.parametrize("name", ["sphere", "rastrigin", "rosenbrock"])
    def test_non_negative(self, name):
        spec = make_objective(name, 6)
        rng = np.random.Generator(np.random.PCG64(11))
        half = BOUNDS[name]
        for _ in range(200):
            assert spec.function(rng.uniform(-half, half, 6)) >= 0.0

    def test_ackley_floating_point_floor(self):
        spec = make_objective("ackley", 6)
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(200):
            assert spec.function(rng.uniform(-32.0, 32.0, 6)) >= -1e-12

    @pytest.mark.parametrize("fn", [sphere, rastrigin, ackley])
    def test_permutation_and_sign_invariance(self, fn):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0, 7)
            permuted = rng.permutation(x)
            flipped = x * rng.choice([-1.0, 1.0], size=7)
            assert fn(permuted) == pytest.approx(fn(x), rel=1e-12, abs=1e-12)
            assert fn(flipped) == pytest.approx(fn(x), rel=1e-12, abs=1e-12)

    def test_sphere_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(14))
        h = 1e-5
        for _ in range(10):
            x = rng.uniform(-10.0, 10.0, 5)
            analytic = 2.0 * x
            numeric = np.empty(5)
            for d in range(5):
                e = np.zeros(5)
                e[d] = h
                numeric[d] = (sphere(x + e) - sphere(x - e)) / (2.0 * h)
            np.testing.assert_allclose(numeric, analytic, rtol=1e-6, atol=1e-6)


class TestBatched:
    @pytest.mark.parametrize("dims", [1, 2, 8, 30, 129])
    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_population_matches_rows(self, name, dims):
        # 129 crosses numpy's 128-element pairwise-summation block; the
        # functions themselves, since no objective spec holds rosenbrock at 1 dim
        fn = FUNCTIONS[name]
        rng = np.random.Generator(np.random.PCG64(dims))
        x = rng.uniform(-BOUNDS[name], BOUNDS[name], (7, dims))
        batched = fn(x)
        assert batched.shape == (7,)
        assert np.array_equal(batched, [fn(row) for row in x])


class TestSpecAndEvaluate:
    def test_registry_names(self):
        assert set(objective_names()) == set(BOUNDS)

    @pytest.mark.parametrize("name,half", sorted(BOUNDS.items()))
    def test_default_bounds(self, name, half):
        spec = make_objective(name, 3)
        assert spec.lower_bound.tolist() == [-half] * 3
        assert spec.upper_bound.tolist() == [half] * 3

    def test_case_insensitive_lookup(self):
        assert make_objective("SpHeRe", 2).name == "sphere"
        assert make_objective(" ACKLEY ", 2).name == "ackley"

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ConfigError, match="sphere"):
            make_objective("griewank", 2)

    def test_bad_spec_construction(self):
        # int() would truncate 2.5 dims to 2; the last three do not compare
        # with an int, or int() fails on them
        for name, dims, message in (("nope", 2, "unknown objective 'nope'"),
                                    ("sphere", 0, "'sphere' needs dims >= 1, got 0"),
                                    ("sphere", 2.5, "dims must be an integer, got 2.5"),
                                    ("sphere", math.nan, "dims must be an integer, got nan"),
                                    ("sphere", "3", "dims must be an integer, got '3'"),
                                    ("sphere", None, "dims must be an integer, got None")):
            for make in (ObjectiveSpec, make_objective):
                with pytest.raises(ConfigError, match=message):
                    make(name, dims)

    def test_rosenbrock_needs_two_dims(self):
        # one coordinate has no consecutive pair, so the sum is identically 0
        with pytest.raises(ConfigError, match=r"'rosenbrock' needs dims >= 2, got 1"):
            make_objective("rosenbrock", 1)
        assert make_objective("rosenbrock", 2).dims == 2

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_single_point_returns_float64_scalar(self, name):
        value = make_objective(name, 3).function(np.array([0.5, -1.0, 2.0]))
        assert type(value) is np.float64
