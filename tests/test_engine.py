import copy
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import naive_forces
from hypothesis import given, settings, strategies as st

import gravopt.engine as engine
from gravopt import GsaConfig, KernelSpec, NumericError, forces, run
from gravopt.engine import compute_masses, g_schedule, initialize, kbest_size, step
from gravopt.objectives import sphere


def make_config(**overrides):
    base = dict(
        population=5,
        dims=2,
        lower_bound=np.full(2, -5.0),
        upper_bound=np.full(2, 5.0),
        kernel=KernelSpec(0.0),
        g0=100.0,
        alpha=20.0,
        max_iters=10,
        seed=12345,
    )
    base.update(overrides)
    if "dims" in overrides and "lower_bound" not in overrides:
        d = overrides["dims"]
        base["lower_bound"] = np.full(d, -5.0)
        base["upper_bound"] = np.full(d, 5.0)
    return GsaConfig(**base)


class TestComputeMasses:
    def test_all_equal_fitness_gives_uniform(self):
        assert np.array_equal(compute_masses([3.0, 3.0, 3.0]), np.full(3, 1.0 / 3.0))

    def test_min_max_hand_value(self):
        # worst=4, best=1: raw = (1, 2/3, 0), normalized = (0.6, 0.4, 0.0)
        np.testing.assert_allclose(
            compute_masses([1.0, 2.0, 4.0]), [0.6, 0.4, 0.0], rtol=1e-15
        )

    def test_best_gets_max_worst_gets_zero(self):
        masses = compute_masses([7.0, -1.0, 3.0, 12.0])
        assert np.argmax(masses) == 1
        assert masses[3] == 0.0
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((masses >= 0.0) & (masses <= 1.0))

    @given(
        st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=20),
        st.integers(1, 1000),
        st.integers(-1000, 1000),
    )
    def test_positive_affine_invariance(self, fits, a, b):
        # integer-valued inputs keep a*f + b exact in float64, so the
        # invariance holds to the bit rather than up to cancellation noise
        fits = [float(f) for f in fits]
        transformed = [a * f + b for f in fits]
        np.testing.assert_allclose(
            compute_masses(transformed), compute_masses(fits), atol=1e-12
        )

    def test_fitness_span_beyond_float64_gives_finite_masses(self):
        # worst - best = 3.4e308 overflows; the halves' span does not
        masses = compute_masses([1.7e308, -1.7e308, 0.0])
        np.testing.assert_allclose(masses, [0.0, 2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    def test_argmax_invariant_under_monotone_transform(self):
        rng = np.random.Generator(np.random.PCG64(42))
        for _ in range(50):
            fits = rng.uniform(-10.0, 10.0, 8)
            before = np.argmax(compute_masses(fits))
            after = np.argmax(compute_masses(np.arctan(fits)))
            assert before == after


class TestGSchedule:
    def test_anchor_at_zero(self):
        assert g_schedule(100.0, 20.0, 0, 1000) == 100.0

    def test_closed_form_at_end(self):
        assert g_schedule(100.0, 20.0, 1000, 1000) == pytest.approx(
            100.0 * math.exp(-20.0), rel=1e-15
        )

    def test_zero_alpha_constant(self):
        for t in (0, 17, 500, 1000):
            assert g_schedule(5.0, 0.0, t, 1000) == 5.0

    def test_non_increasing(self):
        values = [g_schedule(100.0, 20.0, t, 100) for t in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v > 0.0 for v in values)


class TestKbestSize:
    def test_full_population_at_start(self):
        assert kbest_size(0, 1000, 50) == 50

    def test_one_at_end(self):
        assert kbest_size(999, 1000, 50) == 1

    def test_midpoint_rounds_half_up(self):
        # scripted oracle: 50 + (1-50)*0.5 = 25.5, half-up -> 26
        t, max_iters = 50, 101
        expected = math.floor(50 + (1 - 50) * (t / (max_iters - 1)) + 0.5)
        assert expected == 26
        assert kbest_size(t, max_iters, 50) == 26

    def test_always_within_range(self):
        for t in range(100):
            k = kbest_size(t, 100, 7)
            assert 1 <= k <= 7

    def test_single_iteration_run(self):
        assert kbest_size(0, 1, 8) == 8


class TestInitialize:
    def test_deterministic(self):
        config = make_config(population=50, dims=30)
        a = initialize(config, sphere)
        b = initialize(config, sphere)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.fitnesses, b.fitnesses)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_population_and_bounds(self):
        config = make_config(population=50, dims=30)
        state = initialize(config, sphere)
        assert state.positions.shape == (50, 30)
        assert np.all(state.positions >= config.lower_bound)
        assert np.all(state.positions <= config.upper_bound)
        assert np.array_equal(state.velocities, np.zeros((50, 30)))
        assert state.iteration == 0

    def test_state_holds_only_the_swarm(self):
        # masses, G, Kbest and the best so far are derived, not carried
        names = [field.name for field in fields(engine.SwarmState)]
        assert names == ["positions", "velocities", "fitnesses", "iteration", "rng"]

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_any_seed_stays_in_box(self, seed):
        config = make_config(population=4, dims=2, seed=seed)
        state = initialize(config, sphere)
        assert np.all(np.abs(state.positions) <= 5.0)

    def test_non_finite_objective_identifies_point(self):
        config = make_config()

        def bad(x):
            return np.where(x[:, 0] > 0, math.inf, 0.0)

        with pytest.raises(NumericError, match="agent"):
            initialize(config, bad)

    def test_non_finite_objective_names_iteration(self):
        config = make_config(population=5, max_iters=10)
        calls = 0

        def nan_from_step_3(x):
            nonlocal calls
            calls += 1
            values = sphere(x)
            if calls > 3:
                values[1:] = math.nan
            return values

        # initialize and two steps evaluate cleanly; in step 3 agent 1 is
        # the first of several bad agents
        with pytest.raises(NumericError, match=r"agent 1 at iteration 3,"):
            run(config, nan_from_step_3)

    def test_fitness_span_beyond_float64_fails_on_the_mean(self):
        # finite masses carry the step; the overflowing mean ends the run
        config = make_config(population=4, dims=1, lower_bound=[-1.0], upper_bound=[1.0],
                             seed=3, max_iters=5)

        def extremes(x):
            return np.where(x[:, 0] > 0, 1.7e308, -1.7e308)

        with pytest.raises(NumericError,
                           match="population mean fitness overflowed at iteration 1"):
            run(config, extremes)

    @pytest.mark.parametrize(
        "wrong", [lambda x: np.sum(x * x), lambda x: sphere(x)[:, None], lambda x: sphere(x)[1:]]
    )
    def test_wrongly_shaped_objective_rejected(self, wrong):
        # a scalar or an (n, 1) column would broadcast into n fitnesses
        with pytest.raises(NumericError, match=r"returned shape .* for 5 agents"):
            initialize(make_config(population=5), wrong)

    def test_objective_cannot_modify_positions(self):
        def shifts_in_place(x):
            x += 1.0
            return sphere(x)

        with pytest.raises(ValueError, match="read-only"):
            initialize(make_config(), shifts_in_place)


def oracle_initialize(config, objective):
    """Independent re-derivation of ``initialize`` from the stated rules."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n, d = config.population, config.dims
    lower = np.asarray(config.lower_bound)
    upper = np.asarray(config.upper_bound)
    positions = lower + rng.random((n, d)) * (upper - lower)
    fits = np.array([objective(x) for x in positions])
    return engine.SwarmState(
        positions=positions, velocities=np.zeros((n, d)), fitnesses=fits, iteration=0, rng=rng
    )


def oracle_step(state, config):
    """Independent re-derivation of one step from ``state`` by the stated rules.

    Derives the min-max masses from the state's fitnesses and
    G = g0 * exp(-alpha * t / T) at the state's iteration t, draws one
    uniform at a time from a copy of the state's generator, in the
    documented order (the weights for i ascending and each member j != i,
    then the velocity coefficients), takes the forces from
    ``naive_forces`` and leaves ``state`` untouched. Returns the clipped
    positions, the velocities and the copied generator.
    """
    rng = copy.deepcopy(state.rng)
    n, d = state.positions.shape
    positions, fits = state.positions, state.fitnesses
    best, worst = fits.min(), fits.max()
    if best == worst:
        masses = np.full(n, 1.0 / n)
    else:
        raw = (worst - fits) / (worst - best)
        masses = raw / raw.sum()
    g = config.g0 * math.exp(-config.alpha * state.iteration / config.max_iters)
    lower = np.asarray(config.lower_bound)
    upper = np.asarray(config.upper_bound)

    if config.max_iters <= 1:
        k = n
    else:
        span = state.iteration / (config.max_iters - 1)
        k = min(max(math.floor(n + (1 - n) * span + 0.5), 1), n)
    members = sorted(sorted(range(n), key=lambda i: (state.fitnesses[i], i))[:k])

    weights = np.zeros((n, k))
    for i in range(n):
        for c, j in enumerate(members):
            if j != i:
                weights[i, c] = rng.random()
    accel = naive_forces(positions, masses, g, config.kernel, members, weights)
    accel /= (masses + 1e-12)[:, None]

    new_positions = np.empty((n, d))
    velocities = np.empty((n, d))
    for i in range(n):
        for c in range(d):
            coeff = rng.random()
            v = coeff * state.velocities[i, c] + accel[i, c]
            moved = positions[i, c] + v
            clipped = min(max(moved, lower[c]), upper[c])
            new_positions[i, c] = clipped
            velocities[i, c] = 0.0 if clipped != moved else v
    return new_positions, velocities, rng


class TestStep:
    def test_matches_scripted_oracle_stochastic(self):
        config = make_config(population=5, dims=2, seed=77)
        state = step(initialize(config, sphere), config, sphere)
        expected_pos, expected_vel, _ = oracle_step(oracle_initialize(config, sphere), config)
        np.testing.assert_allclose(state.positions, expected_pos, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(state.velocities, expected_vel, rtol=1e-12, atol=1e-12)
        assert state.iteration == 1

    def test_matches_scripted_oracle_deterministic(self, unit_draws):
        config = make_config(population=6, dims=3, seed=5)
        state = step(replace(initialize(config, sphere), rng=unit_draws), config, sphere)
        expected_pos, expected_vel, _ = oracle_step(
            replace(oracle_initialize(config, sphere), rng=unit_draws), config)
        np.testing.assert_allclose(state.positions, expected_pos, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(state.velocities, expected_vel, rtol=1e-12, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 12),
        d=st.integers(1, 5),
        q=st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 3.0),
        epsilon=st.sampled_from([0.0, 1e-12]) | st.floats(1e-9, 1.0),
        deterministic=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        g0=st.floats(1e-2, 1e2),
        alpha=st.sampled_from([0.0, 20.0]) | st.floats(0.0, 50.0),
    )
    def test_matches_scalar_oracle_from_any_state(
        self, unit_draws, n, d, q, epsilon, deterministic, seed, g0, alpha
    ):
        config = make_config(
            population=n,
            dims=d,
            kernel=KernelSpec(q, epsilon),
            g0=g0,
            alpha=alpha,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        lower, upper = config.lower_bound, config.upper_bound
        positions = rng.uniform(lower, upper, (n, d))
        velocities = rng.normal(0.0, 2.0, (n, d))
        # About a third of the components sit on a bound and move outward,
        # so the step clips them; in one dimension agents on the same bound
        # coincide.
        edge = rng.random((n, d)) < 0.3
        side = np.where(rng.random((n, d)) < 0.5, lower, upper)
        positions[edge] = side[edge]
        velocities[edge] = np.sign(side[edge]) * rng.uniform(0.5, 2.0, np.count_nonzero(edge))
        state = engine.SwarmState(
            positions=positions,
            velocities=velocities,
            fitnesses=sphere(positions),
            iteration=int(rng.integers(0, config.max_iters)),
            rng=unit_draws if deterministic else engine.make_rng(seed),
        )
        expected_pos, expected_vel, expected_rng = oracle_step(state, config)
        got = step(state, config, sphere)
        scale = max(1.0, float(np.max(np.abs(expected_vel))))
        np.testing.assert_allclose(got.positions, expected_pos, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(got.velocities, expected_vel, rtol=1e-12, atol=1e-12 * scale)
        if not deterministic:
            assert got.rng.bit_generator.state == expected_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 30),
        d=st.integers(1, 4),
        iteration=st.integers(0, 59),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_weight_draw_order(self, n, d, iteration, seed):
        # 60 iterations, at most 30 agents: the run's iterations reach every
        # Kbest size from n down to 1
        config = make_config(population=n, dims=d, max_iters=60, seed=seed)
        state = replace(initialize(config, sphere), iteration=iteration)
        k = kbest_size(iteration, config.max_iters, n)
        fits = state.fitnesses
        members = sorted(sorted(range(n), key=lambda i: (fits[i], i))[:k])
        naive = np.random.Generator(np.random.PCG64())
        naive.bit_generator.state = state.rng.bit_generator.state
        expected = np.ones((n, k))
        for i in range(n):
            for c, j in enumerate(members):
                if j != i:
                    expected[i, c] = naive.random()
        for _ in range(n * d):
            naive.random()

        captured = {}

        def capture(positions, masses, g, kernel, kbest, weights):
            captured["kbest"] = kbest.copy()
            captured["weights"] = weights.copy()
            return np.zeros_like(positions)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "forces", capture)
            after = step(state, config, sphere)
        assert captured["kbest"].tolist() == members
        assert np.array_equal(captured["weights"], expected)
        assert after.rng.bit_generator.state == naive.bit_generator.state

    def test_equilateral_triangle_symmetry(self):
        # equal masses at the vertices: forces point at the centroid and the
        # acceleration field preserves it
        config = make_config(population=3, dims=2)
        positions = np.array(
            [[0.0, 1.0], [math.sqrt(3.0) / 2.0, -0.5], [-math.sqrt(3.0) / 2.0, -0.5]]
        )
        masses = compute_masses([1.0, 1.0, 1.0])
        centroid = positions.mean(axis=0)
        accel_sum = np.zeros(2)
        for i, force in enumerate(forces(positions, masses, 1.0, config.kernel, np.arange(3),
                                         np.ones((3, 3)))):
            to_centroid = centroid - positions[i]
            norm_f = np.linalg.norm(force)
            norm_c = np.linalg.norm(to_centroid)
            assert float(np.dot(force, to_centroid)) > 0.0
            assert float(np.dot(force, to_centroid)) == pytest.approx(
                norm_f * norm_c, rel=1e-9
            )
            accel_sum += force / (masses[i] + engine.MASS_SOFTENING)
        np.testing.assert_allclose(accel_sum, np.zeros(2), atol=1e-9)

    def test_negligible_g_freezes_positions(self, unit_draws):
        config = make_config(population=6, dims=3, g0=1e-300, alpha=0.0)
        state = replace(initialize(config, sphere), rng=unit_draws)
        before = state.positions.copy()
        after = step(state, config, sphere)
        np.testing.assert_allclose(after.positions, before, rtol=0.0, atol=1e-12)

    def test_step_past_budget_rejected(self):
        config = make_config(max_iters=1)
        state = step(initialize(config, sphere), config, sphere)
        with pytest.raises(ValueError):
            step(state, config, sphere)

    def test_divergence_names_iteration(self, monkeypatch):
        config = make_config(max_iters=10)
        state = step(initialize(config, sphere), config, sphere)
        for value in (math.inf, math.nan):
            monkeypatch.setattr(engine, "forces",
                                lambda positions, *_: np.full_like(positions, value))
            with pytest.raises(NumericError, match="at iteration 2;"):
                step(state, config, sphere)

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_nan_velocity_diverges(self, deterministic, unit_draws):
        config = make_config(max_iters=10)
        state = initialize(config, sphere)
        if deterministic:
            state = replace(state, rng=unit_draws)
        state = step(state, config, sphere)
        velocities = state.velocities.copy()
        velocities[2, 1] = math.nan
        with pytest.raises(NumericError, match="at iteration 2;"):
            step(replace(state, velocities=velocities), config, sphere)

    def test_mass_normalization_every_step(self, monkeypatch):
        # step hands forces the masses of the fitnesses it was given and
        # G at the iteration it starts from
        config = make_config(population=8, dims=4, max_iters=20)
        seen = []

        def recording(positions, masses, g, kernel, kbest, weights):
            seen.append((masses.copy(), g))
            return forces(positions, masses, g, kernel, kbest, weights)

        monkeypatch.setattr(engine, "forces", recording)
        state = initialize(config, sphere)
        for t in range(20):
            fitnesses = state.fitnesses
            state = step(state, config, sphere)
            masses, g = seen[t]
            assert np.array_equal(masses, compute_masses(fitnesses))
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert g == config.g0 * math.exp(-config.alpha * t / config.max_iters)


class TestRun:
    def test_single_iteration_trace(self):
        trace = run(make_config(max_iters=1), sphere)
        assert trace.best_so_far.shape == (1,)

    def test_trace_length_and_monotone_best(self):
        trace = run(make_config(max_iters=25), sphere)
        for column in (trace.best_so_far, trace.population_best, trace.population_mean):
            assert column.shape == (25,)
        assert np.all(np.diff(trace.best_so_far) <= 0.0)
        assert np.all(trace.best_so_far <= trace.population_best)
        assert np.all(trace.population_best <= trace.population_mean)

    def test_bit_identical_repeat(self):
        config = make_config(population=10, dims=4, max_iters=30)
        t1 = run(config, sphere)
        t2 = run(config, sphere)
        assert np.array_equal(t1.best_so_far, t2.best_so_far)
        assert np.array_equal(t1.population_best, t2.population_best)
        assert np.array_equal(t1.population_mean, t2.population_mean)
        assert np.array_equal(t1.final_best_position, t2.final_best_position)

    def test_bounds_containment_every_step(self):
        config = make_config(population=8, dims=3, max_iters=40, g0=1e4)
        state = initialize(config, sphere)
        for _ in range(40):
            state = step(state, config, sphere)
            assert np.all(state.positions >= config.lower_bound)
            assert np.all(state.positions <= config.upper_bound)

    def test_sphere_improves(self):
        config = make_config(population=20, dims=5, max_iters=200, seed=3)
        initial_best = initialize(config, sphere).fitnesses.min()
        trace = run(config, sphere)
        assert trace.final_best < initial_best

    def test_zero_forces_freeze_swarm(self, monkeypatch):
        # kernel interchangeability: forcing zero forces must freeze the
        # positions without touching any other control flow
        def zero_forces(positions, masses, g, kernel, kbest, weights):
            return np.zeros_like(positions)

        monkeypatch.setattr(engine, "forces", zero_forces)
        config = make_config(population=6, dims=3, max_iters=5)
        start = initialize(config, sphere)
        state = start
        for _ in range(5):
            state = step(state, config, sphere)
            assert np.array_equal(state.positions, start.positions)

    def test_best_so_far_is_running_minimum(self):
        config = make_config(population=10, dims=4, max_iters=60, seed=8)
        trace = run(config, sphere)
        initial_best = initialize(config, sphere).fitnesses.min()
        running = np.minimum.accumulate(np.concatenate([[initial_best], trace.population_best]))
        assert np.array_equal(trace.best_so_far, running[1:])
        assert sphere(trace.final_best_position) == trace.final_best

    def test_unbeaten_initial_best_is_kept(self, monkeypatch):
        # with zero forces the swarm never moves, so no step beats the start
        monkeypatch.setattr(engine, "forces", lambda positions, *_: np.zeros_like(positions))
        config = make_config(population=6, dims=3, max_iters=5)
        start = initialize(config, sphere)
        best = int(start.fitnesses.argmin())
        trace = run(config, sphere)
        assert np.array_equal(trace.best_so_far, np.full(5, start.fitnesses[best]))
        assert np.array_equal(trace.population_best, trace.best_so_far)
        assert np.array_equal(trace.final_best_position, start.positions[best])
