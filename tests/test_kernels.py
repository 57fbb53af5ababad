import math
import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import count_thread_parts, magnitude, naive_forces, pair_forces
from hypothesis import given, settings, strategies as st

import gravopt.kernels as kernels
from gravopt import (
    ConfigError,
    ExperimentPlan,
    GsaConfig,
    KernelSpec,
    NumericError,
    forces,
    make_objective,
    probe_exponent,
    run_grid,
)
from gravopt.core import KERNEL_NAMES
from gravopt.engine import compute_masses, initialize
from gravopt.objectives import sphere

ALL_KERNELS_EPS0 = [KernelSpec(q, 0.0) for q in KERNEL_NAMES.values()]


def coincident_member_swarm(dims):
    """(positions, masses, kbest, weights) of 10 agents, 3 of them Kbest
    members, where non-member 5 coincides with member 3."""
    rng = np.random.Generator(np.random.PCG64(21))
    positions = rng.uniform(-10.0, 10.0, (10, dims))
    positions[5] = positions[3]
    masses = rng.random(10)
    return positions, masses, np.array([2, 3, 7]), rng.random((10, 3))


def split_in_fresh_child():
    """Run in a forked child: whether it started without a force pool, and
    the threads it runs after one split call of ``coincident_member_swarm``."""
    had_pool = kernels._pool is not None
    swarm = coincident_member_swarm(3)
    forces(swarm[0], swarm[1], 3.0, KernelSpec(2.0), *swarm[2:])
    return had_pool, threading.active_count()


def random_pair(rng, dims, mass_range=(1e-3, 1e3), r_range=(1e-6, 1e6)):
    """(x_i, x_j, m_i, m_j) at a log-uniform random distance along a random direction."""
    m_i = 10.0 ** rng.uniform(np.log10(mass_range[0]), np.log10(mass_range[1]))
    m_j = 10.0 ** rng.uniform(np.log10(mass_range[0]), np.log10(mass_range[1]))
    r = 10.0 ** rng.uniform(np.log10(r_range[0]), np.log10(r_range[1]))
    direction = rng.normal(size=dims)
    direction /= math.sqrt(float(np.dot(direction, direction)))
    x_i = rng.uniform(-1.0, 1.0, dims)
    return x_i, x_i + r * direction, m_i, m_j


class TestDistance:
    """The distance R the force law measures, read off the inverse-linear
    kernel at unit G and masses, where the magnitude is 1/R."""

    def test_coincident_points(self):
        f = pair_forces(KernelSpec(1.0, 0.0), 1.0, [0.0, 0.0], [0.0, 0.0])
        assert np.array_equal(f, np.zeros((2, 2)))

    def test_three_four_five(self):
        mag = magnitude(KernelSpec(1.0, 0.0), 1.0, [0.0, 0.0], [3.0, 4.0])
        assert 1.0 / mag == pytest.approx(5.0, rel=1e-15)

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_symmetry(self, a, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        b = rng.uniform(-1e6, 1e6, len(a))
        f = pair_forces(KernelSpec(1.0, 0.0), 1.0, a, b)
        assert np.linalg.norm(f[0]) == np.linalg.norm(f[1])


class TestPairwiseForce:
    @pytest.mark.parametrize(
        "kernel", ALL_KERNELS_EPS0 + [KernelSpec(q) for q in KERNEL_NAMES.values()])
    def test_zero_mass_annihilates(self, kernel):
        f = pair_forces(kernel, 2.0, [0.0, 0.0], [3.0, 4.0], 0.0, 4.0)
        assert np.array_equal(f, np.zeros((2, 2)))
        # at R = 1e-150 with epsilon 0, R**3 underflows to 0: the zero-mass
        # pair's 0 / 0 raises, as test_overflow_raises does at unit masses,
        # while R, R**2 and every denominator with epsilon > 0 stay positive
        # and give exact zeros
        far = [1e-150, 0.0]
        if kernel.epsilon == 0.0 and kernel.exponent > 1.0:
            with pytest.raises(NumericError, match="increase epsilon"):
                pair_forces(kernel, 2.0, [0.0, 0.0], far, 0.0, 4.0)
        else:
            f = pair_forces(kernel, 2.0, [0.0, 0.0], far, 0.0, 4.0)
            assert np.array_equal(f, np.zeros((2, 2)))

    def test_original_kernel_hand_value(self):
        # independent evaluation: R = 5, coeff = 2*3*4/5 = 4.8, f = 4.8*(3, 4)
        kernel = KernelSpec(0.0, 0.0)
        f = pair_forces(kernel, 2.0, [0.0, 0.0], [3.0, 4.0], 3.0, 4.0)[0]
        assert f == pytest.approx([14.4, 19.2], rel=1e-15)
        assert magnitude(kernel, 2.0, [0.0, 0.0], [3.0, 4.0], 3.0, 4.0) == pytest.approx(24.0, rel=1e-13)

    def test_unit_distance_coincidence(self):
        # 1**q = 1 for every q: all kernels agree at R = 1
        a = np.array([0.2, -0.3])
        b = a + np.array([0.6, 0.8])
        reference = pair_forces(ALL_KERNELS_EPS0[0], 1.5, a, b, 2.0, 3.0)
        for kernel in ALL_KERNELS_EPS0[1:]:
            np.testing.assert_allclose(
                pair_forces(kernel, 1.5, a, b, 2.0, 3.0), reference, rtol=1e-12
            )

    def test_inverse_square_hand_value(self):
        # independent evaluation: R = 5, R**3 = 125, coeff = 24/125 = 0.192
        kernel = KernelSpec(2.0, 0.0)
        f = pair_forces(kernel, 2.0, [0.0, 0.0], [3.0, 4.0], 3.0, 4.0)[0]
        assert f == pytest.approx([0.576, 0.768], rel=1e-14)
        assert magnitude(kernel, 2.0, [0.0, 0.0], [3.0, 4.0], 3.0, 4.0) == pytest.approx(0.96, rel=1e-13)

    def test_overflow_raises(self):
        # R**3 underflows to zero for R = 1e-150, epsilon = 0 (any smaller
        # R underflows inside the norm itself and hits the coincident rule)
        kernel = KernelSpec(2.0, 0.0)
        with pytest.raises(NumericError, match="increase epsilon"):
            pair_forces(kernel, 1.0, [0.0], [1e-150])


class TestProbeExponent:
    def test_inverse_square_matches_closed_form(self):
        g, q = 3.0, 2.0
        rs = np.geomspace(0.1, 1e4, 12)
        report = probe_exponent(KernelSpec(q, 0.0), g, rs)
        assert report.fitted_slope == pytest.approx(-q, abs=1e-9)
        # samples must match the closed-form magnitude G/R**q at unit masses
        for r, magnitude in report.samples:
            assert magnitude == pytest.approx(g / r**q, rel=1e-12)

    def test_intercept_is_log_gmm(self):
        report = probe_exponent(KernelSpec(0.0, 0.0), 100.0)
        assert report.fitted_intercept == pytest.approx(math.log(100.0), abs=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ConfigError, match="all probe distances must be finite and > 0"):
            probe_exponent(KernelSpec(0.0, 0.0), 1.0, [0.0, 1.0])

    def test_needs_two_distinct_distances(self):
        with pytest.raises(ConfigError, match="r_values needs at least two distinct entries"):
            probe_exponent(KernelSpec(0.0, 0.0), 1.0, [2.0, 2.0])

    @pytest.mark.parametrize("g, r_values, message", [
        ("abc", None, "G must be numeric, got 'abc'"),
        (1.0, {"r": 1.0}, r"r_values must be numeric, got \{'r': 1.0\}"),
        (1.0, ["a", "b"], r"r_values must be numeric, got \['a', 'b'\]"),
    ])
    def test_non_numeric_input_rejected(self, g, r_values, message):
        with pytest.raises(ConfigError, match=message):
            probe_exponent(KernelSpec(0.0, 0.0), g, r_values)


class TestInvariants:
    @pytest.mark.parametrize("q", KERNEL_NAMES.values())
    def test_unit_vector_form(self, q):
        # f equals [G*m_i*m_j/R**q] times the unit vector from i to j
        kernel = KernelSpec(q, 0.0)
        rng = np.random.Generator(np.random.PCG64(505))
        for _ in range(100):
            dims = int(rng.integers(1, 10))
            x_i, x_j, m_i, m_j = random_pair(rng, dims, r_range=(1e-3, 1e3))
            g = 2.0
            delta = x_j - x_i
            r = math.sqrt(float(np.dot(delta, delta)))
            expected = (g * m_i * m_j / r**q) * (delta / r)
            f = pair_forces(kernel, g, x_i, x_j, m_i, m_j)[0]
            np.testing.assert_allclose(f, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("q", KERNEL_NAMES.values())
    def test_epsilon_continuity(self, q):
        pair = ([0.1, -0.4], [1.3, 0.9], 2.0, 5.0)
        exact = pair_forces(KernelSpec(q, 0.0), 3.0, *pair)[0]
        deviations = []
        for eps in (1e-6, 1e-9, 1e-12):
            f = pair_forces(KernelSpec(q, eps), 3.0, *pair)[0]
            deviations.append(float(np.max(np.abs(f - exact))))
        assert deviations[0] >= deviations[1] >= deviations[2]
        assert deviations[2] <= 1e-11 * float(np.max(np.abs(exact)))

    def test_magnitude_rotation_invariant_2d(self):
        rng = np.random.Generator(np.random.PCG64(606))
        for kernel in ALL_KERNELS_EPS0:
            for _ in range(25):
                x_i = rng.uniform(-3.0, 3.0, 2)
                x_j = rng.uniform(-3.0, 3.0, 2)
                theta = rng.uniform(0.0, 2.0 * np.pi)
                rot = np.array(
                    [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
                )
                base = magnitude(kernel, 2.0, x_i, x_j, 2.0, 3.0)
                rotated = magnitude(kernel, 2.0, rot @ x_i, rot @ x_j, 2.0, 3.0)
                assert rotated == pytest.approx(base, rel=1e-12)


class TestTotalForce:
    def test_global_force_balance(self):
        # forces from the whole swarm with unit weights, at the start of a
        # sphere run in the box +/-5 with seed 12345
        box = np.full(3, 5.0)
        state = initialize(GsaConfig(12, 3, -box, box, KernelSpec(0.0), seed=12345), sphere)
        masses = compute_masses(state.fitnesses)
        total = forces(state.positions, masses, 100.0, KernelSpec(0.0), np.arange(12),
                       np.ones((12, 12))).sum(axis=0)
        np.testing.assert_allclose(total, np.zeros(3), atol=1e-9)


class TestForces:
    @given(
        n=st.integers(2, 8),
        dims=st.integers(1, 5),
        q=st.sampled_from(list(KERNEL_NAMES.values())),
        epsilon=st.one_of(st.just(0.0), st.just(1e-12), st.floats(1e-15, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_double_loop(self, n, dims, q, epsilon, seed):
        # Kbest mask, weights, a coincident pair and a zero mass, the
        # min-max mass of the worst agent, together against the oracle
        rng = np.random.Generator(np.random.PCG64(seed))
        positions = rng.uniform(-10.0, 10.0, (n, dims))
        a, b = rng.choice(n, 2, replace=False)
        positions[b] = positions[a]
        masses = rng.random(n)
        masses[rng.integers(n)] = 0.0
        g = 10.0 ** rng.uniform(-3.0, 3.0)
        kbest = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        weights = rng.random((n, kbest.size))
        swarm = (positions, masses, g, KernelSpec(q, epsilon), kbest, weights)
        got, expected = forces(*swarm), naive_forces(*swarm)
        scale = float(np.max(np.abs(expected))) or 1.0
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("kernel", ALL_KERNELS_EPS0, ids=lambda k: k.name)
    @pytest.mark.parametrize("chunk", [1, 9, 18, 27, 50])
    @pytest.mark.parametrize("dims", [1, 3])
    def test_row_blocks_match_one_block(self, monkeypatch, kernel, chunk, dims):
        # with 3 dims k * d = 9, so blocks hold 1, 1, 2, 3 and 5 rows; with
        # 3 rows member 2 ends the first block and member 3 starts the second
        monkeypatch.setattr(kernels, "usable_cores", lambda: 1)
        swarm = coincident_member_swarm(dims)
        whole = forces(swarm[0], swarm[1], 3.0, kernel, *swarm[2:])
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", chunk)
        assert np.array_equal(forces(swarm[0], swarm[1], 3.0, kernel, *swarm[2:]), whole)
        assert np.all(whole[5] != 0.0) and np.all(np.isfinite(whole))

    @pytest.mark.parametrize("kernel", ALL_KERNELS_EPS0, ids=lambda k: k.name)
    @pytest.mark.parametrize("chunk", [1, 9, 27])
    @pytest.mark.parametrize("dims", [1, 3])
    @pytest.mark.parametrize("cores", [2, 3])
    def test_parts_on_threads_match_one_block(self, monkeypatch, kernel, chunk, dims, cores):
        # 10 rows split into parts of 5 + 5 or 3 + 3 + 4 rows, each part
        # walking its own row blocks; every call here holds more than one
        # block, so every call splits
        swarm = coincident_member_swarm(dims)
        whole = forces(swarm[0], swarm[1], 3.0, kernel, *swarm[2:])
        submitted = count_thread_parts(monkeypatch, cores)
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", chunk)
        assert np.array_equal(forces(swarm[0], swarm[1], 3.0, kernel, *swarm[2:]), whole)
        assert len(submitted) == cores - 1

    def test_one_block_runs_inline(self, monkeypatch):
        submitted = count_thread_parts(monkeypatch, 4)
        swarm = coincident_member_swarm(3)
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", 10 * 3 * 3)
        forces(swarm[0], swarm[1], 3.0, KernelSpec(2.0), *swarm[2:])
        assert submitted == []

    @pytest.mark.parametrize("cores", [2, 3])
    def test_split_calls_reuse_the_pool(self, monkeypatch, cores):
        # The first split call starts the pool; later calls reuse its
        # threads, and it never runs more than one per core but the
        # caller's. Held-back tasks make the first call start every
        # thread it submits to, rather than reuse one that ended early.
        submitted = count_thread_parts(monkeypatch, cores, worker_delay=0.01)
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", 16)
        swarm = coincident_member_swarm(3)
        before = set(threading.enumerate())
        forces(swarm[0], swarm[1], 3.0, KernelSpec(2.0), *swarm[2:])
        after_first = set(threading.enumerate())
        assert 1 <= len(after_first - before) <= cores - 1
        for _ in range(3):
            forces(swarm[0], swarm[1], 3.0, KernelSpec(2.0), *swarm[2:])
            assert threading.active_count() == len(after_first)
            assert set(threading.enumerate()) == after_first
        assert len(submitted) == 4 * (cores - 1)

    def test_failed_split_call_leaves_no_task_running(self, monkeypatch):
        # The caller's first block fails while the worker's task is still
        # held back; forces must wait for that task, which then takes the
        # blocks the caller left, before it raises.
        submitted = count_thread_parts(monkeypatch, 2, worker_delay=0.05)
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", 1)
        caller = threading.get_ident()
        copyto = np.copyto

        def copyto_failing_on_caller(*args, **kwargs):
            if threading.get_ident() == caller:
                raise MemoryError("caller's block")
            return copyto(*args, **kwargs)

        monkeypatch.setattr(kernels.np, "copyto", copyto_failing_on_caller)
        positions = np.zeros((40, 2))
        positions[:, 0] = np.arange(40.0)
        with pytest.raises(MemoryError, match="caller's block"):
            forces(positions, np.ones(40), 1.0, KernelSpec(2.0), np.array([1]),
                   np.ones((40, 1)))
        monkeypatch.setattr(kernels.np, "copyto", copyto)
        assert len(submitted) == 1 and all(task.done() for task in submitted)
        swarm = coincident_member_swarm(3)
        split = forces(swarm[0], swarm[1], 3.0, KernelSpec(2.0), *swarm[2:])
        assert len(submitted) == 2
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", 1 << 20)
        assert np.array_equal(split, forces(swarm[0], swarm[1], 3.0, KernelSpec(2.0), *swarm[2:]))

    def test_concurrent_split_calls_match_serial(self, monkeypatch):
        # Two user threads share the pool, each with its own swarms; a
        # block lost or taken twice would leave a row unwritten or wrong.
        swarms = [coincident_member_swarm(dims) for dims in (2, 3, 5, 7)]
        serial = [forces(s[0], s[1], 3.0, KernelSpec(2.0), *s[2:]) for s in swarms]
        submitted = count_thread_parts(monkeypatch, 2)
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", 1)
        results = {0: [], 1: []}

        def caller(index):
            for _ in range(25):
                for s in swarms[index::2]:
                    results[index].append(forces(s[0], s[1], 3.0, KernelSpec(2.0), *s[2:]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in (0, 1)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers), "split forces calls hung"
        for index in (0, 1):
            expected = serial[index::2] * 25
            assert len(results[index]) == len(expected)
            assert all(np.array_equal(got, want) for got, want in zip(results[index], expected))
        assert len(submitted) == 100

    def test_split_then_forked_grid_matches_serial(self, monkeypatch):
        # A split call leaves the pool's threads running when run_grid forks
        # its workers, which split their own calls too.
        submitted = count_thread_parts(monkeypatch, 2)
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", 16)
        swarm = coincident_member_swarm(3)
        forces(swarm[0], swarm[1], 3.0, KernelSpec(2.0), *swarm[2:])
        assert len(submitted) == 1
        base = GsaConfig(
            population=6,
            dims=3,
            lower_bound=np.full(3, -5.0),
            upper_bound=np.full(3, 5.0),
            kernel=KernelSpec(0.0),
            max_iters=4,
            seed=7,
        )
        plan = ExperimentPlan(
            base_config=base,
            kernels=(KernelSpec(0.0), KernelSpec(2.0)),
            objectives=(make_objective("sphere", 3), make_objective("rastrigin", 3)),
            repetitions=1,
        )
        # A hang is the failure this test guards against, so the grid runs
        # on a thread the test stops waiting for; killing the hung workers
        # then breaks the pool, which ends the thread.
        parallel = []
        grid = threading.Thread(target=lambda: parallel.extend(run_grid(plan, jobs=2)))
        grid.start()
        grid.join(timeout=120)
        if grid.is_alive():
            for worker in multiprocessing.active_children():
                worker.kill()
            grid.join(timeout=30)
            pytest.fail("run_grid(jobs=2) hung after a split forces call")
        serial = run_grid(plan, jobs=1)
        assert len(submitted) > 1  # the serial cells split as well
        assert [replace(row, wall_seconds=0.0) for row in parallel] == [
            replace(row, wall_seconds=0.0) for row in serial
        ]

    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # The parent's pool threads do not exist in a forked child, so the
        # child drops that pool and starts its own at its first split call.
        count_thread_parts(monkeypatch, 2)
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", 16)
        swarm = coincident_member_swarm(3)
        forces(swarm[0], swarm[1], 3.0, KernelSpec(2.0), *swarm[2:])
        assert kernels._pool is not None
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=fork) as child:
            assert child.submit(split_in_fresh_child).result(timeout=60) == (False, 2)

    @pytest.mark.parametrize("cores, chunk", [(1, kernels.CHUNK_ELEMENTS), (2, 1)])
    def test_caller_errstate_changes_nothing(self, monkeypatch, cores, chunk):
        # The self-pair divides 0 by 0 and only the last row has R**3
        # beyond the float range, so its force is 0. When split, the
        # pool's thread takes every block before the caller takes any.
        # No errstate of the caller's makes a part warn or raise.
        submitted = count_thread_parts(monkeypatch, cores, worker_first=True)
        monkeypatch.setattr(kernels, "CHUNK_ELEMENTS", chunk)
        positions = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0], [1e150, 1e150]])
        swarm = (positions, np.ones(4), 1.0, KernelSpec(2.0, 0.0), np.array([0]), np.ones((4, 1)))
        default = forces(*swarm)
        with np.errstate(all="raise"):
            raising = forces(*swarm)
        assert np.array_equal(raising, default) and np.all(np.isfinite(default))
        assert np.all(default[[0, 3]] == 0.0) and np.all(default[1:3] != 0.0)
        assert len(submitted) == 2 * (cores - 1)


class TestUsableCores:
    def test_without_affinity_counts_every_cpu(self, monkeypatch):
        # platforms without sched_getaffinity fall back to os.cpu_count(),
        # which returns None when the count is unknown
        monkeypatch.delattr(kernels.os, "sched_getaffinity")
        monkeypatch.setattr(kernels.os, "cpu_count", lambda: 3)
        assert kernels.usable_cores() == 3
        monkeypatch.setattr(kernels.os, "cpu_count", lambda: None)
        assert kernels.usable_cores() == 1
