"""The test oracles: the force law coded by hand, and unit draws; and a
counter of the thread parts ``forces`` splits into.

``naive_forces`` is the one hand-coded force law that ``forces`` and the
step are checked against; ``pair_forces`` and ``magnitude`` call
``forces`` on two agents.

``step`` draws its force weights and velocity coefficients only through
``state.rng.random``. A generator whose every draw is 1 therefore runs
the published update with unit coefficients, v_{t+1} = v_t + a_t, which
makes single-step and run-level comparisons exact. It is not a search:
nothing damps the velocity.
"""

import math
import time

import numpy as np
import pytest

import gravopt.engine as engine
import gravopt.kernels as kernels
from gravopt import forces

_seeded_rng = engine.make_rng


def naive_forces(positions, masses, g, kernel, kbest, weights):
    """``forces`` by a plain double loop over the kernel formula: row i sums
    weights[i, c] * G * (m_i * m_j) / (R**(q+1) + epsilon) * (x_j - x_i)
    over the members j = kbest[c], skipping j = i and coincident agents."""
    q, eps = kernel.exponent, kernel.epsilon
    total = np.zeros(positions.shape)
    for i in range(len(positions)):
        for c, j in enumerate(kbest):
            delta = positions[j] - positions[i]
            r = math.sqrt(float(np.sum(delta * delta)))
            if j == i or r == 0.0:
                continue
            total[i] += weights[i, c] * g * (masses[i] * masses[j]) / (r ** (q + 1.0) + eps) * delta
    return total


def pair_forces(kernel, g, x_i, x_j, m_i=1.0, m_j=1.0):
    """Row 0 is the force on i from j, row 1 the force on j from i."""
    masses = np.array([m_i, m_j], dtype=float)
    return forces(np.array([x_i, x_j], dtype=float), masses, g, kernel, np.arange(2), np.ones((2, 2)))


def magnitude(kernel, g, x_i, x_j, m_i=1.0, m_j=1.0):
    """Norm of the force on i from j."""
    return float(np.linalg.norm(pair_forces(kernel, g, x_i, x_j, m_i, m_j)[0]))


class UnitDraws:
    """Every uniform drawn is 1.0, shaped as ``Generator.random`` shapes it.

    Given a seed, the first draw, the one ``initialize`` makes for the
    positions, comes from that seed's run generator instead, so a run
    starts where the real search starts.
    """

    def __init__(self, seed=None):
        self._start = None if seed is None else _seeded_rng(seed)

    def random(self, size=None):
        if self._start is not None:
            start, self._start = self._start, None
            return start.random(size)
        return 1.0 if size is None else np.ones(size)


@pytest.fixture(scope="session")
def unit_draws():
    """A stand-in generator for ``SwarmState.rng``: every draw is 1."""
    return UnitDraws()


@pytest.fixture(scope="session")
def unit_run():
    """``run(config, objective)`` with initialize's seeded positions and
    every later draw 1."""

    def unit_run(config, objective):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "make_rng", UnitDraws)
            return engine.run(config, objective)

    return unit_run


#: The futures of the pull tasks ``forces`` submitted to the pools that
#: ``count_thread_parts`` made it start, and those pools. Each test's end
#: shuts the pools down and clears both, so no test sees another test's
#: threads. Module-level, so that a forked grid worker counts its own
#: tasks in its copy of the list.
thread_tasks = []
recording_pools = []


@pytest.fixture(autouse=True)
def shut_down_recording_pools():
    yield
    while recording_pools:
        recording_pools.pop().shutdown()
    thread_tasks.clear()


def count_thread_parts(monkeypatch, cores, worker_first=False, worker_delay=0.0):
    """Set the usable core count and start from no force pool; return
    ``thread_tasks``, the futures of the pull tasks ``forces`` submits to
    the pool it starts from then on. With ``worker_first``
    each submit returns only once its task has ended, so the pool's
    threads take every block; with ``worker_delay`` each task waits that
    many seconds before it takes its first block."""

    class RecordingPool(kernels.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            recording_pools.append(self)

        def submit(self, fn, *args):
            def task():
                time.sleep(worker_delay)
                return fn(*args)

            future = super().submit(task)
            thread_tasks.append(future)
            if worker_first:
                kernels.futures.wait([future])
            return future

    monkeypatch.setattr(kernels, "usable_cores", lambda: cores)
    monkeypatch.setattr(kernels, "_pool", None)
    monkeypatch.setattr(kernels.futures, "ThreadPoolExecutor", RecordingPool)
    return thread_tasks
