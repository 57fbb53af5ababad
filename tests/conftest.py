"""The unit-coefficient oracle: a stand-in for the run generator.

``step`` draws its force weights and velocity coefficients only through
``state.rng.random``. A generator whose every draw is 1 therefore runs
the published update with unit coefficients, v_{t+1} = v_t + a_t, which
makes single-step and run-level comparisons exact. It is not a search:
nothing damps the velocity.
"""

import numpy as np
import pytest

import gravopt.engine as engine

_seeded_rng = engine.make_rng


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
