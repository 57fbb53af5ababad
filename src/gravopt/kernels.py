"""The force law, evaluated for a whole swarm, and the log-log exponent probe.

Every kernel in the family computes the force exerted on agent i by
agent j, per dimension d, as

    f_d = G * m_i * m_j / (R**(q+1) + epsilon) * (x_j_d - x_i_d)

where R is the Euclidean distance between the agents and q >= 0 is the
kernel exponent. With epsilon = 0 the force magnitude reduces to
G * m_i * m_j / R**q:

* q = 0 (``original``): the classic GSA rule. The R in the denominator
  cancels the length of the un-normalized difference vector, so the
  magnitude is G * m_i * m_j regardless of distance.
* q = 1 (``linear``): denominator R**2, magnitude proportional to 1/R.
* q = 2 (``square``): denominator R**3, magnitude proportional to 1/R**2,
  i.e. a genuine inverse-square law.

``forces`` is the one function that evaluates this law: it sums the
weighted pairwise forces from the Kbest set on every agent at once, as
the GSA update does. Only the k Kbest members exert force, so it takes
an (n, k) weight matrix whose column c belongs to member kbest[c] and
builds differences against those k columns alone, never all n * n
pairs. The engine's step and ``probe_exponent`` call it.
``probe_exponent`` measures a kernel's effective distance exponent
empirically by fitting log magnitude against log distance.

Row blocks and parts. Each call walks its agents in row blocks, sized so
that the blocks in flight hold at most ``CHUNK_ELEMENTS`` (agent,
member, dimension) differences together (one row when a row holds more),
so they do not grow with the population. A call above that budget splits
over parts: one per usable core (``usable_cores``), or in each of
``run_grid``'s W workers its share, ``usable_cores() // W``, which
``share_cores`` sets. Each block is filled contiguously: every (k, d) row
is set to its agent's position, then subtracted from the Kbest positions
in place, so the subtraction runs over k * d contiguous elements; each
difference is still the one IEEE subtraction x_j - x_i.

The calling thread runs one part; the others are tasks on one thread
pool of ``usable_cores() - 1`` threads at most (one on a single core),
started at the first split call and kept for the process. Every part
takes the call's next block from one locked source until none is left,
so a part that starts late or runs slow takes fewer. numpy releases the
interpreter lock inside its array calls, so the parts run in parallel.
Each part writes through its own buffer into one output, all allocated
by the calling thread, since buffers made on worker threads land in
per-thread heaps and raise peak memory. The tasks run in copies of the
caller's context, which carries its errstate. A call returns, or raises,
only once every task it started has ended. A forked child inherits none
of the pool's threads, so it drops the pool and starts its own. Every
row goes through the same arithmetic whatever the blocks and parts, so
the result is the same bit for bit; a small call, such as every step of
a 50-agent run, is one part and uses no thread.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent import futures  # its thread module loads at the first split call
from typing import Sequence

import numpy as np

from .core import KernelSpec, ProbeReport

#: Row-block budget of one ``forces`` call, in (agent, Kbest member,
#: dimension) differences, shared by all its parts: 8 MiB of float64.
CHUNK_ELEMENTS = 1 << 20

#: Most parts one ``forces`` call splits into; None means one per usable
#: core. Only ``share_cores`` sets it.
_share: int | None = None

#: 25 logarithmically spaced probe distances spanning nine decades.
DEFAULT_PROBE_DISTANCES: tuple[float, ...] = tuple(np.geomspace(1e-3, 1e6, 25))


_pool: futures.ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _thread_pool() -> futures.ThreadPoolExecutor:
    """The force threads, started at the first split call and kept. The
    calling thread runs a part itself, so one core is left for it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = futures.ThreadPoolExecutor(max(1, usable_cores() - 1))
        return _pool


def _drop_pool() -> None:
    """In a forked child: the parent's force threads do not exist here."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


class ForceOverflowError(ArithmeticError):
    """A force evaluation produced a non-finite component."""


def usable_cores() -> int:
    """Number of CPUs this process may run on, at least 1.

    Read from the process's affinity mask where the platform has one, so
    ``taskset`` and cgroup CPU sets are respected; ``os.cpu_count()``
    counts every CPU of the machine.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def share_cores(workers: int) -> None:
    """Pool initializer of ``run_grid``'s ``workers`` processes: each one's
    calls split into at most its share of the cores, at least one part."""
    global _share
    _share = max(1, usable_cores() // workers)


def forces(
    positions: np.ndarray,
    masses: np.ndarray,
    g: float,
    kernel: KernelSpec,
    kbest: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Total force on every agent from the Kbest agents, shape (n, d).

    Row i is the sum over c of weights[i, c] times the kernel force on
    agent i from agent kbest[c], taken in the order of ``kbest``.
    ``positions`` is (n, d), ``masses`` (n,), ``kbest`` (k,) agent
    indices and ``weights`` (n, k). Self-pairs, coincident agents and
    zero-mass pairs exert no force on each other; the pairwise terms are
    exactly antisymmetric and always point from i toward j. The rows run
    in row blocks and parts as the module docstring describes, with
    bit-identical results. Callers validate their inputs.
    """
    sources = positions[kbest]
    source_masses = masses[kbest]
    k, d = sources.shape
    n = positions.shape[0]
    width = max(k * d, 1)
    parts = min(_share or usable_cores(), n) if n * width > CHUNK_ELEMENTS else 1
    rows = max(1, CHUNK_ELEMENTS // (parts * width))
    power = kernel.exponent + 1.0
    total = np.empty(positions.shape)
    starts = iter(range(0, n, rows))
    starts_lock = threading.Lock()

    def accumulate(buffer: np.ndarray) -> None:
        """Write into ``total`` the forces on the blocks this part takes,
        one at a time through ``buffer`` (see the module docstring)."""
        while True:
            with starts_lock:
                start = next(starts, None)
            if start is None:
                return
            stop = min(start + rows, n)
            diff = buffer[: stop - start]
            # diff[i, c] = x_kbest[c] - x_i: fill every row with x_i, then
            # subtract it from the sources over contiguous runs of k * d.
            np.copyto(diff, positions[start:stop, None, :])
            np.subtract(sources, diff, out=diff)
            r = np.einsum("icd,icd->ic", diff, diff)
            np.sqrt(r, out=r)
            # Grouping the mass product makes it exactly symmetric, so
            # pairwise forces are exactly antisymmetric.
            num = masses[start:stop, None] * source_masses
            num *= g
            with np.errstate(divide="ignore", invalid="ignore"):
                coeff = num / (r ** power + kernel.epsilon)
            coeff[(r == 0.0) | (num == 0.0)] = 0.0
            coeff *= weights[start:stop]
            np.einsum("ic,icd->id", coeff, diff, out=total[start:stop])

    buffers = [np.empty((min(rows, n), k, d)) for _ in range(parts)]
    tasks = [_thread_pool().submit(contextvars.copy_context().run, accumulate, buffer)
             for buffer in buffers[1:]]
    try:
        accumulate(buffers[0])
    finally:
        # A task no thread has started would find no block left, or the
        # call has failed: cancel it. Wait for the others, so no block of
        # this call runs after it returns, even when a part raised.
        started = [task for task in tasks if not task.cancel()]
        if started:
            futures.wait(started)
    for task in started:
        task.result()
    if not np.isfinite(total).all():
        # R below the underflow scale of R**(q+1) with epsilon = 0
        raise ForceOverflowError("force overflow; increase epsilon")
    return total


def probe_exponent(
    kernel: KernelSpec,
    g: float,
    r_values: Sequence[float] = DEFAULT_PROBE_DISTANCES,
) -> ProbeReport:
    """Empirically fit the kernel's force-magnitude distance exponent.

    Places one unit-mass agent at the origin and another at distance r on
    one axis for every r in r_values (magnitudes are rotation-invariant,
    so a 1-D swarm suffices), evaluates the force each of them feels from
    the origin agent in one ``forces`` call, then fits log magnitude
    against log distance by ordinary least squares. Each magnitude is |f|
    of the pull's one component, so it is finite whenever the force is;
    overflows that leave no non-finite force are silenced as in ``run``.
    For an exact power law with epsilon = 0 the fitted slope is -q and the
    intercept ln G, to floating-point noise.
    """
    rs = np.asarray(r_values, dtype=float)
    if rs.ndim != 1 or np.unique(rs).size < 2:
        raise ValueError("r_values needs at least two distinct entries")
    if not np.all(np.isfinite(rs)) or np.any(rs <= 0.0):
        raise ValueError("all probe distances must be finite and > 0")
    g = float(g)
    if not math.isfinite(g) or g <= 0.0:
        raise ValueError(f"G must be finite and > 0, got {g}")

    # Agent 0 at the origin is the only force source; agent k sits at
    # distance rs[k-1] and feels the force from it.
    n = rs.size + 1
    positions = np.zeros((n, 1))
    positions[1:, 0] = rs
    with np.errstate(over="ignore"):
        pulls = forces(positions, np.ones(n), g, kernel, np.array([0]), np.ones((n, 1)))
    magnitudes = np.abs(pulls[1:, 0])
    if np.any(magnitudes == 0.0):
        raise ValueError("zero force magnitude encountered during probe")

    log_r = np.log(rs)
    log_m = np.log(magnitudes)
    slope, intercept = np.polyfit(log_r, log_m, 1)
    residuals = log_m - (slope * log_r + intercept)
    return ProbeReport(
        samples=tuple(zip(rs.tolist(), magnitudes.tolist())),
        fitted_slope=float(slope),
        fitted_intercept=float(intercept),
        max_residual=float(np.max(np.abs(residuals))),
    )
