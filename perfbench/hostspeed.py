"""Host-speed correction for the benchmark's timings.

The benchmark runs on a shared virtual machine whose execution speed
drifts by 20-40% within minutes: another tenant's load slows the vCPU
itself, and process CPU time grows with wall time, so no per-process
clock removes the drift. A fixed reference computation, owned by the
benchmark and never changed by the program, is therefore timed around
every measured interval, and a time is reported as

    measured seconds * host speed
    host speed = the reference's usual seconds / its seconds around it

that is, in seconds at the host's usual speed. A change to the program
moves the measured seconds and not the reference, so it moves the
corrected figure by the same share. (The host speed is raised to an
elasticity, below, where the workload slows less than the reference.)

Contention differs between the vCPUs, so the reference runs where the
measured work runs: in the measuring process itself. And it slows
memory-bound work less than work that stays in cache, so the reference
comes in two sizes, one for each kind of workload.
"""

from __future__ import annotations

import random
import time

import numpy as np

DIMS = 30
# Swarm size -> (rounds, usual seconds, elasticity), measured on the
# 2-core Linux VM (Python 3.11, numpy 2.4) on which the benchmark's
# bounds were set. The usual seconds are the reference's typical time in
# a measuring process. The elasticity is the log-log slope of the
# workload's command time against the reference's time there: default-run
# tracked the 50-agent reference one for one (slope 1.01-1.16), while a
# population-600 run slowed about 0.6 times as much as the 300-agent one
# (0.52-0.84 per command, 0.62 over ten runs, correlation 0.97).
REFERENCES = {
    50: (100, 0.058, 1.0),  # README defaults: in cache, per-agent Python calls
    300: (8, 0.190, 0.6),  # 22 MB tensors: memory-bound, like a large swarm
}


def _reference_work(agents: int, rounds: int) -> float:
    # The same mix as a GSA step: the swarm's pairwise tensor and
    # per-agent Python calls. It leaves numpy.random alone (loading it
    # adds 5 MB to the process), and each size's arrays stay below the
    # peak RSS of the workloads that use it.
    draws = random.Random(20110630)
    swarm = np.sin(np.arange(agents * DIMS, dtype=float)).reshape(agents, DIMS) ** 2
    total = 0.0
    for _ in range(rounds):
        diff = swarm[None, :, :] - swarm[:, None, :]
        dist = np.sqrt((diff * diff).sum(axis=2)) + 1e-12
        pull = (diff / dist[:, :, None]).sum(axis=1)
        weights = np.array([draws.random() for _ in range(agents)])
        total += sum(float(np.dot(row, row)) for row in swarm)
        swarm = np.clip(swarm + 1e-3 * pull * weights[:, None], 0.0, 1.0)
    return total


def speed(agents: int = 50) -> float:
    """The host's speed now relative to its usual one: above 1 is faster."""
    rounds, usual, elasticity = REFERENCES[agents]
    started = time.perf_counter()
    _reference_work(agents, rounds)
    return (usual / (time.perf_counter() - started)) ** elasticity
