"""In-memory span tracing around gravopt's layer boundaries.

The benchmark never edits the package. It replaces module attributes
(``cli.run``, ``engine.step``, ...) with thin wrappers that record a span
per call: name, start, end, parent span and command id. Spans live in
flat arrays so a traced default-run pass (about 700k spans) stays near
20 MB, and are written out once, when the traced pass ends.

Targets are looked up by name. A target that a later refactor removed
is listed in ``Tracer.missing`` and the metrics that depend on it are
reported as absent; tracing never raises because of it.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute) pairs wrapped as plain spans, named "<module>.<attribute>".
# cli.run, cli.run_grid, engine._batch_forces and engine.make_rng get
# wrappers of their own below; cli.write_* is expanded at install time.
PLAIN_TARGETS = (
    ("cli", "summarize"),
    ("cli", "probe_exponent"),
    ("engine", "step"),
    ("engine", "initialize"),
    ("engine", "compute_masses"),
    ("engine", "kbest_indices"),
    ("engine", "TraceRecord"),
)

OBJECTIVE_SPAN = "objectives.eval"
COMMAND_SPAN = "cli.main"


class Tracer:
    """Span store plus per-span-name counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_command = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.grid_calls: list[dict] = []
        self.missing: list[str] = []
        # Pool workers forked after install inherit the wrappers; they
        # must run untraced (their spans would be lost with the process).
        self._pid = os.getpid()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.command.append(self.current_command)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def active(self) -> bool:
        return os.getpid() == self._pid

    def innermost(self) -> str:
        return self.names[self.name[self._stack[-1]]] if self._stack else ""

    def wrap(self, name: str, fn, on_call=None):
        """fn wrapped in a span; on_call(args, kwargs, result) runs after it."""
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.active():
                return fn(*args, **kwargs)
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def command_span(self, command_id: int, fn, *args):
        """Run one CLI command as the root span of its command id."""
        self.current_command = command_id
        index = self.open(self.name_id(COMMAND_SPAN))
        try:
            return fn(*args)
        finally:
            self.close(index)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "command": np.frombuffer(self.command, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class CountingGenerator:
    """Delegates to a numpy Generator and counts calls and uniforms drawn.

    Counts are attributed to the innermost open span, so draws made in
    ``engine.step`` and in ``engine.initialize`` stay apart. The real
    generator is called with the same arguments in the same order, so
    the PCG64 stream is untouched.
    """

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        where = self._tracer.innermost()
        self._tracer.counters["rng_calls@" + where] += 1
        self._tracer.counters["rng_draws@" + where] += (
            1 if size is None else int(np.prod(size))
        )
        return self._generator.random(size, *args, **kwargs)

    def __getattr__(self, attribute):
        value = getattr(self._generator, attribute)
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self._tracer.counters["rng_calls@" + self._tracer.innermost()] += 1
            return value(*args, **kwargs)

        return counted


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every target that exists in ``modules`` (name -> module)."""

    def patch(module_name: str, attribute: str, make):
        module = modules.get(module_name)
        original = getattr(module, attribute, None) if module is not None else None
        if original is None:
            tracer.missing.append(f"{module_name}.{attribute}")
            return
        setattr(module, attribute, make(original))

    for module_name, attribute in PLAIN_TARGETS:
        patch(module_name, attribute,
              lambda fn, n=f"{module_name}.{attribute}": tracer.wrap(n, fn))

    cli = modules.get("cli")
    writers = sorted(a for a in dir(cli) if a.startswith("write_")) if cli else []
    if not writers:
        tracer.missing.append("cli.write_*")
    for attribute in writers:
        patch("cli", attribute, lambda fn, n=f"cli.{attribute}": tracer.wrap(n, fn))

    def wrap_run(fn):
        traced_run = tracer.wrap("cli.run", fn)

        def run_with_traced_objective(config, objective, *args, **kwargs):
            return traced_run(config, tracer.wrap(OBJECTIVE_SPAN, objective),
                              *args, **kwargs)

        return run_with_traced_objective

    def count_forces(args, kwargs, result):
        n, d = np.shape(args[0])
        tracer.counters["force_pairs"] += n * (n - 1)
        tracer.counters["force_bytes"] = max(tracer.counters["force_bytes"], n * n * d * 8)

    def record_grid(args, kwargs, result):
        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
        tracer.grid_calls.append({
            "jobs": int(jobs),
            "cells": [float(row.wall_seconds) for row in result],
        })

    patch("cli", "run", wrap_run)
    patch("cli", "run_grid", lambda fn: tracer.wrap("cli.run_grid", fn, record_grid))
    patch("engine", "_batch_forces",
          lambda fn: tracer.wrap("engine._batch_forces", fn, count_forces))
    def count_draws(fn):
        def make_rng(*args, **kwargs):
            generator = fn(*args, **kwargs)
            return CountingGenerator(generator, tracer) if tracer.active() else generator

        return make_rng

    patch("engine", "make_rng", count_draws)


def _median(values) -> float | None:
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) if values.size else None


def _percentile(values, q: float) -> float | None:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else None


def _scaled(value, factor):
    return None if value is None else value * factor


def per_layer(tracer: Tracer, command_bytes: list[int]) -> dict[str, float | None]:
    """Per-layer metrics from the recorded spans; None marks a metric absent.

    command_bytes holds the CSV bytes each traced command wrote.
    """
    spans = tracer.arrays()
    names = {name: i for i, name in enumerate(tracer.names)}
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    self_time = duration - covered

    def select(name):
        return spans["name"] == names.get(name, -1)

    steps = select("engine.step")
    n_steps = int(steps.sum())
    per_step = (lambda total: total / n_steps) if n_steps else (lambda total: None)
    counted_rng = "engine.make_rng" not in tracer.missing
    step_indices = np.flatnonzero(steps)
    objective = select(OBJECTIVE_SPAN)
    objective_in_step = objective & np.isin(parent, step_indices)
    runs = select("cli.run")
    records = select("engine.TraceRecord")
    forces = select("engine._batch_forces")
    force_time = float(duration[forces].sum())

    commands = select(COMMAND_SPAN)
    writer_ids = [i for name, i in names.items() if name.startswith("cli.write_")]
    writes = np.isin(spans["name"], writer_ids)
    write_ms_per_command = [
        float(duration[writes & (spans["command"] == c)].sum()) * 1e3
        for c in np.unique(spans["command"][writes])
    ]

    cells = [s for call in tracer.grid_calls for s in call["cells"]]
    grid_wall = duration[select("cli.run_grid")]
    busy = overhead = None
    if tracer.grid_calls and grid_wall.size:
        jobs = np.array([call["jobs"] for call in tracer.grid_calls], dtype=float)
        cell_sums = np.array([sum(call["cells"]) for call in tracer.grid_calls])
        busy = float(np.median(cell_sums / (jobs * grid_wall)))
        overhead = float(np.median(grid_wall - cell_sums / jobs))

    return {
        "engine.step_us": _scaled(_median(duration[steps]), 1e6),
        "engine.step_us.p99": _scaled(_percentile(duration[steps], 99), 1e6),
        "engine.step_self_us": _scaled(_median(self_time[steps]), 1e6),
        "engine.rng_calls_per_step": (
            per_step(tracer.counters["rng_calls@engine.step"]) if counted_rng else None),
        "engine.rng_draws_per_step": (
            per_step(tracer.counters["rng_draws@engine.step"]) if counted_rng else None),
        "engine.force_us": _scaled(_median(duration[forces]), 1e6),
        "engine.force_pairs_per_s": (
            tracer.counters["force_pairs"] / force_time if force_time > 0 else None
        ),
        "engine.force_bytes_computed": tracer.counters["force_bytes"] or None,
        "engine.masses_us": _scaled(_median(duration[select("engine.compute_masses")]), 1e6),
        "engine.kbest_us": _scaled(_median(duration[select("engine.kbest_indices")]), 1e6),
        "engine.initialize_ms": _scaled(_median(duration[select("engine.initialize")]), 1e3),
        "objectives.calls_per_step": per_step(int(objective_in_step.sum())),
        "objectives.eval_us_per_step": _scaled(
            per_step(float(duration[objective_in_step].sum())), 1e6),
        "objectives.share": (
            float(duration[objective].sum() / duration[runs].sum()) if runs.any() else None
        ),
        "core.trace_records_per_run": (
            float(records.sum() / runs.sum()) if runs.any() else None
        ),
        "core.trace_us_per_step": _scaled(per_step(float(duration[records].sum())), 1e6),
        "kernels.probe_ms": _scaled(_median(duration[select("cli.probe_exponent")]), 1e3),
        "experiments.cell_s.p50": _percentile(cells, 50),
        "experiments.cell_s.p90": _percentile(cells, 90),
        "experiments.worker_busy_ratio": busy,
        "experiments.pool_overhead_s": overhead,
        "experiments.summarize_ms": _scaled(_median(duration[select("cli.summarize")]), 1e3),
        "experiments.csv_write_ms": _median(write_ms_per_command),
        "experiments.csv_bytes": _median(command_bytes),
        "cli.self_ms": _scaled(_median(self_time[commands]), 1e3),
    }
