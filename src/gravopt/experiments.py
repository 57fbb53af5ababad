"""Seeded experiment grids, summary statistics, and the CSV formats.

Seeds: each grid cell runs with seed = base_config.seed XOR fnv1a64(key)
where key is "<kernel>|<objective>|<repetition>". FNV-1a is a fixed,
published 64-bit hash, so every row's seed is reconstructible from the
plan alone.

CSV formats (UTF-8, comma-separated, '.' decimal separator):

* results:  kernel,objective,repetition,seed,final_best,iters,wall_seconds
* summary:  kernel,objective,median,mean,std,min,max
* trace:    iter,best_so_far,population_best,population_mean
            (preceded by '#' header lines recording the run configuration
            and the RNG algorithm)
* probe:    r,magnitude followed by a footer comment line
            '# slope=<value> intercept=<value> max_residual=<value>'
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .core import ConfigError, GsaConfig, KernelSpec, NumericError, ProbeReport, RunTrace, as_count
from .engine import RNG_NAME, run
from .kernels import share_cores, usable_cores
from .objectives import ObjectiveSpec

RESULTS_HEADER = "kernel,objective,repetition,seed,final_best,iters,wall_seconds"
SUMMARY_HEADER = "kernel,objective,median,mean,std,min,max"
TRACE_HEADER = "iter,best_so_far,population_best,population_mean"
PROBE_HEADER = "r,magnitude"

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = 2**64 - 1


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    value = _FNV64_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV64_PRIME) & _MASK64
    return value


def derive_seed(base_seed: int, kernel_name: str, objective_name: str, repetition: int) -> int:
    """Deterministic per-cell seed; no entropy beyond the plan."""
    key = f"{kernel_name}|{objective_name}|{repetition}".encode("utf-8")
    return (int(base_seed) ^ fnv1a64(key)) & _MASK64


@dataclass(frozen=True)
class ExperimentPlan:
    """A grid of runs: kernels x objectives x repetitions."""

    base_config: GsaConfig
    kernels: tuple[KernelSpec, ...]
    objectives: tuple[ObjectiveSpec, ...]
    repetitions: int

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(self, "repetitions", as_count(self.repetitions, "repetitions", 1))
        if not self.kernels:
            raise ConfigError("plan needs at least one kernel")
        if not self.objectives:
            raise ConfigError("plan needs at least one objective")


@dataclass(frozen=True)
class ResultRow:
    kernel: str
    objective: str
    repetition: int
    seed: int
    final_best: float
    iters: int
    wall_seconds: float


def cell_config(plan: ExperimentPlan, kernel: KernelSpec, objective: ObjectiveSpec,
                repetition: int) -> GsaConfig:
    """The concrete run config for one grid cell.

    The base config supplies population, schedule and loop parameters;
    the objective supplies dims and its default box; the seed is derived
    from the base config's seed and the cell.
    """
    return replace(
        plan.base_config,
        dims=objective.dims,
        lower_bound=objective.lower_bound,
        upper_bound=objective.upper_bound,
        kernel=kernel,
        seed=derive_seed(plan.base_config.seed, kernel.name, objective.name, repetition),
    )


def _run_cell(args: tuple[GsaConfig, ObjectiveSpec, int]) -> ResultRow:
    config, objective, repetition = args
    started = time.perf_counter()
    try:
        trace = run(config, objective.function)
    except NumericError as exc:
        raise NumericError(
            f"run failed for kernel={config.kernel.name} objective={objective.name} "
            f"repetition={repetition} seed={config.seed}: {exc}"
        ) from exc
    elapsed = time.perf_counter() - started
    return ResultRow(
        kernel=config.kernel.name,
        objective=objective.name,
        repetition=repetition,
        seed=config.seed,
        final_best=trace.final_best,
        iters=config.max_iters,
        wall_seconds=elapsed,
    )


def run_grid(plan: ExperimentPlan, jobs: int = 1) -> list[ResultRow]:
    """Run every grid cell; rows ordered (objective, kernel, repetition).

    jobs > 1 executes cells in a process pool of at most one worker per
    cell, each worker splitting its force calls over its share of the
    usable cores; jobs = 0 means one worker per usable core. Row order
    and content (apart from wall_seconds) are identical to the serial
    mode. A negative jobs raises ConfigError.
    """
    if jobs < 0:
        raise ConfigError(f"--jobs must be >= 0 (0 = one per usable core), got {jobs}")
    cells = [
        (cell_config(plan, kernel, objective, rep), objective, rep)
        for objective in plan.objectives
        for kernel in plan.kernels
        for rep in range(plan.repetitions)
    ]
    workers = min(jobs or usable_cores(), len(cells))
    if workers <= 1:
        return [_run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers, initializer=share_cores,
                             initargs=(workers,)) as pool:
        return list(pool.map(_run_cell, cells))


@dataclass(frozen=True)
class SummaryRow:
    kernel: str
    objective: str
    median: float
    mean: float
    std: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class WinCount:
    """Head-to-head record of two kernels on one objective.

    A kernel wins a repetition when its final best is strictly lower.
    wins_a + wins_b + ties equals the number of paired repetitions.
    """

    kernel_a: str
    kernel_b: str
    objective: str
    wins_a: int
    wins_b: int
    ties: int


@dataclass(frozen=True)
class Summary:
    rows: tuple[SummaryRow, ...]
    win_counts: tuple[WinCount, ...]


def summarize(rows: Iterable[ResultRow]) -> Summary:
    """Per-(kernel, objective) statistics plus pairwise kernel win counts.

    Output ordering is canonical (sorted by name), so the summary is
    invariant under permutations of the input rows. std is the population
    standard deviation.
    """
    by_cell: dict[tuple[str, str], dict[int, float]] = {}
    for row in rows:
        by_cell.setdefault((row.kernel, row.objective), {})[row.repetition] = row.final_best
    if not by_cell:
        raise ValueError("summarize needs at least one result row")

    summary_rows = []
    for kernel, objective in sorted(by_cell, key=lambda key: (key[1], key[0])):
        cell = by_cell[(kernel, objective)]
        # fixed accumulation order keeps the statistics bit-identical
        # under any permutation of the input rows
        finals = np.array([cell[rep] for rep in sorted(cell)])
        summary_rows.append(
            SummaryRow(
                kernel=kernel,
                objective=objective,
                median=float(np.median(finals)),
                mean=float(np.mean(finals)),
                std=float(np.std(finals)),
                minimum=float(np.min(finals)),
                maximum=float(np.max(finals)),
            )
        )

    kernels = sorted({kernel for kernel, _ in by_cell})
    objectives = sorted({objective for _, objective in by_cell})
    win_counts = []
    for objective in objectives:
        for idx, kernel_a in enumerate(kernels):
            for kernel_b in kernels[idx + 1:]:
                cell_a = by_cell.get((kernel_a, objective))
                cell_b = by_cell.get((kernel_b, objective))
                if not cell_a or not cell_b:
                    continue
                wins_a = wins_b = ties = 0
                for rep in sorted(set(cell_a) & set(cell_b)):
                    if cell_a[rep] < cell_b[rep]:
                        wins_a += 1
                    elif cell_b[rep] < cell_a[rep]:
                        wins_b += 1
                    else:
                        ties += 1
                win_counts.append(
                    WinCount(kernel_a, kernel_b, objective, wins_a, wins_b, ties)
                )
    return Summary(rows=tuple(summary_rows), win_counts=tuple(win_counts))


def format_float(value: float) -> str:
    """Shortest round-trip decimal form, '.' separator."""
    return repr(float(value))


def _open_target(target: str | Path | IO[str]):
    if hasattr(target, "write"):
        return target, False
    return open(target, "w", encoding="utf-8", newline="\n"), True


def _write_lines(target, lines: Sequence[str]) -> None:
    handle, owned = _open_target(target)
    try:
        handle.write("\n".join(lines) + "\n")
    finally:
        if owned:
            handle.close()


def write_results_csv(rows: Iterable[ResultRow], target, include_timing: bool = True) -> None:
    """Results CSV; with include_timing off, wall_seconds is written as 0
    so identical invocations produce byte-identical files."""
    lines = [RESULTS_HEADER]
    for row in rows:
        wall = format_float(row.wall_seconds) if include_timing else "0"
        lines.append(
            f"{row.kernel},{row.objective},{row.repetition},{row.seed},"
            f"{format_float(row.final_best)},{row.iters},{wall}"
        )
    _write_lines(target, lines)


def write_summary_csv(summary: Summary, target) -> None:
    lines = [SUMMARY_HEADER]
    for row in summary.rows:
        lines.append(
            f"{row.kernel},{row.objective},{format_float(row.median)},"
            f"{format_float(row.mean)},{format_float(row.std)},"
            f"{format_float(row.minimum)},{format_float(row.maximum)}"
        )
    _write_lines(target, lines)


def write_trace_csv(trace: RunTrace, config: GsaConfig, target) -> None:
    """Trace CSV with '#' header lines recording the full run setup."""
    lines = [
        "# gravitational search trace",
        f"# rng={RNG_NAME}",
        f"# kernel={config.kernel.name} epsilon={format_float(config.kernel.epsilon)}",
        f"# g0={format_float(config.g0)} alpha={format_float(config.alpha)}"
        f" max_iters={config.max_iters} population={config.population} dims={config.dims}",
        # Kbest always starts with every agent and every weight is drawn:
        # constants, like the rng line
        f"# kbest_initial_fraction=1.0 deterministic_weights=false seed={config.seed}",
        TRACE_HEADER,
    ]
    columns = zip(
        trace.best_so_far.tolist(),
        trace.population_best.tolist(),
        trace.population_mean.tolist(),
    )
    for iteration, (best, pop_best, pop_mean) in enumerate(columns, start=1):
        lines.append(
            f"{iteration},{format_float(best)},"
            f"{format_float(pop_best)},{format_float(pop_mean)}"
        )
    _write_lines(target, lines)


def write_probe_csv(report: ProbeReport, target) -> None:
    lines = [PROBE_HEADER]
    for r, magnitude in report.samples:
        lines.append(f"{format_float(r)},{format_float(magnitude)}")
    lines.append(
        f"# slope={format_float(report.fitted_slope)}"
        f" intercept={format_float(report.fitted_intercept)}"
        f" max_residual={format_float(report.max_residual)}"
    )
    _write_lines(target, lines)
