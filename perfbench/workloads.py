"""The benchmark's workloads and the checks on every command's output.

A workload is a fixed list of gravopt CLI commands (one "pass"), built
from the workload seed: the seed picks each command's ``--seed``, so the
same workload seed always issues the same commands. The harness never
passes anything else to the program.

Why these two workloads (measured on a 2-core Linux box, numpy 2.4):

* default-run: the README defaults (30 dims, population 50, 1000
  iterations, stochastic weights) for 3 kernels x 4 objectives, plus one
  probe per kernel and one short ``compare`` grid on 2 worker processes.
  The per-agent Python path dominates: objective calls, the per-agent
  weight-draw loop, then the (n, n, d) force tensor. The grid is the
  only path through the process pool, per-cell seeding, ``summarize``
  and both result CSVs.
* large-swarm: rastrigin at population 600, where force aggregation is
  most of the step and the diff tensor sets peak RSS.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

KERNELS = ("original", "linear", "square")
OBJECTIVES = ("sphere", "rastrigin", "rosenbrock", "ackley")
# Fitted log-log slope of the force magnitude for each kernel. The default
# epsilon 1e-12 bends the fit by about 1e-5 at the smallest probe distance.
PROBE_SLOPES = {"original": 0.0, "linear": -1.0, "square": -2.0}
PROBE_SLOPE_TOLERANCE = 1e-3
PROBE_POINTS = 25
TRACE_HEADER = "iter,best_so_far,population_best,population_mean"
RESULTS_HEADER = "kernel,objective,repetition,seed,final_best,iters,wall_seconds"
SUMMARY_HEADER = "kernel,objective,median,mean,std,min,max"

# Sizes per scale. "full" is the benchmark; "tiny" is for the self-test.
SIZES = {
    "full": {
        "default-run": {"pop": 50, "dims": 30, "iters": 1000, "grid_iters": 100},
        "large-swarm": {"pop": 600, "dims": 30, "iters": 50},
    },
    "tiny": {
        "default-run": {"pop": 6, "dims": 3, "iters": 20, "grid_iters": 10},
        "large-swarm": {"pop": 12, "dims": 3, "iters": 10},
    },
}
WORKLOADS = tuple(SIZES["full"])
# The host-speed reference's swarm for each workload (see hostspeed.py):
# in cache like the README-default runs, or memory-bound like a large swarm.
REFERENCE_AGENTS = {"default-run": 50, "large-swarm": 300}
COMPARE_JOBS = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its outputs must look like."""

    key: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    agent_steps: int
    expect: dict


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**32)


def _run(key, kernel, function, size, seed, outdir, explicit_size):
    trace = str(Path(outdir) / f"{key.replace('/', '-')}.csv")
    argv = ["run", "--kernel", kernel, "--function", function, "--seed", str(seed),
            "--trace", trace]
    if explicit_size:
        argv += ["--pop", str(size["pop"]), "--dims", str(size["dims"]),
                 "--iters", str(size["iters"])]
    return Command(key, tuple(argv), (trace,), size["pop"] * size["iters"],
                   {"kind": "run", "kernel": kernel, "seed": seed, "pop": size["pop"],
                    "dims": size["dims"], "iters": size["iters"]})


def _compare(size, seed, outdir):
    """One repetition of the 12-cell grid on COMPARE_JOBS worker processes."""
    out = Path(outdir) / "compare.csv"
    summary = out.with_name("compare_summary.csv")
    iters = size["grid_iters"]
    argv = ("compare", "--reps", "1", "--iters", str(iters),
            "--pop", str(size["pop"]), "--dims", str(size["dims"]),
            "--jobs", str(COMPARE_JOBS), "--no-timing", "--seed", str(seed),
            "--out", str(out))
    cells = len(KERNELS) * len(OBJECTIVES)
    return Command("compare", argv, (str(out), str(summary)), cells * size["pop"] * iters,
                   {"kind": "compare", "seed": seed, "pop": size["pop"],
                    "dims": size["dims"], "iters": iters})


def commands(workload: str, seed: int, outdir: str, scale: str = "full") -> list[Command]:
    """One pass of the workload; output files land in outdir."""
    size = SIZES[scale][workload]
    seeds = _seeds(workload, seed)
    # default-run relies on the CLI defaults at full scale, as a user would.
    explicit = scale != "full" or workload != "default-run"
    if workload == "default-run":
        cmds = [
            _run(f"run/{kernel}/{function}", kernel, function, size, next(seeds),
                 outdir, explicit)
            for kernel in KERNELS for function in OBJECTIVES
        ]
        for kernel in KERNELS:
            out = str(Path(outdir) / f"probe-{kernel}.csv")
            cmds.append(Command(f"probe/{kernel}", ("probe", "--kernel", kernel, "--out", out),
                                (out,), 0, {"kind": "probe", "kernel": kernel}))
        cmds.append(_compare(size, next(seeds), outdir))
        return cmds
    if workload == "large-swarm":
        return [
            _run(f"run/{kernel}/rastrigin", kernel, "rastrigin", size, next(seeds),
                 outdir, explicit)
            for kernel in ("original", "square")
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _floats(fields, problems, where):
    try:
        values = [float(field) for field in fields]
    except ValueError:
        problems.append(f"{where}: non-numeric field in {fields}")
        return None
    if not all(math.isfinite(value) for value in values):
        problems.append(f"{where}: non-finite value in {fields}")
        return None
    return values


def check_trace(text: str, expect: dict) -> list[str]:
    """Header names the run's setup, one row per iteration, best never rises."""
    problems = []
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    joined = " ".join(header)
    for token in (f"kernel={expect['kernel']} ", "rng=numpy-pcg64",
                  f"max_iters={expect['iters']} ", f"population={expect['pop']} ",
                  f"dims={expect['dims']} ", f"seed={expect['seed']} "):
        if token not in joined + " ":
            problems.append(f"trace header lacks {token.strip()!r}")
    body = lines[len(header):]
    if not body or body[0] != TRACE_HEADER:
        return problems + ["trace column header is wrong"]
    rows = body[1:]
    if len(rows) != expect["iters"]:
        problems.append(f"trace has {len(rows)} rows, expected {expect['iters']}")
    previous = math.inf
    for number, row in enumerate(rows, start=1):
        fields = row.split(",")
        if len(fields) != 4 or fields[0] != str(number):
            problems.append(f"trace row {number} is malformed: {row!r}")
            break
        values = _floats(fields[1:], problems, f"trace row {number}")
        if values is None:
            break
        best, population_best, _ = values
        if best > previous:
            problems.append(f"best_so_far rises at iteration {number}")
            break
        if population_best < best:
            problems.append(f"population_best below best_so_far at iteration {number}")
            break
        previous = best
    return problems


def check_probe(text: str, expect: dict) -> list[str]:
    """25 samples and a fitted slope equal to the kernel's exponent."""
    lines = text.splitlines()
    if not lines or lines[0] != "r,magnitude":
        return ["probe header is wrong"]
    problems = []
    if len(lines) != PROBE_POINTS + 2:
        problems.append(f"probe has {len(lines) - 2} samples, expected {PROBE_POINTS}")
    footer = dict(part.split("=", 1) for part in lines[-1].lstrip("# ").split())
    try:
        slope = float(footer["slope"])
    except (KeyError, ValueError):
        return problems + ["probe footer has no slope"]
    if not abs(slope - PROBE_SLOPES[expect["kernel"]]) <= PROBE_SLOPE_TOLERANCE:
        problems.append(f"probe slope {slope} for kernel {expect['kernel']}")
    return problems


_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = 2**64 - 1


def cell_seed(base_seed: int, kernel: str, objective: str, repetition: int) -> int:
    """The documented grid seed: base XOR FNV-1a-64 of "<kernel>|<objective>|<rep>"."""
    value = _FNV64_OFFSET
    for byte in f"{kernel}|{objective}|{repetition}".encode():
        value = ((value ^ byte) * _FNV64_PRIME) & _MASK64
    return (base_seed ^ value) & _MASK64


def check_compare(results: str, summary: str, expect: dict) -> list[str]:
    """One row per cell, documented seeds, timing zeroed, summary consistent."""
    problems = []
    lines = results.splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        return ["results header is wrong"]
    finals = {}
    for row in lines[1:]:
        fields = row.split(",")
        if len(fields) != 7:
            problems.append(f"malformed results row {row!r}")
            continue
        kernel, objective, repetition, seed, final, iters, wall = fields
        if seed != str(cell_seed(expect["seed"], kernel, objective, int(repetition))):
            problems.append(f"cell {kernel}/{objective} has seed {seed}")
        if iters != str(expect["iters"]) or wall != "0":
            problems.append(f"cell {kernel}/{objective} has iters={iters} wall={wall}")
        values = _floats([final], problems, f"cell {kernel}/{objective}")
        if values is not None and values[0] < -1e-9:
            problems.append(f"cell {kernel}/{objective} is below the optimum 0")
        finals[(kernel, objective)] = final
    expected_cells = {(k, o) for k in KERNELS for o in OBJECTIVES}
    if set(finals) != expected_cells or len(lines) - 1 != len(expected_cells):
        problems.append(f"results cover {len(lines) - 1} rows, not the 12 grid cells")

    lines = summary.splitlines()
    if not lines or lines[0] != SUMMARY_HEADER:
        return problems + ["summary header is wrong"]
    for row in lines[1:]:
        fields = row.split(",")
        if len(fields) != 7:
            problems.append(f"malformed summary row {row!r}")
            continue
        # One repetition per cell: every statistic but std is the final best.
        kernel, objective, median, mean, std, low, high = fields
        final = finals.get((kernel, objective))
        if final is None or {median, low, high} != {final} or float(std) != 0.0:
            problems.append(f"summary row {kernel}/{objective} disagrees with results")
        if final is not None and float(mean) != float(final):
            problems.append(f"summary mean {kernel}/{objective} disagrees with results")
    if len(lines) - 1 != len(expected_cells):
        problems.append(f"summary has {len(lines) - 1} rows, expected 12")
    return problems


def check_outputs(command: Command) -> list[str]:
    """Problems with the files one command wrote; empty when they are right."""
    try:
        texts = [Path(path).read_text(encoding="utf-8") for path in command.outputs]
    except OSError as exc:
        return [f"output missing: {exc}"]
    kind = command.expect["kind"]
    if kind == "run":
        return check_trace(texts[0], command.expect)
    if kind == "probe":
        return check_probe(texts[0], command.expect)
    return check_compare(texts[0], texts[1], command.expect)
