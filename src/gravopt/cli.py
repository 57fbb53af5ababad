"""Command-line front end: run / probe / compare.

Settings resolve in three layers: built-in defaults, then the JSON file
given with --config, then explicit flags. The JSON file mirrors GsaConfig
field names one-to-one in snake_case (kernel is either a name string
such as "square" or "power:1.5", or an object {"kind", "exponent",
"epsilon"}); it may additionally carry "function", "repetitions" and
"probe_r_values". Each flag stores its value under the settings key it
sets (--pop under "population", --iters under "max_iters"), so DEFAULTS
declares a setting once for flags, config file and --help alike. Unknown
flags and unknown config keys are rejected, and so is a config value
whose JSON type does not fit its default's: a count or seed needs an
integral number, a float setting a number (never a JSON boolean),
"deterministic_weights" true or false; the bounds and the probe grid are
lists of numbers.

Exit codes: 0 success, 2 usage error, 3 numeric divergence or force
overflow, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import DEFAULT_EPSILON, ConfigError, GsaConfig, KernelSpec
from .engine import DivergenceError, EvaluationError, run
from .experiments import (
    ExperimentPlan,
    format_float,
    run_grid,
    summarize,
    write_probe_csv,
    write_results_csv,
    write_summary_csv,
    write_trace_csv,
)
from .kernels import (
    DEFAULT_PROBE_DISTANCES,
    ForceOverflowError,
    probe_exponent,
    usable_cores,
)
from .objectives import ObjectiveSpec, make_objective, objective_names

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

KERNEL_CHOICES = "original, linear, square, power:<q>"

DEFAULTS = {
    "kernel": "original",
    "epsilon": DEFAULT_EPSILON,
    "g0": 100.0,
    "alpha": 20.0,
    "population": 50,
    "dims": 30,
    "max_iters": 1000,
    "seed": 42,
    "function": "sphere",
    "repetitions": 25,
    "deterministic_weights": False,
    "kbest_initial_fraction": 1.0,
}

# File-only settings, each a list of numbers; None means the built-in one.
_NUMBER_LISTS = ("lower_bound", "upper_bound", "probe_r_values")
# Every setting but epsilon (which a config file sets inside "kernel"),
# plus the file-only lists.
_CONFIG_FILE_KEYS = (set(DEFAULTS) - {"epsilon"}) | set(_NUMBER_LISTS)


def parse_kernel(text: str, epsilon: float) -> KernelSpec:
    """Kernel from its CLI name: original | linear | square | power:<q>."""
    token = str(text).strip().lower()
    if token == "original":
        return KernelSpec.original(epsilon)
    if token == "linear":
        return KernelSpec.inverse_linear(epsilon)
    if token == "square":
        return KernelSpec.inverse_square(epsilon)
    if token.startswith("power:"):
        try:
            exponent = float(token.split(":", 1)[1])
        except ValueError:
            raise ConfigError(
                f"bad power-law exponent in '{text}'; valid kernels: {KERNEL_CHOICES}"
            ) from None
        return KernelSpec.power_law(exponent, epsilon)
    raise ConfigError(f"unknown kernel '{text}'; valid kernels: {KERNEL_CHOICES}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravopt",
        description=(
            "Gravitational-search optimization with selectable pairwise force "
            "kernels, a force-law exponent probe, and a kernel comparison grid."
        ),
        epilog=(
            "Exit codes: 0 success, 2 usage error, 3 numeric divergence, "
            "4 I/O failure. Flags override --config values, which override "
            "the built-in defaults."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{run,probe,compare}")

    def add(p, *names, **kwargs):
        kwargs.setdefault("default", argparse.SUPPRESS)
        action = p.add_argument(*names, **kwargs)
        if action.dest in DEFAULTS:
            default = DEFAULTS[action.dest]
            if isinstance(default, bool):
                default = "on" if default else "off"
            action.help += f" (default: {default})"

    def add_common_numeric(p):
        add(p, "--g0", type=float, help="initial gravitational constant")
        add(p, "--alpha", type=float, help="decay rate of the G schedule")
        add(p, "--pop", type=int, dest="population", help="population size")
        add(p, "--dims", type=int, help="search-space dimensionality")
        add(p, "--iters", type=int, dest="max_iters", help="iteration budget")
        add(p, "--seed", type=int, help="64-bit unsigned RNG seed")

    def add_kernel(p):
        add(p, "--kernel", help=f"force kernel: {KERNEL_CHOICES}")
        add(p, "--epsilon", type=float, help="softening constant in the force denominator")

    def add_config(p):
        add(p, "--config", help="JSON config file mirroring the run configuration "
                                "(default: none)")

    p_run = sub.add_parser(
        "run", help="one optimization run, trace CSV to --trace or stdout"
    )
    add_kernel(p_run)
    add_common_numeric(p_run)
    add(p_run, "--function", help="objective: " + ", ".join(objective_names()))
    add(p_run, "--deterministic", action="store_true", dest="deterministic_weights",
        help="disable stochastic force/velocity weighting")
    add(p_run, "--trace", help="trace CSV output path (default: stdout)")
    add_config(p_run)

    p_probe = sub.add_parser(
        "probe", help="fit the kernel's force-magnitude distance exponent"
    )
    add_kernel(p_probe)
    add(p_probe, "--g0", type=float, help="gravitational constant used for the probe")
    add(p_probe, "--out", help="probe CSV output path (default: stdout)")
    add_config(p_probe)

    p_compare = sub.add_parser(
        "compare",
        help="kernel comparison grid: {original, linear, square} on all "
             "objectives; writes results and summary CSVs",
    )
    add(p_compare, "--epsilon", type=float, help="softening constant for all compared kernels")
    add_common_numeric(p_compare)
    add(p_compare, "--reps", type=int, dest="repetitions", help="repetitions per cell")
    add(p_compare, "--deterministic", action="store_true", dest="deterministic_weights",
        help="disable stochastic force/velocity weighting")
    add(p_compare, "--out",
        help="results CSV path; the summary CSV lands next to it with an "
             "'_summary' suffix (default: results.csv)")
    add(p_compare, "--no-timing", action="store_true", dest="no_timing",
        help="write 0 in wall_seconds for byte-reproducible output (default: off)")
    add(p_compare, "--jobs", type=int,
        help="worker processes for the grid; 0 = one per usable core (default: 0)")
    add_config(p_compare)

    return parser


def parse_args(argv) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _check_type(key: str, value, default) -> None:
    """Reject a config-file value whose JSON type does not fit its default's."""
    if isinstance(default, bool):
        fits, expected = isinstance(value, bool), "true or false"
    else:
        # bool is an int subclass, so a JSON true would pass as 1
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(default, int):
            fits = number and (isinstance(value, int) or value.is_integer())
            expected = "an integer"
        else:
            fits, expected = number, "a number"
    if not fits:
        raise ConfigError(f"config key '{key}' must be {expected}, got {value!r}")


def _load_config_file(path: str) -> dict:
    """Settings from a JSON config file, with its kernel object flattened."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = set(data) - _CONFIG_FILE_KEYS
    if unknown:
        raise ConfigError(
            "unknown config keys: " + ", ".join(sorted(unknown))
            + "; valid keys: " + ", ".join(sorted(_CONFIG_FILE_KEYS))
        )
    kernel = data.pop("kernel", None)
    for key, value in data.items():
        if key in _NUMBER_LISTS:
            if not isinstance(value, list):
                raise ConfigError(f"config key '{key}' must be a list of numbers, got {value!r}")
            for item in value:
                _check_type(key, item, 0.0)
        elif not isinstance(DEFAULTS[key], str):
            _check_type(key, value, DEFAULTS[key])
    if isinstance(kernel, dict):
        unknown = set(kernel) - {"kind", "exponent", "epsilon"}
        if unknown:
            raise ConfigError("unknown kernel keys: " + ", ".join(sorted(unknown)))
        data["kernel"] = kernel.get("kind", "original")
        if data["kernel"] == "power":
            if "exponent" not in kernel:
                raise ConfigError("power kernel needs an 'exponent'")
            _check_type("kernel.exponent", kernel["exponent"], 0.0)
            data["kernel"] = f"power:{kernel['exponent']}"
        if "epsilon" in kernel:
            _check_type("kernel.epsilon", kernel["epsilon"], DEFAULTS["epsilon"])
            data["epsilon"] = kernel["epsilon"]
    elif kernel is not None:
        data["kernel"] = kernel
    return data


def _merged_settings(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS, **dict.fromkeys(_NUMBER_LISTS))
    given = vars(args)
    if "config" in given:
        settings.update(_load_config_file(given["config"]))
    settings.update((key, value) for key, value in given.items() if key in DEFAULTS)
    return settings


def _build_config(settings: dict) -> tuple[GsaConfig, ObjectiveSpec]:
    """The run config and its objective; unset bounds take the objective's box.

    Every GsaConfig field is a settings key; the constructor normalizes
    and checks the values.
    """
    values = {field.name: settings[field.name] for field in fields(GsaConfig)}
    values["kernel"] = parse_kernel(settings["kernel"], settings["epsilon"])
    objective = make_objective(settings["function"], settings["dims"])
    for key, edge in (("lower_bound", objective.default_lower),
                      ("upper_bound", objective.default_upper)):
        if values[key] is None:
            values[key] = np.full(objective.dims, edge)
    return GsaConfig(**values), objective


def _cmd_run(args: argparse.Namespace) -> int:
    config, objective = _build_config(_merged_settings(args))
    trace = run(config, objective.function)
    target = getattr(args, "trace", None)
    write_trace_csv(trace, config, target if target is not None else sys.stdout)
    return EXIT_OK


def _cmd_probe(args: argparse.Namespace) -> int:
    settings = _merged_settings(args)
    kernel = parse_kernel(settings["kernel"], settings["epsilon"])
    grid = settings["probe_r_values"]
    r_values = DEFAULT_PROBE_DISTANCES if grid is None else grid
    report = probe_exponent(kernel, settings["g0"], 1.0, 1.0, r_values)
    target = getattr(args, "out", None)
    write_probe_csv(report, target if target is not None else sys.stdout)
    return EXIT_OK


def _summary_path(results_path: str) -> Path:
    path = Path(results_path)
    return path.with_name(path.stem + "_summary" + (path.suffix or ".csv"))


def _cmd_compare(args: argparse.Namespace) -> int:
    settings = _merged_settings(args)
    for key in ("lower_bound", "upper_bound"):
        if settings[key] is not None:
            raise ConfigError(
                f"compare takes no config key '{key}': each objective runs in "
                "its own standard box"
            )
    base, _ = _build_config(settings)
    epsilon = base.kernel.epsilon
    kernels = (
        KernelSpec.original(epsilon),
        KernelSpec.inverse_linear(epsilon),
        KernelSpec.inverse_square(epsilon),
    )
    objectives = tuple(make_objective(name, base.dims) for name in objective_names())
    plan = ExperimentPlan(
        base_config=base,
        kernels=kernels,
        objectives=objectives,
        repetitions=settings["repetitions"],
    )
    jobs = getattr(args, "jobs", 0)
    if jobs < 0:
        raise ConfigError(f"--jobs must be >= 0 (0 = one per usable core), got {jobs}")
    if jobs == 0:
        jobs = usable_cores()
    rows = run_grid(plan, jobs=jobs)
    summary = summarize(rows)

    out_path = getattr(args, "out", "results.csv")
    summary_path = _summary_path(out_path)
    write_results_csv(rows, out_path, include_timing=not getattr(args, "no_timing", False))
    write_summary_csv(summary, summary_path)

    kernel_names = [kernel.name for kernel in kernels]
    print(
        f"compare: kernels={','.join(kernel_names)}"
        f" objectives={','.join(spec.name for spec in objectives)}"
        f" reps={plan.repetitions} population={base.population} dims={base.dims}"
        f" iters={base.max_iters} epsilon={format_float(epsilon)}"
        f" base_seed={base.seed}"
    )
    print("median final best per (objective, kernel):")
    medians = {(row.kernel, row.objective): row.median for row in summary.rows}
    for spec in objectives:
        parts = " ".join(
            f"{name}={format_float(medians[(name, spec.name)])}"
            for name in kernel_names
        )
        print(f"  {spec.name}: {parts}")
    print("win counts (strictly lower final best wins):")
    for wc in summary.win_counts:
        print(
            f"  {wc.objective}: {wc.kernel_a} vs {wc.kernel_b} -> "
            f"{wc.wins_a}/{wc.wins_b} ({wc.ties} ties)"
        )
    print(f"wrote {out_path} and {summary_path}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "probe": _cmd_probe,
    "compare": _cmd_compare,
}


def execute(args: argparse.Namespace) -> int:
    """Dispatch a parsed invocation, mapping failures to exit codes."""
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"gravopt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ForceOverflowError, DivergenceError, EvaluationError) as exc:
        print(f"gravopt: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"gravopt: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return execute(args)


def console_main() -> None:
    sys.exit(main())
