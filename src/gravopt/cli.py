"""Command-line front end: run / probe / compare.

Settings resolve in three layers: built-in defaults, then the JSON file
given with --config, then explicit flags. ``SETTINGS`` declares each
setting once: its flag (which stores under the setting's key, so --pop
sets "population"), default, help and the commands that read it. A
config file's keys are exactly the settings keys, so "kernel" is a name
such as "square" or "power:1.5" and "epsilon" a number beside it. A run
reads every GsaConfig field, plus "function"; it always runs the
published search, with every weight and coefficient drawn. A config
key the command does not read is rejected, and so is a value whose
JSON type does not fit its default's: a count or seed needs an integral
number, a float setting a number (never a JSON boolean), "kernel" and
"function" a string, and the bounds and probe grid a list of numbers.

Exit codes: 0 success, 2 usage error (a ConfigError or a MemoryError),
3 numeric failure (a NumericError), 4 I/O failure (an output path that
can take no file fails before anything is computed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

from .core import (DEFAULT_EPSILON, KERNEL_CHOICES, KERNEL_NAMES, ConfigError, GsaConfig,
                   KernelSpec, NumericError)
from .engine import run
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
from .kernels import probe_exponent
from .objectives import ObjectiveSpec, make_objective, objective_names

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class Setting(NamedTuple):
    """A setting's flag (None: config file only), default, readers and help.
    The flag parses the default's type. A None default is a list of
    numbers the command works out when unset."""

    flag: str | None
    default: object
    commands: tuple[str, ...]
    help: str


_ALL, _SEARCH = ("run", "probe", "compare"), ("run", "compare")

SETTINGS = {
    "kernel": Setting("--kernel", "original", ("run", "probe"), f"force kernel: {KERNEL_CHOICES}"),
    "epsilon": Setting("--epsilon", DEFAULT_EPSILON, _ALL, "softening in the force denominator"),
    "g0": Setting("--g0", 100.0, _ALL, "gravitational constant: a run's initial G, the probe's G"),
    "alpha": Setting("--alpha", 20.0, _SEARCH, "decay rate of the G schedule"),
    "population": Setting("--pop", 50, _SEARCH, "population size"),
    "dims": Setting("--dims", 30, _SEARCH, "search-space dimensionality"),
    "max_iters": Setting("--iters", 1000, _SEARCH, "iteration budget"),
    "seed": Setting("--seed", 42, _SEARCH, "64-bit unsigned RNG seed"),
    "function": Setting("--function", "sphere", ("run",),
                        "objective: " + ", ".join(objective_names())),
    "repetitions": Setting("--reps", 25, ("compare",), "repetitions per cell"),
    "lower_bound": Setting(None, None, ("run",), "lower box edges (default: the objective's)"),
    "upper_bound": Setting(None, None, ("run",), "upper box edges (default: the objective's)"),
    "probe_r_values": Setting(None, None, ("probe",), "probe distances (default: 25 up to 1e6)"),
}


def _config_keys(command: str) -> str:
    """The config-file keys ``command`` reads, sorted, for messages."""
    return ", ".join(sorted(key for key, setting in SETTINGS.items()
                            if command in setting.commands))


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
    commands = (
        ("run", _cmd_run, "one optimization run, trace CSV to --trace or stdout",
         [("--trace", {"default": None, "help": "trace CSV output path (default: stdout)"})]),
        ("probe", _cmd_probe, "fit the kernel's force-magnitude distance exponent",
         [("--out", {"default": None, "help": "probe CSV output path (default: stdout)"})]),
        ("compare", _cmd_compare,
         f"kernel comparison grid: {{{', '.join(KERNEL_NAMES)}}} on all "
         "objectives; writes results and summary CSVs",
         [("--out", {"default": "results.csv",
                     "help": "results CSV path; the summary CSV lands next to it with "
                             "an '_summary' suffix (default: results.csv)"}),
          ("--no-timing", {"action": "store_true", "help": "write 0 in wall_seconds for "
                           "byte-reproducible output (default: off)"}),
          ("--jobs", {"type": int, "default": 0, "help": "worker processes for the grid; "
                      "0 = one per usable core (default: 0)"})]),
    )
    for command, handler, summary, outputs in commands:
        p = sub.add_parser(command, help=summary)
        p.set_defaults(handler=handler)
        for key, setting in SETTINGS.items():
            if setting.flag and command in setting.commands:
                p.add_argument(setting.flag, dest=key, type=type(setting.default),
                               default=argparse.SUPPRESS,
                               help=f"{setting.help} (default: {setting.default})")
        for flag, options in outputs:
            p.add_argument(flag, **options)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help=f"JSON config file with any of the keys {_config_keys(command)} "
                            "(default: none)")
    return parser


def _check_type(key: str, value, default) -> None:
    """Reject a config-file value whose JSON type does not fit its default's;
    a None default stands for a list of numbers."""

    def number(item) -> bool:
        # bool is an int subclass, so a JSON true would pass as 1
        return isinstance(item, (int, float)) and not isinstance(item, bool)

    if default is None:
        fits = isinstance(value, list) and all(map(number, value))
        expected = "a list of numbers"
    elif isinstance(default, str):
        fits, expected = isinstance(value, str), "a string"
    elif isinstance(default, int):
        fits = number(value) and (isinstance(value, int) or value.is_integer())
        expected = "an integer"
    else:
        fits, expected = number(value), "a number"
    if not fits:
        raise ConfigError(f"config key '{key}' must be {expected}, got {value!r}")


def _load_config_file(path: str, command: str) -> dict:
    """The settings a JSON config file gives ``command``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc)) from None
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    for key, value in data.items():
        if key not in SETTINGS or command not in SETTINGS[key].commands:
            raise ConfigError(f"{command} does not read config key '{key}'; "
                              f"it reads: {_config_keys(command)}")
        _check_type(key, value, SETTINGS[key].default)
    return data


def _merged_settings(args: argparse.Namespace) -> dict:
    settings = {key: setting.default for key, setting in SETTINGS.items()}
    given = vars(args)
    if "config" in given:
        settings.update(_load_config_file(given["config"], args.command))
    settings.update((key, value) for key, value in given.items() if key in SETTINGS)
    return settings


def _build_config(settings: dict) -> tuple[GsaConfig, ObjectiveSpec]:
    """The run config and its objective; unset bounds take the objective's box.

    Every GsaConfig field is a settings key. The constructor normalizes
    and checks the values.
    """
    values = {field.name: settings[field.name] for field in fields(GsaConfig)}
    values["kernel"] = KernelSpec.named(settings["kernel"], settings["epsilon"])
    objective = make_objective(settings["function"], settings["dims"])
    for key in ("lower_bound", "upper_bound"):
        if values[key] is None:
            values[key] = getattr(objective, key)
    return GsaConfig(**values), objective


def _check_output(path: str | Path | None) -> None:
    """Fail before computing, which can take minutes, if ``path`` can take
    no file; None stands for stdout."""
    if path is None:
        return
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"is a directory: '{path}'")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"no such directory: '{path.parent}'")


def _cmd_run(args: argparse.Namespace) -> int:
    config, objective = _build_config(_merged_settings(args))
    _check_output(args.trace)
    trace = run(config, objective.function)
    write_trace_csv(trace, config, sys.stdout if args.trace is None else args.trace)
    return EXIT_OK


def _cmd_probe(args: argparse.Namespace) -> int:
    settings = _merged_settings(args)
    kernel = KernelSpec.named(settings["kernel"], settings["epsilon"])
    _check_output(args.out)
    report = probe_exponent(kernel, settings["g0"], settings["probe_r_values"])
    write_probe_csv(report, sys.stdout if args.out is None else args.out)
    return EXIT_OK


def _summary_path(results_path: str) -> Path:
    path = Path(results_path)
    return path.with_name(path.stem + "_summary" + (path.suffix or ".csv"))


def _cmd_compare(args: argparse.Namespace) -> int:
    settings = _merged_settings(args)
    base, _ = _build_config(settings)
    epsilon = base.kernel.epsilon
    kernels = tuple(KernelSpec.named(name, epsilon) for name in KERNEL_NAMES)
    objectives = tuple(make_objective(name, base.dims) for name in objective_names())
    plan = ExperimentPlan(
        base_config=base,
        kernels=kernels,
        objectives=objectives,
        repetitions=settings["repetitions"],
    )
    summary_path = _summary_path(args.out)
    _check_output(args.out)
    _check_output(summary_path)
    rows = run_grid(plan, jobs=args.jobs)
    summary = summarize(rows)

    write_results_csv(rows, args.out, include_timing=not args.no_timing)
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
    print(f"wrote {args.out} and {summary_path}")
    return EXIT_OK


def main(argv=None) -> int:
    """Parse and run one invocation, mapping failures to exit codes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"gravopt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"gravopt: error: config too large for memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"gravopt: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"gravopt: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
