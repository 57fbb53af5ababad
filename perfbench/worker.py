"""One fresh benchmark process: import gravopt, issue a workload's commands.

Started by run.py with ``src`` on PYTHONPATH. It prints ``ready`` once
``gravopt.cli`` is imported (the parent times process start to that
line as set-up), then runs the workload's commands through
``gravopt.cli.main(argv)``: at least one whole pass, then until
--seconds have passed. After each command it times the host-speed
reference (see hostspeed.py) in this same process, so on the vCPU that
runs the commands. At the end it writes what it saw
to a JSON file. Being a fresh process, its own
``ru_maxrss`` belongs to this workload alone.

With --traced 1 it first wraps gravopt's layer boundaries (see
spans.py), and at the end writes the spans and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import hostspeed
import workloads


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_command(cli, command, tracer, command_id):
    """Issue one command; returns (seconds, exit code or None, error text)."""
    started = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(list(command.argv))
        else:
            code = tracer.command_span(command_id, cli.main, list(command.argv))
        error = None
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - started, code, error


def check(command) -> list[str]:
    """The command's output problems; a checker that raises is one too."""
    try:
        return workloads.check_outputs(command)
    except Exception as exc:  # malformed output must fail the command, not the run
        return [f"output check raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ready-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--outdir")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args(argv)

    import gravopt
    from gravopt import cli

    print("ready", flush=True)
    source = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if source not in Path(gravopt.__file__).resolve().parents:
        print(f"gravopt was imported from {gravopt.__file__}, not {source}", file=sys.stderr)
        return 3
    if args.ready_only:
        return 0

    import numpy
    from gravopt import engine

    tracer = None
    if args.traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, {"cli": cli, "engine": engine})

    commands = workloads.commands(args.workload, args.seed, args.outdir, args.scale)
    load_before = loadavg()
    records = []
    agents = workloads.REFERENCE_AGENTS[args.workload]
    for _ in range(3):  # the first reference runs are slower
        hostspeed.speed(agents)
    # A reference timed before any command runs in a fresher heap and
    # reads faster than the ones after commands, so the first command
    # takes the speed after it alone.
    before = None
    started = time.perf_counter()
    pass_index = 0
    # At least one whole pass, then stop after the command that runs out the time.
    while pass_index == 0 or time.perf_counter() - started < args.seconds:
        for command in commands:
            if pass_index and time.perf_counter() - started >= args.seconds:
                break
            command_id = len(records)
            seconds, code, error = run_command(cli, command, tracer, command_id)
            if error is not None:
                problems = [error]
            elif code != 0:
                problems = [f"exit code {code}"]
            else:
                problems = check(command)
            present = [p for p in command.outputs if os.path.exists(p)]
            # The host's speed while the command ran: the mean of the
            # speeds measured just before it and just after it.
            after = hostspeed.speed(agents)
            host_speed = after if before is None else (before + after) / 2
            records.append({
                "key": command.key,
                "kind": command.expect["kind"],
                "pass": pass_index,
                "seconds": seconds,
                "host_speed": host_speed,
                "exit_code": code,
                "problems": problems,
                "digests": {Path(p).name: workloads.sha256(p) for p in present},
                "csv_bytes": sum(os.path.getsize(p) for p in present),
                "agent_steps": command.agent_steps,
            })
            before = after
        pass_index += 1
    load_after = loadavg()

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "records": records,
        "peak_rss_kb": max(self_kb, children_kb),
        "context": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["per_layer"] = spans.per_layer(tracer, [r["csv_bytes"] for r in records])
        result["missing_targets"] = tracer.missing
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
