"""gravopt benchmark: one workload, end-to-end (--trace 0) or per-layer (--trace 1).

Run from the repository root:

    python3 perfbench/run.py --workload default-run --seed 1 --seconds 25 --trace 0

The load is a closed loop: one client issues the workload's CLI commands
one after another through ``gravopt.cli.main(argv)``, in a fresh worker
process (see worker.py): one whole pass, then more commands until
--seconds have passed. Every command's output is checked (see
workloads.py) and its CSV digests are compared with the digests pinned
in pins.json for this workload seed; for a seed with no pins, every
repeat of a command, and the traced pass, must reproduce the digests of
its first untraced run.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced
pass as the reference, then a traced pass, and prints the per-layer
metrics. The last line of stdout is the JSON result.

Set-up is timed as the median, over many fresh processes, of the time
from process start to ``gravopt.cli`` being imported. Half of them start
before the workload process and half after it, so the median spans the
whole run rather than the few seconds before it.

Every time behind an end-to-end metric is corrected for the host's
speed at that moment (see hostspeed.py); the uncorrected figures are
printed in the context line.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PINS = HERE / "pins.json"
DEFAULT_SEED = 1
SETUP_PROBES = 32
# Leaves the required exit within 180 s some slack for reading results.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "cmd_s": "s",
    "agent_steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "engine.step_us": "us",
    "engine.step_us.p99": "us",
    "engine.step_self_us": "us",
    "engine.rng_calls_per_step": "count",
    "engine.rng_draws_per_step": "count",
    "engine.force_us": "us",
    "engine.force_pairs_per_s": "1/s",
    "engine.force_bytes_computed": "B",
    "engine.masses_us": "us",
    "engine.kbest_us": "us",
    "engine.initialize_ms": "ms",
    "objectives.calls_per_step": "count",
    "objectives.eval_us_per_step": "us",
    "objectives.share": "ratio",
    "core.trace_records_per_run": "count",
    "core.trace_us_per_step": "us",
    "kernels.probe_ms": "ms",
    "experiments.cell_s.p50": "s",
    "experiments.cell_s.p90": "s",
    "experiments.worker_busy_ratio": "ratio",
    "experiments.pool_overhead_s": "s",
    "experiments.summarize_ms": "ms",
    "experiments.csv_write_ms": "ms",
    "experiments.csv_bytes": "B",
    "cli.self_ms": "ms",
    "trace_overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failure of gravopt)."""


class Harness:
    def __init__(self, root: Path, workdir: Path, scale: str):
        self.root = root
        self.workdir = workdir
        self.scale = scale
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        source = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [source] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env["PERFBENCH_SRC"] = source

    def spawn(self, *args: str) -> float:
        """Run worker.py to completion; returns seconds from start to 'ready'."""
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(WORKER), *args], cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            remaining = self.deadline - time.monotonic()
            readable, _, _ = select.select([process.stdout], [], [], max(remaining, 0))
            line = process.stdout.readline() if readable else ""
            ready = time.perf_counter() - started
            process.communicate(timeout=max(self.deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            raise HarnessError(f"worker {' '.join(args)} ran past the deadline") from None
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
        if line.strip() != "ready" or process.returncode != 0:
            raise HarnessError(f"worker {' '.join(args)} exited with {process.returncode}")
        return ready

    def workload(self, workload: str, seed: int, seconds: float,
                 traced: bool) -> tuple[float, dict]:
        tag = "traced" if traced else "untraced"
        outdir = self.workdir / tag
        outdir.mkdir(parents=True, exist_ok=True)
        result = self.workdir / f"{tag}.json"
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--scale", self.scale, "--outdir", str(outdir), "--result", str(result),
                "--traced", str(int(traced)), "--spans", str(self.workdir / "spans.npz")]
        ready = self.spawn(*args)
        return ready, json.loads(result.read_text(encoding="utf-8"))


def git_commit(root: Path) -> str:
    """The checkout's commit read from .git without running git, or 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_pins(path: Path, scale: str, workload: str, seed: int) -> dict | None:
    try:
        pins = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return pins.get(scale, {}).get(workload, {}).get(str(seed))


def judge(records: list[dict], pinned: dict | None) -> int:
    """Count failed commands; adds a digest problem to any mismatching record.

    The reference for each command is its pinned digests or, without
    pins, the digests of its first run (the untraced pass comes first).
    """
    reference = dict(pinned or {})
    failed = 0
    for record in records:
        expected = reference.setdefault(record["key"], record["digests"])
        if record["digests"] != expected:
            source = "pinned" if pinned else "first-run"
            record["problems"].append(f"digests differ from the {source} digests")
        failed += bool(record["problems"])
    return failed


def command_seconds(records: list[dict], correct: bool = True) -> list[float]:
    """Each command's wall time, corrected for host speed unless correct is False."""
    return [r["seconds"] * (r["host_speed"] if correct else 1.0) for r in records]


def steps_per_second(records: list[dict], correct: bool = True) -> float:
    """Agent steps over the summed time of every command issued."""
    steps = sum(r["agent_steps"] for r in records)
    return steps / sum(command_seconds(records, correct))


def seconds_per_command(records: list[dict], correct: bool = True) -> float:
    """Mean, over the workload's run and compare commands, of each one's median time.

    A pass mixes commands of different lengths (ackley runs take half as
    long again as sphere runs), so a median over all of them would jump
    between the short and the long ones; each command's own median does
    not. Probes take milliseconds and are left out.
    """
    timed = [r for r in records if r["kind"] != "probe"]
    by_key: dict[str, list[float]] = {}
    for record, seconds in zip(timed, command_seconds(timed, correct)):
        by_key.setdefault(record["key"], []).append(seconds)
    return statistics.fmean(statistics.median(values) for values in by_key.values())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="least time to measure, after one whole pass; 0 runs one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="workload sizes; 'tiny' is for the self-test")
    parser.add_argument("--workdir", default=".perfbench-work",
                        help="scratch directory for outputs, results and spans")
    parser.add_argument("--pins", default=str(PINS), help="pinned digests file")
    parser.add_argument("--write-pins", action="store_true",
                        help="run every workload once at --seed and pin its digests")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_pins:
        parser.error("--workload is required")
    return args


def write_pins(harness: Harness, args) -> int:
    path = Path(args.pins)
    pins = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in workloads.WORKLOADS:
        _, result = harness.workload(workload, args.seed, 0, traced=False)
        problems = [p for r in result["records"] for p in r["problems"]]
        if problems:
            print(f"{workload}: not pinning, outputs fail checks: {problems}", file=sys.stderr)
            return 1
        pins.setdefault(args.scale, {}).setdefault(workload, {})[str(args.seed)] = {
            r["key"]: r["digests"] for r in result["records"]
        }
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(workloads.WORKLOADS)} workloads at seed {args.seed} in {path}")
    return 0


def measure(harness: Harness, args) -> dict:
    # Set-up is an end-to-end metric, so only the untraced run probes it.
    probes = 0 if args.trace else SETUP_PROBES // 2
    # Each start-up is corrected by the host speed measured just before it.
    speeds, readies = [], []

    def probe():
        speeds.append(hostspeed.speed())
        readies.append(harness.spawn("--ready-only"))

    for _ in range(3):  # the first reference runs are slower
        hostspeed.speed()
    for _ in range(probes):
        probe()
    speeds.append(hostspeed.speed())
    # With --trace 1 the untraced pass is the reference and runs once.
    ready, untraced = harness.workload(args.workload, args.seed,
                                       0 if args.trace else args.seconds, traced=False)
    readies.append(ready)
    for _ in range(probes):
        probe()
    setup = [ready * speed for ready, speed in zip(readies, speeds)]
    records = list(untraced["records"])
    context = dict(untraced["context"])
    per_layer = {}
    absent = {}
    if args.trace:
        _, traced = harness.workload(args.workload, args.seed, args.seconds, traced=True)
        records += traced["records"]
        context["traced_loadavg_before"] = traced["context"]["loadavg_before"]
        context["traced_loadavg_after"] = traced["context"]["loadavg_after"]
        per_layer = dict(traced["per_layer"])
        per_layer["trace_overhead_ratio"] = (
            steps_per_second(traced["records"]) / steps_per_second(untraced["records"])
        )
        missing = traced["missing_targets"]
        for name, value in per_layer.items():
            if value is None:
                absent[name] = (f"targets not found: {', '.join(missing)}" if missing
                                else f"layer not exercised by {args.workload}")

    pinned = load_pins(Path(args.pins), args.scale, args.workload, args.seed)
    failed = judge(records, pinned)
    untraced_records = untraced["records"]
    if args.trace:
        per_layer["failed_ratio"] = failed / len(records)
        metrics = {name: (per_layer.get(name), unit) for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "cmd_s": seconds_per_command(untraced_records),
            "agent_steps_per_s": steps_per_second(untraced_records),
            "peak_rss_mb": untraced["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        context["cmd_samples"] = sum(r["kind"] != "probe" for r in untraced_records)
        context["uncorrected"] = {
            "setup_s": statistics.median(readies),
            "cmd_s": seconds_per_command(untraced_records, correct=False),
            "agent_steps_per_s": steps_per_second(untraced_records, correct=False),
        }
        context["host_speed_median"] = statistics.median(
            speeds + [r["host_speed"] for r in untraced_records])
        context["setup_samples"] = len(setup)
    context.update({
        "workload": args.workload,
        "workload_seed": args.seed,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(harness.root),
        "digest_reference": "pinned" if pinned else "first-run",
        "commands": len(untraced_records),
        "passes": len({r["pass"] for r in untraced_records}),
    })
    return {
        "records": records,
        "failed": failed,
        "metrics": metrics,
        "absent": absent,
        "context": context,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gravopt" / "cli.py").is_file():
        print(f"perfbench: no gravopt sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    workdir = Path(args.workdir).resolve() / (args.workload or "pins")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    harness = Harness(root, workdir, args.scale)
    try:
        if args.write_pins:
            return write_pins(harness, args)
        outcome = measure(harness, args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("# context " + json.dumps(outcome["context"], sort_keys=True))
    for record in outcome["records"]:
        for problem in record["problems"]:
            print(f"# FAILED {record['key']} (pass {record['pass']}): {problem}")
    for name, reason in outcome["absent"].items():
        print(f"# absent {name}: {reason}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name} = {value if value is not None else 'absent'} {unit}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": len(outcome["records"]),
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": 0.0 if value is None else value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
