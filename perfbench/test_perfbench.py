"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def bench(tmp_path, *args, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--scale", "tiny", "--seconds", "0",
         "--workdir", str(tmp_path / "work"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return completed


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload):
    untraced = result_of(bench(tmp_path, "--workload", workload, "--trace", "0"))
    traced = result_of(bench(tmp_path, "--workload", workload, "--trace", "1"))
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reproduces_untraced_digests(tmp_path, workload):
    result_of(bench(tmp_path, "--workload", workload, "--trace", "1"))
    work = tmp_path / "work" / workload
    digests = {}
    for tag in ("untraced", "traced"):
        records = json.loads((work / f"{tag}.json").read_text())["records"]
        digests[tag] = {r["key"]: r["digests"] for r in records if r["pass"] == 0}
    assert digests["untraced"] and digests["traced"] == digests["untraced"]


def test_corrupted_pinned_digest_counts_as_failure(tmp_path):
    pins = tmp_path / "pins.json"
    written = bench(tmp_path, "--write-pins", "--pins", str(pins))
    assert written.returncode == 0, written.stderr
    clean = bench(tmp_path, "--workload", "default-run", "--pins", str(pins))
    assert result_of(clean)["failed"] == 0
    assert '"digest_reference": "pinned"' in clean.stdout

    data = json.loads(pins.read_text())
    files = data["tiny"]["default-run"]["1"]["run/square/rastrigin"]
    name = next(iter(files))
    files[name] = "0" * 64
    pins.write_text(json.dumps(data))
    result = result_of(bench(tmp_path, "--workload", "default-run", "--pins", str(pins)))
    assert result["failed"] == 1 and not result["correct"]


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default-run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_trace_check_rejects_rising_best():
    expect = {"kernel": "original", "seed": 5, "pop": 4, "dims": 2, "iters": 2}
    header = ("# rng=numpy-pcg64\n# kernel=original epsilon=1e-12\n"
              "# g0=100.0 alpha=20.0 max_iters=2 population=4 dims=2\n"
              "# kbest_initial_fraction=1.0 deterministic_weights=false seed=5\n"
              + workloads.TRACE_HEADER + "\n")
    assert workloads.check_trace(header + "1,2.0,2.0,3.0\n2,1.0,1.0,2.0\n", expect) == []
    problems = workloads.check_trace(header + "1,1.0,1.0,3.0\n2,2.0,2.0,2.0\n", expect)
    assert problems == ["best_so_far rises at iteration 2"]


def test_trace_check_matches_whole_header_tokens():
    expect = {"kernel": "original", "seed": 12, "pop": 4, "dims": 3, "iters": 1}
    header = ("# rng=numpy-pcg64\n# kernel=original epsilon=1e-12\n"
              "# g0=100.0 alpha=20.0 max_iters=1 population=4 dims=30\n"
              "# kbest_initial_fraction=1.0 deterministic_weights=false seed=123\n"
              + workloads.TRACE_HEADER + "\n1,1.0,1.0,2.0\n")
    problems = workloads.check_trace(header, expect)
    assert problems == ["trace header lacks 'dims=3'", "trace header lacks 'seed=12'"]


def test_malformed_output_fails_the_command(tmp_path):
    out = tmp_path / "probe-original.csv"
    rows = "".join(f"{r},1.0\n" for r in range(1, workloads.PROBE_POINTS + 1))
    out.write_text("r,magnitude\n" + rows + "# slope\n")
    command = workloads.Command("probe/original", (), (str(out),), 0,
                                {"kind": "probe", "kernel": "original"})
    problems = worker.check(command)
    assert len(problems) == 1 and problems[0].startswith("output check raised ValueError")


def test_missing_targets_are_listed_not_fatal():
    tracer = spans.Tracer()
    spans.install(tracer, {"cli": types.SimpleNamespace(), "engine": types.SimpleNamespace()})
    assert "engine.step" in tracer.missing and "cli.run" in tracer.missing
    metrics = spans.per_layer(tracer, [])
    assert metrics["engine.step_us"] is None and metrics["cli.self_ms"] is None


def test_command_time_is_corrected_per_command_then_averaged_over_keys():
    fast = 2.0  # the host ran at twice its usual speed

    def record(key, seconds, speed, kind="run"):
        return {"key": key, "kind": kind, "seconds": seconds, "host_speed": speed,
                "agent_steps": 0 if kind == "probe" else 100}

    records = [record("a", 1.0, fast), record("a", 3.0, fast), record("a", 0.5, fast),
               record("b", 2.0, 1.0), record("p", 9.0, fast, "probe")]
    # a: median 1.0 s at double speed reads 2.0 s; b reads 2.0 s; the probe is left out.
    assert run.seconds_per_command(records) == pytest.approx(2.0)
    assert run.seconds_per_command(records, correct=False) == pytest.approx(1.5)
    assert run.steps_per_second(records) == pytest.approx(400 / (2 * 13.5 + 2.0))
