"""Golden outputs: SHA-256 digests of run traces and probe CSVs.

The digests pin the exact bytes the CLI writes, so a refactor of the
force path or the step that changes any number, even in the last bit,
fails here. They were taken with float64 numpy arithmetic on x86-64
Linux; regenerate them only in a change that is meant to alter results.
"""

import hashlib

import numpy as np
import pytest

from gravopt import GsaConfig, KernelSpec, make_objective, run
from gravopt.cli import main as cli_main
from gravopt.experiments import write_trace_csv

RUN_ARGS = ["--pop", "10", "--dims", "4", "--iters", "50", "--seed", "2024"]

RUN_DIGESTS = {
    ("original", "stochastic", "sphere"): "5a99c197cab41f4d77917cc2915dffa00292a3c587e54ca8089ebcd5e7c3b75d",
    ("original", "stochastic", "rastrigin"): "a78bbfa9a40904c0b67ab2d4c1eb4ec85bc7e84c000074fcad27546acf652932",
    ("original", "deterministic", "sphere"): "8dcbe26345dd257fead4e58a56a0362959e6c17868a3118f9d525715487434a1",
    ("original", "deterministic", "rastrigin"): "ba5da0d9ed25ef238a047d90ccbe44d34c7d62d655abdfcc1004ccad439fff28",
    ("linear", "stochastic", "sphere"): "b8b5b4bd18323d602d40749025fbb51bcff8c25bbd80f186683a52386cf867a0",
    ("linear", "stochastic", "rastrigin"): "cbe5eb63da82f9fc0de837b2bfb8682407fbf2ea05fcfa25fecf8d9d8270996d",
    ("linear", "deterministic", "sphere"): "f7769658709956ff71640065a7f3013c9dffe8547769e6865f6ccf4bbf8e831e",
    ("linear", "deterministic", "rastrigin"): "d05f69c7225e38a4853c3a7829d4d2744df461aa90e78bbb5f7d6783fdf0c03f",
    ("square", "stochastic", "sphere"): "749327a58e01a0237181f750de57f1b19493606a179bccfaff19b5508e02004f",
    ("square", "stochastic", "rastrigin"): "59206df969cf9dcc993a7bcf6324046f6ee48f2b75fe7da8c090677e54af00b5",
    ("square", "deterministic", "sphere"): "017f7438d2fb6d1fd9250186ae53abcf3e9b97c04b1963ba9044597392737a0b",
    ("square", "deterministic", "rastrigin"): "6c5421ad0940a15beb3a937b97f49116fb2cde7753737d64a3f7a47fbde94835",
}

PROBE_DIGESTS = {
    "original": "1fb084aba451ccaa513ebdfd9fbb9e6f3e7b8cef9578be1fb573e394d5b59212",
    "linear": "dd0e5413890ef5105500a47b7c59e7e63bd9fff4cbf2a347a265360bc7eff7b6",
    "square": "9e8194614c9c5cc4e817b08a82904f180c3dbb02ae015a88f02b8e1c3de8fe85",
}

# kbest_initial_fraction = 0.3 leaves most agents outside Kbest, so their
# rows of the force weight matrix hold no draws.
PARTIAL_KBEST_DIGEST = "b9e9ec9e41569fab1ff10827d04c2a1f97ce887279b3555408c4cd7cf61e0f99"

# A 600 x 30 swarm: every force evaluation spans many row blocks.
LARGE_SWARM_ARGS = ["--kernel", "square", "--function", "rastrigin", "--pop", "600",
                    "--dims", "30", "--iters", "5", "--seed", "2024"]
LARGE_SWARM_DIGEST = "704bc7166bbe5b463c822518259b9dc6030efa55bae18ec3146c0c27b1d703fa"

# With dims = 1 the force sum over Kbest columns reduces a 1-wide axis,
# which numpy's einsum groups differently from the d >= 2 case.
ONE_DIM_ARGS = ["--function", "rastrigin", "--pop", "10", "--dims", "1", "--iters", "50",
                "--seed", "2024"]
ONE_DIM_DIGESTS = {
    "original": "10c887d94aae77cf6598939a04a19819624f600e0fcaa9ee5051fcc41f4b4590",
    "square": "18491963085fa2ed24ba3bde90f75efbffe2c84a1c0e35d78beec3324669ee03",
}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kernel, weights, function", sorted(RUN_DIGESTS))
def test_run_trace_digest(tmp_path, kernel, weights, function):
    out = tmp_path / "trace.csv"
    argv = ["run", "--kernel", kernel, "--function", function, *RUN_ARGS,
            "--trace", str(out)]
    if weights == "deterministic":
        argv.append("--deterministic")
    assert cli_main(argv) == 0
    assert digest(out) == RUN_DIGESTS[(kernel, weights, function)]


@pytest.mark.parametrize("kernel", sorted(PROBE_DIGESTS))
def test_probe_digest(tmp_path, kernel):
    out = tmp_path / "probe.csv"
    assert cli_main(["probe", "--kernel", kernel, "--epsilon", "0", "--out", str(out)]) == 0
    assert digest(out) == PROBE_DIGESTS[kernel]


def test_partial_kbest_trace_digest(tmp_path):
    objective = make_objective("rastrigin", 4)
    config = GsaConfig(
        population=10,
        dims=4,
        lower_bound=np.full(4, objective.default_lower),
        upper_bound=np.full(4, objective.default_upper),
        kernel=KernelSpec(1.0),
        max_iters=50,
        kbest_initial_fraction=0.3,
        seed=2024,
    )
    out = tmp_path / "trace.csv"
    write_trace_csv(run(config, objective.function), config, out)
    assert digest(out) == PARTIAL_KBEST_DIGEST


def test_large_swarm_trace_digest(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli_main(["run", *LARGE_SWARM_ARGS, "--trace", str(out)]) == 0
    assert digest(out) == LARGE_SWARM_DIGEST


@pytest.mark.parametrize("kernel", sorted(ONE_DIM_DIGESTS))
def test_one_dim_trace_digest(tmp_path, kernel):
    out = tmp_path / "trace.csv"
    assert cli_main(["run", "--kernel", kernel, *ONE_DIM_ARGS, "--trace", str(out)]) == 0
    assert digest(out) == ONE_DIM_DIGESTS[kernel]
