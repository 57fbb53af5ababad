import io
import math
from dataclasses import replace

import numpy as np
import pytest

from gravopt import (
    ExperimentPlan,
    GsaConfig,
    KernelSpec,
    ProbeReport,
    make_objective,
    run_grid,
    summarize,
)
from gravopt.experiments import (
    PROBE_HEADER,
    RESULTS_HEADER,
    SUMMARY_HEADER,
    TRACE_HEADER,
    ResultRow,
    cell_config,
    derive_seed,
    fnv1a64,
    format_float,
    write_probe_csv,
    write_results_csv,
    write_summary_csv,
    write_trace_csv,
)
from gravopt import experiments, kernels
from gravopt.engine import run
from gravopt.kernels import forces
from gravopt.objectives import sphere


def small_plan(kernels=None, objectives=None, repetitions=2, iters=5):
    base = GsaConfig(
        population=6,
        dims=2,
        lower_bound=np.full(2, -1.0),
        upper_bound=np.full(2, 1.0),
        kernel=KernelSpec(0.0),
        max_iters=iters,
        seed=99,
    )
    if kernels is None:
        kernels = (KernelSpec(0.0), KernelSpec(2.0))
    if objectives is None:
        objectives = (make_objective("sphere", 3), make_objective("rastrigin", 3))
    return ExperimentPlan(
        base_config=base,
        kernels=kernels,
        objectives=objectives,
        repetitions=repetitions,
    )


def make_row(kernel="original", objective="sphere", rep=0, final=1.0):
    return ResultRow(
        kernel=kernel,
        objective=objective,
        repetition=rep,
        seed=derive_seed(99, kernel, objective, rep),
        final_best=final,
        iters=5,
        wall_seconds=0.1,
    )


#: One entry per part that a ``forces`` call of this process handed to a
#: pool thread, while ``counted_thread_pool`` stands in for the pool.
pool_parts = []
real_thread_pool = kernels._thread_pool


def counted_thread_pool():
    """``forces`` asks for the pool once per part it does not run itself."""
    pool_parts.append(None)
    return real_thread_pool()


def force_parts_and_rows(cell):
    """Stands in for a grid cell: the number of parts a force call big
    enough to split (300 x 300 x 30) runs in, and its rows."""
    pool_parts.clear()
    rng = np.random.Generator(np.random.PCG64(3))
    positions = rng.uniform(-1.0, 1.0, (300, 30))
    masses = rng.uniform(0.1, 1.0, 300)
    rows = forces(positions, masses, 1.0, KernelSpec(2.0), np.arange(300),
                  rng.random((300, 300)))
    return 1 + len(pool_parts), rows


class TestSeedDerivation:
    def test_fnv1a64_published_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_seed_reconstructible_and_in_range(self):
        seed = derive_seed(42, "square", "ackley", 7)
        assert seed == derive_seed(42, "square", "ackley", 7)
        assert 0 <= seed < 2**64

    def test_cells_get_distinct_seeds(self):
        seeds = {
            derive_seed(5, kernel, objective, rep)
            for kernel in ("original", "linear", "square")
            for objective in ("sphere", "ackley")
            for rep in range(10)
        }
        assert len(seeds) == 60


class TestPlan:
    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError):
            small_plan(kernels=())
        with pytest.raises(ValueError):
            small_plan(objectives=())
        with pytest.raises(ValueError):
            small_plan(repetitions=0)

    def test_cell_config_uses_objective_box_and_derived_seed(self):
        plan = small_plan()
        kernel = plan.kernels[1]
        objective = plan.objectives[1]  # rastrigin, +-5.12
        config = cell_config(plan, kernel, objective, 1)
        assert config.kernel == kernel
        assert config.dims == 3
        assert np.all(config.lower_bound == -5.12)
        assert np.all(config.upper_bound == 5.12)
        assert config.seed == derive_seed(99, kernel.name, objective.name, 1)


@pytest.fixture
def serial_pool(monkeypatch):
    """Runs a grid's pool in this process; yields the worker counts asked for."""
    started = []

    class SerialPool:
        def __init__(self, max_workers, **options):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("gravopt.experiments.ProcessPoolExecutor", SerialPool)
    return started


class TestRunGrid:
    def test_single_cell(self):
        plan = small_plan(
            kernels=(KernelSpec(0.0),),
            objectives=(make_objective("sphere", 2),),
            repetitions=1,
        )
        rows = run_grid(plan)
        assert len(rows) == 1

    def test_grid_product_and_order(self):
        plan = small_plan(repetitions=3)
        rows = run_grid(plan)
        assert len(rows) == 2 * 2 * 3
        expected_order = [
            (objective.name, kernel.name, rep)
            for objective in plan.objectives
            for kernel in plan.kernels
            for rep in range(3)
        ]
        assert [(r.objective, r.kernel, r.repetition) for r in rows] == expected_order

    def test_deterministic_apart_from_wall_clock(self):
        plan = small_plan()
        first = run_grid(plan)
        second = run_grid(plan)
        for a, b in zip(first, second):
            assert (a.kernel, a.objective, a.repetition, a.seed) == (
                b.kernel,
                b.objective,
                b.repetition,
                b.seed,
            )
            assert a.final_best == b.final_best
            assert a.iters == b.iters

    def test_parallel_matches_serial(self):
        plan = small_plan()
        serial = run_grid(plan, jobs=1)
        parallel = run_grid(plan, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.final_best == b.final_best
            assert a.seed == b.seed

    def test_pool_never_larger_than_grid(self, serial_pool):
        plan = small_plan()  # 2 kernels x 2 objectives x 2 reps = 8 cells
        pooled = run_grid(plan, jobs=500)
        assert serial_pool == [8]
        untimed = [replace(row, wall_seconds=0.0) for row in pooled]
        assert untimed == [replace(row, wall_seconds=0.0) for row in run_grid(plan, jobs=1)]

    def test_jobs_zero_is_one_per_usable_core(self, serial_pool, monkeypatch):
        plan = small_plan()  # 8 cells
        for cores in (3, 20):
            monkeypatch.setattr(experiments, "usable_cores", lambda: cores)
            run_grid(plan, jobs=0)
        assert serial_pool == [3, 8]

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match=r"--jobs must be >= 0 \(0 = one per usable core\), "
                                             "got -1"):
            run_grid(small_plan(), jobs=-1)

    def test_pool_workers_split_forces_over_their_share_of_cores(self, monkeypatch):
        # the pool forks after the patches, so its workers see them too
        monkeypatch.setattr(kernels, "usable_cores", lambda: 5)
        monkeypatch.setattr(kernels, "_thread_pool", counted_thread_pool)
        monkeypatch.setattr(experiments, "_run_cell", force_parts_and_rows)
        pooled = run_grid(small_plan(repetitions=1), jobs=2)
        monkeypatch.setattr(kernels, "usable_cores", lambda: 1)
        parts, serial = force_parts_and_rows(None)
        assert parts == 1
        assert [parts for parts, _ in pooled] == [2] * 4  # 5 cores // 2 workers
        assert all(np.array_equal(rows, serial) for _, rows in pooled)

    def test_single_cell_never_starts_a_pool(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError(f"pool of {max_workers} started for one cell")

        monkeypatch.setattr("gravopt.experiments.ProcessPoolExecutor", no_pool)
        plan = small_plan(
            kernels=(KernelSpec(0.0),),
            objectives=(make_objective("sphere", 2),),
            repetitions=1,
        )
        (row,) = run_grid(plan, jobs=8)
        assert row.final_best == run_grid(plan, jobs=1)[0].final_best

    def test_row_seed_reconstructible_from_plan(self):
        plan = small_plan()
        for row in run_grid(plan):
            assert row.seed == derive_seed(
                plan.base_config.seed, row.kernel, row.objective, row.repetition
            )

    def test_row_matches_direct_run(self):
        plan = small_plan(repetitions=1)
        row = run_grid(plan)[0]
        config = cell_config(plan, plan.kernels[0], plan.objectives[0], 0)
        trace = run(config, sphere)
        assert row.final_best == trace.final_best


class TestSummarize:
    def test_singleton_statistics(self):
        summary = summarize([make_row(final=3.5)])
        row = summary.rows[0]
        assert row.median == 3.5
        assert row.mean == 3.5
        assert row.std == 0.0
        assert row.minimum == row.maximum == 3.5

    def test_hand_computed_statistics(self):
        rows = [make_row(rep=i, final=v) for i, v in enumerate([1.0, 2.0, 100.0])]
        summary = summarize(rows)
        row = summary.rows[0]
        assert row.median == 2.0
        assert row.mean == pytest.approx(103.0 / 3.0, rel=1e-15)
        assert row.minimum == 1.0
        assert row.maximum == 100.0

    def test_all_ties_yield_zero_wins(self):
        rows = [make_row(kernel=k, rep=i, final=7.0) for k in ("original", "square") for i in range(4)]
        summary = summarize(rows)
        wc = summary.win_counts[0]
        assert (wc.wins_a, wc.wins_b, wc.ties) == (0, 0, 4)

    def test_win_counts_sum_to_reps(self):
        rng = np.random.Generator(np.random.PCG64(3)); reps = 9
        rows = [
            make_row(kernel=k, objective=o, rep=i, final=float(rng.random()))
            for k in ("original", "linear", "square")
            for o in ("sphere", "ackley")
            for i in range(reps)
        ]
        summary = summarize(rows)
        assert len(summary.win_counts) == 3 * 2  # 3 kernel pairs x 2 objectives
        for wc in summary.win_counts:
            assert wc.wins_a + wc.wins_b + wc.ties == reps

    def test_permutation_invariance(self):
        rng = np.random.Generator(np.random.PCG64(4))
        rows = [
            make_row(kernel=k, objective=o, rep=i, final=float(rng.random()))
            for k in ("original", "square")
            for o in ("sphere", "rastrigin")
            for i in range(5)
        ]
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert summarize(rows) == summarize(shuffled)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCsvFormats:
    def test_results_header_and_rows(self):
        buffer = io.StringIO()
        write_results_csv([make_row(final=0.5)], buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == RESULTS_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "original"
        assert fields[1] == "sphere"
        assert fields[4] == "0.5"
        assert fields[6] == "0.1"

    def test_results_without_timing_writes_zero(self):
        buffer = io.StringIO()
        write_results_csv([make_row()], buffer, include_timing=False)
        assert buffer.getvalue().splitlines()[1].endswith(",0")

    def test_summary_header(self):
        buffer = io.StringIO()
        write_summary_csv(summarize([make_row()]), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert lines[1].startswith("original,sphere,")

    def test_trace_csv_header_records_setup(self):
        config = GsaConfig(
            population=4,
            dims=2,
            lower_bound=np.full(2, -1.0),
            upper_bound=np.full(2, 1.0),
            kernel=KernelSpec(2.0, 1e-9),
            max_iters=3,
            seed=21,
        )
        trace = run(config, sphere)
        buffer = io.StringIO()
        write_trace_csv(trace, config, buffer)
        text = buffer.getvalue()
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        assert any("rng=numpy-pcg64" in line for line in comments)
        assert any("kernel=square" in line for line in comments)
        assert any("g0=100.0" in line for line in comments)
        assert any("seed=21" in line for line in comments)
        header_idx = lines.index(TRACE_HEADER)
        assert len(lines) - header_idx - 1 == 3  # one row per iteration

    def test_probe_csv_footer(self):
        report = ProbeReport(
            samples=((1.0, 2.0), (10.0, 2.0)),
            fitted_slope=0.0,
            fitted_intercept=math.log(2.0),
            max_residual=0.0,
        )
        buffer = io.StringIO()
        write_probe_csv(report, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == PROBE_HEADER
        assert lines[1] == "1.0,2.0"
        assert lines[-1].startswith("# slope=0.0 intercept=")
        assert "max_residual=0.0" in lines[-1]

    def test_format_float_round_trips(self):
        for value in (0.1, 1e-30, 12345.6789, 2.0 / 3.0):
            assert float(format_float(value)) == value
