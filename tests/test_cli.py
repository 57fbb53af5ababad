import filecmp
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gravopt
from gravopt import GsaConfig, cli, experiments

# Each command's flags, in --help order.
COMMAND_FLAGS = {
    "run": ["--kernel", "--epsilon", "--g0", "--alpha", "--pop", "--dims", "--iters",
            "--seed", "--function", "--deterministic", "--trace", "--config"],
    "probe": ["--kernel", "--epsilon", "--g0", "--out", "--config"],
    "compare": ["--epsilon", "--g0", "--alpha", "--pop", "--dims", "--iters", "--seed",
                "--reps", "--deterministic", "--out", "--no-timing", "--jobs", "--config"],
}

# The default each flag whose dest is a settings key prints in --help.
PRINTED_DEFAULTS = {
    "--kernel": "original",
    "--epsilon": "1e-12",
    "--g0": "100.0",
    "--alpha": "20.0",
    "--pop": "50",
    "--dims": "30",
    "--iters": "1000",
    "--seed": "42",
    "--function": "sphere",
    "--reps": "25",
    "--deterministic": "off",
}


def read(path):
    return path.read_text(encoding="utf-8")


# The tiny sizes small_argv passes, by settings key.
SMALL_SIZES = {"population": 4, "dims": 2, "max_iters": 2, "repetitions": 1}

# A value other than the default for each setting that has a flag.
OTHER_VALUES = {
    "kernel": "power:1.5",
    "epsilon": 1e-3,
    "g0": 50.0,
    "alpha": 10.0,
    "population": 5,
    "dims": 3,
    "max_iters": 3,
    "seed": 7,
    "function": "rastrigin",
    "repetitions": 2,
    "deterministic_weights": True,
}


def small_argv(command, tmp_path, out="out.csv", omit=None):
    """Flags that keep ``command`` quick and its output in tmp_path,
    leaving the size setting ``omit`` at its default or config value."""
    out = str(tmp_path / out)
    size = [arg for key, value in SMALL_SIZES.items()
            if key != omit and command in cli.SETTINGS[key].commands
            for arg in (cli.SETTINGS[key].flag, str(value))]
    return {
        "run": [*size, "--trace", out],
        "probe": ["--out", out],
        "compare": [*size, "--no-timing", "--jobs", "1", "--out", out],
    }[command]


def help_entries(command, capsys):
    """Each option of ``command --help`` but -h, its wrapped help joined
    onto one line."""
    assert cli.main([command, "--help"]) == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    # the split leaves an empty piece before -h, --help
    return [" ".join(entry.split()) for entry in re.split(r"\n  (?=-)", options)][2:]


def probe_footer(path):
    footer = read(path).splitlines()[-1]
    assert footer.startswith("# slope=")
    parts = dict(item.split("=") for item in footer[2:].split(" "))
    return {key: float(value) for key, value in parts.items()}


class TestParsing:
    def test_run_with_defaults_filled(self, tmp_path):
        trace = tmp_path / "t.csv"
        code = cli.main(
            ["run", "--function", "sphere", "--dims", "2", "--seed", "7",
             "--pop", "4", "--iters", "2", "--trace", str(trace)]
        )
        assert code == 0
        text = read(trace)
        assert "kernel=original" in text  # default kernel applied
        assert "g0=100.0" in text

    def test_power_kernel_accepted(self, tmp_path):
        out = tmp_path / "p.csv"
        assert cli.main(
            ["probe", "--kernel", "power:1.5", "--epsilon", "0", "--out", str(out)]
        ) == 0
        assert probe_footer(out)["slope"] == pytest.approx(-1.5, abs=1e-9)

    def test_unknown_kernel_rejected(self, capsys):
        assert cli.main(["run", "--kernel", "cubic"]) == 2
        err = capsys.readouterr().err
        assert "original" in err and "square" in err and "power:<q>" in err

    def test_bad_power_exponent_rejected(self):
        assert cli.main(["run", "--kernel", "power:abc"]) == 2

    def test_unknown_flag_rejected(self):
        assert cli.main(["run", "--frobnicate", "1"]) == 2

    def test_missing_subcommand_rejected(self):
        assert cli.main([]) == 2

    def test_module_runs_its_command(self, tmp_path):
        out = tmp_path / "p.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(gravopt.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "gravopt.cli", "probe", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert read(out).startswith("r,magnitude\n")

    def test_bench_is_not_a_command(self, capsys):
        assert cli.main(["bench"]) == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "argv, message",
        [(["--pop", "1"], "population >= 2"), (["--dims", "0"], "dims >= 1")],
    )
    def test_invalid_size_rejected(self, command, argv, message, capsys):
        assert cli.main([command, *argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--function", "rosenbrock", "--iters", "2", "--pop", "4", "--trace"],
        ["compare", "--reps", "1", "--iters", "2", "--pop", "4", "--jobs", "1", "--out"],
    ], ids=["run", "compare"])
    def test_one_dim_rosenbrock_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli.main([*argv, str(out), "--dims", "1"]) == 2
        assert capsys.readouterr().err == (
            "gravopt: error: objective 'rosenbrock' needs dims >= 2, got 1\n")
        assert not out.exists()

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_help_lists_every_flag_with_default(self, capsys):
        for command, flags in COMMAND_FLAGS.items():
            for flag, entry in zip(flags, help_entries(command, capsys)):
                assert entry.split()[0] == flag
                assert "(default: " in entry, f"{flag} help lacks its default"
                if flag in PRINTED_DEFAULTS:
                    assert entry.endswith(f"(default: {PRINTED_DEFAULTS[flag]})"), entry

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_exactly_the_command_flags(self, command, capsys):
        listed = [entry.split()[0] for entry in help_entries(command, capsys)]
        assert listed == COMMAND_FLAGS[command]
        table = [s.flag for s in cli.SETTINGS.values() if s.flag and command in s.commands]
        assert [flag for flag in listed if flag in table] == table


class TestConfigFile:
    def test_flags_override_config_which_overrides_defaults(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"population": 8, "max_iters": 3, "function": "rastrigin"})
        )
        trace = tmp_path / "t.csv"
        code = cli.main(
            ["run", "--config", str(config), "--pop", "6", "--dims", "2",
             "--trace", str(trace)]
        )
        assert code == 0
        text = read(trace)
        assert "population=6" in text      # flag wins over config
        assert "max_iters=3" in text       # config wins over default
        assert "alpha=20.0" in text        # default survives

    def test_kernel_and_epsilon_in_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"kernel": "power:1.5", "epsilon": 0.0}))
        out = tmp_path / "p.csv"
        assert cli.main(["probe", "--config", str(config), "--out", str(out)]) == 0
        assert probe_footer(out)["slope"] == pytest.approx(-1.5, abs=1e-9)

    def test_probe_grid_override(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"probe_r_values": [1.0, 10.0, 100.0]}))
        out = tmp_path / "p.csv"
        assert cli.main(
            ["probe", "--kernel", "linear", "--epsilon", "0",
             "--config", str(config), "--out", str(out)]
        ) == 0
        lines = read(out).splitlines()
        assert len(lines) == 1 + 3 + 1  # header, three samples, footer

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"popsize": 10}))
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "popsize" in capsys.readouterr().err

    def test_record_positions_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"record_positions": False}))
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "record_positions" in capsys.readouterr().err

    def test_missing_config_file_is_io_failure(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 4

    def test_malformed_json_is_usage_error(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{not json")
        assert cli.main(["run", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [(key, value)
         for key in ("population", "dims", "max_iters", "seed", "repetitions")
         for value in (4.9, "4", True, None)]
        + [("deterministic_weights", value) for value in ("false", 0, None)]
        + [(key, value)
           for key in ("g0", "alpha", "kbest_initial_fraction")
           for value in (True, False, "4", None)]
        + [("lower_bound", [False, False]), ("upper_bound", [True, True]),
           ("probe_r_values", [True, 2.0, 3.0]), ("lower_bound", ["-1", "-1"]),
           ("upper_bound", 1.0), ("probe_r_values", None)]
        + [("kernel", value) for value in (None, {}, 2)] + [("function", 3)]
        + [("epsilon", value) for value in (True, False, "1e-12", None)]
        # the kernel object older config files used
        + [("kernel", {"kind": "power", "exponent": 1.5, "epsilon": 0.0})],
    )
    def test_mistyped_value_rejected(self, key, value, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}))
        command = cli.SETTINGS[key].commands[0]
        assert cli.main([command, "--config", str(config), *small_argv(command, tmp_path)]) == 2
        assert f"config key '{key}' must be" in capsys.readouterr().err

    def test_every_run_setting_is_a_config_key(self):
        # a new GsaConfig field must be declared in SETTINGS, read by
        # run, before a config file or flag can set it
        run_keys = {key for key, setting in cli.SETTINGS.items() if "run" in setting.commands}
        assert {field.name for field in fields(GsaConfig)} <= run_keys

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command in ("run", "probe", "compare")
         for key, setting in cli.SETTINGS.items() if command not in setting.commands],
    )
    def test_unread_config_key_rejected(self, command, key, tmp_path, capsys):
        # a well-typed value, so only the command's reading of it can fail
        value = cli.SETTINGS[key].default
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: [1.0, 2.0] if value is None else value}))
        assert cli.main([command, "--config", str(config), *small_argv(command, tmp_path)]) == 2
        assert f"{command} does not read config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_compare_takes_epsilon(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"epsilon": 0}))
        argv = ["compare", "--config", str(config), *small_argv("compare", tmp_path)]
        assert cli.main(argv) == 0
        assert "epsilon=0.0 " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for key, setting in cli.SETTINGS.items() if setting.flag
         for command in setting.commands],
    )
    def test_config_key_matches_flag(self, command, key, tmp_path):
        value = OTHER_VALUES[key]
        flag = [cli.SETTINGS[key].flag]
        if not isinstance(value, bool):
            flag.append(str(value))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}))
        # "a" from the default, "b" from the flag, "c" from the config file
        assert cli.main([command, *small_argv(command, tmp_path, "a.csv", key)]) == 0
        assert cli.main([command, *flag, *small_argv(command, tmp_path, "b.csv", key)]) == 0
        assert cli.main([command, "--config", str(config),
                         *small_argv(command, tmp_path, "c.csv", key)]) == 0
        suffixes = ["", "_summary"] if command == "compare" else [""]
        outputs = {name: [read(tmp_path / f"{name}{suffix}.csv") for suffix in suffixes]
                   for name in "abc"}
        assert outputs["b"] == outputs["c"] != outputs["a"]

    def test_readme_config_example_names_every_setting(self):
        readme = read(Path(__file__).parents[1] / "README.md")
        section = readme.split("### JSON config", 1)[1]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        assert set(re.findall(r'"(\w+)":', example)) == set(cli.SETTINGS)

    def test_boolean_g0_and_alpha_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"g0": True, "alpha": False}))
        trace = tmp_path / "t.csv"
        small = ["--pop", "4", "--dims", "2", "--iters", "2", "--trace", str(trace)]
        assert cli.main(["run", "--config", str(config), *small]) == 2
        assert "config key 'g0' must be a number, got True" in capsys.readouterr().err
        assert not trace.exists()

    def test_integral_values_keep_their_meaning(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(
            {"population": 5.0, "dims": 2, "max_iters": 2, "deterministic_weights": True}
        ))
        trace = tmp_path / "t.csv"
        assert cli.main(["run", "--config", str(config), "--trace", str(trace)]) == 0
        text = read(trace)
        assert "population=5 " in text and "deterministic_weights=true" in text

    def test_explicit_bounds_from_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"lower_bound": [-2.0, -2.0], "upper_bound": [2.0, 2.0]})
        )
        trace = tmp_path / "t.csv"
        assert cli.main(
            ["run", "--config", str(config), "--dims", "2", "--pop", "4",
             "--iters", "2", "--trace", str(trace)]
        ) == 0


    def test_box_too_wide_for_float64_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(
            {"dims": 2, "lower_bound": [-1e308, -1e308], "upper_bound": [1e308, 1e308]}
        ))
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "upper_bound - lower_bound" in capsys.readouterr().err


class TestProbeCommand:
    def test_original_footer_slope_zero(self, tmp_path):
        out = tmp_path / "p.csv"
        assert cli.main(
            ["probe", "--kernel", "original", "--epsilon", "0", "--out", str(out)]
        ) == 0
        footer = probe_footer(out)
        assert abs(footer["slope"]) < 1e-9
        assert footer["max_residual"] < 1e-9

    def test_square_footer_slope(self, tmp_path):
        out = tmp_path / "p.csv"
        assert cli.main(
            ["probe", "--kernel", "square", "--epsilon", "0", "--out", str(out)]
        ) == 0
        assert probe_footer(out)["slope"] == pytest.approx(-2.0, abs=1e-9)

    def test_default_grid_has_25_samples(self, tmp_path):
        out = tmp_path / "p.csv"
        assert cli.main(["probe", "--out", str(out)]) == 0
        assert len(read(out).splitlines()) == 1 + 25 + 1

    @pytest.mark.parametrize("kernel, slope", [("original", 0.0), ("linear", -1.0),
                                               ("square", -2.0)])
    def test_large_g0_with_finite_forces(self, kernel, slope, tmp_path):
        # every force is finite, though its square overflows at short range
        out = tmp_path / "p.csv"
        assert cli.main(["probe", "--kernel", kernel, "--g0", "1e160", "--out", str(out)]) == 0
        assert probe_footer(out)["slope"] == pytest.approx(slope, abs=1e-3)

    @pytest.mark.parametrize("argv, code, err", [
        (["--g0", "1e300", "--kernel", "square"], 3,
         "gravopt: numeric failure: force overflow; increase epsilon\n"),
        (["--g0", "1e300"], 0, ""),
        (["--kernel", "power:400"], 2,
         "gravopt: error: zero force magnitude encountered during probe\n"),
    ])
    def test_overflow_prints_no_warning(self, argv, code, err, capsys):
        # the self-pair's masked coefficient overflows at G = 1e300, and
        # R**401 at long range; the suite turns a RuntimeWarning into an error
        assert cli.main(["probe", *argv]) == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("g0", ["0", "-1", "nan", "inf"])
    def test_bad_g0_rejected(self, g0, capsys):
        assert cli.main(["probe", "--g0", g0]) == 2
        assert "G must be finite and > 0" in capsys.readouterr().err

    def test_stdout_when_no_out(self, capsys):
        assert cli.main(["probe", "--kernel", "linear", "--epsilon", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("r,magnitude")
        assert "# slope=" in out


class TestRunCommand:
    def test_trace_files_byte_identical(self, tmp_path):
        args = ["run", "--function", "sphere", "--dims", "2", "--pop", "10",
                "--iters", "5", "--seed", "1", "--deterministic"]
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--trace", str(t1)]) == 0
        assert cli.main(args + ["--trace", str(t2)]) == 0
        assert filecmp.cmp(t1, t2, shallow=False)
        assert read(t1).splitlines()[-1].startswith("5,")

    def test_trace_to_stdout(self, capsys):
        assert cli.main(
            ["run", "--dims", "2", "--pop", "4", "--iters", "2", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "iter,best_so_far,population_best,population_mean" in out

    def test_numeric_failure_exit_code(self, tmp_path):
        # R**3 underflows at 1e-160 with epsilon 0: force overflow, exit 3
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"probe_r_values": [1e-160, 1.0]}))
        code = cli.main(
            ["probe", "--kernel", "square", "--epsilon", "0", "--config", str(config)]
        )
        assert code == 3

    def test_mean_fitness_overflow_is_numeric_failure(self, tmp_path, capsys):
        # each sphere value is finite near 3e307, their sum over the
        # population overflows to inf
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"lower_bound": [-1e153] * 30, "upper_bound": [1e153] * 30})
        )
        assert cli.main(["run", "--config", str(config), "--iters", "3"]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "iteration 1" in err

    def test_io_failure_exit_code(self, tmp_path):
        code = cli.main(
            ["run", "--dims", "2", "--pop", "4", "--iters", "1",
             "--trace", str(tmp_path / "missing" / "t.csv")]
        )
        assert code == 4

    def test_usage_error_on_bad_function(self):
        assert cli.main(["run", "--function", "griewank"]) == 2

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # a stand-in for numpy's error: a real oversized allocation may
        # succeed under memory overcommit and be killed later
        def too_large(config, objective):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(cli, "run", too_large)
        assert cli.main(["run", *small_argv("run", tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "gravopt: error: config too large for memory: Unable to allocate 29.1 TiB "
            "for an array\n")


class TestCompareCommand:
    def test_small_grid_outputs(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = cli.main(
            ["compare", "--reps", "2", "--iters", "5", "--pop", "6", "--dims", "2",
             "--out", str(out), "--no-timing", "--jobs", "1"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "median final best" in stdout
        assert "original vs square" in stdout
        summary = tmp_path / "res_summary.csv"
        assert out.exists() and summary.exists()
        lines = read(out).splitlines()
        assert lines[0] == "kernel,objective,repetition,seed,final_best,iters,wall_seconds"
        assert len(lines) == 1 + 3 * 4 * 2
        assert read(summary).splitlines()[0] == "kernel,objective,median,mean,std,min,max"

    def test_serial_and_parallel_byte_identical(self, tmp_path):
        base = ["compare", "--reps", "2", "--iters", "5", "--pop", "6",
                "--dims", "2", "--no-timing"]
        out1, out2 = tmp_path / "s.csv", tmp_path / "p.csv"
        assert cli.main(base + ["--out", str(out1), "--jobs", "1"]) == 0
        assert cli.main(base + ["--out", str(out2), "--jobs", "2"]) == 0
        assert read(out1) == read(out2)
        assert read(tmp_path / "s_summary.csv") == read(tmp_path / "p_summary.csv")

    @pytest.mark.parametrize("key", ["lower_bound", "upper_bound"])
    def test_config_bounds_rejected(self, key, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: [-1.0, -1.0, -1.0], "dims": 3}))
        out = tmp_path / "r.csv"
        argv = ["compare", "--config", str(config), "--pop", "4", "--iters", "3",
                "--reps", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"compare does not read config key '{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cell_failure_is_numeric_failure(self, jobs, tmp_path, capfd):
        # G0 = 1e308 with epsilon 0 overflows the linear kernel's forces in
        # the first rastrigin cell; capfd, since pool workers write to the
        # file descriptor
        argv = ["compare", "--g0", "1e308", "--alpha", "0", "--epsilon", "0", "--pop", "4",
                "--dims", "2", "--iters", "100", "--reps", "1", "--seed", "3",
                "--jobs", jobs, "--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 3
        assert capfd.readouterr().err == (
            "gravopt: numeric failure: run failed for kernel=linear objective=rastrigin "
            "repetition=0 seed=18082517878164821224: force overflow at iteration 1; "
            "increase epsilon\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cell_out_of_memory_is_usage_error(self, jobs, tmp_path, capfd, monkeypatch):
        # the pool forks after the patch, so its workers raise too
        def too_large(config, objective):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(experiments, "run", too_large)
        out = tmp_path / "r.csv"
        assert cli.main(["compare", *small_argv("compare", tmp_path, "r.csv"), "--jobs", jobs]) == 2
        assert capfd.readouterr().err == (
            "gravopt: error: config too large for memory: Unable to allocate 29.1 TiB "
            "for an array\n")
        assert not out.exists()

    def test_negative_jobs_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        small = ["--reps", "1", "--iters", "2", "--pop", "4", "--dims", "2"]
        assert cli.main(["compare", "--jobs", "-1", *small, "--out", str(out)]) == 2
        assert "--jobs must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_io_failure(self, tmp_path, capsys, monkeypatch):
        # a missing output directory fails before the grid runs
        def no_grid(plan, jobs):
            raise AssertionError("run_grid called")

        monkeypatch.setattr(cli, "run_grid", no_grid)
        code = cli.main(
            ["compare", "--reps", "1", "--iters", "2", "--pop", "4", "--dims", "2",
             "--out", str(tmp_path / "missing" / "r.csv"), "--jobs", "1"]
        )
        assert code == 4
        assert capsys.readouterr().err == (
            f"gravopt: i/o failure: no such directory: '{tmp_path / 'missing'}'\n")

    @pytest.mark.parametrize("command", ["run", "probe", "compare"])
    @pytest.mark.parametrize("out,message", [
        ("dir", "is a directory: '{}'"),
        ("missing/o.csv", "no such directory: '{}'"),
    ])
    def test_unwritable_output_fails_before_computing(self, command, out, message,
                                                      tmp_path, capsys, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("computed before the output path was checked")

        for name in ("run", "run_grid", "probe_exponent"):
            monkeypatch.setattr(cli, name, not_called)
        (tmp_path / "dir").mkdir()
        assert cli.main([command, *small_argv(command, tmp_path, out)]) == 4
        named = tmp_path / out if out == "dir" else tmp_path / "missing"
        assert capsys.readouterr().err == f"gravopt: i/o failure: {message.format(named)}\n"
