import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ihtlab
from ihtlab import cli, experiments
from ihtlab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, run_cli
from ihtlab.experiments import ExperimentResult
from ihtlab.rip import default_provider
from ihtlab.transitions import stepsize_interval_iht


def test_unknown_subcommand_exits_64(capsys):
    assert run_cli(["frobnicate"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "usage:" in captured.err


def test_tailbound_prints_all_three_roots(capsys):
    assert run_cli(["tailbound", "--delta", "0.5", "--rho", "0.25", "--lambda", "0.75"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nu_U=" in out and "nu_L=" in out and "f=" in out and "resid" in out


def test_tailbound_domain_violation_exits_2(capsys):
    assert run_cli(["tailbound", "--delta", "1.5", "--rho", "0.25"]) == EXIT_CONFIG


def test_tailbound_unresolvable_root_is_numerical_error(capsys):
    # At lambda = 0.01 the lower root lies closer to one than any float.
    assert run_cli(["tailbound", "--delta", "0.5", "--rho", "1", "--lambda", "0.01"]) == EXIT_NUMERICAL
    assert "tail_il" in capsys.readouterr().err


def test_solve_iht(capsys):
    code = run_cli(["solve", "--n", "60", "--N", "120", "--k", "3", "--alpha", "0.6", "--seed", "4"])
    assert code == EXIT_OK
    assert "termination=" in capsys.readouterr().out


def test_solve_invalid_kappa_names_constraint(capsys):
    code = run_cli(["solve", "--variant", "niht", "--kappa", "1.0", "--c", "0.05"])
    assert code == EXIT_CONFIG
    assert "kappa > 1/(1-c)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["solve", "--n", "20", "--N", "40", "--k", "2"], ["rip"]], ids=["solve", "rip"])
def test_negative_seed_is_config_error(capsys, argv):
    assert run_cli([*argv, "--seed", "-1"]) == EXIT_CONFIG
    assert "config error: seed and stream id must be >= 0" in capsys.readouterr().err


def test_solve_writes_json(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = run_cli(["solve", "--n", "40", "--N", "80", "--k", "2", "--alpha", "0.6",
                    "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["x"]) == 80
    assert payload["termination"]


def test_rip_command(capsys):
    assert run_cli(["rip", "--n", "10", "--N", "14", "--order", "3", "--seed", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "L=" in out and "U=" in out and "general_position=" in out


def test_phase_bound_writes_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run_cli(["phase-bound", "--variant", "iht", "--grid-points", "100", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "delta,rho_hat,residual"
    assert len(lines) == 101


def test_phase_bound_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["phase-bound", "--grid-points", "12", "--out", str(a)]) == EXIT_OK
    assert run_cli(["phase-bound", "--grid-points", "12", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("points", ["0", "-5"])
def test_phase_bound_grid_points_below_one_exits_2_before_any_work(tmp_path, capsys, monkeypatch, points):
    monkeypatch.setattr(cli, "grid_emit", _no_work)
    out = tmp_path / "curve.csv"
    assert run_cli(["phase-bound", "--grid-points", points, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: a delta grid needs at least one point, got {points}" in capsys.readouterr().err
    assert not out.exists()


def test_rip_past_enumeration_budget_is_config_error(capsys):
    assert run_cli(["rip", "--n", "40", "--N", "100", "--order", "10"]) == EXIT_CONFIG
    assert "config error: C(100,10) = 17310309456440 exceeds the enumeration budget" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["0", "1"])
def test_mc_dist_without_finite_expected_mean_writes_null(tmp_path, capsys, sigma):
    # At n - k = 1 the scaled F(k, n-k+1) law has no finite mean.
    out = tmp_path / "dist.json"
    argv = ["mc-dist", "--n", "2", "--k", "1", "--overlap", "1", "--trials", "20", "--seed", "1",
            "--sigma", sigma, "--out", str(out)]
    assert run_cli(argv) == EXIT_OK
    summary = json.loads(out.read_text(encoding="utf-8"))["summary"]
    assert summary["f_ratio_mean_expected"] is None
    assert math.isfinite(summary["f_ratio_mean"])


def test_phase_bound_bad_table_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not a table\n", encoding="utf-8")
    assert run_cli(["phase-bound", "--rip-table", str(bad), "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG


def test_stability_command(capsys):
    assert run_cli(["stability", "--delta", "0.5", "--rho", "0.008"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "xi=" in out and "a=" in out


def test_stability_undefined_exits_3(capsys):
    assert run_cli(["stability", "--delta", "0.5", "--rho", "0.4", "--alpha", "0.5"]) == EXIT_NUMERICAL


def test_rip_monte_carlo_writes_json(tmp_path, capsys):
    out = tmp_path / "rip.json"
    argv = ["rip", "--method", "monte_carlo", "--trials", "50", "--seed", "3", "--out", str(out)]
    assert run_cli(argv) == EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["method"] == "monte_carlo"


def test_stability_niht_writes_json(tmp_path, capsys):
    out = tmp_path / "stab.json"
    argv = ["stability", "--variant", "niht", "--delta", "0.5", "--rho", "0.008",
            "--xi-variant", "with_one_plus_a", "--out", str(out)]
    assert run_cli(argv) == EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["xi_variant"] == "with_one_plus_a"


def test_stability_iht_writes_stepsize_interval(tmp_path, capsys):
    mid, empty = tmp_path / "mid.json", tmp_path / "empty.json"
    assert run_cli(["stability", "--delta", "0.5", "--rho", "0.008", "--out", str(mid)]) == EXIT_OK
    argv = ["stability", "--delta", "0.5", "--rho", "0.05", "--alpha", "5", "--out", str(empty)]
    assert run_cli(argv) == EXIT_OK
    lo, hi = stepsize_interval_iht(0.5, 0.008, default_provider())
    assert json.loads(mid.read_text(encoding="utf-8"))["alpha_interval"] == [lo, hi]
    assert json.loads(empty.read_text(encoding="utf-8"))["alpha_interval"] is None


def test_mc_dist_with_config_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
        "trials": 500, "master_seed": 3, "sigma": 1.0,
    }), encoding="utf-8")
    out = tmp_path / "res.json"
    code = run_cli(["mc-dist", "--config", str(cfg), "--trials", "100", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["config"]["trials"] == 100  # flag override wins
    assert payload["summary"]["violations_42"] == 0


@pytest.mark.parametrize("flag, key", [("--out", "output_path"), ("--trial-csv", "trial_csv_path")])
def test_mc_dist_missing_output_directory_exits_2_before_any_trial(tmp_path, capsys, monkeypatch, flag, key):
    def trial(task):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_distribution_trial", trial)
    argv = ["mc-dist", "--n", "40", "--k", "4", "--overlap", "2", "--trials", "3000", "--seed", "1",
            flag, str(tmp_path / "missing" / "x")]
    assert run_cli(argv) == EXIT_CONFIG
    assert f"config error: {key}: directory" in capsys.readouterr().err


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the output path was checked")


@pytest.mark.parametrize("argv, work", [
    pytest.param(["solve", "--n", "20", "--N", "40", "--k", "2"], "run_solver", id="solve"),
    pytest.param(["rip"], "rip_exact", id="rip"),
    pytest.param(["tailbound", "--delta", "0.5", "--rho", "0.25"], "tail_iu", id="tailbound"),
    pytest.param(["phase-bound", "--grid-points", "10"], "grid_emit", id="phase-bound"),
    pytest.param(["stability", "--delta", "0.5", "--rho", "0.008"], "stepsize_midpoint_iht", id="stability"),
])
@pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing-parent"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv, work, missing):
    monkeypatch.setattr(cli, work, _no_work)
    out = tmp_path / "missing" / "out.json" if missing else tmp_path
    assert run_cli([*argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: --out: " in err
    assert ("does not exist" if missing else "is a directory") in err


@pytest.mark.parametrize("command, trial", [
    ("mc-dist", "_distribution_trial"),
    ("mc-transition", "_transition_stack"),
    ("mc-error", "_error_stack"),
])
@pytest.mark.parametrize("flag, key", [("--out", "output_path"), ("--trial-csv", "trial_csv_path")])
def test_experiment_output_path_that_is_a_directory_exits_2_before_any_trial(
    tmp_path, capsys, monkeypatch, command, trial, flag, key
):
    monkeypatch.setattr(experiments, trial, _no_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(VALID_CONFIGS[command]), encoding="utf-8")
    assert run_cli([command, "--config", str(cfg), flag, str(tmp_path)]) == EXIT_CONFIG
    assert f"config error: {key}: {str(tmp_path)!r} is a directory" in capsys.readouterr().err


def test_mc_dist_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
        "trials": 10, "master_seed": 3, "mystery": True,
    }), encoding="utf-8")
    assert run_cli(["mc-dist", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


def test_mc_dist_malformed_workers_env_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
        "trials": 10, "master_seed": 3, "sigma": 1.0,
    }), encoding="utf-8")
    monkeypatch.setenv("IHTLAB_WORKERS", "two")
    assert run_cli(["mc-dist", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG
    assert "IHTLAB_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [5, ["a"]])
def test_mc_transition_malformed_grid_exits_2(tmp_path, capsys, grid):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "mc_transition", "n": 30, "delta_grid": grid, "rho_grid": [0.05],
        "trials": 5, "master_seed": 4, "solver": {"variant": "iht", "max_iters": 50},
    }), encoding="utf-8")
    assert run_cli(["mc-transition", "--config", str(cfg)]) == EXIT_CONFIG
    assert "delta_grid must be a list of numbers" in capsys.readouterr().err


VALID_CONFIGS = {
    "mc-transition": {"kind": "mc_transition", "n": 30, "delta_grid": [0.5], "rho_grid": [0.05], "trials": 2,
                      "master_seed": 4, "solver": {"variant": "iht", "alpha": 0.65, "max_iters": 50}},
    "mc-dist": {"kind": "mc_distribution", "n": 60, "k": 6, "overlap": 3, "trials": 5, "master_seed": 1},
    "mc-error": {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.01, "sigma": 0.1, "trials": 2,
                 "master_seed": 1, "solver": {"variant": "iht", "max_iters": 50}},
}


@pytest.mark.parametrize("command, key, value", [
    ("mc-transition", "n", "30"),
    ("mc-dist", "trials", 2.5),
    ("mc-dist", "trials", True),
    ("mc-dist", "master_seed", "7"),
    ("mc-dist", "output_path", 5),
    ("mc-error", "delta", "0.5"),
    ("mc-error", "sigma", False),
    ("mc-error", "rip_table", 5),
])
def test_config_scalar_of_wrong_type_exits_2(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(VALID_CONFIGS[command], **{key: value})), encoding="utf-8")
    assert run_cli([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert f"config error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, expected", [
    ("max_iters", 2.5, "an integer"),
    ("max_iters", True, "an integer"),
    ("alpha", "0.65", "a number or null"),
    ("variant", 1, "a string"),
])
def test_solver_key_of_wrong_type_exits_2(tmp_path, capsys, key, value, expected):
    config = VALID_CONFIGS["mc-transition"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(config, solver=dict(config["solver"], **{key: value}))), encoding="utf-8")
    assert run_cli(["mc-transition", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"config error: solver.{key} must be {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value, message", [
    ("mc-dist", "master_seed", -1, "master_seed must be >= 0"),
    ("mc-transition", "master_seed", -1, "master_seed must be >= 0"),
    ("mc-transition", "delta_grid", [0], "delta_grid values must lie in (0, 1]"),
    ("mc-transition", "rho_grid", [0.05, float("nan")], "rho_grid values must lie in (0, 1]"),
    ("mc-transition", "n", 0, "n=0: no cell of the grid satisfies 0 < 2k <= n <= N"),
    ("mc-transition", "n", 1, "n=1: no cell of the grid satisfies 0 < 2k <= n <= N"),
    ("mc-transition", "delta_grid", [], "mc_transition needs nonempty delta_grid and rho_grid"),
    ("mc-transition", "rho_grid", [], "mc_transition needs nonempty delta_grid and rho_grid"),
    ("mc-transition", "solver", {"max_iters": 50}, "solver section with a 'variant' key is required"),
    ("mc-error", "solver", {"max_iters": 50}, "solver section with a 'variant' key is required"),
])
def test_config_value_out_of_range_exits_2(tmp_path, capsys, command, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(VALID_CONFIGS[command], **{key: value})), encoding="utf-8")
    assert run_cli([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


COMMON_FLAGS = {
    "--trials": ("7", "trials", 7),
    "--seed": ("9", "master_seed", 9),
    "--sigma": ("0.25", "sigma", 0.25),
    "--n": ("80", "n", 80),
    "--out": ("res.json", "output_path", "res.json"),
    "--trial-csv": ("rows.csv", "trial_csv_path", "rows.csv"),
}
EXTRA_FLAGS = {
    "mc-dist": {"--k": ("4", "k", 4), "--overlap": ("2", "overlap", 2)},
    "mc-transition": {},
    "mc-error": {
        "--delta": ("0.4", "delta", 0.4),
        "--rho": ("0.02", "rho", 0.02),
        "--rip-table": ("table.csv", "rip_table", "table.csv"),
        "--xi-variant": ("with_one_plus_a", "xi_variant", "with_one_plus_a"),
    },
}


@pytest.mark.parametrize("command", sorted(EXTRA_FLAGS))
def test_experiment_flags_set_their_config_keys(tmp_path, monkeypatch, command):
    # Every flag of the subcommand overrides the config key it names.
    configs = []

    def record(config):
        configs.append(config)
        return ExperimentResult(kind=config.kind, config=config.to_dict(), summary={})

    monkeypatch.setattr(cli, "run_experiment", record)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(VALID_CONFIGS[command]), encoding="utf-8")
    flags = {**COMMON_FLAGS, **EXTRA_FLAGS[command]}
    argv = [command, "--config", str(cfg)]
    for flag, (text, _, _) in flags.items():
        argv += [flag, text]
    assert run_cli(argv) == EXIT_OK
    [config] = configs
    assert {key: getattr(config, key) for _, key, _ in flags.values()} == {
        key: value for _, key, value in flags.values()
    }


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, config_changes, flags, message", [
    pytest.param("mc-dist", {}, ["--sigma", "nan"], "sigma must be finite, got nan", id="mc-dist-sigma-flag"),
    pytest.param("mc-transition", {"sigma": NAN}, [], "sigma must be finite, got nan", id="mc-transition-sigma"),
    pytest.param("mc-transition", {"solver": {"variant": "iht", "alpha": NAN}}, [],
                 "solver.alpha must be finite, got nan", id="mc-transition-alpha"),
    pytest.param("mc-dist", {"sigma": INF}, [], "sigma must be finite, got inf", id="mc-dist-sigma-infinity"),
    pytest.param("solve", None, ["--alpha", "nan"], "requires a finite alpha > 0, got nan", id="solve-alpha"),
    pytest.param("solve", None, ["--sigma", "nan"], "sigma must be finite and nonnegative, got nan",
                 id="solve-sigma"),
    pytest.param("stability", None, ["--delta", "0.5", "--rho", "0.008", "--alpha", "nan"],
                 "alpha must be positive and finite, got nan", id="stability-alpha"),
    pytest.param("stability", None, ["--delta", "0.5", "--rho", "0.008", "--alpha", "inf"],
                 "alpha must be positive and finite, got inf", id="stability-alpha-infinity"),
    pytest.param("stability", None, ["--variant", "niht", "--delta", "0.5", "--rho", "0.008", "--kappa", "nan"],
                 "kappa must be >= 1, got nan", id="stability-kappa"),
    pytest.param("phase-bound", None, ["--variant", "niht", "--kappa", "nan", "--out", "curve.csv"],
                 "kappa must be >= 1, got nan", id="phase-bound-kappa"),
    pytest.param("solve", None, ["--variant", "niht", "--kappa", "inf"], "N-IHT requires a finite kappa, got inf",
                 id="solve-kappa-infinity"),
    pytest.param("stability", None, ["--variant", "niht", "--delta", "0.5", "--rho", "0.008", "--kappa", "inf"],
                 "kappa must be finite, got inf", id="stability-kappa-infinity"),
    pytest.param("phase-bound", None, ["--variant", "niht", "--kappa", "inf", "--out", "curve.csv"],
                 "kappa must be finite, got inf", id="phase-bound-kappa-infinity"),
])
def test_non_finite_input_exits_2(tmp_path, capsys, monkeypatch, command, config_changes, flags, message):
    monkeypatch.chdir(tmp_path)
    argv = [command, *flags]
    if config_changes is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(VALID_CONFIGS[command], **config_changes)), encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert run_cli(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe\x00{\x00}\x00"


def test_mc_dist_config_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(NOT_UTF8)
    assert run_cli(["mc-dist", "--config", str(cfg)]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_stability_rip_table_not_utf8_exits_2(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_bytes(NOT_UTF8)
    assert run_cli(["stability", "--delta", "0.5", "--rho", "0.05", "--rip-table", str(table)]) == EXIT_CONFIG
    assert "not UTF-8" in capsys.readouterr().err


def test_mc_error_stability_undefined_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.4,
        "sigma": 0.1, "trials": 3, "master_seed": 3,
        "solver": {"variant": "iht", "max_iters": 50},
    }), encoding="utf-8")
    assert run_cli(["mc-error", "--config", str(cfg)]) == EXIT_CONFIG


def test_mc_transition_small(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "mc_transition", "n": 30, "delta_grid": [0.5], "rho_grid": [0.05],
        "trials": 5, "master_seed": 4, "solver": {"variant": "niht", "max_iters": 500},
    }), encoding="utf-8")
    out = tmp_path / "res.json"
    assert run_cli(["mc-transition", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["cells"][0]["success_rate"] == 1.0


def test_help_exits_cleanly():
    assert run_cli(["--help"]) == EXIT_OK
    assert run_cli([]) == EXIT_USAGE


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this ihtlab."""
    src = str(Path(ihtlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)


def test_solve_diverged_iterate_writes_strict_json(tmp_path):
    # IHT at alpha = 0.9 diverges here: the error and the objective overflow.
    out = tmp_path / "s.json"
    proc = run_python("-m", "ihtlab.cli", "solve", "--n", "60", "--N", "200", "--k", "20", "--alpha", "0.9",
                      "--seed", "3", "--out", str(out))
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in strict JSON")

    payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
    assert payload["error"] is None and payload["objective"] is None
    assert None in payload["x"]


def test_cli_and_provider_load_no_scipy():
    proc = run_python("-c", (
        "import sys, ihtlab.cli, ihtlab.rip; ihtlab.rip.default_provider(); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    ))
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_commands_but_mc_dist_run_with_scipy_blocked(tmp_path):
    # A None entry in sys.modules makes every import of scipy raise ImportError.
    code = """
import sys
sys.modules["scipy"] = None
from ihtlab.cli import run_cli
out = sys.argv[1]
for argv in (
    ["solve", "--n", "40", "--N", "80", "--k", "3", "--alpha", "0.6"],
    ["solve", "--variant", "niht", "--n", "40", "--N", "80", "--k", "3"],
    ["rip"],
    ["tailbound", "--delta", "0.5", "--rho", "0.25"],
    ["phase-bound", "--grid-points", "10", "--out", out + "/iht.csv"],
    ["phase-bound", "--variant", "niht", "--grid-points", "10", "--out", out + "/niht.csv"],
    ["stability", "--delta", "0.5", "--rho", "0.008"],
):
    assert run_cli(argv) == 0, argv
"""
    proc = run_python("-c", code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_emit_figure_grids_refusals_are_one_line_and_exit_2(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "emit_figure_grids.py"
    missing, outdir = tmp_path / "missing.csv", tmp_path / "grids"
    for flags, message in (
        (["--grid-points", "0"], "a delta grid needs at least one point, got 0"),
        (["--rip-table", str(missing)], f"[Errno 2] No such file or directory: '{missing}'"),
    ):
        proc = run_python(str(script), *flags, "--outdir", str(outdir))
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_CONFIG, "", f"config error: {message}\n")
    assert not outdir.exists()
