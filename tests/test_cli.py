import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcond import acceptance, linalg
from projcond.cli import build_parser, main
from projcond.experiments import (
    CSV_HEADER,
    EXPERIMENTS,
    RANGES,
    parse_config,
    run_bartlett_check,
    run_conditional_linearity,
    run_experiment,
    run_prop5_cases,
    run_theorem_bound,
)
from projcond.errors import ConfigError, ConstraintViolatedError

DATA = Path(__file__).parent / "data"


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_run_single_experiment(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "seed": 3, "out": str(tmp_path / "from-config"), "experiment": "clone-density-check",
        "d": 30, "p": 1, "k": 1, "n": 20_000,
    })
    out = str(tmp_path / "rep")
    assert main(["run", cfg, "--out", out]) == 0
    assert not (tmp_path / "from-config.csv").exists()
    lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    summary = json.loads((tmp_path / "rep.json").read_text())
    assert summary["pass"] is True and summary["failures"] == 0


def test_run_experiment_list_deterministic(tmp_path):
    cfg_obj = {
        "seed": 11,
        "experiments": [
            {"experiment": "clone-density-check", "d": 30, "p": 1, "k": 1, "n": 10_000},
            {"experiment": "theorem-bound", "d": 1e6, "p": 2, "t": 1.0, "tau": 0.5},
        ],
    }
    cfg = _write(tmp_path, "cfg.json", cfg_obj)
    assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "experiment": "clone-density-check", "d": 3, "p": 5, "k": 1,
    })
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "'p'" in err


@pytest.mark.parametrize("cfg_obj, field", [
    ({"experiment": "clone-density-check", "d": "abc", "p": 1, "k": 1}, "'d'"),
    ([{"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5}], "'config'"),
    ({"experiment": "prop5-cases", "d": 100, "n": 10_000, "spec": "gaussian"}, "'spec'"),
    ({"experiment": "clone-density-check", "d": 30, "p": 1, "k": 1, "n": 0}, "'n'"),
    ({"experiments": [{"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5}, 3]},
     "'experiments[1]'"),
    ({"experiment": "asymptotic-scan", "seed": "abc"}, "'seed'"),
    ({"experiment": "asymptotic-scan", "seed": -1}, "'seed'"),
    ({"experiment": "bartlett-check", "d": 12, "p": 1, "k": 2, "n_frames": "x"}, "'n_frames'"),
    ({"experiment": "clone-density-check", "d": 30, "p": 1, "k": 1, "x_norms": "ab"},
     "'x_norms'"),
    ({"experiment": "asymptotic-scan", "log_d_grid": "abc"}, "'log_d_grid'"),
    ({"experiment": "moment-conditions", "d_list": 5}, "'d_list'"),
    ({"experiment": "conditional-linearity", "n_inner": 5000}, "'n_inner'"),
    ({"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5, "constants": 3},
     "'constants'"),
    ({"experiment": "bartlett-check", "d": 12, "p": 1, "k": 2, "n_frame": 3}, "'n_frame'"),
    ({"experiments": [{"experiment": "asymptotic-scan", "seed": 3}]}, "'seed'"),
    ({"experiments": [{"experiment": "asymptotic-scan"}], "tau": 0.5}, "'tau'"),
    ({"experiment": "g-membership", "spec": {"family": "gaussian"}, "n_frames": 0}, "'n_frames'"),
    ({"experiment": "conditional-linearity", "n_frames": 0}, "'n_frames'"),
    ({"experiment": "moment-conditions", "n_blocks": 0}, "'n_blocks'"),
    ({"experiment": "moment-conditions", "d_list": []}, "'d_list'"),
    ({"experiment": "expansion-order", "ks": []}, "'ks'"),
    ({"experiment": "clone-density-check", "d": 30, "p": 1, "k": 1, "x_norms": []},
     "'x_norms'"),
    ({"experiment": "expansion-order", "eps_grid": [-0.02, 0.01]}, "'eps_grid'"),
    ({"experiment": "expansion-order", "eps_grid": [0.01]}, "'eps_grid'"),
    ({"experiment": "expansion-order", "eps_grid": [0.01, 0.01]}, "'eps_grid'"),
    ({"experiment": "prop5-cases", "spec": {"family": "gaussian"}, "d": 10.5}, "'d'"),
    ({"experiment": "bartlett-check", "d": 12, "p": 1, "k": 2, "n_frames": True},
     "'n_frames'"),
    ({"experiment": "moment-conditions", "d_list": [100, 400.5]}, "'d_list'"),
    ({"experiment": "moment-conditions", "d_list": [100, True]}, "'d_list'"),
    ({"experiment": "conditional-linearity", "n_inner": {"32": 2000.5}}, "'n_inner'"),
    ({"experiment": "conditional-linearity", "n_inner": {"32": False}}, "'n_inner'"),
    ({"experiment": "conditional-linearity", "n_inner": {"32.5": 2000}}, "'n_inner'"),
    ({"experiment": "asymptotic-scan", "seed": 3.5}, "'seed'"),
    ({"experiment": "asymptotic-scan", "seed": True}, "'seed'"),
    ({"experiment": "prop5-cases", "d": 100, "n": 10_000,
      "spec": {"family": "iid-marginal", "marginal": "uniform", "d": 10}}, "'spec'"),
    ({"experiment": "g-membership", "spec": {"family": "gaussian", "d": 8}}, "'spec'"),
    ({"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5, "t": True}, "'t'"),
    ({"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5, "kappa": False}, "'kappa'"),
    ({"experiment": "theorem-bound", "d": True, "p": 1, "tau": 0.5}, "'d'"),
    ({"experiment": "clone-density-check", "d": 30, "p": 1, "k": 1, "x_norms": [0.0, True]},
     "'x_norms'"),
    ({"experiment": "conditional-linearity", "bandwidths": {"32": True}}, "'bandwidths'"),
    ({"experiment": "g-membership", "spec": {"family": "gaussian"}, "tau1": False}, "'tau1'"),
    ({"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5,
      "constants": {"epsilon": True, "alhpa": 3}}, "'constants'"),
    ({"experiment": "asymptotic-scan", "constants": {"alhpa": 3}}, "'constants'"),
    # g-membership: tau1 and D would reach math.log of a value <= 0, or run
    # every frame before the moment constants refuse D < 1
    ({"experiment": "g-membership", "spec": {"family": "gaussian"}, "tau1": -1.0}, "'tau1'"),
    ({"experiment": "g-membership", "spec": {"family": "gaussian"}, "tau1": 0}, "'tau1'"),
    ({"experiment": "g-membership", "spec": {"family": "gaussian"}, "D": 0}, "'D'"),
    ({"experiment": "g-membership", "spec": {"family": "gaussian"}, "D": -2.0}, "'D'"),
    ({"experiment": "g-membership", "spec": {"family": "gaussian"}, "D": 0.5}, "'D'"),
    # non-finite numbers, as JSON NaN / Infinity or as numeric strings
    ({"experiment": "conditional-linearity", "t": float("nan")}, "'t'"),
    ({"experiment": "conditional-linearity", "t": "nan"}, "'t'"),
    ({"experiment": "theorem-bound", "d": "inf", "p": 1, "tau": 0.5}, "'d'"),
    ({"experiment": "clone-density-check", "d": 30, "p": 1, "k": 1,
      "x_norms": [0.0, float("inf")]}, "'x_norms'"),
    ({"experiment": "asymptotic-scan", "log_d_grid": [1e3, "-Infinity"]}, "'log_d_grid'"),
    ({"experiment": "conditional-linearity", "bandwidths": {"32": float("inf")}},
     "'bandwidths'"),
    ({"experiment": "g-membership", "spec": {"family": "gaussian"}, "tau1": float("nan")},
     "'tau1'"),
    ({"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5,
      "constants": {"xi": float("inf")}}, "'constants'"),
    # conditional-linearity: keys outside d_list and bandwidths <= 0
    ({"experiment": "conditional-linearity", "d_list": [16], "n_inner": {"17": 2000}},
     "'n_inner'"),
    ({"experiment": "conditional-linearity", "d_list": [16], "bandwidths": {"17": 0.3}},
     "'bandwidths'"),
    ({"experiment": "conditional-linearity", "d_list": [16], "bandwidths": {"16": 0}},
     "'bandwidths'"),
    ({"experiment": "conditional-linearity", "d_list": [16], "bandwidths": {"16": -0.2}},
     "'bandwidths'"),
    # spec objects hold family and marginal only
    ({"experiment": "g-membership", "spec": {"family": "gaussian", "foo": 1}}, "'spec'"),
    ({"experiment": "prop5-cases", "spec": {"family": "iid-marginal", "marginal": "uniform",
                                            "marginl": "exponential"}}, "'spec'"),
    # theorem-bound values that would reach the bound arithmetic as NaN,
    # log(0) or an infinite threshold
    ({"experiment": "theorem-bound", "d": 1e6, "p": 2, "t": 1, "tau": 0.5,
      "kappa": float("nan")}, "'kappa'"),
    ({"experiment": "theorem-bound", "d": 1e6, "p": 0, "t": 1, "tau": 0.5}, "'p'"),
    ({"experiment": "theorem-bound", "d": 1e6, "p": 2, "t": float("inf"), "tau": 0.5}, "'t'"),
    # a keyed n_inner below the library's 10^3 for a later d exits before
    # the first d's frames run
    ({"experiment": "conditional-linearity", "d_list": [16, 24], "n_frames": 3,
      "n_inner": {"16": 20000, "24": 500}}, "'n_inner'"),
    # the bound kinds' part, the scan's grid and the chains are refused by
    # the schema, before any bound is evaluated or any clone drawn
    ({"experiment": "asymptotic-scan", "part": "C"}, "'part'"),
    ({"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5, "part": "C"}, "'part'"),
    ({"experiment": "asymptotic-scan", "log_d_grid": [1e6, 1e3]}, "'log_d_grid'"),
    ({"experiment": "asymptotic-scan", "log_d_grid": [1e3]}, "'log_d_grid'"),
    ({"experiment": "asymptotic-scan", "log_d_grid": [-1, 5]}, "'log_d_grid'"),
    ({"experiment": "normalzero-check", "chains": [[0, 7]]}, "'chains'"),
    ({"experiment": "normalzero-check", "chains": ["alt"]}, "'chains'"),
    ({"experiment": "normalzero-check", "k": 3, "chains": ["alternating"]}, "'chains'"),
    # library preconditions, refused before any draw: n_x, n_outer and ks
    # would stop the run with the library's message
    ({"experiment": "g-membership", "spec": {"family": "gaussian"}, "n_x": 50}, "'n_x'"),
    ({"experiment": "conditional-linearity", "n_outer": 5}, "'n_outer'"),
    ({"experiment": "expansion-order", "ks": [7]}, "'ks'"),
    # the gate tolerances are constants, so a config that sets one names an
    # unknown field
    ({"experiment": "bartlett-check", "d": 20, "p": 2, "k": 3, "level": 2}, "'level'"),
    ({"experiment": "bartlett-check", "d": 20, "p": 2, "k": 3, "corr_tol": -1}, "'corr_tol'"),
    # the least d of d_list bounds k and p
    ({"experiment": "moment-conditions", "k": 11, "d_list": [10]}, "'k'"),
    ({"experiment": "conditional-linearity", "p": 40, "d_list": [32, 512]}, "'p'"),
    # g-membership's one pool size takes the library's 10^3 too: 0 stopped
    # in build_pool, and 5 ran the test on a 5-row pool
    ({"experiment": "g-membership", "spec": {"family": "iid-marginal", "marginal": "uniform"},
      "d": 48, "p": 2, "tau1": 3.0, "n_inner": 0}, "'n_inner'"),
    ({"experiment": "g-membership", "spec": {"family": "iid-marginal", "marginal": "uniform"},
      "d": 48, "p": 2, "tau1": 3.0, "n_inner": 5}, "'n_inner'"),
    # a repeated d made its trend row compare one d's frames with themselves,
    # and a descending d_list tested the opposite claim
    ({"experiment": "conditional-linearity", "d_list": [8, 8], "n_frames": 2}, "'d_list'"),
    ({"experiment": "conditional-linearity", "d_list": [16, 8], "n_frames": 2}, "'d_list'"),
    # no bound reads alpha or beta, so the constants hold neither
    ({"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5,
      "constants": {"alpha": 2.0}}, "'constants'"),
    ({"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5,
      "constants": {"beta": 0.5}}, "'constants'"),
    # expansion-order's gate tolerance, a constant like level and corr_tol
    ({"experiment": "expansion-order", "slope_tol": 10}, "'slope_tol'"),
    # a run that checked nothing wrote "pass": true
    ({"experiments": []}, "'experiments'"),
    # a non-string out was read as str(out): None.csv, True.csv, 7.csv,
    # ['a'].csv; an empty one wrote .csv
    ({"experiment": "asymptotic-scan", "out": None}, "'out'"),
    ({"experiment": "asymptotic-scan", "out": True}, "'out'"),
    ({"experiment": "asymptotic-scan", "out": 7}, "'out'"),
    ({"experiment": "asymptotic-scan", "out": ["a"]}, "'out'"),
    ({"experiment": "asymptotic-scan", "out": ""}, "'out'"),
])
def test_malformed_config_exit_code(tmp_path, capsys, cfg_obj, field):
    cfg = _write(tmp_path, "cfg.json", cfg_obj)
    assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("constants, key", [
    ({"epsilon": True, "alhpa": 3}, "'epsilon'"),
    ({"alhpa": 3}, "'alhpa'"),
    ({"xi": "abc"}, "'xi'"),
    ({"alpha": 2.0}, "'alpha'"),
    ({"beta": 0.5}, "'beta'"),
])
def test_constants_errors_name_the_key(constants, key):
    cfg = {"d": 100, "p": 1, "tau": 0.5, "constants": constants}
    with pytest.raises(ConfigError, match="'constants'") as err:
        parse_config(run_theorem_bound, cfg)
    assert key in str(err.value)


def test_integer_fields_refuse_booleans_and_fractions():
    # JSON object keys are strings, so only a config built in Python can
    # give n_inner a boolean or fractional key
    for bad in ({True: 5000}, {32.5: 5000}):
        with pytest.raises(ConfigError, match="'n_inner'"):
            parse_config(run_conditional_linearity, {"n_inner": bad})
    # whole numbers written as floats or strings read as before
    args = parse_config(run_prop5_cases, {"spec": {"family": "gaussian"}, "d": 100.0, "n": 1e5})
    assert (args["d"], args["n"]) == (100, 100_000) and type(args["n"]) is int
    args = parse_config(run_conditional_linearity, {"d_list": [32.0, "64"], "n_inner": {"32": 2e4}})
    assert args["d_list"] == (32, 64) and args["n_inner"] == {32: 20_000}


def test_float_fields_read_numbers_as_before():
    # booleans are refused (see test_malformed_config_exit_code); integers
    # and numeric strings still read as floats
    args = parse_config(run_theorem_bound, {"d": 1e6, "p": 2, "tau": "0.5", "t": 1, "kappa": 2})
    assert (args["d"], args["tau"], args["t"], args["kappa"]) == (1e6, 0.5, 1.0, 2.0)
    assert all(type(args[name]) is float for name in ("d", "tau", "t", "kappa"))
    args = parse_config(run_conditional_linearity, {"bandwidths": {"512": 0.2, "128": 1}})
    assert args["bandwidths"] == {512: 0.2, 128: 1.0}


def test_ranges_name_runner_fields():
    # a RANGES key that no runner takes, such as a misspelled one, would
    # check nothing
    fields = {name for fn in EXPERIMENTS.values()
              for name in list(inspect.signature(fn).parameters)[1:]}
    assert set(RANGES) <= fields, sorted(set(RANGES) - fields)


def test_unknown_experiment_exit_code(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"experiment": "nope"})
    assert main(["run", cfg]) == 2


def test_theorem_bound_run(tmp_path):
    # the closed-form bounds are a run of a theorem-bound config; its two
    # rows carry the deviation and nu(G^c) bounds with xi_eff, gamma and
    # the vacuous / informative tags
    cfg = _write(tmp_path, "bound.json", {
        "experiment": "theorem-bound", "part": "A", "d": 1e6, "p": 2, "t": 1, "tau": 0.5,
    })
    assert main(["run", cfg, "--out", str(tmp_path / "bound-report")]) == 0
    dev, nu = [ln.split(",") for ln in
               (tmp_path / "bound-report.csv").read_text().strip().splitlines()[1:]]
    assert "xi_eff=0.1667;gamma=9.5310;vacuous" in dev[1]
    assert "nu_gc;vacuous" in nu[1]
    assert float(dev[2]) == pytest.approx(5.83526, rel=1e-5)


def test_asymptotic_scan_run(tmp_path):
    cfg = _write(tmp_path, "scan.json", {
        "experiment": "asymptotic-scan", "p": 2, "part": "A", "tau": 0.5,
        "log_d_grid": [1e3, 1e4, 1e5, 1e6],
    })
    assert main(["run", cfg, "--out", str(tmp_path / "scan-report")]) == 0
    lines = (tmp_path / "scan-report.csv").read_text().strip().splitlines()
    assert any("below-1e-3" in ln for ln in lines)


def test_asymptotic_scan_reports_every_verdict(tmp_path):
    # bounds that fall but end above 10^-3 fail the below-1e-3 row; the
    # monotone row and every grid row are still written
    cfg = _write(tmp_path, "scan.json", {
        "experiment": "asymptotic-scan", "p": 50, "log_d_grid": [10, 20, 1e6],
    })
    assert main(["run", cfg, "--out", str(tmp_path / "scan-report")]) == 1
    rows = [ln.split(",") for ln in
            (tmp_path / "scan-report.csv").read_text().strip().splitlines()[1:]]
    assert [r[1].split(";")[-1] for r in rows] == [
        "monotone-decreasing", "report-only", "report-only", "report-only", "below-1e-3"]
    assert [r[1].split(";")[0] for r in rows[1:4]] == ["log_d=10", "log_d=20", "log_d=1e+06"]
    assert (rows[0][5], rows[-1][5]) == ("1", "0")
    assert "dev=0.001906" in rows[3][1]


@pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
def test_verify_seed_follows_the_config_rule(tmp_path, capsys, seed):
    # verify's --seed is read as run's top-level seed: a whole number >= 0,
    # refused with exit 2 naming seed before any check runs
    assert main(["verify", "--seed", seed, "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "'seed'" in err
    assert not (tmp_path / "v.csv").exists()


def test_verify_smoke(tmp_path, capsys):
    out = str(tmp_path / "verify")
    assert main(["verify", "--profile", "smoke", "--out", out]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_smoke_deterministic(tmp_path):
    a, b = str(tmp_path / "va"), str(tmp_path / "vb")
    main(["verify", "--profile", "smoke", "--out", a])
    main(["verify", "--profile", "smoke", "--out", b])
    assert (tmp_path / "va.csv").read_bytes() == (tmp_path / "vb.csv").read_bytes()


def test_missing_config_file():
    assert main(["run", "/nonexistent/q.json"]) == 2


def test_mutated_eta_is_caught(monkeypatch):
    monkeypatch.setenv("PROJCOND_MUTATE", "eta")
    rows = acceptance.run_criterion(1)
    assert any(not r.passed for r in rows)


def test_mutated_eta_fails_cli_run(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "cfg.json", {
        "seed": 3, "experiment": "clone-density-check",
        "d": 50, "p": 2, "k": 2, "n": 50_000,
    })
    monkeypatch.setenv("PROJCOND_MUTATE", "eta")
    assert main(["run", cfg, "--out", str(tmp_path / "bad")]) == 1
    monkeypatch.delenv("PROJCOND_MUTATE")
    assert main(["run", cfg, "--out", str(tmp_path / "good")]) == 0


def test_pass_flag_recomputable(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "seed": 3, "experiment": "clone-density-check",
        "d": 30, "p": 1, "k": 1, "n": 10_000,
    })
    main(["run", cfg, "--out", str(tmp_path / "r")])
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()[1:]
    for ln in lines:
        parts = ln.split(",")
        est, se, target, flag = float(parts[2]), float(parts[3]), float(parts[4]), parts[5]
        assert (abs(est - target) <= 4 * se) == (flag == "1")


def test_row_validation_helpers():
    cfg = {"experiment": "clone-density-check", "d": 30, "p": 1, "k": 40}
    with pytest.raises(ConfigError):
        run_experiment(cfg, 1)


def test_frame_construction_bug_is_not_skipped(monkeypatch):
    # only an infeasible or rank-deficient frame is skipped; any other error
    # from the frame construction propagates
    def broken(w, x):
        raise TypeError("injected")

    monkeypatch.setattr(linalg, "stiefel_from_constraints", broken)
    with pytest.raises(TypeError, match="injected"):
        run_bartlett_check(np.random.default_rng(0), d=12, p=1, k=2, n=1000, n_frames=3)


def test_bartlett_check_with_every_frame_skipped_fails(monkeypatch):
    def infeasible(w, x):
        raise ConstraintViolatedError("injected")

    monkeypatch.setattr(linalg, "stiefel_from_constraints", infeasible)
    rows = run_bartlett_check(np.random.default_rng(0), d=12, p=1, k=2, n=1000, n_frames=3)
    det = rows[-1]
    assert det.params.endswith("lambda_det;frames=3;skipped=3")
    assert not det.passed


def test_all_kinds_report_matches_golden(tmp_path):
    """`projcond run` on tests/data/all_kinds.json, nineteen experiments
    over all ten kinds at seed 777, writes tests/data/all_kinds.csv byte for
    byte.  A refactor that claims to change no result must keep this.  The
    golden file was written on x86-64 with NumPy 2.4.6 and OpenBLAS; another
    BLAS can round the last printed digit of a few rows differently."""
    cfg = json.loads((DATA / "all_kinds.json").read_text())
    assert {exp["experiment"] for exp in cfg["experiments"]} == set(EXPERIMENTS)
    out = tmp_path / "all_kinds"
    assert main(["run", str(DATA / "all_kinds.json"), "--out", str(out)]) == 0
    assert (tmp_path / "all_kinds.csv").read_bytes() == (DATA / "all_kinds.csv").read_bytes()


def test_smoke_report_matches_golden(tmp_path):
    """`projcond verify --profile smoke` at the default seed writes
    tests/data/smoke.csv byte for byte (same platform caveat as above)."""
    out = tmp_path / "smoke"
    assert main(["verify", "--profile", "smoke", "--out", str(out)]) == 0
    assert (tmp_path / "smoke.csv").read_bytes() == (DATA / "smoke.csv").read_bytes()


def test_readme_cli_block_parses():
    # every command line of the README's CLI block is one the parser takes,
    # so the docs cannot show a subcommand or option that is gone
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    commands = [ln.split("#", 1)[0].split() for ln in block.splitlines()
                if ln.startswith("projcond ")]
    assert len(commands) >= 4
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command in ("run", "verify"), argv


def test_readme_lists_every_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    for kind, fn in EXPERIMENTS.items():
        row = next(line for line in readme if line.startswith(f"| `{kind}` |"))
        for name in list(inspect.signature(fn).parameters)[1:]:
            assert f"`{name}`" in row, (kind, name)


SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
           | st.sampled_from(["gaussian", "iid-marginal", "uniform", "A", "alternating", "64"]))
SHALLOW = SCALARS | st.lists(SCALARS, max_size=3)
JSON_VALUES = SCALARS | st.lists(SHALLOW, max_size=4) | st.dictionaries(
    st.sampled_from(["family", "marginal", "d", "64", "xi"]) | st.text(max_size=3),
    SHALLOW, max_size=4)

# one valid config of each kind, without its "experiment" field
VALID_CONFIGS = {exp.pop("experiment"): exp for exp in json.loads(
    (DATA / "all_kinds.json").read_text())["experiments"]}


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(sorted(EXPERIMENTS)), data=st.data())
def test_parse_config_raises_only_config_errors(kind, data):
    # a valid config of the kind (from the golden file) with fields dropped
    # and any JSON value put in known or unknown fields either parses into
    # the runner's keyword arguments or raises ConfigError; no experiment runs
    fn = EXPERIMENTS[kind]
    fields = list(inspect.signature(fn).parameters)[1:]
    valid = VALID_CONFIGS[kind]
    dropped = data.draw(st.sets(st.sampled_from(sorted(valid))))
    names = st.sampled_from(fields + ["n_frame", "seed", "experiment"]) | st.text(max_size=4)
    cfg = {name: v for name, v in valid.items() if name not in dropped}
    cfg.update(data.draw(st.dictionaries(names, JSON_VALUES, max_size=3)))
    try:
        args = parse_config(fn, cfg)
    except ConfigError:
        return
    assert list(args) == fields


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about half the start-up of every run; only the KS
    # test in bartlett_distribution_check and g_membership's chi2 load it,
    # inside the function
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    child = subprocess.run(
        [sys.executable, "-c", "import sys, projcond.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "False"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # the draw-ahead worker's executor, with the logging it pulls in, loads
    # only when a clone loop first draws
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, projcond.cli; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "False"


def test_degenerate_kernel_window_names_the_first_outer_x(tmp_path, capsys):
    # at this bandwidth every outer x of the first frame finds no pool mass;
    # the message names the first of them, x = 2.14129102 at seed 7, as the
    # loop over the outer points reported it when it ran on one thread
    cfg = _write(tmp_path, "degenerate.json", {
        "seed": 7, "experiment": "conditional-linearity", "d_list": [8], "n_frames": 2,
        "bandwidths": {"8": 1e-9}, "n_inner": {"8": 1000},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == "error: no pool mass near x = [2.14129102]\n"
    assert not (tmp_path / "r.csv").exists()


def test_run_refuses_an_out_that_would_overwrite_its_config(tmp_path, capsys):
    cfg = _write(tmp_path, "k.json", {
        "experiment": "theorem-bound", "part": "A", "d": 100, "p": 1, "t": 1, "tau": 0.5,
    })
    before = (tmp_path / "k.json").read_bytes()
    assert main(["run", cfg, "--out", str(tmp_path / "k")]) == 2
    assert "'out'" in capsys.readouterr().err
    assert (tmp_path / "k.json").read_bytes() == before
    # the same through the config's own out field
    _write(tmp_path, "k.json", {
        "out": str(tmp_path / "k"), "experiment": "theorem-bound", "part": "A", "d": 100,
        "p": 1, "t": 1, "tau": 0.5,
    })
    before = (tmp_path / "k.json").read_bytes()
    assert main(["run", cfg]) == 2
    assert (tmp_path / "k.json").read_bytes() == before


def test_cli_runs_without_scipy(tmp_path):
    # projcond starts on numpy alone: log_eta, conditional.eigsh, the KS
    # test and g_membership's chi2 import their SciPy module when called,
    # so a closed-form run and a run that stops at a bad field load none
    bound = _write(tmp_path, "bound.json", {
        "experiment": "theorem-bound", "part": "A", "d": 1e6, "p": 2, "t": 1, "tau": 0.5,
    })
    bad = _write(tmp_path, "bad.json", {
        "experiment": "clone-density-check", "d": "abc", "p": 1, "k": 1,
    })
    script = (
        "import sys\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "from projcond import cli\n"
        "print(scipy_loaded())\n"
        f"print(cli.main(['run', {bound!r}, '--out', {str(tmp_path / 'bound-report')!r}]))\n"
        "print(scipy_loaded())\n"
        f"print(cli.main(['run', {bad!r}, '--out', {str(tmp_path / 'bad-report')!r}]))\n"
        "print(scipy_loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, check=True)
    assert child.stdout.split("\n")[:5] == ["[]", "0", "[]", "2", "[]"]
