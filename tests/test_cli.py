import json

import numpy as np
import pytest

from projcond import acceptance, linalg
from projcond.cli import main
from projcond.experiments import CSV_HEADER, run_bartlett_check, run_experiment
from projcond.errors import ConfigError


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_run_single_experiment(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "seed": 3, "experiment": "clone-density-check",
        "d": 30, "p": 1, "k": 1, "n": 20_000,
    })
    out = str(tmp_path / "rep")
    assert main(["run", cfg, "--out", out]) == 0
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
])
def test_malformed_config_exit_code(tmp_path, capsys, cfg_obj, field):
    cfg = _write(tmp_path, "cfg.json", cfg_obj)
    assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and field in err
    assert "Traceback" not in err


def test_unknown_experiment_exit_code(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"experiment": "nope"})
    assert main(["run", cfg]) == 2


def test_bound_command(capsys):
    assert main(["bound", "--part", "A", "--d", "1e6", "--p", "2",
                 "--t", "1", "--tau", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "vacuous" in out and "xi_eff" in out


def test_scan_command(tmp_path):
    cfg = _write(tmp_path, "scan.json", {
        "p": 2, "part": "A", "tau": 0.5,
        "log_d_grid": [1e3, 1e4, 1e5, 1e6],
    })
    assert main(["scan", cfg, "--out", str(tmp_path / "scan")]) == 0
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert any("below-1e-3" in ln for ln in lines)


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
    cfg = {"experiment": "bartlett-check", "d": 12, "p": 1, "k": 2, "n": 1000, "n_frames": 3}
    with pytest.raises(TypeError, match="injected"):
        run_bartlett_check(cfg, np.random.default_rng(0))
