import json
import os
from pathlib import Path

import pytest

from szegolab.cli import main, validate_config


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


SETS_CONFIG = {"kind": "sets",
               "gamma": {"generator": "power", "rho": 3, "count": 50}}
WEIGHTS_CONFIG = {"kind": "weights", "weight": {"kind": "exp", "c": 1.0}}
DEEPZERO_CONFIG = {"kind": "deepzero", "M": 20, "k_min": 0,
                   "t_min": 0.02, "t_max": 0.2, "points": 20}


def test_validate_ok(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", SETS_CONFIG)
    assert main(["validate", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_bad_rho(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {"kind": "sets",
                  "gamma": {"generator": "power", "rho": 0.5, "count": 5}})
    assert main(["validate", cfg]) == 2


def test_validate_names_the_field():
    problems = validate_config(
        {"kind": "sets", "gamma": {"generator": "power", "rho": 0.5,
                                   "count": 5}})
    assert any("rho" in p for p in problems)


PROBE_TRIGPOLY = {"kind": "probe", "weight": {"kind": "exp", "c": 1.0},
                  "gamma": {"generator": "power", "rho": 3, "count": 10},
                  "target": {"kind": "trigpoly"}, "N_list": [20]}


@pytest.mark.parametrize("config, field", [
    ({"kind": "sets", "gamma": {"generator": "power", "rho": "abc",
                                "count": 5}}, "gamma.rho"),
    ([SETS_CONFIG], "JSON object"),
    (PROBE_TRIGPOLY, "target.coeffs"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {"x": 1}}},
     "target.coeffs key"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {"2": 1}},
      "N_list": [10, "abc"]}, "N_list"),
    ({**SETS_CONFIG, "tol": "abc"}, "tol"),
    ({**DEEPZERO_CONFIG, "t_min": "abc"}, "t_min"),
    ({**WEIGHTS_CONFIG, "weight": 1.0}, "weight"),
], ids=["rho-not-a-number", "top-level-list", "trigpoly-without-coeffs",
        "coeff-key", "N_list-entry", "tol", "t_min", "weight-not-object"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_bad_input_exits_2_naming_the_field(tmp_path, capsys, config, field,
                                            command):
    cfg = _write(tmp_path, "c.json", config)
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, cfg, *extra]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out",
                 str(tmp_path / "out")]) == 2


def test_unknown_kind(tmp_path):
    cfg = _write(tmp_path, "c.json", {"kind": "bogus"})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2


def test_sets_run_and_report(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", SETS_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["summary"]["verdict"] == "converges"
    assert set(manifest["outputs"]) == {"set.txt", "sqrt_sums.csv"}
    assert main(["report", str(out / "manifest.json")]) == 0
    assert "verdict: converges" in capsys.readouterr().out


def test_weights_run(tmp_path):
    cfg = _write(tmp_path, "c.json", WEIGHTS_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["passed"] is True


def test_deepzero_run_negative_slope(tmp_path):
    cfg = _write(tmp_path, "c.json", DEEPZERO_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["c2"] > 0
    assert summary["correlation"] < -0.99
    csv = (out / "deepzero_scan.csv").read_text().splitlines()
    assert csv[0] == "t,abs_H,log_abs_H,inv_t"
    assert len(csv) == 21


def test_tolerance_failure_exit_code(tmp_path):
    # annihilator target with a weight whose decay outruns the series
    cfg = _write(tmp_path, "c.json", {
        "kind": "probe", "weight": {"kind": "exp", "c": 1.0},
        "gamma": {"generator": "power", "rho": 2, "count": 50},
        "target": {"kind": "annihilator", "M": 20}, "N_list": [20]})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "error" in manifest["summary"]


def test_manifest_written_before_data(tmp_path):
    # a failing run still leaves a manifest behind
    cfg = _write(tmp_path, "c.json", {
        "kind": "probe", "weight": {"kind": "exp", "c": 1.0},
        "gamma": {"generator": "power", "rho": 2, "count": 50},
        "target": {"kind": "annihilator", "M": 20}, "N_list": [20]})
    out = tmp_path / "out"
    main(["run", cfg, "--out", str(out)])
    assert (out / "manifest.json").exists()


def test_env_tolerance_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SZEGO_TOL", "1e-5")
    cfg = _write(tmp_path, "c.json", SETS_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tolerance"] == 1e-5


def test_csv_determinism(tmp_path):
    cfg = _write(tmp_path, "c.json", DEEPZERO_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "deepzero_scan.csv").read_bytes()
    b2 = (out2 / "deepzero_scan.csv").read_bytes()
    assert b1 == b2
