import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from szegolab import deep_zero, quadrature
from szegolab.cli import main, validate_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
BLASCHKE_CONFIG = {"kind": "blaschke",
                   "gamma": {"generator": "power", "rho": 3, "count": 50}}
PROBE_CONFIG = {**PROBE_TRIGPOLY, "target": {"kind": "annihilator", "M": 20}}
POWER_SQUARES = {"generator": "power", "rho": 2, "count": 100}


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
    ({**BLASCHKE_CONFIG, "gamma": POWER_SQUARES}, "gamma"),
    ({**BLASCHKE_CONFIG, "K": "x"}, "K"),
    ({**BLASCHKE_CONFIG, "z_points": [[1]]}, "z_points"),
    ({**WEIGHTS_CONFIG, "grid_size": 4}, "grid_size"),
    ({**WEIGHTS_CONFIG, "weight": {"kind": "constant"}}, "weight.v"),
    ({"kind": "sets", "gamma": {"generator": "blocks", "starts": [1, "x"],
                                "lengths": [2, 3]}}, "gamma.starts"),
    ({"kind": "sets", "gamma": POWER_SQUARES,
      "condition_B": {"x_grid": [1000], "thin": True}}, "condition_B.C"),
    ({**PROBE_CONFIG, "N_list": [0, 10]}, "N_list"),
    ({**WEIGHTS_CONFIG, "grid_size": "x"}, "grid_size"),
    ({**WEIGHTS_CONFIG, "weight": {"kind": "constant", "v": -1}}, "weight.v"),
    ({**WEIGHTS_CONFIG, "weight": {"kind": "tabulated",
                                   "samples": [[0.5, 1.0]]}},
     "weight.samples"),
    ({**WEIGHTS_CONFIG, "weight": {"kind": "companion", "factor": "x"}},
     "weight.factor"),
    ({**DEEPZERO_CONFIG, "points": "x"}, "points"),
    ({**DEEPZERO_CONFIG, "points": 1}, "points"),
    ({"kind": "sets", "gamma": {"generator": "explicit", "elements": ["a"]}},
     "gamma.elements"),
    ({"kind": "sets", "gamma": POWER_SQUARES,
      "condition_B": {"C": "x", "x_grid": [1000]}}, "condition_B.C"),
    ({**PROBE_CONFIG, "target": {"kind": "annihilator", "M": "x"}},
     "target.M"),
    ({**BLASCHKE_CONFIG, "identity_tol": "x"}, "identity_tol"),
    ({**DEEPZERO_CONFIG, "t_max": 0.01}, "t_max"),
    ({"kind": "sets", "gamma": {"generator": "explicit", "elements": []}},
     "gamma"),
    ({**BLASCHKE_CONFIG, "t_scan": [-1.0, 1.0]}, "t_scan"),
    ({**BLASCHKE_CONFIG, "z_points": [[0, 1], [-1, 0]]}, "z_points"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {"2": 1}},
      "floor": -1}, "floor"),
    ({**DEEPZERO_CONFIG, "k_min": -1}, "k_min"),
    ({"kind": "sets", "gamma": POWER_SQUARES,
      "condition_B": {"C": 3.0, "x_grid": [1000], "thin": "yes"}},
     "condition_B.thin"),
    ({**WEIGHTS_CONFIG, "weight": {"kind": "exp", "c": math.nan}}, "weight.c"),
], ids=["rho-not-a-number", "top-level-list", "trigpoly-without-coeffs",
        "coeff-key", "N_list-entry", "tol", "t_min", "weight-not-object",
        "blaschke-divergent-gamma", "K-not-a-number", "z_points-entry",
        "grid_size-too-small", "constant-without-v", "blocks-starts-entry",
        "condition_B-without-C", "N_list-zero", "grid_size-not-a-number",
        "constant-v-negative", "tabulated-one-sample", "factor-not-a-number",
        "points-not-a-number", "points-too-few", "elements-entry",
        "condition_B-C-not-a-number", "target-M-not-a-number",
        "identity_tol-not-a-number", "t_max-below-t_min", "empty-gamma",
        "t_scan-above-0", "z_points-on-cut", "floor-negative",
        "k_min-negative", "thin-not-a-flag",
        "c-not-finite"])
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


@pytest.mark.parametrize("command", ["run", "validate"])
def test_bad_env_tolerance_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("SZEGO_TOL", "abc")
    cfg = _write(tmp_path, "c.json", SETS_CONFIG)
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, cfg, *extra]) == 2
    err = capsys.readouterr().err
    assert "config error: SZEGO_TOL" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_config_validates(path, monkeypatch):
    monkeypatch.delenv("SZEGO_TOL", raising=False)
    assert main(["validate", str(path)]) == 0


def _field_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


# magnitudes stay small: a well-formed config runs as long as it asks to
# (a count of 1e9 builds a billion-element set), which is not a fault
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-1000, 1000)
                 | st.floats(-1e3, 1e3)
                 | st.sampled_from([math.nan, math.inf, -math.inf])
                 | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)


def _mutate(config, path, value, delete):
    node = config
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value


@pytest.mark.parametrize("name", ["sets", "weights", "blaschke", "deepzero",
                                  "probe"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_exits_0_2_or_3(name, monkeypatch, data):
    """A config with one field deleted or replaced by any JSON value
    validates with exit 0 or 2; sets and weights, which are cheap to run,
    also run with exit 0, 2 or 3, and exit 2 exactly when validate does."""
    monkeypatch.delenv("SZEGO_TOL", raising=False)
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    path = data.draw(st.sampled_from(list(_field_paths(config))))
    _mutate(config, path, data.draw(_JSON_VALUES), data.draw(st.booleans()))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code = main(["validate", str(cfg)])
        assert code in (0, 2)
        if name in ("sets", "weights"):
            run_code = main(["run", str(cfg), "--out", str(Path(tmp) / "out")])
            assert run_code in (0, 2, 3)
            assert (run_code == 2) == (code == 2)


def test_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out",
                 str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_not_utf8_exits_2(tmp_path, command):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b'{"kind": "\xff"}')
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(cfg), *extra]) == 2


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


@pytest.mark.parametrize("content", [
    b'[1, 2]',
    b'{"kind": "sets", "outputs": []}',
    b'{"kind": "sets", "summary": {"verdict": "\xff"}}',
    b'{"kind": "sets", "outputs": {"set.txt": 5}}',
    b'{"kind": "deepzero", "summary": {"c2": 1.0}}',
], ids=["list", "outputs-list", "not-utf8", "digest-number", "missing-field"])
def test_report_malformed_manifest_exits_2(tmp_path, capsys, content):
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("manifest error:")
    assert "Traceback" not in err


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


def test_unconverged_membership_exits_3(tmp_path, capsys, monkeypatch):
    def unconverged(*args, **kw):
        res = quadrature.integrate_finite(*args, **kw)
        return quadrature.QuadratureResult(res.value, res.abs_error_estimate,
                                           res.evaluations, False)

    monkeypatch.delenv("SZEGO_TOL", raising=False)
    monkeypatch.setattr(deep_zero, "integrate_finite", unconverged)
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / "probe.json"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "did not converge" in err
    assert "Traceback" not in err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


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
