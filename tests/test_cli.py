import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from szegolab import deep_zero, quadrature
from szegolab.cli import main

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


def test_validate_names_the_field(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json",
                 {"kind": "sets",
                  "gamma": {"generator": "power", "rho": 0.5, "count": 5}})
    assert main(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: gamma") and "rho" in err


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
    # keys naming one frequency would keep only the last amplitude
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {"3": 1.0, "03": 5.0}}},
     "target.coeffs keys '3' and '03'"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {"3": 1.0, "+3": 5.0}}},
     "target.coeffs keys '3' and '+3'"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {"2": 1}},
      "N_list": [10, "abc"]}, "N_list"),
    ({**SETS_CONFIG, "tol": "abc"}, "tol"),
    ({**DEEPZERO_CONFIG, "t_min": "abc"}, "t_min"),
    ({**WEIGHTS_CONFIG, "weight": 1.0}, "weight"),
    ({**BLASCHKE_CONFIG, "gamma": POWER_SQUARES}, "gamma"),
    ({**BLASCHKE_CONFIG, "K": "x"}, "K"),
    ({**BLASCHKE_CONFIG, "z_points": [[1]]}, "z_points"),
    ({**WEIGHTS_CONFIG, "weight": {"kind": "constant"}}, "weight.v"),
    ({"kind": "sets", "gamma": {"generator": "blocks", "starts": [1, "x"],
                                "lengths": [2, 3]}}, "gamma.starts"),
    ({"kind": "sets", "gamma": POWER_SQUARES,
      "condition_B": {"x_grid": [1000], "thin": True}}, "condition_B.C"),
    ({**PROBE_CONFIG, "N_list": [0, 10]}, "N_list"),
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
    # exp(-1e300/t) is 0 in double precision on all of [0, 1]
    ({**WEIGHTS_CONFIG, "weight": {"kind": "exp", "c": 1e300}}, "weight.c"),
    ({"kind": "probe", "weight": {"kind": "exp", "c": 1e300},
      "gamma": {"generator": "power", "rho": 3, "count": 10},
      "target": {"kind": "trigpoly", "coeffs": {"2": 1}},
      "N_list": [20]}, "weight.c"),
], ids=["rho-not-a-number", "top-level-list", "trigpoly-without-coeffs",
        "coeff-key", "coeff-keys-03", "coeff-keys-+3", "N_list-entry", "tol",
        "t_min", "weight-not-object",
        "blaschke-divergent-gamma", "K-not-a-number", "z_points-entry",
        "constant-without-v", "blocks-starts-entry",
        "condition_B-without-C", "N_list-zero",
        "constant-v-negative", "tabulated-one-sample", "factor-not-a-number",
        "points-not-a-number", "points-too-few", "elements-entry",
        "condition_B-C-not-a-number", "target-M-not-a-number",
        "identity_tol-not-a-number", "t_max-below-t_min", "empty-gamma",
        "t_scan-above-0", "z_points-on-cut", "floor-negative",
        "k_min-negative", "thin-not-a-flag",
        "c-not-finite", "weights-c-underflows", "probe-c-underflows"])
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


def test_trigpoly_probe_run_and_report(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {
        "kind": "probe", "weight": {"kind": "exp", "c": 0.5},
        "gamma": {"generator": "power", "rho": 3, "count": 10},
        "target": {"kind": "trigpoly", "coeffs": {"2": [1.0, 0.0]}},
        "N_list": [5, 10]})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert main(["report", str(out / "manifest.json")]) == 0
    text = capsys.readouterr().out
    assert f"min residual ratio: {summary['min_ratio']:.6g}" in text
    assert "annihilator" not in text


def test_probe_report_prints_worst_error_and_final_cond(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {
        "kind": "probe", "weight": {"kind": "exp", "c": 0.5},
        "gamma": {"generator": "power", "rho": 3, "count": 10},
        "target": {"kind": "trigpoly", "coeffs": {"0": 1.0}},
        "N_list": [5, 10, 20]})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "residuals.csv").read_text().splitlines()
    assert header == ("N,residual,target_norm,ratio,cond_estimate,"
                      "residual_error")
    rows = [[float(v) for v in row.split(",")] for row in rows]
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["max_residual_error"] == max(r[5] for r in rows) > 0
    assert summary["final_cond_estimate"] == rows[-1][4] > 1
    assert main(["report", str(out / "manifest.json")]) == 0
    text = capsys.readouterr().out
    assert f"max residual error: {summary['max_residual_error']:.6g}" in text
    assert (f"final cond estimate: {summary['final_cond_estimate']:.6g}"
            in text)


def test_runtime_imports_no_test_oracle():
    """scipy and mpmath serve the tests only; the package and its CLI do
    not import them."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, szegolab, szegolab.cli; print(sorted(m for m in "
            "('scipy', 'mpmath') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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


def test_weights_run_exp_weight_underflowing_near_0(tmp_path):
    """exp(-2/t) underflows for t below 2.7e-3 and is positive all the same."""
    cfg = _write(tmp_path, "c.json",
                 {"kind": "weights", "weight": {"kind": "exp", "c": 2.0}})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["positive"] is True and summary["passed"] is True


def test_blaschke_run_one_point_scan(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {**BLASCHKE_CONFIG, "t_scan": [-1.0], "z_points": []})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "boundary_scan.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("-1,")


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


@pytest.mark.parametrize("config, field", [
    ({**DEEPZERO_CONFIG, "membrship": True}, "membrship"),
    ({**WEIGHTS_CONFIG, "weight": {"kind": "exp", "c": 1.0, "M": 20}},
     "weight.M"),
    ({"kind": "sets", "gamma": {"generator": "power", "rho": 3, "count": 5,
                                "elements": [1, 2]}}, "gamma.elements"),
    ({**WEIGHTS_CONFIG, "grid_size": 64}, "grid_size"),
    ({**PROBE_CONFIG, "floor": 0}, "floor"),
], ids=["misspelled-flag", "field-of-another-weight-kind",
        "field-of-another-generator", "removed-field", "removed-floor"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_unread_field_exits_2_naming_it(tmp_path, capsys, config, field,
                                        command):
    cfg = _write(tmp_path, "c.json", config)
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, cfg, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown field {field} ")
    assert not (tmp_path / "out").exists()


_SQUARES_PROBE_TEXT = (
    '{"kind": "probe", "weight": {"kind": "companion", "factor": 0.9, '
    '"M": 20%s}, "gamma": {"generator": "power", "rho": 2, "count": 100}, '
    '"target": {"kind": "%s"%s}, "N_list": [20]}')


@pytest.mark.parametrize("text, key", [
    ('{"kind": "weights", "weight": {"kind": "exp", "c": 1.0}, '
     '"kind": "sets"}', "kind"),
    (_SQUARES_PROBE_TEXT % (', "M": 40', "annihilator", ', "M": 20'),
     "weight.M"),
    (_SQUARES_PROBE_TEXT % ("", "trigpoly", ', "coeffs": {"3": 1, "3": 5}'),
     "target.coeffs.3"),
    ('{"kind": "sets", "gamma": {"generator": "power", "rho": 3, '
     '"count": 5}, "tags": [1, {"a": 1, "a": 2}]}', "tags.1.a"),
], ids=["top-level", "nested", "nested-twice", "in-a-list"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_repeated_key_exits_2_naming_its_path(tmp_path, capsys, text, key,
                                              command):
    """json.loads alone keeps the last of two equal keys without a word."""
    cfg = tmp_path / "c.json"
    cfg.write_text(text, encoding="utf-8")
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(cfg), *extra]) == 2
    assert capsys.readouterr().err == f"config error: repeated key {key}\n"
    assert not (tmp_path / "out").exists()


def test_probe_path_leaves_numpy_ma_unloaded(tmp_path):
    """np.unique, union1d and setdiff1d import numpy.ma on first use in
    numpy 2.4; a probe run, squares or trig-poly cubes, needs none of them."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    bare = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; print('numpy.ma' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    if bare.stdout.strip() != "False":
        pytest.skip("import numpy alone loads numpy.ma")
    cubes = _write(tmp_path, "cubes.json", {
        "kind": "probe", "weight": {"kind": "companion", "factor": 0.9},
        "gamma": {"generator": "power", "rho": 3, "count": 10},
        "target": {"kind": "trigpoly", "coeffs": {"2": 1, "5": [0.5, 0.5]}},
        "N_list": [50, 100]})
    code = ("import sys; from szegolab.cli import main; "
            f"codes = [main(['run', c, '--out', {str(tmp_path)!r} + '/' + n]) "
            f"for n, c in (('squares', {str(CONFIGS / 'probe.json')!r}), "
            f"('cubes', {cubes!r}))]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0] False"


@pytest.mark.parametrize("config, message", [
    ({"kind": "probe", "weight": {"kind": "exp", "c": 1.0},
      "gamma": {"generator": "power", "rho": 3, "count": 10},
      "target": {"kind": "trigpoly", "coeffs": {"2": [1e300, 0]}},
      "N_list": [20]}, "target norm^2 is not finite"),
], ids=["target-norm-overflows"])
def test_probe_numeric_failure_exits_3_without_warning(tmp_path, capsys,
                                                       config, message):
    cfg = _write(tmp_path, "c.json", config)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and message in err
    assert not (out / "residuals.csv").exists()


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
