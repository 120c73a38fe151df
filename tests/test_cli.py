import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from szegolab import cli, deep_zero, probe, quadrature
from szegolab.cli import main
from szegolab.weights import make_exp_weight

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def _child(*args, **kwargs):
    """python -c or -m in a child process, importing szegolab from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)}, **kwargs)


SETS_CONFIG = {"kind": "sets",
               "gamma": {"generator": "power", "rho": 3, "count": 50}}
WEIGHTS_CONFIG = {"kind": "weights", "weight": {"kind": "exp", "c": 1.0}}
DEEPZERO_CONFIG = {"kind": "deepzero", "M": 20, "k_min": 0,
                   "t_min": 0.02, "t_max": 0.2, "points": 20}


def test_validate_ok(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", SETS_CONFIG)
    assert main(["validate", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


def test_module_entry_point_validates_a_shipped_config():
    """python -m szegolab.cli runs main and exits with its code."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "szegolab.cli", "validate",
         str(CONFIGS / "probe.json")],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "config ok\n"


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
    # a frequency past the size cap would size the probe's recursion
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {"100001": 1.0}}},
     "target.coeffs key must be an integer of size at most 100000"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {"2": 1}},
      "N_list": [10, "abc"]}, "N_list"),
    ({**DEEPZERO_CONFIG, "tol": "abc"}, "tol"),
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
    # numbers are JSON numbers: no strings or booleans, and integer fields
    # take no fractions
    ({"kind": "sets", "gamma": {"generator": "power", "rho": 3,
                                "count": 10.9}}, "gamma.count"),
    ({"kind": "sets", "gamma": {"generator": "power", "rho": "3",
                                "count": 10}}, "gamma.rho"),
    ({**DEEPZERO_CONFIG, "tol": "1e-8"}, "tol"),
    ({**DEEPZERO_CONFIG, "tol": True}, "tol"),
    ({**PROBE_CONFIG, "target": {"kind": "annihilator", "M": True}},
     "target.M"),
    ({**DEEPZERO_CONFIG, "k_min": 1.0}, "k_min"),
    ({**DEEPZERO_CONFIG, "points": 20.5}, "points"),
    ({**BLASCHKE_CONFIG, "K": False}, "K"),
    ({**PROBE_CONFIG, "N_list": [10, 20.0]}, "N_list"),
    ({**WEIGHTS_CONFIG, "weight": {"kind": "exp", "c": "1.0"}}, "weight.c"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {"2": "1+2j"}}},
     "target.coeffs.2"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {"2": True}}},
     "target.coeffs.2"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {"2": ["1", 0]}}},
     "target.coeffs.2"),
    # interval blocks are integer intervals
    ({"kind": "sets", "gamma": {"generator": "blocks", "starts": [1.5, 10],
                                "lengths": [2, 1]}}, "gamma.starts"),
    ({"kind": "sets", "gamma": {"generator": "blocks", "starts": [1, 10],
                                "lengths": [2, 0.9]}}, "gamma.lengths"),
    ({"kind": "sets", "gamma": {"generator": "blocks", "starts": [5],
                                "lengths": [-3]}}, "gamma: block"),
    # an amplitude list is [re, im], no shorter or longer
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {"2": [], "3": 1}}},
     "target.coeffs.2"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {"2": 1, "3": [0.5]}}},
     "target.coeffs.3"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {"2": [1, 2, 3]}}},
     "target.coeffs.2"),
    # np.interp reads one of two values at an abscissa, the breakpoints the
    # other
    ({**WEIGHTS_CONFIG, "weight": {"kind": "tabulated", "samples": [
        [0, 1], [0.5, 0.1], [0.5, 2], [1, 3]]}}, "weight.samples"),
    # a probe removes integers: 2.5 and 3.7 would remove nothing
    ({**PROBE_TRIGPOLY, "gamma": {"generator": "explicit",
                                  "elements": [2.5, 3.7]},
      "target": {"kind": "trigpoly", "coeffs": {"10": 1}}}, "gamma"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {"2": 1}},
      "N_list": 50}, "N_list"),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {}}},
     "target.coeffs"),
    # a check of no points would pass
    ({"kind": "sets", "gamma": POWER_SQUARES,
      "condition_B": {"C": 3.0, "x_grid": []}}, "condition_B.x_grid"),
], ids=["rho-not-a-number", "top-level-list", "trigpoly-without-coeffs",
        "coeff-key", "coeff-keys-03", "coeff-keys-+3", "coeff-key-past-cap",
        "N_list-entry", "tol",
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
        "c-not-finite", "weights-c-underflows", "probe-c-underflows",
        "count-fraction", "rho-string", "tol-string", "tol-bool", "M-bool",
        "k_min-float", "points-fraction", "K-bool", "N_list-float",
        "c-string", "amplitude-string", "amplitude-bool",
        "amplitude-part-string", "blocks-start-fraction",
        "blocks-length-fraction", "blocks-length-negative",
        "amplitude-empty", "amplitude-one-part", "amplitude-three-parts",
        "tabulated-abscissa-twice", "probe-gamma-fractions",
        "N_list-not-a-list", "coeffs-empty", "x_grid-empty"])
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


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_config_validates(path):
    assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_config_runs_end_to_end(path, tmp_path, capsys):
    """A shipped config runs to exit 0 and status "complete"; the manifest
    digests are the sha256 of the artifacts, a second run writes the same
    bytes, and report prints one line per summary key."""
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["run", str(path), "--out", str(out)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    outputs = manifest["outputs"]
    assert sorted(p.name for p in first.iterdir()) == sorted(
        [*outputs, "manifest.json"])
    for name, digest in outputs.items():
        data = (first / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        assert (second / name).read_bytes() == data
    capsys.readouterr()
    assert main(["report", str(first / "manifest.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = manifest["summary"]
    assert [line.split(": ")[0] for line in lines[2:2 + len(summary)]] == (
        sorted(summary))
    assert len(lines) == 2 + len(summary) + len(outputs)
    if path.stem == "sets":
        assert "condition_B_passed: true" in lines
        assert "tail_bound: null" in lines


# the sha256 of every artifact of each shipped config, run with one BLAS and
# OpenMP thread; a change that moves any byte restates the digest here and
# names the artifact and the reason in CHANGES.md
CONFIG_DIGESTS = {
    "blaschke": {
        "boundary_scan.csv":
            "32cbc9792f67018ef35926708d7421b6b1d6db977f374862dc038d778bd92d9b",
        "identity_scan.csv":
            "1c1ae00777dbd24b06d83f8206d515c5e7664ad8ce667c7a8b4814792dd410b2"},
    "deepzero": {
        "deepzero_scan.csv":
            "40a59718b918525a72732147d58c34cf1389e74b2a24a67eadcca142413b999b",
        "summary.json":
            "979a72004fe26b5cd514771a21028e87b4b2a0145d5fcb6d44c0ef791fa5e00e"},
    "probe": {
        "residuals.csv":
            "7b0bd8dcb190737b0c08350b061f622f36062f943a95da6b2a7561be421c1fb7"},
    "prediction": {
        "residuals.csv":
            "265cbc280e681d25701d7e304b9dd16d9d76a4944d7922311d7ecdb630b37bd7"},
    "sets": {
        "condition_B.csv":
            "d7ce8248d17ae9062bbf017e6b7c8ed791c08ba541c8d2e694b3afd6e89d6e18",
        "set.txt":
            "e076b139b9e9516a51b119bd7565d463ad8c3b0267b2504579eecb36cd76f66a",
        "sqrt_sums.csv":
            "dfdef07d86dce528d7b9d35b92456709abab59d8a0cbab08a95eba109598a7d8",
        "thinned_set.txt":
            "96e58d48e2c8e8d1dbbcc3c70e1320215c61a3259bb210d17d03d4a11bd4de09"},
    "weights": {
        "log_integrals.csv":
            "f706d216c4fb6d48c2b53399e2cf31ced897cac9fab873c683dcd2721f47ddc0"},
}


def test_shipped_configs_keep_their_digests(tmp_path):
    """Criterion 14 across changes: every shipped config, run in a child
    process with one BLAS/OpenMP thread, writes the bytes recorded in
    CONFIG_DIGESTS, and every shipped config has a record."""
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(
        CONFIG_DIGESTS)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for name, digests in CONFIG_DIGESTS.items():
        out = tmp_path / name
        run = subprocess.run(
            [sys.executable, "-m", "szegolab.cli", "run",
             str(CONFIGS / f"{name}.json"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == digests, name


def _probe_config(weight, rho, count, target, N_list):
    return {"kind": "probe", "weight": weight,
            "gamma": {"generator": "power", "rho": rho, "count": count},
            "target": target, "N_list": N_list, "tol": 1e-13}


# probe curves whose solves have data, so every rule recurses: the sha256
# of residuals.csv, run with one BLAS and OpenMP thread
RECURSING_CURVES = {
    "cubes-e0-c1": (_probe_config(
        {"kind": "exp", "c": 1.0}, 3, 50,
        {"kind": "trigpoly", "coeffs": {"0": [1.0, 0.0]}},
        [50, 100, 400, 800]),
        "913c0cb3f5ccee952ec58b3cf2c6b95f8ebc4a8e65a0836ba45ebee94fc5c743"),
    "cubes-annihilator": (_probe_config(
        {"kind": "companion", "factor": 0.9, "M": 20}, 3, 50,
        {"kind": "annihilator", "M": 20}, [50, 200, 400]),
        "9632d81b7689d01c39f19eb9bf81b0d73c71a509e6c3fb6051f304b76e1728b0"),
    "squares-e1-c0.236": (_probe_config(
        {"kind": "exp", "c": 0.236}, 2, 100,
        {"kind": "trigpoly", "coeffs": {"1": [1.0, 0.0]}}, [100, 200, 800]),
        "c6c7ebd95c6e0e38b52b391e741ef26a5d4be7d6179d7f13a2cdd2ff841e17cc"),
}


def test_recursing_probe_curves_keep_their_digests(tmp_path):
    """Criterion 14 on curves that read B, which configs/probe.json (no
    solve with data) does not: each run in a child process with one
    BLAS/OpenMP thread writes the recorded residuals.csv."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for name, (config, digest) in RECURSING_CURVES.items():
        out = tmp_path / name
        run = subprocess.run(
            [sys.executable, "-m", "szegolab.cli", "run",
             _write(tmp_path, f"{name}.json", config), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        data = (out / "residuals.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_tol_is_the_tolerance_the_integrals_get(tmp_path, monkeypatch):
    """A config's tol reaches its integrals unchanged, neither finer nor
    coarser, and the summary records it: the probe's annihilator norm and
    blaschke's Cauchy integrals.  At tol 1e-3 the Cauchy residuals miss
    identity_tol, so that run exits 3."""
    asked = []

    def spy(integrate):
        def call(*args):
            asked.append(args[-1])
            return integrate(*args)
        return call

    monkeypatch.setattr(probe, "membership_check",
                        spy(probe.membership_check))
    monkeypatch.setattr(cli, "cauchy_identity_residual",
                        spy(cli.cauchy_identity_residual))
    for config, tol, code in (
            ({"kind": "probe", "weight": {"kind": "exp", "c": 0.3},
              "gamma": {"generator": "power", "rho": 2, "count": 30},
              "target": {"kind": "annihilator", "M": 20},
              "N_list": [10, 20], "tol": 1e-8}, 1e-8, 0),
            ({**BLASCHKE_CONFIG, "tol": 1e-3}, 1e-3, 3)):
        asked.clear()
        cfg = _write(tmp_path, "c.json", config)
        out = tmp_path / config["kind"]
        assert main(["run", cfg, "--out", str(out)]) == code
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert asked and set(asked) == {tol}
        assert summary["tolerance"] == tol


@pytest.mark.parametrize("config, recorded", [
    ({**DEEPZERO_CONFIG, "tol": 1e-3}, False),
    ({**DEEPZERO_CONFIG, "membership": True, "tol": 1e-9}, True),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {"0": 1}},
      "tol": 0.5}, False),
    ({**PROBE_CONFIG, "weight": {"kind": "exp", "c": 0.3}, "tol": 1e-9},
     True)],
    ids=["deepzero", "deepzero-membership", "trigpoly-probe",
         "annihilator-probe"])
def test_tolerance_is_recorded_only_where_an_integral_ran(tmp_path, capsys,
                                                          config, recorded):
    """A run records tol as its summary's tolerance, and report prints it,
    only where an integral read it: a deepzero run with membership, a probe
    with an annihilator target.  The others still read and check tol."""
    cfg = _write(tmp_path, "c.json", config)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary.get("tolerance") == (config["tol"] if recorded else None)
    capsys.readouterr()
    assert main(["report", str(out / "manifest.json")]) == 0
    assert ("tolerance:" in capsys.readouterr().out) == recorded
    bad = _write(tmp_path, "bad.json", {**config, "tol": 0})
    assert main(["validate", bad]) == 2
    assert "config error: tol must be a positive number" in (
        capsys.readouterr().err)


def test_identity_tolerance_miss_exits_3_complete(tmp_path, capsys):
    """A blaschke run whose Cauchy residuals miss identity_tol writes its
    artifacts, status "complete", and exits 3."""
    config = json.loads((CONFIGS / "blaschke.json").read_text())
    cfg = _write(tmp_path, "c.json", {**config, "identity_tol": 1e-30})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["summary"]["identity_passed"] is False
    assert "tolerance not met" in capsys.readouterr().err


def test_blaschke_run_past_the_bound_overflow_exits_0(tmp_path):
    """K = 0 of a 50001-frequency block drops a tail whose exp overflows:
    the run does not need that bound, so it completes, and the product's
    prefactor alone meets its Cauchy integral."""
    cfg = _write(tmp_path, "c.json", {
        "kind": "blaschke", "K": 0,
        "gamma": {"generator": "blocks", "starts": [1], "lengths": [50000]}})
    assert main(["validate", cfg]) == 0
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rows = (out / "identity_scan.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    assert all(float(row.split(",")[2]) <= 1e-12 for row in rows)


NOTHING_REMOVED = {"generator": "explicit", "elements": []}


def _residual_rows(tmp_path, config):
    """(N, residual, residual_error) of each row of a probe run's
    residuals.csv; the run exits 0."""
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "c.json", config),
                 "--out", str(out)]) == 0
    rows = (out / "residuals.csv").read_text().splitlines()[1:]
    return [(int(r.split(",")[0]), *map(float, r.split(",")[1::3]))
            for r in rows]


def test_probe_with_nothing_removed_reads_szego_prediction_error(tmp_path):
    """configs/prediction.json: with gamma empty the residual of e_0 is
    Szegő's d_N, and for exp(-1/t) both ends of d_N -+ residual_error
    round to the digits tests/test_exact_weights.py pins."""
    config = json.loads((CONFIGS / "prediction.json").read_text())
    assert config["gamma"] == NOTHING_REMOVED
    pinned = {25: "3.46886e-02", 100: "1.80240e-02", 800: "6.50176e-03"}
    rows = {N: (d, error) for N, d, error in _residual_rows(tmp_path, config)}
    for N, digits in pinned.items():
        d, error = rows[N]
        for end in (d - error, d + error):
            assert f"{end * end:.5e}" == digits, N


def test_probe_with_nothing_removed_falls_to_the_geometric_mean(tmp_path):
    """Szegő's theorem on a tabulated weight: d_N^2 decreases toward
    G(w) = exp(int log w) = 1.19524383064679 (50-digit mpmath), every
    point above G and every step down larger than the two points'
    residual_errors (the gaps d_N^2 - G halve on each doubling, from
    1.09e-2 at N = 5 to 9.1e-5 at N = 640)."""
    G = 1.19524383064679
    rows = _residual_rows(tmp_path, {
        "kind": "probe", "gamma": NOTHING_REMOVED,
        "weight": {"kind": "tabulated",
                   "samples": [[0, 0.5], [0.3, 1], [1, 2]]},
        "target": {"kind": "trigpoly", "coeffs": {"0": 1}},
        "N_list": [5 * 2 ** i for i in range(8)], "tol": 1e-13})
    assert all((d - error) ** 2 > G for _, d, error in rows)
    for (_, d, error), (_, d_next, error_next) in zip(rows, rows[1:]):
        assert d - error > d_next + error_next


def test_blaschke_with_nothing_removed_runs_the_empty_product(tmp_path):
    """An empty gamma is the empty product z^2/(1 + sqrt z)^8, which
    criterion 2 takes as its baseline: the run exits 0, and every Cauchy
    identity residual is below identity_tol."""
    cfg = _write(tmp_path, "c.json",
                 {"kind": "blaschke", "gamma": NOTHING_REMOVED})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rows = (out / "identity_scan.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    assert all(float(row.split(",")[2]) < manifest["summary"]["identity_tol"]
               for row in rows)


def test_shipped_configs_run_the_szego_recursion(tmp_path, monkeypatch):
    """Some shipped config reaches probe._szego (configs/prediction.json;
    configs/probe.json's solves have no data, so it runs no recursion)."""
    calls, szego = [], probe._szego

    def counted(*args):
        calls.append(args[2])
        return szego(*args)
    monkeypatch.setattr(probe, "_szego", counted)
    for path in sorted(CONFIGS.glob("*.json")):
        assert main(["run", str(path), "--out",
                     str(tmp_path / path.stem)]) == 0
    assert calls


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
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_config_exits_0_2_or_3(name, data):
    """A config with one field deleted or replaced by any JSON value
    validates with exit 0 or 2; sets and weights, which are cheap to run,
    also run with exit 0, 2 or 3, and exit 2 exactly when validate does."""
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
    capsys.readouterr()
    assert main(["report", str(out / "manifest.json")]) == 0
    text = capsys.readouterr().out
    assert "verdict: converges" in text
    assert "generator: power(rho=3.0, count=50)" in text


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
    assert f"min_ratio: {summary['min_ratio']:.6g}" in text
    assert "annihilator" not in text


def test_probe_report_prints_worst_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {
        "kind": "probe", "weight": {"kind": "exp", "c": 0.5},
        "gamma": {"generator": "power", "rho": 3, "count": 10},
        "target": {"kind": "trigpoly", "coeffs": {"0": 1.0}},
        "N_list": [5, 10, 20]})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "residuals.csv").read_text().splitlines()
    assert header == "N,residual,target_norm,ratio,residual_error"
    rows = [[float(v) for v in row.split(",")] for row in rows]
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["max_residual_error"] == max(r[4] for r in rows) > 0
    assert summary["final_residual"] == rows[-1][1]
    capsys.readouterr()
    assert main(["report", str(out / "manifest.json")]) == 0
    text = capsys.readouterr().out
    # every summary scalar, sorted by key, floats as %.6g
    lines = text.splitlines()
    assert lines[2:2 + len(summary)] == [
        f"{k}: {v:.6g}" if isinstance(v, float) else f"{k}: {v}"
        for k, v in sorted(summary.items())]
    assert f"max_residual_error: {summary['max_residual_error']:.6g}" in lines


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
    b'{"kind": "deepzero", "summary": {"c2": [1.0]}}',
    b'{"kind": "sets", "outputs": {"x": [1, 2]}}',
], ids=["list", "outputs-list", "not-utf8", "digest-number", "nested-value",
        "digest-list"])
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


@pytest.mark.parametrize("z_points, verdict", [([], False), ([[1, 1]], True)],
                         ids=["no-points", "one-point"])
def test_blaschke_scan_of_no_points_records_no_verdict(tmp_path, capsys,
                                                       z_points, verdict):
    """A Cauchy scan of no points writes its header-only CSV and exits 0,
    but records no residual and no verdict, so report prints none; one
    point records both."""
    cfg = _write(tmp_path, "c.json", {**BLASCHKE_CONFIG, "t_scan": [-1.0],
                                      "z_points": z_points})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = (out / "identity_scan.csv").read_text().splitlines()
    assert lines[0] == "z_re,z_im,residual" and len(lines) == 1 + len(z_points)
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    keys = {"max_identity_residual", "identity_tol", "identity_passed"}
    assert keys & summary.keys() == (keys if verdict else set())
    assert summary.get("identity_passed") is (True if verdict else None)
    capsys.readouterr()
    assert main(["report", str(out / "manifest.json")]) == 0
    assert ("identity_passed: true" in capsys.readouterr().out) == verdict


def test_deepzero_run_negative_slope(tmp_path, monkeypatch):
    """The scan reads |H| off the decay fit: one series pass, on its grid."""
    grids = []
    series_pass = deep_zero.eval_H_series

    def counted(series, t):
        grids.append(len(t))
        return series_pass(series, t)

    monkeypatch.setattr(deep_zero, "eval_H_series", counted)
    monkeypatch.setattr(cli, "eval_H_series", counted, raising=False)
    cfg = _write(tmp_path, "c.json", DEEPZERO_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert grids == [DEEPZERO_CONFIG["points"]]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["c2"] > 0
    assert summary["correlation"] < -0.99
    csv = (out / "deepzero_scan.csv").read_text().splitlines()
    assert csv[0] == "t,abs_H,log_abs_H,inv_t"
    assert len(csv) == 21


def test_deepzero_summary_shows_the_exact_rate(tmp_path, capsys):
    """Beside the fitted c2, the manifest summary gives the theta sum's
    exact rate pi/16 (|H| ~ t^-3/2 e^{-pi/(16t)}) for a series that is the
    infinite H to rounding, k_min = 0 and M >= 11, and report prints it;
    the digested summary.json keeps the fit alone.  At M = 10 the
    truncation bound 7.9e-14 stands above the 5.2e-14 floor.  With
    k_min = 1 there is no deep zero, and the fit fails (exit 3).
    membership_check refuses exp(-0.236/t) for exactly the series with no
    exact rate, by the same predicate."""
    weight = make_exp_weight(0.236)
    for k_min, M, exact in [(0, 20, True), (1, 20, False), (0, 10, False),
                            (0, 11, True)]:
        cfg = _write(tmp_path, f"c{k_min}_{M}.json",
                     {**DEEPZERO_CONFIG, "k_min": k_min, "M": M})
        out = tmp_path / f"out{k_min}_{M}"
        assert main(["run", cfg, "--out", str(out)]) == 3 * k_min
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary.get("c2_exact") == (math.pi / 16 if exact else None)
        assert "c2_exact" not in json.loads(
            (out / "summary.json").read_text())
        capsys.readouterr()
        assert main(["report", str(out / "manifest.json")]) == 0
        assert ("c2_exact: 0.19635" in capsys.readouterr().out.splitlines()
                ) == exact
        series = deep_zero.DeepZeroSeries(k_min, M)
        if exact:
            assert math.isfinite(deep_zero.membership_check(series, weight)[0])
        else:
            with pytest.raises(ArithmeticError, match="diverges at t=0"):
                deep_zero.membership_check(series, weight)


def test_deepzero_fit_leaves_out_the_rows_below_the_floor(tmp_path):
    """From t_min = 0.002 twelve of the 20 grid points lie below the
    series' floor 5.2e-14, where it reads rounding noise (4.7e-18 at
    t = 0.002, where the theta sum gives 1.3e-39).  The fit leaves them
    out and fits the other eight (c2 near pi/16 there), and the scan
    still writes all 20 rows."""
    cfg = _write(tmp_path, "c.json", {**DEEPZERO_CONFIG, "t_min": 0.002})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["correlation"] < -0.99
    assert summary["c2"] == pytest.approx(0.1729, abs=1e-4)
    assert len((out / "deepzero_scan.csv").read_text().splitlines()) == 21


def test_deepzero_past_the_overflowing_terms_keeps_its_digests(tmp_path):
    """From k = 226 on the series' coefficients are +-0; a run to M = 300
    on 2000 points writes the bytes it wrote when the scan made its own
    series pass beside the fit's."""
    cfg = _write(tmp_path, "c.json",
                 {"kind": "deepzero", "M": 300, "points": 2000})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["outputs"] == {
        "deepzero_scan.csv":
            "6d1ab2eb14e7a0fe28708f01281f606033c3190aedfbfbf3efd20182585fd1f6",
        "summary.json":
            "5134b9bc75b7ec50f3cac5a072d6f74e511fcac50b762c1c8eb3f28f3cb079f6"}


def test_deepzero_past_k_225_writes_the_bytes_of_M_225(tmp_path):
    """The terms from k = 226 on are +-0, so a run to M = 1000 on 2000
    points, membership included, writes the scan of M = 225 and the same
    membership value and error."""
    scans = []
    for M in (225, 1000):
        cfg = _write(tmp_path, f"c{M}.json", {"kind": "deepzero", "M": M,
                                              "points": 2000,
                                              "membership": True})
        out = tmp_path / f"out{M}"
        assert main(["run", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert (summary["membership_value"], summary["membership_error"]) == (
            16.3350309619275, 2.8027534881200315e-14)
        scans.append((out / "deepzero_scan.csv").read_bytes())
    assert scans[0] == scans[1]
    assert hashlib.sha256(scans[0]).hexdigest() == (
        "6d1ab2eb14e7a0fe28708f01281f606033c3190aedfbfbf3efd20182585fd1f6")


def test_probe_with_an_annihilator_past_k_225_writes_the_bytes_of_M_225(
        tmp_path):
    """configs/probe.json with its target's series to M = 1000 writes the
    residuals.csv of the target to M = 225."""
    config = json.loads((CONFIGS / "probe.json").read_text(encoding="utf-8"))
    residuals = []
    for M in (225, 1000):
        cfg = _write(tmp_path, f"p{M}.json",
                     {**config, "target": {"kind": "annihilator", "M": M}})
        out = tmp_path / f"out{M}"
        assert main(["run", cfg, "--out", str(out)]) == 0
        residuals.append((out / "residuals.csv").read_bytes())
    assert residuals[0] == residuals[1]


def test_deepzero_with_no_term_exits_3(tmp_path, capsys):
    """From k_min = 300 every coefficient is +-0: the series reads 0
    everywhere, and the fit has no point to fit."""
    cfg = _write(tmp_path, "c.json", {"kind": "deepzero", "k_min": 300,
                                      "M": 400})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "fewer than 4 usable points" in err and "Traceback" not in err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_path_that_is_not_a_directory_exits_2(tmp_path, capsys, under):
    """--out naming an existing file, or a path under one, is a bad input:
    exit 2 with an output error, before anything runs, and no traceback."""
    cfg = _write(tmp_path, "c.json", SETS_CONFIG)
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "out" if under else blocker
    assert main(["run", cfg, "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and "Traceback" not in printed.err
    assert printed.err.startswith(f"output error: {out}: ")
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("config, artifact", [
    ("deepzero.json", "deepzero_scan.csv"), ("probe.json", "residuals.csv")])
def test_artifact_that_cannot_be_written_exits_2(tmp_path, capsys, config,
                                                 artifact):
    """An artifact path that is a directory is an output error: exit 2, no
    traceback, and the manifest records the failed run and its error."""
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main(["run", str(CONFIGS / config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out}: ") and artifact in err
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert artifact in manifest["summary"]["error"]


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
    # only the kinds that integrate read tol
    ({**SETS_CONFIG, "tol": 1e-8}, "tol"),
    ({**WEIGHTS_CONFIG, "tol": 1e-8}, "tol"),
], ids=["misspelled-flag", "field-of-another-weight-kind",
        "field-of-another-generator", "removed-field", "removed-floor",
        "sets-tol", "weights-tol"])
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


_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)


def _objects(value, path=()):
    """Paths of the objects in value, list items named by their index."""
    if isinstance(value, dict):
        yield path
    items = value.items() if isinstance(value, dict) else enumerate(
        value if isinstance(value, list) else ())
    for key, item in items:
        yield from _objects(item, path + (str(key),))


def _dumps(value, at, key, path=()):
    """JSON text of value, whose object at the path at names key twice."""
    if isinstance(value, list):
        return "[" + ", ".join(_dumps(item, at, key, path + (str(i),))
                               for i, item in enumerate(value)) + "]"
    if not isinstance(value, dict):
        return json.dumps(value)
    pairs = [(k, _dumps(v, at, key, path + (k,))) for k, v in value.items()]
    if path == at:
        pairs[len(pairs) // 2:len(pairs) // 2] = [(key, "1"), (key, "2")]
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"


@settings(max_examples=200, deadline=None)
@given(tree=_TREES)
def test_object_of_json_without_repeats_is_json_loads(tree):
    text = json.dumps(tree)
    assert cli._object(json.loads(text, object_pairs_hook=cli._Pairs)) == (
        json.loads(text))


@settings(max_examples=200, deadline=None)
@given(tree=_TREES.filter(lambda t: isinstance(t, (dict, list))),
       data=st.data())
def test_object_names_a_planted_repeat_by_its_path(tree, data):
    at = data.draw(st.sampled_from(list(_objects(tree)) or [None]))
    assume(at is not None)
    key = data.draw(st.text(max_size=3).filter(
        lambda k: k not in _at(tree, at)))
    with pytest.raises(cli.ConfigError) as exc:
        cli._object(json.loads(_dumps(tree, at, key),
                               object_pairs_hook=cli._Pairs))
    assert str(exc.value) == "repeated key " + ".".join(at + (key,))


def _at(value, path):
    for key in path:
        value = value[int(key) if isinstance(value, list) else key]
    return value


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


def test_probe_run_loads_no_numpy_polynomial(tmp_path):
    """The probe's Gauss-Legendre rules are stored bits, so a probe run
    neither imports numpy.polynomial nor solves its eigenproblem."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys; from szegolab.cli import main; "
            f"code = main(['run', {str(CONFIGS / 'probe.json')!r}, '--out', "
            f"{str(tmp_path / 'out')!r}]); print(code, sorted(m for m in "
            "sys.modules if m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


def test_main_answers_alike_in_one_process(tmp_path, capsys, monkeypatch):
    """validate, run, report, a config error and a usage error, in one
    process, answer as each does in a process of its own; the usage error
    names --out and writes nothing."""
    cfg = _write(tmp_path, "c.json", SETS_CONFIG)
    bad = _write(tmp_path, "bad.json", {"kind": "sets"})
    out = str(tmp_path / "out")
    argvs = [["validate", cfg], ["run", cfg, "--out", out],
             ["report", out + "/manifest.json"], ["validate", bad],
             ["run", cfg]]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)

    def call(argv):
        return main(argv), *capsys.readouterr()

    in_one_process = [call(argv) for argv in argvs[:-1]]
    before = sorted(tmp_path.rglob("*"))
    in_one_process.append(call(argvs[-1]))
    assert sorted(tmp_path.rglob("*")) == before
    separate = [(run.returncode, run.stdout, run.stderr) for run in (
        _child("-m", "szegolab.cli", *argv, cwd=cwd) for argv in argvs)]
    assert in_one_process == separate
    assert [code for code, *_ in separate] == [0, 0, 0, 2, 2]
    assert separate[-1][1:] == ("", cli._USAGE + "\n")
    assert "--out" in separate[-1][2]


@pytest.mark.parametrize("argv", [
    [], ["frobnicate", "c.json"], ["validate", "c.json", "--out", "d"],
    ["run", "c.json"], ["run", "c.json", "--out=d"],
    ["run", "--out", "d", "c.json"], ["run", "c.json", "--ou", "d"],
    ["report"], ["-h", "run"]],
    ids=["empty", "unknown-command", "validate-with-out", "run-without-out",
         "out-equals", "option-first", "abbreviated", "report-alone",
         "help-and-more"])
def test_any_other_argv_prints_the_usage_and_exits_2(tmp_path, capsys,
                                                     monkeypatch, argv):
    """An argv outside the three forms (argparse's --out=DIR, option-first
    order and abbreviations among them) exits 2 with the usage line on
    stderr, and reads and writes nothing."""
    _write(tmp_path, "c.json", SETS_CONFIG)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", cli._USAGE + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_on_stdout(capsys, flag):
    assert main([flag]) == 0
    assert capsys.readouterr() == (cli._USAGE + "\n", "")
    assert cli._USAGE.startswith("usage: szego-lab run <config> --out <dir>")


def test_module_entry_point_without_arguments_exits_2():
    """python -m szegolab.cli with no arguments prints the usage line and
    exits 2, with no traceback."""
    run = _child("-m", "szegolab.cli")
    assert (run.returncode, run.stdout, run.stderr) == (
        2, "", cli._USAGE + "\n")


def test_importing_the_cli_loads_no_argparse():
    """The CLI reads its argv itself, so importing it loads neither argparse
    nor gettext, whose imports and parser build were most of the first
    command's time in a fresh process."""
    run = _child("-c", "import sys, szegolab.cli; print(sorted(m for m in "
                       "('argparse', 'gettext') if m in sys.modules))")
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


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


# exp(-1/t), cubes removed: the removed rows' block conditions near 2.5e18
# at N = 1600, where the solve by one SVD of the block gave a rounding term
# 4 cond eps norm above the norm, and the run exited 3
WALL_CONFIG = {"kind": "probe", "weight": {"kind": "exp", "c": 1.0},
               "gamma": {"generator": "power", "rho": 3, "count": 50},
               "target": {"kind": "trigpoly", "coeffs": {"0": 1}},
               "N_list": [800, 1600]}


def test_probe_past_the_old_conditioning_wall_exits_0(tmp_path):
    """The distance reads only the target's row projected off the other
    removed rows, well conditioned: N = 1600 has a value with a small
    error."""
    cfg = _write(tmp_path, "wall.json", WALL_CONFIG)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", str(out)]) == 0
    rows = (out / "residuals.csv").read_text().splitlines()[1:]
    N, residual, _, _, error = map(float, rows[-1].split(","))
    assert N == 1600 and abs(residual - 0.312777360079) <= 1e-10
    assert error <= 1e-10


def test_probe_error_above_the_norm_exits_3(tmp_path, capsys, monkeypatch):
    """A residual_error above the target norm is a numeric failure: the run
    exits 3 naming both, writes no residuals and warns nothing.  Both
    rules' residuals lie in [0, norm], so their disagreement alone never
    exceeds the norm: the rounding term is planted large."""
    monkeypatch.setattr(probe, "_ROUNDING", 1e20)
    cfg = _write(tmp_path, "wall.json", WALL_CONFIG)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", str(out)]) == 3
    found = re.search(
        r"numeric failure: residual (\S+) \+- (\S+) against the target "
        r"norm 3\.854e-01 at 791 frequencies$",
        capsys.readouterr().err, re.MULTILINE)
    assert found and float(found[2]) > 0.3854
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert not (out / "residuals.csv").exists()


# e_1 against exp(-0.6/t), every square removed: past N = 4000 the solve
# loses digits faster than residual_error shows, and the distance to a
# larger span reads larger (ROADMAP item 24)
RISING_CONFIG = {"kind": "probe", "weight": {"kind": "exp", "c": 0.6},
                 "gamma": {"generator": "power", "rho": 2, "count": 90},
                 "target": {"kind": "trigpoly", "coeffs": {"1": 1}},
                 "N_list": [3200, 4000, 4800], "tol": 1e-12}


def test_probe_curve_rising_past_both_errors_exits_3(tmp_path):
    """Nested spans only bring the target nearer, so a residual above the
    prior set's by more than both errors is a numeric failure: the run
    exits 3 naming both (N = 4800 keeps 4731 frequencies), marks its
    manifest failed and writes no residuals.  It runs in a child process
    with one BLAS/OpenMP thread, as the QR solves' time and digits at this
    N depend on the thread count."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-m", "szegolab.cli", "run",
         _write(tmp_path, "rising.json", RISING_CONFIG), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 3
    found = re.search(
        r"numeric failure: residual (\S+) \+- (\S+) at 4731 frequencies is "
        r"above (\S+) \+- (\S+) at the prior set$", run.stderr, re.MULTILINE)
    assert found
    res, error, prior, prior_error = map(float, found.groups())
    assert res - error > prior + prior_error
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
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


def test_csv_determinism(tmp_path):
    cfg = _write(tmp_path, "c.json", DEEPZERO_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "deepzero_scan.csv").read_bytes()
    b2 = (out2 / "deepzero_scan.csv").read_bytes()
    assert b1 == b2


def _in_capped_child(code):
    """Run python code in a child process with szegolab on its path and its
    address space capped at 1 GiB, so a size cap that stopped working
    fails the test with a MemoryError instead of exhausting the host."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          preexec_fn=cap_memory, capture_output=True,
                          text=True, timeout=120)


# one field of each kind past its cap, and the same field at its cap
OVERSIZE = [
    ({"kind": "sets", "gamma": {"generator": "power", "rho": 2,
                                "count": 10 ** 12}},
     "gamma.count", ("gamma", "count"), 100_000),
    ({"kind": "sets", "gamma": {"generator": "blocks",
                                "starts": [1, 200_000],
                                "lengths": [10 ** 10, 2]}},
     "gamma.lengths", ("gamma", "lengths"), [99_995, 2]),
    ({**DEEPZERO_CONFIG, "points": 10 ** 10}, "points", ("points",),
     100_000),
    ({**DEEPZERO_CONFIG, "M": 10 ** 10}, "M", ("M",), 1000),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly",
                                   "coeffs": {str(10 ** 11): 1}}},
     "target.coeffs key", ("target", "coeffs"), {"-100000": 1}),
    ({**PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {"2": 1}},
      "N_list": [10, 10 ** 9]}, "N_list", ("N_list",), [10, 100_000]),
]


def test_oversize_fields_exit_2_at_validate(tmp_path):
    """Each field past its size cap (10^5; M 1000) makes validate exit 2
    naming the field and its cap, without a traceback and within a 1 GiB
    address space; the same field at its cap validates."""
    paths, fields = [], []
    for i, (config, field, path, at_cap) in enumerate(OVERSIZE):
        capped = json.loads(json.dumps(config))
        _at(capped, path[:-1])[path[-1]] = at_cap
        paths += [_write(tmp_path, f"over{i}.json", config),
                  _write(tmp_path, f"at{i}.json", capped)]
        fields.append(field)
    out = _in_capped_child(
        "from szegolab.cli import main; "
        f"print([main(['validate', p]) for p in {paths!r}])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str([2, 0] * len(OVERSIZE))
    errors = out.stderr.splitlines()
    assert len(errors) == len(OVERSIZE)
    for err, field, (_, _, _, at_cap) in zip(errors, fields, OVERSIZE):
        assert err.startswith(f"config error: {field} must be")
        assert ("1000," if field == "M" else "100000") in err


def test_probe_past_the_coefficient_cap_exits_3(tmp_path):
    """A probe within every size cap whose coefficient block would hold
    more than 2^26 entries (1 GiB) exits 3 before the recursion allocates
    it: 9000 frequencies removed below N = 9100 leave 9002 x 9101.  In the
    library, weighted_residual on range(1, 8200) refuses 8200 x 8200."""
    cfg = _write(tmp_path, "c.json", {
        **PROBE_TRIGPOLY, "target": {"kind": "trigpoly", "coeffs": {"0": 1}},
        "gamma": {"generator": "blocks", "starts": [1], "lengths": [9000]},
        "N_list": [9100]})
    out = _in_capped_child(
        "from szegolab.cli import main\n"
        "from szegolab.probe import TrigPolyTarget, weighted_residual\n"
        "from szegolab.weights import make_exp_weight\n"
        f"print(main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
        "try:\n"
        "    weighted_residual(TrigPolyTarget({0: 1}), range(1, 8200),\n"
        "                      make_exp_weight(1.0))\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == [
        "3", "8200 x 8200 coefficients: the block B is capped at 2**26 "
        "entries"]
    assert "numeric failure: 9002 x 9101 coefficients" in out.stderr
    assert "Traceback" not in out.stderr


def test_far_t_scan_writes_finite_rows(tmp_path):
    """t_scan far out on the slit, past where (1+|t|)^4 overflows, runs
    with no warning and writes finite rows: 0 where the modulus
    underflows (-1e308, -1e200), 2e-160 as the bound at -1e80."""
    cfg = _write(tmp_path, "c.json", {
        **BLASCHKE_CONFIG, "t_scan": [-1e308, -1e200, -1e80, -1e100, -1],
        "z_points": []})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "boundary_scan.csv").read_text().splitlines()[1:]]
    assert all(math.isfinite(float(v)) for row in rows for v in row)
    assert [row[4] for row in rows] == ["0", "0", "2e-200", "2e-160",
                                        "0.125"]
    assert all(float(v) == 0 for row in rows[:2] for v in row[1:])
