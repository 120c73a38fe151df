"""Experiment runner: JSON configs in, CSV/JSON artifacts + manifest out.

Subcommands:
  szego-lab run <config.json> --out <dir>
  szego-lab validate <config.json>
  szego-lab report <manifest.json>

Exit codes: 0 success, 2 configuration error, 3 tolerance failure.  The
environment variable SZEGO_TOL overrides the default quadrature tolerance.
A manifest is written (status "incomplete") before any data file and
finalized with sha256 digests, so interrupted runs are identifiable.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .blaschke import (BlaschkeAnnihilator, JumpFunction,
                       cauchy_identity_residual, eval_phi_boundary)
from .deep_zero import DeepZeroSeries, decay_fit, eval_H_series, membership_check
from .frequency_sets import (FrequencySet, condition_B_check, gen_interval_blocks,
                             gen_power_set, sqrt_sum_diagnostic,
                             thin_to_condition_B)
from .probe import (AnnihilatorTarget, ProbeConfig, TrigPolyTarget,
                    residual_curve)
from .weights import Weight, validate_condition_A

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3

_KINDS = ("sets", "weights", "blaschke", "deepzero", "probe")


def _default_tol(config):
    env = os.environ.get("SZEGO_TOL")
    if env is not None:
        return float(env)
    return float(config.get("tol", 1e-8))


def _fmt(x):
    return "%.17g" % float(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonable(obj):
    """Coerce numpy scalars/arrays nested in dicts and lists to plain types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _complex(v):
    """A trigpoly amplitude: a number, or [re, im]."""
    return complex(*v) if isinstance(v, list) else complex(v)


def _build_set(spec):
    gen = spec.get("generator", "explicit")
    if gen == "power":
        return gen_power_set(float(spec["rho"]), int(spec["count"]))
    if gen == "blocks":
        return gen_interval_blocks(spec["starts"], spec["lengths"])
    if gen == "explicit":
        return FrequencySet(tuple(float(e) for e in spec["elements"]),
                            count_limit=len(spec["elements"]))
    raise ValueError(f"unknown set generator {gen!r}")


def _build_weight(spec, summary=None):
    if spec.get("kind") == "companion":
        # exp weight tied to the fitted decay rate of a deep-zero series
        factor = float(spec.get("factor", 0.9))
        series = DeepZeroSeries.build(int(spec.get("k_min", 0)),
                                      int(spec.get("M", 20)))
        fit = decay_fit(series, 1.0 / np.linspace(5.0, 50.0, 20))
        if summary is not None:
            summary["companion_c2_fit"] = fit.c2
        return Weight.from_descriptor({"kind": "exp",
                                       "c": 2.0 * factor * fit.c2})
    return Weight.from_descriptor(spec)


def _number(problems, field, value, convert=float):
    """convert(value), or None with a problem naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        problems.append(f"{field} must be a number, got {value!r}")
        return None


def _section(problems, config, name):
    """config[name] when it is a JSON object, else None with a problem."""
    spec = config.get(name)
    if spec is None:
        problems.append(f"missing {name!r} section")
    elif not isinstance(spec, dict):
        problems.append(f"{name} must be an object, got {spec!r}")
        spec = None
    return spec


def validate_config(config):
    """Return a list of human-readable problems; empty means valid."""
    if not isinstance(config, dict):
        return [f"config must be a JSON object, got {type(config).__name__}"]
    problems = []
    kind = config.get("kind")
    if kind not in _KINDS:
        problems.append(f"kind must be one of {_KINDS}, got {kind!r}")
        return problems
    if "tol" in config:
        _number(problems, "tol", config["tol"])
    if kind in ("sets", "blaschke", "probe"):
        name = "gamma" if "gamma" in config or kind != "sets" else "set"
        spec = _section(problems, config, name)
        if spec is not None:
            gen = spec.get("generator", "explicit")
            if gen == "power":
                rho = _number(problems, "gamma.rho", spec.get("rho", 0))
                if rho is not None and rho <= 1:
                    problems.append("gamma.rho must exceed 1")
                count = _number(problems, "gamma.count", spec.get("count", 0),
                                int)
                if count is not None and count < 1:
                    problems.append("gamma.count must be positive")
            elif gen == "blocks":
                if len(spec.get("starts", [])) != len(spec.get("lengths", [])):
                    problems.append("gamma.starts and gamma.lengths lengths differ")
            elif gen == "explicit":
                if not spec.get("elements"):
                    problems.append("gamma.elements must be non-empty")
            else:
                problems.append(f"unknown generator {gen!r}")
    if kind in ("weights", "probe"):
        wspec = _section(problems, config, "weight")
        if wspec is not None:
            wkind = wspec.get("kind")
            if wkind not in ("exp", "constant", "tabulated", "companion"):
                problems.append(f"unknown weight kind {wkind!r}")
            elif wkind == "exp":
                c = _number(problems, "weight.c", wspec.get("c", 0))
                if c is not None and c <= 0:
                    problems.append("weight.c must be positive")
    if kind == "deepzero":
        M = _number(problems, "M", config.get("M", 20), int)
        k_min = _number(problems, "k_min", config.get("k_min", 0), int)
        if None not in (M, k_min) and M < k_min:
            problems.append("M must be >= k_min")
        t_min = _number(problems, "t_min", config.get("t_min", 0.02))
        t_max = _number(problems, "t_max", config.get("t_max", 0.2))
        if None not in (t_min, t_max) and not 0 < t_min < t_max < 1:
            problems.append("need 0 < t_min < t_max < 1")
    if kind == "probe":
        tspec = _section(problems, config, "target")
        if tspec is not None:
            tkind = tspec.get("kind")
            if tkind not in ("annihilator", "trigpoly"):
                problems.append(f"unknown target kind {tkind!r}")
            elif tkind == "trigpoly":
                coeffs = tspec.get("coeffs")
                if not isinstance(coeffs, dict) or not coeffs:
                    problems.append("target.coeffs must be a non-empty object")
                else:
                    for k, v in coeffs.items():
                        _number(problems, "target.coeffs key", k, int)
                        _number(problems, f"target.coeffs[{k!r}]", v, _complex)
        if config.get("floor") is not None:
            _number(problems, "floor", config["floor"])
        ns = config.get("N_list")
        if isinstance(ns, list):
            ns = [_number(problems, "N_list entry", n, int) for n in ns]
        if (not isinstance(ns, list) or not ns
                or (None not in ns and any(b <= a for a, b in zip(ns, ns[1:])))):
            problems.append("N_list must be non-empty and increasing")
    return problems


def _run_sets(config, out, tol, summary):
    fset = _build_set(config["gamma"] if "gamma" in config else config["set"])
    report = sqrt_sum_diagnostic(fset)
    summary["verdict"] = report.verdict
    summary["note"] = report.note
    summary["tail_bound"] = report.tail_bound
    summary["generator"] = fset.generator
    files = {}
    set_path = out / "set.txt"
    set_path.write_text(fset.to_text(), encoding="utf-8")
    files["set.txt"] = set_path
    _write_csv(out / "sqrt_sums.csv", ["K", "partial_sqrt_sum"],
               report.partial_sqrt_sums)
    files["sqrt_sums.csv"] = out / "sqrt_sums.csv"
    if "condition_B" in config:
        cb = config["condition_B"]
        target = fset
        if cb.get("thin", False):
            target = thin_to_condition_B(fset, float(cb["C"]))
            tpath = out / "thinned_set.txt"
            tpath.write_text(target.to_text(), encoding="utf-8")
            files["thinned_set.txt"] = tpath
        rep = condition_B_check(target, float(cb["C"]), cb["x_grid"])
        _write_csv(out / "condition_B.csv", ["x", "count", "bound", "ok"],
                   [(x, c, b, int(ok)) for x, c, b, ok in rep.points])
        files["condition_B.csv"] = out / "condition_B.csv"
        summary["condition_B_passed"] = rep.passed
    return files, True


def _run_weights(config, out, tol, summary):
    w = _build_weight(config["weight"], summary)
    report = validate_condition_A(w, int(config.get("grid_size", 64)))
    summary["positive"] = report.positive
    summary["nondecreasing"] = report.nondecreasing
    summary["bounded"] = report.bounded
    summary["log_integral_diverges"] = report.log_integral_diverges
    summary["divergence_certified"] = report.divergence_certified
    summary["passed"] = report.passed
    files = {}
    _write_csv(out / "log_integrals.csv", ["eps", "log_integral"],
               report.log_integral_values)
    files["log_integrals.csv"] = out / "log_integrals.csv"
    return files, True


def _run_blaschke(config, out, tol, summary):
    ann = BlaschkeAnnihilator(_build_set(config["gamma"]),
                              config.get("K"))
    j = JumpFunction(ann)
    files = {}

    t_scan = np.asarray(config.get(
        "t_scan", list(-np.geomspace(1e-3, 1e3, 25))), dtype=np.float64)
    t_scan = np.sort(t_scan)
    pp = eval_phi_boundary(ann, t_scan)
    pp = np.atleast_1d(pp)
    g = j(t_scan)
    bound = j.envelope(t_scan)
    _write_csv(out / "boundary_scan.csv",
               ["t", "re_phi_plus", "im_phi_plus", "abs_g", "bound"],
               [(t, p.real, p.imag, abs(gv), b)
                for t, p, gv, b in zip(t_scan, pp, g, bound)])
    files["boundary_scan.csv"] = out / "boundary_scan.csv"

    z_pts = [complex(zr, zi) for zr, zi in config.get(
        "z_points", [[0, 1], [1, 1], [2, 0.5], [0.5, -1], [3, 2]])]
    check_tol = float(config.get("identity_tol", 1e-4))
    rows = []
    max_resid = 0.0
    for z in z_pts:
        r = cauchy_identity_residual(ann, j, z, tol=min(tol, 1e-6))
        rows.append((z.real, z.imag, r))
        max_resid = max(max_resid, r)
    _write_csv(out / "identity_scan.csv", ["z_re", "z_im", "residual"], rows)
    files["identity_scan.csv"] = out / "identity_scan.csv"
    summary["max_identity_residual"] = max_resid
    summary["identity_tol"] = check_tol
    summary["identity_passed"] = max_resid < check_tol
    return files, summary["identity_passed"]


def _run_deepzero(config, out, tol, summary):
    k_min = int(config.get("k_min", 0))
    M = int(config.get("M", 20))
    t_min = float(config.get("t_min", 0.02))
    t_max = float(config.get("t_max", 0.2))
    points = int(config.get("points", 20))
    series = DeepZeroSeries.build(k_min, M)
    # grid uniform in 1/t so the decay fit weights the deep-zero range evenly
    t_grid = 1.0 / np.linspace(1.0 / t_max, 1.0 / t_min, points)[::-1]
    vals = np.abs(eval_H_series(series, t_grid))
    rows = [(t, v, np.log(max(v, 1e-300)), 1.0 / t)
            for t, v in zip(t_grid, vals)]
    files = {}
    _write_csv(out / "deepzero_scan.csv", ["t", "abs_H", "log_abs_H", "inv_t"],
               rows)
    files["deepzero_scan.csv"] = out / "deepzero_scan.csv"
    fit = decay_fit(series, t_grid)
    summary.update({"c1": fit.c1, "c2": fit.c2,
                    "correlation": fit.correlation, "M": M, "k_min": k_min})
    sp = out / "summary.json"
    sp.write_text(json.dumps({"c1": fit.c1, "c2": fit.c2,
                              "correlation": fit.correlation,
                              "M": M, "k_min": k_min},
                             indent=2, sort_keys=True) + "\n", encoding="utf-8")
    files["summary.json"] = sp
    ok = fit.c2 > 0 and abs(fit.correlation) > 0.99
    summary["fit_passed"] = ok
    if config.get("membership", False):
        w = _build_weight({"kind": "companion", "k_min": k_min, "M": M},
                          summary)
        value, err = membership_check(series, w, max(tol, 1e-8))
        summary["membership_value"] = value
        summary["membership_error"] = err
        ok = ok and np.isfinite(value)
    return files, ok


def _run_probe(config, out, tol, summary):
    w = _build_weight(config["weight"], summary)
    gamma = _build_set(config["gamma"])
    tspec = config["target"]
    if tspec["kind"] == "annihilator":
        target = AnnihilatorTarget(DeepZeroSeries.build(
            int(tspec.get("k_min", 0)), int(tspec.get("M", 20))))
    else:
        target = TrigPolyTarget({int(k): _complex(v)
                                 for k, v in tspec["coeffs"].items()})
    pc = ProbeConfig(weight=w, gamma=gamma, target=target,
                     floor=config.get("floor"), tol=min(tol, 1e-10))
    curve = residual_curve(pc, [int(n) for n in config["N_list"]])
    rows = [(r.N, r.residual, r.target_norm, r.ratio, r.cond_estimate)
            for r in curve.records]
    files = {}
    _write_csv(out / "residuals.csv",
               ["N", "residual", "target_norm", "ratio", "cond_estimate"], rows)
    files["residuals.csv"] = out / "residuals.csv"
    ratios = [r.ratio for r in curve.records]
    summary["config_digest"] = curve.config_digest
    summary["min_ratio"] = min(ratios)
    summary["max_ratio"] = max(ratios)
    summary["final_residual"] = curve.records[-1].residual
    return files, True


_RUNNERS = {"sets": _run_sets, "weights": _run_weights,
            "blaschke": _run_blaschke, "deepzero": _run_deepzero,
            "probe": _run_probe}


def run_experiment(config_path, out_dir):
    config_path = Path(config_path)
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    problems = validate_config(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tol = _default_tol(config)
    manifest_path = out / "manifest.json"
    manifest = {"kind": config["kind"], "parameters": config,
                "version": __version__, "tolerance": tol,
                "status": "incomplete", "outputs": {}, "summary": {}}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")

    summary = {}
    start = time.perf_counter()
    try:
        files, within_tol = _RUNNERS[config["kind"]](config, out, tol, summary)
    except (ArithmeticError, ValueError) as exc:
        manifest["status"] = "failed"
        manifest["summary"] = {"error": str(exc)}
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                                 + "\n", encoding="utf-8")
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE

    manifest["status"] = "complete"
    manifest["summary"] = _jsonable(summary)
    manifest["wall_seconds"] = time.perf_counter() - start
    manifest["outputs"] = {name: _sha256(path)
                           for name, path in sorted(files.items())}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
    print(f"wrote {len(files)} artifact(s) to {out}")
    if not within_tol:
        print("tolerance not met; see manifest summary", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def emit_report(manifest_path):
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    kind = manifest.get("kind", "?")
    s = manifest.get("summary", {})
    lines = [f"experiment kind: {kind}",
             f"status: {manifest.get('status', '?')}"]
    if kind == "blaschke" and "max_identity_residual" in s:
        verdict = "PASS" if s.get("identity_passed") else "FAIL"
        lines.append(
            "max Cauchy-identity relative residual: "
            f"{s['max_identity_residual']:.6g} "
            f"(tol {s.get('identity_tol', 1e-4):g}): {verdict}")
    if kind == "deepzero" and "c2" in s:
        lines.append(f"deep-zero fit: c1={s['c1']:.6g} c2={s['c2']:.6g} "
                     f"correlation={s['correlation']:.6g} "
                     f"(M={s['M']}, k_min={s['k_min']})")
    if kind == "probe" and "min_ratio" in s:
        lines.append(f"annihilator flatness min ratio: {s['min_ratio']:.6g}")
        lines.append(f"final residual: {s['final_residual']:.6g}")
    if kind == "sets" and "verdict" in s:
        gen = s.get("generator", "")
        lines.append(f"{gen} verdict: {s['verdict']}")
        if "condition_B_passed" in s:
            lines.append("condition-B check: "
                         + ("PASS" if s["condition_B_passed"] else "FAIL"))
    if kind == "weights" and "passed" in s:
        lines.append("deep-zero weight conditions: "
                     + ("PASS" if s["passed"] else "FAIL"))
    for name, digest in sorted(manifest.get("outputs", {}).items()):
        lines.append(f"output {name} sha256={digest[:16]}...")
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="szego-lab",
        description="weighted-completeness experiments: annihilator products, "
                    "deep-zero series, projection probes")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True)
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    p_rep = sub.add_parser("report", help="summarize a finished run")
    p_rep.add_argument("manifest")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run_experiment(args.config, args.out)
    if args.command == "validate":
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        problems = validate_config(config)
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return EXIT_CONFIG
        print("config ok")
        return EXIT_OK
    return emit_report(args.manifest)


if __name__ == "__main__":
    sys.exit(main())
