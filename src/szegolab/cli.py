"""Experiment runner: JSON configs in, CSV/JSON artifacts + manifest out.

main(argv) takes argv (sys.argv[1:] if None) in one of three forms,
  szego-lab run <config.json> --out <dir>
  szego-lab validate <config.json>
  szego-lab report <manifest.json>
or -h / --help alone for the usage line, and returns the exit code: 0
success, 2 a configuration error or any other argv (usage on stderr), 3 a
tolerance failure.  `validate` runs the build step of `run`, which reads
every config field and builds the run's objects before anything is written.
Only the blaschke, deepzero and probe kinds read `tol`, the absolute
tolerance of the run's integrals; the summary records it where one ran.  A
manifest (status "incomplete") precedes any data file and is finalized with
sha256 digests, so interrupted runs are identifiable.
"""

import hashlib
import json
import math
import sys
import time
from contextlib import suppress
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .blaschke import (BlaschkeAnnihilator, JumpFunction,
                       cauchy_identity_residual, eval_phi_boundary)
from .deep_zero import (ENVELOPE_GRID, RATE, DeepZeroSeries, decay_fit,
                        membership_check)
from .frequency_sets import (FrequencySet, complement_in_range,
                             condition_B_check, gen_interval_blocks,
                             gen_power_set, sqrt_sum_diagnostic,
                             thin_to_condition_B)
from .probe import (AnnihilatorTarget, ProbeConfig, TrigPolyTarget,
                    residual_curve)
from .weights import (make_constant_weight, make_exp_weight,
                      make_tabulated_weight, validate_condition_A)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
_USAGE = ("usage: szego-lab run <config> --out <dir> | validate <config> | "
         "report <manifest>")

_COMPANION_FACTOR = 0.9   # default weight.factor; deepzero membership uses it
_MAX_SIZE = 100_000   # cap on count, blocks' length, points, N, |frequency|
_REQUIRED = object()


class ConfigError(Exception):
    """A config field that is missing, mistyped or out of range."""


class _Pairs(tuple):
    """A JSON object's (key, value) pairs, a repeated key kept."""


def _object(value, path=""):
    """value with its _Pairs made dicts; the first key in document order
    that an object names twice raises a ConfigError naming its dotted path,
    where list items are named by their index."""
    if isinstance(value, list):
        return [_object(item, f"{path}{i}.") for i, item in enumerate(value)]
    if not isinstance(value, _Pairs):
        return value
    obj = {}
    for key, item in value:
        if key in obj:
            raise ConfigError(f"repeated key {path}{key}")
        obj[key] = _object(item, f"{path}{key}.")
    return obj


def _write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join("%.17g" % float(v) for v in row) for row in rows]
    return _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    # numpy scalars and arrays in obj are written as plain JSON values
    return _write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                        default=lambda v: v.tolist()) + "\n")


def _real(v):
    """A finite JSON number: not a string, not a boolean."""
    if isinstance(v, (str, bool)):
        raise TypeError(v)
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(v)
    return x


def _integer(v):
    """A JSON integer: not 10.0 or 10.9, not a boolean."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(v)
    return v


def _flag(v):
    if not isinstance(v, bool):
        raise TypeError(v)
    return v


def _complex(v):
    """A trigpoly amplitude: a number, or [re, im]."""
    return complex(*_pair(v)) if isinstance(v, list) else complex(_real(v))


def _pair(v):
    if not isinstance(v, list) or len(v) != 2:
        raise TypeError(v)
    return _real(v[0]), _real(v[1])


def _each(convert):
    """Converter of a JSON list whose entries convert with convert."""
    def each(v):
        if not isinstance(v, list):
            raise TypeError(v)
        return [convert(e) for e in v]
    return each


_NEED = {_real: "a finite number", _integer: "an integer",
         _flag: "true or false", _complex: "a number or [re, im]"}
_POSITIVE = {"ok": lambda x: x > 0, "need": "a positive number"}


def _one_of(*choices):
    return {"ok": choices.__contains__, "need": "one of " + ", ".join(choices)}


class _Spec:
    """One JSON object of a config, read a field at a time: each read
    converts and checks the field, or raises a ConfigError that names it
    by its dotted path.  The spec remembers what was read, so the fields
    no read reached can be named (unread)."""

    def __init__(self, obj, path):
        if not isinstance(obj, dict):
            raise ConfigError(f"{path or 'config'} must be a JSON object, "
                              f"got {obj!r}")
        self.obj, self.path = obj, path
        self.read, self.sections = set(), []

    def field(self, key):
        return f"{self.path}.{key}" if self.path else key

    def get(self, key, convert, default=_REQUIRED, ok=None, need=None):
        """convert(field) when ok accepts it; default when the field is
        absent or null.  need says what the field must be."""
        name = self.field(key)
        self.read.add(key)
        raw = self.obj.get(key)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing {name}")
            return default
        try:
            value = convert(raw)
            accepted = ok is None or ok(value)
        except (TypeError, ValueError, OverflowError):
            accepted = False
        if not accepted:
            raise ConfigError(f"{name} must be {need or _NEED[convert]}, "
                              f"got {raw!r}")
        return value

    def section(self, key, default=_REQUIRED):
        """The JSON object at key, as a _Spec."""
        spec = self.get(key, partial(_Spec, path=self.field(key)), default)
        if isinstance(spec, _Spec):
            self.sections.append(spec)
        return spec

    def unread(self):
        """Dotted paths of the fields that no read reached, in this object
        and in the sections read from it."""
        yield from (self.field(k) for k in self.obj if k not in self.read)
        for spec in self.sections:
            yield from spec.unread()


def _make(field, make, *args):
    """make(*args); a library object that refuses its arguments is a
    config error on field."""
    try:
        return make(*args)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _frequency_set(spec):
    """The frequency set a gamma section describes, which may be empty."""
    gen = spec.get("generator", str, "explicit",
                   **_one_of("power", "blocks", "explicit"))
    if gen == "power":
        return _make(spec.path, gen_power_set, spec.get("rho", _real),
                     spec.get("count", _integer, ok=lambda n: n <= _MAX_SIZE,
                              need=f"an integer at most {_MAX_SIZE}"))
    if gen == "blocks":
        integers = {"convert": _each(_integer), "need": "a list of integers"}
        return _make(spec.path, gen_interval_blocks,
                     spec.get("starts", **integers),
                     spec.get("lengths", _each(_integer),
                              ok=lambda ls: sum(map(abs, ls)) <= _MAX_SIZE,
                              need=f"integers of total at most {_MAX_SIZE}"))
    elements = spec.get("elements", _each(_real), need="a list of numbers")
    return _make(spec.field("elements"), FrequencySet, tuple(elements))


def _series(spec):
    """The deep-zero series of terms k_min..M that a section describes."""
    k_min = spec.get("k_min", _integer, 0, ok=lambda k: k >= 0,
                     need="a non-negative integer")
    return _make(spec.field("M"), DeepZeroSeries.build, k_min,
                 spec.get("M", _integer, 20, ok=lambda m: m <= 1000,
                          need="an integer at most 1000"))


def _companion(series, factor, summary):
    """exp weight tied to the fitted decay rate of a deep-zero series."""
    fit = decay_fit(series, ENVELOPE_GRID)
    summary["companion_c2_fit"] = fit.c2
    return make_exp_weight(2.0 * factor * fit.c2)


def _weight(spec, summary):
    """The weight a weight section describes."""
    kind = spec.get("kind", str,
                    **_one_of("exp", "constant", "tabulated", "companion"))
    if kind == "exp":
        return _make(spec.field("c"), make_exp_weight, spec.get("c", _real))
    if kind == "constant":
        return _make(spec.field("v"), make_constant_weight,
                     spec.get("v", _real))
    if kind == "tabulated":
        return _make(spec.field("samples"), make_tabulated_weight,
                     spec.get("samples", _each(_pair),
                              need="a list of [t, w] pairs"))
    factor = spec.get("factor", _real, _COMPANION_FACTOR, **_POSITIVE)
    return _make(spec.path, _companion, _series(spec), factor, summary)


def _target(spec):
    """The probe target a target section describes."""
    kind = spec.get("kind", str, **_one_of("annihilator", "trigpoly"))
    if kind == "annihilator":
        return AnnihilatorTarget(_series(spec))
    coeffs = spec.section("coeffs")
    if not coeffs.obj:
        raise ConfigError(f"{coeffs.path} is empty")
    amplitudes, keys = {}, {}
    for key in coeffs.obj:
        try:
            freq = int(key)
            if abs(freq) > _MAX_SIZE:
                raise ValueError(key)
        except ValueError:
            raise ConfigError(f"{coeffs.path} key must be an integer of size "
                              f"at most {_MAX_SIZE}, got {key!r}") from None
        if keys.setdefault(freq, key) != key:
            raise ConfigError(f"{coeffs.path} keys {keys[freq]!r} and {key!r} "
                              f"name the same frequency {freq}")
        amplitudes[freq] = coeffs.get(key, _complex)
    return TrigPolyTarget(amplitudes)


def _build_sets(cfg, summary):
    fset = _frequency_set(cfg.section("gamma"))
    report = _make("gamma", sqrt_sum_diagnostic, fset)
    cb = cfg.section("condition_B", None)
    if cb is None:
        return partial(_run_sets, fset, report, None)
    C = cb.get("C", _real, **_POSITIVE)
    x_grid = cb.get("x_grid", _each(_real),
                    ok=lambda xs: xs and all(x > math.e for x in xs),
                    need="a non-empty list of numbers above e")
    thinned = None
    if cb.get("thin", _flag, False):
        thinned = _make(cb.field("thin"), thin_to_condition_B, fset, C)
    return partial(_run_sets, fset, report, (C, x_grid, thinned))


def _run_sets(fset, report, condition_B, out, summary):
    summary.update(((k, getattr(report, k)) for k in (
        "verdict", "note", "tail_bound")), generator=fset.generator)
    files = [_write_text(out / "set.txt", fset.to_text()),
             _write_csv(out / "sqrt_sums.csv", ["K", "partial_sqrt_sum"],
                        report.partial_sqrt_sums)]
    if condition_B is not None:
        C, x_grid, thinned = condition_B
        if thinned is not None:
            files.append(_write_text(out / "thinned_set.txt",
                                     thinned.to_text()))
        rep = condition_B_check(fset if thinned is None else thinned, C,
                                x_grid)
        files.append(_write_csv(
            out / "condition_B.csv", ["x", "count", "bound", "ok"],
            [(x, c, b, int(ok)) for x, c, b, ok in rep.points]))
        summary["condition_B_passed"] = rep.passed
    return files, True


def _build_weights(cfg, summary):
    return partial(_run_weights, _weight(cfg.section("weight"), summary))


def _run_weights(weight, out, summary):
    report = validate_condition_A(weight)
    summary.update((k, getattr(report, k)) for k in (
        "positive", "nondecreasing", "bounded", "log_integral_diverges",
        "passed"))
    return [_write_csv(out / "log_integrals.csv", ["eps", "log_integral"],
                       report.log_integral_values)], True


def _build_blaschke(cfg, summary):
    gamma = _frequency_set(cfg.section("gamma"))
    K = cfg.get("K", _integer, len(gamma), ok=lambda k: 0 <= k <= len(gamma),
                need=f"an integer in [0, {len(gamma)}]")
    jump = JumpFunction(_make("gamma", BlaschkeAnnihilator, gamma, K))
    t_scan = cfg.get("t_scan", _each(_real), -np.geomspace(1e-3, 1e3, 25),
                     ok=lambda ts: all(t <= 0 for t in ts),
                     need="a list of numbers <= 0")
    z_points = cfg.get("z_points", _each(_pair),
                       [(0, 1), (1, 1), (2, 0.5), (0.5, -1), (3, 2)],
                       ok=lambda zs: all(math.hypot(x, y) <= 1e3
                                         and (y != 0 or x > 0) for x, y in zs),
                       need="a list of [re, im] points off the cut "
                            "(-inf, 0] with |z| <= 1000")
    identity_tol = cfg.get("identity_tol", _real, 1e-4, **_POSITIVE)
    summary["tolerance"] = tol = cfg.get("tol", _real, 1e-8, **_POSITIVE)
    return partial(_run_blaschke, jump,
                   np.sort(np.asarray(t_scan, dtype=np.float64)), z_points,
                   identity_tol, tol)


def _run_blaschke(j, t_scan, z_points, identity_tol, tol, out, summary):
    ann = j.annihilator
    pp = eval_phi_boundary(ann, t_scan)
    files = [_write_csv(out / "boundary_scan.csv",
                        ["t", "re_phi_plus", "im_phi_plus", "abs_g", "bound"],
                        [(t, p.real, p.imag, 2.0 * abs(p.imag), b)
                         for t, p, b in zip(t_scan, pp, j.envelope(t_scan))])]
    rows = [(x, y, cauchy_identity_residual(ann, j, complex(x, y), tol))
            for x, y in z_points]
    files.append(_write_csv(out / "identity_scan.csv",
                            ["z_re", "z_im", "residual"], rows))
    if rows:   # a scan of no points records no verdict
        worst = max(r for _, _, r in rows)
        summary.update(max_identity_residual=worst, identity_tol=identity_tol,
                       identity_passed=worst < identity_tol)
    return files, summary.get("identity_passed", True)


def _build_deepzero(cfg, summary):
    series = _series(cfg)
    t_min = cfg.get("t_min", _real, 0.02, ok=lambda t: 0 < t < 1,
                    need="a number in (0, 1)")
    t_max = cfg.get("t_max", _real, 0.2, ok=lambda t: t_min < t < 1,
                    need="a number in (t_min, 1)")
    points = cfg.get("points", _integer, 20, ok=lambda n: 8 <= n <= _MAX_SIZE,
                     need=f"an integer in [8, {_MAX_SIZE}]")
    # grid uniform in 1/t so the decay fit weights the deep-zero range evenly
    t_grid = 1.0 / np.linspace(1.0 / t_max, 1.0 / t_min, points)[::-1]
    weight = None
    if cfg.get("membership", _flag, False):
        weight = _make("membership", _companion, series, _COMPANION_FACTOR,
                       summary)
    tol = cfg.get("tol", _real, 1e-8, **_POSITIVE)
    return partial(_run_deepzero, series, t_grid, weight, tol)


def _run_deepzero(series, t_grid, weight, membership_tol, out, summary):
    fit = decay_fit(series, t_grid)
    rows = [(t, v, np.log(max(v, 1e-300)), 1.0 / t)
            for t, v in zip(t_grid, fit.abs_H)]
    fitted = {"c1": fit.c1, "c2": fit.c2, "correlation": fit.correlation,
              "M": series.M, "k_min": series.k_min}
    summary.update(fitted)
    if series.dual:   # the theta sum's leading term t^-3/2 e^{-RATE/t}
        summary["c2_exact"] = RATE
    files = [_write_csv(out / "deepzero_scan.csv",
                        ["t", "abs_H", "log_abs_H", "inv_t"], rows),
             _write_json(out / "summary.json", fitted)]
    summary["fit_passed"] = ok = fit.c2 > 0 and abs(fit.correlation) > 0.99
    if weight is not None:
        value, err = membership_check(series, weight, membership_tol)
        summary.update(membership_value=value, membership_error=err,
                       tolerance=membership_tol)
        ok = ok and np.isfinite(value)
    return files, ok


def _build_probe(cfg, summary):
    weight = _weight(cfg.section("weight"), summary)
    gamma = _frequency_set(cfg.section("gamma"))
    _make("gamma", complement_in_range, gamma, 1)   # gamma holds integers
    target = _target(cfg.section("target"))
    N_list = cfg.get("N_list", _each(_integer),
                     ok=lambda ns: ns and 1 <= ns[0] and ns[-1] <= _MAX_SIZE
                     and all(a < b for a, b in zip(ns, ns[1:])),
                     need=f"a non-empty increasing list in [1, {_MAX_SIZE}]")
    tol = cfg.get("tol", _real, 1e-10, **_POSITIVE)
    if isinstance(target, AnnihilatorTarget):   # a trigpoly integrates nothing
        summary["tolerance"] = tol
    config = ProbeConfig(weight=weight, gamma=gamma, target=target, tol=tol)
    return partial(_run_probe, config, N_list)


def _run_probe(config, N_list, out, summary):
    curve = residual_curve(config, N_list)
    rows = [(r.N, r.residual, r.target_norm, r.ratio, r.residual_error)
            for r in curve.records]
    files = [_write_csv(
        out / "residuals.csv", ["N", "residual", "target_norm", "ratio",
                                "residual_error"], rows)]
    ratios = [r.ratio for r in curve.records]
    summary.update(min_ratio=min(ratios), max_ratio=max(ratios),
                   final_residual=curve.records[-1].residual,
                   max_residual_error=max(r[-1] for r in rows))
    return files, True


_BUILDERS = {"sets": _build_sets, "weights": _build_weights,
             "blaschke": _build_blaschke, "deepzero": _build_deepzero,
             "probe": _build_probe}


def _build_experiment(config):
    """Read every field of a parsed config once, with its default,
    conversion and range, and build the objects its run needs.

    Returns (run, summary): run(out, summary) writes the artifacts to the
    directory out and returns ([their paths], within_tol); summary holds
    what the build found, and the run adds what it found to it.
    Raises ConfigError naming the first field that is missing, mistyped or
    out of range, or every field that the build of its kind does not read.
    """
    cfg = _Spec(config, "")
    kind = cfg.get("kind", str, **_one_of(*_BUILDERS))
    summary = {}
    run = _BUILDERS[kind](cfg, summary)
    unread = list(cfg.unread())
    if unread:
        raise ConfigError(f"unknown field {', '.join(unread)} "
                          f"in a {kind} config")
    return run, summary


def _build_file(config_path):
    """(config, _build_experiment(config)) for a config file; None once the
    config error is printed."""
    try:
        text = Path(config_path).read_text(encoding="utf-8")
        config = _object(json.loads(text, object_pairs_hook=_Pairs))
        return config, _build_experiment(config)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError,
            ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def _failed(manifest_path, manifest, exc, code, message):
    """Record exc as a failed run in the manifest, where it can still be
    written, print message and return the exit code."""
    manifest.update(status="failed", summary={"error": str(exc)})
    with suppress(OSError):
        _write_json(manifest_path, manifest)
    print(message, file=sys.stderr)
    return code


def run_experiment(config_path, out_dir):
    built = _build_file(config_path)
    if built is None:
        return EXIT_CONFIG
    config, (run, summary) = built

    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    manifest = {"kind": config["kind"], "parameters": config,
                "version": __version__, "status": "incomplete",
                "outputs": {}, "summary": {}}
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(manifest_path, manifest)
        start = time.perf_counter()
        files, within_tol = run(out, summary)
        manifest.update(status="complete", summary=summary,
                        wall_seconds=time.perf_counter() - start,
                        outputs={p.name: hashlib.sha256(p.read_bytes())
                                 .hexdigest() for p in sorted(files)})
        _write_json(manifest_path, manifest)
    except (ArithmeticError, ValueError) as exc:
        return _failed(manifest_path, manifest, exc, EXIT_TOLERANCE,
                       f"numeric failure: {exc}")
    except OSError as exc:
        return _failed(manifest_path, manifest, exc, EXIT_CONFIG,
                       f"output error: {out_dir}: {exc}")
    print(f"wrote {len(files)} artifact(s) to {out}")
    if not within_tol:
        print("tolerance not met; see manifest summary", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def emit_report(manifest_path):
    """Print a manifest's summary; a file that is not a readable manifest
    (UTF-8 JSON object, summary and outputs objects, scalar summary values,
    string digests) exits 2."""
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        lines = _report_lines(manifest)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"manifest error: {manifest_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("\n".join(lines))
    return EXIT_OK


def _report_lines(manifest):
    if not isinstance(manifest, dict):
        raise TypeError("not a JSON object")
    s = manifest.get("summary", {})
    outputs = manifest.get("outputs", {})
    if not (isinstance(s, dict) and isinstance(outputs, dict)):
        raise TypeError("'summary' and 'outputs' must be JSON objects")
    lines = [f"experiment kind: {manifest.get('kind', '?')}",
             f"status: {manifest.get('status', '?')}"]
    for key, value in sorted(s.items()):
        if isinstance(value, (dict, list)):
            raise TypeError(f"summary {key} is not a scalar: {value!r}")
        if isinstance(value, float):
            value = "%.6g" % value
        elif not isinstance(value, str):
            value = json.dumps(value)      # true, false, null, an integer
        lines.append(f"{key}: {value}")
    for name, digest in sorted(outputs.items()):
        if not isinstance(digest, str):
            raise TypeError(f"output {name}: digest {digest!r} not a string")
        lines.append(f"output {name} sha256={digest[:16]}...")
    return lines


def main(argv=None):
    match sys.argv[1:] if argv is None else argv:
        case ["-h" | "--help"]:
            print(_USAGE)
            return EXIT_OK
        case ["run", config, "--out", out]:
            return run_experiment(config, out)
        case ["validate", config]:
            if _build_file(config) is None:
                return EXIT_CONFIG
            print("config ok")
            return EXIT_OK
        case ["report", manifest]:
            return emit_report(manifest)
    print(_USAGE, file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
