"""Seeded inputs, operations and oracles for the three benchmark workloads.

Every input comes from ``numpy.random.default_rng`` seeded by the workload
seed, so one seed gives one op list.  Continuous parameters are drawn by
stratified sampling (one draw inside each of n equal strata, then shuffled):
the inputs stay distinct and seeded, while the total cost of a run barely
depends on the seed, which keeps run-to-run spread small.

The oracles are clauses of the acceptance gate that pass at the commit that
introduced this benchmark:

* probe_squares: criterion 10, min residual ratio >= 0.99;
* probe_cubes_spectral: criterion 11, residuals non-increasing in N within
  ``1e-8 + sqrt(1e-10 * w_hat(0))``;
* route_checks: criterion 2 (Cauchy residual < 1e-4), criterion 4
  (convolution route discrepancy < 1e-3) and criterion 8 (series and
  integral routes of H agree within the declared bound).

Each op also gets an accuracy ratio, the check's discrepancy over the check's
fixed tolerance.  On probe_cubes_spectral the in-span target keeps a residual
slightly above the slack (the Tikhonov-floor bias); that shows as a ratio
above 1 and is not an op failure, because criterion 11 checks monotonicity.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("probe_squares", "probe_cubes_spectral", "route_checks")

# Seconds one op of each kind took on a 2-core x86-64 host at the commit that
# introduced the benchmark.  They only turn --seconds into a fixed op count,
# so that faster code finishes the same ops sooner and wall_ref shows it.
NOMINAL_OP_S = {"probe_squares": 7.0, "probe_cubes_spectral": 3.0,
                "convolution": 6.0, "eval_H": 0.15}

# Companion weight factors just above the shipped probe config's 0.9, inside
# the paper's regime (factor < 1).  At tol=1e-13 the squares probe's
# target-norm integral does not converge anywhere in this range (ROADMAP
# item 2), and its evaluation count is flat in the factor here (3.0M-3.15M),
# so runs of different seeds do the same work; between 0.80 and 0.86 the
# count jumps between 2.1M and 3.8M.
FACTOR_RANGE = (0.91, 0.99)
PROBE_TOL = 1e-13
SQUARES_N_LIST = [50, 100, 200, 400]
CUBES_N_LIST = [50, 100, 200, 400, 800]
CUBES_COUNT = 50
CUBES = {k ** 3 for k in range(1, CUBES_COUNT + 1)}

CAUCHY_TOL = 1e-6            # criterion 2
CAUCHY_LIMIT = 1e-4
CONV_TOL = 1e-3              # criterion 4
CONV_LIMIT = 1e-3
H_TOL = 1e-8                 # criterion 8
SQUARES_MIN_RATIO = 0.99     # criterion 10
# Bounding box of criterion 2's test points, mirrored in the real axis.
CAUCHY_RE = (-5.0, 0.3)
CAUCHY_IM = (0.1, 2.0)
# Integer q off the cubes near the ones criterion 4 uses (0 and -1).
OFF_SET_Q = (-3, -2, -1, 0, 2, 3)
ON_SET_Q = 1
CONV_T = (0.1, 1.0)
H_T = (0.05, 0.95)


def rng_for(workload, seed):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def stratified(rng, lo, hi, n):
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return [float(lo + (hi - lo) * x) for x in u]


def _count(seconds, nominal, minimum=1):
    return max(minimum, round(seconds / nominal))


def make_ops(workload, seed, seconds):
    """The op list of one run: a list of dicts with a 'kind' and its inputs."""
    rng = rng_for(workload, seed)
    if workload == "probe_squares":
        n = _count(seconds, NOMINAL_OP_S[workload])
        return [{"kind": "probe_squares", "config": {
            "kind": "probe",
            "weight": {"kind": "companion", "factor": f, "M": 20},
            "gamma": {"generator": "power", "rho": 2, "count": 100},
            "target": {"kind": "annihilator", "M": 20},
            "N_list": SQUARES_N_LIST, "tol": PROBE_TOL}}
            for f in stratified(rng, *FACTOR_RANGE, n)]
    if workload == "probe_cubes_spectral":
        n = _count(seconds, NOMINAL_OP_S[workload])
        span = [k for k in range(2, CUBES_N_LIST[0] + 1) if k not in CUBES]
        ops = []
        for f in stratified(rng, *FACTOR_RANGE, n):
            freqs = sorted(int(k) for k in rng.choice(span, 3, replace=False))
            amps = rng.uniform(0.25, 1.0, 3) * np.exp(
                2j * np.pi * rng.random(3))
            ops.append({"kind": "probe_cubes_spectral", "config": {
                "kind": "probe",
                "weight": {"kind": "companion", "factor": f, "M": 20},
                "gamma": {"generator": "power", "rho": 3,
                          "count": CUBES_COUNT},
                "target": {"kind": "trigpoly", "coeffs": {
                    str(k): [a.real, a.imag] for k, a in zip(freqs, amps)}},
                "N_list": CUBES_N_LIST, "tol": PROBE_TOL}})
        return ops
    if workload == "route_checks":
        # 80% of the run on convolution checks (the boundary_product layer),
        # the rest on H checks (eval_h) and on a third as many Cauchy checks,
        # so the median op is an H check
        budget = 0.8 * seconds
        n_conv = _count(budget, NOMINAL_OP_S["convolution"], minimum=2)
        n_h = _count(seconds - budget, NOMINAL_OP_S["eval_H"], minimum=3)
        n_cauchy = max(3, n_h // 3)
        off_q = [int(q) for q in rng.permutation(OFF_SET_Q)]
        ops = [{"kind": "convolution",
                "q": float(ON_SET_Q if i % 2 == 0
                           else off_q[i // 2 % len(off_q)]),
                "t": t}
               for i, t in enumerate(stratified(rng, *CONV_T, n_conv))]
        ops += [{"kind": "eval_H", "t": t}
                for t in stratified(rng, *H_T, n_h)]
        signs = rng.choice([-1.0, 1.0], n_cauchy)
        ops += [{"kind": "cauchy", "z": [re, s * im]}
                for re, im, s in zip(stratified(rng, *CAUCHY_RE, n_cauchy),
                                     stratified(rng, *CAUCHY_IM, n_cauchy),
                                     signs)]
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]
    raise ValueError(f"unknown workload {workload!r}")


class Session:
    """Objects shared by the ops of one run, built once before the first op."""

    def __init__(self, workload, workdir):
        import szegolab
        from szegolab import blaschke, cli, deep_zero, frequency_sets

        self.szegolab = szegolab
        self.cli = cli
        self.workdir = Path(workdir)
        if workload == "route_checks":
            cubes = frequency_sets.gen_power_set(3, CUBES_COUNT)
            self.ann = blaschke.BlaschkeAnnihilator(cubes)
            self.jump = blaschke.JumpFunction(self.ann)
            self.series = deep_zero.DeepZeroSeries.build(0, 20)

    def prepare(self, index, op):
        """Write a probe op's config file; benchmark input, not timed."""
        if "config" in op:
            path = self.workdir / f"op{index:03d}.json"
            path.write_text(json.dumps(op["config"]), encoding="utf-8")
            op["config_path"] = str(path)
            op["out_dir"] = str(self.workdir / f"op{index:03d}")

    def run(self, op):
        """Execute one op through the public API; returns its raw output."""
        kind = op["kind"]
        if kind in ("probe_squares", "probe_cubes_spectral"):
            code = self.cli.main(["run", op["config_path"],
                                  "--out", op["out_dir"]])
            return {"exit_code": code}
        blaschke = self.szegolab.blaschke
        deep_zero = self.szegolab.deep_zero
        if kind == "convolution":
            out = blaschke.convolution_identity_residual(
                self.jump, op["q"], op["t"], CONV_TOL)
            return {"max_discrepancy": float(out["max_discrepancy"])}
        if kind == "cauchy":
            z = complex(*op["z"])
            return {"residual": float(blaschke.cauchy_identity_residual(
                self.ann, self.jump, z, CAUCHY_TOL))}
        if kind == "eval_H":
            series_val = deep_zero.eval_H_series(self.series, op["t"])
            res = deep_zero.eval_H_integral(op["t"], H_TOL)
            return {"gap": float(abs(series_val - res.value)),
                    "allowed": float(res.abs_error_estimate
                                     + self.series.truncation_bound)}
        raise ValueError(f"unknown op kind {kind!r}")


def _read_residuals(out_dir):
    with open(Path(out_dir) / "residuals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return ([int(r["N"]) for r in rows], [float(r["residual"]) for r in rows],
            [float(r["target_norm"]) for r in rows])


def exp_weight_mean(c):
    """int_0^1 exp(-c/t) dt, i.e. w_hat(0), by composite Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(64)
    edges = [0.0, 0.02, 0.1, 0.3, 1.0]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        t = 0.5 * (b - a) * x + 0.5 * (b + a)
        total += 0.5 * (b - a) * float(np.sum(w * np.exp(-c / t)))
    return total


def check(op, output):
    """Apply the op's oracle: returns (ok, accuracy_ratio, detail).

    Reads only the op's outputs; it calls nothing in szegolab, so the traced
    run's counts cover the ops alone.
    """
    kind = op["kind"]
    if kind in ("probe_squares", "probe_cubes_spectral"):
        if output["exit_code"] != 0:
            return False, None, f"exit code {output['exit_code']}"
        out_dir = Path(op["out_dir"])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        if manifest.get("status") != "complete":
            return False, None, f"manifest status {manifest.get('status')!r}"
        ns, res, norms = _read_residuals(out_dir)
        if ns != op["config"]["N_list"] or not all(
                map(math.isfinite, res + norms)):
            return False, None, f"bad residual table N={ns}"
        if kind == "probe_squares":
            min_ratio = min(r / n for r, n in zip(res, norms))
            ok = min_ratio >= SQUARES_MIN_RATIO
            ratio = max(1.0 - min_ratio, 0.0) / (1.0 - SQUARES_MIN_RATIO)
            return ok, ratio, f"min residual ratio {min_ratio:.9f}"
        c = (2.0 * op["config"]["weight"]["factor"]
             * manifest["summary"]["companion_c2_fit"])
        slack = 1e-8 + math.sqrt(1e-10 * exp_weight_mean(c))
        ok = all(b <= a + slack for a, b in zip(res, res[1:]))
        # the target lies in the span, so each residual is a discrepancy
        return ok, max(res) / slack, f"residuals {res} slack {slack:.3e}"
    if kind == "convolution":
        d = output["max_discrepancy"]
        return d < CONV_LIMIT, d / CONV_LIMIT, f"discrepancy {d:.3e}"
    if kind == "cauchy":
        r = output["residual"]
        return r < CAUCHY_LIMIT, r / CAUCHY_LIMIT, f"residual {r:.3e}"
    if kind == "eval_H":
        gap, allowed = output["gap"], output["allowed"]
        return gap <= allowed, gap / allowed, f"gap {gap:.3e} bound {allowed:.3e}"
    raise ValueError(f"unknown op kind {kind!r}")


def output_bytes(op):
    """Bytes the CLI wrote for a probe op (0 for in-process ops)."""
    out = op.get("out_dir")
    if out is None or not Path(out).is_dir():
        return 0
    return sum(p.stat().st_size for p in Path(out).iterdir())
