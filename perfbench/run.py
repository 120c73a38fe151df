"""szegolab benchmark: three seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload probe_squares --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; szegolab is imported from its src/.
Each workload runs in its own fresh worker process: one client runs the
seeded ops back to back (closed loop), and every output is checked by an
oracle taken from the acceptance gate.  --seconds fixes the op count, from
the per-op cost measured when the benchmark was written, so a faster program
runs the same ops in less time.

--trace 0 prints the end-to-end metrics.  Set-up is timed in five fresh
set-up-only processes and the median reported.  The ops' run time is bounded
as wall_ref, in units of a reference computation timed between the ops (see
README.md); the raw wall_s and op_p50_s are printed too.  --trace 1 runs the
workload untraced and then traced with the same seed, and prints the
per-layer metrics of the traced run plus trace.overhead_s, the traced wall_s
minus the untraced one.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0     # every run, child processes included, ends by then

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def child_env():
    """Environment of the worker processes: the program's own switches
    cleared, BLAS and OpenMP pinned to one thread, szegolab from src/."""
    env = dict(os.environ)
    for var in ("SZEGO_TOL", "SZEGO_NO_NUMBA"):
        env.pop(var, None)
    # one client, one thread: on a shared 2-core host a second BLAS thread
    # made a cubes op vary more than twice as much between runs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, workdir, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir), *extra]
    workdir.mkdir(parents=True, exist_ok=True)
    log = workdir / "worker.log"
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {' '.join(extra)} ran past the deadline")
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"worker exited {code}:\n{tail}")
    return workdir


def setup_samples(args, workdir, deadline):
    """Set-up seconds of fresh processes; the first, which may compile the
    bytecode caches, is discarded."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        d = run_worker(args, workdir / f"setup{i}", deadline, ["--setup-only"])
        samples.append(json.loads((d / "result.json").read_text())["setup_s"])
    return samples[1:]


def load(workdir):
    return json.loads((workdir / "result.json").read_text())


def environment():
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
             "python": sys.version.split()[0], "git_commit": None}
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        facts["git_commit"] = out.stdout.strip() or None
    return facts


def layer_metrics(traced, untraced, accuracy):
    tr = traced["trace"]
    calls, own, counts = tr["calls"], tr["self_s"], tr["counts"]
    quad_calls = counts.get("quadrature.calls", 0)
    coeff_calls = calls.get("probe.weight_fourier_coeff", 0)
    coeff_quad = counts.get("probe.coeff.quad_calls", 0)
    values = [
        ("quadrature.calls", quad_calls, "count"),
        ("quadrature.evals", counts.get("quadrature.evals", 0), "count"),
        ("quadrature.unconverged", counts.get("quadrature.unconverged", 0),
         "count"),
        ("quadrature.self_s", own.get("quadrature", 0.0), "s"),
        ("quadrature.evals_per_call",
         counts.get("quadrature.evals", 0) / quad_calls if quad_calls else 0.0,
         "evals/call"),
        ("accel.self_s", own.get("_accel", 0.0), "s"),
        ("accel.sine_series.terms",
         counts.get("_accel.sine_series.terms", 0), "count"),
        ("accel.sine_series.self_s", own.get("_accel.sine_series", 0.0), "s"),
        ("accel.boundary_product.terms",
         counts.get("_accel.boundary_product.terms", 0), "count"),
        ("accel.boundary_product.self_s",
         own.get("_accel.boundary_product", 0.0), "s"),
        ("accel.bytes_computed", counts.get("_accel.bytes_computed", 0),
         "bytes"),
        ("probe.self_s", own.get("probe", 0.0), "s"),
        ("probe.gram.self_s", own.get("probe.gram_matrix", 0.0), "s"),
        ("probe.coeff.calls", coeff_calls, "count"),
        ("probe.coeff.quad_calls", coeff_quad, "count"),
        ("probe.coeff.reuse_ratio",
         1.0 - coeff_quad / coeff_calls if coeff_calls else 0.0, "ratio"),
        ("blaschke.self_s", own.get("blaschke", 0.0), "s"),
        ("blaschke.compute_G.calls", calls.get("blaschke.compute_G", 0),
         "count"),
        ("blaschke.jump.points",
         counts.get("blaschke.JumpFunction.__call__.points", 0), "count"),
        ("deep_zero.self_s", own.get("deep_zero", 0.0), "s"),
        ("deep_zero.eval_h.points", counts.get("deep_zero.eval_h.points", 0),
         "count"),
        ("deep_zero.eval_h.self_s", own.get("deep_zero.eval_h", 0.0), "s"),
        ("deep_zero.membership.calls",
         calls.get("deep_zero.membership_check", 0), "count"),
        ("deep_zero.decay_fit.calls", calls.get("deep_zero.decay_fit", 0),
         "count"),
        ("cli.self_s", own.get("cli", 0.0), "s"),
        ("cli.bytes_written",
         sum(r["bytes_written"] for r in traced["ops"]), "bytes"),
        ("weights.points", counts.get("weights.Weight.__call__.points", 0),
         "count"),
        ("weights.self_s", own.get("weights", 0.0), "s"),
        ("frequency_sets.self_s", own.get("frequency_sets", 0.0), "s"),
        ("oracle.accuracy_ratio", accuracy, "ratio"),
        ("trace.overhead_s", traced["wall_s"] - untraced["wall_s"], "s"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}


def summarize(result):
    """Failed op records and the worst accuracy ratio of one worker run."""
    ops = result["ops"]
    failed = [r for r in ops if not r["ok"]]
    accuracy = [r["accuracy_ratio"] for r in ops
                if r["accuracy_ratio"] is not None]
    return failed, max(accuracy, default=0.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "szegolab" / "__init__.py").is_file():
        print(f"perfbench: no szegolab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    runs = ROOT / ".bench_run"
    workdir = runs / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.trace:
            untraced = load(run_worker(args, workdir / "untraced", deadline))
            result = load(run_worker(args, workdir / "traced", deadline,
                                     ["--trace"]))
            accuracy = summarize(result)[1]
            # an op that fails only in the untraced pass still fails the run
            failed = [t if not t["ok"] else u
                      for t, u in zip(result["ops"], untraced["ops"])
                      if not (t["ok"] and u["ok"])]
            metrics = layer_metrics(result, untraced, accuracy)
            (runs / f"trace-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(result["trace"], indent=1), encoding="utf-8")
        else:
            setup = setup_samples(args, workdir, deadline)
            result = load(run_worker(args, workdir / "run", deadline))
            result["setup_s"] = statistics.median(setup)
            failed, accuracy = summarize(result)
            metrics = {name: {"value": result[name], "unit": unit}
                       for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    env = {**environment(), **result["env"]}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for rec in failed:
        print(f"failed op {json.dumps(rec['op'], default=str)}: "
              f"{rec['error'] or rec.get('detail')}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"wall_s = {result['wall_s']:.6g} s (sum of op times; printed, not "
          "bounded: it follows the shared host's speed, see wall_ref)")
    print(f"op_p50_s = {result['op_p50_s']:.6g} s (median of {len(ops)} ops; "
          "printed, not bounded)")
    print(f"error_rate = {len(failed) / len(ops):.6g} 1 "
          f"({len(failed)} of {len(ops)} ops failed)")
    print(f"accuracy_ratio = {accuracy:.6g} 1 "
          "(worst discrepancy over tolerance; above 1 without failing means "
          "a known defect)")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
