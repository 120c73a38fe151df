"""One benchmark workload in a fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --workdir DIR [--trace] [--setup-only]

Imports szegolab from the checkout's src/, builds the objects the ops share,
runs the seeded ops back to back (one client, closed loop) with a fixed
reference computation timed between them, then checks every output with its
oracle and writes result.json into DIR.  With --setup-only it stops after
set-up, so run.py can time set-up in fresh processes.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import mmap  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

# The reference is timed REF_SAMPLES times before the first op, after the
# last, and whenever the ops since it was last timed took REF_EVERY_S; each
# of those ops is divided by the mean of the reference times on either side.
REF_SAMPLES = 3
REF_EVERY_S = 1.0
FRESH_BYTES = 8 << 20
FRESH_MAPS = 4


class Reference:
    """A fixed computation outside szegolab, timed between ops.

    A shared host runs the same code at speeds up to 1.7x apart, in plateaus
    of seconds to minutes, so raw op times spread between runs by more than
    any bound a regression check can use.  The reference mixes what the ops
    spend their time in: interpreted Python, numpy element-wise work, BLAS,
    and fresh pages for large arrays.  Timed next to eval_H and an SVD in
    blocks of ten seconds, such a mix correlated 0.97 with both, so an op's
    time divided by the reference time around it follows the program more
    than the host.  It keeps about 5 MB of arrays, which peak_rss_mb counts.
    """

    def __init__(self):
        import numpy
        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.matrix = (rng.standard_normal((320, 320))
                       + 1j * rng.standard_normal((320, 320)))
        self.product = numpy.empty_like(self.matrix)
        self.x = rng.random(100_000)
        self.y = numpy.empty_like(self.x)
        self.seconds()   # warm-up: first-call allocations are not timed

    def seconds_mean(self):
        return statistics.fmean(self.seconds() for _ in range(REF_SAMPLES))

    def seconds(self):
        """Time of one pass.  It takes its fresh pages from mmap, not from
        the heap, so the allocator state the ops leave behind does not change
        it, and it maps only 8 MB at a time."""
        np, x, y = self.np, self.x, self.y
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        for _ in range(5):
            np.multiply(x, 3.1, out=y)
            np.sin(y, out=y)
        np.matmul(self.matrix, self.matrix, out=self.product)
        for _ in range(FRESH_MAPS):
            with mmap.mmap(-1, FRESH_BYTES) as pages:
                fresh = np.frombuffer(pages, dtype=np.float64)
                fresh.fill(1.0)
                fresh.sum()
                del fresh   # the map cannot close while an array views it
        return time.perf_counter() - t0


def environment(szegolab):
    """Facts about the numeric stack this process ran on."""
    import importlib.util

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "szegolab_using_numba": getattr(szegolab, "USING_NUMBA", None)}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import szegolab
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(szegolab.__file__).resolve().parents:
        raise SystemExit(f"szegolab imported from {szegolab.__file__}, "
                         f"not from {src}")
    workdir = Path(args.workdir)
    session = workloads.Session(args.workload, workdir)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        (workdir / "result.json").write_text(json.dumps({"setup_s": setup_s}),
                                             encoding="utf-8")
        return 0

    tracer = None
    run_op = session.run
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        run_op = tracer.wrap("bench.op", session.run)

    ops = workloads.make_ops(args.workload, args.seed, args.seconds)
    for i, op in enumerate(ops):
        session.prepare(i, op)

    reference = Reference()
    ref_before = reference.seconds_mean()
    records, pending = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            output, error = run_op(op), None
        except Exception:  # an op that raises is a failed op, not a crash
            output, error = None, traceback.format_exc(limit=3)
        rec = {"op": op, "seconds": time.perf_counter() - t0,
               "output": output, "error": error}
        records.append(rec)
        pending.append(rec)
        if (sum(r["seconds"] for r in pending) >= REF_EVERY_S
                or op is ops[-1]):
            ref_after = reference.seconds_mean()
            for r in pending:
                r["ref_s"] = 0.5 * (ref_before + ref_after)
            ref_before, pending = ref_after, []
    wall_s = sum(r["seconds"] for r in records)

    for rec in records:
        rec["ok"], rec["accuracy_ratio"] = False, None
        if rec["error"] is None:
            try:
                rec["ok"], rec["accuracy_ratio"], rec["detail"] = \
                    workloads.check(rec["op"], rec["output"])
            except (OSError, ValueError, KeyError) as exc:
                rec["error"] = f"oracle could not read the output: {exc!r}"
        rec["bytes_written"] = (workloads.output_bytes(rec["op"])
                                if rec["error"] is None else 0)

    result = {
        "workload": args.workload, "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_ref": sum(r["seconds"] / r["ref_s"] for r in records),
        "op_p50_s": statistics.median(r["seconds"] for r in records),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
        "trace": tracer.layer_metrics() if tracer else None,
        "env": environment(szegolab),
    }
    (workdir / "result.json").write_text(json.dumps(result, default=str),
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
