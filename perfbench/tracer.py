"""Outside-in tracing of the szegolab layers.

``Tracer.install`` replaces each public function of the layer modules, and a
few public methods, by a wrapper that opens a span, and rebinds the wrapper
under every module-level name the original is imported as (for example
``deep_zero.sine_series`` and ``probe.weight_fourier_coeff``, whose
self-recursion goes through that name).  Nothing in the package is edited.

Spans nest on a stack; each records its parent span's name, and its duration
minus the time of its child spans is its self time.  Spans are aggregated in
memory per (name, parent) pair, since a probe op makes about a million
wrapped calls.  Counts (calls, quadrature evaluations, kernel terms, points)
are deterministic for a given seed; times are not.
"""

import functools
import importlib
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "probe", "quadrature", "deep_zero", "blaschke", "_accel",
          "weights", "frequency_sets")
# public methods traced besides module-level functions: (module, class, name)
METHODS = (("weights", "Weight", "__call__"),
           ("blaschke", "JumpFunction", "__call__"),
           ("probe", "AnnihilatorTarget", "inner"),
           ("probe", "AnnihilatorTarget", "norm_sq"),
           ("probe", "TrigPolyTarget", "inner"),
           ("probe", "TrigPolyTarget", "norm_sq"))
QUADRATURE = {"quadrature.integrate_finite", "quadrature.oscillatory_integral",
              "quadrature.integrate_left_halfline"}
# bytes per element of the points x terms array each kernel materializes
KERNEL_ITEMSIZE = {"_accel.sine_series": 8, "_accel.boundary_product": 16,
                   "_accel.interior_log_product": 16}


class Tracer:
    def __init__(self):
        self.stack = []            # open spans: [name, child_seconds]
        self.spans = {}            # (name, parent) -> [calls, total_s, self_s]
        self.counts = Counter()

    def wrap(self, name, fn):
        """Return fn recording a span named name on each call."""
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [name, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                rec = tracer.spans.setdefault((name, parent), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            tracer._count(name, parent, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _count(self, name, parent, args, result):
        c = self.counts
        if name in QUADRATURE:
            # integrate_left_halfline delegates to integrate_finite and
            # returns its evaluations; count that integral once
            if (name == "quadrature.integrate_finite"
                    and parent == "quadrature.integrate_left_halfline"):
                return
            c["quadrature.calls"] += 1
            c["quadrature.evals"] += result.evaluations
            c["quadrature.unconverged"] += not result.converged
            if parent == "probe.weight_fourier_coeff":
                c["probe.coeff.quad_calls"] += 1
        elif name in KERNEL_ITEMSIZE:
            terms = np.size(args[0]) * np.size(args[1])
            c[name + ".terms"] += terms
            c["_accel.bytes_computed"] += terms * KERNEL_ITEMSIZE[name]
        elif name == "deep_zero.eval_h":
            c["deep_zero.eval_h.points"] += np.size(args[0])
        elif name in ("weights.Weight.__call__",
                      "blaschke.JumpFunction.__call__"):
            c[name + ".points"] += np.size(args[1])

    def install(self):
        """Wrap the layers of the imported szegolab package in place."""
        package = importlib.import_module("szegolab")
        modules = {}
        for m in LAYERS:
            try:
                modules[m] = importlib.import_module(f"szegolab.{m}")
            except ModuleNotFoundError:   # a layer folded into another
                continue
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}",
                                              vars(cls)[meth]))

    def layer_metrics(self):
        """Per-layer numbers: self time per layer and per function, counts."""
        calls = Counter()
        self_s = Counter()
        for (name, _parent), (n, _total, own) in self.spans.items():
            calls[name] += n
            self_s[name] += own
            self_s[name.split(".", 1)[0]] += own
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts),
                "spans": [{"name": name, "parent": parent, "calls": n,
                           "total_s": total, "self_s": own}
                          for (name, parent), (n, total, own)
                          in sorted(self.spans.items(), key=str)]}

