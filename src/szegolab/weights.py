"""Weights on (0,1) with a deep right-hand zero at the origin.

The divergent-log-integral condition (positive, nondecreasing, bounded,
log-integral diverging at 0) is read from the weight's definition.  A
weight is exp(-c/t) or tabulated; a constant weight is a tabulated one with
two equal samples.  The truncated log integrals are closed forms for both
kinds, and they decide the divergence: -c ln(1/eps) diverges for exp(-c/t)
with c > 0, while a tabulated weight, at least its smallest value, has a
finite one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Weight", "ConditionAReport", "make_exp_weight",
           "make_constant_weight", "make_tabulated_weight", "log_integral",
           "validate_condition_A"]


@dataclass(frozen=True)
class Weight:
    """Weight on (0,1): exp(-c/t), or linearly interpolated samples."""

    kind: str  # "exp" | "tabulated"
    c: float = 0.0
    samples: tuple = ()  # ((t, w), ...) for kind="tabulated"

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "exp":
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(t > 0, np.exp(-self.c / np.maximum(t, 1e-300)), 0.0)
        return np.interp(t, *np.array(self.samples).T)

    @property
    def breakpoints(self):
        """Edges of the pieces of (0,1) on which w is smooth: 0, the sample
        abscissae inside (0,1) where a tabulated weight has its kinks, 1."""
        return (0.0, *(t for t, _ in self.samples if 0.0 < t < 1.0), 1.0)

    def _pieces(self, lo, hi):
        """(a, b, u, x) for the pieces [a, b] between lo, the abscissae inside
        (lo, hi) and hi: w is linear on each (flat beyond its samples), with
        the ends u and u (1 + x), x >= 0, in either order."""
        knots = [lo, *(t for t, _ in self.samples if lo < t < hi), hi]
        for a, b, *ends in zip(knots, knots[1:], self(knots), self(knots[1:])):
            u, v = sorted(ends)
            yield a, b, u, (v - u) / u

    def log(self, t):
        """log w(t) for t > 0; -c/t for exp(-c/t), finite where w underflows."""
        return -self.c / t if self.kind == "exp" else np.log(self(t))


def make_exp_weight(c):
    """w(t) = exp(-c/t), refused where exp(-c) == 0: w would be 0 on [0, 1]."""
    if not c > 0:
        raise ValueError("c must be positive")
    if math.exp(-c) == 0.0:
        raise ValueError(f"exp(-c/t) underflows to 0 on [0, 1] at c={c!r}")
    return Weight(kind="exp", c=float(c))


def make_constant_weight(v):
    """w(t) = v, as the tabulated weight with two equal samples."""
    return make_tabulated_weight([(0.0, v), (1.0, v)])


def make_tabulated_weight(samples):
    samples = tuple(sorted((float(t), float(w)) for t, w in samples))
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    repeated = [a for (a, _), (b, _) in zip(samples, samples[1:]) if a == b]
    if repeated:
        raise ValueError(f"abscissa {repeated[0]!r} is sampled twice")
    if not all(math.isfinite(t) and 0 < w < math.inf for t, w in samples):
        raise ValueError("weight values must be positive and finite")
    return Weight(kind="tabulated", samples=samples)


def log_integral(w, eps):
    """Integral of log w over (eps, 1), in closed form for every kind: over
    a tabulated weight's piece [a, b] with ends u and u (1 + x), it is
    (b - a)(log u + (1 + x) log1p(x)/x - 1), (b - a) log u when x = 0."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if w.kind == "exp":
        return -w.c * math.log(1.0 / eps)
    return math.fsum((b - a) * (math.log(u) + (
        (1.0 + x) * math.log1p(x) / x - 1.0 if x else 0.0))
        for a, b, u, x in w._pieces(eps, 1.0))


@dataclass
class ConditionAReport:
    positive: bool
    nondecreasing: bool
    bounded: bool
    log_integral_diverges: bool
    log_integral_values: list = field(default_factory=list)  # (eps, value)

    @property
    def passed(self):
        return (self.positive and self.nondecreasing and self.bounded
                and self.log_integral_diverges)


def validate_condition_A(w):
    """Check positivity, monotonicity, boundedness and divergence.

    The first three are read from the weight's definition: exp(-c/t) is
    positive, and nondecreasing and bounded iff c >= 0; a tabulated weight
    is linear between its breakpoints, so its values there decide them.
    The log integral's closed forms decide the last: it diverges exactly
    for exp(-c/t) with c > 0.
    """
    if w.kind == "exp":
        positive, nondecreasing, bounded = True, w.c >= 0, w.c >= 0
    else:
        vals = w(np.array(w.breakpoints))
        positive = bool(np.all(vals > 0))
        nondecreasing = bool(np.all(np.diff(vals) >= 0))
        bounded = bool(np.all(np.isfinite(vals)))
    li = [(eps, log_integral(w, eps))
          for eps in (10.0 ** (-k) for k in range(2, 9))]
    return ConditionAReport(positive, nondecreasing, bounded,
                            w.kind == "exp" and w.c > 0, li)
