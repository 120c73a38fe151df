"""Weights on (0,1) with a deep right-hand zero at the origin.

The divergent-log-integral condition (positive, nondecreasing, bounded,
log-integral diverging at 0) is certified analytically when a closed form
is available and reported as a trend otherwise.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import integrate_finite, require

__all__ = [
    "Weight",
    "ConditionAReport",
    "make_exp_weight",
    "make_constant_weight",
    "make_tabulated_weight",
    "log_integral",
    "validate_condition_A",
    "jensen_diagnostic",
]


@dataclass
class Weight:
    """Weight on (0,1): exp(-c/t), a constant, or monotone-interpolated samples."""

    kind: str  # "exp" | "constant" | "tabulated"
    c: float = 0.0
    v: float = 1.0
    samples: tuple = ()  # ((t, w), ...) for kind="tabulated"
    _fourier_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "exp":
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(t > 0, np.exp(-self.c / np.maximum(t, 1e-300)), 0.0)
        if self.kind == "constant":
            return np.full_like(t, self.v)
        ts = np.array([s[0] for s in self.samples])
        ws = np.array([s[1] for s in self.samples])
        return np.interp(t, ts, ws)

    @property
    def breakpoints(self):
        """Edges of the pieces of (0,1) on which w is smooth: 0, the sample
        abscissae inside (0,1) where a tabulated weight has its kinks, 1."""
        inner = sorted({t for t, _ in self.samples if 0.0 < t < 1.0})
        return (0.0, *inner, 1.0)

    def log_closed_form(self, eps):
        """Closed-form integral of log w over (eps, 1), when available."""
        if self.kind == "exp":
            return -self.c * math.log(1.0 / eps)
        if self.kind == "constant":
            return (1.0 - eps) * math.log(self.v)
        return None

    def descriptor(self):
        if self.kind == "exp":
            return {"kind": "exp", "c": self.c}
        if self.kind == "constant":
            return {"kind": "constant", "v": self.v}
        return {"kind": "tabulated", "samples": [list(s) for s in self.samples]}

    def to_json(self):
        return json.dumps(self.descriptor())

    @classmethod
    def from_descriptor(cls, d):
        kind = d.get("kind")
        if kind == "exp":
            return make_exp_weight(float(d["c"]))
        if kind == "constant":
            return make_constant_weight(float(d["v"]))
        if kind == "tabulated":
            return make_tabulated_weight([tuple(s) for s in d["samples"]])
        raise ValueError(f"unknown weight kind {kind!r}")


def make_exp_weight(c):
    """w(t) = exp(-c/t); log-integral over (eps,1) is -c*ln(1/eps)."""
    if c <= 0:
        raise ValueError("c must be positive")
    return Weight(kind="exp", c=float(c))


def make_constant_weight(v):
    if v <= 0:
        raise ValueError("constant weight must be positive")
    return Weight(kind="constant", v=float(v))


def make_tabulated_weight(samples):
    samples = tuple(sorted((float(t), float(w)) for t, w in samples))
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    if any(w <= 0 for _, w in samples):
        raise ValueError("tabulated weight must be positive")
    return Weight(kind="tabulated", samples=samples)


def log_integral(w, eps, tol=1e-10):
    """Integral of log w over (eps, 1); closed form when the kind has one."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    closed = w.log_closed_form(eps)
    if closed is not None:
        return closed
    res = integrate_finite(lambda t: np.log(w(t)) + 0j, eps, 1.0, tol)
    require(res, f"integral of log w over ({eps:g}, 1)")
    return res.value.real


@dataclass
class ConditionAReport:
    positive: bool
    nondecreasing: bool
    bounded: bool
    log_integral_diverges: bool
    divergence_certified: bool
    log_integral_values: list = field(default_factory=list)  # (eps, value)

    @property
    def passed(self):
        return (self.positive and self.nondecreasing and self.bounded
                and self.log_integral_diverges)


def validate_condition_A(w, grid_size=64):
    """Check positivity, monotonicity, boundedness and the divergence trend.

    Divergence of the log integral is certified only for kinds with a
    closed form (linear-in-ln(1/eps) minorant); otherwise the report says
    whether the truncated integrals decrease without apparent bound.
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    # geometric grid refined toward 0
    grid = np.concatenate([np.geomspace(1e-8, 0.1, grid_size // 2),
                           np.linspace(0.1, 1.0, grid_size // 2)])
    vals = w(grid)
    positive = bool(np.all(vals > 0)) if w.kind != "exp" else True
    if w.kind == "exp":
        # exp(-c/t) underflows near 0 but is positive on (0,1) by construction
        positive = bool(np.all(vals[grid > 1e-3] > 0))
    nondecreasing = bool(np.all(np.diff(vals) >= -1e-15 * np.abs(vals[:-1])))
    bounded = bool(np.all(np.isfinite(vals)))

    eps_list = [10.0 ** (-k) for k in range(2, 9)]
    li = []
    for eps in eps_list:
        closed = w.log_closed_form(eps)
        if closed is not None:
            li.append((eps, closed))
        else:
            try:
                li.append((eps, log_integral(w, eps)))
            except (ArithmeticError, FloatingPointError):
                break

    certified = False
    diverges = False
    if w.kind == "exp":
        # closed form -c*ln(1/eps) is an exact linear minorant in ln(1/eps)
        certified = True
        diverges = True
    elif len(li) >= 2:
        drops = [li[i + 1][1] - li[i][1] for i in range(len(li) - 1)]
        diverges = all(d < 0 for d in drops) and li[-1][1] < li[0][1] - 1.0
    return ConditionAReport(positive, nondecreasing, bounded, diverges,
                            certified, li)


def jensen_diagnostic(phi, w, eps, tol=1e-10):
    """Convexity check: geometric vs arithmetic mean of |phi|^2/w on (eps,1).

    Both sides use the normalized measure dt/(1-eps), so equality holds for
    constants.  Returns (lhs, rhs) with lhs <= rhs up to tolerance; a phi
    vanishing on a subinterval drives lhs to 0, which is valid.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    length = 1.0 - eps

    def log_integrand(t):
        a = np.abs(np.asarray(phi(t), dtype=np.complex128))
        with np.errstate(divide="ignore"):
            lg = 2.0 * np.log(np.maximum(a, 1e-300)) - np.log(w(t))
        return lg + 0j

    log_res = integrate_finite(log_integrand, eps, 1.0, tol)
    require(log_res, "Jensen log part, integral of log(|phi|^2/w)")
    log_part = log_res.value.real
    lhs = math.exp(log_part / length) if log_part > -700 * length else 0.0

    def ratio(t):
        a = np.abs(np.asarray(phi(t), dtype=np.complex128))
        return a * a / w(t) + 0j

    ratio_res = integrate_finite(ratio, eps, 1.0, tol)
    require(ratio_res, "Jensen ratio part, integral of |phi|^2/w")
    return lhs, ratio_res.value.real / length
