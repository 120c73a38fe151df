"""Lacunary sine series with a deep zero at the origin.

Everything is built from the meromorphic function
``e^{i pi z} sin(pi z) / (F(z) F(-z))`` with ``F(w) = cos(pi sqrt(w)/2)``
evaluated as an entire function of w, so no branch choices enter.  Its
removable singularities at +-(2k+1)^2 carry the series coefficients; the
resulting odd-square sine series decays like exp(-c/t) near 0 and 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._accel import sine_series
from .quadrature import (QuadratureResult, integrate_finite,
                         oscillatory_integral, require)

__all__ = [
    "SERIES_SWITCHOVER",
    "SINGULARITY_DELTA",
    "eval_F",
    "eval_F_prime",
    "eval_h",
    "eval_h_raw",
    "series_coefficients",
    "DeepZeroSeries",
    "eval_H_series",
    "eval_H_integral",
    "DecayFit",
    "decay_fit",
    "EnvelopeReport",
    "estimate_envelope_constants",
    "membership_check",
]

SERIES_SWITCHOVER = 25.0   # |w| below which the power series is used
SINGULARITY_DELTA = 1e-4   # radius of the local-quotient rule
_QUARTER_PI_SQ = math.pi ** 2 / 4.0


def _F_series(w):
    # sum (-1)^n (pi^2/4)^n w^n/(2n)!; 40 terms cover |w| <= ~40 to ~1e-16
    out = np.ones_like(w)
    term = np.ones_like(w)
    for n in range(40):
        term = term * (-_QUARTER_PI_SQ) * w / ((2 * n + 1) * (2 * n + 2))
        out = out + term
    return out


def eval_F(w):
    """cos(pi sqrt(w)/2) as an entire function of w."""
    w = np.asarray(w, dtype=np.complex128)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.empty(w.shape, dtype=np.complex128)
    small = np.abs(w) <= SERIES_SWITCHOVER
    if small.any():
        out[small] = _F_series(w[small])
    if (~small).any():
        # far out on the negative axis cosh(pi sqrt|w|/2) overflows to inf,
        # its correct IEEE limit: the quotients that divide by it (the
        # series coefficients among them) underflow to +-0 as they should
        with np.errstate(over="ignore"):
            out[~small] = np.cos(0.5 * np.pi * np.sqrt(w[~small]))
    return out[0] if scalar else out


def eval_F_prime(w):
    """d/dw of cos(pi sqrt(w)/2): -pi sin(pi sqrt(w)/2)/(4 sqrt(w))."""
    w = np.asarray(w, dtype=np.complex128)
    r = np.sqrt(w)
    return -np.pi * np.sin(0.5 * np.pi * r) / (4.0 * r)


def eval_h_raw(z):
    """The defining quotient, no singularity handling (oracle/internal)."""
    z = np.asarray(z, dtype=np.complex128)
    return np.exp(1j * np.pi * z) * np.sin(np.pi * z) / (eval_F(z) * eval_F(-z))


def _cmul(a, b):
    """Complex product in real arithmetic.  numpy's complex array multiply
    may fuse multiply and add and then rounds differently from its scalar
    multiply; this rounds as the scalar one does, so the local rule's values
    (the series coefficients among them) equal a per-point evaluation."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag
                                                       + a.imag * b.real)


def _local_ratio(u, n0):
    """First-order value of sin(pi u)/F(u) near the odd squares n0."""
    ratio0 = (np.pi * np.cos(np.pi * n0)
              / eval_F_prime(n0.astype(np.complex128)))
    return _cmul(ratio0, 1.0 + (u - n0) / (4.0 * n0))


def _nearest_odd_square(x):
    """Nearest (2m+1)^2 >= 1 to each nonnegative real x, as floats.  A tie
    goes to (2m+1)^2 with m = round((sqrt(x) - 1)/2), then to the smaller."""
    x = np.asarray(x, dtype=np.float64)
    m = np.maximum(np.round((np.sqrt(np.maximum(x, 0.0)) - 1.0) / 2.0), 0.0)
    best = (2.0 * m + 1.0) ** 2
    for n in (np.where(m >= 1, (2.0 * m - 1.0) ** 2, np.inf),
              (2.0 * m + 3.0) ** 2):
        best = np.where(np.abs(x - n) < np.abs(x - best), n, best)
    return best


def eval_h(z, delta=SINGULARITY_DELTA):
    """h with removable singularities at +-(2m+1)^2 evaluated by the
    first-order local quotient rule inside a delta-neighborhood."""
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty(z.shape, dtype=np.complex128)
    handled = np.zeros(z.shape, dtype=bool)
    # sign +1: zero of F(z), replace sin(pi z)/F(z); sign -1: zero of F(-z),
    # where sin(pi z) = -sin(pi u).  A point near both takes the first.
    for sign in (1.0, -1.0):
        u = sign * z
        n0 = _nearest_odd_square(u.real)
        near = ~handled & (u.real >= 0.5) & (np.abs(u - n0) < delta)
        if near.any():
            zs = z[near]
            ratio = _local_ratio(u[near], n0[near])
            val = (_cmul(np.exp(1j * np.pi * zs), ratio)
                   / eval_F(-zs if sign > 0 else zs))
            out[near] = val if sign > 0 else -val
            handled |= near
    rest = ~handled
    if rest.any():
        out[rest] = eval_h_raw(z[rest])
    return out[0] if scalar else out


def series_coefficients(k_min, M):
    """[h((2k+1)^2)] for k = k_min..M, real values via the local rule."""
    if M < k_min:
        raise ValueError("M must be >= k_min")
    n0 = np.array([(2 * k + 1) ** 2 for k in range(k_min, M + 1)], dtype=np.float64)
    vals = eval_h(n0.astype(np.complex128))
    vals = np.atleast_1d(vals)
    resid = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if resid > 1e-12:
        raise ArithmeticError(f"coefficient imaginary residue {resid:.2e} too large")
    return vals.real.copy()


def _coeff_envelope(k):
    # |h((2k+1)^2)| = 4(2k+1)/cosh(pi(2k+1)/2) <= 8(2k+1) e^{-pi(2k+1)/2}
    n = 2.0 * k + 1.0
    return 8.0 * n * np.exp(-0.5 * np.pi * n)


@dataclass(frozen=True)
class DeepZeroSeries:
    """Truncated odd-square sine series 2i * sum c_k sin(2 pi (2k+1)^2 t)."""

    k_min: int
    M: int
    coeffs: np.ndarray
    freqs: np.ndarray
    truncation_bound: float

    @classmethod
    def build(cls, k_min=0, M=20):
        coeffs = series_coefficients(k_min, M)
        freqs = np.array([(2 * k + 1) ** 2 for k in range(k_min, M + 1)],
                         dtype=np.float64)
        ks = np.arange(M + 1, M + 400)
        tail = float(np.sum(2.0 * _coeff_envelope(ks)))
        return cls(k_min, M, coeffs, freqs, tail)


def eval_H_series(series, t):
    """Series value at t (purely imaginary for real t); periodic, period 1."""
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    vals = 2j * sine_series(np.atleast_1d(t), series.coeffs, series.freqs)
    return vals[0] if scalar else vals


def _h_abs_tail(X):
    # int over |x| > X of the coefficient-scale envelope 8(sqrt x + 2) e^{-pi sqrt x/2}
    a = 0.5 * math.pi
    R = math.sqrt(X)
    poly = (R * R / a + 2 * R / a ** 2 + 2 / a ** 3) + 2 * (R / a + 1 / a ** 2)
    return 2.0 * 16.0 * math.exp(-a * R) * poly


def eval_H_integral(t, tol=1e-8, X=200.0):
    """Fourier-integral route for the series values.

    Integrates e^{-2 pi i t x} h(x) over [-X, X] and negates (the transform
    of h is supported in (0,1) and equals minus the sine series in the
    orientation fixed by eval_H_series).  Returns a QuadratureResult whose
    error includes the analytic |h| tail beyond X.
    """
    t = float(t)
    res = oscillatory_integral(
        lambda x: np.exp(-2j * np.pi * t * x) * eval_h(x), abs(t) + 1.0,
        -X, X, tol)
    return QuadratureResult(-res.value,
                            res.abs_error_estimate + _h_abs_tail(X),
                            res.evaluations, res.converged)


@dataclass
class DecayFit:
    c1: float
    c2: float
    correlation: float
    n_used: int
    abscissa: str = "inv_t"


def decay_fit(series, t_grid, abscissa="inv_t"):
    """Least-squares line of log|H(t)| against 1/t (or 1/(1-t) near t=1)."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size < 8:
        raise ValueError("need at least 8 grid points")
    vals = np.abs(eval_H_series(series, t_grid))
    keep = vals > 1e-300
    if keep.sum() < 4:
        raise ValueError("fewer than 4 usable (non-underflowed) points")
    t = t_grid[keep]
    x = 1.0 / t if abscissa == "inv_t" else 1.0 / (1.0 - t)
    y = np.log(vals[keep])
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    corr = float(np.corrcoef(x, y)[0, 1])
    return DecayFit(c1=float(np.exp(intercept)), c2=float(-slope),
                    correlation=corr, n_used=int(keep.sum()), abscissa=abscissa)


@dataclass
class EnvelopeReport:
    c_amplitude: float
    c_decay: float
    max_ratio_upper: float
    max_ratio_lower: float | None


def estimate_envelope_constants(xy_grid, delta=SINGULARITY_DELTA):
    """Fit constants for |h(x+iy)| <= C e^{-c sqrt(y)}/(1+x^2), y >= 0, and
    check the lower-half-plane analogue with the extra e^{2 pi |y|} factor.

    Grid points within delta of a singular point are rejected.
    """
    pts = np.asarray(xy_grid, dtype=np.float64)
    zs = pts[:, 0] + 1j * pts[:, 1]
    ax = np.abs(pts[:, 0])
    inside = (pts[:, 1] == 0) & (np.abs(ax - _nearest_odd_square(ax)) < delta)
    if inside.any():
        x, y = pts[np.argmax(inside)]
        raise ValueError(
            f"grid point ({x},{y}) inside a singular neighborhood")
    vals = np.abs(eval_h(zs))
    q = vals * (1.0 + pts[:, 0] ** 2)

    upper = pts[:, 1] >= 0
    # decay rate from the imaginary axis trend (or all upper points)
    up = pts[upper]
    qu = q[upper]
    ys = np.sqrt(up[:, 1])
    pos = (up[:, 1] > 0) & (qu > 1e-300)
    if pos.sum() >= 2:
        A = np.vstack([ys[pos], np.ones(int(pos.sum()))]).T
        (slope, _), *_ = np.linalg.lstsq(A, np.log(qu[pos]), rcond=None)
        c_decay = max(-float(slope), 0.0)
    else:
        c_decay = 0.0
    c_amp = float(np.max(qu * np.exp(c_decay * ys)))
    max_up = float(np.max(qu * np.exp(c_decay * ys) / c_amp))

    lower = ~upper
    max_low = None
    if lower.any():
        yl = np.abs(pts[lower, 1])
        envelope = c_amp * np.exp(2.0 * np.pi * yl - c_decay * np.sqrt(yl))
        max_low = float(np.max(q[lower] / envelope))
    return EnvelopeReport(c_amplitude=c_amp, c_decay=c_decay,
                          max_ratio_upper=max_up, max_ratio_lower=max_low)


def membership_check(series, w, tol=1e-8, grid_points=256):
    """Weighted energy  int_0^1 |H(t)|^2 / w(t) dt  with blow-up detection.

    The partial sum of the series is trustworthy only down to the
    floating-point cancellation floor (about eps times the coefficient
    l1 mass); below the crossing point of the fitted decay envelope with
    that floor the integrand is pure noise which 1/w would amplify.  The
    numerical integral therefore stops at that crossing and the true
    contribution of the remaining sliver is bounded analytically from the
    envelope; an envelope that 1/w outruns means genuine non-membership.

    The package's quadrature rule: a caller asks for no finer a tolerance
    than its dominant analytic error term, and an integral that still does
    not converge raises ArithmeticError (the CLI exits 3).  Here that
    tolerance is max(tol, 1e-3 * sliver bound); a finer request only
    chases the integrand's rounding floor, which stalls the error
    estimate, while the returned error, quadrature error plus sliver
    bound, would not improve.  Returns (value, error).
    """
    if series.coeffs.size == 0:
        return 0.0, 0.0

    scale = 2.0 * float(np.sum(np.abs(series.coeffs)))
    noise_floor = 64.0 * np.finfo(np.float64).eps * scale
    fit = decay_fit(series, 1.0 / np.linspace(5.0, 50.0, 20))
    # point where the envelope falls to 10x the cancellation noise
    t_cut = fit.c2 / math.log(10.0 * fit.c1 / noise_floor)
    t_cut = min(max(t_cut, 1e-4), 0.05)

    def log_inv_w(t):
        if w.kind == "exp":
            return w.c / t
        return -np.log(w(t))

    def integrand(t):
        a = np.abs(eval_H_series(series, t))
        expo = 2.0 * np.log(np.maximum(a, 1e-300)) + log_inv_w(t)
        return np.where(a > 1e-300, np.exp(np.minimum(expo, 700.0)), 0.0) + 0j

    # sliver (0, t_cut): true integrand is bounded by the envelope ratio
    if w.kind == "exp":
        rate = w.c - 2.0 * fit.c2
        if rate >= 0:
            raise ArithmeticError(
                f"integrand unbounded near t=0: weight decay c={w.c:.4g} is "
                f"not slower than the series envelope 2*c2={2 * fit.c2:.4g}")
        sliver = fit.c1 ** 2 * math.exp(rate / t_cut) * t_cut
    else:
        inv_w_max = float(np.max(np.exp(np.minimum(log_inv_w(
            np.geomspace(1e-8, t_cut, 32)), 700.0))))
        sliver = (fit.c1 ** 2 * math.exp(-2.0 * fit.c2 / t_cut)
                  * inv_w_max * t_cut)

    grid = np.geomspace(t_cut, 1.0 - 1e-6, grid_points)
    gv = np.abs(integrand(grid))
    head = gv[:8]
    if np.all(np.diff(head) < 0) and head[0] > 100.0 * max(np.max(gv[8:]), 1.0):
        raise ArithmeticError(
            f"integrand grows without bound toward t={grid[0]:.3e} "
            f"(value {head[0]:.3e})")

    res = integrate_finite(integrand, t_cut, 1.0, max(tol, 1e-3 * sliver),
                           singular_ends=("a", "b"))
    require(res, f"weighted energy of H on ({t_cut:.3g}, 1)")
    return res.value.real, res.abs_error_estimate + sliver
