"""Lacunary sine series with a deep zero at the origin.

Everything is built from the meromorphic function
``h(z) = e^{i pi z} sin(pi z) / (F(z) F(-z))`` with ``F(w) = cos(pi sqrt(w)/2)``,
an entire function of w: cos is even, so which root sqrt(w) takes does not
enter, and eval_F evaluates the cosine alone.  The removable singularities
of h at +-(2k+1)^2 carry the series coefficients, whose values have the
closed form h((2k+1)^2) = (-1)^(k+1) 4(2k+1)/cosh(pi(2k+1)/2); the
resulting odd-square sine series decays like exp(-c/t) near 0 and 1.
One odd kernel, sin(pi u)/(F(u) F(-u)) for Re u >= 0, evaluates those
singularities: eval_h folds h onto it, and eval_H_integral integrates it.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._accel import sine_series
from .quadrature import QuadratureResult, integrate_finite, require

__all__ = ["SINGULARITY_DELTA", "eval_F", "eval_h",
           "eval_h_raw", "series_coefficients", "DeepZeroSeries",
           "eval_H_series", "eval_H_integral", "DecayFit", "decay_fit",
           "membership_check"]

SINGULARITY_DELTA = 1e-4   # radius of the local-quotient rule
_GROWTH_GRID = 256         # samples of membership_check's blow-up test


def eval_F(w):
    """cos(pi sqrt(w)/2) as an entire function of w."""
    w = np.asarray(w, dtype=np.complex128)
    # far out on the negative axis cosh(pi sqrt|w|/2) overflows to inf, its
    # correct IEEE limit: the quotients that divide by it underflow to +-0
    with np.errstate(over="ignore"):
        return np.cos(0.5 * np.pi * np.sqrt(w))


def eval_h_raw(z):
    """The defining quotient, no singularity handling (a test oracle)."""
    z = np.asarray(z, dtype=np.complex128)
    return np.exp(1j * np.pi * z) * np.sin(np.pi * z) / (eval_F(z) * eval_F(-z))


def _cmul(a, b):
    """Product in real arithmetic.  numpy's complex array multiply may fuse
    multiply and add and then rounds differently from its scalar multiply;
    this rounds as the scalar one does, so a point's value is the same
    alone or in a batch.  Real operands multiply as they are."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a * b
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag
                                                       + a.imag * b.real)


def _sin_over_FF(u):
    """sin(pi u)/(F(u) F(-u)) for Re u >= 0, where F(-u) is
    cosh(pi sqrt(u)/2) (i sqrt(u) is a root of -u): real for real u, which
    stays float64, and h(u) = e^{i pi u} times it.  The removable
    singularities are the odd squares k^2, k = round(Re sqrt u); within
    SINGULARITY_DELTA of one the first-order local quotient rule gives
    4k (-1)^((k-1)/2) (1 + (u - k^2)/(4k^2)) / cosh(pi sqrt(u)/2).
    Where the cosh overflows, from |u| of about 2e5 on, the value is 0, as
    h underflows there."""
    u = np.asarray(u, dtype=complex if np.iscomplexobj(u) else float)
    r = np.sqrt(u)
    with np.errstate(over="ignore"):
        ch = np.cosh(0.5 * np.pi * r)
    # a real quotient by inf rounds to +-0, but the complex product with
    # inf + 0j would form inf * 0 = nan
    huge = np.isinf(ch) if np.iscomplexobj(ch) else None
    den = _cmul(np.cos(0.5 * np.pi * r),
                ch if huge is None else np.where(huge, 1.0, ch))
    out = np.asarray(np.sin(np.pi * u) / den)
    k = np.round(r.real)
    near = (k % 2 == 1) & (np.abs(u - k * k) < SINGULARITY_DELTA)
    k = k[near]
    out[near] = (np.where(k % 4 == 1, 4.0, -4.0) * k
                 * (1.0 + (u[near] - k * k) / (4.0 * k * k)) / ch[near])
    if huge is not None:
        out[huge] = 0.0
    return out


def eval_h(z):
    """h(z) = s e^{i pi z} K(s z), with s the sign of Re z and K the odd
    kernel _sin_over_FF, which alone evaluates the removable singularities
    at +-(2m+1)^2 (by the first-order local quotient rule)."""
    z = np.asarray(z, dtype=np.complex128)
    neg = z.real < 0
    out = _cmul(np.exp(1j * np.pi * z), _sin_over_FF(np.where(neg, -z, z)))
    return np.where(neg, -out, out)[()]


def series_coefficients(k_min, M):
    """[h((2k+1)^2)] for k = k_min..M: (-1)^(k+1) 4(2k+1)/cosh(pi(2k+1)/2).
    From k = 226 on, cosh overflows to inf and the coefficient is +-0."""
    if M < k_min:
        raise ValueError("M must be >= k_min")
    k = np.arange(k_min, M + 1)
    n = 2.0 * k + 1.0
    with np.errstate(over="ignore"):
        return np.where(k % 2, 4.0, -4.0) * n / np.cosh(0.5 * np.pi * n)


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


def eval_H_integral(t, tol=1e-8):
    """Fourier-integral route for the series values.

    Minus the integral of e^{-2 pi i t x} h(x) over [-X, X] (the transform
    of h is supported in (0,1) and equals minus the sine series in the
    orientation fixed by eval_H_series).  h(-x) = -conj h(x) folds it onto
    the half-line: -2i times the real integral of
    sin(pi (1 - 2t) x) sin(pi x)/(F(x) F(-x)) over [0, X].  X is the
    smallest integer from 200 up whose analytic |h| tail beyond X is at most
    tol/2; the quadrature gets the rest of tol, and converged means that the
    total error, tail included, is within tol.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    t = float(t)
    X = 200.0
    while _h_abs_tail(X) > 0.5 * tol:
        X += 1.0
    tail = _h_abs_tail(X)
    res = integrate_finite(
        lambda x: np.sin(np.pi * (1.0 - 2.0 * t) * x) * _sin_over_FF(x),
        0.0, X, 0.5 * (tol - tail), omega=abs(t) + 1.0)
    error = 2.0 * res.abs_error_estimate + tail
    return QuadratureResult(-2j * res.value.real, error, res.evaluations,
                            error <= tol)


@dataclass
class DecayFit:
    c1: float
    c2: float
    correlation: float
    n_used: int
    abscissa: str = "inv_t"


def decay_fit(series, t_grid, abscissa="inv_t"):
    """Least-squares line of log|H(t)| against 1/t (abscissa "inv_t") or
    1/(1-t) near t=1 ("inv_1mt")."""
    if abscissa not in ("inv_t", "inv_1mt"):
        raise ValueError(f"abscissa {abscissa!r} is not 'inv_t' or 'inv_1mt'")
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


def membership_check(series, w, tol=1e-8):
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

    grid = np.geomspace(t_cut, 1.0 - 1e-6, _GROWTH_GRID)
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
