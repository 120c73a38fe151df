"""Lacunary sine series with a deep zero at the origin.

Everything is built from the meromorphic function
``h(z) = e^{i pi z} sin(pi z) / (F(z) F(-z))`` with ``F(w) = cos(pi sqrt(w)/2)``,
entire in w (cos is even).  Its removable singularities at +-(2k+1)^2 carry
the coefficients h((2k+1)^2) = (-1)^(k+1) 4(2k+1)/cosh(pi(2k+1)/2) of the
odd-square sine series H, ~ t^{-3/2} e^{-pi/(16t)} near 0, 1/2 and 1, a theta
sum's term.  One odd kernel, sin(pi u)/(F(u) F(-u)), Re u >= 0, evaluates the
singularities: eval_h folds h onto it, and eval_H_integral integrates it.
"""

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .quadrature import (QuadratureResult, fourier_coefficients,
                         integrate_finite, require)

__all__ = ["RATE", "ENVELOPE_GRID", "eval_h", "DeepZeroSeries",
           "eval_H_series", "eval_H_integral", "DecayFit", "decay_fit",
           "membership_check"]

RATE = math.pi / 16   # H's rate at the deep zero: |H| ~ t^-3/2 e^{-RATE/t}
_SINE_BLOCK = 1 << 17      # entries of one eval_H_series block, points x terms
# decay-fit grid, uniform in 1/t, of the companion weight and the deep-zero fit
ENVELOPE_GRID = tuple(1.0 / np.linspace(5.0, 50.0, 20))
_DUAL_T = 0.1          # largest t at which membership_check reads theta sums
# the theta sum's z = a + bi (b > |a|, a + b odd) whose terms reach 2^-60 of
# the leading one, z = i, at t = 1/4: 43 of them, a and -a paired
_A, _B, _SIGN = np.array([(a, b, (-1) ** a * (2 - (a == 0)))
    for b in range(1, 32) for a in range(b) if (a + b) % 2 and math.hypot(a, b)
    * math.exp(-4.0 * RATE * (b * b - a * a - 1)) > 2 ** -60]).T
# those whose terms reach 2^-60 at t = _DUAL_T, the rows _theta_dual reads: 15
_DA, _DB, _DSIGN = np.array([_A, _B, _SIGN])[:, np.hypot(_A, _B) * np.exp(
    -(RATE / _DUAL_T) * (_B * _B - _A * _A - 1)) > 2 ** -60]


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
    stays float64, and h(u) = e^{i pi u} times it.  With r = sqrt(u), k the
    odd integer nearest Re r, d = u - k^2 = (r - k)(r + k) and
    s = (-1)^((k-1)/2), sin(pi u) = -sin(pi d) and cos(pi r/2) =
    -s sin(pi (r - k)/2), so the quotient is
    s 2(r + k) sinc(d) / sinc(d/(2(r + k))) / cosh(pi r/2): neither sinc
    is 0/0 at the removable singularities u = k^2, and the second is at
    least 2/pi.  1/cosh(x) = 2e^{-x}/(1 + e^{-2x}) never overflows, and it
    underflows to 0 from |u| of about 2e5 on, as h does."""
    u = np.asarray(u, dtype=complex if np.iscomplexobj(u) else float)
    r = np.sqrt(u)
    k = 2.0 * np.round(0.5 * (r.real - 1.0)) + 1.0
    d, rk = u - k * k, 2.0 * (r + k)
    e = np.exp(-0.5 * np.pi * r)
    sech = 2.0 * e / (1.0 + _cmul(e, e))
    # s is 1 for k = 1 mod 4 and -1 for k = 3 mod 4
    return (2.0 - k % 4) * _cmul(_cmul(rk, np.sinc(d) / np.sinc(d / rk)), sech)


def eval_h(z):
    """h(z) = s e^{i pi z} K(s z), with s the sign of Re z and K the odd
    kernel _sin_over_FF, which alone evaluates the removable singularities
    at +-(2m+1)^2 (in closed form, through sinc)."""
    z = np.asarray(z, dtype=np.complex128)
    neg = z.real < 0
    out = _cmul(np.exp(1j * np.pi * z), _sin_over_FF(np.where(neg, -z, z)))
    return np.where(neg, -out, out)[()]


@dataclass(frozen=True)
class DeepZeroSeries:
    """Odd-square sine series 2i * sum c_k sin(2 pi (2k+1)^2 t), k = k_min..M.
    Its terms, the bound on those past M (|c_k| <= 8n e^{-pi n/2}, n = 2k+1),
    how many lead the c_k that are +-0 (terms; k >= 226, as cosh overflows),
    its floor (128 eps sum |c_k|, the smallest |H| its row sum resolves) and
    dual follow from (k_min, M), which alone equality and hash compare.
    dual: k_min = 0 and a truncation bound at most the floor (M >= 11), so
    the series is the infinite H to rounding, |H| ~ t^-3/2 e^{-RATE/t} near
    0, and its theta sum holds; any other series has |H| ~ t near 0."""

    k_min: int = 0
    M: int = 20
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    freqs: np.ndarray = field(init=False, repr=False, compare=False)
    terms: int = field(init=False, repr=False, compare=False)
    truncation_bound: float = field(init=False, repr=False, compare=False)
    floor: float = field(init=False, repr=False, compare=False)
    dual: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M < self.k_min:
            raise ValueError("M must be >= k_min")
        put = functools.partial(object.__setattr__, self)
        n = 2.0 * np.arange(self.k_min, self.M + 1) + 1.0
        with np.errstate(over="ignore"):   # c_k > 0 for odd k, n = 3 mod 4
            c = np.where(n % 4 == 3, 4.0, -4.0) * n / np.cosh(0.5 * np.pi * n)
        put("coeffs", c)
        put("freqs", n ** 2)
        put("terms", int(np.count_nonzero(c)))
        n = 2.0 * np.arange(self.M + 1, self.M + 400) + 1.0
        put("truncation_bound",
            float(np.sum(2.0 * (8.0 * n * np.exp(-0.5 * np.pi * n)))))
        put("floor", 128 * 2.0 ** -52 * float(np.sum(np.abs(self.coeffs))))
        put("dual", self.k_min == 0 and self.truncation_bound <= self.floor)

    @classmethod
    def build(cls, k_min=0, M=20):
        return cls(k_min, M)


def eval_H_series(series, t):
    """Series value at t (purely imaginary for real t); periodic, period 1.
    Each point's series.terms leading terms (not +-0) are summed along its
    own row, in blocks of 2^17 entries, so no other point moves its value."""
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.empty(t.size, dtype=np.float64)
    freqs, coeffs = series.freqs[:series.terms], series.coeffs[:series.terms]
    rows = _SINE_BLOCK // max(1, freqs.size)
    for lo in range(0, t.size, rows):
        ph = np.multiply.outer(2.0 * np.pi * t[lo:lo + rows], freqs)
        np.sin(ph, out=ph)
        ph *= coeffs
        ph.sum(axis=1, out=out[lo:lo + rows])
    vals = 2j * out
    return vals[0] if scalar else vals


def _h_abs_tail(X):
    # int over |x| > X of the coefficient-scale envelope 8(sqrt x + 2) e^{-pi sqrt x/2}
    a = 0.5 * math.pi
    R = math.sqrt(X)
    poly = (R * R / a + 2 * R / a ** 2 + 2 / a ** 3) + 2 * (R / a + 1 / a ** 2)
    return 2.0 * 16.0 * math.exp(-a * R) * poly


@functools.lru_cache(maxsize=8)
def _h_cut(tol):
    """The smallest integer X from 200 up with _h_abs_tail(X) <= tol/2, by
    one bisection: the tail falls strictly in X (its derivative in R = sqrt X
    is -e^{-pi R/2} (R^2 + 2R) times a positive constant) to 0.0 below 2^20."""
    return float(bisect_left(range(200, 1 << 20), True,
                             key=lambda X: _h_abs_tail(X) <= 0.5 * tol) + 200)


def eval_H_integral(t, tol=1e-8):
    """Fourier-integral route for the series values at t in [0, 1].

    Minus the integral of e^{-2 pi i t x} h(x) over [-X, X] (the transform
    of h is supported in (0,1) and equals minus the sine series in the
    orientation fixed by eval_H_series).  h(-x) = -conj h(x) folds it onto
    the half-line: -2i times the real integral of sin(pi (1 - 2t) x) K(x)
    over [0, X], K(x) = sin(pi x)/(F(x) F(-x)), which is minus the
    imaginary part of K's Fourier coefficient at nu = 1/2 - t.  Its seed
    panels are each half a period of K's sin(pi x), halved on [0, 20],
    where |K| is largest: every t shares them, and the quadrature keeps K
    there, so a call samples only the panels it splits; a t off [0, 1]
    raises ValueError before K is sampled.  X is the smallest integer from
    200 up whose analytic |h| tail beyond X is at most tol/2; the
    quadrature gets the rest of tol, and converged means that the total
    error, tail included, is within tol."""
    if not (tol > 0 and 0.0 <= t <= 1.0):
        raise ValueError(f"need tol > 0 and t in [0, 1], got {tol}, {t}")
    t, X = float(t), _h_cut(tol)
    tail = _h_abs_tail(X)
    res = fourier_coefficients(_sin_over_FF, np.array([0.5 - t]),
                               0.5 * (tol - tail), (0.0, 20.0, X),
                               (40, int(X) - 20))
    error = 2.0 * float(res.abs_error_estimate[0]) + tail
    return QuadratureResult(2j * res.value[0].imag, error, res.evaluations,
                            error <= tol)


@dataclass
class DecayFit:
    c1: float
    c2: float
    correlation: float
    abs_H: np.ndarray = field(repr=False, compare=False)   # |H| on the grid


def decay_fit(series, t_grid, abscissa="inv_t"):
    """Least-squares line of log|H(t)| against 1/t (abscissa "inv_t") or
    1/(1-t) near t=1 ("inv_1mt"), by centered sums over |H| > series.floor."""
    if abscissa not in ("inv_t", "inv_1mt"):
        raise ValueError(f"abscissa {abscissa!r} is not 'inv_t' or 'inv_1mt'")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size < 8:
        raise ValueError("need at least 8 grid points")
    vals = np.abs(eval_H_series(series, t_grid))
    keep = vals > series.floor
    x = 1.0 / (t_grid if abscissa == "inv_t" else 1.0 - t_grid)[keep]
    if x.size < 4 or not x.min() < x.max():
        raise ValueError("fewer than 4 usable points, or all at one t: no line")
    y = np.log(vals[keep])
    dx, dy = x - x.mean(), y - y.mean()
    sxx, sxy, syy = np.sum(dx * dx), np.sum(dx * dy), np.sum(dy * dy)
    slope, corr = sxy / sxx, np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    return DecayFit(float(np.exp(y.mean() - slope * x.mean())), float(-slope),
                    float(corr), vals)


def _theta_dual(t):
    """(L, S) with H(t) = -i e^{-L} S for a dual series and 0 < t <= _DUAL_T,
    from H(t)/i = -1/2 t^{-3/2} sum (-1)^a (-iz) e^{pi z^2/(16t)} over
    z = a + bi, b > |a|, a + b odd: a numerical finding, to 76-80 digits,
    not yet proven.  With x = RATE/t, e^{-L} = e^{-x} t^{-3/2}/2 is the
    term z = i, and S = 1 + O(e^{-2x}) sums the terms relative to it,
    so nothing underflows."""
    x = RATE / t[:, None]
    ph = 2.0 * _DA * _DB * x
    S = _DSIGN * np.exp(-(_DB * _DB - _DA * _DA - 1.0) * x) * (
        _DB * np.cos(ph) + _DA * np.sin(ph))
    return x[:, 0] + 1.5 * np.log(t) + math.log(2.0), S.sum(axis=1)


@functools.cache
def _sliver_pairs():
    """_sliver's (m, f), which do not depend on c, as read-only arrays."""
    z2 = (_B - 1j * _A) ** 2
    q = _SIGN * (_B - 1j * _A) * np.exp(-4.0 * RATE * z2.real) * (
        np.cos(4.0 * RATE * z2.imag) - 1j * np.sin(4.0 * RATE * z2.imag))
    j, k = np.nonzero(np.triu(abs(np.outer(q, q)) > 2 ** -60 * abs(q[0]) ** 2))
    m = z2[j] + np.stack([z2[k], z2[k].conj()])
    f = q[j] * np.stack([q[k], q[k].conj()]) * (2.0 - (j == k)) / 8
    m.flags.writeable = f.flags.writeable = False
    return m, f


def _sliver(c):
    """(value, error) of int_0^{1/4} |H|^2 e^{c/t} dt, 0 < c < 2 RATE.  As
    |H|^2 = t^-3 (sum Re[q e^{(4 - 1/t) RATE z^2}])^2/4 with q = sign z
    e^{-4 RATE z^2}, z = b - ai, a pair j <= k whose |q_j q_k| reaches 2^-60
    of the leading pair's adds e^{4c} Re[f (4/b + 1/b^2)], with
    m = z_j^2 + (z_k^2 or its conjugate), f = q_j (q_k or its conjugate)/8,
    twice for j < k, and b = RATE m - c + (pi - math.pi) Re m/16, whose
    last term keeps b's digits as c nears 2 RATE.  The error is 8 eps
    sum |term|.  The pair table is built once per process, read-only."""
    m, f = _sliver_pairs()
    inv = 1.0 / ((RATE * m - c) + m.real * (1.2246467991473532e-16 / 16))
    t = f * (4.0 * inv + inv * inv) * math.exp(4.0 * c)
    return float(t.real.sum()), 2.0 ** -49 * float(np.abs(t).sum())


def membership_check(series, w, tol=1e-8):
    """(value, error) of the weighted energy  int_0^1 |H(t)|^2 / w(t) dt,
    with divergence refused from w's rate before any quadrature.

    A dual series (|H|^2 ~ t^-3 e^{-2 RATE/t}/4 near 0) refuses exp(-c/t)
    for c >= 2 RATE, and its theta sum must meet the series at _DUAL_T
    within its floor and truncation bound; any other series refuses c > 0.
    As |H(t)| = |H(1/2 - t)| = |H(t - 1/2)|, the integral runs over (0, 1/4]
    with 1/w summed at t, 1/2 - t, 1/2 + t and 1 - t, on 32 panels cut at
    _DUAL_T and w's folded breakpoints: for c > 0 the term at t is _sliver's,
    for c = 0 |H| below _DUAL_T the theta sum's.  A miss, a sum's error of
    tol or more, or an unconverged rest raises ArithmeticError (CLI exit 3).
    """
    if (w.c >= 2.0 * RATE) if series.dual else (w.c > 0.0):
        raise ArithmeticError(f"weighted energy of H diverges at t=0 against "
                              f"exp(-{w.c:.4g}/t) for {series}")
    if series.dual:
        L, S = _theta_dual(np.array([_DUAL_T]))
        gap = abs(eval_H_series(series, _DUAL_T).imag + np.exp(-L[0]) * S[0])
        if not gap <= series.floor + series.truncation_bound:
            raise ArithmeticError(f"theta sum and series differ by "
                                  f"{gap:.3e} at t={_DUAL_T}")
    sliver = w.c > 0.0             # then the term at t is _sliver's
    own, own_err = _sliver(w.c) if sliver else (0.0, 0.0)
    if not own_err < tol:
        raise ArithmeticError(f"the sliver's sum errs by {own_err:.2e}")

    def integrand(t):
        near = (t <= _DUAL_T) & (series.dual and not sliver)
        log_abs = np.empty_like(t)
        if near.any():
            L, S = _theta_dual(t[near])
            log_abs[near] = np.log(np.abs(S)) - L
        with np.errstate(divide="ignore"):
            log_abs[~near] = np.log(np.abs(eval_H_series(series, t[~near])))
        return sum(np.exp(2.0 * log_abs - w.log(s))
                   for s in (t, 0.5 - t, 0.5 + t, 1.0 - t)[sliver:])

    folded = (min(b, 1.0 - b, abs(0.5 - b)) for b in w.breakpoints)
    res = integrate_finite(integrand, 0.0, 0.25, tol - own_err, points=(
        _DUAL_T, *folded, *np.linspace(0.0, 0.25, 33)))
    require(res, "weighted energy of H on (0, 1)")
    return own + res.value.real, res.abs_error_estimate + own_err
