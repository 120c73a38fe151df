"""Slit-plane Blaschke-type annihilator: the product vanishing on a sparse
positive frequency set, its boundary values, the jump across the slit, the
Cauchy representation, and the convolution identities used downstream.

The product is truncated to the K smallest stored frequencies; the
truncated object is exact for that finite set (all identities hold for it
by the same residue argument), and the dropped-factor log bound is carried
separately.  On the slit every dropped factor is unimodular, so boundary
moduli carry no truncation error at all.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._accel import boundary_product, interior_log_product
from .frequency_sets import FrequencySet, sqrt_sum_diagnostic
from .quadrature import (QuadratureResult, fourier_coefficients,
                         integrate_left_halfline, oscillatory_integral, require)

__all__ = [
    "BlaschkeAnnihilator",
    "JumpFunction",
    "eval_phi",
    "eval_phi_boundary",
    "eval_g",
    "g_l1_norm",
    "gamma_vanishing_residual",
    "cauchy_identity_residual",
    "compute_G",
    "convolution_identity_residual",
]


@dataclass(frozen=True)
class BlaschkeAnnihilator:
    """Truncated product z^2/(1+sqrt z)^8 * prod (1-sqrt(z/g))/(1+sqrt(z/g))."""

    gamma: FrequencySet
    K: int

    def __init__(self, gamma, K=None):
        if len(gamma) > 0:
            report = sqrt_sum_diagnostic(gamma)
            if report.verdict == "diverges":
                raise ValueError(
                    "frequency set has divergent sqrt-sum; product would not converge")
        if K is None:
            K = len(gamma)
        if not 0 <= K <= len(gamma):
            raise ValueError(f"K must lie in [0, {len(gamma)}]")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "K", int(K))

    @property
    def retained(self):
        return self.gamma.array[: self.K]

    @property
    def dropped_sqrt_sum(self):
        arr = self.gamma.array[self.K:]
        return float(np.sum(1.0 / np.sqrt(arr))) if arr.size else 0.0

    def tail_bound(self, z):
        """Bound on the dropped log-product: 2*sqrt|z| * sum over dropped
        gamma of gamma^(-1/2)."""
        return 2.0 * math.sqrt(abs(z)) * self.dropped_sqrt_sum


@dataclass(frozen=True)
class JumpFunction:
    """g(t) = 2i*Im phi_+(t) for t < 0, zero for t >= 0."""

    annihilator: BlaschkeAnnihilator

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        out = np.zeros(t.shape, dtype=np.complex128)
        neg = t < 0
        if neg.any():
            pp = boundary_product(-t[neg], self.annihilator.retained)
            out[neg] = 2j * pp.imag
        return out

    def envelope(self, t):
        """|g| bound 2 t^2/(1+|t|)^4 (absolute-value reading of the slit modulus)."""
        t = np.asarray(t, dtype=np.float64)
        return np.where(t <= 0, 2.0 * t * t / (1.0 + np.abs(t)) ** 4, 0.0)


def eval_phi(ann, z):
    """phi at points of the slit plane.

    Returns (values, multiplicative_error_bound); the bound is
    exp(tail) - 1 for the dropped-factor tail at the largest |z| queried.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if np.any((z.imag == 0) & (z.real <= 0)):
        raise ValueError("phi is evaluated off the cut (-inf, 0]; "
                         "use eval_phi_boundary on the slit")
    sz = np.sqrt(z)
    pref = z * z / (1.0 + sz) ** 8
    logs = interior_log_product(z, ann.retained) if ann.K else np.zeros_like(z)
    vals = pref * np.exp(logs)
    vals[np.isneginf(logs.real)] = 0.0
    bound = math.expm1(ann.tail_bound(float(np.max(np.abs(z)))))
    if z.size == 1:
        return vals[0], bound
    return vals, bound


def eval_phi_boundary(ann, t):
    """Upper boundary value phi_+ at t <= 0.

    The dropped factors are unimodular on the slit, so the modulus is
    exact; only the phase carries the tail bound.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(t > 0):
        raise ValueError("boundary values live on t <= 0")
    vals = boundary_product(-t, ann.retained)
    if t.size == 1:
        return vals[0]
    return vals


def eval_g(j, t):
    """Jump across the slit; zero on [0, inf)."""
    t = np.asarray(t, dtype=np.float64)
    vals = j(t)
    if t.ndim == 0:
        return vals[0]
    return vals


def g_l1_norm(j, tol=1e-8):
    res = integrate_left_halfline(lambda u: np.abs(j(u)) + 0j, 2.0, tol)
    require(res, "L1 norm of g")
    return res.value.real, res.abs_error_estimate


def gamma_vanishing_residual(j, gamma_value, tol=1e-6):
    """|Cauchy transform of g at gamma_value|; zero for retained frequencies.

    Returns (residual, error_estimate).
    """
    retained = j.annihilator.retained
    if retained.size == 0:
        raise ValueError("empty product has no vanishing frequencies")
    res = integrate_left_halfline(lambda u: j(u) / (u - gamma_value), 2.0, tol)
    require(res, f"Cauchy transform of g at {gamma_value}")
    return abs(res.value), res.abs_error_estimate


def cauchy_identity_residual(ann, j, z, tol=1e-6):
    """Relative gap between phi(z) and (1/2pi i) * int g(t)/(t-z) dt."""
    z = complex(z)
    if abs(z) > 1e3:
        raise ValueError("identity is checked at moderate |z| (<= 1e3)")
    phi_val, _ = eval_phi(ann, z)
    res = integrate_left_halfline(lambda u: j(u) / (u - z), 2.0, tol)
    require(res, f"Cauchy integral of g at z={z}")
    cauchy = res.value / (2j * np.pi)
    floor = 1e-14
    return abs(phi_val - cauchy) / (abs(phi_val) + floor)


def _g_abs_tail(T):
    # closed form for int_T^inf 2 t^2/(1+t)^4 dt
    a = 1.0 + T
    return 2.0 * (1.0 / a - 1.0 / a ** 2 + 1.0 / (3.0 * a ** 3))


def compute_G(j, s, tol=1e-6):
    """Fourier transform of the jump: int_{-inf}^0 e^{2 pi i s u} g(u) du,
    for a scalar s or every s of a 1-d array.

    Each branch is one batched quadrature (fourier_coefficients at the
    frequencies -s) that samples g once for all of its s.  Small |s|: direct
    integral on [-T, 0] with the algebraic envelope tail added to the error.
    Larger |s|: moderate T plus two integration-by-parts boundary terms at
    u = -T, with the remainder estimated from a finite-difference second
    derivative of g.  converged is per s: the total error, tail or
    remainder included, is within tol.  A scalar s gives scalar fields.
    """
    s_in = np.asarray(s, dtype=np.float64)
    s = np.atleast_1d(s_in)
    value = np.empty(s.size, dtype=np.complex128)
    error = np.empty(s.size)
    evals = 0
    small = np.abs(s) < 0.05
    if small.any():
        T = 4.0e4
        res = fourier_coefficients(j, -s[small], tol, (-T, 0.0))
        value[small] = res.value
        error[small] = res.abs_error_estimate + _g_abs_tail(T)
        evals += res.evaluations
    if not small.all():
        T = 200.0
        main = fourier_coefficients(j, -s[~small], tol, (-T, 0.0))
        c = 2j * np.pi * s[~small]
        step = 1e-3
        g0, gm, gp = j(np.array([-T, -T - step, -T + step]))
        g1 = (gp - gm) / (2.0 * step)
        g2 = (gp - 2.0 * g0 + gm) / step ** 2
        ect = np.exp(-c * T)
        value[~small] = main.value + ect * g0 / c - ect * g1 / c ** 2
        remainder = abs(g2) * T / 3.0 / np.abs(c) ** 2
        error[~small] = main.abs_error_estimate + remainder
        evals += main.evaluations + 3
    if s_in.ndim == 0:
        return QuadratureResult(complex(value[0]), float(error[0]), evals,
                                bool(error[0] <= tol))
    return QuadratureResult(value, error, evals, error <= tol)


def _exp_diff_quotient(u, q, t):
    """(e^{2 pi i u t} - e^{2 pi i q t})/(u - q), stable through u = q."""
    b = 2.0 * np.pi * (u - q) * t
    # e^{ib} - 1 = -2 sin^2(b/2) + i sin(b)  (exact, no cancellation)
    num = (-2.0 * np.sin(b / 2.0) ** 2 + 1j * np.sin(b)) * np.exp(2j * np.pi * q * t)
    d = u - q
    safe = np.abs(d) > 1e-300
    out = np.where(safe, num / np.where(safe, d, 1.0),
                   2j * np.pi * t * np.exp(2j * np.pi * q * t))
    return out


def convolution_identity_residual(j, q, t, tol=1e-3):
    """Pairwise agreement of the convolution (e_q * G_+)(t) routes.

    Routes: direct convolution against computed G; the difference-quotient
    half-line form; and, for q among the retained frequencies, the reduced
    form that uses the vanishing of the Cauchy transform on the set.
    The direct route gets G from one compute_G call per round of its outer
    quadrature, and carries G's largest error (times t) in its error
    estimate.  A route whose quadrature does not converge raises
    ArithmeticError naming it.  Returns a dict with the route values, their
    error estimates and the max pairwise discrepancy.
    """
    if not 0 < t <= 2:
        raise ValueError("t must lie in (0, 2]")
    q = float(q)

    g_err = 0.0

    def g_of(s_arr):
        nonlocal g_err
        res = compute_G(j, s_arr, tol * 0.05)
        g_err = max(g_err, float(res.abs_error_estimate.max()))
        return res.value

    direct_res = oscillatory_integral(
        lambda s: np.exp(2j * np.pi * q * (t - s)) * g_of(s), q, 0.0, t,
        tol * 0.5, max_evals=30_000)
    require(direct_res, "convolution route direct")
    direct = direct_res.value
    direct_err = direct_res.abs_error_estimate + g_err * t

    diff_res = integrate_left_halfline(
        lambda u: _exp_diff_quotient(u, q, t) * j(u), 2.0, tol * 0.1)
    require(diff_res, "convolution route difference_form")
    difference_form = diff_res.value / (2j * np.pi)

    values = {"direct": direct, "difference_form": difference_form}
    errors = {"direct": direct_err,
              "difference_form": diff_res.abs_error_estimate}
    if np.any(np.isclose(j.annihilator.retained, q)):
        red_res = integrate_left_halfline(
            lambda u: np.exp(2j * np.pi * u * t) / (u - q) * j(u), 2.0, tol * 0.1)
        require(red_res, "convolution route reduced")
        values["reduced"] = red_res.value / (2j * np.pi)
        errors["reduced"] = red_res.abs_error_estimate

    keys = list(values)
    max_disc = max(abs(values[a] - values[b])
                   for i, a in enumerate(keys) for b in keys[i + 1:])
    return {"values": values, "error_estimates": errors,
            "max_discrepancy": max_disc}
