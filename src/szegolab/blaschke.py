"""Slit-plane Blaschke-type annihilator: the product vanishing on a sparse
positive frequency set, its boundary values, the jump across the slit, the
Cauchy representation, and the convolution identities used downstream.

The product is truncated to the K smallest stored frequencies; the
truncated object is exact for that finite set (all identities hold for it
by the same residue argument), and the dropped-factor log bound lives in
BlaschkeAnnihilator.tail_bound alone.  On the slit every dropped factor is
unimodular, so boundary moduli carry no truncation error at all.
"""

import math
from dataclasses import dataclass

import numpy as np

from .frequency_sets import FrequencySet, sqrt_sum_diagnostic
from .quadrature import (QuadratureResult, decades, fourier_coefficients,
                         integrate_finite, integrate_left_halfline, require)

__all__ = ["BlaschkeAnnihilator", "JumpFunction", "eval_phi",
           "eval_phi_boundary", "g_l1_norm", "gamma_vanishing_residual",
           "cauchy_identity_residual", "compute_G",
           "convolution_identity_residual"]

_PHASE_BLOCK = 1 << 17        # entries of one (points x gammas) arctan block


@dataclass(frozen=True)
class BlaschkeAnnihilator:
    """Truncated product z^2/(1+sqrt z)^8 * prod (1-sqrt(z/g))/(1+sqrt(z/g))."""

    gamma: FrequencySet
    K: int | None = None

    def __post_init__(self):
        n = len(self.gamma)
        if n > 0 and sqrt_sum_diagnostic(self.gamma).verdict == "diverges":
            raise ValueError(
                "frequency set has divergent sqrt-sum; product would not converge")
        K = n if self.K is None else self.K
        if not 0 <= K <= n:
            raise ValueError(f"K must lie in [0, {n}]")
        object.__setattr__(self, "K", int(K))

    @property
    def retained(self):
        return self.gamma.array[: self.K]

    def tail_bound(self, z):
        """Bound on the dropped log-product: 2*sqrt|z| * sum over dropped
        gamma of gamma^(-1/2)."""
        dropped = float(np.sum(1.0 / np.sqrt(self.gamma.array[self.K:])))
        return 2.0 * math.sqrt(abs(z)) * dropped


def boundary_product(tau, gammas):
    """phi_+ on the slit: tau^2/(1+i sqrt(tau))^8 * prod (1-i r)/(1+i r).

    tau = |t| for t <= 0; the prefactor is the limit of z^2/(1+sqrt z)^8
    from the upper side, where z^2 -> t^2 > 0.  It is evaluated in phase
    form: (1+i sqrt(tau))^8 = (1+tau)^4 exp(8i arctan sqrt(tau)), and each
    factor, with r = sqrt(tau/g), is exp(-2i arctan r), so
    phi_+ = tau^2/(1+tau)^4 * exp(-i(8 arctan sqrt(tau) + 2 sum arctan r)):
    real arctangents, summed in blocks of points that stay in cache, and
    one complex exponential per point.
    """
    tau = np.ascontiguousarray(tau, dtype=np.float64)
    inv_root = 1.0 / np.sqrt(np.ascontiguousarray(gammas, dtype=np.float64))
    root = np.sqrt(tau)
    arcs = np.zeros(tau.size)
    rows = max(1, _PHASE_BLOCK // max(inv_root.size, 1))
    buf = np.empty((min(rows, tau.size), inv_root.size))
    for lo in range(0, tau.size, rows):
        block = buf[:min(rows, tau.size - lo)]
        np.multiply.outer(root[lo:lo + rows], inv_root, out=block)
        np.arctan(block, out=block)
        block.sum(axis=1, out=arcs[lo:lo + rows])
    phase = 8.0 * np.arctan(root) + 2.0 * arcs
    return _slit_modulus(tau) * np.exp(-1j * phase)


def _slit_modulus(tau, factor=1.0):
    """factor tau^2/(1+tau)^4, tau >= 0, as factor (1+tau)^-2 where
    (1+tau)^4 overflows; factor first, so 2 t t/(1+|t|)^4 keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        den = (1.0 + tau) ** 4
        return np.where(np.isinf(den), factor * (1.0 + tau) ** -2.0,
                        factor * tau * tau / den)


@dataclass(frozen=True)
class JumpFunction:
    """The jump g = phi_+ - phi_- = 2i*Im phi_+ across the slit, as the real
    g/i: 2*Im phi_+(t) for t < 0, 0 for t >= 0, as float64; g is i times it."""

    annihilator: BlaschkeAnnihilator

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        out = np.zeros(t.shape)
        neg = t < 0
        out[neg] = 2.0 * boundary_product(-t[neg],
                                          self.annihilator.retained).imag
        return out

    def envelope(self, t):
        """|g| bound 2 t^2/(1+|t|)^4 (absolute-value reading of the slit modulus)."""
        t = np.asarray(t, dtype=np.float64)
        return np.where(t <= 0, _slit_modulus(np.abs(t), 2.0), 0.0)


def eval_phi(ann, z):
    """phi of the retained product at points of the slit plane, in z's
    shape, from the sum of log((1-r)/(1+r)), r = sqrt(z/g), over the
    retained g; where some 1 - r is 0, phi is 0."""
    z = np.asarray(z, dtype=np.complex128)
    if np.any((z.imag == 0) & (z.real <= 0)):
        raise ValueError("phi is evaluated off the cut (-inf, 0]; "
                         "use eval_phi_boundary on the slit")
    pref = z * z / (1.0 + np.sqrt(z)) ** 8
    r = np.sqrt(z[..., None] / ann.retained)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log((1.0 - r) / (1.0 + r)).sum(axis=-1)
    return (pref * np.exp(logs))[()]


def eval_phi_boundary(ann, t):
    """Upper boundary value phi_+ at t <= 0.

    The dropped factors are unimodular on the slit, so the modulus is
    exact; only the phase carries the tail bound.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t > 0):
        raise ValueError("boundary values live on t <= 0")
    vals = boundary_product(-np.atleast_1d(t), ann.retained)
    return vals[0] if t.ndim == 0 else vals


def g_l1_norm(j, tol=1e-8):
    res = integrate_left_halfline(lambda u: np.abs(j(u)), tol)
    require(res, "L1 norm of g")
    return res.value.real, res.abs_error_estimate


def gamma_vanishing_residual(j, gamma_value, tol=1e-6):
    """|Cauchy transform of g at gamma_value|; zero for retained frequencies.

    Returns (residual, error_estimate).
    """
    retained = j.annihilator.retained
    if retained.size == 0:
        raise ValueError("empty product has no vanishing frequencies")
    res = integrate_left_halfline(lambda u: 1j * j(u) / (u - gamma_value),
                                  tol)
    require(res, f"Cauchy transform of g at {gamma_value}")
    return abs(res.value), res.abs_error_estimate


def cauchy_identity_residual(ann, j, z, tol=1e-6):
    """Relative gap between phi(z) and (1/2pi i) * int g(t)/(t-z) dt."""
    z = complex(z)
    if abs(z) > 1e3:
        raise ValueError("identity is checked at moderate |z| (<= 1e3)")
    phi_val = eval_phi(ann, z)
    res = integrate_left_halfline(lambda u: 1j * j(u) / (u - z), tol)
    require(res, f"Cauchy integral of g at z={z}")
    cauchy = res.value / (2j * np.pi)
    return abs(phi_val - cauchy) / (abs(phi_val) + 1e-14)


def _g_abs_tail(T):
    # closed form for int_T^inf 2 t^2/(1+t)^4 dt
    a = 1.0 + T
    return 2.0 * (1.0 / a - 1.0 / a ** 2 + 1.0 / (3.0 * a ** 3))


# compute_G's branches: |s| below _S_SMALL on [-_T_SMALL, 0], else [-200, 0]
_S_SMALL, _T_SMALL = 0.05, 4.0e4
_SMALL_SEED = ((-_T_SMALL, *(-d for d in decades(_T_SMALL, 0.0)), 0.0), 8)
_LARGE_SEED = ((-200.0, *(-d for d in decades(200.0, 0.0)), 0.0), 8)


def compute_G(j, s, tol=1e-6):
    """Fourier transform of the jump: int_{-inf}^0 e^{2 pi i s u} g(u) du
    at each s (an array, or one number); the fields are arrays over s.

    Each branch is i times one batched quadrature of the real j = g/i on
    [-T, 0] at the frequencies -s, seeded toward the jump's |u|^(5/2) edge
    whatever the call's s; the quadrature keeps j there (equal jumps share
    it) with its last result, so a call samples only the panels it splits,
    and a repeat at the same tol and bits of s reduces nothing.  Small |s|
    (below 0.05), T = 4e4: the envelope tail, 5e-5, is added to the error,
    and the quadrature is asked for what it leaves of tol, at most a
    thousandth of it.  Larger |s|, T = 200: two integration-by-parts terms
    at u = -T, with the remainder from a finite-difference g''.  converged
    is per s: the total error, tail or remainder included, is within tol;
    evaluations counts both rules' nodes, kept samples too."""
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    value = np.empty(s.size, dtype=np.complex128)
    error = np.empty(s.size)
    evals = 0
    small = np.abs(s) < _S_SMALL
    if small.any():
        tail = _g_abs_tail(_T_SMALL)
        rest = min(tol - tail if tail < tol else tol, 1e-3 * tail)
        res = fourier_coefficients(j, -s[small], rest, *_SMALL_SEED)
        value[small] = 1j * res.value
        error[small] = res.abs_error_estimate + tail
        evals += res.evaluations
    if not small.all():
        T = 200.0
        main = fourier_coefficients(j, -s[~small], tol, *_LARGE_SEED)
        c = 2j * np.pi * s[~small]
        step = 1e-3
        g0, gm, gp = 1j * j(np.array([-T, -T - step, -T + step]))
        g1 = (gp - gm) / (2.0 * step)
        g2 = (gp - 2.0 * g0 + gm) / step ** 2
        ect = np.exp(-c * T)
        value[~small] = 1j * main.value + ect * g0 / c - ect * g1 / c ** 2
        remainder = abs(g2) * T / 3.0 / np.abs(c) ** 2
        error[~small] = main.abs_error_estimate + remainder
        evals += main.evaluations + 3
    return QuadratureResult(value, error, evals, error <= tol)


def convolution_identity_residual(j, q, t, tol=1e-3):
    """Pairwise agreement of the convolution (e_q * G_+)(t) routes.

    Routes: direct convolution against computed G; the difference-quotient
    half-line form; and, for q among the retained frequencies, the reduced
    form that uses the vanishing of the Cauchy transform on the set.
    The direct route gets G from one compute_G call per round of its outer
    quadrature, and carries G's largest error (times t) in its error estimate.
    Its outer panels are seeded at q's quarter periods (at most 2000, a
    fifteenth of its 30,000 evaluations) and where G is not smooth, at points
    fixed whatever t (those past t dropped): decades(0.05, outer tol) from G's
    branch point 0.05 toward s = 0, and 0.02, 0.05 and 0.5.  Below 0.05, G
    turns a cycle per factor 3.5 in s, ever faster toward 0, so 0.02 keeps the
    panel under 0.05 within a cycle.  One G batch serves a check, two for q = 0
    past t = 0.3 (the second only above 0.05), and its nodes below 0.05 are one
    set for all t >= 0.05 at a tol while q's quarter periods keep off
    (0, 0.05), as for any |q| <= 2: compute_G reduces them once.  A route
    whose quadrature does not converge raises ArithmeticError naming it.
    Returns a dict with the route values, their error estimates and the max
    pairwise discrepancy.
    """
    if not 0 < t <= 2:
        raise ValueError("t must lie in (0, 2]")
    q, g_err = float(q), 0.0

    def g_of(s_arr):
        nonlocal g_err
        res = compute_G(j, s_arr, tol * 0.05)
        g_err = max(g_err, float(res.abs_error_estimate.max()))
        return res.value

    direct = integrate_finite(
        lambda s: np.exp(2j * np.pi * q * (t - s)) * g_of(s), 0.0, t,
        tol * 0.5, max_evals=30_000, points=np.concatenate([
            np.linspace(0.0, t, min(math.ceil(t * 4.0 * abs(q)), 2000) + 1),
            decades(_S_SMALL, tol * 0.5),
            [0.4 * _S_SMALL, _S_SMALL, 10.0 * _S_SMALL]]))
    require(direct, "convolution route direct")
    # (e^{2 pi i u t} - e^{2 pi i q t})/(u - q) = 2 pi i t sinc((u - q) t)
    # e^{i pi (u + q) t}, times g = i j
    diff = integrate_left_halfline(
        lambda u: -2.0 * np.pi * t * np.sinc((u - q) * t) * j(u)
        * np.exp(1j * np.pi * (u + q) * t), tol * 0.1)
    require(diff, "convolution route difference_form")

    values = {"direct": direct.value,
              "difference_form": diff.value / (2j * np.pi)}
    errors = {"direct": direct.abs_error_estimate + g_err * t,
              "difference_form": diff.abs_error_estimate}
    if np.any(np.isclose(j.annihilator.retained, q)):
        red_res = integrate_left_halfline(
            lambda u: np.exp(2j * np.pi * u * t) / (u - q) * (1j * j(u)),
            tol * 0.1)
        require(red_res, "convolution route reduced")
        values["reduced"] = red_res.value / (2j * np.pi)
        errors["reduced"] = red_res.abs_error_estimate

    keys = list(values)
    max_disc = max(abs(values[a] - values[b])
                   for i, a in enumerate(keys) for b in keys[i + 1:])
    return {"values": values, "error_estimates": errors,
            "max_discrepancy": max_disc}
