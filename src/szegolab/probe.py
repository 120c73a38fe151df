"""Completeness experiments in weighted L2: the distance from a target to
the span of exponentials e_k, k in a kept set, and residual curves in the
truncation order N, by the discrete Szegő recursion (Reichel, Ammar &
Gragg, Math. Comp. 1991; Simon, "Orthogonal Polynomials on the Unit
Circle", 2005).  Frequencies are shifted so the smallest (or 0) is 0, an
isometry, and become degrees <= N' in z = e^{2 pi i t}.

w dt is sampled once: masses mu_j = omega_j w(t_j) at z_j = e^{2 pi i t_j},
from a composite Gauss-Legendre rule split at w's breakpoints.  The monic
orthogonal polynomials obey a = <z Phi_n, Phi*_n> / ||Phi*_n||^2,
Phi_{n+1} = z Phi_n - a Phi*_n, Phi*_{n+1} = Phi*_n - conj(a) z Phi_n.  On
|z| = 1, Phi*_n = z^n conj(Phi_n), so one reflected vector over the nodes,
z^{-floor(n/2)} Phi_n, carries both, O(M) per degree.  The coefficients run
in one fixed buffer, where multiplying by z moves the start of Phi_n, and
give B[s, k], the coefficient of z^s in the orthonormal phi_k, for the rows
s a solve reads.  A step with ||Phi*_n||^2 zero or not finite raises.

With S = [0, N'] minus the kept set, p = sum c_k phi_k has ||p|| = ||c||
and p-hat_S = B_S c.  So a trig target has residual^2 =
f-hat_S^H (B_S B_S^H)^-1 f-hat_S, from one SVD of B_S (B B^H would square
its condition number), exactly 0 in the span.  An annihilator keeps its
exact inner products b, nonzero on T in the kept set: residual^2 =
||Phi||^2 - b_T^H R^-1 b_T, R = ((B' B'^H)^-1)_TT with B' on the rows S
and T.  No Gram matrix of exponentials and no regularization (floor) enter.

One recursion per rule at the largest N' serves a curve's nested kept
sets.  Of two rules of different sizes (_RULES) the larger gives the
values; residual_error is their disagreement, plus the norm's quadrature
error where the residual reads the norm.  cond_estimate is
sigma_max/sigma_min of the block solved.  A value that is not finite, or
a residual_error above the target norm, raises ArithmeticError.
"""

import functools
import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .deep_zero import membership_check
from .frequency_sets import complement_in_range
from .quadrature import _distinct, fourier_coefficients

__all__ = ["weight_fourier_coeff", "weight_fourier_coeffs", "gram_matrix",
           "TrigPolyTarget", "AnnihilatorTarget", "weighted_residual",
           "ProbeConfig", "ResidualCurve", "residual_curve"]

# (a, b, order): about a*N' + b nodes on [0, 1] in panels of `order` nodes,
# so a node sees under pi/a radians of e^{2 pi i N' t}, which such a panel
# integrates to rounding
_RULES = ((2.5, 20, 64), (3.0, 40, 80))


def weight_fourier_coeffs(w, K, tol=1e-12):
    """The weight's Fourier coefficients w-hat(0..K) as a fresh vector, in
    closed form for a constant weight, else from one batched quadrature
    split at w's breakpoints; a lag whose error exceeds tol raises."""
    K = int(K)
    if w.kind == "constant":
        what = np.zeros(K + 1, dtype=np.complex128)
        what[0] = w.v
        return what
    res = fourier_coefficients(w, np.arange(K + 1), tol, w.breakpoints)
    if not res.converged:
        k = int(np.argmax(res.abs_error_estimate))
        raise ArithmeticError(
            f"weight coefficient k={k} reached only "
            f"{res.abs_error_estimate[k]:.2e}")
    return res.value


def _at_lags(what, d):
    """w-hat at the integer lags d (an array), from what = w-hat(0..K):
    what[|d|], conjugated where d < 0 (w is real)."""
    d = np.asarray(d, dtype=np.int64)
    out = what[np.abs(d)]
    np.conjugate(out, out=out, where=d < 0)
    return out


def weight_fourier_coeff(w, k, tol=1e-12):
    """Fourier coefficient w-hat(k) of the weight, k of either sign."""
    k = int(k)
    return complex(_at_lags(weight_fourier_coeffs(w, abs(k), tol), [k])[0])


def _max_lag(freqs):
    """Largest lag between two of the int array freqs; 0 when empty."""
    return int(np.ptp(freqs)) if freqs.size else 0


def _gram(freqs, what):
    """G[m][n] = <e_n, e_m>_w = w-hat(freqs[m] - freqs[n]), freqs an int
    array of distinct frequencies."""
    if _distinct(freqs).size != freqs.size:
        raise ValueError("frequencies must be distinct")
    return _at_lags(what, freqs[:, None] - freqs[None, :])


def gram_matrix(freqs, w, tol=1e-12):
    """Hermitian Toeplitz Gram matrix of the exponentials e_f, f in freqs,
    indexed from one coefficient vector."""
    f = np.array(list(freqs), dtype=np.int64)
    return _gram(f, weight_fourier_coeffs(w, _max_lag(f), tol))


class TrigPolyTarget:
    """Target given by explicit exponential coefficients {freq: amplitude};
    its distance to a span depends on its amplitudes off the span."""

    def __init__(self, coeffs):
        self.coeffs = {int(k): complex(v) for k, v in coeffs.items()}

    @property
    def freqs(self):
        """The target's own frequencies, whose lags its norm reads."""
        return list(self.coeffs)

    def at(self, freqs):
        """The amplitudes at the int array freqs, 0 off the target."""
        return np.array([self.coeffs.get(int(k), 0j) for k in freqs],
                        dtype=np.complex128)

    def norm_sq(self, what, w=None, tol=0.0):
        """(||f||_w^2, error): the sum of a_n conj(a_l) w-hat(l - n) left to
        right in row order, and tol (sum |a_n|)^2 for coefficients each
        within tol.  Too large amplitudes give inf or nan."""
        a = np.array(list(self.coeffs.values()))
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.outer(a, a.conj()) * _gram(np.array(self.freqs), what).T
            error = tol * np.abs(a).sum() ** 2
        return float(sum(terms.ravel().tolist()).real), float(error)

    def digest_data(self):
        return {"kind": "trigpoly",
                "coeffs": {str(k): [v.real, v.imag]
                           for k, v in sorted(self.coeffs.items())}}


class AnnihilatorTarget:
    """Phi = H/w for a deep-zero series H; the weight cancels in every
    inner product against exponentials, which become plain coefficients
    of H: the series coefficient on +-(odd square), zero elsewhere."""

    # no own frequencies: the norm reads no weight coefficients
    freqs = ()

    def __init__(self, series):
        self.series = series
        self._spectrum = {int(f): complex(c)
                          for f, c in zip(series.freqs, series.coeffs)}

    def inner(self, freqs):
        """<Phi, e_m>_w for every m in freqs, whatever the weight."""
        m = np.asarray(freqs, dtype=np.int64)
        c = np.array([self._spectrum.get(int(k), 0.0j) for k in np.abs(m)],
                     dtype=np.complex128)
        return np.where(m > 0, c, np.where(m < 0, -c, 0.0j))

    def norm_sq(self, what, w, tol):
        """(||Phi||_w^2, its error) = int |H|^2 / w, by membership_check."""
        return membership_check(self.series, w, tol)

    def digest_data(self):
        return {"kind": "annihilator", "k_min": self.series.k_min,
                "M": self.series.M}


@dataclass
class ResidualRecord:
    N: int
    residual: float
    target_norm: float
    cond_estimate: float
    residual_error: float

    @property
    def ratio(self):
        return self.residual / self.target_norm if self.target_norm else 0.0


@functools.cache
def _leggauss(order):
    """Gauss-Legendre nodes and weights, computed once per order, read-only."""
    x, wx = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = wx.flags.writeable = False
    return x, wx


def _measure(w, n, rule):
    """Points z_j and root masses sqrt(omega_j w(t_j)) of the composite
    Gauss-Legendre rule (a, b, order) for degree n: equal panels of `order`
    nodes on each piece between w's breakpoints, about a*n + b in all."""
    a, b, order = rule
    x, wx = _leggauss(order)
    edges = np.concatenate([np.linspace(lo, hi, math.ceil(
        (a * n + b) * (hi - lo) / order), endpoint=False) for lo, hi in
        zip(w.breakpoints, w.breakpoints[1:])] + [[w.breakpoints[-1]]])
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half * (x + 1.0)).ravel()
    return np.exp(2j * np.pi * t), np.sqrt((half * wx).ravel() * w(t))


def _szego(z, root_mu, n, rows):
    """The Szegő recursion to degree n for masses root_mu**2 at the points
    z on the unit circle, whose node vectors carry the factor root_mu.
    Returns (d2, B): d2[k] = ||Phi*_k||^2, the squared distance from 1 to
    span{z..z^k}, and B[i, k] the coefficient of z^rows[i] in the
    orthonormal phi_k."""
    # On |z| = 1, Phi*_k = z^k conj(Phi_k), so the one reflected vector
    # y = z^-floor(k/2) Phi_k root_mu carries both, ||Phi*_k||^2 = ||y||^2,
    # and with u = y at odd k, u = z y at even k: a = sum u y / ||y||^2 and
    # y <- u - a conj(y), where a conj(y) is a real 2x2 map of y's (re, im)
    # pairs.  The nodes enter as given: with a half-angle root s of z in
    # their place, s^2 is off z by a rounding, and the a's lose a digit.
    y, x = root_mu.astype(np.complex128), np.empty(z.size, np.complex128)
    y_flat = y.view(np.float64)
    y_pairs, x_pairs = y_flat.reshape(-1, 2), x.view(np.float64).reshape(-1, 2)
    ay, turn = np.empty_like(y_pairs), np.empty((2, 2))
    # coefficient j of Phi_k sits at buf[n - k + j]: z Phi_k is Phi_k one
    # place to the left, and the zeros right of buf[n] are its absent terms
    buf, star = np.zeros(2 * n + 1, np.complex128), np.empty(n + 1, np.complex128)
    buf[n] = 1.0
    d2, B = np.empty(n + 1), np.empty((len(rows), n + 1), dtype=np.complex128)
    for k in range(n + 1):
        d2[k] = d = float(np.dot(y_flat, y_flat))
        if not 0.0 < d < math.inf:
            raise ArithmeticError(
                f"Szego recursion: ||Phi*_n||^2 = {d} at n={k}")
        lo = n - k
        B[:, k] = buf[lo:lo + n + 1][rows]
        if k < n:
            u, u_pairs = ((y, y_pairs) if k % 2
                          else (np.multiply(z, y, out=x), x_pairs))
            a = complex(np.dot(u, y)) / d
            turn[:] = (a.real, a.imag), (a.imag, -a.real)
            np.matmul(y_pairs, turn, out=ay)
            np.subtract(u_pairs, ay, out=y_pairs)
            # Phi*_k has the coefficients of Phi_k reversed and conjugated
            st = star[:k + 1]
            np.conjugate(buf[lo:n + 1][::-1], out=st)
            st *= a
            buf[lo - 1:n] -= st
    B /= np.sqrt(d2)
    if not np.isfinite(B).all():
        raise ArithmeticError("Szego recursion: coefficients not finite")
    return d2, B


def _residuals(target, kept_sets, w, tol, coefficients=False):
    """Distances from the target to the spans of kept_sets, lists of
    distinct frequencies, each a prefix of the last.  Returns (norm,
    [(residual, residual_error, cond) for each set], the projection's
    coefficients on the last set when asked: they need every row of B)."""
    F = np.array(target.freqs, dtype=np.int64)
    what = weight_fourier_coeffs(w, _max_lag(F), tol) if F.size else None
    norm_sq, norm_err = target.norm_sq(what, w, tol)
    if not math.isfinite(norm_sq):
        raise ArithmeticError(f"target norm^2 is not finite ({norm_sq})")
    norm = math.sqrt(max(norm_sq, 0.0))
    top = np.array(kept_sets[-1], dtype=np.int64)
    lo = min(0, F.min(initial=0), top.min(initial=0))
    trig = isinstance(target, TrigPolyTarget)
    b = np.zeros(top.size) if trig else target.inner(top)
    # per set: degree n, rows R (S and T), T's place in R, b_T, f-hat_R, and
    # residual^2 before the solve (the norm, unless a trig target has a span)
    blocks = []
    n_max = max(0, F.max(initial=0), top.max(initial=0)) - lo
    read = np.zeros(n_max + 1, dtype=bool)
    for size in map(len, kept_sets):
        kept, on_T = top[:size] - lo, b[:size] != 0
        n = max(0, F.max(initial=0), top[:size].max(initial=0)) - lo
        in_R = np.ones(n + 1, dtype=bool)
        in_R[kept[~on_T]] = False
        R = np.flatnonzero(in_R)
        read[R] = True
        solves = trig and size > 0
        blocks.append((n, R, np.searchsorted(R, kept[on_T]), b[:size][on_T],
                       target.at(R + lo) if solves else np.zeros(R.size),
                       0.0 if solves else norm_sq))
    rows = np.arange(n_max + 1) if coefficients else np.flatnonzero(read)
    values = []
    for rule in _RULES:
        _, B = _szego(*_measure(w, n_max, rule), n_max, rows)
        values.append([])
        for n, R, tpos, b_t, f, base in blocks:
            U, s, Vh = np.linalg.svd(B[np.searchsorted(rows, R), :n + 1],
                                     full_matrices=False)
            if not s[-1] > 0.0:
                raise ArithmeticError(f"singular constraint block at n={n}")
            # y: coordinates of the least-norm p with p-hat_R = f; with
            # G = U[tpos] / s, G G^H = ((B B^H)^-1)_TT
            y, G = (U.conj().T @ f) / s, U[tpos] / s
            gamma = np.linalg.solve(G @ G.conj().T, b_t)
            res_sq = base + np.vdot(y, y).real - np.vdot(b_t, gamma).real
            values[-1].append((math.sqrt(min(max(res_sq, 0.0), norm_sq)),
                               float(s[0] / s[-1])))
    out = []
    for size, (other, _), (res, cond), blk in zip(map(len, kept_sets),
                                                   *values, blocks):
        error = abs(res - other)
        if blk[-1]:
            # the residual reads the norm, and so its quadrature error
            error += res - math.sqrt(max(res * res - norm_err, 0.0))
        if not (math.isfinite(res) and math.isfinite(cond) and error <= norm):
            raise ArithmeticError(
                f"residual {res:.3e} +- {error:.3e} against the target norm "
                f"{norm:.3e} at {size} frequencies, cond {cond:.3e}")
        out.append((res, error, cond))
    if not coefficients:
        return norm, out, None
    # p, less the projection of an annihilator, in the monomial basis
    p = B[:, :n_max + 1] @ (Vh.conj().T @ (y - G.conj().T @ gamma))
    return norm, out, (target.at(top) if trig else 0.0) - p[top - lo]


def weighted_residual(target, freqs, w, floor=None, tol=1e-12):
    """(residual, coefficients of the projection on each of freqs, norm,
    cond) of the target against the span of the exponentials e_f; floor
    may only be None or 0, since the solve needs no regularization."""
    if floor is not None and floor != 0:
        raise ValueError(f"floor must be None or 0, got {floor!r}")
    freqs = [int(f) for f in freqs]
    if len(set(freqs)) != len(freqs):
        raise ValueError("frequencies must be distinct")
    norm, [(res, _, cond)], coeffs = _residuals(target, [freqs], w, tol,
                                                coefficients=True)
    return res, coeffs, norm, cond


@dataclass
class ProbeConfig:
    weight: object
    gamma: object          # FrequencySet of removed frequencies
    target: object
    tol: float = 1e-12

    def digest(self):
        data = {"weight": self.weight.descriptor(),
                "gamma": list(self.gamma.elements),
                "target": self.target.digest_data(), "tol": self.tol}
        return hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class ResidualCurve:
    records: list
    config_digest: str


def residual_curve(config, N_list):
    """weighted_residual over the nested complements in [1, N], N
    increasing, from one recursion per rule at the largest N."""
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be increasing")
    if not N_list:
        return ResidualCurve([], config.digest())
    kept = complement_in_range(config.gamma, N_list[-1])
    norm, rows, _ = _residuals(config.target,
                               [kept[:bisect_right(kept, N)] for N in N_list],
                               config.weight, config.tol)
    return ResidualCurve([ResidualRecord(N, res, norm, cond, error)
                          for N, (res, error, cond) in zip(N_list, rows)],
                         config.digest())
