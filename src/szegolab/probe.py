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
and p-hat_S = B_S c.  A span's rows R are S, plus an annihilator's T,
with the data rows D (f-hat_S's support, or T) last.  One QR B_R^H = Q T
holds D's rows projected off the others in T_DD, T_DD^H T_DD =
[((B_R B_R^H)^-1)_DD]^-1, so residual^2 is ||T_DD^-H f-hat_D||^2 for a
trig target (0 in the span) and ||Phi||^2 - ||T_DD b_T||^2 for an
annihilator, whose exact inner products b are nonzero on T in the kept
set.  Neither reads cond(B_R), and no Gram matrix or floor enters.

A set whose block has no data (f-hat_S = 0, or no kept frequency on T) has
x empty: its residual is 0 for a trig target in the span, or the norm,
with no B and no QR.  The empty set is a span like any other, S all of
[0, N'], its trig residual the solve's.  A trig target's ||f||^2 is summed
on each rule's own nodes, as sum_j mu_j |f(z_j)|^2, so its norm and its
residuals come from one discrete measure; an annihilator's is int |H|^2 / w
from membership_check.  Of two rules of different sizes (_RULES) the larger
gives the values; residual_error is their disagreement (reported, not a
bound: two rules both off can agree), plus max(n, 1) eps norm at degree n
for rounding where it reads a trig residual or a solve, plus the norm's
error where an annihilator's residual reads the norm.  Every rule runs,
recursing once at the largest N' for a curve's nested kept sets, where some
block has data; else the last is measured for a trig norm, and none for an
annihilator.  A zero or NaN on the diagonal of a factored block's T,
non-finite values or a residual_error above the norm raise ArithmeticError.
"""

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from .deep_zero import membership_check
from .frequency_sets import complement_in_range
from .quadrature import fourier_coefficients

__all__ = ["weight_fourier_coeff", "weight_fourier_coeffs", "gram_matrix",
           "TrigPolyTarget", "AnnihilatorTarget", "weighted_residual",
           "ProbeConfig", "ResidualCurve", "residual_curve"]

# (a, b, order): about a*N' + b nodes on [0, 1] in panels of `order` nodes,
# so a node sees under pi/a radians of e^{2 pi i N' t}; at c = 1 the first
# rule's d_N^2 is off by 8.5e-4 (relative) at N = 6400, where the second is
# exact, and residual_error, their disagreement, shows it
_RULES = ((2.5, 20, 64), (3.0, 40, 80))
# residual_error's rounding term, _ROUNDING n eps norm at degree n: +-1 ulp
# rotations of every node moved trig targets' residuals, cubes removed, by
# at most 0.069 n eps norm (N <= 800 companion, N <= 6400 c = 0.236 and 1)
_ROUNDING = 1.0
_EPS = np.finfo(np.float64).eps


def weight_fourier_coeffs(w, K, tol=1e-12):
    """The weight's Fourier coefficients w-hat(0..K) as a fresh vector, in
    closed form for a tabulated weight of equal samples (a constant), else
    from one batched quadrature split at w's breakpoints; a lag whose error
    exceeds tol raises, and K past the seed cap, 66666, raises ValueError."""
    K = int(K)
    if len({v for _, v in w.samples}) == 1:
        what = np.zeros(K + 1, dtype=np.complex128)
        what[0] = w.samples[0][1]
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


def gram_matrix(freqs, w, tol=1e-12):
    """Hermitian Toeplitz Gram matrix of the exponentials e_f, f in freqs,
    G[m][n] = <e_n, e_m>_w = w-hat(f_m - f_n), indexed from one coefficient
    vector."""
    f = np.array(list(freqs), dtype=np.int64)
    if len(set(f)) != f.size:
        raise ValueError("frequencies must be distinct")
    what = weight_fourier_coeffs(w, np.ptp(f) if f.size else 0, tol)
    return _at_lags(what, f[:, None] - f[None, :])


class TrigPolyTarget:
    """Target given by explicit exponential coefficients {freq: amplitude};
    its distance to a span depends on its amplitudes off the span."""

    def __init__(self, coeffs):
        self.coeffs = {int(k): complex(v) for k, v in coeffs.items()}

    def at(self, freqs):
        """The amplitudes at the int array freqs, 0 off the target."""
        return np.array([self.coeffs.get(int(k), 0j) for k in freqs],
                        dtype=np.complex128)


class AnnihilatorTarget:
    """Phi = H/w for a deep-zero series H; the weight cancels in every
    inner product against exponentials, which become plain coefficients
    of H: the series coefficient on +-(odd square), zero elsewhere.  Its
    norm int |H|^2 / w comes from membership_check."""

    def __init__(self, series):
        self.series = series

    def inner(self, freqs):
        """<Phi, e_m>_w for every m in freqs, whatever the weight."""
        m = np.asarray(freqs, dtype=np.int64)
        f = self.series.freqs
        i = np.minimum(np.searchsorted(f, np.abs(m)), f.size - 1)
        c = np.where(f[i] == np.abs(m), self.series.coeffs[i], 0.0j)
        return np.where(m > 0, c, np.where(m < 0, -c, 0.0j))


@dataclass
class ResidualRecord:
    N: int
    residual: float
    target_norm: float
    residual_error: float

    @property
    def ratio(self):
        return self.residual / self.target_norm if self.target_norm else 0.0


@functools.cache
def _leggauss(order):
    """numpy's leggauss(order) bit for bit, read-only, from its stored half."""
    with files(__package__).joinpath("gauss_legendre.txt").open() as f:
        half = np.array([[float.fromhex(v) for v in line.split()[1:]]
                         for line in f if line.split()[:1] == [str(order)]])
    if order < 1 or len(half) != (order + 1) // 2:
        raise ValueError(f"no stored Gauss-Legendre rule of order {order}")
    x, wx = np.concatenate([half[::-1][:order // 2] * [-1, 1], half]).T.copy()
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
    # y <- u - a conj(y).  The nodes enter as given: with a half-angle root s
    # of z in their place, s^2 is off z by a rounding, and a loses a digit.
    y, x, c = root_mu.astype(np.complex128), *np.empty((2, z.size), complex)
    y_flat = y.view(np.float64)
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
            u = y if k % 2 else np.multiply(z, y, out=x)
            a = complex(np.dot(u, y)) / d
            np.conjugate(y, out=c)
            c *= a
            np.subtract(u, c, out=y)
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
    distinct frequencies, each a prefix of the last (the empty set too).
    Only the rows of blocks with data are read.  Returns (norm,
    [(residual, residual_error) for each set], the projection's
    coefficients on the last set when asked: they read every row of B
    where its solve has data)."""
    trig = isinstance(target, TrigPolyTarget)
    F = np.array(list(target.coeffs) if trig else [], dtype=np.int64)
    norm_sq, norm_err = ((0.0, 0.0) if trig
                         else membership_check(target.series, w, tol))
    top = np.array(kept_sets[-1], dtype=np.int64)
    lo = min(0, F.min(initial=0), top.min(initial=0))
    b = np.zeros(top.size) if trig else target.inner(top)
    n_max = max(0, F.max(initial=0), top.max(initial=0)) - lo
    # per set: degree n, rows R (S, then the data rows D: f-hat_S's support,
    # or T), D's place in R, and f-hat_D or b_T
    blocks, read = [], np.zeros(n_max + 1, dtype=bool)
    for size in map(len, kept_sets):
        kept, on_T = top[:size] - lo, b[:size] != 0
        n = max(0, F.max(initial=0), top[:size].max(initial=0)) - lo
        S = np.delete(np.arange(n + 1), kept)
        f = target.at(S + lo) if trig else np.zeros(S.size)
        R = np.concatenate([S[f == 0], S[f != 0], kept[on_T]])
        data = np.concatenate([f[f != 0], b[:size][on_T]])
        read[R] |= data.size > 0
        blocks.append((n, R, slice(R.size - data.size, None), data))
    rows = np.flatnonzero(read)
    if coefficients and rows.size:
        rows = np.arange(n_max + 1)
    if rows.size * (n_max + 1) > 1 << 26:       # B would take over 1 GiB
        raise ArithmeticError(f"{rows.size} x {n_max + 1} coefficients: "
                              f"the block B is capped at 2**26 entries")
    # two rules can disagree only where a solve reads B; with no data the
    # last rule serves a trig norm, summed on its nodes, and an annihilator,
    # whose norm is its own, needs none
    values = []
    for rule in _RULES if rows.size else _RULES[-1:] if trig else ():
        z, root_mu = _measure(w, n_max, rule)
        B = _szego(z, root_mu, n_max, rows)[1] if rows.size else None
        if trig:
            with np.errstate(over="ignore", invalid="ignore"):
                f_z = root_mu * sum(a * z ** k
                                    for k, a in target.coeffs.items())
                norm_sq = float(np.vdot(f_z, f_z).real)
        if not math.isfinite(norm_sq):
            raise ArithmeticError(f"target norm^2 is not finite ({norm_sq})")
        values.append([])
        for n, R, D, data in blocks:
            # B_R^H = Q T: with D last, T_DD = T[D, D] holds D's rows projected
            # off the others; |x| is a trig residual, x = T_DD^-H f-hat_D, or
            # x = T_DD b_T, which an annihilator's residual^2 leaves off norm^2
            # (with no data x is empty, x_sq = 0, and no B_R is factored)
            x_sq = 0.0
            if data.size:
                A = B[np.searchsorted(rows, R), :n + 1].conj().T
                T = np.linalg.qr(A, mode="r")
                if not np.all(np.abs(T.diagonal()) > 0):
                    raise ArithmeticError(
                        f"singular constraint block at n={n}")
                x = (np.linalg.solve(T[D, D].conj().T, data) if trig
                     else T[D, D] @ data)
                x_sq = np.vdot(x, x).real
            res_sq = x_sq if trig else norm_sq - x_sq
            values[-1].append(math.sqrt(min(max(res_sq, 0.0), norm_sq)))
    norm, out = math.sqrt(max(norm_sq, 0.0)), []
    values = values or [[norm] * len(blocks)]
    for size, other, res, (n, *_, data) in zip(
            map(len, kept_sets), values[0], values[-1], blocks):
        error = abs(res - other)
        if trig or data.size:
            error += _ROUNDING * max(n, 1) * _EPS * norm
        if not trig:     # res - sqrt(res^2 - norm_err), without cancelling
            gap = res * res - norm_err
            error += norm_err / (res + math.sqrt(gap)) if gap > 0 else res
        if not (math.isfinite(res) and error <= norm):
            raise ArithmeticError(
                f"residual {res:.3e} +- {error:.3e} against the target norm "
                f"{norm:.3e} at {size} frequencies")
        out.append((res, error))
    if not coefficients:
        return norm, out, None
    # B Q_D x: the least-norm p with p-hat_R = f-hat_R, or Phi's projection;
    # 0 where the one block has no data
    q = (B[:, :n_max + 1] @ (np.linalg.qr(A)[0][:, D] @ x) if data.size
         else np.zeros(n_max + 1, dtype=np.complex128))
    return norm, out, (target.at(top) - q[top - lo]) if trig else q[top - lo]


def weighted_residual(target, freqs, w, floor=None, tol=1e-12):
    """(residual, coefficients of the projection on each of freqs, norm,
    residual_error) of the target against the span of the exponentials e_f;
    floor may only be None or 0, since the solve needs no regularization."""
    if floor is not None and floor != 0:
        raise ValueError(f"floor must be None or 0, got {floor!r}")
    freqs = [int(f) for f in freqs]
    if len(set(freqs)) != len(freqs):
        raise ValueError("frequencies must be distinct")
    norm, [(res, error)], coeffs = _residuals(target, [freqs], w, tol,
                                              coefficients=True)
    return res, coeffs, norm, error


@dataclass
class ProbeConfig:
    weight: object
    gamma: object          # FrequencySet of removed frequencies
    target: object
    tol: float = 1e-12


@dataclass
class ResidualCurve:
    records: list


def residual_curve(config, N_list):
    """weighted_residual over the nested complements in [1, N], N
    increasing, from at most one recursion per rule at the largest N."""
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be increasing")
    if not N_list:
        return ResidualCurve([])
    kept = complement_in_range(config.gamma, N_list[-1])
    norm, rows, _ = _residuals(config.target,
                               [kept[:bisect_right(kept, N)] for N in N_list],
                               config.weight, config.tol)
    return ResidualCurve([ResidualRecord(N, res, norm, error)
                          for N, (res, error) in zip(N_list, rows)])
