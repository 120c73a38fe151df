"""Completeness experiments in weighted L2: project targets onto truncated
exponential systems and track the residual as the frequency cutoff grows.

The Gram matrix of exponentials is Toeplitz in the Fourier coefficients of
the weight; deep-zero weights make the system nearly dependent, so the
solve carries an explicit eigenvalue floor and a condition estimate.

The complements of a residual curve are nested prefixes of one frequency
list, and the floor does not depend on N, so each curve computes the target
norm, the Gram matrix A (floor on the diagonal) and its Cholesky factor L
once, at the largest N.  The Gram matrix of every shorter prefix is a
leading block A[:n,:n], whose Cholesky factor is L[:n,:n]; with y = L^-1 b
the squared projection norm is the partial sum of |y|^2 up to n.  The
condition estimate is lambda_max/lambda_min of the floored leading block.

The Gram matrix is indexed from one vector w-hat(0..K) of the weight's
Fourier coefficients.  One batched quadrature computes the whole vector
(quadrature.fourier_coefficients): w is sampled once on a composite
Gauss-Kronrod 7/15 rule with panels no wider than half a period of lag K,
split at the weight's breakpoints and halved where they miss their share of
the tolerance, and each lag gets its own error estimate; a lag that misses
the tolerance raises ArithmeticError.  The weight caches one vector per
tolerance and lengthens it when a larger lag is asked for.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .deep_zero import eval_H_series, membership_check
from .frequency_sets import complement_in_range
from .quadrature import (fourier_coefficients, integrate_finite,
                         oscillatory_integral)

__all__ = [
    "weight_fourier_coeff",
    "weight_fourier_coeffs",
    "gram_matrix",
    "TrigPolyTarget",
    "AnnihilatorTarget",
    "SampledTarget",
    "weighted_residual",
    "ProbeConfig",
    "ResidualCurve",
    "residual_curve",
    "annihilator_test",
    "convolution_stability_check",
]


def weight_fourier_coeffs(w, K, tol=1e-12):
    """The weight's Fourier coefficients w-hat(0..K) as one read-only vector.

    A constant weight has them in closed form.  Otherwise one batched
    quadrature (fourier_coefficients) samples w once per node, with w's
    breakpoints as panel edges, and a lag whose error estimate exceeds tol
    raises.  w._fourier_cache holds one vector per tol; a larger K computes
    a longer one and keeps the entries already reported.
    """
    K = int(K)
    have = w._fourier_cache.get(tol)
    if have is not None and have.size > K:
        return have[:K + 1]
    if w.kind == "constant":
        fresh = np.zeros(K + 1, dtype=np.complex128)
        fresh[0] = w.v
    else:
        res = fourier_coefficients(w, np.arange(K + 1), tol, w.breakpoints)
        if not res.converged:
            k = int(np.argmax(res.abs_error_estimate))
            raise ArithmeticError(
                f"weight coefficient k={k} reached only "
                f"{res.abs_error_estimate[k]:.2e}")
        fresh = res.value
    if have is not None:
        fresh[:have.size] = have
    fresh.flags.writeable = False
    w._fourier_cache[tol] = fresh
    return fresh


def weight_fourier_coeff(w, k, tol=1e-12):
    """Fourier coefficient of the weight, conjugate-symmetric by construction;
    an entry of weight_fourier_coeffs(w, |k|)."""
    k = int(k)
    value = complex(weight_fourier_coeffs(w, abs(k), tol)[abs(k)])
    return value.conjugate() if k < 0 else value


def gram_matrix(freqs, w, tol=1e-12):
    """G[m][n] = <e_n, e_m>_w = w-hat(freqs[m] - freqs[n]); Hermitian Toeplitz
    in the coefficient index, filled by indexing one coefficient vector."""
    f = np.array(list(freqs), dtype=np.int64)
    if np.unique(f).size != f.size:
        raise ValueError("frequencies must be distinct")
    d = f[:, None] - f[None, :]
    lag = np.abs(d)
    G = weight_fourier_coeffs(w, lag.max(initial=0), tol)[lag]
    np.conjugate(G, out=G, where=d < 0)
    return G


class TrigPolyTarget:
    """Target given by explicit exponential coefficients {freq: amplitude};
    all weighted inner products reduce to weight Fourier coefficients."""

    def __init__(self, coeffs):
        self.coeffs = {int(k): complex(v) for k, v in coeffs.items()}

    def inner(self, m, w, tol=1e-12):
        return sum(a * weight_fourier_coeff(w, m - n, tol)
                   for n, a in self.coeffs.items())

    def norm_sq(self, w, tol=1e-12):
        total = 0.0j
        for n, a in self.coeffs.items():
            for l, b in self.coeffs.items():
                total += a * np.conj(b) * weight_fourier_coeff(w, l - n, tol)
        return float(total.real)

    def fourier_coeff(self, n):
        return self.coeffs.get(int(n), 0.0j)

    def digest_data(self):
        return {"kind": "trigpoly",
                "coeffs": {str(k): [v.real, v.imag]
                           for k, v in sorted(self.coeffs.items())}}


class AnnihilatorTarget:
    """Phi = H/w for a deep-zero series H; the weight cancels in every
    inner product against exponentials, which become plain coefficients
    of H: the series coefficient on +-(odd square), zero elsewhere."""

    def __init__(self, series):
        self.series = series
        self._spectrum = {int(f): complex(c)
                          for f, c in zip(series.freqs, series.coeffs)}

    def inner(self, m, w, tol=1e-10):
        m = int(m)
        if m > 0:
            return self._spectrum.get(m, 0.0j)
        if m < 0:
            return -self._spectrum.get(-m, 0.0j)
        return 0.0j

    def inner_quadrature(self, m, tol=1e-10):
        """Same inner product by direct oscillatory quadrature of H."""
        top = float(max(np.max(self.series.freqs), abs(m)))
        res = oscillatory_integral(
            lambda t: eval_H_series(self.series, t)
            * np.exp(-2j * np.pi * m * t), top, 0.0, 1.0, tol)
        return res.value

    def norm_sq(self, w, tol=1e-8):
        value, _ = membership_check(self.series, w, tol)
        return value

    def digest_data(self):
        return {"kind": "annihilator", "k_min": self.series.k_min,
                "M": self.series.M}


class SampledTarget:
    """Target given by a vectorized callable on (0,1)."""

    def __init__(self, f, label="sampled"):
        self.f = f
        self.label = label

    def inner(self, m, w, tol=1e-10):
        res = oscillatory_integral(
            lambda t: np.asarray(self.f(t), dtype=np.complex128)
            * np.exp(-2j * np.pi * m * t) * w(t), m, 0.0, 1.0, tol)
        return res.value

    def norm_sq(self, w, tol=1e-10):
        res = integrate_finite(
            lambda t: np.abs(np.asarray(self.f(t), dtype=np.complex128)) ** 2
            * w(t) + 0j, 0.0, 1.0, tol)
        return res.value.real

    def digest_data(self):
        return {"kind": "sampled", "label": self.label}


@dataclass
class ResidualRecord:
    N: int
    residual: float
    target_norm: float
    cond_estimate: float
    coefficients: np.ndarray = field(repr=False, default=None)

    @property
    def ratio(self):
        return self.residual / self.target_norm if self.target_norm else 0.0


def _hermitian_cond(A):
    """2-norm condition number of a Hermitian matrix; 1.0 when empty."""
    if not len(A):
        return 1.0
    ev = np.abs(np.linalg.eigvalsh(A))
    return float(ev.max() / ev.min())


def _prefix_residuals(target, freqs, w, floor, tol, sizes):
    """Distances from the target to the spans of freqs[:n], n in sizes.

    One target norm, one floored Gram matrix A and one Cholesky factor L
    serve every prefix: A[:n,:n] and L[:n,:n] belong to freqs[:n], so with
    y = L^-1 b the projection has squared norm sum |y[:n]|^2 and
    coefficients solving L[:n,:n]^H c = y[:n].
    Returns (norm, [(residual, coeffs, cond) for each n]).
    """
    # size the coefficient vector for every lag among freqs first, so that
    # a TrigPolyTarget's inner products index it instead of computing a
    # shorter one that the Gram matrix would compute again at full length;
    # the Gram matrix itself waits until the target's norm quadrature has
    # finished
    if freqs:
        weight_fourier_coeffs(w, max(freqs) - min(freqs), tol)
    norm_sq = target.norm_sq(w, tol)
    b = np.array([target.inner(m, w, tol) for m in freqs], dtype=np.complex128)
    A = gram_matrix(freqs, w, tol)
    if floor is None:
        floor = 1e-10 * weight_fourier_coeff(w, 0, tol).real
    A[np.diag_indices_from(A)] += floor
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"Gram factorization failed at floor={floor:.3e}, "
            f"cond estimate {_hermitian_cond(A):.3e}") from exc
    y = np.linalg.solve(L, b)
    proj = np.concatenate(([0.0], np.cumsum(np.abs(y) ** 2)))
    rows = []
    for n in sizes:
        res_sq = min(max(norm_sq - float(proj[n]), 0.0), norm_sq)
        coeffs = np.linalg.solve(L[:n, :n].conj().T, y[:n])
        rows.append((math.sqrt(res_sq), coeffs, _hermitian_cond(A[:n, :n])))
    return math.sqrt(max(norm_sq, 0.0)), rows


def weighted_residual(target, freqs, w, floor=None, tol=1e-12):
    """Distance from the target to the span of the given exponentials.

    residual^2 = ||f||_w^2 - b^H (G + floor I)^(-1) b, clamped to
    [0, ||f||_w^2]; Cholesky is the (deterministic) factorization, and a
    failure even with the floor raises with the condition estimate.
    Returns (residual, coefficients, norm, cond).
    """
    freqs = list(freqs)
    norm, [(res, coeffs, cond)] = _prefix_residuals(
        target, freqs, w, floor, tol, [len(freqs)])
    return res, coeffs, norm, cond


@dataclass
class ProbeConfig:
    weight: object
    gamma: object          # FrequencySet of removed frequencies
    target: object
    floor: float | None = None
    tol: float = 1e-12

    def digest(self):
        data = {"weight": self.weight.descriptor(),
                "gamma": list(self.gamma.elements),
                "target": self.target.digest_data(),
                "floor": self.floor, "tol": self.tol}
        return hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class ResidualCurve:
    records: list
    config_digest: str


def residual_curve(config, N_list):
    """weighted_residual over nested complements (N increasing), from one
    factorization at the largest N."""
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be increasing")
    if not N_list:
        return ResidualCurve([], config.digest())
    # complements in [1, N] are prefixes of the complement at the largest N
    sizes = [len(complement_in_range(config.gamma, N)) for N in N_list]
    freqs = complement_in_range(config.gamma, N_list[-1])
    norm, rows = _prefix_residuals(config.target, freqs, config.weight,
                                   config.floor, config.tol, sizes)
    records = [ResidualRecord(N, res, norm, cond, coeffs)
               for N, (res, coeffs, cond) in zip(N_list, rows)]
    return ResidualCurve(records, config.digest())


@dataclass
class AnnihilatorReport:
    entries: list          # (n, value, expected, ok)
    passed: bool


def annihilator_test(series, w, n_range, tol=1e-10, zero_tol=1e-8):
    """Check that the weighted inner products of Phi = H/w against e_n
    reduce to coefficients of H: zero off the odd-square spectrum, the
    series coefficient on it."""
    target = AnnihilatorTarget(series)
    spectrum = {int(f): c for f, c in zip(series.freqs, series.coeffs)}
    entries = []
    passed = True
    for n in n_range:
        n = int(n)
        val = target.inner_quadrature(n, tol)
        expected = complex(spectrum.get(abs(n), 0.0))
        if n < 0:
            expected = -expected
        ok = abs(val - expected) < zero_tol
        passed = passed and ok
        entries.append((n, val, expected, ok))
    return AnnihilatorReport(entries, passed)


def convolution_stability_check(F, psi, w, tol=1e-6):
    """Finiteness of the weighted energy of F * psi with the product bound
    ||psi||^2 * double integral of |F|^2/w as the ceiling.

    F and psi are vectorized callables supported in [0, infinity) and
    (0,1) respectively; all functions are used on (0,1) only.
    Returns (value, ceiling, within_ceiling).
    """
    psi_norm_sq = integrate_finite(
        lambda s: np.abs(np.asarray(psi(s), dtype=np.complex128)) ** 2 + 0j,
        0.0, 1.0, tol).value.real

    def inner_energy(t_arr):
        out = np.empty(t_arr.shape, dtype=np.complex128)
        for i, t in enumerate(t_arr):
            if t <= 0:
                out[i] = 0.0
                continue
            r = integrate_finite(
                lambda s: np.abs(np.asarray(F(s), dtype=np.complex128)) ** 2
                / w(s) + 0j, 1e-12, t, tol)
            out[i] = r.value
        return out

    ceiling = psi_norm_sq * integrate_finite(
        inner_energy, 0.0, 1.0, max(tol, 1e-4)).value.real

    def conv_sq_over_w(t_arr):
        out = np.empty(t_arr.shape, dtype=np.complex128)
        for i, t in enumerate(t_arr):
            if t <= 1e-12:
                out[i] = 0.0
                continue
            conv = integrate_finite(
                lambda s: np.asarray(psi(t - s), dtype=np.complex128)
                * np.asarray(F(s), dtype=np.complex128) + 0j,
                0.0, t, tol).value
            out[i] = abs(conv) ** 2 / float(w(np.array([t]))[0])
        return out

    value = integrate_finite(conv_sq_over_w, 0.0, 1.0, max(tol, 1e-4)).value.real
    return value, ceiling, value <= ceiling * (1.0 + 1e-6)
