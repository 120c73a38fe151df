"""Completeness experiments in weighted L2: project targets onto truncated
exponential systems and track the residual as the frequency cutoff grows.

The Gram matrix of exponentials is Toeplitz in the Fourier coefficients of
the weight; deep-zero weights make the system nearly dependent, so the
solve carries an explicit eigenvalue floor and a condition estimate.

The complements of a residual curve are nested prefixes of one frequency
list, and the floor does not depend on N, so each curve computes the target
norm and one Cholesky factorization, at the largest N: of the Gram matrix A
(floor on the diagonal) bordered by the inner products b,
[[A, b], [b^H, c]].  The Gram matrix of every shorter prefix is a leading
block A[:n,:n], whose Cholesky factor is the leading block L[:n,:n]; the
factor's last row holds conj(y) with y = L^-1 b, so no triangular solve is
needed, and the squared projection norm is the partial sum of |y|^2 up to
n.  The corner c only keeps the bordered matrix positive definite.  The
condition estimate is lambda_max/lambda_min of the floored leading block.

A curve computes one vector w-hat(0..K) of the weight's Fourier
coefficients and passes it to the target (norm and inner products) and to
the Gram matrix, which read it through one conjugate-symmetric indexing
helper.  One batched quadrature computes the whole vector
(quadrature.fourier_coefficients): w is sampled once on a composite
Gauss-Kronrod 7/15 rule with panels no wider than half a period of lag K,
split at the weight's breakpoints and halved where they miss their share of
the tolerance.  Each block of panels takes one matrix product with the lag
table, and each lag gets an error estimate that is never below QUADPACK's;
a lag that misses the tolerance raises ArithmeticError.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .deep_zero import membership_check
from .frequency_sets import complement_in_range
from .quadrature import fourier_coefficients

__all__ = [
    "weight_fourier_coeff",
    "weight_fourier_coeffs",
    "gram_matrix",
    "TrigPolyTarget",
    "AnnihilatorTarget",
    "weighted_residual",
    "ProbeConfig",
    "ResidualCurve",
    "residual_curve",
]


def weight_fourier_coeffs(w, K, tol=1e-12):
    """The weight's Fourier coefficients w-hat(0..K) as a fresh vector.

    A constant weight has them in closed form.  Otherwise one batched
    quadrature (fourier_coefficients) samples w once per node, with w's
    breakpoints as panel edges, and a lag whose error estimate exceeds tol
    raises.
    """
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
    if np.unique(freqs).size != freqs.size:
        raise ValueError("frequencies must be distinct")
    return _at_lags(what, freqs[:, None] - freqs[None, :])


def gram_matrix(freqs, w, tol=1e-12):
    """Hermitian Toeplitz Gram matrix of the exponentials e_f, f in freqs,
    indexed from one coefficient vector."""
    f = np.array(list(freqs), dtype=np.int64)
    return _gram(f, weight_fourier_coeffs(w, _max_lag(f), tol))


class TrigPolyTarget:
    """Target given by explicit exponential coefficients {freq: amplitude};
    all weighted inner products reduce to weight Fourier coefficients."""

    def __init__(self, coeffs):
        self.coeffs = {int(k): complex(v) for k, v in coeffs.items()}

    @property
    def freqs(self):
        """The target's own frequencies; a curve's coefficient vector
        reaches every lag between them and the curve's frequencies."""
        return list(self.coeffs)

    def inner(self, freqs, what):
        """<f, e_m>_w = sum_n a_n w-hat(m - n) for every m in freqs."""
        m = np.asarray(freqs, dtype=np.int64)
        return sum(a * _at_lags(what, m - n) for n, a in self.coeffs.items())

    def norm_sq(self, what, w=None, tol=None):
        """||f||_w^2 = sum over n, l of a_n conj(a_l) w-hat(l - n), summed
        left to right in row order rather than by numpy's pairwise sum;
        w and tol are not read.  Amplitudes too large give inf or nan,
        which the residual curve rejects."""
        a = np.array(list(self.coeffs.values()))
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.outer(a, a.conj()) * _gram(np.array(self.freqs), what).T
        return float(sum(terms.ravel().tolist()).real)

    def digest_data(self):
        return {"kind": "trigpoly",
                "coeffs": {str(k): [v.real, v.imag]
                           for k, v in sorted(self.coeffs.items())}}


class AnnihilatorTarget:
    """Phi = H/w for a deep-zero series H; the weight cancels in every
    inner product against exponentials, which become plain coefficients
    of H: the series coefficient on +-(odd square), zero elsewhere."""

    # no own frequencies: the inner products read no weight coefficients
    freqs = ()

    def __init__(self, series):
        self.series = series
        self._spectrum = {int(f): complex(c)
                          for f, c in zip(series.freqs, series.coeffs)}

    def inner(self, freqs, what=None):
        """<Phi, e_m>_w for every m in freqs; what is not read."""
        m = np.asarray(freqs, dtype=np.int64)
        c = np.array([self._spectrum.get(int(k), 0.0j) for k in np.abs(m)],
                     dtype=np.complex128)
        return np.where(m > 0, c, np.where(m < 0, -c, 0.0j))

    def norm_sq(self, what, w, tol):
        """||Phi||_w^2 = int |H|^2 / w, by membership_check."""
        value, _ = membership_check(self.series, w, tol)
        return value

    def digest_data(self):
        return {"kind": "annihilator", "k_min": self.series.k_min,
                "M": self.series.M}


@dataclass
class ResidualRecord:
    N: int
    residual: float
    target_norm: float
    cond_estimate: float

    @property
    def ratio(self):
        return self.residual / self.target_norm if self.target_norm else 0.0


def _hermitian_cond(A):
    """2-norm condition number of a Hermitian matrix; 1.0 when empty, inf
    when singular."""
    if not len(A):
        return 1.0
    ev = np.abs(np.linalg.eigvalsh(A))
    return float(ev.max() / ev.min()) if ev.min() > 0 else math.inf


def _prefix_residuals(target, freqs, w, floor, tol, sizes):
    """Distances from the target to the spans of freqs[:n], n in sizes.

    One target norm and one Cholesky factor of the floored Gram matrix A
    bordered by b serve every prefix: A[:n,:n] and L[:n,:n] belong to
    freqs[:n], and the bordered factor's last row is [y^H, d] with
    y = L^-1 b, so the projection has squared norm sum |y[:n]|^2.
    Returns (norm, [(residual, cond) for each n], L, y); the projection
    onto freqs[:n] has the coefficients c solving L[:n,:n]^H c = y[:n].
    A norm or projection that is not finite raises ArithmeticError.
    """
    f = np.array(freqs, dtype=np.int64)
    # one coefficient vector covers every lag among the curve's and the
    # target's frequencies; the Gram matrix waits until the target's norm
    # quadrature has finished
    lags = np.concatenate([f, np.array(target.freqs, dtype=np.int64)])
    what = weight_fourier_coeffs(w, _max_lag(lags), tol)
    norm_sq = target.norm_sq(what, w, tol)
    if not math.isfinite(norm_sq):
        raise ArithmeticError(f"target norm^2 is not finite ({norm_sq})")
    b = target.inner(f, what)
    n = f.size
    M = np.empty((n + 1, n + 1), dtype=np.complex128)
    A = M[:n, :n]
    A[...] = _gram(f, what)
    if floor is None:
        floor = 1e-10 * what[0].real
    A[np.diag_indices_from(A)] += floor
    M[:n, n] = b
    M[n, :n] = b.conj()
    # the corner only has to exceed |y|^2, and y does not depend on it
    M[n, n] = np.finfo(np.float64).max
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"Gram factorization failed at floor={floor:.3e}, "
            f"cond estimate {_hermitian_cond(A):.3e}") from exc
    y = L[n, :n].conj()
    with np.errstate(over="ignore"):
        proj = np.concatenate(([0.0], np.cumsum(np.abs(y) ** 2)))
    if not np.isfinite(proj[-1]):
        raise ArithmeticError(f"projection norm^2 is not finite ({proj[-1]})")
    rows = []
    for k in sizes:
        res_sq = min(max(norm_sq - float(proj[k]), 0.0), norm_sq)
        rows.append((math.sqrt(res_sq), _hermitian_cond(A[:k, :k])))
    return math.sqrt(max(norm_sq, 0.0)), rows, L[:n, :n], y


def weighted_residual(target, freqs, w, floor=None, tol=1e-12):
    """Distance from the target to the span of the given exponentials.

    residual^2 = ||f||_w^2 - b^H (G + floor I)^(-1) b, clamped to
    [0, ||f||_w^2]; Cholesky is the (deterministic) factorization, and a
    failure even with the floor raises with the condition estimate.
    Returns (residual, coefficients, norm, cond).
    """
    freqs = list(freqs)
    norm, [(res, cond)], L, y = _prefix_residuals(
        target, freqs, w, floor, tol, [len(freqs)])
    return res, np.linalg.solve(L.conj().T, y), norm, cond


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
    norm, rows, _, _ = _prefix_residuals(config.target, freqs, config.weight,
                                         config.floor, config.tol, sizes)
    records = [ResidualRecord(N, res, norm, cond)
               for N, (res, cond) in zip(N_list, rows)]
    return ResidualCurve(records, config.digest())
