"""Deterministic adaptive quadrature on Gauss-Kronrod 7/15 panel pairs,
with Filon weights on them for fourier_coefficients.

Integrands are vectorized: they take a 1-d numpy array of abscissae and
return an array of the same shape, real for fourier_coefficients.  All
panel bookkeeping is deterministic (ties broken by position, final
summation in a fixed order), so repeated runs are bit-identical.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureResult", "decades", "fourier_coefficients",
           "integrate_finite", "integrate_left_halfline", "require"]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]: the QUADPACK qk15
# abscissae and weights (Piessens et al., 1983), to full double precision.
_XK_POS = (0.991455371120812639206854697526329,
           0.949107912342758524526189684047851,
           0.864864423359769072789712788640926,
           0.741531185599394439863864773280788,
           0.586087235467691130294144845693013,
           0.405845151377397166906606412076961,
           0.207784955007898467600689403773245)
_WK_HALF = (0.022935322010529224963732008058970,
            0.063092092629978553290700663189204,
            0.104790010322250183839876322541518,
            0.140653259715525918745189590510238,
            0.169004726639267902826583426598550,
            0.190350578064785409913256402421014,
            0.204432940075298892414161999234649,
            0.209482141084727828012999174891714)
_WG_HALF = (0.129484966168869693270611432679082,
            0.279705391489276667901467771423780,
            0.381830050505118944950369775488975,
            0.417959183673469387755102040816327)
_XK = np.array([-x for x in _XK_POS] + [0.0] + list(_XK_POS[::-1]))
_WK = np.array(_WK_HALF + _WK_HALF[-2::-1])
_WG = np.array(_WG_HALF + _WG_HALF[-2::-1])
# fourier_coefficients' Filon rule: the Legendre coefficients of the
# degree-14 interpolant on the nodes (C15) and of the degree-6 one on the
# Gauss nodes (C7) are (n + 1/2) w_j P_n(x_j) where the rule is exact, all
# of C7 and C15's rows n <= 8; C15's rows 9..14 solve the rest by
# elimination.  No constant calls LAPACK or numpy's integer, power, outer
# or accumulate loops: each first call adds 0.1-0.4 MB to a process's peak.
_N, _P = np.arange(15), np.ones((15, 15))
_P[1] = _XK
for _n in range(1, 14):
    _P[_n + 1] = ((2 * _n + 1) * _XK * _P[_n] - _n * _P[_n - 1]) / (_n + 1)
_C15 = (_N + 0.5)[:, None] * _WK * _P
_A = np.hstack([(_WK * _P[9:, None] * _P[9:]).sum(axis=-1), _WK * _P[9:]])
for _n in range(6):
    _row = _A[_n] / _A[_n, _n]
    _A -= _A[:, _n, None] * _row
    _A[_n] = _row
_C15[9:] = _A[:, 6:]
_C7 = np.zeros((15, 15))
_C7[:7, 1::2] = (_N[:7] + 0.5)[:, None] * _WG * _P[:7, 1::2]
# a panel's 31 sums: K's (C15) and K - G's (C15 - C7) coefficients times
# Re or Im 2 (-i)^n, and A's, Kronrod's weights times sgn(x), summing to 0
_SIGN = np.array([2.0, -2.0, -2.0, 2.0] * 4)[:15, None]
_FILON = np.vstack([_SIGN * _C15, _SIGN * (_C15 - _C7), _WK * np.sign(_XK)]).T
# j_n(w) / w^n as a series in w^2, (-1/2)^k / (k! (2n + 2k + 1)!!), to the
# 13 terms past which the rest is below 2^-60 of the first at |w| < 2
_SERIES = np.array([[(-0.5) ** k / math.factorial(k) / math.prod(range(
    2 * (n + k) + 1, 0, -2)) for k in range(13)] for n in range(15)])
_MAX_ROUNDS = 80
# (panels x 3 frequencies) entries of a block of fourier_coefficients' K,
# K - G and phases: 2**16 take 1 MB, so a block stays near 3 MB
_FOURIER_BLOCK = 1 << 16
_SAMPLE_PANELS = 256   # panels _sample samples at a time
# integrand evaluations one integral spends at most: the adaptive loops
# stop once past it, fourier_coefficients' before a halving would pass it
_MAX_EVALS = 2_000_000


@dataclass
class QuadratureResult:
    """Value, error estimate, integrand evaluations and whether the estimate
    met the tolerance.  fourier_coefficients gives value and error as arrays
    over its frequencies; blaschke.compute_G gives converged too, per s."""

    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool


def require(res, what):
    """Raise ArithmeticError, naming what was integrated and the error it
    reached, unless res converged.  The CLI maps the error to exit 3."""
    if not res.converged:
        raise ArithmeticError(
            f"{what}: quadrature did not converge "
            f"(error {res.abs_error_estimate:.2e})")


def _distinct(x):
    """The distinct values of x in increasing order, as np.unique gives
    them, which in numpy 2.4 imports numpy.ma on first use."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _scaled(raw, resasc):
    """QUADPACK's error estimate from the raw |K - G| and resasc, the
    Kronrod-weighted deviation from the panel mean: raw |K-G| is optimistic
    on unresolved panels, so it is rescaled to
    resasc * min(1, (200 raw / resasc)^1.5), or raw where resasc is 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(resasc > 0,
                        resasc * np.minimum(1.0, (200.0 * raw
                                                  / np.maximum(resasc, 1e-300))
                                            ** 1.5),
                        raw)


def _rescale(raw, resasc):
    """_scaled(raw, max(resasc, 200 raw)), raw overwritten, in fewer passes:
    with r = 200 raw, resasc (r/resasc)^1.5 is r sqrt(r/resasc), as
    resasc >= r.  The subnormal floor only meets resasc = r = 0."""
    raw *= 200.0
    resasc = np.maximum(resasc, np.maximum(raw, 5e-324))   # subnormal floor
    np.divide(raw, resasc, out=resasc)
    np.sqrt(resasc, out=resasc)
    resasc *= raw
    return resasc


def _eval_panels(f, lo, hi):
    """Kronrod values, error estimates and sample count of f on the panels
    [lo, hi], each sampled at the 15 nodes."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.ravel()), dtype=np.complex128).reshape(x.shape)
    vk = np.einsum("...j,j->...", y, _WK) * half
    vg = np.einsum("...j,j->...", y[..., 1::2], _WG) * half
    mean = vk / (2.0 * half)
    resasc = np.einsum("...j,j->...", np.abs(y - mean[..., None]), _WK) * half
    return vk, _scaled(np.abs(vk - vg), resasc), y.size


def decades(scale, floor):
    """scale times 10^-1, ..., 10^-8, those below floor dropped: seed
    breakpoints toward a point scale away where f is not smooth.  With floor
    tol they stop where a panel holds less than tol of an f of order 1."""
    return [d for d in (scale * 10.0 ** -k for k in range(1, 9)) if d >= floor]


def integrate_finite(f, a, b, tol, points=(), max_evals=_MAX_EVALS):
    """Adaptive integral of f over [a, b] to absolute tolerance tol.

    The seed mesh is [a, b] broken at the ``points`` inside it, where f is
    only piecewise smooth (decades toward a singular end) or oscillates (a
    caller's quarter periods).  Adaptivity then halves each panel wider than
    the width floor whose error is above its share of tol, and stops when
    none is left, or once past max_evals integrand evaluations.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = _distinct(np.clip(np.concatenate([[a, b], points]), a, b))
    lo, hi = edges[:-1], edges[1:]
    val, err, evals = _eval_panels(f, lo, hi)
    min_width = 1e-14 * max(b - a, abs(b), abs(a))

    for _ in range(_MAX_ROUNDS):
        if err.sum() <= tol or evals >= max_evals:
            break
        thresh = max(tol / (2.0 * len(lo)), 0.0)
        pick = ((hi - lo) > min_width) & (err > thresh)
        if not pick.any():
            break
        keep = ~pick
        mid = 0.5 * (lo[pick] + hi[pick])
        lo = np.concatenate([lo[keep], lo[pick], mid])
        hi = np.concatenate([hi[keep], mid, hi[pick]])
        new = slice(int(keep.sum()), None)
        new_val, new_err, n = _eval_panels(f, lo[new], hi[new])
        evals += n
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])

    order = np.argsort(lo, kind="stable")
    total_err = float(err.sum())
    return QuadratureResult(complex(val[order].sum()), total_err, evals,
                            total_err <= tol)


def integrate_left_halfline(f, tol):
    """Integral of f over (-inf, 0] for f with |f(u)| <= M/(1+|u|)^2.

    Uses u = -s/(1-s) to map onto [0, 1), its seed broken at the decades
    toward both ends: s -> 0 is u -> 0, where every jump integrand has its
    |u|^(5/2) edge, and s -> 1 is the end of the map.
    The sliver beyond the map's resolution is covered by the tail bound of
    that decay, every jump integrand's, added to the error estimate; converged
    means that the total, tail included, is within tol.  The tail is known
    first, so the quadrature is asked for what it leaves of tol (all of tol
    when the tail alone exceeds it; the result is then unconverged).
    """
    s_max = 1.0 - 1e-12
    cap = s_max / (1.0 - s_max)

    def transformed(s):
        u = -s / (1.0 - s)
        return np.asarray(f(u), dtype=np.complex128) / (1.0 - s) ** 2

    probes = np.array([-cap, -0.5 * cap, -0.1 * cap, -1e-2 * cap])
    m_est = float(np.max(np.abs(np.asarray(f(probes), dtype=np.complex128))
                         * (1.0 + np.abs(probes)) ** 2))
    tail = 2.0 * m_est / (1.0 + cap)

    rest = tol - tail if tail < tol else tol
    steps = decades(s_max, rest)
    res = integrate_finite(transformed, 0.0, s_max, rest,
                           points=steps + [s_max - d for d in steps])
    error = res.abs_error_estimate + tail
    return QuadratureResult(res.value, error, res.evaluations + probes.size,
                            error <= tol)


def fourier_coefficients(f, freqs, tol, breakpoints=(0.0, 1.0), pieces=1):
    """Integrals of f(t) exp(-2 pi i nu t) over the breakpoints' span at
    each real frequency nu of the 1-d array freqs, f real and hashable.

    One Filon rule (Iserles and Norsett, Proc. R. Soc. A 461, 2005) serves
    every nu: on a panel of midpoint m and half-width h, K is h e^(-2 pi i
    nu m) times the integral of f's degree-14 interpolant on the Kronrod
    nodes against e^(-i w x), w = 2 pi nu h, its Legendre coefficients
    times the moments 2 (-i)^n j_n(w); G is the degree-6 one's on the Gauss
    nodes; at w = 0 they are the Kronrod and Gauss sums.  The error is
    QUADPACK's rescaling of |K - G| with max(|A|, 200 |K - G|) for resasc,
    A the phase-free sum of f times Kronrod's weights times sgn(x_j).

    The seed cuts each interval between breakpoints into `pieces` equal
    panels (one count, or a tuple of one per interval); _seed_samples
    keeps f's sums on them for the last eight seeds, with the seed's last
    result: a repeat samples only the panels it splits, or, at the same
    bits of freqs and tol, returns that result.  A panel whose error at
    some nu is above its share of tol (tol times its width over the span)
    is halved, until none is, a halving would pass _MAX_EVALS, or the
    width floor.  Returns a QuadratureResult of read-only arrays over
    freqs, with every node counted, and converged if every nu met tol.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    edges = np.asarray(breakpoints, dtype=np.float64)
    if (freqs.ndim != 1 or not freqs.size or not np.isfinite(freqs).all()
            or edges.size < 2 or not (edges[1:] > edges[:-1]).all()):
        raise ValueError(f"need a nonempty 1-d array of finite frequencies "
                         f"and increasing breakpoints, got {freqs.size} "
                         f"frequencies, breakpoints {breakpoints}")
    mid, half, sums, kept = _seed_samples(f, tuple(edges), pieces)
    key = (freqs.tobytes(), tol)
    if kept[0] == key:
        return kept[1]
    share = tol / (edges[-1] - edges[0])            # of tol per unit width
    min_half = 0.5e-14 * max(edges[-1] - edges[0], np.abs(edges).max())
    # the kept panels' sums, and this round's others'
    values = np.zeros((2, freqs.size), dtype=np.complex128)
    errors, evals = np.zeros((2, freqs.size)), 0
    while True:
        values[1] = errors[1] = 0.0
        split = np.zeros(mid.size, dtype=bool)
        for rows, vals, errs in _fourier_panels(freqs, mid, half, sums):
            split[rows] = ((errs.max(axis=1) > share * 2.0 * half[rows])
                           & (half[rows] > min_half))
            both = np.array([~split[rows], split[rows]], dtype=np.float64)
            values += (both @ vals.view(np.float64)).view(np.complex128)
            errors += both @ errs
        evals += mid.size * _XK.size
        n_split = int(split.sum())
        if not n_split or evals + 2 * n_split * _XK.size > _MAX_EVALS:
            values, errors = values.sum(axis=0), errors.sum(axis=0)
            values.flags.writeable = errors.flags.writeable = False
            kept[:] = key, QuadratureResult(values, errors, evals,
                                            bool(errors.max() <= tol))
            return kept[1]
        # each panel's halves side by side, so the half-widths stay sorted
        half = np.repeat(0.5 * half[split], 2)
        mid = np.repeat(mid[split], 2) + half * np.tile([-1.0, 1.0], n_split)
        sums = _sample(f, mid, half)


def _sample(f, mid, half):
    """h times the sums _FILON takes of a real f at the nodes of the panels
    (mid, half), one row per panel, into a float64 array (complex samples
    raise TypeError): f is sampled in blocks, so its temporaries stay small."""
    sums = np.empty((mid.size, _FILON.shape[1]))
    for p0 in range(0, mid.size, _SAMPLE_PANELS):
        rows = slice(p0, p0 + _SAMPLE_PANELS)
        x = mid[rows, None] + half[rows, None] * _XK
        y = np.asarray(f(x.ravel())).reshape(x.shape) * half[rows, None]
        np.matmul(y, _FILON, out=sums[rows])
    return sums


@functools.lru_cache(maxsize=8)
def _seed_samples(f, edges, pieces):
    """(mid, half, sums, kept): the seed panels, `pieces` equal ones per
    interval between edges, sorted by half-width, _sample of them, all
    read-only, and the slot kept = [key, result] of its last reduction."""
    edges, n = np.array(edges), np.broadcast_to(pieces, len(edges) - 1)
    half = np.repeat(0.5 * np.diff(edges) / n, n)
    # panel k of an interval [a, b] has its midpoint at a + (2k + 1) h
    k = np.arange(half.size) - np.repeat(np.cumsum(n) - n, n)
    order = np.argsort(half, kind="stable")
    mid = (np.repeat(edges[:-1], n) + (2.0 * k + 1.0) * half)[order]
    half = half[order]
    sums = _sample(f, mid, half)
    for a in (mid, half, sums):
        a.flags.writeable = False
    return mid, half, sums, [None, None]


def _spherical_jn(w):
    """j_0..j_14 at each w, one row per order: the power series below
    |w| = 2, Miller's downward recurrence, scaled to the larger of j_0 and
    j_1, below 14, and from 14 on the upward one, stable to order |w|."""
    a = np.abs(w)
    j = np.empty((15,) + a.shape)
    low, high = a < 2.0, a >= 14.0
    x = a[low]
    j[:, low] = x ** _N[:, None] * (_SERIES @ (x * x) ** _N[:13, None])
    for part in (~(low | high), high):
        x, up = a[part], part is high
        if not x.size:
            continue
        top = 14 if up else 18 + int(x.max())
        inv, r = 1.0 / x, np.empty((top + 2, x.size))
        j0 = r[0] = np.sin(x) * inv
        j1 = r[1] = (j0 - np.cos(x)) * inv
        r[top:] = [[1.0], [0.0]]     # Miller's start; going up, overwritten
        # r_(n -+ 1) = (2n + 1) r_n / x - r_(n +- 1), in place (3x faster)
        for n in range(1, 14) if up else range(top, 0, -1):
            new, old = (n + 1, n - 1) if up else (n - 1, n + 1)
            np.multiply(inv, 2 * n + 1, out=r[new])
            r[new] *= r[n]
            r[new] -= r[old]
        big = np.abs(j0) >= np.abs(j1)
        j[:, part] = r[:15] if up else r[:15] * (
            np.where(big, j0, j1) / np.where(big, r[0], r[1]))
    j[1::2] *= np.sign(w)
    return j


def _fourier_panels(freqs, mid, half, sums):
    """Yield (panel indices, values, errors) over blocks of the panels,
    sorted by half-width: per row a panel's K and error at each frequency,
    from its sums (_sample)."""
    nf = freqs.size
    rows = max(1, _FOURIER_BLOCK // (3 * nf))
    starts = np.flatnonzero(np.concatenate(([True], half[1:] != half[:-1])))
    runs = list(zip(starts.tolist(), starts[1:].tolist() + [half.size]))
    # per half-width and frequency, j_n in the column of Re (n even) or Im
    jn = _spherical_jn(2.0 * np.pi * np.outer(half[starts], freqs))
    moments = (jn.swapaxes(0, 1)[..., None] * np.eye(2)[_N % 2, None]
               ).reshape(starts.size, 15, 2 * nf)
    for p0 in range(0, half.size, rows):
        idx = slice(p0, min(p0 + rows, half.size))
        kg = np.empty((idx.stop - p0, 2, 2 * nf))
        for w, (lo, hi) in enumerate(runs):
            lo, hi = max(lo, p0), min(hi, idx.stop)
            if lo < hi:
                np.matmul(sums[lo:hi, :30].reshape(-1, 15), moments[w],
                          out=kg[lo - p0:hi - p0].reshape(-1, 2 * nf))
        kg = kg.view(np.complex128)
        # the phase rounds as nu m does, not as 2 pi nu m
        cycles = np.outer(mid[idx], freqs)
        kg[:, 0] *= np.exp(-2j * np.pi * (cycles - np.round(cycles)))
        yield idx, kg[:, 0], _rescale(np.abs(kg[:, 1]), np.abs(sums[idx, 30:]))
