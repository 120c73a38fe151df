"""Deterministic adaptive quadrature on Gauss-Kronrod 7/15 panel pairs.

Integrands are complex-valued and vectorized: they receive a 1-d numpy
array of abscissae and return an array of the same shape.  All panel
bookkeeping is deterministic (ties broken by position, final summation in
left-to-right order), so repeated runs are bit-identical.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureResult", "fourier_coefficients", "integrate_finite",
           "integrate_left_halfline", "require"]

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
# the Gauss weights on the 15 Kronrod nodes, and the Kronrod weights times
# sgn(x), which sum to zero
_WG15 = np.zeros(_XK.size)
_WG15[1::2] = _WG
_WK_ODD = _WK * np.sign(_XK)

_MAX_ROUNDS = 80
# complex entries in one block's (panels x 3 frequencies) product in
# fourier_coefficients: 2**16 entries take 1 MB, and with the block's other
# (panels x frequencies) arrays a block stays near 3 MB whatever the number
# of frequencies
_FOURIER_BLOCK = 1 << 16
# integrand evaluations one integral spends at most: integrate_finite and
# integrate_left_halfline stop their adaptive loop once past it, and
# fourier_coefficients halves no panels that would take it beyond
_MAX_EVALS = 2_000_000


@dataclass
class QuadratureResult:
    """Value, error estimate, integrand evaluations and whether the estimate
    met the tolerance.  fourier_coefficients returns arrays over its
    frequencies as value and abs_error_estimate, and blaschke.compute_G
    over its s, converged included."""

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


def _gk15(y, half):
    """Kronrod values and error estimates of panels sampled at the 15 nodes.

    ``y`` holds the samples on its last axis; ``half`` is the panel
    half-width, broadcast against the other axes.
    """
    vk = np.einsum("...j,j->...", y, _WK) * half
    vg = np.einsum("...j,j->...", y[..., 1::2], _WG) * half
    mean = vk / (2.0 * half)
    resasc = np.einsum("...j,j->...", np.abs(y - mean[..., None]), _WK) * half
    return vk, _scaled(np.abs(vk - vg), resasc)


def _eval_panels(f, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    y = np.asarray(f(x.ravel()), dtype=np.complex128).reshape(x.shape)
    vk, err = _gk15(y, half)
    return vk, err, x.size


def _adaptive(f, breakpoints, tol, max_evals):
    lo = np.asarray(breakpoints[:-1], dtype=np.float64)
    hi = np.asarray(breakpoints[1:], dtype=np.float64)
    val, err, n = _eval_panels(f, lo, hi)
    evals = n
    span = float(hi[-1] - lo[0])
    min_width = 1e-14 * max(span, abs(hi[-1]), abs(lo[0]))

    for _ in range(_MAX_ROUNDS):
        total = err.sum()
        if total <= tol or evals >= max_evals:
            break
        splittable = (hi - lo) > min_width
        if not splittable.any():
            break
        thresh = max(tol / (2.0 * len(lo)), 0.0)
        pick = splittable & (err > thresh)
        if not pick.any():
            worst = np.where(splittable)[0][np.argmax(err[splittable])]
            pick = np.zeros(len(lo), dtype=bool)
            pick[worst] = True
        keep = ~pick
        mid = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate([lo[keep], lo[pick], mid])
        new_hi = np.concatenate([hi[keep], mid, hi[pick]])
        new_val, new_err, n = _eval_panels(f, new_lo[len(lo[keep]):],
                                           new_hi[len(lo[keep]):])
        evals += n
        lo = new_lo
        hi = new_hi
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])

    order = np.argsort(lo, kind="stable")
    total_err = float(err.sum())
    return QuadratureResult(complex(val[order].sum()), total_err, evals,
                            total_err <= tol)


def integrate_finite(f, a, b, tol, singular_ends=(), omega=0.0,
                     max_evals=_MAX_EVALS):
    """Adaptive integral of f over [a, b] to absolute tolerance tol.

    The seed mesh has equal panels no wider than a quarter period of
    ``omega``, the dominant frequency of an oscillatory f in cycles per
    unit (one panel when omega is 0, at most max_evals/15), and geometric
    points at 10^-1 .. 10^-8 of the width from each endpoint named in
    ``singular_ends`` ('a' and/or 'b'), where f is singular or not smooth.
    Adaptivity then takes over, and stops once past max_evals integrand
    evaluations.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    width = b - a
    quarters = int(np.ceil(width * 4.0 * abs(omega)))
    pts = []
    if "a" in singular_ends:
        pts += [a + width * 10.0 ** (-k) for k in range(1, 9)]
    if "b" in singular_ends:
        pts += [b - width * 10.0 ** (-k) for k in range(1, 9)]
    seeds = np.linspace(a, b, max(min(quarters, max_evals // 15), 1) + 1)
    return _adaptive(f, _distinct(np.concatenate([seeds, pts])), tol,
                     max_evals)


def integrate_left_halfline(f, decay_exponent, tol):
    """Integral of f over (-inf, 0] for f with |f(u)| <= M/(1+|u|)^p, p > 1.

    Uses u = -s/(1-s) to map onto [0, 1); the sliver beyond the map's
    resolution is covered by the declared algebraic tail bound, which is
    added to the error estimate; converged means that the total, tail
    included, is within tol.  The tail is known first, so the quadrature is
    asked for what it leaves of tol (all of tol when the tail alone exceeds
    it; the result is then unconverged).
    """
    p = float(decay_exponent)
    if p <= 1:
        raise ValueError("decay_exponent must exceed 1")
    s_max = 1.0 - 1e-12
    cap = s_max / (1.0 - s_max)

    def transformed(s):
        u = -s / (1.0 - s)
        return np.asarray(f(u), dtype=np.complex128) / (1.0 - s) ** 2

    probes = np.array([-cap, -0.5 * cap, -0.1 * cap, -1e-2 * cap])
    m_est = float(np.max(np.abs(np.asarray(f(probes), dtype=np.complex128))
                         * (1.0 + np.abs(probes)) ** p))
    tail = 2.0 * m_est / ((p - 1.0) * (1.0 + cap) ** (p - 1.0))

    res = integrate_finite(transformed, 0.0, s_max,
                           tol - tail if tail < tol else tol)
    error = res.abs_error_estimate + tail
    return QuadratureResult(res.value, error, res.evaluations + probes.size,
                            error <= tol)


def fourier_coefficients(f, freqs, tol, breakpoints=(0.0, 1.0)):
    """Integrals of f(t) exp(-2 pi i nu t) over the breakpoints' span, for
    every real frequency nu in the 1-d array freqs.

    One composite Gauss-Kronrod 7/15 rule serves every frequency, so f is
    sampled once per node.  Each interval between consecutive breakpoints
    starts as equal panels no wider than half a period of the largest |nu|.
    On a panel with midpoint m and half-width h, exp(-2 pi i nu t) is
    exp(-2 pi i nu m) times the table exp(-2 pi i nu h x_j) that all panels
    of width 2h share; the first factor has modulus one, so each panel's
    error needs only the table, and the phase enters only the value sum.
    One matrix product per block of panels, samples (panels x 15 nodes)
    times the table under three rows of weights, gives at every frequency
    the Kronrod sum K, the Gauss sum G and the antisymmetric sum A of the
    Kronrod weights times sgn(x_j); no (panel x frequency x node) array is
    formed.  Those weights sum to zero, so A is the same sum taken about the
    panel mean, and |A| is at most QUADPACK's resasc.  The error is
    QUADPACK's rescaling of raw = |K - G| with max(|A|, 200 raw) in place of
    resasc: the rescaled error is largest at resasc = 200 raw and falls
    beyond it, so this error is never below QUADPACK's.

    A panel is kept when its error at every frequency is within its share
    of tol (tol times its width over the span), so the kept panels' errors
    sum to at most tol at every frequency; the others are halved and
    evaluated again, until every panel is kept, or a halving would take the
    nodes evaluated beyond _MAX_EVALS, or the panels reach the width floor.

    Returns a QuadratureResult whose value and abs_error_estimate are arrays
    over freqs; converged means that every frequency met tol.  The Fourier
    coefficients of f on [0, 1] are freqs = np.arange(K + 1).
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    edges = np.asarray(breakpoints, dtype=np.float64)
    widths = np.diff(edges)
    if (freqs.ndim != 1 or not freqs.size or not np.all(np.isfinite(freqs))
            or edges.size < 2 or not np.all(widths > 0)):
        raise ValueError(f"need a nonempty 1-d array of finite frequencies "
                         f"and increasing breakpoints, got {freqs.size} "
                         f"frequencies, breakpoints {breakpoints}")
    counts = np.maximum(np.ceil(widths * 2 * np.abs(freqs).max()),
                        1).astype(np.int64)
    half = np.repeat(0.5 * widths / counts, counts)
    mid = np.concatenate([a + h * (2.0 * np.arange(n) + 1.0) for a, h, n
                          in zip(edges[:-1], 0.5 * widths / counts, counts)])
    share = tol / (edges[-1] - edges[0])            # of tol per unit width
    min_half = 0.5e-14 * max(edges[-1] - edges[0], np.abs(edges).max())
    values = np.zeros(freqs.size, dtype=np.complex128)
    errors = np.zeros(freqs.size)
    evals = 0
    while True:
        rest_values = np.zeros_like(values)
        rest_errors = np.zeros_like(errors)
        split = np.zeros(mid.size, dtype=bool)
        for rows, vals, errs in _fourier_panels(f, freqs, mid, half):
            bad = ((errs.max(axis=1) > share * 2.0 * half[rows])
                   & (half[rows] > min_half))
            values += vals[~bad].sum(axis=0)
            errors += errs[~bad].sum(axis=0)
            rest_values += vals[bad].sum(axis=0)
            rest_errors += errs[bad].sum(axis=0)
            split[rows] = bad
        evals += mid.size * _XK.size
        n_split = int(split.sum())
        if not n_split or evals + 2 * n_split * _XK.size > _MAX_EVALS:
            values += rest_values
            errors += rest_errors
            return QuadratureResult(values, errors, evals,
                                    bool(errors.max() <= tol))
        quarter = 0.5 * half[split]
        mid = np.concatenate([mid[split] - quarter, mid[split] + quarter])
        half = np.concatenate([quarter, quarter])


def _fourier_panels(f, freqs, mid, half):
    """Yield (panel indices, values, errors) over blocks of panels, each row
    a panel's Kronrod value of f(t) exp(-2 pi i nu t) and its error, one
    column per frequency nu."""
    nf = freqs.size
    rows = max(1, _FOURIER_BLOCK // (3 * nf))
    for h in _distinct(half):
        # Kronrod, Gauss and antisymmetric Kronrod rows of weights times the
        # table, one product per block gives all three sums
        table = np.exp(-2j * np.pi * h * np.outer(_XK, freqs))
        weights = np.concatenate([table * _WK[:, None], table * _WG15[:, None],
                                  table * _WK_ODD[:, None]], axis=1)
        same = np.flatnonzero(half == h)
        for p0 in range(0, same.size, rows):
            idx = same[p0:p0 + rows]
            x = mid[idx, None] + h * _XK
            y = np.asarray(f(x.ravel()), dtype=np.complex128).reshape(x.shape)
            sums = (y @ weights) * h
            vk = sums[:, :nf]
            raw = np.abs(vk - sums[:, nf:2 * nf])
            # |antisymmetric sum| <= QUADPACK's resasc, and the rescaled error
            # only falls as resasc grows beyond 200 raw
            err = _scaled(raw, np.maximum(np.abs(sums[:, 2 * nf:]),
                                          200.0 * raw))
            phase = np.exp(-2j * np.pi * np.outer(mid[idx], freqs))
            yield idx, phase * vk, err
