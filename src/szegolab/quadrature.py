"""Deterministic adaptive quadrature on Gauss-Kronrod 7/15 panel pairs.

Integrands are vectorized: they take a 1-d numpy array of abscissae and
return an array of the same shape, real for fourier_coefficients.  All
panel bookkeeping is deterministic (ties broken by position, final
summation in left-to-right order), so repeated runs are bit-identical.
"""

import functools
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
# fourier_coefficients' rows of weights on the 15 nodes: Kronrod's, Kronrod's
# less Gauss's, and Kronrod's times sgn(x), which sum to zero
_W3 = np.array([_WK, _WK, _WK * np.sign(_XK)])
_W3[1, 1::2] -= _WG

_MAX_ROUNDS = 80
# complex entries in one block's (panels x 3 frequencies) product in
# fourier_coefficients: 2**16 entries take 1 MB; with the block's other
# (panels x frequencies) arrays and a run's step table, a third of that, a
# block stays near 3 MB whatever the number of frequencies
_FOURIER_BLOCK = 1 << 16
_SAMPLE_PANELS = 256   # panels _sample samples at a time
# integrand evaluations one integral spends at most: integrate_finite and
# integrate_left_halfline stop their adaptive loop once past it, and
# fourier_coefficients refuses seeds and halvings that would pass it
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
    """_scaled(raw, max(resasc, 200 raw)) in place, in the arrays given,
    with fewer passes: with r = 200 raw, resasc (r/resasc)^1.5 is
    r sqrt(r/resasc), where min(1, .) never binds, since resasc >= r.  The
    smallest subnormal floor only meets resasc = r = 0, where it gives 0."""
    raw *= 200.0
    np.maximum(resasc, raw, out=resasc)
    np.maximum(resasc, np.finfo(np.float64).smallest_subnormal, out=resasc)
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


def fourier_coefficients(f, freqs, tol, breakpoints=(0.0, 1.0), nu_max=None):
    """Integrals of f(t) exp(-2 pi i nu t) over the breakpoints' span, for
    every real frequency nu in the 1-d array freqs.

    One composite Gauss-Kronrod 7/15 rule serves every frequency, so f,
    which is real (complex samples raise TypeError), is sampled once per
    node, by _sample.  Each interval between consecutive breakpoints
    starts as equal panels no wider than half a period of nu_max (by
    default the largest |nu|); a seed past the seed cap raises ValueError
    before f is sampled.  A given nu_max is a kept seed: f is hashable,
    and _seed_samples keeps its panels and samples for the last four (f,
    breakpoints, nu_max) and its last result: a repeat samples only the
    split panels, or, at the same bits of freqs and the same tol, returns
    that result, its arrays read-only, and reduces nothing.  On a panel
    with midpoint m and half-width h, exp(-2 pi i nu t) is the phase
    exp(-2 pi i nu m) times the table exp(-2 pi i nu h x_j) that all
    panels of width 2h share; seed panels step by 2h, so a block's phases
    are its first row's times a step table exp(-2 pi i nu 2h r), and a
    split panel's phase is one exp.  One matrix product per block, samples
    (panels x 15 nodes) times the (re, im) pairs of the table under three
    rows of weights, gives the Kronrod sum K, the difference K - G from
    the Gauss sum and the antisymmetric sum A of the Kronrod weights times
    sgn(x_j).  Those weights sum to zero, so A is the same sum taken about
    the panel mean, and |A| is at most QUADPACK's resasc.  The error is
    QUADPACK's rescaling of raw = |K - G| with max(|A|, 200 raw) in place
    of resasc: the rescaled error is largest at resasc = 200 raw and falls
    beyond it, so this error is never below QUADPACK's, up to rounding
    where |A| tends to resasc (nu near 0 on a panel where f is monotone).

    A panel is kept when its error at every frequency is within its share
    of tol (tol times its width over the span), so the kept panels' errors
    sum to at most tol at every frequency; the others are halved and
    evaluated again, until every panel is kept, a halving would pass
    _MAX_EVALS, or the panels reach the width floor.

    Returns a QuadratureResult whose value and abs_error_estimate are arrays
    over freqs, and whose evaluations count the rule's nodes, kept samples
    included; converged means that every frequency met tol.  The Fourier
    coefficients of f on [0, 1] are freqs = np.arange(K + 1).
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    edges = np.asarray(breakpoints, dtype=np.float64)
    if (freqs.ndim != 1 or not freqs.size or not np.all(np.isfinite(freqs))
            or edges.size < 2 or not np.all(np.diff(edges) > 0)):
        raise ValueError(f"need a nonempty 1-d array of finite frequencies "
                         f"and increasing breakpoints, got {freqs.size} "
                         f"frequencies, breakpoints {breakpoints}")
    if nu_max is None:
        mid, half, runs = _fourier_mesh(edges, np.abs(freqs).max())
        samples, kept = _sample(f, mid, half), None
    else:
        mid, half, runs, samples, kept = _seed_samples(f, tuple(edges), nu_max)
        key = (freqs.tobytes(), tol)
        if kept[0] == key:
            return kept[1]
    share = tol / (edges[-1] - edges[0])            # of tol per unit width
    min_half = 0.5e-14 * max(edges[-1] - edges[0], np.abs(edges).max())
    values = np.zeros(freqs.size, dtype=np.complex128)
    errors = np.zeros(freqs.size)
    evals = 0
    while True:
        rest_values = np.zeros_like(values)
        rest_errors = np.zeros_like(errors)
        split = np.zeros(mid.size, dtype=bool)
        for rows, vals, errs in _fourier_panels(freqs, mid, half, samples,
                                                runs):
            bad = ((errs.max(axis=1) > share * 2.0 * half[rows])
                   & (half[rows] > min_half))
            # the kept panels, nearly all of a block, summed by one product
            good = (~bad).astype(np.float64)
            values += (good @ vals.view(np.float64)).view(np.complex128)
            errors += good @ errs
            rest_values += vals[bad].sum(axis=0)
            rest_errors += errs[bad].sum(axis=0)
            split[rows] = bad
        evals += mid.size * _XK.size
        n_split = int(split.sum())
        if not n_split or evals + 2 * n_split * _XK.size > _MAX_EVALS:
            values += rest_values
            errors += rest_errors
            res = QuadratureResult(values, errors, evals,
                                   bool(errors.max() <= tol))
            if kept is not None:
                values.flags.writeable = errors.flags.writeable = False
                kept[:] = key, res
            return res
        quarter = 0.5 * half[split]
        mid = np.concatenate([mid[split] - quarter, mid[split] + quarter])
        half = np.concatenate([quarter, quarter])
        samples, runs = _sample(f, mid, half), None


def _fourier_mesh(edges, nu_max):
    """Midpoints, half-widths and runs of the seed panels: each interval
    between edges in equal panels no wider than half a period of nu_max
    (ceil adds at most one per interval), one panel at nu_max 0, its
    panels' indices one run.  A nu_max past the seed cap raises ValueError."""
    cap = _MAX_EVALS // _XK.size / (2 * (edges[-1] - edges[0]))
    if nu_max > cap:
        raise ValueError(f"nu_max {nu_max:g} is past the seed cap {cap:.6g}")
    widths = np.diff(edges)
    counts = np.maximum(np.ceil(widths * 2 * nu_max), 1).astype(np.int64)
    mid = np.concatenate([a + h * (2.0 * np.arange(n) + 1.0) for a, h, n
                          in zip(edges[:-1], 0.5 * widths / counts, counts)])
    return (mid, np.repeat(0.5 * widths / counts, counts),
            [np.arange(e - n, e) for e, n in zip(np.cumsum(counts), counts)])


def _sample(f, mid, half):
    """A real f at the nodes of the panels (mid, half), one row per panel:
    sampled in blocks, so f's temporaries stay small, into a C-contiguous
    float64 array (complex samples raise TypeError)."""
    y = np.empty((mid.size, _XK.size))
    for p0 in range(0, mid.size, _SAMPLE_PANELS):
        rows = slice(p0, p0 + _SAMPLE_PANELS)
        x = mid[rows, None] + half[rows, None] * _XK
        np.copyto(y[rows], np.asarray(f(x.ravel())).reshape(x.shape))
    return y


@functools.lru_cache(maxsize=4)
def _seed_samples(f, edges, nu_max):
    """(mid, half, runs, samples, kept): the seed panels _fourier_mesh(edges,
    nu_max), _sample of them, read-only as mid and half are, and the slot
    kept = [key, result] of the seed's last reduction, [None, None] at first."""
    mid, half, runs = _fourier_mesh(edges, nu_max)
    y = _sample(f, mid, half)
    for a in (mid, half, y):
        a.flags.writeable = False
    return mid, half, runs, y, [None, None]


def _phase(cycles):
    """exp(-2 pi i cycles), rounding as cycles does, not as 2 pi cycles."""
    return np.exp(-2j * np.pi * (cycles - np.round(cycles)))


def _fourier_panels(freqs, mid, half, samples, runs=None):
    """Yield (panel indices, values, errors) over blocks of panels, each row
    a panel's Kronrod value of f(t) exp(-2 pi i nu t) and its error, one
    column per frequency nu, from samples, f at the panels' nodes, one row
    per panel, by runs of panels of one half-width h whose midpoints step
    by 2h (else by half-width)."""
    nf = freqs.size
    rows = max(1, _FOURIER_BLOCK // (3 * nf))
    for run in runs or [np.flatnonzero(half == h) for h in _distinct(half)]:
        h = half[run[0]]
        # the table at the nodes x >= 0, its conjugate at -x, under the
        # rows of weights of K, K - G and A, times h
        right = _phase(h * np.outer(_XK[7:], freqs))
        weights = np.hstack(h * _W3[:, :, None] * np.concatenate(
            [right[:0:-1].conj(), right]))
        if runs:
            kronrod = weights[:, :nf].copy()
            step = _phase(np.outer(2.0 * h * np.arange(min(rows, run.size)),
                                   freqs))
        for p0 in range(0, run.size, rows):
            idx = run[p0:p0 + rows]
            if runs:
                # the block's first phase, carried by the Kronrod weights
                weights[:, :nf] = kronrod * _phase(mid[idx[0]] * freqs)
            sums = (samples[idx] @ weights.view(np.float64)).view(
                np.complex128)
            # |antisymmetric sum| <= QUADPACK's resasc, and the rescaled error
            # only falls as resasc grows beyond 200 raw
            err = _rescale(np.abs(sums[:, nf:2 * nf]),
                           np.abs(sums[:, 2 * nf:]))
            yield idx, sums[:, :nf] * (step[:idx.size] if runs else _phase(
                np.outer(mid[idx], freqs))), err
