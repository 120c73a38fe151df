import math
import warnings

import mpmath
import numpy as np
import pytest

from szegolab import deep_zero, quadrature
from szegolab.deep_zero import (SINGULARITY_DELTA, DeepZeroSeries, decay_fit,
                                eval_F, eval_h, eval_h_raw,
                                eval_H_integral, eval_H_series,
                                membership_check, series_coefficients)
from szegolab.weights import make_constant_weight, make_exp_weight


@pytest.fixture(scope="module")
def s20():
    return DeepZeroSeries.build(0, 20)


def test_F_special_values():
    assert abs(eval_F(0.0) - 1.0) < 1e-15
    assert abs(eval_F(1.0)) < 1e-14
    assert abs(eval_F(-1.0) - math.cosh(math.pi / 2)) < 1e-12


def test_F_zeros_at_odd_squares():
    for m in range(6):
        assert abs(eval_F(float((2 * m + 1) ** 2))) < 1e-10


def test_F_matches_mpmath_on_the_disc_of_radius_30():
    """cos(pi sqrt(w)/2) within 1e-14 of a 40-digit mpmath value, relative
    to max(|F|, 1), at random complex and real points with |w| <= 30."""
    rng = np.random.default_rng(7)
    w = rng.uniform(-30.0, 30.0, 2000) + 1j * rng.uniform(-30.0, 30.0, 2000)
    w = np.concatenate([w[np.abs(w) <= 30.0], rng.uniform(-30.0, 30.0, 300),
                        [0.0, 1.0, 9.0, 25.0, -25.0, 25j, -25j, -30.0]])
    got = eval_F(w)
    with mpmath.workdps(40):
        ref = np.array([complex(mpmath.cos(
            mpmath.pi * mpmath.sqrt(mpmath.mpc(v.real, v.imag)) / 2))
            for v in w])
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0))


def test_h_integer_zeros():
    for n in range(-30, 31):
        if n in (0, 1, -1, 9, -9, 25, -25):
            continue
        assert abs(eval_h(complex(n))) < 1e-10, n


def test_h_coefficients_closed_form():
    # h((2k+1)^2) = -(-1)^k * 4(2k+1)/cosh(pi(2k+1)/2)
    coeffs = series_coefficients(0, 6)
    for k, c in enumerate(coeffs):
        n = 2 * k + 1
        ref = -((-1) ** k) * 4 * n / float(mpmath.cosh(mpmath.pi * n / 2))
        assert abs(c - ref) < 1e-12 * max(abs(ref), 1e-6)


def test_h_offset_consistency():
    for m in (0, 1, 2):
        n0 = (2 * m + 1) ** 2
        lim = eval_h(complex(n0))
        errs = [abs(eval_h(complex(n0 + e)) - lim)
                for e in (1e-3, 1e-4, 1e-5)]
        assert errs[0] > errs[1] > errs[2]
        # first-order convergence: error shrinks ~10x per decade
        assert 5 < errs[0] / errs[1] < 20
        assert 5 < errs[1] / errs[2] < 20


def test_h_odd_conjugate_symmetry():
    for x in (2.3, 5.7, 11.2):
        assert abs(eval_h(complex(-x)) + np.conj(eval_h(complex(x)))) < 1e-10


def test_h_raw_agrees_off_singularities():
    z = np.array([2.3 + 0.5j, -4.2 + 1j, 12.0 + 0j])
    assert np.allclose(eval_h(z), eval_h_raw(z), rtol=1e-12, atol=1e-14)


def _nearest_odd_square_loop(x):
    r = math.sqrt(max(x, 0.0))
    m = max(int(round((r - 1.0) / 2.0)), 0)
    candidates = [(2 * m + 1) ** 2]
    if m >= 1:
        candidates.append((2 * m - 1) ** 2)
    candidates.append((2 * m + 3) ** 2)
    return min(candidates, key=lambda n: abs(x - n))


def _eval_h_loop(z):
    """eval_h as a per-point loop with scalar arithmetic: the oracle for the
    vectorized sign fold, singularity test and kernel.  With s the sign of
    Re z and u = s z, h(z) = s e^{i pi z} K(u), where K(u) is
    sin(pi u)/(cos(pi r/2) cosh(pi r/2)), r = sqrt(u), or within
    SINGULARITY_DELTA of the nearest odd square k^2 the local rule
    4k (-1)^((k-1)/2) (1 + (u - k^2)/(4k^2)) / cosh(pi r/2)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    out = np.empty(z.shape, dtype=np.complex128)
    for i, zi in enumerate(z):
        u = -zi if zi.real < 0 else zi
        r = np.sqrt(u)
        ch = np.cosh(0.5 * np.pi * r)
        n0 = _nearest_odd_square_loop(u.real)
        if abs(u - n0) < SINGULARITY_DELTA:
            k = math.isqrt(n0)
            lim = (4.0 if k % 4 == 1 else -4.0) * k
            kernel = lim * (1.0 + (u - n0) / (4.0 * n0)) / ch
        else:
            kernel = np.sin(np.pi * u) / (np.cos(0.5 * np.pi * r) * ch)
        val = np.exp(1j * np.pi * zi) * kernel
        out[i] = -val if zi.real < 0 else val
    return out


def test_eval_h_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    n = 20000
    z = rng.uniform(-250.0, 250.0, n) + 1j * np.where(
        rng.random(n) < 0.3, rng.normal(0.0, 0.5, n), 0.0)
    sq = (2.0 * np.arange(16) + 1.0) ** 2
    d = SINGULARITY_DELTA
    offsets = (0.0, 0.5 * d, -0.99999 * d, d, -d, 0.3j * d,
               0.6 * d + 0.7j * d, 1e-13)
    near = np.concatenate([s * sq + e for s in (1.0, -1.0) for e in offsets])
    z = np.concatenate([z, near, [0.0, 0.5, 0.25, 2.0, 4.0, 1e-4, 1 + 1e-4j]])
    got = eval_h(z)
    ref = _eval_h_loop(z)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    for zi in (9.0, -25.0 + 0.5e-4j, 3.3):
        assert eval_h(zi) == _eval_h_loop(zi)[0]


def test_real_kernel_matches_eval_h():
    """e^{i pi x} sin(pi x)/(F(x)F(-x)) from the real kernel equals eval_h
    within 2e-15 of max(|h|, 1) on a dense grid of [0, 400] and at, inside
    and just outside the local rule's radius around every odd square up to
    41^2; for x < 0 through h(-x) = -conj h(x)."""
    d = SINGULARITY_DELTA
    sq = (2.0 * np.arange(21) + 1.0) ** 2
    x = np.concatenate([np.linspace(0.0, 400.0, 200_001)]
                       + [sq + e for e in (0.0, 0.99 * d, -0.99 * d, d, -d,
                                           1e-13, -1e-13)])
    k = deep_zero._sin_over_FF(x)
    assert k.dtype == np.float64
    got = np.exp(1j * np.pi * x) * k
    for ref, val in ((eval_h(x), got), (eval_h(-x), -np.conj(got))):
        assert np.all(np.abs(val - ref) <= 2e-15 * np.maximum(np.abs(ref), 1.0))


def test_real_kernel_matches_mpmath():
    """Against 40-digit mpmath at the double x, away from the odd squares
    and at them, where the limit is 4k(-1)^((k-1)/2)/cosh(pi k/2)."""
    x = [0.3, 2.5, 7.77, 16.2, 50.5, 120.25, 300.1, 1.0, 9.0, 25.0]
    got = deep_zero._sin_over_FF(np.array(x))
    with mpmath.workdps(40):
        ref = []
        for v in x:
            r = mpmath.sqrt(mpmath.mpf(v))
            if v in (1.0, 9.0, 25.0):
                k = int(r)
                ref.append(float(4 * k * (-1) ** ((k - 1) // 2)
                                 / mpmath.cosh(mpmath.pi * k / 2)))
            else:
                a = mpmath.pi * r / 2
                ref.append(float(mpmath.sin(mpmath.pi * mpmath.mpf(v))
                                 / (mpmath.cos(a) * mpmath.cosh(a))))
    ref = np.array(ref)
    assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(np.abs(ref), 1.0))


def _h_mpmath(z):
    """h(z) at 40 digits, at the double z."""
    with mpmath.workdps(40):
        w = mpmath.mpc(z.real, z.imag)
        F = lambda v: mpmath.cos(mpmath.pi * mpmath.sqrt(v) / 2)
        return complex(mpmath.exp(1j * mpmath.pi * w) * mpmath.sin(mpmath.pi * w)
                       / (F(w) * F(-w)))


def test_eval_h_underflows_to_zero_far_out():
    """Past |z| of about 2e5 cosh(pi sqrt|z|/2) overflows to inf.  There
    eval_h gives 0, the underflowed value of h, whose modulus at 40 digits
    is below the smallest subnormal double, and no warning."""
    z = np.array([1e6, -1e6, 2.5e5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_h(z)
        kernel = deep_zero._sin_over_FF(np.abs(z))
    assert np.all(got == 0) and np.all(kernel == 0)
    with mpmath.workdps(40):
        F = lambda v: mpmath.cos(mpmath.pi * mpmath.sqrt(v) / 2)
        for v in z:
            w = mpmath.mpf(v)
            h = (mpmath.exp(1j * mpmath.pi * w) * mpmath.sin(mpmath.pi * w)
                 / (F(w) * F(-w)))
            assert abs(h) < mpmath.mpf("5e-324")


def test_eval_h_complex_path_matches_mpmath():
    """Off the real axis, and at least 0.05 from the odd squares, eval_h is
    within 1e-13 of 40-digit mpmath relative to max(|h|, 1): on the disc of
    radius 30 and in the strip |Im z| <= 2 out to |Re z| = 60."""
    rng = np.random.default_rng(23)
    z = np.concatenate([
        rng.uniform(-30.0, 30.0, 600) + 1j * rng.uniform(-30.0, 30.0, 600),
        rng.uniform(-60.0, 60.0, 200) + 1j * rng.uniform(-2.0, 2.0, 200)])
    odd_sq = (2.0 * np.arange(4) + 1.0) ** 2
    gap = np.abs(np.abs(z.real)[:, None] - odd_sq + 1j * z.imag[:, None])
    z = z[((np.abs(z) <= 30.0) | (np.abs(z.imag) <= 2.0))
          & (np.abs(z.imag) >= 1e-3) & (gap.min(axis=1) >= 0.05)]
    assert z.size > 500
    got = eval_h(z)
    ref = np.array([_h_mpmath(v) for v in z])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0))


def test_eval_h_local_rule_within_its_second_order_bound():
    """Within SINGULARITY_DELTA of +-k^2, k odd, eval_h takes the first
    order of sin(pi u)/F(u) about k^2.  With e = u - k^2 that quotient is
    L (1 + e/(4k^2) + c2 e^2 + O(e^3)), c2 = -pi^2/6 + pi^2/(96k^2)
    - 1/(16k^4) (from sin(pi e) and the Taylor series of sqrt(k^2 + e)),
    and |c2| < pi^2/6 for every odd k.  So |eval_h - h| is at most
    (pi^2/6)|e|^2 |h|, times 1.01 for the O(e^3) terms and for
    1/|1 + e/(4k^2)|, plus 1e-13 max(|h|, 1) of rounding.  The error is
    the dropped term: at least 0.9 of (pi^2/6)|e|^2 |h| at every point,
    which the raw quotient's rounding error (about 2k^2 eps/|e|) is not."""
    rng = np.random.default_rng(29)
    k2 = (2.0 * np.arange(8) + 1.0) ** 2
    e = SINGULARITY_DELTA * np.array([0.3, 0.7, 0.99])[:, None] * np.exp(
        2j * np.pi * rng.random((3, k2.size)))
    z = np.concatenate([(k2 + e).ravel(), (-(k2 + e)).ravel()])
    got = eval_h(z)
    ref = np.array([_h_mpmath(v) for v in z])
    size = np.abs(np.concatenate([e.ravel(), e.ravel()]))
    drop = math.pi ** 2 / 6 * size ** 2 * np.abs(ref)
    err = np.abs(got - ref)
    assert np.all(err <= 1.01 * drop + 1e-13 * np.maximum(np.abs(ref), 1.0))
    assert np.all(err >= 0.9 * drop)


def test_coefficients_quiet_and_finite_for_large_M():
    # from k = 226 on, cosh(pi(2k+1)/2) overflows to inf and the coefficient
    # underflows to 0, its correct limit; neither may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = DeepZeroSeries.build(0, 2000).coeffs
        small = DeepZeroSeries.build(0, 300).coeffs
    assert np.all(np.isfinite(big))
    assert np.array_equal(big[:301], small)
    assert np.all(big[226:] == 0.0)
    for k in (0, 100, 200, 225, 226, 2000):
        n = 2 * k + 1
        ref = float(-(-1) ** k * 4 * n / mpmath.cosh(mpmath.pi * n / 2))
        assert abs(big[k] - ref) <= 1e-10 * abs(ref) + 1e-300, k


def test_series_coefficients_decay():
    coeffs = series_coefficients(0, 8)
    mags = np.abs(coeffs)
    assert np.all(mags[2:] < mags[1:-1])


def test_H_series_basic_identities(s20):
    assert eval_H_series(s20, 0.0) == 0.0
    assert abs(eval_H_series(s20, 0.5)) < 1e-12  # sin(pi*(odd)^2) = 0
    assert abs(eval_H_series(s20, 0.3) + eval_H_series(s20, -0.3)) < 1e-13
    v = eval_H_series(s20, 0.3)
    assert abs(v.real) < 1e-13  # purely imaginary on the real line


def test_H_two_route_agreement(s20):
    for t in (0.1, 0.5, 0.9):
        series_val = eval_H_series(s20, t)
        res = eval_H_integral(t, 1e-8)
        allowed = res.abs_error_estimate + s20.truncation_bound
        assert abs(series_val - res.value) <= allowed


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_H_integral_error_budget_holds_tail_included(s20, tol):
    """X is chosen so that the analytic |h| tail fits in tol: the route
    converges with its whole error within tol, and the series agrees."""
    for t in (0.1, 0.3):
        res = eval_H_integral(t, tol)
        assert res.converged and res.abs_error_estimate <= tol
        gap = abs(eval_H_series(s20, t) - res.value)
        assert gap <= res.abs_error_estimate + s20.truncation_bound


def test_H_integral_vanishes_outside_support():
    res = eval_H_integral(-0.5, 1e-8)
    assert abs(res.value) <= res.abs_error_estimate + 1e-6


def test_decay_fit(s20):
    grid = 1.0 / np.linspace(5.0, 50.0, 20)
    fit = decay_fit(s20, grid)
    assert fit.c2 > 0
    assert abs(fit.correlation) > 0.99
    s40 = DeepZeroSeries.build(0, 40)
    fit40 = decay_fit(s40, grid)
    assert abs(fit40.c2 - fit.c2) < 0.1 * fit.c2
    mirror = decay_fit(s20, 1.0 - grid, abscissa="inv_1mt")
    assert mirror.c2 > 0


def test_decay_fit_needs_points(s20):
    with pytest.raises(ValueError):
        decay_fit(s20, np.array([0.1, 0.2]))


@pytest.mark.parametrize("abscissa", ["inv_1-t", "1/t", ""])
def test_decay_fit_rejects_an_unknown_abscissa(s20, abscissa):
    """Only "inv_t" and "inv_1mt" name an abscissa; any other name raises
    and names both, instead of fitting against 1/(1-t)."""
    grid = 1.0 - 1.0 / np.linspace(5.0, 50.0, 20)
    with pytest.raises(ValueError, match="'inv_t' or 'inv_1mt'"):
        decay_fit(s20, grid, abscissa=abscissa)


def test_membership_parseval(s20):
    # w = 1: Parseval for the sine series gives 2 * sum coeff^2
    value, err = membership_check(s20, make_constant_weight(1.0), 1e-10)
    ref = 2.0 * float(np.sum(s20.coeffs ** 2))
    assert abs(value - ref) <= err + 1e-8 * ref


def _companion(series, factor):
    fit = decay_fit(series, 1.0 / np.linspace(5.0, 50.0, 20))
    return make_exp_weight(2.0 * factor * fit.c2)


def test_membership_companion_weight(s20):
    value, err = membership_check(s20, _companion(s20, 0.9), 1e-8)
    assert np.isfinite(value) and value > 0
    assert err < 1e-2 * value


def test_membership_incompatible_weight_raises(s20):
    with pytest.raises(ArithmeticError):
        membership_check(s20, make_exp_weight(1.0), 1e-8)


def test_membership_empty_series():
    empty = DeepZeroSeries(0, -1, np.array([]), np.array([]), 0.0)
    assert membership_check(empty, make_constant_weight(1.0)) == (0.0, 0.0)


@pytest.mark.parametrize("factor", [0.9, 0.95, 0.99])
def test_membership_converges_at_the_sliver_tolerance(s20, monkeypatch, factor):
    """At tol=1e-13 the integrand's rounding floor is out of reach; the
    quadrature asks for what the sliver bound allows and converges fast.
    A reference at tol 1e-7 on the same integrand agrees within both
    quadrature error estimates."""
    calls = []

    def recording(f, a, b, tol, **kw):
        res = quadrature.integrate_finite(f, a, b, tol, **kw)
        ref = quadrature.integrate_finite(f, a, b, 1e-7, **kw)
        calls.append((res, ref))
        return res

    monkeypatch.setattr(deep_zero, "integrate_finite", recording)
    w = _companion(s20, factor)
    value, err = membership_check(s20, w, 1e-13)
    (res, ref), = calls
    assert res.converged and res.evaluations <= 20_000
    assert ref.converged
    assert abs(res.value - ref.value) <= (res.abs_error_estimate
                                          + ref.abs_error_estimate)
    assert value == res.value.real
    coarse, _ = membership_check(s20, w, 1e-8)
    assert abs(value - coarse) <= err


def test_membership_unconverged_raises(s20, monkeypatch):
    def unconverged(*args, **kw):
        res = quadrature.integrate_finite(*args, **kw)
        return quadrature.QuadratureResult(res.value, res.abs_error_estimate,
                                           res.evaluations, False)

    monkeypatch.setattr(deep_zero, "integrate_finite", unconverged)
    with pytest.raises(ArithmeticError, match="weighted energy"):
        membership_check(s20, _companion(s20, 0.9), 1e-8)
