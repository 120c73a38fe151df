import math
import warnings

import mpmath
import numpy as np
import pytest

from szegolab import deep_zero, quadrature
from szegolab.deep_zero import (SINGULARITY_DELTA, DeepZeroSeries, decay_fit,
                                estimate_envelope_constants, eval_F,
                                eval_F_prime, eval_h, eval_h_raw,
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


def test_F_series_vs_direct_on_switchover_annulus():
    # compare against mpmath cos(pi sqrt(w)/2) at complex points near |w|=25
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = rng.uniform(20, 30)
        th = rng.uniform(-np.pi, np.pi)
        w = r * np.exp(1j * th)
        ref = complex(mpmath.cos(mpmath.pi * mpmath.sqrt(complex(w)) / 2))
        assert abs(eval_F(w) - ref) < 1e-12 * max(abs(ref), 1.0)


def test_F_prime_finite_difference():
    for w in (2.0, -3.0, 5 + 1j):
        h = 1e-6
        fd = (eval_F(w + h) - eval_F(w - h)) / (2 * h)
        assert abs(eval_F_prime(w) - fd) < 1e-7


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


def _local_ratio_loop(u, n0):
    ratio0 = np.pi * np.cos(np.pi * n0) / eval_F_prime(complex(n0))
    return ratio0 * (1.0 + (u - n0) / (4.0 * n0))


def _eval_h_loop(z, delta=SINGULARITY_DELTA):
    """eval_h as a per-point loop with scalar arithmetic: the oracle for the
    vectorized singularity test and local quotient rule."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    out = np.empty(z.shape, dtype=np.complex128)
    handled = np.zeros(z.shape, dtype=bool)
    for i, zi in enumerate(z):
        for sign in (1.0, -1.0):
            u = sign * zi
            if u.real < 0.5:
                continue
            n0 = _nearest_odd_square_loop(u.real)
            if abs(u - n0) >= delta:
                continue
            e = np.exp(1j * np.pi * zi)
            if sign > 0:
                val = e * _local_ratio_loop(u, n0) / eval_F(-zi)
            else:
                val = -e * _local_ratio_loop(u, n0) / eval_F(zi)
            out[i] = val
            handled[i] = True
            break
    out[~handled] = eval_h_raw(z[~handled])
    return out


def test_nearest_odd_square_matches_the_loop():
    odd = 2.0 * np.arange(40) + 1.0
    ties = 0.5 * (odd[:-1] ** 2 + odd[1:] ** 2)      # equally near two squares
    x = np.concatenate([np.arange(0.0, 3000.0, 0.25), ties, ties + 1e-9,
                        odd ** 2, [-3.0, 1e-300]])
    got = deep_zero._nearest_odd_square(x)
    assert got.tolist() == [_nearest_odd_square_loop(v) for v in x]


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


def test_envelope_constants():
    xs = np.array([x for x in np.linspace(-80, 80, 33) if
                   min(abs(abs(x) - (2 * m + 1) ** 2) for m in range(5)) > 0.1])
    grid = [(x, 0.0) for x in xs] + [(0.0, y) for y in np.linspace(1, 50, 12)]
    grid += [(x, -4.0) for x in np.linspace(-20, 20, 9)]
    rep = estimate_envelope_constants(np.array(grid))
    assert rep.c_amplitude > 0
    assert rep.max_ratio_upper <= 1.0 + 1e-9
    # the amplitude constant is fitted on the upper half-plane only, so the
    # lower-half ratio is bounded but not normalized to 1
    assert rep.max_ratio_lower is not None and rep.max_ratio_lower < 100.0


def test_envelope_rejects_singular_grid():
    with pytest.raises(ValueError):
        estimate_envelope_constants(np.array([(9.0, 0.0)]))


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
