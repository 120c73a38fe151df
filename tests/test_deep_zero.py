import ast
import dataclasses
import hashlib
import math
import tracemalloc
import types
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from szegolab import deep_zero, quadrature
from szegolab.quadrature import integrate_finite
from szegolab.deep_zero import (ENVELOPE_GRID, DeepZeroSeries, decay_fit,
                                eval_h, eval_H_integral, eval_H_series,
                                membership_check)
from szegolab.weights import (make_constant_weight, make_exp_weight,
                              make_tabulated_weight)


@pytest.fixture(scope="module")
def s20():
    return DeepZeroSeries.build(0, 20)


def test_h_integer_zeros():
    for n in range(-30, 31):
        if n in (0, 1, -1, 9, -9, 25, -25):
            continue
        assert abs(eval_h(complex(n))) < 1e-10, n


def test_h_coefficients_closed_form():
    # h((2k+1)^2) = -(-1)^k * 4(2k+1)/cosh(pi(2k+1)/2)
    coeffs = DeepZeroSeries(0, 6).coeffs
    for k, c in enumerate(coeffs):
        n = 2 * k + 1
        ref = -((-1) ** k) * 4 * n / float(mpmath.cosh(mpmath.pi * n / 2))
        assert abs(c - ref) < 1e-12 * max(abs(ref), 1e-6)


@pytest.mark.parametrize("t", [0.005, 0.01, 0.02])
def test_deep_zero_follows_its_closed_form(s20, t):
    """Near 0, H(t)/i = 2 sum c_k sin(2 pi (2k+1)^2 t) is
    -1/2 t^(-3/2) e^(-pi/(16 t)) (1 + eps(t)), |eps| about 4 e^(-pi/(8 t)):
    summed in 120-digit mpmath over 120 terms, the relative gap is within
    twice that (measured 3.1e-34, 3.5e-17 and 5.9e-9).  eval_H_series meets
    the closed form within its cancellation floor, 64 eps times the sum of
    its terms' moduli, plus the closed form's own gap and the series'
    truncation bound."""
    with mpmath.workdps(120):
        tt = mpmath.mpf(t)
        H = 2 * mpmath.fsum(
            (-1) ** (k + 1) * 4 * (2 * k + 1)
            / mpmath.cosh(mpmath.pi * (2 * k + 1) / 2)
            * mpmath.sin(2 * mpmath.pi * (2 * k + 1) ** 2 * tt)
            for k in range(120))
        closed = -mpmath.exp(-mpmath.pi / (16 * tt)) / (2 * tt ** 1.5)
        gap = 2 * 4 * mpmath.exp(-mpmath.pi / (8 * tt))
        assert abs(H / closed - 1) <= gap
        closed, gap = float(closed), float(gap)
    eps = np.finfo(np.float64).eps
    scale = 2.0 * float(np.abs(s20.coeffs).sum())
    value = eval_H_series(s20, t)
    assert value.real == 0.0
    assert abs(value.imag - closed) <= (64 * eps * scale + gap * abs(closed)
                                        + s20.truncation_bound)


def test_theta_sum_is_the_series_in_mpmath():
    """H(t)/i = -1/2 t^(-3/2) sum (-1)^a (-iz) e^(pi z^2/(16 t)) over
    z = a + bi with b > |a| and a + b odd, at 50 digits against the series
    summed to |c_k| < 1e-55, at six t in (0, 1/2]: the two agree to 1e-30
    relative.  z = a + bi is p = b - a and q = b + a, both odd, and the
    sum keeps the terms with e^(-pi pq/(16 t)) above 1e-50."""
    with mpmath.workdps(50):
        for t in (mpmath.mpf(1) / 77, mpmath.mpf(1) / 40, mpmath.mpf(1) / 13,
                  mpmath.mpf("0.137"), mpmath.mpf("0.3"), mpmath.mpf("0.45")):
            series = 2 * mpmath.fsum(
                (-1) ** (k + 1) * 4 * (2 * k + 1)
                / mpmath.cosh(mpmath.pi * (2 * k + 1) / 2)
                * mpmath.sin(2 * mpmath.pi * (2 * k + 1) ** 2 * t)
                for k in range(45))
            top = int(50 * mpmath.log(10) * 16 * t / mpmath.pi)
            zs = (mpmath.mpc((q - p) // 2, (q + p) // 2)
                  for p in range(1, top + 1, 2)
                  for q in range(1, top // p + 1, 2))
            dual = -mpmath.fsum((-1) ** int(z.real) * -1j * z
                                * mpmath.exp(mpmath.pi * z * z / (16 * t))
                                for z in zs) / (2 * t ** 1.5)
            assert abs(dual.imag) < 1e-45
            assert abs(dual.real / series - 1) < 1e-30, t


@pytest.mark.parametrize("t", [0.01, 0.02, 0.05, 0.1])
def test_theta_dual_is_the_series_in_float64(s20, t):
    """The 82 terms z of the theta sum at t <= 1/4, a and -a paired, meet
    eval_H_series within its cancellation floor, 64 eps times the sum of
    its terms' moduli; far below, S is exactly 1 and nothing underflows."""
    assert int(np.sum(np.where(deep_zero._A > 0, 2, 1))) == 82
    L, S = deep_zero._theta_dual(np.array([t, 1e-4, 1e-300]))
    scale = 2.0 * float(np.abs(s20.coeffs).sum())
    assert abs(-np.exp(-L[0]) * S[0] - eval_H_series(s20, t).imag) <= (
        64 * np.finfo(np.float64).eps * scale)
    assert S[1:].tolist() == [1.0, 1.0] and np.all(np.isfinite(L))


def test_theta_dual_reads_the_rows_that_reach_2_to_the_minus_60_at_0_1():
    """_theta_dual reads the 15 rows of the table whose terms reach 2^-60
    of the leading one at t = 0.1, the largest t it serves, and meets the
    sum over all 43 within 4 eps relative; L is the same."""
    A, B, sign = deep_zero._A, deep_zero._B, deep_zero._SIGN
    assert (A.size, deep_zero._DA.size) == (43, 15)
    t = np.array([0.01, 0.05, 0.1])
    x = deep_zero.RATE / t[:, None]
    S_all = (sign * np.exp(-(B * B - A * A - 1.0) * x) * (
        B * np.cos(2.0 * A * B * x) + A * np.sin(2.0 * A * B * x))).sum(axis=1)
    L, S = deep_zero._theta_dual(t)
    assert np.array_equal(L, x[:, 0] + 1.5 * np.log(t) + math.log(2.0))
    assert np.all(np.abs(S - S_all) <= 4 * np.finfo(np.float64).eps * S_all)


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


def eval_h_raw(z):
    """The defining quotient, no singularity handling, with
    F(w) = cos(pi sqrt(w)/2)."""
    z = np.asarray(z, dtype=np.complex128)
    F = np.cos(0.5 * np.pi * np.sqrt(z)) * np.cos(0.5 * np.pi * np.sqrt(-z))
    return np.exp(1j * np.pi * z) * np.sin(np.pi * z) / F


def test_h_raw_agrees_off_singularities():
    z = np.array([2.3 + 0.5j, -4.2 + 1j, 12.0 + 0j])
    assert np.allclose(eval_h(z), eval_h_raw(z), rtol=1e-12, atol=1e-14)


def _eval_h_loop(z):
    """eval_h as a per-point loop with scalar arithmetic: the oracle for the
    vectorized sign fold and kernel.  With s the sign of Re z and u = s z,
    h(z) = s e^{i pi z} K(u), where, with r = sqrt(u), k the odd integer
    nearest Re r and d = u - k^2, K(u) is
    (-1)^((k-1)/2) 2(r + k) sinc(d) / sinc(d/(2(r + k))) / cosh(pi r/2),
    and 1/cosh(x) is taken as 2e^{-x}/(1 + e^{-2x})."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    out = np.empty(z.shape, dtype=np.complex128)
    for i, zi in enumerate(z):
        u = -zi if zi.real < 0 else zi
        r = np.sqrt(u)
        k = 2 * int(np.round((r.real - 1.0) / 2.0)) + 1
        d, rk = u - k * k, 2.0 * (r + k)
        e = np.exp(-0.5 * np.pi * r)
        sech = 2.0 * e / (1.0 + e * e)
        sign = 1.0 if k % 4 == 1 else -1.0
        kernel = sign * (rk * (np.sinc(d) / np.sinc(d / rk)) * sech)
        val = np.exp(1j * np.pi * zi) * kernel
        out[i] = -val if zi.real < 0 else val
    return out


def test_eval_h_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    n = 20000
    z = rng.uniform(-250.0, 250.0, n) + 1j * np.where(
        rng.random(n) < 0.3, rng.normal(0.0, 0.5, n), 0.0)
    sq = (2.0 * np.arange(16) + 1.0) ** 2
    d = 1e-4
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
    within 2e-15 of max(|h|, 1) on a dense grid of [0, 400], and at every
    odd square up to 41^2 and at offsets from it up to and just past 1e-4;
    for x < 0 through h(-x) = -conj h(x)."""
    d = 1e-4
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
    """Against 40-digit mpmath at the double x, away from the odd squares,
    at them, where the limit is 4k(-1)^((k-1)/2)/cosh(pi k/2), and between
    1e-4 and 1e-2 from them, where the plain quotient sin(pi x)/(F(x)F(-x))
    loses up to 2e-12 of max(|K|, 1) to cancellation."""
    x = [0.3, 2.5, 7.77, 16.2, 50.5, 120.25, 300.1, 1.0, 9.0, 25.0,
         1.000101, 0.999899, 9.001, 25.01, 49 - 1e-3, 121 + 1e-2, 1521.000101]
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


def test_eval_h_is_exact_near_the_odd_squares():
    """Within 1e-4 of +-k^2, k odd, at complex offsets, eval_h is within
    1e-13 max(|h|, 1) of 40-digit mpmath: the sinc form has no 0/0 to
    cancel there, and no truncated expansion."""
    rng = np.random.default_rng(29)
    k2 = (2.0 * np.arange(8) + 1.0) ** 2
    e = 1e-4 * np.array([0.3, 0.7, 0.99])[:, None] * np.exp(
        2j * np.pi * rng.random((3, k2.size)))
    z = np.concatenate([(k2 + e).ravel(), (-(k2 + e)).ravel()])
    got = eval_h(z)
    ref = np.array([_h_mpmath(v) for v in z])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0))


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
    coeffs = DeepZeroSeries(0, 8).coeffs
    mags = np.abs(coeffs)
    assert np.all(mags[2:] < mags[1:-1])


def test_H_series_basic_identities(s20):
    assert eval_H_series(s20, 0.0) == 0.0
    assert abs(eval_H_series(s20, 0.5)) < 1e-12  # sin(pi*(odd)^2) = 0
    assert abs(eval_H_series(s20, 0.3) + eval_H_series(s20, -0.3)) < 1e-13
    v = eval_H_series(s20, 0.3)
    assert abs(v.real) < 1e-13  # purely imaginary on the real line


def _sine_sum(t, coeffs, freqs):
    """sum_k coeffs[k] sin(2 pi freqs[k] t) through eval_H_series, which
    reads a series' coeffs, freqs and terms alone (terms: all of them)."""
    series = types.SimpleNamespace(coeffs=coeffs, freqs=freqs,
                                   terms=len(coeffs))
    return (eval_H_series(series, t) / 2j).real


def test_sine_series_blocks_match_one_shot_product():
    """The blocked sum equals the one-shot (points x terms) row sum bit
    for bit: with a block count that is not whole, on no points, and where
    the last block holds one row."""
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=21)
    freqs = (2.0 * np.arange(21) + 1.0) ** 2
    for n in (100003, 0, deep_zero._SINE_BLOCK // freqs.size + 1):
        t = rng.uniform(0.0, 1.0, n)
        ref = (np.sin(2.0 * np.pi * t[:, None] * freqs[None, :])
               * coeffs).sum(axis=1)
        got = _sine_sum(t, coeffs, freqs)
        assert got.shape == ref.shape == (n,)
        assert np.array_equal(got, ref), n


def test_sine_series_blocks_are_sized_by_entries():
    """A block holds about 2^17 entries whatever the number of terms: at
    M = 1000, blocks of 2^15 rows took 16 MB on 2000 points."""
    series = DeepZeroSeries.build(0, 1000)
    t = np.linspace(0.01, 0.99, 2000)
    tracemalloc.start()
    try:
        eval_H_series(series, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_sine_series_value_does_not_depend_on_the_batch():
    """A point's value has the same bits alone, in a shifted batch and in
    any split of the batch, for short and long series."""
    rng = np.random.default_rng(9)
    t = rng.uniform(0.0, 1.0, 70001)
    for M in (7, 20, 40):
        coeffs = rng.normal(size=M + 1)
        freqs = (2.0 * np.arange(M + 1) + 1.0) ** 2
        full = _sine_sum(t, coeffs, freqs)
        for i in (0, 1, 2, 12345, 70000):
            assert _sine_sum(t[i:i + 1], coeffs, freqs)[0] == full[i]
        assert np.array_equal(_sine_sum(t[3:], coeffs, freqs), full[3:])
        parts = [_sine_sum(t[lo:hi], coeffs, freqs)
                 for lo, hi in ((0, 1), (1, 3), (3, 8), (8, t.size))]
        assert np.array_equal(np.concatenate(parts), full)


@pytest.mark.parametrize("k_min, M, terms", [
    (0, 20, 21), (0, 225, 226), (0, 226, 226), (0, 1000, 226), (225, 300, 1),
    (300, 400, 0)])
def test_a_series_counts_its_terms_before_the_zeros(k_min, M, terms):
    """terms is the number of leading coefficients that are not +-0: every
    one through k = 225, none from k = 226 on (cosh overflows there), while
    coeffs and freqs keep every k_min..M entry."""
    s = DeepZeroSeries(k_min, M)
    assert s.terms == terms
    assert np.all(s.coeffs[:terms] != 0.0) and np.all(s.coeffs[terms:] == 0.0)
    assert s.coeffs.size == s.freqs.size == M - k_min + 1
    f = {f.name: f for f in dataclasses.fields(DeepZeroSeries)}["terms"]
    assert (f.init, f.compare, f.repr) == (False, False, False)


class _CountingSin:
    """numpy, counting the entries of every sin it takes."""

    def __init__(self):
        self.entries = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, x, *args, **kwargs):
        out = np.sin(x, *args, **kwargs)
        self.entries += out.size
        return out


def test_sine_sum_skips_the_zero_terms(monkeypatch):
    """At M = 1000 a point takes 226 sines, one for each term through
    k = 225, not 1001: the terms from k = 226 on are +-0 and add nothing."""
    series = DeepZeroSeries(0, 1000)
    t = np.linspace(0.01, 0.99, 300)
    counting = _CountingSin()
    monkeypatch.setattr(deep_zero, "np", counting)
    eval_H_series(series, t)
    assert counting.entries == 226 * t.size


@pytest.mark.parametrize("M", [226, 300, 1000])
def test_sine_sum_without_the_zero_terms_keeps_its_bits(M):
    """Summing the 226 terms before the +-0 ones gives the one-shot
    (points x terms) row sum over all M + 1 terms bit for bit."""
    series = DeepZeroSeries(0, M)
    t = np.linspace(0.0, 1.0, 5001)
    ref = (np.sin(2.0 * np.pi * t[:, None] * series.freqs[None, :])
           * series.coeffs).sum(axis=1)
    got = eval_H_series(series, t)
    assert np.array_equal(got.imag / 2.0, ref) and np.all(got.real == 0.0)


def test_a_series_of_zero_terms_is_zero():
    """From k_min = 226 on every coefficient is +-0: the series has no
    term and reads exact zeros, sized into blocks without dividing by 0."""
    series = DeepZeroSeries(300, 400)
    t = np.linspace(0.0, 1.0, 1001)
    assert series.terms == 0
    assert np.array_equal(eval_H_series(series, t), np.zeros(t.size))
    assert eval_H_series(series, 0.3) == 0.0


def test_H_two_route_agreement(s20):
    for t in (0.1, 0.5, 0.9):
        series_val = eval_H_series(s20, t)
        res = eval_H_integral(t, 1e-8)
        allowed = res.abs_error_estimate + s20.truncation_bound
        assert abs(series_val - res.value) <= allowed


@pytest.mark.parametrize("tol, X", [
    (1e3, 200.0), (1e-1, 200.0), (1e-2, 200.0), (1e-3, 200.0), (1e-4, 200.0),
    (1e-5, 200.0), (1e-6, 217.0), (1e-7, 266.0), (1e-8, 320.0),
    (1e-9, 378.0), (1e-10, 441.0), (1e-11, 509.0), (1e-12, 581.0),
    (1e-13, 657.0), (1e-14, 738.0), (1e-15, 824.0), (1e-16, 914.0),
    (5e-324, 225024.0)])
def test_H_cut_is_the_smallest_integer_that_fits(tol, X):
    """One bisection over [200, 2^20) finds the X a scan by ones from 200
    finds: the smallest integer whose |h| tail is at most tol/2.  Half of
    5e-324 rounds to 0, so there the tail itself must be 0.0."""
    scan = 200
    while deep_zero._h_abs_tail(scan) > 0.5 * tol:
        scan += 1
    assert deep_zero._h_cut(tol) == scan == X


def test_H_integral_within_its_bound_inside_and_outside_the_support(s20):
    """Seeded at half periods of K's sin(pi x), halved on [0, 20], the
    route meets its declared bound on [0, 1], the support's ends included,
    on the 340 seed panels of [0, 320], two more split at the ends; off
    [0, 1] the transform of h vanishes, where the periodic series does not,
    and the route refuses t."""
    for t in (0.0, 0.05, 0.5, 0.95, 1.0):
        res = eval_H_integral(t, 1e-8)
        assert res.converged
        assert res.evaluations == (342 if t in (0.0, 1.0) else 340) * 15
        assert (abs(eval_H_series(s20, t) - res.value)
                <= res.abs_error_estimate + s20.truncation_bound)
    for t in (-0.5, 1.3):
        with pytest.raises(ValueError, match=r"t in \[0, 1\]"):
            eval_H_integral(t, 1e-8)


_sin_over_FF = deep_zero._sin_over_FF


class _CountingKernel:
    """deep_zero._sin_over_FF, counting the points it is sampled at."""

    def __init__(self):
        self.points = 0

    def __call__(self, u):
        self.points += np.size(u)
        return _sin_over_FF(u)


def test_H_integral_reads_the_kernel_from_one_table(monkeypatch):
    """Every t in [0, 1] shares the 340 seed panels of [0, 320], on which
    the t-free kernel is sampled once and kept: a call at another t
    samples it only on the panels it splits, the support's ends
    included."""
    quadrature._seed_samples.cache_clear()
    spy = _CountingKernel()
    monkeypatch.setattr(deep_zero, "_sin_over_FF", spy)
    first = eval_H_integral(0.1, 1e-8)
    assert spy.points == first.evaluations >= 340 * 15
    for t in (0.0, 0.3, 0.5, 0.95, 1.0):
        spy.points = 0
        res = eval_H_integral(t, 1e-8)
        assert spy.points == res.evaluations - 340 * 15
    assert quadrature._seed_samples.cache_info().hits == 5


@pytest.mark.parametrize("t", [0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95,
                               1.0])
def test_H_integral_matches_the_quarter_period_route(t):
    """The mesh of half periods of 1 and the kept kernel give the value
    of the route seeded at a quarter period of max(|t|, |1 - t|) through
    integrate_finite, within 1e-11, at tol 1e-8."""
    res = eval_H_integral(t, 1e-8)
    X = deep_zero._h_cut(1e-8)
    ref = integrate_finite(
        lambda x: np.sin(np.pi * (1.0 - 2.0 * t) * x) * _sin_over_FF(x),
        0.0, X, 0.5 * (1e-8 - deep_zero._h_abs_tail(X)), points=np.linspace(
            0.0, X, math.ceil(X * 4.0 * max(abs(t), abs(1.0 - t))) + 1))
    assert ref.converged and res.converged
    assert abs(res.value - (-2j * ref.value.real)) <= 1e-11


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_H_integral_error_budget_holds_tail_included(s20, tol):
    """X is chosen so that the analytic |h| tail fits in tol: the route
    converges with its whole error within tol, and the series agrees."""
    for t in (0.1, 0.3):
        res = eval_H_integral(t, tol)
        assert res.converged and res.abs_error_estimate <= tol
        gap = abs(eval_H_series(s20, t) - res.value)
        assert gap <= res.abs_error_estimate + s20.truncation_bound


def test_H_integral_past_the_seed_cap_raises(monkeypatch):
    """No t off [0, 1] reaches the quadrature, NaN included: the call
    raises before it samples anything (at t = 500 the seed of half periods
    of 500 on [0, 320] would once have been past the seed cap)."""
    kernel = _CountingKernel()
    monkeypatch.setattr(deep_zero, "_sin_over_FF", kernel)
    for t in (500.0, -500.0, -0.5, 1.3, -1e-300, np.nextafter(1.0, 2.0),
              np.nan):
        with pytest.raises(ValueError, match=r"t in \[0, 1\]"):
            eval_H_integral(t, 1e-8)
    assert kernel.points == 0


def test_decay_fit(s20):
    grid = np.asarray(deep_zero.ENVELOPE_GRID)
    fit = decay_fit(s20, grid)
    assert fit.c2 > 0
    assert abs(fit.correlation) > 0.99
    s40 = DeepZeroSeries.build(0, 40)
    fit40 = decay_fit(s40, grid)
    assert abs(fit40.c2 - fit.c2) < 0.1 * fit.c2
    mirror = decay_fit(s20, 1.0 - grid, abscissa="inv_1mt")
    assert mirror.c2 > 0


def _lstsq_fit(series, grid, abscissa):
    """(c1, c2, correlation) from a least-squares solve of the design
    matrix [x, 1] and numpy's correlation matrix, the oracle of the
    closed-form fit, over the |H| above 128 eps times the l1 mass."""
    grid = np.asarray(grid, dtype=np.float64)
    vals = np.abs(eval_H_series(series, grid))
    floor = 128.0 * np.finfo(np.float64).eps * np.abs(series.coeffs).sum()
    keep = vals > floor
    t = grid[keep]
    x = 1.0 / t if abscissa == "inv_t" else 1.0 / (1.0 - t)
    y = np.log(vals[keep])
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    return (float(np.exp(intercept)), float(-slope),
            float(np.corrcoef(x, y)[0, 1]))


_ACCEPTANCE_GRID = 1.0 / np.linspace(5.0, 50.0, 20)


@pytest.mark.parametrize("k_min, grid, abscissa", [
    (0, ENVELOPE_GRID, "inv_t"),
    (0, _ACCEPTANCE_GRID, "inv_t"),
    (0, 1.0 - _ACCEPTANCE_GRID, "inv_1mt"),
    (1, ENVELOPE_GRID, "inv_t"),
    (0, np.concatenate([np.zeros(5), ENVELOPE_GRID]), "inv_t"),
    (0, 1.0 / np.linspace(5.0, 500.0, 20), "inv_t"),
], ids=["envelope", "acceptance", "mirror", "no-deep-zero", "underflowed",
        "below-floor"])
def test_decay_fit_matches_a_least_squares_solve(k_min, grid, abscissa,
                                                 monkeypatch):
    """The line from centered sums is the least-squares line, and its
    correlation numpy's, to 1e-14 relative: with and without a deep zero
    (k_min = 1 fits c2 = -0.016), and with points where H(0) = 0, or where
    the series reads rounding noise below its floor (12 of 20 from
    t = 0.002), left out.  The fit reads nothing of numpy.linalg, nor
    numpy.corrcoef."""
    series = DeepZeroSeries(k_min, 20)
    ref = _lstsq_fit(series, grid, abscissa)
    abs_H = np.abs(eval_H_series(series, grid)).tobytes()
    no_lapack = types.SimpleNamespace(**{**vars(np), "linalg": None,
                                         "corrcoef": None})
    monkeypatch.setattr(deep_zero, "np", no_lapack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = decay_fit(series, grid, abscissa=abscissa)
    for value, oracle in zip((fit.c1, fit.c2, fit.correlation), ref):
        assert abs(value - oracle) <= 1e-14 * abs(oracle)
    # the |H| it fitted, bit for bit, kept out of the fit's repr and eq
    assert fit.abs_H.tobytes() == abs_H
    assert fit == dataclasses.replace(fit, abs_H=None)
    assert "abs_H" not in repr(fit)
    if k_min:
        assert fit.c2 == pytest.approx(-0.016, abs=5e-4)


@pytest.mark.parametrize("grid", [
    np.full(8, 0.1), np.full(10, 0.3),
    np.concatenate([np.zeros(6), np.full(4, 0.2)]),
], ids=["eight-equal", "ten-equal", "equal-after-underflow"])
def test_decay_fit_refuses_a_grid_with_one_usable_abscissa(s20, grid):
    """Points at one t fit no line: ValueError, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="all at one t: no line"):
            decay_fit(s20, grid)


def test_decay_fit_needs_points(s20):
    with pytest.raises(ValueError):
        decay_fit(s20, np.array([0.1, 0.2]))


@pytest.mark.parametrize("abscissa", ["inv_1-t", "1/t", ""])
def test_decay_fit_rejects_an_unknown_abscissa(s20, abscissa):
    """Only "inv_t" and "inv_1mt" name an abscissa; any other name raises
    and names both, instead of fitting against 1/(1-t)."""
    grid = 1.0 - np.asarray(deep_zero.ENVELOPE_GRID)
    with pytest.raises(ValueError, match="'inv_t' or 'inv_1mt'"):
        decay_fit(s20, grid, abscissa=abscissa)


def test_membership_parseval(s20):
    # w = 1: Parseval for the sine series gives 2 * sum coeff^2
    value, err = membership_check(s20, make_constant_weight(1.0), 1e-10)
    ref = 2.0 * float(np.sum(s20.coeffs ** 2))
    assert abs(value - ref) <= err + 1e-8 * ref


@pytest.mark.parametrize("M", [3, 5, 10, 11])
def test_membership_is_parseval_of_the_callers_series(M):
    """w = 1: the membership is 2 sum c_k^2 over the caller's k <= M, on
    the series route (M <= 10, truncation above the cancellation floor)
    and the theta sum's (M = 11); the series to k = 20 in place of the
    caller's read 5.5e-9 high at M = 3, with an error of 2.6e-13."""
    s = DeepZeroSeries(0, M)
    value, err = membership_check(s, make_constant_weight(1.0), 1e-12)
    ref = 2.0 * math.fsum(s.coeffs ** 2)
    assert abs(value - ref) <= err + 4.0 * np.finfo(np.float64).eps * ref


def _companion(series, factor):
    fit = decay_fit(series, deep_zero.ENVELOPE_GRID)
    return make_exp_weight(2.0 * factor * fit.c2)


def test_membership_companion_weight(s20):
    value, err = membership_check(s20, _companion(s20, 0.9), 1e-8)
    assert np.isfinite(value) and value > 0
    assert err < 1e-2 * value


def test_membership_incompatible_weight_raises(s20):
    with pytest.raises(ArithmeticError):
        membership_check(s20, make_exp_weight(1.0), 1e-8)


def test_membership_refuses_divergent_rates_before_quadrature(s20,
                                                              monkeypatch):
    """Divergence is decided from the weight's rate before any quadrature
    (integrate_finite is None here): |H|^2 ~ t^-3 e^(-pi/(8t))/4 near 0
    diverges against exp(-c/t) at c = pi/8 and c = 1, and a series without
    its k = 0 term, or one cut off above the cancellation floor, |H| ~ t,
    against every c > 0."""
    monkeypatch.setattr(deep_zero, "integrate_finite", None)
    for series, c in [(s20, np.pi / 8), (s20, 1.0),
                      (DeepZeroSeries(1, 20), 0.01),
                      (DeepZeroSeries(0, 3), 0.01)]:
        with pytest.raises(ArithmeticError, match=rf"diverges at t=0 .* "
                           rf"for DeepZeroSeries\(k_min={series.k_min}, "
                           rf"M={series.M}\)$"):
            membership_check(series, make_exp_weight(c), 1e-8)


@pytest.mark.parametrize("k_min, M, dual", [
    (0, 10, False), (0, 11, True), (1, 20, False), (0, 300, True)])
def test_a_series_knows_its_floor_and_whether_it_is_H(k_min, M, dual):
    """floor is 128 eps times the l1 mass; dual holds for k_min = 0 once
    the truncation bound is at most the floor: 7.9e-14 > 5.2e-14 at M = 10,
    3.7e-15 at M = 11."""
    s = DeepZeroSeries(k_min, M)
    assert s.floor == 128.0 * np.finfo(np.float64).eps * np.abs(s.coeffs).sum()
    assert s.dual is dual
    assert "floor" not in repr(s) and "dual" not in repr(s)


def family_readers(package_dir):
    """Where modules of the package, deep_zero aside, compare an attribute
    named k_min, divide pi by 8 or 16 (or by 8 or 16 times something), or
    call cosh, as "module:line"."""
    def names_pi(node):
        return any(getattr(n, "id", getattr(n, "attr", None)) == "pi"
                   for n in ast.walk(node))

    def reads_family(node):
        if isinstance(node, ast.Call):   # builds a series' coefficients
            return getattr(node.func, "id", getattr(node.func, "attr",
                                                    None)) == "cosh"
        if isinstance(node, ast.Compare):
            return any(isinstance(n, ast.Attribute) and n.attr == "k_min"
                       for n in (node.left, *node.comparators))
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
            return False
        den = node.right
        if isinstance(den, ast.BinOp) and isinstance(den.op, ast.Mult):
            den = den.left
        return (isinstance(den, ast.Constant) and den.value in (8, 16)
                and names_pi(node.left))

    found = []
    for path in sorted(Path(package_dir).glob("*.py")):
        if path.name == "deep_zero.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += sorted({f"{path.stem}:{n.lineno}" for n in ast.walk(tree)
                         if reads_family(n)})
    return found


def test_only_deep_zero_answers_for_a_series_family(tmp_path):
    """A series answers for whether it is the infinite H (dual), for its
    floor, for its coefficients and terms and, through deep_zero.RATE, for
    H's rate pi/16, so no other module compares a k_min, spells pi/16 or
    pi/8, or calls cosh; reading k_min as a value is no comparison.  The
    check finds planted ones."""
    assert family_readers(Path(deep_zero.__file__).parent) == []
    assert deep_zero.RATE == math.pi / 16 and 2 * deep_zero.RATE == np.pi / 8
    (tmp_path / "planted.py").write_text(
        "import math\n"
        "def f(series, spec, t):\n"
        "    if series.k_min == 0 or spec.get('k_min') == 0:\n"
        "        return math.pi / 16, {'k_min': series.k_min}\n"
        "    return 2.0 * math.pi / (8.0 * t)\n"
        "def g(n):\n"
        "    return 4.0 * n / math.cosh(0.5 * math.pi * n)\n",
        encoding="utf-8")
    assert family_readers(tmp_path) == ["planted:3", "planted:4",
                                        "planted:5", "planted:7"]


def test_a_series_has_at_least_one_term():
    with pytest.raises(ValueError, match="M must be >= k_min"):
        DeepZeroSeries(0, -1)


def test_a_series_is_its_k_min_and_M():
    """(k_min, M) are the only init fields, and equality, hash and repr
    read them alone."""
    assert [f.name for f in dataclasses.fields(DeepZeroSeries)
            if f.init] == ["k_min", "M"]
    assert DeepZeroSeries.build(0, 20) == DeepZeroSeries(0, 20)
    assert hash(DeepZeroSeries.build(0, 20)) == hash(DeepZeroSeries())
    assert DeepZeroSeries(1, 20) != DeepZeroSeries(0, 20)
    assert repr(DeepZeroSeries(3, 40)) == "DeepZeroSeries(k_min=3, M=40)"


@pytest.mark.parametrize("k_min, M, head, digest, bound", [
    (0, 3, [-1.5941472613535468, 0.21558158717702408, -0.01552812581695527,
            0.0009394437650922598],
     "c67a40d0398aaa3861740a3d9e410c1b", 0.00011020245211544819),
    (1, 5, [0.21558158717702408, -0.01552812581695527, 0.0009394437650922598,
            -5.2196202115085756e-05, 2.756847392300026e-06],
     "a9658fb187df40c39b9b20c8ba4a3d36", 2.963531006217646e-07),
    (3, 20, [0.0009394437650922598, -5.2196202115085756e-05],
     "b54adfb8f2520fc4f57b1816d4080812", 3.338822721287868e-27),
    (0, 300, [-1.5941472613535468], "4a286550f0b627a108de274951c2a149", 0.0),
])
def test_series_terms_keep_their_bits(k_min, M, head, digest, bound):
    """coeffs, freqs and truncation_bound as an earlier build computed
    them: the leading coefficients and the sha256 of all of them (float64,
    little-endian), the odd squares, and the dropped terms' bound."""
    s = DeepZeroSeries.build(k_min, M)
    assert s.coeffs[:len(head)].tolist() == head
    assert hashlib.sha256(
        s.coeffs.astype("<f8").tobytes()).hexdigest()[:32] == digest
    assert s.freqs.dtype == np.float64
    assert s.freqs.tolist() == [float((2 * k + 1) ** 2)
                                for k in range(k_min, M + 1)]
    assert s.truncation_bound == bound


def test_membership_reads_a_dip_near_0_off_the_theta_sum(s20):
    """A tabulated weight dips to 1e-60 at t = 0.002, where the series
    reads rounding noise of about 5e-18, which the dip would blow up to
    2e25; the theta sum gives |H| = 1.3e-39 there, so the dip's share is
    about 1e-81 and the value is w = 1's, Parseval's 2 sum c_k^2, within
    the error."""
    w = make_tabulated_weight([(0.0, 1.0), (0.001998, 1.0), (0.002, 1e-60),
                               (0.002002, 1.0), (1.0, 1.0)])
    value, err = membership_check(s20, w, 1e-8)
    assert abs(value - _parseval(0, 20)) <= err < 1e-9


def _dip_share(center, depth=1e-6, width=1e-6):
    """int |H|^2 (1/w - 1) over a dip of w, linear from 1 at
    center +- width to depth at center: |H(center)|^2 at 30 digits times
    2 width (log(1/depth)/(1 - depth) - 1).  The dip is even about its
    center, so the slope of |H|^2 drops out, and its curvature, below 2.4e4
    by the coefficients' sums, adds at most 2.4e4 width^3 log(1/depth),
    below 4e-13."""
    with mpmath.workdps(30):
        t = mpmath.mpf(center)
        H = 2 * mpmath.fsum((-1) ** (k + 1) * 4 * (2 * k + 1)
                            / mpmath.cosh(mpmath.pi * (2 * k + 1) / 2)
                            * mpmath.sin(2 * mpmath.pi * (2 * k + 1) ** 2 * t)
                            for k in range(30))
        return float(H * H * 2 * width * (mpmath.log(1 / mpmath.mpf(depth))
                                          / (1 - mpmath.mpf(depth)) - 1))


def test_membership_sees_a_tabulated_weights_narrow_dips(s20):
    """Dips of w = 1 to 1e-6 over t = 0.3 +- 1e-6 and 0.6 +- 1e-6 add
    3.04e-4 and 1.16e-4 to the flat value.  Their folded breakpoints are
    panel edges, so the quadrature meets them; without those edges it
    returns the flat value."""
    w = make_tabulated_weight([(0.0, 1.0), (1.0, 1.0)] + [
        (c + dt, v) for c in (0.3, 0.6)
        for dt, v in [(-1e-6, 1.0), (0.0, 1e-6), (1e-6, 1.0)]])
    value, err = membership_check(s20, w, 1e-8)
    ref = _parseval(0, 20) + _dip_share(0.3) + _dip_share(0.6)
    assert abs(value - ref) <= err < 1e-8


def _parseval(k_min, M):
    """int_0^1 |H|^2 = 2 sum c_k^2 at 40 digits."""
    with mpmath.workdps(40):
        return float(2 * mpmath.fsum(
            (4 * (2 * k + 1) / mpmath.cosh(mpmath.pi * (2 * k + 1) / 2)) ** 2
            for k in range(k_min, M + 1)))


@pytest.mark.parametrize("k_min, M, tol", [(1, 20, 1e-8), (2, 12, 1e-13)])
def test_membership_without_a_deep_zero_is_parseval_at_unit_weight(
        k_min, M, tol):
    """Without the k = 0 term, |H| ~ t near 0: the series serves on all of
    (0, 1), and at w = 1 the value is Parseval's within an error at most
    tol, while every exp weight diverges against it."""
    s = DeepZeroSeries(k_min, M)
    value, err = membership_check(s, make_constant_weight(1.0), tol)
    assert abs(value - _parseval(k_min, M)) <= err <= tol
    with pytest.raises(ArithmeticError, match="diverges at t=0"):
        membership_check(s, make_exp_weight(0.01), tol)


def test_H_integral_refuses_a_tolerance_that_is_not_positive():
    with pytest.raises(ValueError, match="tol"):
        eval_H_integral(0.1, tol=0.0)


def test_decay_fit_needs_four_points_off_zero(s20):
    """H(0) = 0 exactly, so eight points at t = 0 leave none to fit."""
    with pytest.raises(ValueError, match="fewer than 4"):
        decay_fit(s20, np.zeros(8))


@pytest.mark.parametrize("factor", [0.9, 0.95, 0.99])
def test_membership_converges_at_the_callers_tol(s20, monkeypatch, factor):
    """An exp weight's value is the sliver's closed sum plus one integral
    over (0, 1/4], asked for the caller's tol, 1e-13, less the sum's error,
    converging on its seed of 33 panels (495 evaluations); the error is the
    two errors' sum.  A reference at tol 1e-7 on the same integrand agrees
    within both error estimates, and so does the value at tol 1e-8."""
    calls = []

    def recording(f, a, b, tol, **kw):
        res = quadrature.integrate_finite(f, a, b, tol, **kw)
        ref = quadrature.integrate_finite(f, a, b, 1e-7, **kw)
        calls.append((a, b, tol, res, ref))
        return res

    monkeypatch.setattr(deep_zero, "integrate_finite", recording)
    w = _companion(s20, factor)
    value, err = membership_check(s20, w, 1e-13)
    sliver, sliver_err = deep_zero._sliver(w.c)
    (a, b, tol, res, ref), = calls
    assert (a, b, tol) == (0.0, 0.25, 1e-13 - sliver_err)
    assert res.converged and res.evaluations == 495
    assert ref.converged
    assert abs(res.value - ref.value) <= (res.abs_error_estimate
                                          + ref.abs_error_estimate)
    assert (value, err) == (sliver + res.value.real,
                            res.abs_error_estimate + sliver_err)
    coarse, coarse_err = membership_check(s20, w, 1e-8)
    assert abs(value - coarse) <= err + coarse_err


# int_0^1 |H|^2 exp(c/t) dt by mpmath at 90 and 110 digits, the series summed
# over 80 and 95 terms, folded onto [7e-4, 1/4] and [1e-3, 1/4] as
# membership_check folds it (the rest is below 1e-30), for the deepzero
# config's c = 2 * 0.9 * c2 = 0.23599894233977833 and for c = 0.3
_MPMATH_MEMBERSHIP = {0.9: 16.335030961927506, 0.3: 36.30906744123298}


@pytest.mark.parametrize("tol, bound", [(1e-8, 1e-9), (1e-13, 1e-13)])
def test_membership_of_the_deepzero_config_is_the_mpmath_value(s20, tol,
                                                              bound):
    w = _companion(s20, 0.9)
    assert w.c == 0.23599894233977833
    value, err = membership_check(s20, w, tol)
    assert abs(value - _MPMATH_MEMBERSHIP[0.9]) <= err <= bound


def test_membership_is_finite_below_pi_over_8(s20):
    """c = 0.3 lies above the fitted rate 2 c2 = 0.262 and below pi/8, the
    exact one: the integral is finite and meets mpmath's."""
    value, err = membership_check(s20, make_exp_weight(0.3), 1e-10)
    assert abs(value - _MPMATH_MEMBERSHIP[0.3]) <= err < 1e-11


# int_0^{1/4} |H|^2 exp(c/t) dt (the sliver) and int_0^1 |H|^2 exp(c/t) dt
# for the float64 c, by mpmath quadrature at 50 digits with |H| from the
# theta sum over its 144 z whose terms reach e^-140 of the leading one at
# t = 1/4, not from the pair formula: the sliver in u = 1/t over
# [4, 260/(2 RATE - c)] split at powers of 2, the three other fold terms in t
_MPMATH_SLIVER = {0.05: (1.8159065587835985034, 6.0997117582616404914),
                  0.236: (10.038653098455561784, 16.335184399214562407),
                  0.3: (29.067775845578853354, 36.309067441232979961),
                  0.325: (54.578193395867741469, 62.234007245472150300),
                  0.38: (1550.4028794984415453, 1559.0744815575590712),
                  0.39: (34317.097270003217349, 34325.970353484883174)}


@pytest.mark.parametrize("c", [0.05, 0.236, 0.3, 0.38])
def test_sliver_is_the_mpmath_value(c):
    """The closed pair sum over (0, 1/4] is within 1e-14 (relative) of the
    mpmath quadrature, and within its own error."""
    value, err = deep_zero._sliver(c)
    ref = _MPMATH_SLIVER[c][0]
    assert abs(value - ref) <= min(err, 1e-14 * ref)


# (value, error) of _sliver(c) as float.hex, as the sum gave them when it
# rebuilt its pair table on every call
_SLIVER_BITS = {
    0.05: ("0x1.d0df409291450p+0", "0x1.1169396e37c03p-48"),
    0.236: ("0x1.413ca56c382ecp+3", "0x1.5b721b1d3681dp-46"),
    0.3: ("0x1.d1159c200384cp+4", "0x1.e379aac31ca2ep-45"),
    0.38: ("0x1.8399c8c717823p+10", "0x1.840b1d7ebf15ep-39")}


@pytest.mark.parametrize("c", sorted(_SLIVER_BITS))
def test_sliver_keeps_its_bits(c):
    """The kept pair table gives the sum its bits, first call or later."""
    deep_zero._sliver_pairs.cache_clear()
    first = tuple(map(float.hex, deep_zero._sliver(c)))
    assert first == tuple(map(float.hex, deep_zero._sliver(c)))
    assert first == _SLIVER_BITS[c]


def test_sliver_pair_table_is_built_once_and_read_only():
    """Every call gets the same read-only arrays, 2 x 480 pairs, which no
    caller can write through."""
    m, f = deep_zero._sliver_pairs()
    again = deep_zero._sliver_pairs()
    assert again[0] is m and again[1] is f
    assert m.shape == f.shape == (2, 480)
    for a in (m, f):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


@pytest.mark.parametrize("c", [0.05, 0.236, 0.3, 0.38])
def test_sliver_meets_the_quadrature_of_its_piece(s20, c):
    """The pair sum meets the same piece integrated as membership_check
    integrates a tabulated weight: |H| off the theta sum on (0, 0.1] and
    off the series on (0.1, 1/4], within the two errors."""
    def integrand(t):
        near = t <= 0.1
        log_abs = np.empty_like(t)
        L, S = deep_zero._theta_dual(t[near])
        log_abs[near] = np.log(np.abs(S)) - L
        log_abs[~near] = np.log(np.abs(eval_H_series(s20, t[~near])))
        return np.exp(2.0 * log_abs + c / t)

    value, err = deep_zero._sliver(c)
    res = integrate_finite(integrand, 0.0, 0.25, 1e-12 * value,
                           points=(0.1,))
    assert res.converged
    assert abs(value - res.value.real) <= err + res.abs_error_estimate


@pytest.mark.parametrize("w, points", [(make_exp_weight(0.236), 1),
                                       (make_constant_weight(1.0), None)],
                         ids=["exp", "constant"])
def test_membership_reads_the_theta_sum_once_for_an_exp_weight(
        s20, monkeypatch, w, points):
    """An exp weight's term at t is the closed sum, so the theta sum runs
    only at the cross-check point; a weight with c = 0 reads it on every
    node below 0.1."""
    seen = []
    dual = deep_zero._theta_dual

    def counting(t):
        seen.append(t.size)
        return dual(t)

    monkeypatch.setattr(deep_zero, "_theta_dual", counting)
    membership_check(s20, w, 1e-13)
    assert sum(seen) == points if points else sum(seen) > 100


def test_membership_at_c_0_3_covers_its_error(s20):
    """c = 0.3 at tol 1e-13 (above the fitted rate, below pi/8): the value
    is within its error of mpmath's, and the error within tol."""
    value, err = membership_check(s20, make_exp_weight(0.3), 1e-13)
    assert abs(value - _MPMATH_MEMBERSHIP[0.3]) <= err <= 1e-13


@pytest.mark.parametrize("c, tol", [(0.325, 1e-13), (0.38, 1e-11),
                                    (0.39, 1e-8)])
def test_membership_near_pi_over_8_is_the_mpmath_value(s20, monkeypatch, c,
                                                       tol):
    """Near the threshold the sliver's sum costs what it costs anywhere,
    and the quadrature of the bounded terms converges in at most 1500
    evaluations to a total within its error of mpmath's, and within tol.
    At tol 1e-13, c = 0.325 is just below the last c the sum's error
    admits, 0.32525 (9.93e-14 there)."""
    evals = []

    def recording(*args, **kw):
        res = quadrature.integrate_finite(*args, **kw)
        evals.append(res.evaluations)
        return res

    monkeypatch.setattr(deep_zero, "integrate_finite", recording)
    value, err = membership_check(s20, make_exp_weight(c), tol)
    assert abs(value - _MPMATH_SLIVER[c][1]) <= err <= tol
    assert sum(evals) <= 1500


@pytest.mark.parametrize("c", [0.326, 0.38, 0.39])
def test_membership_past_its_sums_rounding_raises_at_once(s20, monkeypatch,
                                                          c):
    """At tol 1e-13 the sum's error, 8 eps times the moduli it sums, is
    tol or more from c = 0.32525 on (1.02e-13 at c = 0.326, 2.76e-12 at
    0.38 and 6.10e-11 at 0.39; a float64 near 1559 is 2.3e-13 from its
    neighbours): the check raises, naming that error, before any
    quadrature."""
    monkeypatch.setattr(deep_zero, "integrate_finite", None)
    err = deep_zero._sliver(c)[1]
    with pytest.raises(ArithmeticError,
                       match=f"sliver's sum errs by {err:.2e}"):
        membership_check(s20, make_exp_weight(c), 1e-13)


def test_membership_checks_the_theta_sum_against_the_series(s20,
                                                            monkeypatch):
    """The two routes of |H| meet at t = 0.1: a theta sum off by 1e-12
    relative there raises before any quadrature."""
    dual = deep_zero._theta_dual

    def off(t):
        L, S = dual(t)
        return L, S * (1 + 1e-12)

    monkeypatch.setattr(deep_zero, "_theta_dual", off)
    monkeypatch.setattr(deep_zero, "integrate_finite", None)
    with pytest.raises(ArithmeticError,
                       match=r"theta sum and series differ by 2\.1\d*e-12"):
        membership_check(s20, _companion(s20, 0.9), 1e-8)


def test_membership_unconverged_raises(s20, monkeypatch):
    def unconverged(*args, **kw):
        res = quadrature.integrate_finite(*args, **kw)
        return quadrature.QuadratureResult(res.value, res.abs_error_estimate,
                                           res.evaluations, False)

    monkeypatch.setattr(deep_zero, "integrate_finite", unconverged)
    with pytest.raises(ArithmeticError, match="weighted energy"):
        membership_check(s20, _companion(s20, 0.9), 1e-8)
