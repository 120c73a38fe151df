import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import szegolab.quadrature as quadrature
from szegolab.quadrature import (_WG, _WK, _XK, fourier_coefficients,
                                 integrate_finite, integrate_left_halfline,
                                 oscillatory_integral)


def test_gk15_constants_full_precision():
    assert abs(_WK.sum() - 2.0) <= 4e-16
    assert abs(_WG.sum() - 2.0) <= 4e-16
    # K15 is exact to degree 22, its embedded G7 (odd nodes) to degree 13
    assert abs((_WK * _XK ** 22).sum() - 2.0 / 23.0) <= 1e-15
    assert abs((_WG * _XK[1::2] ** 12).sum() - 2.0 / 13.0) <= 1e-15


def test_polynomial_exact():
    res = integrate_finite(lambda t: t ** 2 + 0j, 0.0, 1.0, 1e-12)
    assert res.converged
    assert abs(res.value - 1.0 / 3.0) < 1e-12


def test_deep_zero_integrand_self_convergence():
    f = lambda t: np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0) + 0j
    coarse = integrate_finite(f, 0.0, 1.0, 1e-10, singular_ends=("a",))
    fine = integrate_finite(f, 0.0, 1.0, 1e-12, singular_ends=("a",))
    assert abs(coarse.value - fine.value) < 1e-10
    # independent oracle
    ref, _ = quad(lambda t: np.exp(-1.0 / t) if t > 0 else 0.0, 0, 1, limit=200)
    assert abs(fine.value.real - ref) < 1e-10


def test_sine_orthonormality():
    f = lambda t: np.sin(2 * np.pi * 9 * t) ** 2 + 0j
    res = oscillatory_integral(f, 9.0, 0.0, 1.0, 1e-12)
    assert abs(res.value - 0.5) < 1e-12


def test_halfline_exponential():
    res = integrate_left_halfline(lambda u: np.exp(u) + 0j, 2.0, 1e-10)
    assert abs(res.value - 1.0) < 1e-8


def test_halfline_algebraic():
    res = integrate_left_halfline(lambda u: 1.0 / (1 + np.abs(u)) ** 2 + 0j,
                                  2.0, 1e-10)
    assert abs(res.value - 1.0) < 1e-8


def test_halfline_jump_envelope_closed_form():
    # int_{-inf}^0 2u^2/(1+|u|)^4 du: antiderivative of 2v^2/(1+v)^4 on [0,inf)
    # is -2/(1+v) + 2/(1+v)^2 - 2/(3(1+v)^3), total 2 - 1 + ... = 2/3 at inf
    f = lambda u: 2.0 * u * u / (1.0 + np.abs(u)) ** 4 + 0j
    res = integrate_left_halfline(f, 2.0, 1e-10)
    exact = 2.0 - 2.0 + 2.0 / 3.0  # limits of the antiderivative
    assert abs(res.value - exact) < 1e-7
    ref, _ = quad(lambda v: 2 * v * v / (1 + v) ** 4, 0, np.inf)
    assert abs(res.value.real - ref) < 1e-7


def test_halfline_matches_manual_substitution():
    for f, p in [(lambda u: np.exp(u) + 0j, 2.0),
                 (lambda u: 1.0 / (1 + np.abs(u)) ** 3 + 0j, 3.0),
                 (lambda u: np.cos(u) / (1 + np.abs(u)) ** 2 + 0j, 2.0)]:
        direct = integrate_left_halfline(f, p, 1e-9)
        manual = integrate_finite(
            lambda s: np.asarray(f(-s / (1 - s)), dtype=np.complex128)
            / (1 - s) ** 2, 0.0, 1.0 - 1e-12, 1e-9)
        combined = direct.abs_error_estimate + manual.abs_error_estimate + 1e-9
        assert abs(direct.value - manual.value) <= combined


def test_oscillatory_full_periods():
    res = oscillatory_integral(lambda t: np.exp(-2j * np.pi * 3 * t), 3.0,
                               0.0, 1.0, 1e-12)
    assert abs(res.value) < 1e-12


def test_oscillatory_zero_frequency():
    res = oscillatory_integral(lambda t: np.ones_like(t) + 0j, 0.0, 0.0, 1.0,
                               1e-12)
    assert abs(res.value - 1.0) < 1e-12


def test_oscillatory_integration_by_parts():
    res = oscillatory_integral(lambda t: t * np.exp(-2j * np.pi * t), 1.0,
                               0.0, 1.0, 1e-12)
    assert abs(res.value - 1j / (2 * np.pi)) < 1e-11


def test_tolerance_halving_never_raises_estimate():
    corpus = [
        (lambda t: np.sin(7 * t) + 0j, 0.0, 3.0),
        (lambda t: 1.0 / (1.0 + t * t) + 0j, -2.0, 2.0),
        (lambda t: np.sqrt(np.abs(t)) + 0j, 0.0, 1.0),
    ]
    for f, a, b in corpus:
        prev = None
        for tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
            est = integrate_finite(f, a, b, tol).abs_error_estimate
            if prev is not None:
                assert est <= prev * (1 + 1e-12)
            prev = est


def test_linearity():
    f = lambda t: np.exp(-t) + 0j
    g = lambda t: np.cos(3 * t) + 0j
    a, b = 0.0, 2.0
    alpha, beta = 2.0 - 1.0j, 0.5
    rf = integrate_finite(f, a, b, 1e-10)
    rg = integrate_finite(g, a, b, 1e-10)
    rc = integrate_finite(lambda t: alpha * f(t) + beta * g(t), a, b, 1e-10)
    bound = 2 * (abs(alpha) * rf.abs_error_estimate
                 + abs(beta) * rg.abs_error_estimate + rc.abs_error_estimate)
    assert abs(rc.value - (alpha * rf.value + beta * rg.value)) <= bound + 1e-12


def test_determinism():
    f = lambda t: np.exp(-t * t) * np.cos(10 * t) + 0j
    r1 = integrate_finite(f, -3.0, 3.0, 1e-10)
    r2 = integrate_finite(f, -3.0, 3.0, 1e-10)
    assert r1.value == r2.value
    assert r1.abs_error_estimate == r2.abs_error_estimate


def test_invalid_interval():
    with pytest.raises(ValueError):
        integrate_finite(lambda t: t + 0j, 1.0, 0.0, 1e-8)
    with pytest.raises(ValueError):
        integrate_left_halfline(lambda u: np.exp(u) + 0j, 0.5, 1e-8)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=5))
def test_polynomial_oracle(coeffs):
    c = np.asarray(coeffs)
    f = lambda t: np.polyval(c, t) + 0j
    exact = np.polyval(np.polyint(c), 1.0) - np.polyval(np.polyint(c), -1.0)
    res = integrate_finite(f, -1.0, 1.0, 1e-12)
    assert abs(res.value - exact) < 1e-10


def test_fourier_coefficients_closed_form():
    # int_0^1 t exp(-2 pi i k t) dt = 1/2 (k = 0), i/(2 pi k) (k >= 1)
    K = 40
    res = fourier_coefficients(lambda t: t + 0j, K, 1e-13)
    k = np.arange(1, K + 1)
    assert res.converged
    assert res.value.shape == res.abs_error_estimate.shape == (K + 1,)
    assert np.all(res.abs_error_estimate <= 1e-13)
    assert abs(res.value[0] - 0.5) < 1e-13
    assert np.abs(res.value[1:] - 1j / (2 * np.pi * k)).max() < 1e-13


def test_fourier_coefficients_complex_integrand_picks_its_frequency():
    res = fourier_coefficients(lambda t: np.exp(2j * np.pi * 3 * t), 6, 1e-13)
    expected = np.zeros(7)
    expected[3] = 1.0
    assert np.abs(res.value - expected).max() < 1e-13


def test_fourier_coefficients_breakpoints_at_kinks():
    kinks = (0.0, 0.3137, 0.5521, 1.0)   # off every panel grid used
    f = lambda t: np.interp(t, kinks, [1.0, 2.0, 0.5, 1.5]) + 0j
    res = fourier_coefficients(f, 25, 1e-12, breakpoints=kinks)
    assert res.converged
    for k in (0, 1, 7, 25):
        ref = oscillatory_integral(lambda t: f(t) * np.exp(-2j * np.pi * k * t),
                                   k, 0.0, 1.0, 1e-12)
        assert abs(res.value[k] - ref.value) <= 1e-12


def test_fourier_coefficients_stop_at_max_evals(monkeypatch):
    monkeypatch.setattr(quadrature, "_FOURIER_MAX_EVALS", 100)
    f = lambda t: np.exp(-1.0 / np.maximum(t, 1e-300)) + 0j
    res = fourier_coefficients(f, 3, 1e-14)
    assert not res.converged
    assert res.evaluations == 6 * 15   # one round: 6 panels, none halved
    assert res.abs_error_estimate.max() > 1e-14


def test_fourier_coefficients_refine_only_the_boundary_layer():
    # exp(-c/t) turns on within about c of 0; only panels there are halved
    f = lambda t: np.exp(-1e-4 / np.maximum(t, 1e-300)) + 0j
    res = fourier_coefficients(f, 17, 1e-12)
    assert res.converged
    assert res.evaluations < 100 * 15


def test_fourier_coefficients_invalid_input():
    with pytest.raises(ValueError):
        fourier_coefficients(lambda t: t + 0j, -1, 1e-8)
    with pytest.raises(ValueError):
        fourier_coefficients(lambda t: t + 0j, 3, 1e-8, breakpoints=(0.5, 0.5))
