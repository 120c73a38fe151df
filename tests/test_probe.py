import math

import numpy as np
import pytest
from scipy.integrate import quad

from szegolab.deep_zero import DeepZeroSeries, decay_fit
import szegolab.probe as probe
import szegolab.quadrature as quadrature
from szegolab.frequency_sets import (FrequencySet, complement_in_range,
                                     gen_power_set)
from szegolab.probe import (AnnihilatorTarget, ProbeConfig, SampledTarget,
                            TrigPolyTarget, annihilator_test,
                            convolution_stability_check, gram_matrix,
                            residual_curve, weight_fourier_coeff,
                            weight_fourier_coeffs, weighted_residual)
from szegolab.quadrature import fourier_coefficients, oscillatory_integral
from szegolab.weights import (make_constant_weight, make_exp_weight,
                              make_tabulated_weight)


@pytest.fixture(scope="module")
def s20():
    return DeepZeroSeries.build(0, 20)


@pytest.fixture(scope="module")
def companion(s20):
    fit = decay_fit(s20, 1.0 / np.linspace(5.0, 50.0, 20))
    return make_exp_weight(2.0 * 0.9 * fit.c2)


def test_fourier_coeff_constant_weight():
    w = make_constant_weight(1.0)
    assert weight_fourier_coeff(w, 0) == 1.0
    assert weight_fourier_coeff(w, 3) == 0.0


def test_fourier_coeff_exp_weight_oracle():
    w = make_exp_weight(1.0)
    ref0, _ = quad(lambda t: math.exp(-1.0 / t), 1e-12, 1.0, limit=400)
    assert abs(weight_fourier_coeff(w, 0, 1e-12) - ref0) < 1e-9
    k = 2
    ref_re, _ = quad(lambda t: math.exp(-1 / t) * math.cos(2 * math.pi * k * t),
                     1e-12, 1, limit=400)
    ref_im, _ = quad(lambda t: -math.exp(-1 / t) * math.sin(2 * math.pi * k * t),
                     1e-12, 1, limit=400)
    assert abs(weight_fourier_coeff(w, k, 1e-12) - (ref_re + 1j * ref_im)) < 1e-9


def test_fourier_coeff_conjugate_symmetry():
    w = make_exp_weight(0.5)
    assert weight_fourier_coeff(w, -5) == np.conj(weight_fourier_coeff(w, 5))


def _per_lag(w, k, tol):
    return oscillatory_integral(lambda t: w(t) * np.exp(-2j * np.pi * k * t),
                                k, 0.0, 1.0, tol)


@pytest.mark.parametrize("K", [0, 1, 17, 799])
@pytest.mark.parametrize("c", [1e-4, 1e-3, 0.1, 0.25, 1.0, 5.0])
def test_fourier_coeffs_match_per_lag_route(c, K):
    tol = 1e-12
    w = make_exp_weight(c)
    res = fourier_coefficients(w, K, tol, w.breakpoints)
    assert res.converged and np.all(res.abs_error_estimate <= tol)
    vec = weight_fourier_coeffs(w, K, tol)
    assert np.array_equal(vec, res.value)
    for k in sorted({0, min(1, K), K // 3, K // 2, max(K - 1, 0), K}):
        ref = _per_lag(w, k, tol)
        assert ref.converged
        assert abs(vec[k] - ref.value) <= tol


def test_fourier_coeffs_tabulated_weight_with_kinks():
    tol = 1e-12
    # kinks off every dyadic panel grid, so only breakpoints resolve them
    w = make_tabulated_weight([(0.13, 0.2), (0.37, 0.5), (0.61, 0.55),
                               (0.87, 1.0)])
    assert w.breakpoints == (0.0, 0.13, 0.37, 0.61, 0.87, 1.0)
    vec = weight_fourier_coeffs(w, 40, tol)
    for k in range(41):
        assert abs(vec[k] - _per_lag(w, k, tol).value) <= tol


def test_fourier_coeffs_constant_weight_exact():
    vec = weight_fourier_coeffs(make_constant_weight(2.5), 30)
    assert vec[0] == 2.5
    assert np.all(vec[1:] == 0.0)


def test_fourier_coeffs_unconverged_lag_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_FOURIER_MAX_EVALS", 100)
    with pytest.raises(ArithmeticError, match=r"k=\d+ reached only"):
        weight_fourier_coeffs(make_exp_weight(1.0), 5, 1e-12)


def test_fourier_coeff_cache_same_from_vector_and_scalar_routes():
    tol = 1e-12
    w_vec, w_scalar = make_exp_weight(0.3), make_exp_weight(0.3)
    vec = weight_fourier_coeffs(w_vec, 40, tol)
    top = weight_fourier_coeff(w_scalar, 40, tol)     # misses: fills 0..40
    assert top == vec[40]
    assert w_scalar._fourier_cache.keys() == w_vec._fourier_cache.keys()
    assert np.array_equal(w_scalar._fourier_cache[tol], w_vec._fourier_cache[tol])
    assert np.array_equal(weight_fourier_coeffs(w_scalar, 40, tol), vec)
    for k in range(-40, 41):
        expected = vec[k] if k >= 0 else np.conj(vec[-k])
        assert weight_fourier_coeff(w_vec, k, tol) == expected
    # a shorter vector reads the cache, not a new quadrature
    assert np.array_equal(weight_fourier_coeffs(w_vec, 7, tol), vec[:8])
    # a longer one keeps the values the weight has already reported
    low = weight_fourier_coeff(w_scalar, 3, 1e-11)
    assert weight_fourier_coeffs(w_scalar, 60, 1e-11)[3] == low
    with pytest.raises(ValueError):
        vec[0] = 0.0                    # the cached vector is read-only


def test_gram_identity_for_unit_weight():
    w = make_constant_weight(1.0)
    G = gram_matrix([1, 2, 5], w)
    assert np.allclose(G, np.eye(3))


def test_gram_toeplitz_and_hermitian(companion):
    G = gram_matrix([1, 2, 3, 5], companion, 1e-12)
    assert np.allclose(G, G.conj().T)
    assert np.allclose(np.diag(G), weight_fourier_coeff(companion, 0, 1e-12))
    assert abs(G[0, 1] - weight_fourier_coeff(companion, -1, 1e-12)) < 1e-14


def test_gram_positive_semidefinite(companion):
    freqs = list(range(1, 25))
    G = gram_matrix(freqs, companion, 1e-12)
    eigs = np.linalg.eigvalsh(G)
    assert eigs.min() >= -10 * 1e-12 * len(freqs)


def test_gram_rejects_duplicates():
    with pytest.raises(ValueError):
        gram_matrix([1, 1, 2], make_constant_weight(1.0))


def test_residual_exact_representation():
    w = make_constant_weight(1.0)
    f = TrigPolyTarget({1: 1.0})
    res, coeffs, norm, _ = weighted_residual(f, [1], w, floor=0.0)
    assert res < 1e-12
    assert abs(coeffs[0] - 1.0) < 1e-12


def test_residual_orthogonal_target():
    w = make_constant_weight(1.0)
    f = TrigPolyTarget({2: 1.0})
    res, _, norm, _ = weighted_residual(f, [1], w, floor=0.0)
    assert abs(res - 1.0) < 1e-12
    assert abs(norm - 1.0) < 1e-12


def test_residual_scalar_invariance(companion):
    f1 = TrigPolyTarget({2: 1.0, 3: 0.5})
    f2 = TrigPolyTarget({2: 3.0, 3: 1.5})
    r1, _, n1, _ = weighted_residual(f1, [1, 4], companion, tol=1e-13)
    r2, _, n2, _ = weighted_residual(f2, [1, 4], companion, tol=1e-13)
    assert abs(r2 - 3 * r1) < 1e-9
    assert abs(n2 - 3 * n1) < 1e-9


def test_unit_weight_reduces_to_fourier_truncation():
    w = make_constant_weight(1.0)
    targets = [TrigPolyTarget({1: 1.0, 4: -2.0, 7: 0.5j}),
               TrigPolyTarget({2: 1.0j, 3: 1.0}),
               TrigPolyTarget({5: -1.0, 6: 2.0, 8: 0.25})]
    freqs = [1, 2, 3]
    for f in targets:
        res, _, _, _ = weighted_residual(f, freqs, w, floor=0.0)
        tail = math.sqrt(sum(abs(a) ** 2 for n, a in f.coeffs.items()
                             if n not in freqs))
        assert abs(res - tail) < 1e-10


def test_residual_curve_monotone(companion):
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 50),
                      target=TrigPolyTarget({2: 1.0, 3: 0.5}), tol=1e-13)
    curve = residual_curve(cfg, [20, 40, 80])
    res = [r.residual for r in curve.records]
    assert all(b <= a + 1e-8 for a, b in zip(res, res[1:]))
    assert all(r.residual <= r.target_norm * (1 + 1e-9)
               for r in curve.records)


def test_residual_curve_requires_increasing_N(companion):
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 10),
                      target=TrigPolyTarget({2: 1.0}))
    with pytest.raises(ValueError):
        residual_curve(cfg, [50, 50])


@pytest.mark.parametrize("rho, count, target, N_list", [
    (2, 100, "annihilator", [50, 100]),
    (3, 50, {2: 1.0, 3: 0.5, 5: 0.25}, [20, 40, 80]),
], ids=["squares", "cubes"])
def test_residual_curve_matches_per_N_solves(s20, companion, rho, count,
                                             target, N_list):
    target = (AnnihilatorTarget(s20) if target == "annihilator"
              else TrigPolyTarget(target))
    gamma = gen_power_set(rho, count)
    cfg = ProbeConfig(weight=companion, gamma=gamma, target=target, tol=1e-13)
    curve = residual_curve(cfg, N_list)
    for rec in curve.records:
        res, coeffs, norm, cond = weighted_residual(
            target, complement_in_range(gamma, rec.N), companion, tol=1e-13)
        assert abs(rec.residual - res) < 1e-12
        assert rec.target_norm == norm
        assert abs(rec.cond_estimate - cond) <= 1e-6 * cond
        assert rec.coefficients.shape == coeffs.shape


def test_residual_curve_factors_once(companion, monkeypatch):
    target = TrigPolyTarget({2: 1.0, 3: 0.5})
    calls = {"norm_sq": 0, "cholesky": 0}
    norm_sq, cholesky = target.norm_sq, np.linalg.cholesky

    def count_norm_sq(*args, **kwargs):
        calls["norm_sq"] += 1
        return norm_sq(*args, **kwargs)

    def count_cholesky(*args, **kwargs):
        calls["cholesky"] += 1
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(target, "norm_sq", count_norm_sq)
    monkeypatch.setattr(np.linalg, "cholesky", count_cholesky)
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 50),
                      target=target, tol=1e-13)
    residual_curve(cfg, [20, 40, 80])
    assert calls == {"norm_sq": 1, "cholesky": 1}


def test_residual_curve_one_batched_coefficient_quadrature(companion,
                                                           monkeypatch):
    calls = {"oscillatory_integral": 0, "fourier_coefficients": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(probe, name, spy(name, getattr(probe, name)))
    w = make_exp_weight(companion.c)      # fresh coefficient cache
    cfg = ProbeConfig(weight=w, gamma=gen_power_set(3, 50),
                      target=TrigPolyTarget({2: 1.0, 3: 0.5, 5: 0.25}),
                      tol=1e-13)
    residual_curve(cfg, [50, 200])
    assert calls == {"oscillatory_integral": 0, "fourier_coefficients": 1}


def test_gram_unsorted_with_negative_frequencies(companion):
    freqs = [7, -3, 0, 12, -8, 2]
    G = gram_matrix(freqs, companion, 1e-12)
    for i, fi in enumerate(freqs):
        for j, fj in enumerate(freqs):
            assert G[i, j] == weight_fourier_coeff(companion, fi - fj, 1e-12)


def test_residual_curve_empty_first_complement(companion):
    target = TrigPolyTarget({2: 1.0, 5: 0.5})
    cfg = ProbeConfig(weight=companion, gamma=FrequencySet((1, 2, 3)),
                      target=target, tol=1e-13)
    first, second = residual_curve(cfg, [3, 10]).records
    assert first.residual == first.target_norm > 0
    assert first.cond_estimate == 1.0
    assert first.coefficients.size == 0
    assert second.residual < first.residual


def test_annihilator_flat_curve(s20, companion):
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(2, 100),
                      target=AnnihilatorTarget(s20), tol=1e-13)
    curve = residual_curve(cfg, [50, 100])
    for r in curve.records:
        assert r.ratio >= 0.99


def test_annihilator_inner_products(s20, companion):
    report = annihilator_test(s20, companion, [2, 4, 9, 25, -9], tol=1e-9,
                              zero_tol=1e-7)
    assert report.passed
    by_n = {n: (val, expected) for n, val, expected, _ in report.entries}
    assert abs(by_n[2][0]) < 1e-7       # no frequency-2 component
    assert abs(by_n[4][0]) < 1e-7       # even square also annihilated
    c1 = s20.coeffs[1]
    assert abs(by_n[9][0] - c1) < 1e-7  # odd square carries the coefficient
    assert abs(by_n[-9][0] + c1) < 1e-7


def test_convolution_stability_polynomial():
    # F(s) = s, psi = 1, w = 1: (F*psi)(t) = t^2/2, integral = 1/20
    w = make_constant_weight(1.0)
    value, ceiling, ok = convolution_stability_check(
        lambda s: np.asarray(s, dtype=np.complex128),
        lambda s: np.ones_like(np.asarray(s, dtype=float)) + 0j, w, 1e-8)
    assert abs(value - 1.0 / 20.0) < 1e-4
    assert ok and value <= ceiling


def test_convolution_stability_zero():
    w = make_constant_weight(1.0)
    value, ceiling, ok = convolution_stability_check(
        lambda s: np.zeros_like(np.asarray(s, dtype=float)) + 0j,
        lambda s: np.ones_like(np.asarray(s, dtype=float)) + 0j, w, 1e-8)
    assert value < 1e-12
    assert ok


def test_sampled_target_matches_trigpoly(companion):
    f = SampledTarget(lambda t: np.exp(2j * np.pi * 2 * np.asarray(t)))
    tp = TrigPolyTarget({2: 1.0})
    assert abs(f.inner(3, companion, 1e-10)
               - tp.inner(3, companion, 1e-12)) < 1e-8
    assert abs(f.norm_sq(companion, 1e-10)
               - tp.norm_sq(companion, 1e-12)) < 1e-8


def test_probe_config_digest_stable(companion, s20):
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(2, 10),
                      target=AnnihilatorTarget(s20))
    assert cfg.digest() == cfg.digest()
    cfg2 = ProbeConfig(weight=companion, gamma=gen_power_set(2, 11),
                       target=AnnihilatorTarget(s20))
    assert cfg.digest() != cfg2.digest()
