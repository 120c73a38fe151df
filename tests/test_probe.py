import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from szegolab.deep_zero import DeepZeroSeries, decay_fit, eval_H_series
import szegolab.probe as probe
import szegolab.quadrature as quadrature
from szegolab.frequency_sets import (FrequencySet, complement_in_range,
                                     gen_power_set)
from szegolab.probe import (AnnihilatorTarget, ProbeConfig, TrigPolyTarget,
                            gram_matrix, residual_curve, weight_fourier_coeff,
                            weight_fourier_coeffs, weighted_residual)
from szegolab.quadrature import fourier_coefficients, oscillatory_integral
from szegolab.weights import (make_constant_weight, make_exp_weight,
                              make_tabulated_weight)


EPS = np.finfo(float).eps


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
    res = fourier_coefficients(w, np.arange(K + 1), tol, w.breakpoints)
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
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 100)
    with pytest.raises(ArithmeticError, match=r"k=\d+ reached only"):
        weight_fourier_coeffs(make_exp_weight(1.0), 5, 1e-12)


def test_coefficient_vector_does_not_depend_on_what_was_asked_before():
    tol = 1e-12
    fresh = weight_fourier_coeffs(make_exp_weight(0.3), 399, tol)
    w = make_exp_weight(0.3)
    weight_fourier_coeffs(w, 3, tol)
    weight_fourier_coeff(w, -40, 1e-11)
    again = weight_fourier_coeffs(w, 399, tol)
    assert np.array_equal(again, fresh)
    again[:] = 0.0                      # the caller owns the vector
    assert np.array_equal(weight_fourier_coeffs(w, 399, tol), fresh)


def test_fourier_coeffs_bench_weight_evaluation_count():
    # the companion weight of the probe benchmarks: one round of 2K panels
    # on [0, 1], none halved
    res = fourier_coefficients(make_exp_weight(0.465), np.arange(800), 1e-13)
    assert res.converged
    assert res.evaluations == 23_970


def test_fourier_coeffs_memory_stays_below_the_panel_lag_node_tensor():
    w = make_exp_weight(0.465)
    tracemalloc.start()
    try:
        weight_fourier_coeffs(w, 799, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of the explicit (panel x lag x node) tensor peaked at 11.7 MiB
    # on this call
    assert peak <= 11.7 * 2 ** 20


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
        freqs = complement_in_range(gamma, rec.N)
        res, coeffs, norm, cond = weighted_residual(target, freqs, companion,
                                                    tol=1e-13)
        # each solve computes its own coefficient vector, whose length (and
        # so its last bits) follows its N; residual^2 = norm^2 - |y|^2 then
        # agrees to the cancellation floor of that difference
        assert rec.target_norm == pytest.approx(norm, rel=4 * EPS)
        assert abs(rec.residual ** 2 - res ** 2) <= 8 * EPS * norm ** 2
        assert abs(rec.cond_estimate - cond) <= 1e-6 * cond
        assert coeffs.shape == (len(freqs),)


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


def test_bordered_factor_last_row_solves_the_gram_system(companion):
    target = TrigPolyTarget({0: 1.0, 2: 0.5j, 9: -0.25})
    freqs = complement_in_range(gen_power_set(3, 50), 300)
    norm, [(res, _)], L, y = probe._prefix_residuals(
        target, freqs, companion, None, 1e-13, [len(freqs)])
    f = np.array(freqs)
    what = weight_fourier_coeffs(companion, int(f.max()), 1e-13)
    b = target.inner(f, what)
    A = probe._gram(f, what) + 1e-10 * what[0].real * np.eye(f.size)
    assert np.allclose(L @ L.conj().T, A, rtol=0, atol=1e-14)
    assert np.abs(L @ y - b).max() <= 1e-14 * np.abs(b).max()
    proj = np.vdot(b, np.linalg.solve(A, b)).real
    assert abs(res ** 2 - (norm ** 2 - proj)) <= 8 * EPS * norm ** 2


def test_residual_curve_one_batched_coefficient_quadrature(companion,
                                                           monkeypatch):
    asked = []

    def spy(f, freqs, *args, **kwargs):
        asked.append(np.array(freqs))
        return fourier_coefficients(f, freqs, *args, **kwargs)

    monkeypatch.setattr(probe, "fourier_coefficients", spy)
    # the target's frequency 0 lies below the complement's, which start at 2
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 50),
                      target=TrigPolyTarget({0: 1.0, 3: 0.5, 5: 0.25}),
                      tol=1e-13)
    residual_curve(cfg, [50, 200])
    assert len(asked) == 1
    assert np.array_equal(asked[0], np.arange(201))


def test_trigpoly_inner_products_index_the_vector():
    what = np.array([2.0, 0.5 + 0.25j, -0.125j, 0.0625 + 0.5j])
    f = TrigPolyTarget({2: 1.0, 4: 1j})
    # <f, e_m>_w = sum_n a_n w-hat(m - n), w-hat(-k) = conj(w-hat(k))
    expected = [np.conj(what[1]) + 1j * np.conj(what[3]),
                what[1] + 1j * np.conj(what[1]),
                what[3] + 1j * what[1]]
    assert np.array_equal(f.inner([1, 3, 5], what), expected)
    norm = 2.0 + 2.0 + 2.0 * (np.conj(1j) * what[2]).real
    assert f.norm_sq(what) == pytest.approx(norm, rel=1e-15)


def test_gram_unsorted_with_negative_frequencies(companion):
    freqs = [7, -3, 0, 12, -8, 2]
    G = gram_matrix(freqs, companion, 1e-12)
    vec = weight_fourier_coeffs(companion, 20, 1e-12)    # 12 - (-8)
    for i, fi in enumerate(freqs):
        for j, fj in enumerate(freqs):
            d = fi - fj
            assert G[i, j] == (vec[d] if d >= 0 else np.conj(vec[-d]))


def test_residual_curve_empty_first_complement(companion):
    target = TrigPolyTarget({2: 1.0, 5: 0.5})
    cfg = ProbeConfig(weight=companion, gamma=FrequencySet((1, 2, 3)),
                      target=target, tol=1e-13)
    first, second = residual_curve(cfg, [3, 10]).records
    assert first.residual == first.target_norm > 0
    assert first.cond_estimate == 1.0
    assert second.residual < first.residual


def test_annihilator_flat_curve(s20, companion):
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(2, 100),
                      target=AnnihilatorTarget(s20), tol=1e-13)
    curve = residual_curve(cfg, [50, 100])
    for r in curve.records:
        assert r.ratio >= 0.99


def test_annihilator_inner_products(s20):
    # <H/w, e_m>_w = int_0^1 H(t) e^{-2 pi i m t} dt whatever the weight;
    # the target reads them off the series, checked here by quadrature
    ms = [2, 4, 9, 25, -9]
    b = AnnihilatorTarget(s20).inner(ms)
    top = float(np.max(s20.freqs))
    for m, value in zip(ms, b):
        res = oscillatory_integral(
            lambda t: eval_H_series(s20, t) * np.exp(-2j * np.pi * m * t),
            max(top, abs(m)), 0.0, 1.0, 1e-9)
        assert res.converged
        assert abs(value - res.value) < 1e-7
    assert b[0] == 0.0                  # no frequency-2 component
    assert b[1] == 0.0                  # even square also annihilated
    assert b[2] == s20.coeffs[1]        # odd square carries the coefficient
    assert b[4] == -s20.coeffs[1]


def test_probe_config_digest_stable(companion, s20):
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(2, 10),
                      target=AnnihilatorTarget(s20))
    assert cfg.digest() == cfg.digest()
    cfg2 = ProbeConfig(weight=companion, gamma=gen_power_set(2, 11),
                       target=AnnihilatorTarget(s20))
    assert cfg.digest() != cfg2.digest()
