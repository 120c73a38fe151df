import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from szegolab.deep_zero import (DeepZeroSeries, decay_fit, eval_H_series,
                                membership_check)
import szegolab.probe as probe
import szegolab.quadrature as quadrature
from szegolab.frequency_sets import (FrequencySet, complement_in_range,
                                     gen_power_set)
from szegolab.probe import (AnnihilatorTarget, ProbeConfig, TrigPolyTarget,
                            gram_matrix, residual_curve, weight_fourier_coeff,
                            weight_fourier_coeffs, weighted_residual)
from szegolab.quadrature import fourier_coefficients, integrate_finite
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
    return integrate_finite(lambda t: w(t) * np.exp(-2j * np.pi * k * t),
                            0.0, 1.0, tol, omega=k)


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


def test_residual_curve_one_norm_and_two_recursions(companion, monkeypatch):
    target = TrigPolyTarget({2: 1.0, 3: 0.5})
    calls = {"norm_sq": 0, "szego": 0}
    norm_sq, szego = target.norm_sq, probe._szego

    def count_norm_sq(*args, **kwargs):
        calls["norm_sq"] += 1
        return norm_sq(*args, **kwargs)

    def count_szego(*args, **kwargs):
        calls["szego"] += 1
        return szego(*args, **kwargs)

    monkeypatch.setattr(target, "norm_sq", count_norm_sq)
    monkeypatch.setattr(probe, "_szego", count_szego)
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 50),
                      target=target, tol=1e-13)
    residual_curve(cfg, [20, 40, 80])
    # one recursion per rule at the largest N, none per N
    assert calls == {"norm_sq": 1, "szego": len(probe._RULES)}


def test_szego_recursion_gives_orthonormal_polynomials(companion):
    n = 60
    z, root_mu = probe._measure(companion, n, probe._RULES[0])
    d2, B = probe._szego(z, root_mu, n, np.arange(n + 1))
    # phi_k at the nodes, scaled by sqrt(mu): an orthonormal system
    V = root_mu[:, None] * z[:, None] ** np.arange(n + 1)
    P = V @ B
    assert np.abs(P.conj().T @ P - np.eye(n + 1)).max() <= 1e-11
    assert np.allclose(np.diag(B), 1.0 / np.sqrt(d2), rtol=1e-13, atol=0)
    # d2[k]: squared distance from 1 to span{z..z^k} in the same measure
    for k in (1, 7, n):
        c = np.linalg.lstsq(V[:, 1:k + 1], root_mu, rcond=None)[0]
        ref = np.linalg.norm(root_mu - V[:, 1:k + 1] @ c) ** 2
        assert d2[k] == pytest.approx(ref, rel=1e-11)


def test_szego_zero_masses_raise_naming_the_step():
    z = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 16, endpoint=False))
    with pytest.raises(ArithmeticError, match=r"Phi\*_n\|\|\^2 = 0.0 at n=0"):
        probe._szego(z, np.zeros(16), 5, np.arange(1))


def _szego_two_vectors(z, root_mu, n, rows, dtype=np.complex128):
    """The recursion on the two node vectors Phi_k and Phi*_k and a shifted
    coefficient vector, as the probe ran it before the reflected vector;
    dtype np.clongdouble runs it in extended precision."""
    z, phi = z.astype(dtype), root_mu.astype(dtype)
    phis = phi.copy()
    coef = np.zeros(n + 1, dtype=dtype)
    coef[0] = 1.0
    d2, B = np.empty(n + 1, phi.real.dtype), np.empty((len(rows), n + 1), dtype)
    for k in range(n + 1):
        d2[k] = d = np.vdot(phis, phis).real
        B[:, k] = coef[rows]
        if k < n:
            zp = z * phi
            a = np.vdot(phis, zp) / d
            star = a * coef[k::-1].conj()
            coef[1:k + 2] = coef[:k + 1]
            coef[0] = 0.0
            coef[:k + 1] -= star
            phi = zp - a * phis
            phis -= np.conj(a) * zp
    return d2, B / np.sqrt(d2)


@pytest.mark.parametrize("rule", probe._RULES)
@pytest.mark.parametrize("n", [60, 800])
def test_szego_matches_the_two_vector_recursion(companion, rule, n):
    z, root_mu = probe._measure(companion, n, rule)
    rows = np.arange(n + 1)
    d2, B = probe._szego(z, root_mu, n, rows)
    d2_ref, B_ref = _szego_two_vectors(z, root_mu, n, rows)
    assert np.abs(d2 / d2_ref - 1.0).max() <= 1e-13
    assert np.abs(B - B_ref).max() <= 1e-12 * np.abs(B_ref).max()


def test_szego_takes_the_nodes_as_given(companion):
    """The Verblunsky coefficients a_k = -Phi_{k+1}(0) at N = 800 within
    1e-15 of the two-vector recursion in extended precision.  Run on a
    half-angle root s of z, whose s^2 is off z by a rounding, the reflected
    vector missed them by 3.8e-15."""
    n = 800
    z, root_mu = probe._measure(companion, n, probe._RULES[-1])
    rows = np.arange(1)

    def verblunsky(d2, B):
        return -B[0, 1:] * np.sqrt(d2[1:])

    ref = verblunsky(*_szego_two_vectors(z, root_mu, n, rows, np.clongdouble))
    got = verblunsky(*probe._szego(z, root_mu, n, rows))
    assert np.abs(got - ref).max() <= 1e-15


class _TrigPolyWeight:
    """|1 - a e^{2 pi i t}|^2, whose Toeplitz determinants are known."""
    breakpoints = (0.0, 1.0)

    def __init__(self, a):
        self.a = a

    def __call__(self, t):
        return 1.0 + self.a ** 2 - 2.0 * self.a * np.cos(2.0 * np.pi * t)


@pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
def test_szego_distances_match_the_trig_poly_weight(a):
    N = 1000
    d2, _ = probe._szego(*probe._measure(_TrigPolyWeight(a), N,
                                         probe._RULES[0]), N, np.arange(1))
    n = np.arange(N + 1)
    # D_{n+1} / D_n for the Toeplitz determinants of |1 - a z|^2
    exact = (1.0 - a ** (2 * n + 4)) / (1.0 - a ** (2 * n + 2))
    assert np.abs(d2 / exact - 1.0).max() <= 1e-12


def _dense_residual(w, n_max, kept, target_values):
    """Least squares by SVD on the sqrt(mu)-scaled samples of the larger
    rule, which gives the curve's values."""
    z, root_mu = probe._measure(w, n_max, probe._RULES[-1])
    V = root_mu[:, None] * z[:, None] ** np.asarray(kept)
    y = root_mu * target_values(z)
    c = np.linalg.lstsq(V, y, rcond=None)[0]
    return np.linalg.norm(y - V @ c)


@pytest.mark.parametrize("rho, count", [(3, 50), (2, 100)],
                         ids=["cubes", "squares"])
def test_residual_curve_matches_dense_least_squares(companion, rho, count):
    gamma = gen_power_set(rho, count)
    N_list = [50, 100, 200, 400]
    cfg = ProbeConfig(weight=companion, gamma=gamma,
                      target=TrigPolyTarget({0: 1.0}), tol=1e-13)
    curve = residual_curve(cfg, N_list)
    kept = complement_in_range(gamma, N_list[-1])
    for rec in curve.records:
        freqs = [k for k in kept if k <= rec.N]
        ref = _dense_residual(companion, max(kept), freqs,
                              lambda z: np.ones_like(z))
        assert rec.residual == pytest.approx(ref, rel=1e-6)
        assert rec.residual_error <= 1e-9 * rec.residual


def test_annihilator_drop_matches_dense_schur_complement(s20, companion):
    target = AnnihilatorTarget(s20)
    freqs = complement_in_range(gen_power_set(2, 100), 300)
    res0, _, norm, _ = weighted_residual(target, freqs, companion, tol=1e-13)
    res9, coeffs, _, _ = weighted_residual(target, sorted(freqs + [9]),
                                           companion, tol=1e-13)
    assert res0 == norm
    # the Schur complement of e_9 in the unfloored Gram matrix of the same
    # samples: the squared distance from e_9 to the rest of the span
    schur = _dense_residual(companion, max(freqs), freqs,
                            lambda z: z ** 9) ** 2
    predicted = abs(target.inner([9])[0]) ** 2 / schur
    assert res0 ** 2 - res9 ** 2 == pytest.approx(predicted, rel=1e-6)
    # the projection is c e_9 plus the part of e_9's projection on the
    # rest that cancels it, with c = b_9 / schur
    assert coeffs[sorted(freqs + [9]).index(9)] == pytest.approx(
        target.inner([9])[0] / schur, rel=1e-6)


def test_annihilator_residual_error_is_the_norm_error(s20, companion):
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(2, 100),
                      target=AnnihilatorTarget(s20), tol=1e-13)
    norm_sq, err = membership_check(s20, companion, 1e-13)
    norm = math.sqrt(norm_sq)
    for rec in residual_curve(cfg, [50, 100]).records:
        assert rec.residual == rec.target_norm == norm
        assert rec.residual_error == norm - math.sqrt(norm_sq - err)


def test_weighted_residual_refuses_a_floor():
    w = make_constant_weight(1.0)
    f = TrigPolyTarget({1: 1.0})
    assert weighted_residual(f, [1], w, floor=0)[0] == 0.0
    with pytest.raises(ValueError, match="floor"):
        weighted_residual(f, [1], w, floor=1e-10)


def test_residual_curve_coefficient_quadrature_reads_only_target_lags(
        companion, s20, monkeypatch):
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
    assert np.array_equal(asked[0], np.arange(6))
    # an annihilator's norm and inner products read no weight coefficient
    cfg.target = AnnihilatorTarget(s20)
    residual_curve(cfg, [50, 200])
    assert len(asked) == 1


def test_trigpoly_inner_products_index_the_vector():
    what = np.array([2.0, 0.5 + 0.25j, -0.125j, 0.0625 + 0.5j])
    f = TrigPolyTarget({2: 1.0, 4: 1j})
    # ||f||_w^2 = sum a_n conj(a_l) w-hat(l - n), w-hat(-k) = conj(w-hat(k))
    assert np.array_equal(f.at([1, 2, 3, 4]), [0.0, 1.0, 0.0, 1j])
    norm = 2.0 + 2.0 + 2.0 * (np.conj(1j) * what[2]).real
    value, error = f.norm_sq(what, tol=1e-13)
    assert value == pytest.approx(norm, rel=1e-15)
    # each coefficient within tol: |a_2| + |a_4| = 2
    assert error == pytest.approx(4e-13, rel=1e-15)


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
    assert second.residual < first.residual
    # sigma_max/sigma_min of the solved block: with no frequency kept it
    # has every row 0..5 of the target's range, from the recursion to the
    # curve's largest degree, 10
    _, B = probe._szego(*probe._measure(companion, 10, probe._RULES[-1]),
                        10, np.arange(6))
    s = np.linalg.svd(B[:, :6], compute_uv=False)
    assert first.cond_estimate == pytest.approx(s[0] / s[-1], rel=1e-12)


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
        res = integrate_finite(
            lambda t: eval_H_series(s20, t) * np.exp(-2j * np.pi * m * t),
            0.0, 1.0, 1e-9, omega=max(top, abs(m)))
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
