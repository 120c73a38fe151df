import numpy as np
import pytest
from scipy.integrate import quad

from szegolab.blaschke import (BlaschkeAnnihilator, JumpFunction,
                               cauchy_identity_residual, compute_G,
                               convolution_identity_residual, eval_g,
                               eval_phi, eval_phi_boundary, g_l1_norm,
                               gamma_vanishing_residual)
from szegolab.frequency_sets import FrequencySet, gen_power_set


@pytest.fixture(scope="module")
def cubes():
    return gen_power_set(3, 50)


@pytest.fixture(scope="module")
def ann(cubes):
    return BlaschkeAnnihilator(cubes)


@pytest.fixture(scope="module")
def jump(ann):
    return JumpFunction(ann)


def test_divergent_set_rejected():
    with pytest.raises(ValueError):
        BlaschkeAnnihilator(gen_power_set(2, 30))


def test_vanishes_on_retained(ann):
    vals, bound = eval_phi(ann, np.array([1.0 + 0j, 8.0 + 0j, 27.0 + 0j]))
    assert np.all(vals == 0)
    assert bound == 0.0  # full product retained


def test_conjugate_symmetry(ann):
    z = 1.0 + 1.0j
    v1, _ = eval_phi(ann, z)
    v2, _ = eval_phi(ann, np.conj(z))
    assert abs(v1 - np.conj(v2)) < 1e-12 * abs(v1)


def test_modulus_below_blaschke_prefactor(ann):
    for z in (1j, 1 + 1j, -2 + 0.5j, 3 - 2j):
        v, _ = eval_phi(ann, z)
        pref = abs(z ** 2 / (1 + np.sqrt(complex(z))) ** 8)
        assert abs(v) <= pref * (1 + 1e-12)


def test_cut_rejected(ann):
    with pytest.raises(ValueError):
        eval_phi(ann, -1.0 + 0j)


def test_boundary_matches_interior_limit(ann):
    # phi_+ is the limit of phi from the upper side
    t = -2.0
    bv = eval_phi_boundary(ann, t)
    inner, _ = eval_phi(ann, t + 1e-9j)
    assert abs(bv - inner) < 1e-6 * abs(bv)


def test_boundary_modulus_identity(ann):
    for t in (-0.5, -1.0, -10.0, -100.0):
        p = eval_phi_boundary(ann, t)
        ratio = abs(p) * (1 + abs(t)) ** 4 / t ** 2
        assert abs(ratio - 1.0) < 1e-12
    assert abs(eval_phi_boundary(ann, -1.0)) == pytest.approx(1.0 / 16.0,
                                                              rel=1e-12)


def test_boundary_zero_at_origin(ann):
    assert eval_phi_boundary(ann, 0.0) == 0.0


def test_jump_support_and_purity(ann, jump):
    assert eval_g(jump, 1.0) == 0.0
    assert eval_g(jump, 0.0) == 0.0
    g = eval_g(jump, -0.5)
    assert abs(g.real) == 0.0
    assert abs(eval_g(jump, -1.0)) <= 2.0 / 16.0 + 1e-12


def test_jump_envelope_on_log_grid(jump):
    t = -np.geomspace(1e-3, 1e3, 40)
    g = jump(t)
    bound = jump.envelope(t)
    assert np.all(np.abs(g) <= bound * (1 + 1e-12))


def test_boundary_derivative_continuous_at_zero(ann):
    # both one-sided difference quotients of phi_+ * 1_(t<=0) tend to 0
    for h in (1e-3, 1e-4, 1e-5):
        left = abs(eval_phi_boundary(ann, -h)) / h
        assert left < 10 * h  # quadratic vanishing beats the quotient
    # right side is identically zero by the support convention


def test_gamma_vanishing(jump):
    l1, _ = g_l1_norm(jump, 1e-8)
    assert 0.1 < l1 < 2.0
    for gam in (1.0, 8.0, 27.0):
        r, err = gamma_vanishing_residual(jump, gam, 1e-8)
        assert r < 1e-6 * l1


@pytest.mark.parametrize("q", [2.0, 3.0, 10.0])
def test_off_set_residual_is_the_product_value(ann, jump, q):
    """Off the set the residual is |int g(u)/(u-q) du| = 2 pi |phi(q)| by
    the Cauchy representation; eval_phi evaluates the product directly, so
    the two routes share no quadrature.  Criterion 3's control point is
    q=2, where 2 pi |phi(2)| is 7.69e-5."""
    resid, err = gamma_vanishing_residual(jump, q, 1e-8)
    phi, bound = eval_phi(ann, q)
    expected = 2.0 * np.pi * abs(phi)
    assert abs(resid - expected) <= err + expected * bound


def test_gamma_vanishing_empty_product_rejected():
    ann0 = BlaschkeAnnihilator(FrequencySet((1.0,)), K=0)
    with pytest.raises(ValueError):
        gamma_vanishing_residual(JumpFunction(ann0), 1.0, 1e-6)


def test_cauchy_identity_empty_product():
    ann0 = BlaschkeAnnihilator(FrequencySet((1.0,)), K=0)
    j0 = JumpFunction(ann0)
    assert cauchy_identity_residual(ann0, j0, 1j, 1e-6) < 1e-4


def test_cauchy_identity_sampled(ann, jump):
    for z in (1j, -1 + 1j, -2 - 0.3j):
        assert cauchy_identity_residual(ann, jump, z, 1e-6) < 1e-4


def test_large_z_decay(ann):
    # |z^2 phi(z)| climbs monotonically toward 1 once |z| clears the
    # largest product zero, so |phi(z)| = O(|z|^-2) with constant <= 1
    scaled = [abs(eval_phi(ann, R * 1j)[0]) * R ** 2
              for R in (1e9, 1e10, 1e11)]
    assert scaled[0] < scaled[1] < scaled[2] <= 1.0
    assert scaled[2] > 0.9


def test_G_symmetry_and_bound(jump):
    l1, _ = g_l1_norm(jump, 1e-8)
    gp = compute_G(jump, 1.0, 1e-6)
    gm = compute_G(jump, -1.0, 1e-6)
    assert abs(np.conj(gp.value) + gm.value) < 1e-4
    for s in (0.0, 1.0, 10.0):
        r = compute_G(jump, s, 1e-6)
        assert abs(r.value) <= l1 * (1 + 1e-6)
    g0 = compute_G(jump, 0.0, 1e-6)
    assert abs(g0.value.real) < 1e-4  # purely imaginary at s = 0


def test_G_against_scipy(jump):
    s = 0.5
    ref_re, _ = quad(lambda u: (jump(np.array([u]))[0]
                                * np.exp(2j * np.pi * s * u)).real,
                     -np.inf, 0, limit=800)
    ref_im, _ = quad(lambda u: (jump(np.array([u]))[0]
                                * np.exp(2j * np.pi * s * u)).imag,
                     -np.inf, 0, limit=800)
    r = compute_G(jump, s, 1e-6)
    assert abs(r.value - (ref_re + 1j * ref_im)) < 1e-4


def test_convolution_two_routes_quick(jump):
    out = convolution_identity_residual(jump, 1.0, 0.25, 1e-3)
    assert "reduced" in out["values"]
    assert out["max_discrepancy"] < 1e-3


def test_convolution_t_range_guard(jump):
    with pytest.raises(ValueError):
        convolution_identity_residual(jump, 0.0, 3.0)


def test_tail_bound_truncation(cubes):
    ann_cut = BlaschkeAnnihilator(cubes, K=40)
    assert ann_cut.tail_bound(1.0) > 0
    assert ann_cut.tail_bound(4.0) == pytest.approx(
        2 * ann_cut.tail_bound(1.0), rel=1e-12)
    full = BlaschkeAnnihilator(cubes)
    assert full.tail_bound(100.0) == 0.0
