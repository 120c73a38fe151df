import numpy as np
import pytest
from scipy.integrate import quad

from szegolab import blaschke
from szegolab.blaschke import (BlaschkeAnnihilator, JumpFunction,
                               cauchy_identity_residual, compute_G,
                               convolution_identity_residual, eval_phi,
                               eval_phi_boundary, g_l1_norm,
                               gamma_vanishing_residual)
from szegolab.frequency_sets import FrequencySet, gen_power_set
from szegolab.quadrature import QuadratureResult, integrate_finite


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


def test_scalar_only_for_a_scalar_argument(ann):
    """A 0-d argument gives a scalar, a one-element array an array."""
    assert np.ndim(eval_phi_boundary(ann, -1.0)) == 0
    assert eval_phi_boundary(ann, np.array([-1.0])).shape == (1,)
    assert np.ndim(eval_phi(ann, 1j)[0]) == 0
    vals, _ = eval_phi(ann, np.array([1j]))
    assert vals.shape == (1,)


def test_jump_support_and_purity(ann, jump):
    g = jump(np.array([1.0, 0.0, -0.5, -1.0]))
    assert g[0] == 0.0
    assert g[1] == 0.0
    assert abs(g[2].real) == 0.0
    assert abs(g[3]) <= 2.0 / 16.0 + 1e-12


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
    # g(-tau) = i gamma(tau) with gamma real, so G(s) is the pair of Fourier
    # integrals of gamma over [0, inf) that QUADPACK's QAWF evaluates
    s = 0.5

    def gamma(tau):
        return jump(np.array([-tau]))[0].imag

    ref_re, _ = quad(gamma, 0, np.inf, weight="sin", wvar=2 * np.pi * s)
    ref_im, _ = quad(gamma, 0, np.inf, weight="cos", wvar=2 * np.pi * s)
    r = compute_G(jump, s, 1e-6)
    assert abs(r.value - (ref_re + 1j * ref_im)) < 1e-6


def test_convolution_two_routes_quick(jump):
    out = convolution_identity_residual(jump, 1.0, 0.25, 1e-3)
    assert "reduced" in out["values"]
    assert out["max_discrepancy"] < 1e-3


def _G_per_s(j, s, tol):
    """compute_G's route before batching, one adaptive quadrature per s on
    the same interval, with the same tail and integration-by-parts terms."""
    if abs(s) < 0.05:
        T = 4.0e4
        res = integrate_finite(lambda u: j(u) * np.exp(2j * np.pi * s * u),
                               -T, 0.0, tol, omega=s)
        tail = 2.0 * (1 / (1 + T) - 1 / (1 + T) ** 2 + 1 / (3 * (1 + T) ** 3))
        return res.value, res.abs_error_estimate + tail, res.converged
    T = 200.0
    res = integrate_finite(lambda u: j(u) * np.exp(2j * np.pi * s * u),
                           -T, 0.0, tol, omega=s)
    c = 2j * np.pi * s
    h = 1e-3
    g0, gm, gp = j(np.array([-T, -T - h, -T + h]))
    g1 = (gp - gm) / (2 * h)
    g2 = (gp - 2 * g0 + gm) / h ** 2
    corr = np.exp(-c * T) * (g0 / c - g1 / c ** 2)
    remainder = abs(g2) * T / 3 / abs(c) ** 2
    return res.value + corr, res.abs_error_estimate + remainder, res.converged


def test_batched_G_matches_per_s_route(jump):
    tol = 1e-6
    s = np.array([0.0, 0.0499, -0.0499, 0.05, 0.2, 1.0, -0.3])
    batch = compute_G(jump, s, tol)
    assert batch.value.shape == batch.abs_error_estimate.shape == s.shape
    for i, si in enumerate(s):
        ref, ref_err, ref_ok = _G_per_s(jump, si, tol)
        assert ref_ok
        gap = abs(batch.value[i] - ref)
        assert gap <= batch.abs_error_estimate[i] + ref_err
        # both quadratures met tol, and the analytic terms are shared
        assert gap <= 2 * tol
        one = compute_G(jump, float(si), tol)
        alone = compute_G(jump, np.array([si]), tol)
        assert isinstance(one.value, complex)
        assert isinstance(one.converged, bool)
        assert one.value == alone.value[0]
        assert one.abs_error_estimate == alone.abs_error_estimate[0]


def test_G_converged_covers_tail_and_remainder(jump):
    """converged is per s and holds exactly when the total error, the
    envelope tail or integration-by-parts remainder included, is within tol.
    The tail beyond T = 4e4 is about 5e-5, so a tol of 4e-5 cannot be met
    for |s| < 0.05 however fine the quadrature."""
    s = np.array([0.01, -0.02, 0.3, 2.0])
    for tol in (5e-5, 4e-5):
        res = compute_G(jump, s, tol)
        assert np.array_equal(res.converged, res.abs_error_estimate <= tol)
    assert not res.converged[:2].any() and res.converged[2:].all()
    one = compute_G(jump, 0.01, 5e-5)
    assert one.converged == (one.abs_error_estimate <= 5e-5)


class _CountingJump:
    """A jump function that counts the points it is sampled at."""

    def __init__(self, j):
        self.j = j
        self.annihilator = j.annihilator
        self.points = 0

    def __call__(self, t):
        self.points += np.size(t)
        return self.j(t)


def test_convolution_samples_the_jump_once_per_round(jump, monkeypatch):
    calls = []
    compute = blaschke.compute_G

    def counted(j, s, tol):
        calls.append(np.size(s))
        return compute(j, s, tol)

    monkeypatch.setattr(blaschke, "compute_G", counted)
    spy = _CountingJump(jump)
    out = convolution_identity_residual(spy, 0.0, 1.0, 1e-3)
    assert out["max_discrepancy"] < 1e-3
    # one batched G per round of the outer quadrature, 15 nodes a panel
    assert 0 < len(calls) < 20 and all(n % 15 == 0 for n in calls)
    assert spy.points < 500_000


def test_convolution_one_G_batch_per_check(jump, monkeypatch):
    """The outer mesh seeded toward s = 0, where G is not smooth, leaves at
    most one refinement round: at most two compute_G calls per criterion-4
    check."""
    calls = []
    compute = blaschke.compute_G

    def counted(j, s, tol):
        calls.append(np.size(s))
        return compute(j, s, tol)

    monkeypatch.setattr(blaschke, "compute_G", counted)
    for q in (1.0, 0.0, -1.0):
        for t in (0.25, 1.0):
            calls.clear()
            out = convolution_identity_residual(jump, q, t, 1e-3)
            assert out["max_discrepancy"] < 1e-3
            assert 1 <= len(calls) <= 2, (q, t, calls)


@pytest.mark.parametrize("route", ["direct", "difference_form", "reduced"])
def test_convolution_raises_on_an_unconverged_route(jump, monkeypatch, route):
    name = ("integrate_finite" if route == "direct"
            else "integrate_left_halfline")
    real = getattr(blaschke, name)
    seen = []

    def unconverged(*args, **kwargs):
        res = real(*args, **kwargs)
        seen.append(res)
        # the reduced route is the second half-line integral
        fail = route != "reduced" or len(seen) == 2
        return QuadratureResult(res.value, res.abs_error_estimate,
                                res.evaluations, res.converged and not fail)

    monkeypatch.setattr(blaschke, name, unconverged)
    with pytest.raises(ArithmeticError, match=route):
        convolution_identity_residual(jump, 1.0, 0.25, 1e-3)


@pytest.mark.parametrize("call, what", [
    (lambda ann, j: g_l1_norm(j, 1e-8), "L1 norm of g"),
    (lambda ann, j: cauchy_identity_residual(ann, j, 1j, 1e-6),
     "Cauchy integral of g"),
], ids=["g_l1_norm", "cauchy_identity_residual"])
def test_halfline_callers_raise_when_unconverged(ann, jump, monkeypatch, call,
                                                  what):
    real = blaschke.integrate_left_halfline

    def unconverged(*args, **kwargs):
        res = real(*args, **kwargs)
        return QuadratureResult(res.value, res.abs_error_estimate,
                                res.evaluations, False)

    monkeypatch.setattr(blaschke, "integrate_left_halfline", unconverged)
    with pytest.raises(ArithmeticError, match=what):
        call(ann, jump)


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
