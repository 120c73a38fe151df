import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from szegolab import blaschke, quadrature
from szegolab.blaschke import (BlaschkeAnnihilator, JumpFunction,
                               cauchy_identity_residual, compute_G,
                               convolution_identity_residual, eval_phi,
                               eval_phi_boundary, g_l1_norm,
                               gamma_vanishing_residual)
from szegolab.deep_zero import eval_H_integral
from szegolab.frequency_sets import (FrequencySet, gen_interval_blocks,
                                     gen_power_set)
from szegolab.quadrature import (QuadratureResult, fourier_coefficients,
                                 integrate_finite)


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
    """phi is 0 at a retained g, where the log of its factor is -inf.  At
    729 numpy's complex division rounds r = sqrt(z/g) to 1 - 1.1e-16, so
    the factor is not 0 and phi is 1.27e-35."""
    vals = eval_phi(ann, np.array([1.0 + 0j, 8.0 + 0j, 27.0 + 0j]))
    assert np.all(vals == 0)
    vals = eval_phi(ann, ann.retained[:10].astype(np.complex128))
    expected = np.zeros(10, dtype=np.complex128)
    expected[8] = 1.2711911422643006e-35 - 1.2454081307827547e-50j
    assert np.all(vals == expected)


def test_empty_product_is_the_prefactor_past_exps_range():
    """K = 0 of the block [1, 50001] drops a tail 2 sqrt|z| sum g^(-1/2)
    near 893 at |z| = 1, past exp's range, and 0.89 at |z| = 1e-6; the
    product keeps no factor, so phi is the prefactor alone."""
    ann = BlaschkeAnnihilator(gen_interval_blocks([1], [50000]), K=0)
    z = np.array([1j, 2.0 + 0j])
    assert ann.tail_bound(2.0) > ann.tail_bound(1.0) > 709
    assert np.array_equal(eval_phi(ann, z), z * z / (1.0 + np.sqrt(z)) ** 8)
    assert ann.tail_bound(1e-6) < 709


def test_conjugate_symmetry(ann):
    z = 1.0 + 1.0j
    v1 = eval_phi(ann, z)
    v2 = eval_phi(ann, np.conj(z))
    assert abs(v1 - np.conj(v2)) < 1e-12 * abs(v1)


def test_modulus_below_blaschke_prefactor(ann):
    for z in (1j, 1 + 1j, -2 + 0.5j, 3 - 2j):
        v = eval_phi(ann, z)
        pref = abs(z ** 2 / (1 + np.sqrt(complex(z))) ** 8)
        assert abs(v) <= pref * (1 + 1e-12)


def test_cut_rejected(ann):
    with pytest.raises(ValueError):
        eval_phi(ann, -1.0 + 0j)


def test_boundary_matches_interior_limit(ann):
    # phi_+ is the limit of phi from the upper side
    t = -2.0
    bv = eval_phi_boundary(ann, t)
    inner = eval_phi(ann, t + 1e-9j)
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
    """A 0-d argument gives a scalar, a one-element array an array; phi
    keeps a 2-d z's shape, each value the one a 1-d call gives."""
    assert np.ndim(eval_phi_boundary(ann, -1.0)) == 0
    assert eval_phi_boundary(ann, np.array([-1.0])).shape == (1,)
    assert np.ndim(eval_phi(ann, 1j)) == 0
    assert eval_phi(ann, np.array([1j])).shape == (1,)
    z = np.array([[1j, 1 + 1j, -2 + 0.5j], [3 - 2j, 0.5 + 0j, 27.0 + 0j]])
    vals = eval_phi(ann, z)
    assert vals.shape == (2, 3)
    assert np.array_equal(vals, [eval_phi(ann, row) for row in z])


def test_jump_support_and_purity(ann, jump):
    """The jump is purely imaginary: the jump function is the real g/i,
    2 Im phi_+ on the slit and 0 off it, as float64."""
    g = jump(np.array([1.0, 0.0, -0.5, -1.0]))
    assert g.dtype == np.float64
    assert g[0] == 0.0
    assert g[1] == 0.0
    assert g[2] == 2.0 * eval_phi_boundary(ann, -0.5).imag
    assert abs(g[3]) <= 2.0 / 16.0 + 1e-12
    g = jump(np.array([0.0, 0.5, 3.0]))       # no point on the slit
    assert g.dtype == np.float64 and g.tobytes() == bytes(24)


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
    expected = 2.0 * np.pi * abs(eval_phi(ann, q))
    assert abs(resid - expected) <= err


def test_annihilator_K_defaults_to_the_whole_set():
    cubes = gen_power_set(3, 5)
    whole = BlaschkeAnnihilator(cubes)
    assert whole == BlaschkeAnnihilator(cubes, 5)
    assert hash(whole) == hash(BlaschkeAnnihilator(cubes, K=5))
    assert whole.K == 5 and BlaschkeAnnihilator(cubes, K=0).K == 0
    with pytest.raises(ValueError, match=r"K must lie in \[0, 5\]"):
        BlaschkeAnnihilator(cubes, 6)


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
    scaled = [abs(eval_phi(ann, R * 1j)) * R ** 2
              for R in (1e9, 1e10, 1e11)]
    assert scaled[0] < scaled[1] < scaled[2] <= 1.0
    assert scaled[2] > 0.9


def test_G_symmetry_and_bound(jump):
    l1, _ = g_l1_norm(jump, 1e-8)
    gp = compute_G(jump, [1.0], 1e-6).value[0]
    gm = compute_G(jump, [-1.0], 1e-6).value[0]
    assert abs(np.conj(gp) + gm) < 1e-4
    for s in (0.0, 1.0, 10.0):
        r = compute_G(jump, [s], 1e-6)
        assert abs(r.value[0]) <= l1 * (1 + 1e-6)
    g0 = compute_G(jump, [0.0], 1e-6).value[0]
    assert abs(g0.real) < 1e-4  # purely imaginary at s = 0


def test_G_against_scipy(jump):
    # g(-tau) = i gamma(tau), gamma the real jump function at -tau, so G(s)
    # is the pair of Fourier integrals of gamma over [0, inf) that
    # QUADPACK's QAWF evaluates
    s = 0.5

    def gamma(tau):
        return jump(np.array([-tau]))[0]

    ref_re, _ = quad(gamma, 0, np.inf, weight="sin", wvar=2 * np.pi * s)
    ref_im, _ = quad(gamma, 0, np.inf, weight="cos", wvar=2 * np.pi * s)
    r = compute_G(jump, [s], 1e-6)
    assert abs(r.value[0] - (ref_re + 1j * ref_im)) < 1e-6


def test_convolution_two_routes_quick(jump):
    out = convolution_identity_residual(jump, 1.0, 0.25, 1e-3)
    assert "reduced" in out["values"]
    assert out["max_discrepancy"] < 1e-3


# convolution_identity_residual(jump, q, t, 1e-3) as (max_discrepancy,
# {route: (value real, value imag, error estimate)}), recorded while
# compute_G's panels were half periods of the call's largest |s| and took
# the phase at the nodes: DIRECT_ROUTE_PINS_HALF_PERIOD, kept as the record
# that the Filon rule's values must lie within; the other routes' bits are
# unchanged
DIRECT_ROUTE_PINS_HALF_PERIOD = {
    (1, 0.25): (7.354483747641107e-08, {
        "direct": (0.00010090101244768126, 0.006301640972693981,
                   6.135033914527294e-05),
        "difference_form": (0.00010090316814139349, 0.0063015716750234865,
                            4.301725438008416e-05),
        "reduced": (0.0001009031681413932, 0.00630156745945637,
                    4.244933068784104e-05)}),
    (0, 1.0): (9.484432019920338e-08, {
        "direct": (-0.011505100129690374, 0.005076368001890803,
                   0.000139865727502766),
        "difference_form": (-0.011505093797600402, 0.0050762733691812854,
                            4.433613895940998e-05)}),
    (-3, 0.51): (1.1307001058267499e-07, {
        "direct": (-0.02128223802115093, 0.037220592376166754,
                   3.8103703161849775e-05),
        "difference_form": (-0.02128232304623441, 0.037220517840521106,
                            4.771487674894462e-05)}),
    (7.3, 0.03): (1.2713212196490922e-07, {
        "direct": (2.697499504969463e-05, -0.00013616403064921389,
                   1.1536192302926783e-05),
        "difference_form": (2.6886228120449088e-05, -0.0001362550416853997,
                            5.552819470873698e-06)}),
    (2, 1.7): (9.722240978807005e-08, {
        "direct": (0.0007227587301159191, 0.0006333430232339231,
                   0.00010559628790443313),
        "difference_form": (0.0007227598105969408, 0.0006334402396395641,
                            8.708529117125117e-05)}),
}
DIRECT_ROUTE_PINS = {
    (1, 0.25): (7.354451373403482e-08, {
        "direct": (0.00010090101268127544, 0.006301640972376949,
                   6.134532870246481e-05),
        "difference_form": (0.00010090316814139349, 0.0063015716750234865,
                            4.301725438008416e-05),
        "reduced": (0.0001009031681413932, 0.00630156745945637,
                    4.244933068784104e-05)}),
    (0, 1.0): (9.4842324351018e-08, {
        "direct": (-0.011505100129643555, 0.0050763679998936245,
                   0.00013984543459462503),
        "difference_form": (-0.011505093797600402, 0.0050762733691812854,
                            4.433613895940998e-05)}),
    (-3, 0.51): (1.1306982726981123e-07, {
        "direct": (-0.021282238021330314, 0.0372205923760933,
                   3.8094056182565e-05),
        "difference_form": (-0.02128232304623441, 0.037220517840521106,
                            4.771487674894462e-05)}),
    (7.3, 0.03): (1.2713212195407302e-07, {
        "direct": (2.6974995049738278e-05, -0.0001361640306492716,
                   1.1536098960592651e-05),
        "difference_form": (2.6886228120449088e-05, -0.0001362550416853997,
                            5.552819470873698e-06)}),
    (2, 1.7): (9.722243095446805e-08, {
        "direct": (0.0007227587301474616, 0.0006333430232124048,
                   0.00010556692162452897),
        "difference_form": (0.0007227598105969408, 0.0006334402396395641,
                            8.708529117125117e-05)}),
}


@pytest.mark.parametrize("q, t", list(DIRECT_ROUTE_PINS))
def test_convolution_routes_keep_their_bits(jump, q, t):
    """The direct route's seed, q's quarter periods capped at 2000 beside
    the decades and G's fixed points, gives the pinned values, error
    estimates and discrepancy exactly, the other routes too; each direct
    value lies within the error estimate of the half-period rule's."""
    disc, routes = DIRECT_ROUTE_PINS[q, t]
    out = convolution_identity_residual(jump, q, t, 1e-3)
    assert {k: (v.real, v.imag, out["error_estimates"][k])
            for k, v in out["values"].items()} == routes
    assert out["max_discrepancy"] == disc
    old = DIRECT_ROUTE_PINS_HALF_PERIOD[q, t][1]["direct"]
    assert abs(out["values"]["direct"] - complex(*old[:2])) <= old[2]


def _G_per_s(j, s, tol):
    """compute_G's route before batching, one adaptive quadrature per s on
    the same interval, with the same tail and integration-by-parts terms."""
    if abs(s) < 0.05:
        T = 4.0e4
        res = integrate_finite(
            lambda u: 1j * j(u) * np.exp(2j * np.pi * s * u), -T, 0.0, tol,
            points=np.linspace(-T, 0.0, math.ceil(T * 4.0 * abs(s)) + 1))
        tail = 2.0 * (1 / (1 + T) - 1 / (1 + T) ** 2 + 1 / (3 * (1 + T) ** 3))
        return res.value, res.abs_error_estimate + tail, res.converged
    T = 200.0
    res = integrate_finite(lambda u: 1j * j(u) * np.exp(2j * np.pi * s * u),
                           -T, 0.0, tol, points=np.linspace(
                               -T, 0.0, math.ceil(T * 4.0 * abs(s)) + 1))
    c = 2j * np.pi * s
    h = 1e-3
    g0, gm, gp = 1j * j(np.array([-T, -T - h, -T + h]))
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
        alone = compute_G(jump, [si], tol)
        assert alone.value.shape == alone.converged.shape == (1,)
        assert abs(alone.value[0] - ref) <= 2 * tol


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
    one = compute_G(jump, [0.01], 5e-5)
    assert one.converged[0] == (one.abs_error_estimate[0] <= 5e-5)


class _CountingJump:
    """A jump function that counts the points it is sampled at."""

    def __init__(self, j):
        self.j = j
        self.annihilator = j.annihilator
        self.points = 0

    def __call__(self, t):
        self.points += np.size(t)
        return self.j(t)


# the small-|s| branch's seed: its panels of 15 nodes on [-4e4, 0]
SMALL_S_SEED_NODES = (15 * blaschke._SMALL_SEED[1]
                      * (len(blaschke._SMALL_SEED[0]) - 1))


def _kept_seed_reductions(monkeypatch):
    """The left end of each kept seed fourier_coefficients reduces, one
    entry per reduction: -4e4 for compute_G's small-|s| seed, -200 for its
    other one.  A reduction starts with one _fourier_panels call on the
    seed's read-only sums, and a repeat that returns the seed's kept result
    makes none."""
    seeds, panels = [], quadrature._fourier_panels

    def recording(freqs, mid, half, sums):
        if not sums.flags.writeable:
            seeds.append(float((mid - half).min()))
        return panels(freqs, mid, half, sums)

    monkeypatch.setattr(quadrature, "_fourier_panels", recording)
    return seeds


def test_G_is_the_same_from_a_cold_and_a_warm_jump(jump, monkeypatch):
    """The batches a jump keeps give the values a cold jump computes, bit
    for bit, and a jump equal by value shares them (criterion 14): neither
    reduces a seed again.  A spy, hashed by identity, reduces seeds of its
    own."""
    s = np.array([0.0, 0.0123, -0.0499, 0.05, 0.3, -2.0])
    quadrature._seed_samples.cache_clear()
    seeds = _kept_seed_reductions(monkeypatch)
    cold = compute_G(jump, s, 1e-6)
    for j, reductions in ((jump, 1), (JumpFunction(jump.annihilator), 1),
                          (_CountingJump(jump), 2)):
        res = compute_G(j, s, 1e-6)
        assert np.array_equal(res.value, cold.value)
        assert np.array_equal(res.abs_error_estimate, cold.abs_error_estimate)
        assert np.array_equal(res.converged, cold.converged)
        assert res.evaluations == cold.evaluations
        assert seeds == [-4e4, -200.0] * reductions


def test_second_small_s_call_samples_only_its_split_panels(jump):
    """A second call on the kept small-|s| seed samples the jump only on
    the panels it splits: the seed's nodes are counted in its evaluations
    but not sampled again."""
    spy = _CountingJump(jump)
    first = compute_G(spy, np.array([0.0, 0.02, -0.04]), 5e-5)
    # the seed's nodes and the split panels', all sampled once
    assert spy.points == first.evaluations > SMALL_S_SEED_NODES
    spy.points = 0
    second = compute_G(spy, np.array([0.01, -0.03, 0.045]), 5e-5)
    assert second.evaluations > SMALL_S_SEED_NODES
    assert spy.points == second.evaluations - SMALL_S_SEED_NODES


def _G_fresh(j, s, tol, monkeypatch):
    """compute_G's value, error and evaluations from fresh samples of j,
    no seed kept."""
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_seed_samples",
                  quadrature._seed_samples.__wrapped__)
        res = compute_G(j, s, tol)
    return res.value, res.abs_error_estimate, res.evaluations


@pytest.mark.parametrize("s", [np.linspace(-0.0499, 0.0499, 41),
                               np.array([0.0, 0.0123, -0.0499, 0.05, 0.3,
                                         -2.0, 4.5]),
                               -0.031],
                         ids=["small", "mixed", "scalar"])
def test_G_matches_the_direct_exp_route(jump, s, monkeypatch):
    """The kept sums of the real jump function give G bit for bit as
    fresh samples do, every phase a direct exp in both, with the same
    panels split and so the same evaluations; a scalar s counts as one,
    and gives arrays of one."""
    tol = 5e-5
    res = compute_G(jump, s, tol)
    value, error, evals = _G_fresh(jump, s, tol, monkeypatch)
    assert res.converged.shape == np.atleast_1d(s).shape
    assert np.array_equal(res.value, value)
    assert np.array_equal(res.converged, error <= tol)
    assert res.evaluations == evals


# compute_G of the cubes' jump at G_PIN_S: per tol, the evaluations, the
# error estimates, converged and the values.  G_PIN_HALF_PERIOD was recorded
# on half-period panels with the phase at the nodes; it is kept as the
# record that the Filon rule's values must lie within
G_PIN_S = np.array([0.01, 0.03, 0.06, 0.2, 0.7, 1.5])
G_PIN_HALF_PERIOD = {
    5e-5: (39_363,
           [4.999774772887623e-05, 5.000080067267594e-05,
            3.9759860280426936e-05, 3.5849447400935584e-06,
            2.9929057537319175e-07, 7.093581594640416e-08],
           [True, False, True, True, True, True],
           [-0.0010361208843863965 - 0.007996680989533954j,
            -0.02952512172120708 - 0.016371045455570346j,
            0.0701755566965126 + 0.003105665690897406j,
            0.07023996619625339 + 0.11611702793605118j,
            -0.048501884317158885 + 0.05193521671159007j,
            0.01643595291527499 - 0.009363483249612774j]),
    1e-6: (39_513,
           [4.9997589702195863e-05, 4.999776063848666e-05,
            3.975267013242437e-05, 3.577752614580757e-06,
            2.9207388357313203e-07, 6.362087977912127e-08],
           [False, False, False, False, True, True],
           [-0.0010361208843871336 - 0.007996680989536832j,
            -0.029525121721195847 - 0.0163710454555776j,
            0.07017555669651343 + 0.0031056656904264787j,
            0.07023996619625618 + 0.11611702793558025j,
            -0.048501884317149094 + 0.05193521671111923j,
            0.01643595291529597 - 0.009363483250083304j]),
}
G_PIN = {
    5e-5: (3_483,
           [4.9997817872961965e-05, 4.9997643991606186e-05,
            3.986708589056389e-05, 7.115516169886132e-06,
            9.377125557088696e-07, 2.7803311826343047e-07],
           [True, True, True, True, True, True],
           [-0.0010361208843855257 - 0.007996680989536544j,
            -0.02952512172119794 - 0.016371045455579943j,
            0.07017555669651304 + 0.003105665690423205j,
            0.07023996619625718 + 0.11611702793557735j,
            -0.04850188431715094 + 0.051935216711114944j,
            0.01643595291529355 - 0.009363483250086747j]),
    1e-6: (3_183,
           [5.0004478221977024e-05, 4.999963412579655e-05,
            3.975341549511726e-05, 3.6026576587372475e-06,
            3.002923107735906e-07, 8.780939526589065e-08],
           [False, False, False, False, True, True],
           [-0.001036120884385642 - 0.007996680989536592j,
            -0.02952512172119799 - 0.01637104545557995j,
            0.07017555669651304 + 0.003105665690423205j,
            0.07023996619625728 + 0.11611702793557593j,
            -0.04850188431715371 + 0.05193521671111585j,
            0.016435952915294882 - 0.00936348325008678j]),
}


@pytest.mark.parametrize("tol", [5e-5, 1e-6])
def test_G_pinned_across_both_branches(jump, tol):
    """Both branches integrate the real j = g/i and multiply by i: the
    error estimates, evaluations and converged are the pinned ones bit for
    bit, the values agree within 1e-15 relative, and each value lies
    within the half-period rule's error estimate of its value."""
    evaluations, errors, converged, values = G_PIN[tol]
    res = compute_G(jump, G_PIN_S, tol)
    assert res.evaluations == evaluations
    assert res.abs_error_estimate.tolist() == errors
    assert res.converged.tolist() == converged
    assert np.all(np.abs(res.value - values) <= 1e-15 * np.abs(values))
    _, old_errors, _, old_values = G_PIN_HALF_PERIOD[tol]
    assert np.all(np.abs(res.value - old_values) <= old_errors)


@pytest.mark.parametrize("tol", [5e-5, 1e-6])
def test_period_wide_small_s_seed_keeps_the_tail_dominant(jump, tol):
    """The small-|s| seed, decades toward 0 in 8 panels each, gives G
    within 1e-13 of the same rule on 4000 half-period panels of 0.05, and
    the quadrature's part of its error stays within 1e-3 of the envelope
    tail beyond 4e4, which sets the branch's error."""
    s = np.concatenate([np.linspace(-0.0499, 0.0499, 41), [0.0123, -0.031]])
    res = compute_G(jump, s, tol)
    tail = blaschke._g_abs_tail(4.0e4)
    rest = min(tol - tail if tail < tol else tol, 1e-3 * tail)
    half = fourier_coefficients(jump, -s, rest, (-4.0e4, 0.0), 4000)
    assert np.abs(res.value - 1j * half.value).max() <= 1e-13
    assert np.all(res.abs_error_estimate - tail <= 1e-3 * tail)


class _CountingNumpy:
    """numpy, counting the entries of every complex exp it takes."""

    def __init__(self):
        self.entries = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        out = np.exp(x, *args, **kwargs)
        if np.iscomplexobj(out):
            self.entries += out.size
        return out


def test_small_s_G_takes_a_tenth_of_the_panel_phase_exps(jump, monkeypatch):
    """One small-|s| call, 101 frequencies, takes one complex exp per
    (panel, frequency) on a seed of 72 panels and the panels it splits,
    and none in its moments: within a tenth of the 404,000 entries that
    direct exps took on the half-period seed of 4000 panels."""
    s = np.linspace(-0.0499, 0.0499, 101)
    quadrature._seed_samples.cache_clear()  # no batch kept to return
    counting = _CountingNumpy()
    monkeypatch.setattr(quadrature, "np", counting)
    res = compute_G(jump, s, 5e-5)
    assert counting.entries == res.evaluations // 15 * s.size
    assert 0 < counting.entries <= 4000 * s.size // 10


def test_route_check_cost_budget(jump):
    """Criterion 4's six convolution checks sample the jump at 32,843
    points (89,348 with the phase at the nodes of half-period panels,
    85,883 before the half-line integrals were seeded toward both ends,
    115,163 on the half-period small-|s| seed, 715,178 before the jump's
    samples were kept), and the three H checks of
    test_H_two_route_agreement take 15,300 evaluations (28,800 on half
    periods of 1, 44,160 on quarter-period panels of the integrand's top
    frequency, 86,400 before that); each budget is about 20% above its
    count."""
    spy = _CountingJump(jump)
    for q in (1.0, 0.0, -1.0):
        for t in (0.25, 1.0):
            convolution_identity_residual(spy, q, t, 1e-3)
    assert spy.points <= 39_500
    evaluations = sum(eval_H_integral(t, 1e-8).evaluations
                      for t in (0.1, 0.5, 0.9))
    assert evaluations <= 18_400


def _config_z_points():
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "blaschke.json").read_text(encoding="utf-8"))
    return [complex(x, y) for x, y in cfg["z_points"]]


def test_route_check_round_budgets(ann, jump, monkeypatch):
    """Seeded where their integrands are not smooth, criterion 4's six
    convolution checks make 7 compute_G calls (12 before), and the five
    Cauchy checks of configs/blaschke.json, at its tol of 1e-8, 22
    integrate_finite rounds (75 before); each budget is about 20% above
    its count."""
    calls = {"compute_G": 0, "_eval_panels": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    count(blaschke, "compute_G")
    count(quadrature, "_eval_panels")
    for q in (1.0, 0.0, -1.0):
        for t in (0.25, 1.0):
            convolution_identity_residual(jump, q, t, 1e-3)
    assert calls["compute_G"] <= 8
    calls["_eval_panels"] = 0
    for z in _config_z_points():
        cauchy_identity_residual(ann, jump, z, 1e-8)
    assert calls["_eval_panels"] <= 26


def test_cauchy_identity_at_the_config_points(ann, jump):
    """Seeded toward u = 0, the jump's |u|^(5/2) edge, the Cauchy integral
    matches phi to 2.2e-13 at the config's points (2.5e-7 before)."""
    assert max(cauchy_identity_residual(ann, jump, z, 1e-8)
               for z in _config_z_points()) <= 1e-11


def test_cauchy_transform_vanishes_on_the_set(ann, jump):
    """At criterion 3's tol the Cauchy transform of g is at most 1.3e-15 on
    every retained frequency (4.9e-8 before the edge was seeded)."""
    assert max(gamma_vanishing_residual(jump, g, 1e-8)[0]
               for g in ann.retained) <= 1e-14


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


def test_convolution_checks_share_one_small_s_batch(jump, monkeypatch):
    """From a cleared seed, criterion 4's six checks reduce the small-|s|
    seed once: their outer nodes below 0.05 are fixed points, not decades
    of t, so every later check reads the kept batch."""
    quadrature._seed_samples.cache_clear()
    seeds = _kept_seed_reductions(monkeypatch)
    for q in (1.0, 0.0, -1.0):
        for t in (0.25, 1.0):
            out = convolution_identity_residual(jump, q, t, 1e-3)
            assert out["max_discrepancy"] < 1e-3
    assert seeds.count(-4e4) == 1


def test_convolution_small_s_nodes_do_not_follow_q_or_t(jump, monkeypatch):
    """Checks of different q and t ask compute_G for one array of s below
    0.05, bit for bit, in their one batch that has any."""
    seen, compute = [], blaschke.compute_G

    def counted_G(j, s, tol):
        seen.append(s[np.abs(s) < 0.05])
        return compute(j, s, tol)

    monkeypatch.setattr(blaschke, "compute_G", counted_G)
    for q, t in ((1.0, 0.25), (-1.0, 1.0), (3.0, 0.5)):
        convolution_identity_residual(jump, q, t, 1e-3)
    small = [s for s in seen if s.size]
    assert len(small) == 3
    assert all(np.array_equal(s.view(np.uint64), small[0].view(np.uint64))
               for s in small)


def test_kept_small_s_batch_keeps_its_bits_and_its_zero_sign(jump,
                                                             monkeypatch):
    """A warm compute_G gives the cold one's value, error, evaluations and
    converged bit for bit without reducing either seed; the kept result
    keys on the bits of s, so s = -0.0 after s = 0.0 reduces the small-|s|
    seed again."""
    s = np.array([0.0, 0.0123, -0.0499, 0.3])
    quadrature._seed_samples.cache_clear()
    seeds = _kept_seed_reductions(monkeypatch)
    cold = compute_G(jump, s, 5e-5)
    warm = compute_G(jump, s, 5e-5)
    assert seeds == [-4e4, -200.0]
    for got, want in ((warm.value, cold.value),
                      (warm.abs_error_estimate, cold.abs_error_estimate),
                      (warm.converged, cold.converged)):
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    assert warm.evaluations == cold.evaluations
    compute_G(jump, np.where(s == 0.0, -0.0, s), 5e-5)
    assert seeds == [-4e4, -200.0, -4e4]


def test_convolution_below_the_fixed_points(jump):
    """At t = 0.03 the fixed outer points past t are dropped; the check
    still converges and its routes agree."""
    for q in (1.0, 0.0):
        out = convolution_identity_residual(jump, q, 0.03, 1e-3)
        assert set(out["values"]) >= {"direct", "difference_form"}
        assert out["max_discrepancy"] < 1e-3


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


def test_exact_zero_marker():
    ann = BlaschkeAnnihilator(FrequencySet((4.0, 9.0)))
    val = eval_phi(ann, np.array([4.0 + 0j]))
    assert val[0] == 0.0


def _boundary_product_oracle(tau, gammas):
    """The product form of phi_+: one complex factor per (point, gamma)."""
    r = 1j * np.sqrt(tau[:, None] / gammas[None, :])
    prod = np.prod((1.0 - r) / (1.0 + r), axis=1)
    return (tau * tau) / (1.0 + 1j * np.sqrt(tau)) ** 8 * prod


def test_boundary_product_phase_form_matches_product_form():
    """The phase form agrees with the product form to 1e-13 relative over
    tau from 1e-12 to 1e6 and on the quadrature range [0, 4e4], over more
    points than one block holds, and is exactly 0 at tau = 0."""
    gammas = np.arange(1.0, 51.0) ** 3
    rng = np.random.default_rng(11)
    for tau in (np.geomspace(1e-12, 1e6, 4001), rng.uniform(0.0, 4e4, 20000)):
        got = blaschke.boundary_product(tau, gammas)
        ref = _boundary_product_oracle(tau, gammas)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
    at_zero = blaschke.boundary_product(np.array([0.0, 0.0]), gammas)
    assert np.array_equal(at_zero, np.zeros(2, dtype=np.complex128))
    # no gammas: the prefactor alone, unimodular phase times tau^2/(1+tau)^4
    tau = np.geomspace(1e-6, 1e6, 50)
    got = blaschke.boundary_product(tau, np.array([]))
    ref = tau ** 2 / (1.0 + 1j * np.sqrt(tau)) ** 8
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("t, modulus", [(-1e80, 1e-160), (-1e200, 0.0)])
def test_far_slit_values_are_finite(jump, t, modulus):
    """Past |t| = 1.2e77 (1+|t|)^4 overflows: the slit modulus is then
    (1+|t|)^-2, 1e-160 at t = -1e80 and 0 at t = -1e200, where it
    underflows, in boundary_product and in the envelope, with no warning
    (a numpy warning from the package is an error here)."""
    pp = blaschke.boundary_product(np.array([-t]), jump.annihilator.retained)
    assert abs(abs(pp[0]) - modulus) <= 1e-15 * modulus
    assert jump.envelope(np.array([t]))[0] == 2.0 * modulus
    assert jump(np.array([t]))[0] == 2.0 * pp[0].imag


def test_slit_modulus_keeps_its_bits_below_the_overflow():
    """Up to where (1+|t|)^4 overflows, the envelope and the modulus of
    boundary_product are tau^2/(1+tau)^4, as computed directly, bit for
    bit."""
    tau = np.concatenate([[0.0], np.geomspace(1e-300, 1.15e77, 2001)])
    direct = tau * tau / (1.0 + tau) ** 4
    assert np.array_equal(blaschke._slit_modulus(tau), direct)
    env = JumpFunction(BlaschkeAnnihilator(gen_power_set(3, 5))).envelope(-tau)
    assert np.array_equal(env, 2.0 * tau * tau / (1.0 + tau) ** 4)


def test_boundary_values_live_on_the_slit(ann):
    with pytest.raises(ValueError, match="t <= 0"):
        eval_phi_boundary(ann, [-1.0, 0.5])


def test_cauchy_identity_refuses_a_large_z(ann, jump):
    with pytest.raises(ValueError, match="moderate"):
        cauchy_identity_residual(ann, jump, 2e3j)
