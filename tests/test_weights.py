import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from szegolab import quadrature, weights
from szegolab.weights import (Weight, jensen_diagnostic, log_integral,
                              make_constant_weight, make_exp_weight,
                              make_tabulated_weight, validate_condition_A)


def test_exp_weight_values():
    w = make_exp_weight(1.0)
    assert abs(w(np.array([0.5]))[0] - math.exp(-2.0)) < 1e-15
    w2 = make_exp_weight(2.0)
    assert abs(w2(np.array([1.0]))[0] - math.exp(-2.0)) < 1e-15
    assert w(np.array([1e-12]))[0] == 0.0  # deep zero at the origin


def test_exp_weight_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_exp_weight(0.0)
    with pytest.raises(ValueError):
        make_constant_weight(-1.0)


def test_log_integral_closed_forms():
    assert abs(log_integral(make_exp_weight(1.0), 1e-3)
               + math.log(1000.0)) < 1e-12
    assert abs(log_integral(make_constant_weight(1.0), 0.3)) < 1e-15
    assert abs(log_integral(make_exp_weight(2.0), 1e-2)
               + 2.0 * math.log(100.0)) < 1e-12


def test_log_integral_quadrature_matches_closed_form():
    # tabulated copy of the exp weight has no closed form; quadrature must
    # land on the closed-form value of the smooth original
    c = 1.0
    for eps in (1e-2, 1e-4):
        ref = -c * math.log(1.0 / eps)
        num, err = quad(lambda t: -c / t, eps, 1.0)
        assert abs(num - ref) < 1e-8 * abs(ref)
        w = make_exp_weight(c)
        closed = w.log_closed_form(eps)
        assert abs(closed - ref) < 1e-12 * abs(ref)


def test_condition_A_exp_passes():
    rep = validate_condition_A(make_exp_weight(1.0))
    assert rep.positive and rep.nondecreasing and rep.bounded
    assert rep.log_integral_diverges and rep.divergence_certified
    assert rep.passed


def test_condition_A_constant_fails_divergence():
    rep = validate_condition_A(make_constant_weight(1.0))
    assert rep.positive and rep.nondecreasing and rep.bounded
    assert not rep.log_integral_diverges
    assert not rep.passed


def test_condition_A_flags_decreasing_tabulated():
    w = make_tabulated_weight([(0.1, 0.5), (0.5, 0.2), (0.9, 0.8)])
    rep = validate_condition_A(w)
    assert not rep.nondecreasing


def test_inverse_weight_nonincreasing():
    grid = np.linspace(1e-3, 1.0, 200)
    for w in (make_exp_weight(0.7), make_constant_weight(2.0)):
        rep = validate_condition_A(w)
        if rep.nondecreasing:
            inv = 1.0 / np.maximum(w(grid), 1e-300)
            assert np.all(np.diff(inv) <= 1e-9 * inv[:-1])


def test_jensen_phi_equals_weight():
    w = make_exp_weight(1.0)
    eps = 0.1
    lhs, rhs = jensen_diagnostic(lambda t: w(t) + 0j, w, eps)
    assert lhs <= rhs * (1 + 1e-6)
    # oracle both sides independently
    length = 1 - eps
    log_ref, _ = quad(lambda t: 2 * (-1 / t) - (-1 / t), eps, 1)
    rhs_ref, _ = quad(lambda t: math.exp(-1 / t), eps, 1)
    assert abs(lhs - math.exp(log_ref / length)) < 1e-8
    assert abs(rhs - rhs_ref / length) < 1e-8


def test_jensen_constant_equality():
    w = make_constant_weight(1.0)
    lhs, rhs = jensen_diagnostic(lambda t: np.ones_like(t) + 0j, w, 0.25)
    assert abs(lhs - 1.0) < 1e-9
    assert abs(rhs - 1.0) < 1e-9


def test_jensen_vanishing_phi():
    w = make_constant_weight(1.0)
    lhs, rhs = jensen_diagnostic(lambda t: np.zeros_like(t) + 0j, w, 0.1)
    assert lhs == 0.0
    assert rhs < 1e-12


@pytest.mark.parametrize("bad_call, side", [(0, "log part"),
                                             (1, "ratio part")])
def test_jensen_unconverged_side_raises(monkeypatch, bad_call, side):
    calls = []

    def flaky(*args, **kw):
        res = quadrature.integrate_finite(*args, **kw)
        calls.append(res)
        return quadrature.QuadratureResult(
            res.value, res.abs_error_estimate, res.evaluations,
            len(calls) - 1 != bad_call)

    monkeypatch.setattr(weights, "integrate_finite", flaky)
    w = make_constant_weight(1.0)
    with pytest.raises(ArithmeticError, match=side):
        jensen_diagnostic(lambda t: np.ones_like(t) + 0j, w, 0.25)


def test_descriptor_roundtrip():
    for w in (make_exp_weight(1.5), make_constant_weight(0.7),
              make_tabulated_weight([(0.1, 0.2), (0.9, 0.8)])):
        d = json.loads(w.to_json())
        back = Weight.from_descriptor(d)
        assert back.descriptor() == w.descriptor()
    assert json.loads(make_exp_weight(1.0).to_json()) == {"kind": "exp",
                                                          "c": 1.0}


def test_unknown_descriptor_rejected():
    with pytest.raises(ValueError):
        Weight.from_descriptor({"kind": "bogus"})
