import ast
import dataclasses
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import szegolab.weights as weights
from szegolab.weights import (Weight, log_integral, make_constant_weight,
                              make_exp_weight, make_tabulated_weight,
                              validate_condition_A)

# dips to 1e-60 over 4e-6 around t = 0.002
DIP = make_tabulated_weight([(0.0, 1.0), (0.001998, 1.0), (0.002, 1e-60),
                             (0.002002, 1.0), (1.0, 1.0)])


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
        closed = log_integral(w, eps)
        assert abs(closed - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("eps", [1e-6, 0.02, 0.2, 0.45])
def test_log_integral_tabulated_closed_form_matches_mpmath(eps):
    """Flat below the first sample, a zero-slope piece, a piece of slope
    about 3e-11, kinks, and a last sample beyond 1; mpmath integrates the
    same interpolant piece by piece at 40 digits."""
    samples = [(0.03, 0.2), (0.3, 0.2), (0.37, 0.5), (0.4, 0.5 + 1e-12),
               (0.61, 0.55), (0.9, 1.2), (1.4, 0.7)]
    w = make_tabulated_weight(samples)
    with mpmath.workdps(40):
        ts = [mpmath.mpf(t) for t, _ in samples]
        ws = [mpmath.mpf(v) for _, v in samples]

        def log_w(t):
            if t <= ts[0]:
                return mpmath.log(ws[0])
            i = max(k for k in range(len(ts) - 1) if ts[k] <= t)
            return mpmath.log(ws[i] + (ws[i + 1] - ws[i]) * (t - ts[i])
                              / (ts[i + 1] - ts[i]))

        knots = [mpmath.mpf(eps)] + [t for t in ts if eps < t < 1] + [1]
        ref = mpmath.quad(log_w, knots)
    assert abs(log_integral(w, eps) - float(ref)) < 1e-13


def test_condition_A_exp_passes():
    rep = validate_condition_A(make_exp_weight(1.0))
    assert rep.positive and rep.nondecreasing and rep.bounded
    assert rep.log_integral_diverges
    assert rep.passed


def test_condition_A_tabulated_weight_bounded_below_converges():
    """A weight at least 1e-50 on (0, 1) has a finite log integral, however
    far its truncations fall: (1/2 - eps) ln(1e-50) - 1/2 at eps, about
    -58.06 at eps = 1e-8."""
    w = make_tabulated_weight([(0.5, 1e-50), (1.0, 1.0)])
    rep = validate_condition_A(w)
    assert rep.positive and rep.nondecreasing and rep.bounded
    assert not rep.log_integral_diverges
    assert not rep.passed
    eps, value = rep.log_integral_values[-1]
    assert eps == 1e-8
    assert abs(value - ((0.5 - eps) * math.log(1e-50) - 0.5)) < 1e-12


def test_tabulated_weight_refuses_an_abscissa_sampled_twice():
    """Two values at t = 0.5 would make a jump that np.interp does not
    evaluate and the breakpoints do not see."""
    with pytest.raises(ValueError, match="0.5"):
        make_tabulated_weight([(0, 1), (0.5, 0.1), (0.5, 2), (1, 3)])


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


def test_weight_is_an_immutable_value():
    w = make_exp_weight(1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.c = 2.0
    assert w == make_exp_weight(1.5)
    assert all(isinstance(getattr(w, f.name), (str, float, tuple))
               for f in dataclasses.fields(w))


def test_condition_A_sees_a_dip_between_samples():
    """A dip narrower than any sampling grid's spacing is still a dip."""
    w = make_tabulated_weight([(0.1, 1.0), (0.5, 2.0), (0.5001, 1.5),
                               (0.5002, 2.5), (0.6, 3.0), (1.0, 3.0)])
    rep = validate_condition_A(w)
    assert rep.positive and rep.bounded
    assert not rep.nondecreasing


def test_condition_A_reads_a_tabulated_weight_on_the_unit_interval():
    """Only the part of the interpolant over [0, 1] counts: a fall after a
    last sample beyond 1 does not, a fall toward one inside (0, 1) does."""
    inside = make_tabulated_weight([(0.5, 1.0), (1.0, 2.0), (1.5, 0.5)])
    assert validate_condition_A(inside).nondecreasing
    spilling = make_tabulated_weight([(0.5, 1.0), (0.9, 2.0), (1.5, 0.5)])
    assert not validate_condition_A(spilling).nondecreasing


def test_condition_A_exp_positive_where_it_underflows():
    """exp(-2/t) underflows to 0 for t below about 2.7e-3, yet the weight is
    positive on (0, 1)."""
    w = make_exp_weight(2.0)
    assert w(np.array([1e-3]))[0] == 0.0
    rep = validate_condition_A(w)
    assert rep.positive and rep.nondecreasing and rep.bounded
    assert rep.passed


def test_a_weight_stores_each_fact_once():
    assert [f.name for f in dataclasses.fields(Weight)] == [
        "kind", "c", "samples"]


def test_constant_weight_is_two_equal_samples():
    w = make_constant_weight(2.5)
    assert w == make_tabulated_weight([(0, 2.5), (1, 2.5)])
    assert np.all(w(np.array([0.0, 1e-300, 0.3, 1.0, 1.5])) == 2.5)
    assert log_integral(w, 0.3) == (1.0 - 0.3) * math.log(2.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_refuse_values_that_are_not_finite(bad):
    with pytest.raises(ValueError):
        make_exp_weight(bad)
    with pytest.raises(ValueError):
        make_constant_weight(bad)
    with pytest.raises(ValueError):
        make_tabulated_weight([(0.1, bad), (0.9, 1.0)])
    with pytest.raises(ValueError):
        make_tabulated_weight([(bad, 1.0), (0.9, 1.0)])


def kind_readers(package_dir):
    """Attributes named kind that modules of the package, weights aside,
    read, as "module:line"."""
    found = []
    for path in sorted(Path(package_dir).glob("*.py")):
        if path.name == "weights.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.stem}:{node.lineno}" for node in sorted(
            (n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and n.attr == "kind"), key=lambda n: n.lineno)]
    return found


def test_only_weights_reads_a_weight_kind(tmp_path):
    """A weight answers for its log, its rate c and its values, so
    no module but weights branches on its kind; a config's "kind" key and
    a kind= keyword are not attribute reads.  The check finds a planted
    read."""
    assert kind_readers(Path(weights.__file__).parent) == []
    assert DIP.c == make_constant_weight(2.0).c == 0.0
    (tmp_path / "planted.py").write_text(
        "def f(w, spec, a):\n"
        "    a.sort(kind='stable')\n"
        "    if spec.get('kind') == spec['kind']:\n"
        "        return w.kind\n", encoding="utf-8")
    assert kind_readers(tmp_path) == ["planted:4"]


def test_log_is_finite_where_the_weight_underflows():
    w = make_exp_weight(2.0)
    t = np.array([1e-3, 0.5])
    assert w(t)[0] == 0.0
    assert np.array_equal(w.log(t), -2.0 / t)
    tab = make_tabulated_weight([(0.0, 0.5), (0.3, 1.0), (1.0, 2.0)])
    assert np.array_equal(tab.log(t), np.log(tab(t)))


def test_log_integral_over_a_deep_dip_matches_mpmath():
    """A piece falling from 1 to 1e-60 has x = -1 in floating point from
    its left end; from its smaller end the closed form stays finite."""
    with mpmath.workdps(30):
        ref = 0
        for a, b in [(0.001998, 0.002), (0.002, 0.002002)]:
            L = mpmath.mpf(b) - mpmath.mpf(a)
            splits = [L * mpmath.mpf(10) ** -k for k in range(64, 0, -8)]
            ref += mpmath.quad(lambda s: mpmath.log(1e-60 + (1 - 1e-60) * s
                                                    / L), [0, *splits, L])
    assert abs(log_integral(DIP, 1e-3) - float(ref)) < 1e-15


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_log_integral_refuses_eps_outside_0_1(eps):
    with pytest.raises(ValueError, match="eps"):
        log_integral(make_exp_weight(1.0), eps)
