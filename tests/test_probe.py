import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from szegolab.deep_zero import (ENVELOPE_GRID, DeepZeroSeries, decay_fit,
                                eval_H_series, membership_check)
import szegolab.probe as probe
import szegolab.quadrature as quadrature
from szegolab.frequency_sets import (FrequencySet, complement_in_range,
                                     gen_power_set)
from szegolab.probe import (AnnihilatorTarget, ProbeConfig, TrigPolyTarget,
                            gram_matrix, residual_curve, weight_fourier_coeff,
                            weight_fourier_coeffs, weighted_residual)
from szegolab.quadrature import (decades, fourier_coefficients,
                                 integrate_finite)
from szegolab.weights import (make_constant_weight, make_exp_weight,
                              make_tabulated_weight)


EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def s20():
    return DeepZeroSeries.build(0, 20)


@pytest.fixture(scope="module")
def companion(s20):
    fit = decay_fit(s20, ENVELOPE_GRID)
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
                            0.0, 1.0, tol,
                            points=np.linspace(0.0, 1.0, 4 * abs(k) + 1))


@pytest.mark.parametrize("K", [0, 1, 17, 799])
@pytest.mark.parametrize("c", [1e-4, 1e-3, 0.1, 0.25, 1.0, 5.0])
def test_fourier_coeffs_match_per_lag_route(c, K):
    tol = 1e-12
    w = make_exp_weight(c)
    # the vector's seed: w's breakpoints and the decades toward 0
    seed = sorted({*w.breakpoints, *decades(1.0, tol)})
    res = fourier_coefficients(w, np.arange(K + 1), tol, seed)
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


def test_fourier_coeffs_flat_tabulated_weight_exact():
    """Interpolation is flat beyond the samples, so equal samples anywhere
    in [0, 1] make a constant weight."""
    vec = weight_fourier_coeffs(make_tabulated_weight([(0.2, 3.0),
                                                       (0.7, 3.0)]), 5)
    assert vec.tolist() == [3, 0, 0, 0, 0, 0]


def test_fourier_coeffs_unconverged_lag_raises(monkeypatch):
    """A budget of 100 evaluations holds less than the seed, 9 panels on
    [0, 1] whatever the lags, which is sampled once and halved nowhere: the
    unconverged lag raises ArithmeticError, at K = 3 as at K = 4000, for
    which half-period panels once needed a seed past the budget."""
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 100)
    for K in (3, 4000):
        with pytest.raises(ArithmeticError, match=r"k=\d+ reached only"):
            weight_fourier_coeffs(make_exp_weight(1.0), K, 1e-12)


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
    # the companion weight of the probe benchmarks on [0, 1]: 73 panels,
    # halved from one where exp(-c/t) needs them (23,970 on one round of
    # 2K half-period panels, none halved, with the phase at the nodes)
    res = fourier_coefficients(make_exp_weight(0.465), np.arange(800), 1e-13)
    assert res.converged
    assert res.evaluations == 1_095


def test_fourier_coeffs_are_a_fresh_writable_vector():
    """The quadrature keeps its result read-only; each call returns a copy
    the caller may write, and writing it leaves the kept result alone."""
    w = make_exp_weight(0.3)
    first = weight_fourier_coeffs(w, 50, 1e-12)
    second = weight_fourier_coeffs(w, 50, 1e-12)
    assert first is not second and np.array_equal(first, second)
    assert first.flags.writeable and second.flags.writeable
    want = second.copy()
    first[:] = 0.0
    assert np.array_equal(weight_fourier_coeffs(w, 50, 1e-12), want)


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


def test_residual_curve_removes_a_power_set_past_its_count():
    """Cubes stored to count 3 or 5 are the same set to the probe: 64 and
    125 leave the span at N = 200 either way."""
    weight = make_exp_weight(1.0)
    curves = [residual_curve(ProbeConfig(weight=weight,
                                         gamma=gen_power_set(3, count),
                                         target=TrigPolyTarget({0: 1.0})),
                             [50, 200]).records for count in (3, 5)]
    assert curves[0] == curves[1]


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
        res, coeffs, norm, error = weighted_residual(target, freqs,
                                                     companion, tol=1e-13)
        # each solve computes its own coefficient vector, whose length (and
        # so its last bits) follows its N; residual^2 = norm^2 - |x|^2 then
        # agrees to the cancellation floor of that difference, and the
        # residual_error, from the same rules, degree and norm, to its own
        assert rec.target_norm == pytest.approx(norm, rel=4 * EPS)
        assert abs(rec.residual ** 2 - res ** 2) <= 8 * EPS * norm ** 2
        assert abs(rec.residual_error - error) <= 8 * EPS * norm
        assert coeffs.shape == (len(freqs),)


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("target", ["trigpoly", "annihilator"])
def test_residual_curve_reads_no_weight_coefficient(s20, companion, target,
                                                    monkeypatch):
    calls = {}
    for module in (probe, quadrature):
        _count_calls(monkeypatch, module, "fourier_coefficients", calls)
    _count_calls(monkeypatch, probe, "_szego", calls)
    _count_calls(monkeypatch, probe, "membership_check", calls)
    trig = target == "trigpoly"
    target = (TrigPolyTarget({-3: 1.0, 2: 0.5, 5: 0.25}) if trig
              else AnnihilatorTarget(s20))
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 50),
                      target=target, tol=1e-13)
    residual_curve(cfg, [20, 40, 80])
    # both targets' solves have data, the trig one off the span (-3 is
    # never kept), the annihilator on T (the odd squares kept): so every
    # rule runs, one recursion each at the largest N, none per N; a trig
    # norm is summed on the rules' nodes, an annihilator's integrated once
    expected = {"_szego": len(probe._RULES)}
    if not trig:
        expected["membership_check"] = 1
    assert calls == expected
    calls.clear()
    weighted_residual(target, complement_in_range(gen_power_set(3, 50), 40),
                      companion, tol=1e-13)
    assert "fourier_coefficients" not in calls


_IN_SPAN = {2: 1.0, 5: 0.5 + 0.25j, 11: 0.75j}


# an in-span target whose first kept set is empty: nothing kept at N = 5,
# all of it kept from N = 20; its records (N, residual, target_norm,
# residual_error).  The empty span is solved on both rules like any other,
# its residual 1 ulp under the norm, its error the rules' disagreement plus
# n eps norm at n = 13; the later spans' residual_error is the rounding term
# n eps norm, n = 20 and 40
_EMPTY_FIRST = {6: 1.0, 9: 0.5 + 0.25j, 13: 0.75j}
_EMPTY_FIRST_RECORDS = [
    (5, 1.0362870505067885, 1.0362870505067887, 3.435414543193239e-15),
    (20, 0.0, 1.0362870505067887, 4.602038974374117e-15),
    (40, 0.0, 1.0362870505067887, 9.204077948748235e-15)]


_RUNS = len(probe._RULES)


@pytest.mark.parametrize("gamma, target, N_list, measures, recursions", [
    (gen_power_set(2, 100), "annihilator", [20, 50, 100], 0, 0),
    (gen_power_set(3, 100), _IN_SPAN, [20, 50, 100], 1, 0),
    (gen_power_set(3, 100), {0: 1.0}, [20, 50, 100], _RUNS, _RUNS),
    (gen_power_set(3, 100), "annihilator", [20, 50, 100], _RUNS, _RUNS),
    (FrequencySet((1, 2, 3, 4, 5)), _EMPTY_FIRST, [5, 20, 40], _RUNS, _RUNS),
], ids=["squares-annihilator", "cubes-in-span", "cubes-e0",
        "cubes-annihilator", "in-span-empty-first"])
def test_smaller_rule_recurses_only_where_a_solve_has_data(
        s20, companion, gamma, target, N_list, measures, recursions,
        monkeypatch):
    """Every rule is measured and recursed where some solve has data.  The
    squares' annihilator has no inner product on a kept frequency, and the
    in-span target no amplitude off the span: no solve has data, so no
    rule recurses, and only the last is measured, for the trig norm, which
    the annihilator reads from membership_check instead.  e_0 is never
    kept, the cubes keep odd squares, where the annihilator's inner
    products are not 0, and an empty kept set is a span whose data is the
    whole target: every rule runs in full."""
    calls, pinned = {}, target is _EMPTY_FIRST
    _count_calls(monkeypatch, probe, "_measure", calls)
    _count_calls(monkeypatch, probe, "_szego", calls)
    target = (AnnihilatorTarget(s20) if target == "annihilator"
              else TrigPolyTarget(target))
    cfg = ProbeConfig(weight=companion, gamma=gamma, target=target, tol=1e-13)
    records = residual_curve(cfg, N_list).records
    assert calls.pop("_measure", 0) == measures
    assert calls.get("_szego", 0) == recursions
    if pinned:
        assert [(r.N, r.residual, r.target_norm, r.residual_error)
                for r in records] == _EMPTY_FIRST_RECORDS


def _node_norm(w, n_max, rule, target):
    """A trig target's norm^2 summed on one rule's nodes, in the probe's
    order of operations."""
    z, root_mu = probe._measure(w, n_max, rule)
    f_z = root_mu * sum(a * z ** k for k, a in target.coeffs.items())
    return float(np.vdot(f_z, f_z).real)


def test_unread_trig_curves_take_their_records_in_closed_form(companion):
    """Trig records whose solves have no data, pinned to parts computed
    here: the residual is 0 in the span, and residual_error the rounding
    term n eps norm, with the norm summed on the last rule's nodes.  An
    empty kept set is a span like any other: its data is the whole target,
    its residual the solve's, within residual_error of the norm, and its
    error at least the rounding term at its degree."""
    # nothing kept at N = 3 (degree 7); 5 and 7 kept at N = 10
    gamma, target = FrequencySet((1, 2, 3)), TrigPolyTarget({5: 0.5, 7: 1.0})
    cfg = ProbeConfig(weight=companion, gamma=gamma, target=target, tol=1e-13)
    first, second = residual_curve(cfg, [3, 10]).records
    norm = math.sqrt(_node_norm(companion, 10, probe._RULES[-1], target))
    assert first.target_norm == second.target_norm == norm
    assert abs(first.residual - norm) <= first.residual_error
    assert first.residual_error >= probe._ROUNDING * 7 * EPS * norm
    assert second.residual == 0.0
    assert second.residual_error == 0.0 + probe._ROUNDING * 10 * EPS * norm

    cubes = gen_power_set(3, 50)
    target = TrigPolyTarget(_IN_SPAN)
    cfg = ProbeConfig(weight=companion, gamma=cubes, target=target, tol=1e-13)
    norm = math.sqrt(_node_norm(companion, 80, probe._RULES[-1], target))
    for rec in residual_curve(cfg, [20, 40, 80]).records:
        kept = complement_in_range(cubes, rec.N)
        assert (rec.residual, rec.target_norm) == (0.0, norm)
        assert rec.residual_error == probe._ROUNDING * max(kept) * EPS * norm


def test_weighted_residual_of_an_in_span_target(companion, monkeypatch):
    """No recursion, since the solve has no data: a residual of 0 and the
    target's own amplitudes as the projection's coefficients, all exact,
    and the rounding term n eps norm at degree 40 as the residual_error."""
    calls = {}
    _count_calls(monkeypatch, probe, "_szego", calls)
    target = TrigPolyTarget(_IN_SPAN)
    freqs = complement_in_range(gen_power_set(3, 50), 40)
    res, coeffs, norm, error = weighted_residual(target, freqs, companion,
                                                 tol=1e-13)
    assert calls == {}
    assert res == 0.0
    assert np.array_equal(coeffs, target.at(freqs))
    assert norm == math.sqrt(
        _node_norm(companion, 40, probe._RULES[-1], target))
    assert error == probe._ROUNDING * 40 * EPS * norm


def _record_qr_modes(monkeypatch):
    """The mode of every numpy.linalg.qr call the probe makes."""
    modes, qr = [], np.linalg.qr

    def recording(a, mode="reduced"):
        modes.append(mode)
        return qr(a, mode=mode)

    monkeypatch.setattr(probe.np.linalg, "qr", recording)
    return modes


@pytest.mark.parametrize("gamma, target, factored", [
    (gen_power_set(2, 100), "annihilator", 0),
    (gen_power_set(3, 100), _IN_SPAN, 0),
    (gen_power_set(3, 100), "annihilator", 3 * _RUNS),
], ids=["squares-annihilator", "cubes-in-span", "cubes-annihilator"])
def test_curve_blocks_factor_R_only(s20, companion, gamma, target, factored,
                                    monkeypatch):
    """A curve reads T alone: a block whose solve has data, one per N and
    rule, is factored with mode "r", and no Q is formed; a block without
    data is not factored at all.  The squares' annihilator and the in-span
    target have no data; the cubes keep odd squares, where the
    annihilator's inner products are not 0."""
    modes = _record_qr_modes(monkeypatch)
    target = (AnnihilatorTarget(s20) if target == "annihilator"
              else TrigPolyTarget(target))
    cfg = ProbeConfig(weight=companion, gamma=gamma, target=target, tol=1e-13)
    residual_curve(cfg, [20, 50, 100])
    assert modes == ["r"] * factored


def test_weighted_residual_forms_Q_once(monkeypatch):
    """weighted_residual factors its block R-only on each rule and forms Q
    once, from the last rule's block, for the projection's coefficients.
    The values are those of one reduced QR per block, bit for bit: e_0,
    cubes removed, on the companion weight exp(-c/t) with c as the
    lstsq decay fit gave it (0x1.e35369d9eb645p-3)."""
    modes = _record_qr_modes(monkeypatch)
    freqs = complement_in_range(gen_power_set(3, 50), 40)
    res, coeffs, norm, error = weighted_residual(
        TrigPolyTarget({0: 1.0}), freqs,
        make_exp_weight(float.fromhex("0x1.e35369d9eb645p-3")), tol=1e-13)
    assert modes == ["r"] * len(probe._RULES) + ["reduced"]
    assert (res, norm, error) == (0.698419545445141, 0.7298382413787748,
                                  1.458689383840883e-14)
    assert coeffs.shape == (len(freqs),)
    assert hashlib.sha256(coeffs.astype("<c16").tobytes()).hexdigest() == (
        "4b5f22be30244648d4df8a2b11580f54f1211895fa03a530530d35a69cc12944")


_ORDERS = sorted({order for *_, order in probe._RULES})
_GAUSS_LEGENDRE_HEADER = """\
# Gauss-Legendre rules on [-1, 1] for szegolab.probe._leggauss: per line an
# order, a node x >= 0 and its weight, as float.hex, bit for bit what
# numpy.polynomial.legendre.leggauss(order) gives (Golub & Welsch, Math. Comp.
# 1969, plus one Newton step, then symmetrized): the node -x has the same
# weight.  tests/test_probe.py rebuilds this text and prints it on a mismatch.
"""


def _gauss_legendre_text(orders):
    """The text of gauss_legendre.txt for orders, from numpy's leggauss."""
    lines = []
    for order in orders:
        x, w = np.polynomial.legendre.leggauss(order)
        lines += [f"{order} {a.hex()} {b.hex()}\n"
                  for a, b in zip(x[order // 2:], w[order // 2:])]
    return _GAUSS_LEGENDRE_HEADER + "".join(lines)


@pytest.mark.parametrize("order", _ORDERS)
def test_stored_gauss_legendre_rule_is_numpys(order):
    x, w = probe._leggauss(order)
    x_np, w_np = np.polynomial.legendre.leggauss(order)
    assert x.tobytes() == x_np.tobytes() and w.tobytes() == w_np.tobytes()
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


@pytest.mark.parametrize("order", [0, 1, 63, 65, 81])
def test_unstored_gauss_legendre_order_raises(order):
    with pytest.raises(ValueError, match=f"order {order}$"):
        probe._leggauss(order)


def test_stored_gauss_legendre_file_rebuilds():
    """The stored bits are numpy's here; a new order in _RULES, or a numpy
    whose leggauss rounds otherwise, fails with the text to store."""
    path = Path(probe.__file__).with_name("gauss_legendre.txt")
    text = _gauss_legendre_text(_ORDERS)
    assert path.read_text(encoding="ascii") == text, (
        f"store this text in {path.name}:\n{text}")


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


@pytest.mark.parametrize("coeffs", [{1: 1.0},
                                    {8: 1.0, 27: 0.5 + 0.25j, 11: 0.75j}],
                         ids=["e1", "three-terms"])
def test_residual_error_covers_a_rotation_of_the_nodes(companion, coeffs,
                                                       monkeypatch):
    """Rotating every node by +-2.2e-16 rad, one rounding of z, moves each
    residual of the curve by at most the rounding term n eps norm of its
    residual_error (by at most 0.027 n eps norm, on this seed)."""
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 50),
                      target=TrigPolyTarget(coeffs), tol=1e-13)
    N_list = [50, 100, 200, 400, 800]
    base = residual_curve(cfg, N_list).records
    measure = probe._measure
    rng = np.random.default_rng(3)

    def rotated(w, n, rule):
        z, root_mu = measure(w, n, rule)
        return z * np.exp(2.2e-16j * rng.choice([-1.0, 1.0], z.size)), root_mu

    monkeypatch.setattr(probe, "_measure", rotated)
    kept = complement_in_range(cfg.gamma, N_list[-1])
    for rec, moved in zip(base, residual_curve(cfg, N_list).records):
        n = max(max(k for k in kept if k <= rec.N), *coeffs)
        rounding = probe._ROUNDING * n * EPS * rec.target_norm
        assert abs(moved.residual - rec.residual) <= rounding
        assert rec.residual_error >= rounding


def test_residual_curve_holds_past_the_old_conditioning_wall():
    """c = 1, cubes removed, e_0: the removed rows' block conditions near
    2.5e18 at N = 1600, yet the distance is the data row projected off the
    others, well conditioned.  The values are those of a long-double
    recursion with a 30-digit mpmath solve."""
    cfg = ProbeConfig(weight=make_exp_weight(1.0), gamma=gen_power_set(3, 50),
                      target=TrigPolyTarget({0: 1.0}), tol=1e-13)
    records = residual_curve(cfg, [1600, 3200]).records
    for rec, value in zip(records, (0.312777360079, 0.307718463510)):
        assert abs(rec.residual - value) <= 1e-10
        assert rec.residual_error <= 1e-10


# (N, residual, residual_error) of the solve by one SVD of the whole block,
# which the QR of the block with its data rows last replaced
_SVD_ROUTE = {
    "e1": [(50, 0.6463233355982747, 3.3133019149398187e-15),
           (100, 0.6430837413328737, 1.0863020905963278e-14),
           (200, 0.6402063615821344, 8.279712606394716e-14),
           (400, 0.6378959442690741, 1.7847871744142401e-12),
           (800, 0.6357858595834193, 1.4855060011473148e-10)],
    "four-terms": [(100, 0.33681236045383306, 1.3400979931010602e-12),
                   (200, 0.3302292819587597, 1.23961263509923e-10),
                   (400, 0.32425316815322236, 1.0726180215072069e-07),
                   (800, 0.31851754209067723, 0.0012538781306044005)],
    "annihilator": [(100, 4.022632169000006, 3.676351382823009e-05),
                    (200, 4.022187723752915, 3.676757681292815e-05),
                    (400, 4.021837048549055, 3.6770798095329606e-05),
                    (800, 4.021513658119737, 3.677517750326738e-05)]}


@pytest.mark.parametrize("kind", list(_SVD_ROUTE))
def test_residuals_lie_inside_the_svd_route_error_bars(s20, companion,
                                                       kind):
    """Cubes removed: e_1 on the companion weight, four terms at c = 1 and
    the cubes' annihilator (data on T) on the companion weight."""
    weight, target = {
        "e1": (companion, TrigPolyTarget({1: 1.0})),
        "four-terms": (make_exp_weight(1.0), TrigPolyTarget(
            {0: 1.0, 8: 0.5j, 27: 0.3, 64: -0.2})),
        "annihilator": (companion, AnnihilatorTarget(s20))}[kind]
    cfg = ProbeConfig(weight=weight, gamma=gen_power_set(3, 50),
                      target=target, tol=1e-13)
    N_list = [N for N, *_ in _SVD_ROUTE[kind]]
    for rec, (_, value, error) in zip(residual_curve(cfg, N_list).records,
                                      _SVD_ROUTE[kind]):
        assert abs(rec.residual - value) <= error


def test_residual_does_not_move_with_the_blas_thread_count():
    """c = 1, cubes removed, e_0 at N = 800: the SVD route's value moved
    in its sixth digit between one and two BLAS threads."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("from szegolab.probe import ProbeConfig, TrigPolyTarget, "
            "residual_curve; from szegolab.frequency_sets import "
            "gen_power_set; from szegolab.weights import make_exp_weight; "
            "print(repr(residual_curve(ProbeConfig(make_exp_weight(1.0), "
            "gen_power_set(3, 50), TrigPolyTarget({0: 1.0}), 1e-13), [800])"
            ".records[0].residual))")
    values = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        values.append(float(out.stdout))
    assert abs(values[0] - values[1]) <= 1e-13


def test_weighted_residual_with_no_row_removed():
    """The kept set covers every degree of the target's range, so no row
    is removed: the target is in the span, with its own amplitudes, and
    the block is empty, so nothing is singular and residual_error is the
    rounding term at degree 2."""
    target = TrigPolyTarget({1: 1.0})
    res, coeffs, norm, error = weighted_residual(target, [0, 1, 2],
                                                 make_exp_weight(0.5))
    assert res == 0.0 and norm > 0
    assert error == probe._ROUNDING * 2 * EPS * norm
    assert np.array_equal(coeffs, target.at([0, 1, 2]))


def _zero_the_row_of_z0(monkeypatch):
    """B's row for z^0 zeroed on every recursion: a removed row with no
    coefficient in any phi_k."""
    szego = probe._szego

    def zeroed(z, root_mu, n, rows):
        d2, B = szego(z, root_mu, n, rows)
        B[np.searchsorted(rows, 0)] = 0.0
        return d2, B

    monkeypatch.setattr(probe, "_szego", zeroed)


def test_singular_constraint_block_is_refused(companion, monkeypatch):
    """A removed row with no coefficient in any phi_k leaves a zero on T's
    diagonal: with B's row for z^0 zeroed, the first block, e_1 with the
    cubes removed at N = 20, raises, naming its degree."""
    _zero_the_row_of_z0(monkeypatch)
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 50),
                      target=TrigPolyTarget({1: 1.0}), tol=1e-13)
    with pytest.raises(ArithmeticError) as info:
        residual_curve(cfg, [20, 40])
    assert str(info.value) == "singular constraint block at n=20"


def test_singular_block_is_refused_only_where_a_solve_runs(s20, companion,
                                                          monkeypatch):
    """The annihilator with the cubes removed has no data at N = 5 (1 is
    removed, 9 not yet kept), so that record is the norm with the norm's
    error, from no factored block; at N = 20 the kept 9 gives its solve
    data.  With B's row for z^0 zeroed only that block is refused."""
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 50),
                      target=AnnihilatorTarget(s20), tol=1e-13)
    norm_sq, err = membership_check(s20, companion, 1e-13)
    norm = math.sqrt(norm_sq)
    first = residual_curve(cfg, [5, 20]).records[0]
    assert (first.residual, first.residual_error) == (
        norm, err / (norm + math.sqrt(norm * norm - err)))
    _zero_the_row_of_z0(monkeypatch)
    with pytest.raises(ArithmeticError) as info:
        residual_curve(cfg, [5, 20])
    assert str(info.value) == "singular constraint block at n=20"


def test_data_free_curves_to_large_N_run_no_recursion(s20, companion,
                                                      monkeypatch):
    """Curves whose solves have no data run no recursion: the squares'
    annihilator to N = 12800 (every odd square up to 113^2 removed) reads
    the norm with the norm's error, and an in-span target, cubes removed,
    to N = 6400 reads 0 with the rounding term n eps norm, at every N."""
    calls = {}
    _count_calls(monkeypatch, probe, "_szego", calls)
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(2, 120),
                      target=AnnihilatorTarget(s20), tol=1e-13)
    norm_sq, err = membership_check(s20, companion, 1e-13)
    norm = math.sqrt(norm_sq)
    for rec in residual_curve(cfg, [50, 800, 3200, 12800]).records:
        assert rec.residual == rec.target_norm == norm
        assert rec.residual_error == err / (norm + math.sqrt(norm * norm
                                                             - err))
    cubes, target = gen_power_set(3, 20), TrigPolyTarget(_IN_SPAN)
    cfg = ProbeConfig(weight=companion, gamma=cubes, target=target, tol=1e-13)
    norm = math.sqrt(_node_norm(companion, 6400, probe._RULES[-1], target))
    for rec in residual_curve(cfg, [20, 400, 6400]).records:
        kept = complement_in_range(cubes, rec.N)
        assert (rec.residual, rec.target_norm) == (0.0, norm)
        assert rec.residual_error == probe._ROUNDING * max(kept) * EPS * norm
    assert calls == {}


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
    """No kept frequency is on T, so no solve has data: the residual is the
    norm, and no rule is measured.  Its error is the
    norm's, norm - sqrt(norm^2 - err) in the form that does not cancel:
    err is about an ulp of norm^2, and the difference itself reads 0."""
    squares = gen_power_set(2, 100)
    cfg = ProbeConfig(weight=companion, gamma=squares,
                      target=AnnihilatorTarget(s20), tol=1e-13)
    norm_sq, err = membership_check(s20, companion, 1e-13)
    norm = math.sqrt(norm_sq)
    for rec in residual_curve(cfg, [50, 100]).records:
        assert rec.residual == rec.target_norm == norm
        assert rec.residual_error == err / (norm + math.sqrt(norm * norm
                                                             - err)) > 0.0


def test_weighted_residual_refuses_a_floor():
    w = make_constant_weight(1.0)
    f = TrigPolyTarget({1: 1.0})
    assert weighted_residual(f, [1], w, floor=0)[0] == 0.0
    with pytest.raises(ValueError, match="floor"):
        weighted_residual(f, [1], w, floor=1e-10)


_NORM_TARGETS = [{2: 1.0, 5: 0.3, 9: -0.7j}, {0: 1.0},
                 {-3: 1.0, 2: 0.5, 8: 0.2 + 0.1j}, {1: 0.25j, 27: 2.0}]


@pytest.mark.parametrize("weight", ["exp", "companion", "constant",
                                    "tabulated"])
def test_trig_target_norm_matches_the_gram_form(companion, weight):
    w = {"exp": make_exp_weight(1.0), "companion": companion,
         "constant": make_constant_weight(2.5),
         "tabulated": make_tabulated_weight([(0.13, 0.2), (0.37, 0.5),
                                             (0.61, 0.55), (0.87, 1.0)])
         }[weight]
    for coeffs in _NORM_TARGETS:
        target = TrigPolyTarget(coeffs)
        freqs = list(coeffs)
        assert np.array_equal(target.at([1, *freqs, 30]),
                              [coeffs.get(1, 0.0), *coeffs.values(), 0.0])
        # ||f||_w^2 = sum a_n conj(a_l) w-hat(l - n) = a^H G a
        a = target.at(freqs)
        oracle = math.sqrt(np.vdot(a, gram_matrix(freqs, w, 1e-13) @ a).real)
        for N in (50, 800):
            cfg = ProbeConfig(weight=w, gamma=gen_power_set(3, 20),
                              target=target, tol=1e-13)
            norm = residual_curve(cfg, [N]).records[0].target_norm
            assert norm == pytest.approx(oracle, rel=1e-14, abs=0)


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
    assert first.target_norm > 0
    assert abs(first.residual - first.target_norm) <= first.residual_error
    assert second.residual < first.residual


def test_empty_span_residual_error_has_a_rounding_floor():
    """With nothing kept, a trig target's residual is the solve's on the
    whole target, whose error is the two rules' disagreement, 0 when both
    round to the same double, plus the solve's rounding term n eps norm at
    degree n = 1: that term is the floor."""
    w = make_exp_weight(1.0)
    cfg = ProbeConfig(weight=w, gamma=FrequencySet((1,)),
                      target=TrigPolyTarget({1: 1.0}), tol=1e-13)
    [record] = residual_curve(cfg, [1]).records
    norm = record.target_norm
    assert norm > 0
    assert abs(record.residual - norm) <= record.residual_error
    assert probe._ROUNDING * EPS * norm <= record.residual_error < 1e-14


def test_degree_zero_empty_span_keeps_a_rounding_floor():
    """e_0 with nothing kept is a solve at degree 0, where n eps norm would
    read 0: the rounding term takes max(n, 1), so residual_error is at
    least eps norm even when both rules round to the same double."""
    cfg = ProbeConfig(weight=make_exp_weight(1.0),
                      gamma=FrequencySet((1, 2, 3)),
                      target=TrigPolyTarget({0: 1.0}), tol=1e-13)
    [record] = residual_curve(cfg, [3]).records
    assert record.target_norm > 0
    assert record.residual_error >= EPS * record.target_norm
    assert abs(record.residual - record.target_norm) <= record.residual_error


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
            0.0, 1.0, 1e-9, points=np.linspace(
                0.0, 1.0, math.ceil(4.0 * max(top, abs(m))) + 1))
        assert res.converged
        assert abs(value - res.value) < 1e-7
    assert b[0] == 0.0                  # no frequency-2 component
    assert b[1] == 0.0                  # even square also annihilated
    assert b[2] == s20.coeffs[1]        # odd square carries the coefficient
    assert b[4] == -s20.coeffs[1]


@pytest.mark.parametrize("k_min, M", [(0, 20), (1, 5), (0, 300), (3, 3)])
def test_annihilator_inner_products_match_a_dict_lookup(k_min, M):
    """The inner products looked up by one sorted search equal, bit for
    bit and signed zeros included, a per-frequency dict of the series's
    coefficients: c on +(odd square), -c on its negative, 0 elsewhere.
    The series's own +-frequencies reach the -0.0 and +0.0 that its cosh
    overflow makes of the coefficients from k = 226 on."""
    series = DeepZeroSeries(k_min, M)
    spectrum = {int(f): complex(c) for f, c in zip(series.freqs,
                                                    series.coeffs)}
    f = series.freqs.astype(np.int64)
    m = np.concatenate([np.arange(-13000, 13001), f, -f])
    c = np.array([spectrum.get(int(k), 0.0j) for k in np.abs(m)])
    expected = np.where(m > 0, c, np.where(m < 0, -c, 0.0j))
    got = AnnihilatorTarget(series).inner(m)
    assert got.dtype == np.complex128
    assert got.tobytes() == expected.tobytes()


def test_weighted_residual_refuses_a_repeated_frequency():
    with pytest.raises(ValueError, match="distinct"):
        weighted_residual(TrigPolyTarget({1: 1.0}), [1, 2, 1],
                          make_constant_weight(1.0))


def test_residual_curve_of_no_N_has_no_records(companion):
    cfg = ProbeConfig(weight=companion, gamma=gen_power_set(3, 10),
                      target=TrigPolyTarget({2: 1.0}))
    assert residual_curve(cfg, []).records == []


def test_annihilator_without_a_deep_zero_has_an_honest_norm_error():
    """Squares removed, w = 1, the series from k = 1: its decay fit shows
    no deep zero, and the target norm's error covers the exact norm
    sqrt(2 sum c_k^2) = 0.305671158952896 (40-digit Parseval)."""
    cfg = ProbeConfig(weight=make_constant_weight(1.0),
                      gamma=gen_power_set(2, 100),
                      target=AnnihilatorTarget(DeepZeroSeries(1, 20)),
                      tol=1e-13)
    for rec in residual_curve(cfg, [50, 100]).records:
        assert rec.residual == rec.target_norm
        assert abs(rec.target_norm - 0.305671158952896) <= rec.residual_error
        assert rec.residual_error < 1e-4


def test_annihilator_of_a_short_series_has_its_norm():
    """w = 1, cubes removed, the series to M = 3: the target norm is
    Parseval's sqrt(2 sum c_k^2) over k <= 3, and the kept odd squares 9,
    25 and 49 take their c_k^2 off the residual's square.  A norm of the
    series to k = 20 mixed with these inner products read 1.2e-9 high."""
    series = DeepZeroSeries(0, 3)
    c_sq = series.coeffs ** 2
    cfg = ProbeConfig(weight=make_constant_weight(1.0),
                      gamma=gen_power_set(3, 20),
                      target=AnnihilatorTarget(series), tol=1e-13)
    for rec in residual_curve(cfg, [50, 100]).records:
        assert rec.target_norm == pytest.approx(
            math.sqrt(2.0 * math.fsum(c_sq)), rel=4e-16, abs=0)
        assert rec.residual == pytest.approx(
            math.sqrt(2.0 * c_sq[0] + math.fsum(c_sq[1:])), rel=1e-14, abs=0)
        assert rec.residual_error < 1e-13
