"""Weights whose orthogonal polynomials on the unit circle are known in
closed form at every degree, run through the probe's node rules and Szegő
recursion (probe._measure and probe._szego) on each rule of probe._RULES.

The probe reads only a weight's breakpoints and its values, so a duck-typed
weight serves.  The closed forms (Simon, "Orthogonal Polynomials on the Unit
Circle", 2005, section 1.7):
  - Bernstein-Szegő w = 1/|1 - z/zeta|^2, zeta > 1, z = e^{2 pi i t}: for
    k >= 1, Phi_k = z^(k-1) (z - 1/zeta), so d_k^2 = ||Phi*_k||^2 = 1 and the
    Verblunsky coefficients alpha_k vanish; |alpha_k|^2 = 1 - d_{k+1}^2/d_k^2.
  - w = |1 - z|^2, a zero on the circle: d_k^2 = 1 + 1/(k + 1).
The Bernstein-Szegő weight also serves whole residual curves: its
coefficients are w-hat(n) = rho^|n| / (1 - rho^2), rho = 1/zeta, the
covariances of a stationary AR(1) sequence, which is Markov.

The title theorem's two errors are residuals of the public probe, with
target e_0: Szegő's prediction error d_N against span{e_1..e_N} (a curve
with nothing removed), and Kolmogorov's interpolation error sigma_N against
span{e_k : 0 < |k| <= N} (Grenander & Szegő, "Toeplitz Forms and Their
Applications", 1958).  Each meets its closed form, or a pinned 50-digit
mpmath value, within the record's own residual_error.
"""

import numpy as np
import pytest

from szegolab import probe
from szegolab.frequency_sets import (FrequencySet, complement_in_range,
                                     gen_power_set)
from szegolab.probe import (ProbeConfig, TrigPolyTarget, residual_curve,
                            weighted_residual)
from szegolab.weights import make_exp_weight

EPS = np.finfo(np.float64).eps


class _Weight:
    """A weight on [0, 1] with no breakpoint inside, given by a function."""

    breakpoints = (0.0, 1.0)

    def __init__(self, f):
        self.f = f

    def __call__(self, t):
        return self.f(np.asarray(t, dtype=np.float64))


def _d2(w, N, rule):
    """d_k^2 = ||Phi*_k||^2 for k = 0..N on one rule's nodes."""
    z, root_mu = probe._measure(w, N, rule)
    return probe._szego(z, root_mu, N, np.arange(0))[0]


@pytest.mark.parametrize("rule", probe._RULES, ids=str)
@pytest.mark.parametrize("zeta", [2.0, 1.05, 1.01])
@pytest.mark.parametrize("N", [100, 800, 6400])
def test_bernstein_szego_weight_has_unit_distances(N, zeta, rule):
    """d_k^2 = 1 and alpha_k = 0 for k >= 1, within 4 N eps (the worst
    measured is 0.045 N eps, at N = 100; 0.00125 N eps at N = 6400).
    d_0^2 is the rule's integral of w itself, which a peak of width about
    zeta - 1 makes the smaller rule miss at small N, so it is not pinned
    here."""
    w = _Weight(lambda t: 1.0 / np.abs(1.0 - np.exp(2j * np.pi * t) / zeta)
                ** 2)
    d2 = _d2(w, N, rule)
    assert np.abs(d2[1:] - 1.0).max() <= 4 * N * EPS
    assert np.abs(1.0 - d2[2:] / d2[1:-1]).max() <= 4 * N * EPS


@pytest.mark.parametrize("rule", probe._RULES, ids=str)
def test_zero_on_the_circle_has_the_closed_form_distances(rule):
    """w = |1 - z|^2, the a = 1 limit of test_probe's |1 - a z|^2, whose
    zero is on the circle: d_k^2 = 1 + 1/(k + 1) at every k <= N = 1000,
    within 4 N eps (the worst measured is 0.007 N eps; at k = N, 1.3e-15)."""
    N = 1000
    d2 = _d2(_Weight(lambda t: np.abs(1.0 - np.exp(2j * np.pi * t)) ** 2),
             N, rule)
    k = np.arange(N + 1)
    assert abs(d2[N] - (1.0 + 1.0 / (N + 1))) <= 4 * N * EPS
    assert np.abs(d2 - (1.0 + 1.0 / (k + 1))).max() <= 4 * N * EPS


CUBES = gen_power_set(3, 50)
N_LIST = [100, 200, 400, 800]


def _bernstein_szego(zeta):
    return _Weight(lambda t: 1.0 / np.abs(1.0 - np.exp(2j * np.pi * t) / zeta)
                   ** 2)


def _kept_distance(m, zeta, N):
    """The distance from e_m to the span of e_k, k in [1, N] minus the
    cubes, under the Bernstein-Szegő weight.  The sequence is Markov, so
    only m's nearest kept neighbours enter, at gap a below and b above:
    sigma^2 (1 - rho^2a)(1 - rho^2b) / (1 - rho^2(a+b)) with both,
    sigma^2 (1 - rho^2a) or sigma^2 (1 - rho^2b) with one, sigma^2 with
    none, where sigma^2 = 1 / (1 - rho^2)."""
    rho2 = zeta ** -2.0
    kept = complement_in_range(CUBES, N)
    below = [m - k for k in kept if k < m]
    above = [k - m for k in kept if k > m]
    q = [1.0 - rho2 ** g for g in below[-1:] + above[:1]]
    if len(q) == 2:
        q = [q[0] * q[1] / (1.0 - rho2 ** (below[-1] + above[0]))]
    return np.sqrt(np.prod(q) / (1.0 - rho2))


def _oracle_misses(zeta, m):
    """(N, residual, closed form, residual_error) wherever the probe's
    residual to N_LIST is off the closed form by more than its error."""
    curve = residual_curve(ProbeConfig(
        weight=_bernstein_szego(zeta), gamma=CUBES,
        target=TrigPolyTarget({m: 1.0})), N_LIST)
    exact = [_kept_distance(m, zeta, r.N) for r in curve.records]
    return [(r.N, r.residual, x, r.residual_error)
            for r, x in zip(curve.records, exact)
            if not abs(r.residual - x) <= r.residual_error]


@pytest.mark.parametrize("m", [0, 1, 8, -3])
@pytest.mark.parametrize("zeta", [2.0, 1.05, 1.01, 1.001])
def test_kept_set_residuals_meet_the_markov_closed_form(zeta, m):
    """The residual of e_m against the kept span, cubes removed, lies
    within its residual_error of the closed form at every N (the worst
    measured gap is 0.03 residual_error, 1e-14 absolute)."""
    assert _oracle_misses(zeta, m) == []


def _rotate_heaviest_node(rules):
    measure = probe._measure

    def rotated(w, n, rule):
        z, root_mu = measure(w, n, rule)
        if rule in rules:
            z = z.copy()
            z[np.argmax(root_mu)] *= np.exp(2e-9j * np.pi)
        return z, root_mu
    return rotated


@pytest.mark.parametrize("plant", ["node-on-both-rules", "no-rounding-term"])
def test_kept_set_oracle_catches_a_planted_error(plant, monkeypatch):
    """The oracle fails when the node of largest mass is rotated by 1e-9
    of a turn on both rules (9.8 residual_error off), and when
    residual_error drops its rounding term.  The same rotation on the
    larger rule alone stays within (0.9997 residual_error): the rules'
    disagreement, which residual_error holds, then shows it."""
    if plant == "no-rounding-term":
        monkeypatch.setattr(probe, "_ROUNDING", 0.0)
    else:
        monkeypatch.setattr(probe, "_measure",
                            _rotate_heaviest_node(probe._RULES))
    assert any(_oracle_misses(zeta, m) for zeta in (2.0, 1.05, 1.01, 1.001)
               for m in (0, 1, 8, -3))


E0 = TrigPolyTarget({0: 1.0})


def _prediction(w, N_list):
    """The records of d_N, the distance from e_0 to span{e_1..e_N}, at each
    N of N_list: the probe's residual curve with nothing removed."""
    return residual_curve(ProbeConfig(weight=w, gamma=FrequencySet(()),
                                      target=E0), N_list).records


def _interpolation(w, N):
    """(sigma_N, residual_error): the distance from e_0 to the span of e_k,
    0 < |k| <= N, from weighted_residual."""
    res, _, _, error = weighted_residual(
        E0, [*range(-N, 0), *range(1, N + 1)], w)
    return res, error


def test_zero_on_the_circle_reads_szego_prediction_error():
    """d_N^2 = 1 + 1/(N + 1) for w = |1 - z|^2, as a probe residual."""
    w = _Weight(lambda t: np.abs(1.0 - np.exp(2j * np.pi * t)) ** 2)
    for r in _prediction(w, [1, 10, 100, 1000]):
        assert abs(r.residual - np.sqrt(1.0 + 1.0 / (r.N + 1))) <= (
            r.residual_error), r


@pytest.mark.parametrize("zeta", [2.0, 1.05])
def test_bernstein_szego_reads_unit_prediction_error(zeta):
    """d_N = 1 at every N >= 1 for w = 1/|1 - z/zeta|^2."""
    for r in _prediction(_bernstein_szego(zeta), [1, 100, 800]):
        assert abs(r.residual - 1.0) <= r.residual_error, r


def test_exp_weight_prediction_error_meets_its_digits():
    """d_N^2 for exp(-1/t) at N = 25, 100 and 800 (ROADMAP item 3):
    both ends of d_N -+ residual_error round to the digits shown."""
    pinned = {25: "3.46886e-02", 100: "1.80240e-02", 800: "6.50176e-03"}
    for r in _prediction(make_exp_weight(1.0), list(pinned)):
        for d in (r.residual - r.residual_error,
                  r.residual + r.residual_error):
            assert f"{d * d:.5e}" == pinned[r.N], r


# sigma_N^2 for exp(-1/t) from a 50-digit mpmath inverse of the weight's
# Toeplitz matrix (the N = 80 inverse took 566 s, so the values are pinned,
# not recomputed)
SIGMA2 = {10: 7.99700103285917e-4, 20: 2.16863050154642e-5,
          80: 2.86087433299702e-11}


@pytest.mark.parametrize("N, sigma2", SIGMA2.items())
def test_exp_weight_interpolation_error_meets_mpmath(N, sigma2):
    """sigma_N^2 for exp(-1/t) against SIGMA2 (ROADMAP item 10)."""
    res, error = _interpolation(make_exp_weight(1.0), N)
    assert abs(res - np.sqrt(sigma2)) <= error


def test_nested_two_sided_spans_each_solve_in_their_own_frame(monkeypatch):
    """One call over nested prefixes of (1, -1, 2, -2, ..., +-320) reads
    sigma_N for N = 10, 20, 80 and 320: each span is shifted by its own
    smallest frequency, so its only removed degree is e_0's, N, and the
    recursion is asked for exactly one row per span.  sigma_N^2 meets
    SIGMA2 within its own residual_error and within 1e-12 relative.  In
    the largest span's frame sigma_10^2 was 2.4e-10 off, 3.8 times its
    residual_error, and each rule read 311 rows."""
    calls, szego = [], probe._szego

    def counted(z, root_mu, n, rows):
        calls.append(list(rows))
        return szego(z, root_mu, n, rows)
    monkeypatch.setattr(probe, "_szego", counted)
    Ns = [10, 20, 80, 320]
    order = [s * k for k in range(1, Ns[-1] + 1) for s in (1, -1)]
    _, out, _ = probe._residuals(E0, [order[:2 * N] for N in Ns],
                                 make_exp_weight(1.0), 1e-12)
    assert calls == [Ns] * len(probe._RULES)
    for N, (res, error) in zip(Ns, out):
        if N in SIGMA2:
            assert abs(res - np.sqrt(SIGMA2[N])) <= error, N
            assert abs(res * res / SIGMA2[N] - 1.0) <= 1e-12, N


@pytest.mark.parametrize("zeta", [2.0, 1.05])
@pytest.mark.parametrize("N", [1, 5, 50])
def test_bernstein_szego_interpolation_error_is_closed_form(N, zeta):
    """sigma_N^2 = zeta^2 / (zeta^2 + 1) at every N >= 1: the sequence is
    Markov, so only e_0's nearest neighbours e_-1 and e_1 enter
    (_kept_distance with gaps a = b = 1)."""
    res, error = _interpolation(_bernstein_szego(zeta), N)
    assert abs(res - zeta / np.sqrt(zeta * zeta + 1.0)) <= error


@pytest.mark.parametrize("c, row", [
    (1.0, [0.3967, 0.4608, 0.4850, 0.4939]),
    (0.236, [0.0945, 0.1105, 0.1156, 0.1171]),
    (0.05, [0.0170, 0.0220, 0.0242, 0.0248])])
def test_verblunsky_coefficients_read_off_consecutive_residuals(c, row):
    """k |alpha_k|^2 = k (1 - d_{k+1}^2 / d_k^2) for exp(-c/t) at k = 10,
    40, 160 and 640, from one curve (ROADMAP item 14): the value, moved
    by its first-order error from both records, rounds to the digits
    shown."""
    ks = [10, 40, 160, 640]
    d = {r.N: r for r in _prediction(make_exp_weight(c),
                                     sorted(ks + [k + 1 for k in ks]))}
    for k, pinned in zip(ks, row):
        lo, hi = d[k], d[k + 1]
        q = (hi.residual / lo.residual) ** 2
        error = 2 * k * q * (hi.residual_error / hi.residual
                             + lo.residual_error / lo.residual)
        for value in (k * (1.0 - q) - error, k * (1.0 - q) + error):
            assert round(value, 4) == pinned, (k, value)
