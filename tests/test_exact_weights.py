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
"""

import numpy as np
import pytest

from szegolab import probe
from szegolab.frequency_sets import complement_in_range, gen_power_set
from szegolab.probe import ProbeConfig, TrigPolyTarget, residual_curve

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
