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
"""

import numpy as np
import pytest

from szegolab import probe

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
@pytest.mark.parametrize("N", [100, 800])
def test_bernstein_szego_weight_has_unit_distances(N, zeta, rule):
    """d_k^2 = 1 and alpha_k = 0 for k >= 1, within 4 N eps (the worst
    measured is 0.045 N eps).  d_0^2 is the rule's integral of w itself,
    which a peak of width about zeta - 1 makes the smaller rule miss at
    small N, so it is not pinned here."""
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
