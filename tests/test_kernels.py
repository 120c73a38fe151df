"""The numpy kernels against one-shot products and exact zeros."""

import numpy as np

from szegolab import _accel


def test_sine_series_blocks_match_one_shot_product():
    """The blocked kernel equals the one-shot (points x terms) row sum bit
    for bit: with a block count that is not whole, on no points, and where
    the last block holds one row."""
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=21)
    freqs = (2.0 * np.arange(21) + 1.0) ** 2
    for n in (100003, 0, _accel._SINE_BLOCK_ROWS + 1):
        t = rng.uniform(0.0, 1.0, n)
        ref = (np.sin(2.0 * np.pi * t[:, None] * freqs[None, :])
               * coeffs).sum(axis=1)
        got = _accel.sine_series(t, coeffs, freqs)
        assert got.shape == ref.shape == (n,)
        assert np.array_equal(got, ref), n


def test_sine_series_value_does_not_depend_on_the_batch():
    """A point's value has the same bits alone, in a shifted batch and in
    any split of the batch, for short and long series."""
    rng = np.random.default_rng(9)
    t = rng.uniform(0.0, 1.0, 70001)
    for M in (7, 20, 40):
        coeffs = rng.normal(size=M + 1)
        freqs = (2.0 * np.arange(M + 1) + 1.0) ** 2
        full = _accel.sine_series(t, coeffs, freqs)
        for i in (0, 1, 2, 12345, 70000):
            assert _accel.sine_series(t[i:i + 1], coeffs, freqs)[0] == full[i]
        assert np.array_equal(_accel.sine_series(t[3:], coeffs, freqs),
                              full[3:])
        parts = [_accel.sine_series(t[lo:hi], coeffs, freqs)
                 for lo, hi in ((0, 1), (1, 3), (3, 8), (8, t.size))]
        assert np.array_equal(np.concatenate(parts), full)


def test_exact_zero_marker():
    gammas = np.array([4.0, 9.0])
    logs = _accel.interior_log_product(np.array([4.0 + 0j]), gammas)
    assert np.isneginf(logs.real[0])


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
        got = _accel.boundary_product(tau, gammas)
        ref = _boundary_product_oracle(tau, gammas)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
    at_zero = _accel.boundary_product(np.array([0.0, 0.0]), gammas)
    assert np.array_equal(at_zero, np.zeros(2, dtype=np.complex128))
    # no gammas: the prefactor alone, unimodular phase times tau^2/(1+tau)^4
    tau = np.geomspace(1e-6, 1e6, 50)
    got = _accel.boundary_product(tau, np.array([]))
    ref = tau ** 2 / (1.0 + 1j * np.sqrt(tau)) ** 8
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
