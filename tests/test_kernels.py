"""The numpy kernels against one-shot products and exact zeros."""

import os
import subprocess
import sys

import numpy as np

from szegolab import _accel


def test_sine_series_blocks_match_one_shot_product():
    """The blocked numpy kernel equals the one-shot (points x terms) product
    bit for bit: with a block count that is not whole, on no points, and
    where the last block would hold one row (four draws, since a one-row
    product rounds differently from the one-shot product only at random).
    BLAS runs on one thread, so the one-shot product is one matrix-vector
    call whose rounding does not depend on a thread split."""
    code = (
        "import numpy as np\n"
        "from szegolab import _accel\n"
        "rng = np.random.default_rng(5)\n"
        "coeffs = rng.normal(size=21)\n"
        "freqs = (2.0 * np.arange(21) + 1.0) ** 2\n"
        "for n in (100003, 0) + (_accel._SINE_BLOCK_ROWS + 1,) * 4:\n"
        "    t = rng.uniform(0.0, 1.0, n)\n"
        "    ref = np.sin(2.0 * np.pi * t[:, None] * freqs[None, :]) @ coeffs\n"
        "    got = _accel.sine_series(t, coeffs, freqs)\n"
        "    assert got.shape == ref.shape == (n,)\n"
        "    assert np.array_equal(got, ref), n\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
