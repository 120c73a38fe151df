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
