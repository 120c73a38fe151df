"""Parity between the accelerated kernels and the pure-numpy fallback."""

import os
import subprocess
import sys

import numpy as np

from szegolab import _accel


def _sample_inputs():
    rng = np.random.default_rng(11)
    tau = rng.uniform(1e-3, 1e3, 64)
    gammas = np.cumsum(rng.uniform(1.0, 20.0, 30))
    z = rng.uniform(-5, 5, 32) + 1j * rng.uniform(0.1, 5, 32)
    t = rng.uniform(0, 1, 128)
    coeffs = rng.normal(size=12)
    freqs = np.arange(1, 13, dtype=np.float64) ** 2
    return tau, gammas, z, t, coeffs, freqs


def test_dispatch_matches_numpy_reference():
    tau, gammas, z, t, coeffs, freqs = _sample_inputs()
    assert np.allclose(_accel.boundary_product(tau, gammas),
                       _accel._boundary_product_np(tau, gammas),
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(_accel.interior_log_product(z, gammas),
                       _accel._interior_log_product_np(z, gammas),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(_accel.sine_series(t, coeffs, freqs),
                       _accel._sine_series_np(t, coeffs, freqs),
                       rtol=1e-12, atol=1e-13)


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
        "    got = _accel._sine_series_np(t, coeffs, freqs)\n"
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


def test_fallback_path_subprocess():
    """The numpy-only path must import and agree with the active path."""
    code = (
        "import numpy as np\n"
        "from szegolab import _accel\n"
        "assert not _accel.USING_NUMBA\n"
        "tau = np.linspace(0.5, 50, 16)\n"
        "g = np.array([1.0, 8.0, 27.0])\n"
        "v = _accel.boundary_product(tau, g)\n"
        "print(repr(complex(v.sum())))\n"
    )
    env = dict(os.environ, SZEGO_NO_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    reported = complex(out.stdout.strip())
    tau = np.linspace(0.5, 50, 16)
    g = np.array([1.0, 8.0, 27.0])
    local = complex(_accel.boundary_product(tau, g).sum())
    assert abs(reported - local) < 1e-12 * max(abs(local), 1.0)
