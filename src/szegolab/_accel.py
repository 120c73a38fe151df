"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The fallback is selected automatically when numba is unavailable, or
explicitly by setting the environment variable ``SZEGO_NO_NUMBA=1``.
``tests/test_kernels.py`` checks that the two paths agree.
"""

import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "boundary_product",
    "interior_log_product",
    "sine_series",
]


def _boundary_product_np(tau, gammas):
    tau = np.asarray(tau, dtype=np.float64)
    r = 1j * np.sqrt(tau[:, None] / gammas[None, :])
    prod = np.prod((1.0 - r) / (1.0 + r), axis=1)
    s = 1j * np.sqrt(tau)
    return (tau * tau) / (1.0 + s) ** 8 * prod


def _interior_log_product_np(z, gammas):
    z = np.asarray(z, dtype=np.complex128)
    r = np.sqrt(z[:, None] / gammas[None, :])
    num = 1.0 - r
    zero = np.any(num == 0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(num / (1.0 + r)).sum(axis=1)
    logs[zero] = -np.inf
    return logs


_SINE_BLOCK_ROWS = 1 << 15   # rows of t per (rows x terms) phase block


def _sine_series_np(t, coeffs, freqs):
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.size, dtype=np.float64)
    # a one-row block would be a dot product, which rounds differently from
    # the matrix-vector product; it joins the block before it
    starts = list(range(0, max(t.size - 1, 1), _SINE_BLOCK_ROWS))
    for lo, hi in zip(starts, starts[1:] + [t.size]):
        ph = np.multiply.outer(2.0 * np.pi * t[lo:hi], freqs)
        np.sin(ph, out=ph)
        np.matmul(ph, coeffs, out=out[lo:hi])
    return out


_want_numba = os.environ.get("SZEGO_NO_NUMBA", "") not in ("1", "true", "yes")
USING_NUMBA = False

if _want_numba:
    try:
        from numba import njit

        @njit(cache=True)
        def _boundary_product_nb(tau, gammas):
            out = np.empty(tau.size, np.complex128)
            for i in range(tau.size):
                t = tau[i]
                s = 1j * np.sqrt(t)
                v = (t * t) / (1.0 + s) ** 8
                for g in gammas:
                    r = 1j * np.sqrt(t / g)
                    v *= (1.0 - r) / (1.0 + r)
                out[i] = v
            return out

        @njit(cache=True)
        def _interior_log_product_nb(z, gammas):
            out = np.empty(z.size, np.complex128)
            for i in range(z.size):
                acc = 0.0 + 0.0j
                for g in gammas:
                    r = np.sqrt(z[i] / g)
                    num = 1.0 - r
                    if num == 0:
                        acc = complex(-np.inf, 0.0)
                        break
                    acc += np.log(num / (1.0 + r))
                out[i] = acc
            return out

        @njit(cache=True)
        def _sine_series_nb(t, coeffs, freqs):
            out = np.empty(t.size, np.float64)
            for i in range(t.size):
                s = 0.0
                for k in range(coeffs.size):
                    s += coeffs[k] * np.sin(2.0 * np.pi * freqs[k] * t[i])
                out[i] = s
            return out

        USING_NUMBA = True
    except ImportError:
        pass


def boundary_product(tau, gammas):
    """phi_+ on the slit: tau^2/(1+i sqrt(tau))^8 * prod (1-i r)/(1+i r).

    tau = |t| for t <= 0; the prefactor is the limit of z^2/(1+sqrt z)^8
    from the upper side, where z^2 -> t^2 > 0.
    """
    tau = np.ascontiguousarray(tau, dtype=np.float64)
    gammas = np.ascontiguousarray(gammas, dtype=np.float64)
    if USING_NUMBA:
        return _boundary_product_nb(tau, gammas)
    return _boundary_product_np(tau, gammas)


def interior_log_product(z, gammas):
    """Sum of log((1-sqrt(z/g))/(1+sqrt(z/g))) over g; -inf marks an exact zero."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    gammas = np.ascontiguousarray(gammas, dtype=np.float64)
    if USING_NUMBA:
        return _interior_log_product_nb(z, gammas)
    return _interior_log_product_np(z, gammas)


def sine_series(t, coeffs, freqs):
    """Partial sum  sum_k coeffs[k]*sin(2*pi*freqs[k]*t)  on an array of t."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    if USING_NUMBA:
        return _sine_series_nb(t, coeffs, freqs)
    return _sine_series_np(t, coeffs, freqs)
