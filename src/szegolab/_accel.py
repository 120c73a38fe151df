"""Hot numeric kernels, vectorized with numpy."""

import numpy as np

__all__ = [
    "boundary_product",
    "interior_log_product",
    "sine_series",
]

_SINE_BLOCK_ROWS = 1 << 15   # rows of t per (rows x terms) phase block


def boundary_product(tau, gammas):
    """phi_+ on the slit: tau^2/(1+i sqrt(tau))^8 * prod (1-i r)/(1+i r).

    tau = |t| for t <= 0; the prefactor is the limit of z^2/(1+sqrt z)^8
    from the upper side, where z^2 -> t^2 > 0.
    """
    tau = np.ascontiguousarray(tau, dtype=np.float64)
    gammas = np.ascontiguousarray(gammas, dtype=np.float64)
    r = 1j * np.sqrt(tau[:, None] / gammas[None, :])
    prod = np.prod((1.0 - r) / (1.0 + r), axis=1)
    s = 1j * np.sqrt(tau)
    return (tau * tau) / (1.0 + s) ** 8 * prod


def interior_log_product(z, gammas):
    """Sum of log((1-sqrt(z/g))/(1+sqrt(z/g))) over g; -inf marks an exact zero."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    gammas = np.ascontiguousarray(gammas, dtype=np.float64)
    r = np.sqrt(z[:, None] / gammas[None, :])
    num = 1.0 - r
    zero = np.any(num == 0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(num / (1.0 + r)).sum(axis=1)
    logs[zero] = -np.inf
    return logs


def sine_series(t, coeffs, freqs):
    """Partial sum  sum_k coeffs[k]*sin(2*pi*freqs[k]*t)  on an array of t."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    out = np.empty(t.size, dtype=np.float64)
    # a one-row block would be a dot product, which rounds differently from
    # the matrix-vector product; it joins the block before it
    starts = list(range(0, max(t.size - 1, 1), _SINE_BLOCK_ROWS))
    for lo, hi in zip(starts, starts[1:] + [t.size]):
        ph = np.multiply.outer(2.0 * np.pi * t[lo:hi], freqs)
        np.sin(ph, out=ph)
        np.matmul(ph, coeffs, out=out[lo:hi])
    return out
