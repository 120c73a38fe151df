"""Hot numeric kernels, vectorized with numpy."""

import numpy as np

__all__ = [
    "boundary_product",
    "interior_log_product",
    "sine_series",
]

_SINE_BLOCK_ROWS = 1 << 15   # rows of t per (rows x terms) phase block
_PHASE_BLOCK = 1 << 17        # entries of one (points x gammas) arctan block


def boundary_product(tau, gammas):
    """phi_+ on the slit: tau^2/(1+i sqrt(tau))^8 * prod (1-i r)/(1+i r).

    tau = |t| for t <= 0; the prefactor is the limit of z^2/(1+sqrt z)^8
    from the upper side, where z^2 -> t^2 > 0.  It is evaluated in phase
    form: (1+i sqrt(tau))^8 = (1+tau)^4 exp(8i arctan sqrt(tau)), and each
    factor, with r = sqrt(tau/g), is exp(-2i arctan r), so
    phi_+ = tau^2/(1+tau)^4 * exp(-i(8 arctan sqrt(tau) + 2 sum arctan r)):
    real arctangents, summed in blocks of points that stay in cache, and
    one complex exponential per point.
    """
    tau = np.ascontiguousarray(tau, dtype=np.float64)
    inv_root = 1.0 / np.sqrt(np.ascontiguousarray(gammas, dtype=np.float64))
    root = np.sqrt(tau)
    arcs = np.zeros(tau.size)
    rows = max(1, _PHASE_BLOCK // max(inv_root.size, 1))
    buf = np.empty((min(rows, tau.size), inv_root.size))
    for lo in range(0, tau.size, rows):
        block = buf[:min(rows, tau.size - lo)]
        np.multiply.outer(root[lo:lo + rows], inv_root, out=block)
        np.arctan(block, out=block)
        block.sum(axis=1, out=arcs[lo:lo + rows])
    phase = 8.0 * np.arctan(root) + 2.0 * arcs
    return (tau * tau) / (1.0 + tau) ** 4 * np.exp(-1j * phase)


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
