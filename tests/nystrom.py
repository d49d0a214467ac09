"""Gauss-Legendre Nystrom oracle for the continuous Gaussian smoothing operator."""

import numpy as np


def gaussian_nystrom_spectrum(n_nodes: int, sigma: float) -> np.ndarray:
    """Descending eigenvalues of the integral operator
    (K f)(x) = int_0^1 exp(-(x-y)^2 / (2 sigma^2)) f(y) dy,
    by Gauss-Legendre Nystrom discretization (symmetrized W^1/2 K W^1/2)."""
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    x, w = 0.5 * (t + 1.0), 0.5 * w
    kernel = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * sigma * sigma))
    root = np.sqrt(w)
    return np.linalg.eigvalsh(root[:, None] * kernel * root[None, :])[::-1]
