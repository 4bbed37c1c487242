"""Independent reference solvers that only the tests use."""

import math

import numpy as np

from fraclat.extension import _shifted
from fraclat.lattice import _axis_sum
from fraclat.specfun import bessel_i_scaled


def recover_tikhonov(A, g, lam, P):
    """Minimizer of ||A f - g||^2 + lam * f' P f.

    Stacks A over sqrt(lam) chol(P) and solves one least squares problem
    (conditioning kappa, not kappa^2; required for the noiseless regime where
    lam must sit below sigma_min^2 ~ 1e-13).  It shares no factorization with
    the library's standard form, so it checks that route independently.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    L = np.linalg.cholesky(P).T
    aug = np.vstack([A, math.sqrt(lam) * L])
    rhs = np.concatenate([g, np.zeros(A.shape[1])])
    return np.linalg.lstsq(aug, rhs, rcond=None)[0]


def dft(v):
    """Normalized DFT: u_hat_m = (2N+1)^{-d} sum_j u_j e^{-2 pi i m.j/(2N+1)},
    both indices running over {-N..N}^d."""
    axes = tuple(range(v.d))
    hat = np.fft.fftn(np.roll(v.values, -v.N, axis=axes)) / v.n ** v.d
    return np.roll(hat, v.N, axis=axes)


def idft(coeffs, N, d):
    """Inverse of :func:`dft`; returns the complex value array in {-N..N} order.

    The first d axes are the frequencies; trailing axes are a batch.
    """
    n = 2 * N + 1
    axes = tuple(range(d))
    rolled = np.roll(coeffs, -N, axis=axes)
    vals = np.fft.ifftn(rolled, axes=axes) * n ** d
    return np.roll(vals, N, axis=axes)


def heat_kernel(m, t):
    """Semidiscrete heat kernel G(m, t) = e^{-2dt} prod_i I_{m_i}(2t), in [0,1]."""
    if t < 0.0:
        raise ValueError("heat_kernel requires t >= 0")
    val = 1.0
    for mi in np.atleast_1d(m):
        val *= bessel_i_scaled(int(mi), 2.0 * t)
    return val


def conjugated_laplacian(cfg, x, lo):
    """e^{tau phi} Lap_d (e^{-tau phi} x) on the inner box of x, whose index 0
    is the lattice point lo and whose outer layer is zero: the plain
    Laplacian of the weighted field by slices, not the stencils."""
    d, inner = x.ndim, (slice(1, -1),) * x.ndim
    r2 = _axis_sum([((lo[k] + np.arange(x.shape[k])) * cfg.h) ** 2 for k in range(d)])
    nz = x != 0.0
    u = np.zeros_like(x)
    u[nz] = np.exp(cfg.tau * r2[nz]) * x[nz]  # exp only where v lives: no inf * 0
    lap = sum(u[_shifted(d, k, slice(2, None))] + u[_shifted(d, k, slice(None, -2))]
              - 2.0 * u[inner] for k in range(d))
    lap *= np.exp(-cfg.tau * r2[inner]) / (cfg.h * cfg.h)
    return lap
