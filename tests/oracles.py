"""Independent reference solvers that only the tests use."""

import math

import numpy as np


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
