"""Recovering f supported in W from its half-Laplacian sampled on Omega.

The forward map restricted to index sets W, Omega of the discrete torus is
a small dense matrix of (negatives of) periodized kernel values.  The
problem is severely ill-posed as the sets separate; recovery uses Tikhonov
regularization with an H^1 Gram penalty on W (a real-space form), the
regularization strength chosen by the discrepancy principle.  Each setup is
prepared once, read-only, for the noise sweep and the noiseless run alike
(_prepared).  A seeded noise sweep produces a stability curve whose
error-versus-|log(data ratio)| slope is fitted in log-log coordinates.
"""

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from .kernel import _CACHE_SIZE, torus_kernel_table
from .lattice import TorusFunction, apply_frac_torus_spectral


@dataclass(frozen=True)
class InverseSetup:
    """Torus size, support set W, measurement set Omega, and the seed.

    The problem is posed for the half-Laplacian, s = 1/2.
    """

    N: int
    W: tuple
    Omega: tuple
    seed: int = 0

    def __post_init__(self):
        W = tuple(int(w) for w in self.W)
        Om = tuple(int(o) for o in self.Omega)
        if not W or not Om:
            raise ValueError("W and Omega must be nonempty")
        for name, pts in (("W", W), ("Omega", Om)):
            if len(set(pts)) != len(pts):
                raise ValueError(f"{name} contains repeated points")
        if set(W) & set(Om):
            raise ValueError("W and Omega must be disjoint")
        if any(not -self.N <= x <= self.N for x in W + Om):
            raise ValueError("W and Omega must lie in {-N..N}")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Omega", Om)

    @property
    def h(self):
        return 2.0 * math.pi / (2 * self.N + 1)


@dataclass(frozen=True)
class StabilityCurve:
    """Noise sweep record: (eps, recovery error, data ratio) triples plus the
    fitted log-modulus exponent and constant."""

    points: list
    fitted_nu: float
    fitted_C: float
    r_squared: float
    extras: dict = field(default_factory=dict)

    def to_json(self, setup):
        return json.dumps({
            "points": [list(p) for p in self.points],
            "fitted_nu": self.fitted_nu, "fitted_C": self.fitted_C, "r_squared": self.r_squared,
            "N": setup.N, "W": list(setup.W), "Omega": list(setup.Omega), "seed": setup.seed,
        }, sort_keys=True)


def h1_gram(N, W):
    """H^1(W) Gram matrix h (I + D'D) of the delta basis on W, with D the
    symmetric difference (v_{j+1} - v_{j-1}) / (2h) on the torus: h + 1/(2h)
    on the diagonal, -1/(4h) at offsets = +-2 mod n, 0 elsewhere."""
    n = 2 * N + 1
    h = 2.0 * math.pi / n
    off = np.subtract.outer(W, W) % n
    return np.where(off == 0, h + 0.5 / h,
                    np.where((off == 2) | (off == n - 2), -0.25 / h, 0.0))


def forward_matrix(setup):
    """|Omega| x |W| map: column w holds the operator of delta_w on Omega.

    Entries are -K^A(omega - w) (the sets are disjoint, so the diagonal
    never appears).  Every column is verified against the spectral
    application: the operator commutes with shifts, so one spectral result
    for delta_0, read at (omega - w) mod n, holds them all.
    """
    N = setup.N
    table = torus_kernel_table(0.5, N, 1, tol=1e-13)
    offsets = np.subtract.outer(setup.Omega, setup.W)
    A = -table.value(offsets[..., None])
    delta = TorusFunction(N, 1, np.arange(-N, N + 1) == 0)
    ref = apply_frac_torus_spectral(delta, 0.5).values
    if np.abs(A - ref[(offsets + N) % (2 * N + 1)]).max() > 1e-10:
        raise AssertionError("forward matrix column disagrees with the spectral route")
    return A


class LambdaRangeError(RuntimeError):
    """The discrepancy target is not bracketed by the lambda search range."""


def _standard_form(A, P):
    """Factors of ||A f - g||^2 + lam f'P f in standard form.

    With P = L'L and A L^{-1} = U diag(sigma) V' (U square), the minimizer is
    f_lam = L^{-1} V diag(sigma / (sigma^2 + lam)) beta with beta = U_1'g,
    where U_1 holds the first len(sigma) columns of U.  Returns
    (L^{-1} V, U, sigma).
    """
    L = np.linalg.cholesky(P).T
    U, sigma, Vt = np.linalg.svd(scipy.linalg.solve_triangular(L, A.T, trans="T").T)
    return scipy.linalg.solve_triangular(L, Vt[:sigma.size].T), U, sigma


@lru_cache(maxsize=_CACHE_SIZE)
def _prepared(setup):
    """(A, P, factors, ||A||_2) of a setup, built once and read-only: the
    forward matrix, the H^1 Gram matrix on W, the factors of
    :func:`_standard_form` and the spectral norm of A."""
    A = forward_matrix(setup)
    P = h1_gram(setup.N, setup.W)
    factors = _standard_form(A, P)
    for arr in (A, P) + factors:
        arr.flags.writeable = False
    return A, P, factors, float(np.linalg.norm(A, 2))


def _solve(factors, g, lam):
    """Minimizers f_lam for each data vector in g (..., m) and lambda in lam (...)."""
    linv_v, U, sigma = factors
    lam = np.asarray(lam, dtype=float)[..., None]
    return (sigma / (sigma * sigma + lam) * (g @ U[:, :sigma.size])) @ linv_v.T


def _discrepancy_residual(log_lam, beta, sigma2, perp2):
    # R = ||A f_lam - g||^2 in standard form and dR/dlog(lam), for each
    # log(lambda) in the batch: r_i = q_i beta_i with q_i = lam / (sigma_i^2 + lam),
    # and dr_i/dlog(lam) = q_i (1 - q_i) beta_i
    lam = np.exp(log_lam)[..., None]
    r2 = (lam * beta / (sigma2 + lam)) ** 2
    return np.sum(r2, axis=-1) + perp2, 2.0 * np.sum(r2 * (sigma2 / (sigma2 + lam)), axis=-1)


def _discrepancy_roots(norm_a, factors, g, target):
    """Lambda with ||A f_lambda - g|| = target (the residual is monotone in
    lambda), on the factors of :func:`_standard_form`.

    g may hold a batch of data vectors, shape (..., m), with target of shape
    (...); every root is found at once and an array of lambdas returned
    (a float for a single g).  norm_a is ||A||_2.  Raises LambdaRangeError
    naming the first entry whose target the range [1e-16 ||A||_2^2, 1e8]
    does not bracket.
    The floor scales with the problem, as in
    :func:`noiseless_recovery_error`; noise nearly orthogonal to the range
    of A can put the root below a fixed floor.

    The residual comes from the standard form:
    R = ||A f_lam - g||^2 = sum (lam beta_i / (sigma_i^2 + lam))^2 + ||U_perp'g||^2,
    the second term from the complementary columns of U, not from
    ||g||^2 - ||beta||^2, so nothing cancels.

    Each root is a Newton iteration on F = log R - log target^2 in
    u = log(lam), with dR/du = 2 sum r_i^2 (1 - q_i), q_i = lam / (sigma_i^2 + lam).
    It starts at the midpoint of the bracket, which every evaluation narrows.
    It bisects the bracket whenever a Newton step would leave it, and after
    an overshoot (F changed sign) that did not halve |F|: there the bracket
    is the last two iterates, and Newton alone can fall into a 2-cycle.  An
    entry is frozen once F = 0 or its Newton step is at most 2 ulp of u;
    later bisection steps would pull it off its converged value.  120 steps
    are the cap.
    """
    _, U, sigma = factors
    proj = np.asarray(g, dtype=float) @ U
    beta = proj[..., :sigma.size]
    perp2 = np.sum(proj[..., sigma.size:] ** 2, axis=-1)
    sigma2 = sigma * sigma
    target = np.broadcast_to(np.asarray(target, dtype=float), perp2.shape)

    lo = np.full(perp2.shape, math.log(1e-16 * norm_a ** 2))
    hi = np.full(perp2.shape, math.log(1e8))
    r_lo, r_hi = (np.sqrt(_discrepancy_residual(x, beta, sigma2, perp2)[0]) for x in (lo, hi))
    bad = ~((r_lo <= target) & (target <= r_hi))
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f" at entry {idx}" if idx else ""
        raise LambdaRangeError(
            f"target residual {target[idx]:.3e}{where} outside "
            f"[{r_lo[idx]:.3e}, {r_hi[idx]:.3e}]")

    # iterate on the flat batch, restricted to the entries still moving
    shape = perp2.shape
    lo, hi = lo.ravel(), hi.ravel()
    beta, perp2 = beta.reshape(-1, sigma.size), perp2.ravel()
    log_t2 = 2.0 * np.log(target.ravel())
    u = 0.5 * (lo + hi)
    f_prev = np.full(u.size, np.inf)
    live = np.arange(u.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(120):
            if live.size == 0:
                break
            x = u[live]
            R, dR = _discrepancy_residual(x, beta[live], sigma2, perp2[live])
            f = np.log(R) - log_t2[live]
            a = np.where(f < 0.0, x, lo[live])
            b = np.where(f > 0.0, x, hi[live])
            step = x - f * R / dR
            moving = (f != 0.0) & (np.abs(step - x) > 2.0 * np.spacing(np.abs(x)))
            stalled = (f * f_prev[live] < 0.0) & (np.abs(f) > 0.5 * np.abs(f_prev[live]))
            newton = ~moving | ((a < step) & (step < b) & ~stalled)
            lo[live], hi[live], f_prev[live] = a, b, f
            u[live] = np.where(newton, step, 0.5 * (a + b))
            live = live[moving]
    lam = np.exp(u).reshape(shape)
    return float(lam) if lam.ndim == 0 else lam


def _draw_f(rng, P):
    f = rng.standard_normal(P.shape[0])
    return f / math.sqrt(float(f @ P @ f))


def noiseless_recovery_error(setup):
    """Mean L2(W) recovery error for exact data at vanishing regularization,
    over five trials.

    The floor lam = 1e-16 ||A||^2 keeps every singular direction of this
    finite-dimensional (hence well-posed) section alive.  Every trial is
    solved at once on the prepared standard form (:func:`_prepared`); trial
    t draws its truth from the generator seeded by ``seed XOR (t + 1)``.
    """
    A, P, factors, norm_a = _prepared(setup)
    f_true = np.array([_draw_f(np.random.default_rng(setup.seed ^ (t + 1)), P)
                       for t in range(5)])
    f_hat = _solve(factors, f_true @ A.T, 1e-16 * norm_a ** 2)
    return float(np.mean(math.sqrt(setup.h) * np.linalg.norm(f_hat - f_true, axis=-1)))


def _sweep_data(setup, A, P, eps, trials):
    """Truths f (T, |W|), exact data g0 (T, |Omega|) and noisy data
    g (E, T, |Omega|) of a noise sweep; trial t draws from the generator
    seeded by ``seed XOR (t + 1)``."""
    f_true, g0, eta = [], [], []
    for t in range(trials):
        rng = np.random.default_rng(setup.seed ^ (t + 1))
        f = _draw_f(rng, P)
        g = A @ f
        e = rng.standard_normal(g.size)
        e *= float(np.linalg.norm(g)) / float(np.linalg.norm(e))
        f_true.append(f)
        g0.append(g)
        eta.append(e)
    g0 = np.array(g0)
    return np.array(f_true), g0, g0 + np.asarray(eps)[:, None, None] * np.array(eta)


def stability_sweep(setup, eps_list, trials=10):
    """Noise sweep: seeded H^1-normalized truths, relative Gaussian noise,
    discrepancy-principle regularization, and a log-log stability fit.

    Each trial t owns the generator seeded by ``seed XOR (t + 1)``, so
    results do not depend on evaluation order.  The fit needs at least two
    eps.  All (eps, trial) roots are found by one batched Newton iteration
    on the prepared standard form of the problem (:func:`_prepared`), whose
    factors the roots and the solves share.  Returns a StabilityCurve with
    points (eps, mean L2(W) recovery error, mean data ratio); its extras
    carry the per-eps error spread, the chosen lambdas (eps x trial) and the
    singular values of A L^{-1} (P = L'L), whose staircase the recovery
    error follows.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 2:
        raise ValueError(f"eps: the stability fit needs at least two values, got {len(eps)}")
    if any(not 0.0 < e < 1.0 for e in eps):
        raise ValueError("eps values must lie in (0,1)")
    if any(eps[i] <= eps[i + 1] for i in range(len(eps) - 1)):
        raise ValueError("eps_list must be strictly decreasing")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    A, P, factors, norm_a = _prepared(setup)
    f_true, g0, g = _sweep_data(setup, A, P, eps, trials)
    e_col = np.array(eps)[:, None]
    lambdas = _discrepancy_roots(norm_a, factors, g, e_col * np.linalg.norm(g, axis=-1))
    f_hat = _solve(factors, g, lambdas)
    sigma = factors[2]
    errors = math.sqrt(setup.h) * np.linalg.norm(f_hat - f_true, axis=-1)
    ratios = e_col * np.linalg.norm(g0, axis=-1)
    err_mean = errors.mean(axis=1)
    err_std = errors.std(axis=1)
    ratio_mean = ratios.mean(axis=1)
    x = np.log(np.abs(np.log(ratio_mean)))
    y = np.log(err_mean)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    points = [(eps[i], float(err_mean[i]), float(ratio_mean[i]))
              for i in range(len(eps))]
    return StabilityCurve(
        points=points,
        fitted_nu=float(-slope),
        fitted_C=float(math.exp(intercept)),
        r_squared=r2,
        extras={"err_std": err_std.tolist(),
                "lambda_geomean": np.exp(np.log(lambdas).mean(axis=1)).tolist(),
                "lambda": lambdas.tolist(),
                "singular_values": sigma.tolist()},
    )


def stability_bound(eps, h, nu, C, f_h1):
    """Two-term logarithmic stability bound:
    C |log eps|^{-nu} f_h1 + C exp(-(C h)^{-1} |log eps|^{-1+nu}) f_h1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    if h <= 0.0:
        raise ValueError("h must be positive")
    le = abs(math.log(eps))
    return C * f_h1 * le ** (-nu) + C * f_h1 * math.exp(-(le ** (nu - 1.0)) / (C * h))


def continuum_regime(h0, eps, nu, C):
    """Whether h0 <= 10^{-1} |log eps|^{-1+nu} |log(-C log eps)|^{-1}."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    y = -C * math.log(eps)
    if y <= 1.0:
        raise ValueError("-C log(eps) must exceed 1 for the nested logarithm")
    rhs = 0.1 * abs(math.log(eps)) ** (nu - 1.0) / abs(math.log(y))
    return h0 <= rhs
