"""Semidiscrete extension of torus data and its unique-continuation probes.

For trace data v on the discrete torus, the degenerate-elliptic extension
problem  (d_t t^{1-2s} d_t + t^{1-2s} Lap) u~ = 0, u~(.,0) = v  separates
over Fourier modes: the mode with operator eigenvalue lam evolves as
theta_s(sqrt(lam) t) where theta_s(x) = 2^{1-s} x^s K_s(x) / Gamma(s).
The weighted Neumann trace -lim t^{1-2s} d_t u~ then recovers the
fractional Laplacian of v up to the explicit constant
Gamma(1-s) / (4^{s-1/2} Gamma(s)).

The Carleman block implements the cosh/sinh conjugated tangential
operators of the quadratic pseudoconvex weight, the exact commutator
identity they satisfy, and numerical probes of the weighted inequality and
of the boundary-bulk interpolation inequality for s = 1/2.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .lattice import (
    LatticeFunction,
    TorusFunction,
    _torus_multiplier,
    dft,
    idft,
)
from .specfun import log_abs_gamma_neg, log_gamma


class GridTooCoarseError(RuntimeError):
    """The t-grid does not resolve the t^{2s} boundary layer."""


# --- per-mode profile ----------------------------------------------------------


def _theta(s, x):
    # 2^{1-s} x^s K_s(x) / Gamma(s) on an array x >= 0; theta(0) = 1,
    # decreasing to 0.  Below 1e-5 the two-term series at the origin, above
    # 700 exactly 0 (the value is below 1e-300 there).
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise ValueError("theta requires x >= 0")
    out = np.zeros(x.shape)
    small = x < 1e-5
    mid = ~small & (x <= 700.0)
    xs = x[small]
    c1 = -math.exp(log_abs_gamma_neg(s) - log_gamma(s) - s * math.log(4.0))
    x2 = 0.25 * xs * xs
    out[small] = 1.0 + x2 / (1.0 - s) + c1 * xs ** (2.0 * s) * (1.0 + x2 / (1.0 + s))
    xm = x[mid]
    pref = np.exp((1.0 - s) * math.log(2.0) + s * np.log(xm) - log_gamma(s))
    out[mid] = pref * special.kv(s, xm)
    return out


def extension_profile(s, x):
    """Normalized per-mode extension profile theta_s(x); theta_s(0) = 1."""
    if not 0.0 < s < 1.0:
        raise ValueError("extension_profile requires s in (0,1)")
    return float(_theta(s, float(x)))


def make_t_grid(t_min=1e-8, t_max=4.0, ratio=1.05):
    """Geometric grid resolving the t^{2s} layer at 0 and the far decay."""
    if not (0.0 < t_min < t_max and ratio > 1.0):
        raise ValueError("need 0 < t_min < t_max and ratio > 1")
    npts = int(math.ceil(math.log(t_max / t_min) / math.log(ratio))) + 1
    return t_min * ratio ** np.arange(npts)


@dataclass(frozen=True)
class ExtensionField:
    """Extension values over (torus points) x t_grid; trace is ``base``."""

    base: TorusFunction
    s: float
    t_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        expect = self.base.values.shape + (len(self.t_grid),)
        if self.values.shape != expect:
            raise ValueError(f"field shape {self.values.shape}, expected {expect}")

    def level(self, it):
        return self.values[..., it]


def cs_extend_torus(v, s, t_grid):
    """Solve the extension problem over the torus per Fourier mode.

    Mode k with multiplier lam_k evolves as theta_s(sqrt(lam_k) t); the
    zero mode is constant in t.  Exact up to the profile evaluation.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("cs_extend_torus requires s in (0,1)")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0) or t[0] <= 0:
        raise ValueError("t_grid must be strictly increasing and positive")
    lam = _torus_multiplier(v.N, v.d, v.h, 1.0)  # Laplacian eigenvalues
    sq = np.sqrt(lam)
    uniq, inv = np.unique(np.round(sq, 15), return_inverse=True)
    theta = _theta(s, uniq[:, None] * t)[inv].reshape(sq.shape + (t.size,))
    out = np.real(idft(dft(v)[..., None] * theta, v.N, v.d))
    return ExtensionField(v, s, t, out)


def neumann_constant(s):
    """Dirichlet-to-Neumann constant Gamma(1-s) / (4^{s-1/2} Gamma(s))."""
    return math.exp(log_gamma(1.0 - s) - (s - 0.5) * math.log(4.0) - log_gamma(s))


def neumann_trace(field, fit_points=12, check_rtol=1e-3):
    """Estimate -lim_{t->0} t^{1-2s} d_t u~ from the boundary layer.

    Fits u~_j(t) = u_j + beta_j t^{2s} over the first ``fit_points`` grid
    levels and returns -2s beta as a torus function.  Raises
    GridTooCoarseError if the grid starts above 1e-4 or the fit does not
    represent the layer; asserts agreement with the spectral value
    d_s (-Lap)^s u within check_rtol (sup norm, relative to the result
    scale) unless check_rtol is None.
    """
    s = field.s
    t = field.t_grid
    if t[0] > 1e-4:
        raise GridTooCoarseError("t_grid must start at or below 1e-4")
    k = int(fit_points)
    if not 2 <= k <= t.size:
        raise ValueError("fit_points out of range")
    x = t[:k] ** (2.0 * s)
    diff = field.values[..., :k] - field.base.values[..., None]
    denom = float(np.sum(x * x))
    beta = np.tensordot(diff, x, axes=([-1], [0])) / denom
    est = -2.0 * s * beta
    resid = diff - beta[..., None] * x
    scale = float(np.max(np.abs(diff)))
    base_scale = float(np.abs(field.base.values).max()) + 1e-300
    if scale <= 1e-12 * base_scale:
        # numerically absent boundary layer: the trace is zero and the fit
        # would only amplify round-off by t_min^{-2s}
        est = np.zeros_like(beta)
    elif float(np.max(np.abs(resid))) > 0.2 * scale:
        raise GridTooCoarseError("t^{2s} layer fit residual too large")
    result = field.base.copy_with(est)
    if check_rtol is not None:
        from .lattice import apply_frac_torus_spectral

        ref = apply_frac_torus_spectral(field.base, s).values * neumann_constant(s)
        err = float(np.max(np.abs(est - ref)))
        if err > check_rtol * (float(np.max(np.abs(ref))) + 1e-300):
            raise GridTooCoarseError(
                f"Neumann trace deviates from the spectral value by {err:.3e}")
    return result


# --- Carleman weight machinery ---------------------------------------------------


@dataclass(frozen=True)
class CarlemanConfig:
    """Weight convexity c0, semiclassical tau, mesh h, admissibility delta0,
    lower threshold tau0, and the normal discretization step."""

    c0: float
    tau: float
    h: float
    delta0: float = 0.5
    tau0: float = 1.0
    t_step: float | None = None

    def __post_init__(self):
        if self.c0 <= 0 or self.tau <= 0 or self.h <= 0:
            raise ValueError("c0, tau, h must be positive")
        if self.tau * self.h > self.delta0 * (1.0 + 1e-12):
            raise ValueError(
                f"admissibility violated: tau*h = {self.tau * self.h:.3g} "
                f"> delta0 = {self.delta0}")

    @property
    def dt(self):
        return self.t_step if self.t_step is not None else self.h / 4.0


def carleman_weight(c0, h, j, t):
    """phi(jh, t) = -|jh|^2 + c0 (t^2/2 - t)."""
    jj = np.atleast_1d(np.asarray(j, dtype=float))
    return -float(np.sum((jj * h) ** 2)) + c0 * (0.5 * t * t - t)


def _tangential_apply(cfg, func, sym):
    """Apply the cosh (sym=True) or sinh part of the conjugated Laplacian.

    func is a dict {lattice point: value}; the weight differences are the
    exact quadratic ones, phi_j - phi_{j +- e_k} = h^2 (+- 2 j_k + 1).
    """
    tau, h = cfg.tau, cfg.h
    fn = math.cosh if sym else math.sinh
    out = {}
    pts = set()
    for p in func:
        pts.add(p)
        for k in range(len(p)):
            for sgn in (1, -1):
                q = list(p)
                q[k] += sgn
                pts.add(tuple(q))
    h2 = h * h
    for p in pts:
        acc = 0.0
        for k in range(len(p)):
            up = list(p); up[k] += 1
            dn = list(p); dn[k] -= 1
            dplus = tau * h2 * (2.0 * p[k] + 1.0)
            dminus = tau * h2 * (1.0 - 2.0 * p[k])
            acc += fn(dplus) * func.get(tuple(up), 0.0)
            acc += fn(dminus) * func.get(tuple(dn), 0.0)
            if sym:
                acc -= 2.0 * func.get(p, 0.0)
        if acc != 0.0:
            out[p] = acc / h2
    return out


def tangential_conjugates(cfg, v):
    """Symmetric and antisymmetric parts (S v, A v) of the conjugated
    tangential Laplacian e^{tau phi} Lap_d e^{-tau phi} on a finitely
    supported v (dict of point: value)."""
    if isinstance(v, LatticeFunction):
        if v.profile is not None:
            raise ValueError("tangential conjugates need finite support")
        v = v.support
    return (_tangential_apply(cfg, v, True), _tangential_apply(cfg, v, False))


def tangential_commutator_check(cfg, v):
    """Exact commutator identity of the tangential conjugated parts.

    lhs = ([S, A] v, v) by composing the operators; rhs by the closed form
    -4 h^{-4} sinh(2 tau h^2) sum sinh^2(2 tau j_k h^2) |v_j|^2
    -4 h^{-2} sinh(2 tau h^2) sum |(v_{j+e_k} - v_{j-e_k})/(2h)|^2.
    Returns (lhs, rhs, defect).
    """
    if isinstance(v, LatticeFunction):
        v = v.support
    sv, av = tangential_conjugates(cfg, v)
    s_of_a = _tangential_apply(cfg, av, True)
    a_of_s = _tangential_apply(cfg, sv, False)
    dset = {p for p in v}
    dim = len(next(iter(dset)))
    wt = cfg.h ** dim
    lhs = 0.0
    for p, val in v.items():
        lhs += (s_of_a.get(p, 0.0) - a_of_s.get(p, 0.0)) * val
    lhs *= wt
    tau, h = cfg.tau, cfg.h
    h2 = h * h
    sh = math.sinh(2.0 * tau * h2)
    rhs = 0.0
    pts = set(v)
    for p in v:
        for k in range(dim):
            for sgn in (1, -1):
                q = list(p); q[k] += sgn
                pts.add(tuple(q))
    for p in pts:
        vp = v.get(p, 0.0)
        for k in range(dim):
            if vp != 0.0:
                rhs -= 4.0 / h2 ** 2 * sh * math.sinh(2.0 * tau * p[k] * h2) ** 2 * vp * vp
            up = list(p); up[k] += 1
            dn = list(p); dn[k] -= 1
            grad = (v.get(tuple(up), 0.0) - v.get(tuple(dn), 0.0)) / (2.0 * h)
            rhs -= 4.0 / h2 * sh * grad * grad
    rhs *= wt
    return lhs, rhs, abs(lhs - rhs)


def conjugated_laplacian_defect(cfg, v):
    """Sup defect of e^{tau phi} Lap_d (e^{-tau phi} v) = (S + A) v on the
    support neighborhood; the identity is exact, so this measures round-off."""
    if isinstance(v, LatticeFunction):
        v = v.support
    tau, h = cfg.tau, cfg.h
    sv, av = tangential_conjugates(cfg, v)
    pts = set(sv) | set(av) | set(v)
    dim = len(next(iter(pts)))

    def phi(p):
        return -sum((c * h) ** 2 for c in p)

    worst = 0.0
    for p in pts:
        lap = 0.0
        for k in range(dim):
            up = list(p); up[k] += 1
            dn = list(p); dn[k] -= 1
            for q in (tuple(up), tuple(dn)):
                lap += math.exp(-tau * phi(q)) * v.get(q, 0.0)
            lap -= 2.0 * math.exp(-tau * phi(p)) * v.get(p, 0.0)
        lap *= math.exp(tau * phi(p)) / (h * h)
        ref = sv.get(p, 0.0) + av.get(p, 0.0)
        worst = max(worst, abs(lap - ref))
    return worst


# --- Carleman inequality probe ----------------------------------------------------


def carleman_probe(cfg, values, details=False):
    """Empirical constant of the weighted inequality for one input field.

    values: array over a centered spatial window times a uniform t-grid
    (spacing cfg.dt, first level t = 0), supported in the upper half ball
    of radius 4/5.  Every norm in the inequality is evaluated and the
    smallest admissible constant (left side / right side) returned;
    details=True returns the (lhs, rhs, constant) triple instead.
    """
    tau, h, c0 = cfg.tau, cfg.h, cfg.c0
    if not cfg.tau0 < tau <= cfg.delta0 / h + 1e-12:
        raise ValueError(
            f"tau must lie in (tau0, delta0/h] = ({cfg.tau0}, {cfg.delta0 / h:.3g}]")
    vals = np.asarray(values, dtype=float)
    d = vals.ndim - 1
    nspace = vals.shape[0]
    if any(sz != nspace for sz in vals.shape[:-1]) or nspace % 2 == 0:
        raise ValueError("spatial window must be an odd cube")
    R = (nspace - 1) // 2
    nt = vals.shape[-1]
    dt = cfg.dt
    t = np.arange(nt) * dt
    ax = np.arange(-R, R + 1) * h
    r2 = ax ** 2
    for _ in range(d - 1):
        r2 = r2[..., None] + ax ** 2
    rad2 = r2[..., None] + t ** 2
    nz = np.abs(vals) > 0.0
    if np.any(nz & (rad2 >= 0.8 ** 2)):
        raise ValueError("field must be supported in the upper half ball of radius 4/5")

    phi = -r2[..., None] + c0 * (0.5 * t * t - t)
    W = np.exp(tau * phi)

    dtu = np.gradient(vals, dt, axis=-1)
    grads = []
    for k in range(d):
        up = np.roll(vals, -1, axis=k)
        dn = np.roll(vals, 1, axis=k)
        _zero_wrap(up, k, -1)
        _zero_wrap(dn, k, 0)
        grads.append((up - dn) / (2.0 * h))
    lap = np.zeros_like(vals)
    for k in range(d):
        up = np.roll(vals, -1, axis=k)
        dn = np.roll(vals, 1, axis=k)
        _zero_wrap(up, k, -1)
        _zero_wrap(dn, k, 0)
        lap += (up + dn - 2.0 * vals) / (h * h)
    dtt = np.zeros_like(vals)
    dtt[..., 1:-1] = (vals[..., 2:] + vals[..., :-2] - 2.0 * vals[..., 1:-1]) / (dt * dt)

    cell = h ** d * dt

    def bulk(f):
        return math.sqrt(cell * float(np.sum((W * f) ** 2)))

    def bdry(f):
        return math.sqrt(h ** d * float(np.sum((W[..., 0] * f) ** 2)))

    lhs = tau ** 1.5 * bulk(vals) + tau ** 0.5 * bulk(dtu)
    for g in grads:
        lhs += tau ** 0.5 * bulk(g)
    interior = np.zeros_like(vals)
    interior[..., 1:-1] = 1.0
    rhs = bulk((lap + dtt) * interior)
    btrace = np.abs(vals[..., 0])
    for g in grads:
        btrace = btrace + np.abs(g[..., 0])
    btrace = btrace + np.abs(dtu[..., 0])
    rhs += tau ** 1.5 * bdry(btrace)
    const = 0.0 if lhs == 0.0 else lhs / rhs
    if details:
        return lhs, rhs, const
    return const


def _zero_wrap(arr, axis, edge_index):
    sl = [slice(None)] * arr.ndim
    sl[axis] = edge_index
    arr[tuple(sl)] = 0.0


# --- boundary-bulk interpolation probe ---------------------------------------------


def half_ball_norms(field, center, r):
    """(bulk_L2, trace_L2, trace_H1, trace_dt_L2) over the half ball of
    radius r about a boundary point ``center`` (physical coordinates).

    Lattice sums with trapezoid t-integration; trace quantities use the
    t = 0 data, the normal derivative its first-levels difference quotient.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    base = field.base
    h = base.h
    d = base.d
    t = field.t_grid
    c = np.atleast_1d(np.asarray(center, dtype=float))
    ax = np.arange(-base.N, base.N + 1) * h
    dist2 = (ax - c[0]) ** 2
    for k in range(1, d):
        dist2 = dist2[..., None] + (ax - c[k]) ** 2

    # per column: trapezoid over grid nodes up to the last one inside the
    # ball, plus the initial [0, t_0] sliver closed with the trace value
    rem = r * r - dist2
    mask = rem > 0
    n_in = np.searchsorted(t, np.sqrt(np.where(mask, rem, 0.0)), side="right")
    live = mask & (n_in > 0)
    sq = np.where(live[..., None], field.values, 0.0) ** 2
    sliver = 0.5 * t[0] * (np.where(live, base.values, 0.0) ** 2 + sq[..., 0])
    panels = np.diff(t) * (sq[..., 1:] + sq[..., :-1]) / 2.0
    panels *= np.arange(t.size - 1) < (n_in - 1)[..., None]
    bulk_sq = h ** d * float(np.sum(sliver) + np.sum(panels))

    tr = base.values[mask]
    trace_l2 = math.sqrt(h ** d * float(np.sum(tr ** 2)))
    grad_sq = 0.0
    for k in range(d):
        up = np.roll(base.values, -1, axis=k)
        dn = np.roll(base.values, 1, axis=k)
        g = (up - dn) / (2.0 * h)
        grad_sq += float(np.sum(g[mask] ** 2))
    trace_h1 = trace_l2 + math.sqrt(h ** d * grad_sq)
    dt0 = (field.values[..., 1] - field.values[..., 0]) / (t[1] - t[0])
    trace_dt = math.sqrt(h ** d * float(np.sum(dt0[mask] ** 2)))
    return math.sqrt(bulk_sq), trace_l2, trace_h1, trace_dt


@dataclass(frozen=True)
class BoundaryBulkResult:
    norms: dict
    fitted_alpha: float
    holds: bool


def boundary_bulk_probe(f, r0=0.5, potential=None, t_grid=None, big_c=10.0):
    """Interpolation inequality probe for the harmonic extension (s = 1/2).

    f: torus trace data supported in the half ball of radius 1/2.  Builds
    the extension, measures the interior bulk norm over radius r0, the unit
    bulk norm, and the boundary data norms, fits the exponent alpha from
    the saturated inequality, and reports whether the inequality holds with
    constant ``big_c`` and correction big_c * exp(-big_c/h) * bulk.
    """
    if potential is not None:
        raise NotImplementedError(
            "nonzero bulk potentials have no forward solver here; "
            "the weighted-inequality probe covers them as inhomogeneities")
    if not 0.0 < r0 < 1.0:
        raise ValueError("need 0 < r0 < 1")
    h = f.h
    if np.any((np.abs(f.values) > 0) & (_radius_grid(f) >= 0.5)):
        raise ValueError("trace data must be supported in the half ball of radius 1/2")
    if t_grid is None:
        t_grid = make_t_grid(1e-6, 2.5, 1.05)
    field = cs_extend_torus(f, 0.5, t_grid)

    bulk_small = half_ball_norms(field, (0.0,) * f.d, r0)[0]
    bulk_big, trace_l2, trace_h1, _ = half_ball_norms(field, (0.0,) * f.d, 1.0)
    # normal derivative at the boundary, exact per mode for s = 1/2
    lam = _torus_multiplier(f.N, f.d, h, 0.5)
    dt0 = np.real(idft(-lam * dft(f), f.N, f.d))
    mask = _radius_grid(f) < 1.0
    trace_dt = math.sqrt(h ** f.d * float(np.sum(dt0[mask] ** 2)))

    data = trace_h1 + trace_dt
    big_m = max(bulk_big, data)
    if bulk_small <= 0.0 or big_m <= 0.0:
        alpha = 0.5
        holds = True
    else:
        if data >= big_m:
            alpha = 1.0 - 1e-6
        else:
            alpha = math.log(bulk_small / big_m) / math.log(data / big_m)
            alpha = min(max(alpha, 1e-6), 1.0 - 1e-6)
        bound = big_c * big_m ** (1.0 - alpha) * data ** alpha \
            + big_c * math.exp(-big_c / h) * bulk_big
        holds = bulk_small <= bound
    norms = {"bulk_small": bulk_small, "bulk_big": bulk_big,
             "trace_l2": trace_l2, "trace_h1": trace_h1, "trace_dt": trace_dt}
    return BoundaryBulkResult(norms=norms, fitted_alpha=alpha, holds=holds)


def _radius_grid(f):
    ax = np.arange(-f.N, f.N + 1) * f.h
    r2 = ax ** 2
    for _ in range(f.d - 1):
        r2 = r2[..., None] + ax ** 2
    return np.sqrt(r2)
