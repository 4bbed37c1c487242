"""Semidiscrete extension of torus data and its unique-continuation probes.

For trace data v on the discrete torus, the degenerate-elliptic extension
problem  (d_t t^{1-2s} d_t + t^{1-2s} Lap) u~ = 0, u~(.,0) = v  separates
over Fourier modes: the mode with operator eigenvalue lam evolves as
theta_s(sqrt(lam) t) where theta_s(x) = 2^{1-s} x^s K_s(x) / Gamma(s).
The weighted Neumann trace -lim t^{1-2s} d_t u~ then recovers the
fractional Laplacian of v up to the explicit constant
Gamma(1-s) / (4^{s-1/2} Gamma(s)).  Every sqrt(lam) is read from the one
cached torus symbol, lattice._spectral_symbol at s = 1/2.

The Carleman block conjugates the tangential Laplacian by the quadratic
pseudoconvex weight phi(jh, t) = -|jh|^2 + c0 (t^2/2 - t): its symmetric
and antisymmetric parts are cosh/sinh stencils on the padded support box,
and the exact commutator identity they satisfy is checked against a closed
form.  Numerical probes cover the weighted inequality and the boundary-bulk
interpolation inequality for s = 1/2.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .lattice import (
    LatticeFunction,
    TorusFunction,
    _apply_even,
    _axis_sum,
    _spectral_symbol,
    apply_frac_torus_spectral,
)
from .specfun import log_abs_gamma_neg, log_gamma


class GridTooCoarseError(RuntimeError):
    """The t-grid does not resolve the t^{2s} boundary layer."""


# --- per-mode profile ----------------------------------------------------------


# theta_s(x) is exactly 0 above this argument: scipy's kv(s, x) underflows to 0
# from x ~ 697.87 for every s in (0, 1), and theta_s(697) < 1e-301
_THETA_ZERO_ABOVE = 697.0


def _theta(s, x):
    """2^{1-s} x^s K_s(x) / Gamma(s) on an array x >= 0; theta(0) = 1,
    decreasing to 0.

    At s = 1/2 the profile is e^{-x} (K_{1/2}(x) = sqrt(pi / 2x) e^{-x}).
    For other s: below 1e-5 the two-term series at the origin, the Bessel
    form up to _THETA_ZERO_ABOVE.  Above _THETA_ZERO_ABOVE the value is
    exactly 0 for every s.
    """
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise ValueError("theta requires x >= 0")
    live = x <= _THETA_ZERO_ABOVE
    if s == 0.5:
        return np.where(live, np.exp(-x), 0.0)
    out = np.zeros(x.shape)
    small = x < 1e-5
    mid = ~small & live
    xs = x[small]
    c1 = -math.exp(log_abs_gamma_neg(s) - log_gamma(s) - s * math.log(4.0))
    x2 = 0.25 * xs * xs
    out[small] = 1.0 + x2 / (1.0 - s) + c1 * xs ** (2.0 * s) * (1.0 + x2 / (1.0 + s))
    xm = x[mid]
    pref = np.exp((1.0 - s) * math.log(2.0) + s * np.log(xm) - log_gamma(s))
    out[mid] = pref * special.kv(s, xm)
    return out


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


def cs_extend_torus(v, s, t_grid):
    """Solve the extension problem over the torus per Fourier mode.

    Mode k with multiplier lam_k evolves as theta_s(sqrt(lam_k) t); the
    zero mode is constant in t.  Exact up to the profile evaluation: the
    closed form e^{-x} at s = 1/2, the Bessel form otherwise, and 0 above
    _THETA_ZERO_ABOVE (see :func:`_theta`).
    """
    if not 0.0 < s < 1.0:
        raise ValueError("cs_extend_torus requires s in (0,1)")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0) or t[0] <= 0:
        raise ValueError("t_grid must be strictly increasing and positive")
    # sqrt of the Laplacian eigenvalues: the symbol at s = 1/2
    sq = _spectral_symbol(v.N, v.d, 0.5)
    uniq, inv = np.unique(np.round(sq, 15), return_inverse=True)
    theta = _theta(s, uniq[:, None] * t)[inv].reshape(sq.shape + (t.size,))
    return ExtensionField(v, s, t, _apply_even(v.values[..., None], theta, v.d))


def neumann_constant(s):
    """Dirichlet-to-Neumann constant Gamma(1-s) / (4^{s-1/2} Gamma(s))."""
    return math.exp(log_gamma(1.0 - s) - (s - 0.5) * math.log(4.0) - log_gamma(s))


def neumann_trace(field, check_rtol=1e-3):
    """Estimate -lim_{t->0} t^{1-2s} d_t u~ from the boundary layer.

    Fits u~_j(t) = u_j + beta_j t^{2s} over the first 12 grid levels and
    returns -2s beta as a torus function.  Raises GridTooCoarseError if the
    grid starts above 1e-4 or the fit does not represent the layer; asserts
    agreement with the spectral value d_s (-Lap)^s u within check_rtol (sup
    norm, relative to the result scale) unless check_rtol is None.
    """
    s, t = field.s, field.t_grid
    if t[0] > 1e-4:
        raise GridTooCoarseError("t_grid must start at or below 1e-4")
    k = 12
    if t.size < k:
        raise ValueError(f"t_grid needs at least {k} levels for the layer fit")
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
        ref = apply_frac_torus_spectral(field.base, s).values * neumann_constant(s)
        err = float(np.max(np.abs(est - ref)))
        if err > check_rtol * (float(np.max(np.abs(ref))) + 1e-300):
            raise GridTooCoarseError(
                f"Neumann trace deviates from the spectral value by {err:.3e}")
    return result


# --- Carleman weight machinery ---------------------------------------------------


# the admissibility bound tau * h <= delta0 of the weight, and the probe's
# lower threshold tau0 < tau
_DELTA0 = 0.5
_TAU0 = 1.0


@dataclass(frozen=True)
class CarlemanConfig:
    """Weight convexity c0, semiclassical tau and mesh h, with tau * h at
    most the admissibility bound delta0 = 1/2."""

    c0: float
    tau: float
    h: float

    def __post_init__(self):
        if self.c0 <= 0 or self.tau <= 0 or self.h <= 0:
            raise ValueError("c0, tau, h must be positive")
        if self.tau * self.h > _DELTA0 * (1.0 + 1e-12):
            raise ValueError(
                f"admissibility violated: tau*h = {self.tau * self.h:.3g} "
                f"> delta0 = {_DELTA0}")

    @property
    def dt(self):
        """The normal discretization step of the Carleman probe."""
        return self.h / 4.0


def _support_box(v):
    """(box, lo): v on its bounding box padded by three, two layers for S(A v)
    and a zero layer for the shifts; lo is the lattice point at index 0."""
    if isinstance(v, LatticeFunction):
        if v.profile is not None:
            raise ValueError("tangential conjugates need finite support")
        v = v.support
    if len({len(p) for p in v}) > 1:
        raise ValueError("support points of mixed dimension")
    if not v:
        raise ValueError("the identity needs a nonempty support")
    pts = np.array(list(v), dtype=np.int64)
    lo = pts.min(axis=0) - 3
    box = np.zeros(tuple(pts.max(axis=0) - lo + 4))
    box[tuple((pts - lo).T)] = list(v.values())
    return box, lo


def _coords(lo, shape, k):
    # lattice coordinate j_k along box axis k, shaped to broadcast
    return (lo[k] + np.arange(shape[k])).reshape((-1,) + (1,) * (len(shape) - 1 - k))


def _shifted(d, k, sl, rest=slice(1, -1)):
    # box index shifted by ``sl`` along axis k, ``rest`` on the other axes
    return (rest,) * k + (sl,) + (rest,) * (d - 1 - k)


def _stencil(cfg, x, lo, sym):
    """S x (sym) or A x on the box of x, index 0 at lattice point lo:
    S x = h^-2 sum_k [cosh(tau h^2 (2 j_k + 1)) x_{j+e_k}
                      + cosh(tau h^2 (1 - 2 j_k)) x_{j-e_k} - 2 x_j],
    A x the same with sinh and no -2 x_j, from the exact weight differences
    phi_j - phi_{j+-e_k} = h^2 (+-2 j_k + 1).  The outer layer of the
    result stays zero, so x must vanish on its outer two layers."""
    tau, h2 = cfg.tau, cfg.h * cfg.h
    fn = np.cosh if sym else np.sinh
    out = np.zeros_like(x)
    inner = out[(slice(1, -1),) * x.ndim]
    for k in range(x.ndim):
        j = _coords(lo, x.shape, k)[1:-1]
        inner += fn(tau * h2 * (2.0 * j + 1.0)) * x[_shifted(x.ndim, k, slice(2, None))]
        inner += fn(tau * h2 * (1.0 - 2.0 * j)) * x[_shifted(x.ndim, k, slice(None, -2))]
        if sym:
            inner -= 2.0 * x[(slice(1, -1),) * x.ndim]
    out /= h2
    return out


def tangential_commutator_check(cfg, v):
    """Exact commutator identity of the tangential conjugated parts.

    lhs = ([S, A] v, v) by composing the stencils; rhs by the closed form
    -4 h^{-4} sinh(2 tau h^2) sum sinh^2(2 tau j_k h^2) |v_j|^2
    -4 h^{-2} sinh(2 tau h^2) sum |(v_{j+e_k} - v_{j-e_k})/(2h)|^2
    in array sums that never call the stencils, so the sides are
    independent.  Both run on the support's bounding box padded by three:
    the cost is the volume of that box.  Returns (lhs, rhs, defect).
    """
    x, lo = _support_box(v)
    d, tau, h, h2 = x.ndim, cfg.tau, cfg.h, cfg.h * cfg.h
    comm = _stencil(cfg, _stencil(cfg, x, lo, False), lo, True) \
        - _stencil(cfg, _stencil(cfg, x, lo, True), lo, False)
    lhs = h ** d * float(np.sum(comm * x))
    pot = kin = 0.0
    for k in range(d):
        pot += float(np.sum(np.sinh(2.0 * tau * h2 * _coords(lo, x.shape, k)) ** 2 * x * x))
        grad = (x[_shifted(d, k, slice(2, None), slice(None))]
                - x[_shifted(d, k, slice(None, -2), slice(None))]) / (2.0 * h)
        kin += float(np.sum(grad * grad))
    rhs = -4.0 / h2 * float(np.sinh(2.0 * tau * h2)) * (pot / h2 + kin) * h ** d
    return lhs, rhs, abs(lhs - rhs)


# --- Carleman inequality probe ----------------------------------------------------


def _window_r2(R, h, d):
    # |j h|^2 over the centred window {-R..R}^d
    return _axis_sum([(np.arange(-R, R + 1) * h) ** 2] * d)


def carleman_probe(cfg, values):
    """Empirical constant of the weighted inequality for one input field.

    values: array over a centered spatial window times a uniform t-grid
    (spacing cfg.dt, first level t = 0), supported in the upper half ball
    of radius 4/5.  Every norm in the inequality is evaluated and the
    smallest admissible constant (left side / right side) returned with
    both sides, as the triple (lhs, rhs, constant).
    """
    tau, h, c0 = cfg.tau, cfg.h, cfg.c0
    if not _TAU0 < tau <= _DELTA0 / h + 1e-12:
        raise ValueError(
            f"tau must lie in (tau0, delta0/h] = ({_TAU0}, {_DELTA0 / h:.3g}]")
    vals = np.asarray(values, dtype=float)
    d = vals.ndim - 1
    nspace = vals.shape[0]
    if any(sz != nspace for sz in vals.shape[:-1]) or nspace % 2 == 0:
        raise ValueError("spatial window must be an odd cube")
    R = (nspace - 1) // 2
    dt = cfg.dt
    t = np.arange(vals.shape[-1]) * dt
    r2 = _window_r2(R, h, d)
    rad2 = r2[..., None] + t ** 2
    nz = np.abs(vals) > 0.0
    if np.any(nz & (rad2 >= 0.8 ** 2)):
        raise ValueError("field must be supported in the upper half ball of radius 4/5")

    phi = -r2[..., None] + c0 * (0.5 * t * t - t)
    W = np.exp(tau * phi)

    dtu = np.gradient(vals, dt, axis=-1)
    # spatial neighbours are slices of one array padded by a zero layer
    padded = np.pad(vals, [(1, 1)] * d + [(0, 0)])
    grads = []
    lap = np.zeros_like(vals)
    for k in range(d):
        up = padded[_shifted(d, k, slice(2, None)) + (slice(None),)]
        dn = padded[_shifted(d, k, slice(None, -2)) + (slice(None),)]
        grads.append((up - dn) / (2.0 * h))
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
    return lhs, rhs, 0.0 if lhs == 0.0 else lhs / rhs


# --- boundary-bulk interpolation probe ---------------------------------------------


def half_ball_norms(field, center, radii):
    """(bulk_L2, trace_L2, trace_H1, trace_dt_L2) over the half ball of
    radius r about a boundary point ``center`` (physical coordinates), one
    tuple for each r in radii.

    Lattice sums with trapezoid t-integration; trace quantities use the
    t = 0 data, the normal derivative its first-levels difference quotient.
    The field is squared, and its trapezoid panels and the trace gradients
    formed, once for all radii.
    """
    if min(radii) <= 0:
        raise ValueError("r must be positive")
    base, t = field.base, field.t_grid
    h, d = base.h, base.d
    c = np.atleast_1d(np.asarray(center, dtype=float))
    ax = np.arange(-base.N, base.N + 1) * h
    dist2 = _axis_sum([(ax - c[k]) ** 2 for k in range(d)])
    b = base.values
    sq = field.values ** 2
    edge = b ** 2 + sq[..., 0]
    panels = np.diff(t) * (sq[..., 1:] + sq[..., :-1]) / 2.0
    grads = [(np.roll(b, -1, axis=k) - np.roll(b, 1, axis=k)) / (2.0 * h) for k in range(d)]
    dt0 = (field.values[..., 1] - field.values[..., 0]) / (t[1] - t[0])

    out = []
    for r in radii:
        # per column: trapezoid over grid nodes up to the last one inside the
        # ball, plus the initial [0, t_0] sliver closed with the trace value
        rem = r * r - dist2
        mask = rem > 0
        n_in = np.searchsorted(t, np.sqrt(np.where(mask, rem, 0.0)), side="right")
        sliver = 0.5 * t[0] * np.where(n_in > 0, edge, 0.0)
        inside = panels * (np.arange(t.size - 1) < (n_in - 1)[..., None])
        bulk_sq = h ** d * float(np.sum(sliver) + np.sum(inside))
        trace_l2 = math.sqrt(h ** d * float(np.sum(b[mask] ** 2)))
        grad_sq = sum(float(np.sum(g[mask] ** 2)) for g in grads)
        trace_h1 = trace_l2 + math.sqrt(h ** d * grad_sq)
        trace_dt = math.sqrt(h ** d * float(np.sum(dt0[mask] ** 2)))
        out.append((math.sqrt(bulk_sq), trace_l2, trace_h1, trace_dt))
    return out


@dataclass(frozen=True)
class BoundaryBulkResult:
    norms: dict
    fitted_alpha: float
    holds: bool


# the constant C of the probed inequality and of its correction C e^{-C/h}
_BIG_C = 10.0


def boundary_bulk_probe(f, r0=0.5):
    """Interpolation inequality probe for the harmonic extension (s = 1/2).

    f: torus trace data supported in the half ball of radius 1/2.  Builds
    the extension, measures the interior bulk norm over radius r0, the unit
    bulk norm, and the boundary data norms, fits the exponent alpha from
    the saturated inequality, and reports whether the inequality holds with
    constant C = 10 and correction C exp(-C/h) * bulk.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError("need 0 < r0 < 1")
    h = f.h
    rad = np.sqrt(_window_r2(f.N, h, f.d))
    if np.any((np.abs(f.values) > 0) & (rad >= 0.5)):
        raise ValueError("trace data must be supported in the half ball of radius 1/2")
    field = cs_extend_torus(f, 0.5, make_t_grid(1e-6, 2.5, 1.05))

    (bulk_small, *_), (bulk_big, trace_l2, trace_h1, _) = half_ball_norms(
        field, (0.0,) * f.d, (r0, 1.0))
    # normal derivative at the boundary, exact per mode for s = 1/2
    dt0 = _apply_even(f.values, -_spectral_symbol(f.N, f.d, 0.5), f.d)
    mask = rad < 1.0
    trace_dt = math.sqrt(h ** f.d * float(np.sum(dt0[mask] ** 2)))

    data = trace_h1 + trace_dt
    big_m = max(bulk_big, data)
    if bulk_small <= 0.0 or big_m <= 0.0:
        alpha, holds = 0.5, True
    else:
        if data >= big_m:
            alpha = 1.0 - 1e-6
        else:
            alpha = math.log(bulk_small / big_m) / math.log(data / big_m)
            alpha = min(max(alpha, 1e-6), 1.0 - 1e-6)
        bound = _BIG_C * big_m ** (1.0 - alpha) * data ** alpha \
            + _BIG_C * math.exp(-_BIG_C / h) * bulk_big
        holds = bulk_small <= bound
    norms = {"bulk_small": bulk_small, "bulk_big": bulk_big,
             "trace_l2": trace_l2, "trace_h1": trace_h1, "trace_dt": trace_dt}
    return BoundaryBulkResult(norms=norms, fitted_alpha=alpha, holds=holds)
