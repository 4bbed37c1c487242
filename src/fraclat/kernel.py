"""Kernels of the fractional discrete Laplacian.

The nonlocal operator on the mesh (hZ)^d is a kernel sum
``sum_m (u_j - u_m) K(j - m)`` with positive, even, summable weights K.
In one dimension K has a closed Gamma-ratio form; in general dimension it is
the integral of a product of scaled modified Bessel functions against
``t^{-1-s} dt``.  This module evaluates both, exact 1D tail sums, the
periodized kernel of the discrete torus, and the semidiscrete heat kernels,
each with explicit error control.

Everything here is immutable after construction and safe to read
concurrently.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import (
    WG7,
    WGK15,
    XGK15,
    bessel_i_scaled,
    bessel_i_scaled_row,
    gamma_ratio,
    log_abs_gamma_neg,
    log_gamma,
)

_LOG_PI = 1.1447298858494001741434273514
_LOG4 = 1.3862943611198906188344642429


class ToleranceError(RuntimeError):
    """A quadrature or truncation failed to certify the requested tolerance."""

    def __init__(self, message, achieved=None, requested=None):
        super().__init__(message)
        self.achieved = achieved
        self.requested = requested


def _require_finite(what, *arrays):
    """Raise ToleranceError on a nan or inf, which no ``err > tol`` test catches."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ToleranceError(f"{what} is not finite")


@dataclass(frozen=True)
class FracParams:
    """The triple (s, h, d): fractional order, mesh size, dimension."""

    s: float
    h: float = 1.0
    d: int = 1

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if self.h <= 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        if self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d}")


# --- closed forms in one dimension -------------------------------------------


def _log_pref(s, h):
    # log of h^{-2s} / |Gamma(-s)|
    return -2.0 * s * math.log(h) - log_abs_gamma_neg(s)


def _log_c1(s, h):
    # log of 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)| h^{2s})
    return s * _LOG4 + log_gamma(0.5 + s) - 0.5 * _LOG_PI + _log_pref(s, h)


def _kernel_1d_raw(s, h, m):
    if m == 0:
        return 0.0
    a = abs(m)
    return math.exp(_log_c1(s, h)) * gamma_ratio(a - s, a + 1.0 + s)


def _tail_1d_raw(s, h, big_m):
    # sum_{m >= M} K(m) by the telescoping identity
    # Gamma(m-s)/Gamma(m+1+s) = (1/2s)[Gamma(m-s)/Gamma(m+s) - shifted].
    return math.exp(_log_c1(s, h)) * gamma_ratio(big_m - s, big_m + s) / (2.0 * s)


def kernel_1d(params, m):
    """Closed-form 1D kernel value at lattice offset m (0 at m = 0)."""
    if params.d != 1:
        raise ValueError("kernel_1d requires d = 1")
    return _kernel_1d_raw(params.s, params.h, int(m))


def kernel_tail_sum_1d(params, big_m):
    """Exact one-sided tail sum_{m >= M} of the 1D kernel, M >= 1."""
    if params.d != 1:
        raise ValueError("kernel_tail_sum_1d requires d = 1")
    if big_m < 1:
        raise ValueError("kernel_tail_sum_1d requires M >= 1")
    return _tail_1d_raw(params.s, params.h, float(big_m))


def kernel_nd_bound(params, m):
    """Upper bound for the kernel at offset m through its ell^1 norm.

    ``h^{-2s} 2^{d(d+2s-1)} 4^s Gamma(d/2+s) Gamma(|m|_1-s)
    / (pi^{d/2} |Gamma(-s)| Gamma(|m|_1+d+s))``
    """
    s, h, d = params.s, params.h, params.d
    n1 = float(sum(abs(int(x)) for x in np.atleast_1d(m)))
    if n1 < 1:
        raise ValueError("bound requires a nonzero offset")
    lg = (d * (d + 2.0 * s - 1.0) * math.log(2.0) + s * _LOG4
          + log_gamma(0.5 * d + s) - 0.5 * d * _LOG_PI + _log_pref(s, h))
    return math.exp(lg) * gamma_ratio(n1 - s, n1 + d + s)


# --- adaptive Gauss-Kronrod machinery ----------------------------------------
#
# Integrand codes:
#   0  kernel, small-t panel:  t = e^u on (0, 1],  f = prod_i g_{m_i}(2t) e^{-s u}
#   1  kernel, large-t panel:  t = 1/v on [1, inf), f = prod_i g_{m_i}(2t) v^{s-1}
#   2  total kernel mass, small-t panel: f = (1 - g_0(2t)^d) e^{-s u}
#   3  total kernel mass, large-t panel: f = (1 - g_0(2t)^d) v^{s-1}


def _one_minus_g0(x):
    """1 - e^{-x} I_0(x), cancellation-free for small x.

    For x < 0.5 uses e^{-x}(e^x - I_0(x)) with the positive-term series of
    e^x - I_0(x); the direct difference loses all digits below x ~ 1e-8 and
    the mass integrand amplifies that roundoff exponentially."""
    if x >= 0.5:
        return 1.0 - bessel_i_scaled(0, x)
    total = 0.0
    term = 1.0  # x^k / k!
    half_fact = 1.0
    for k in range(1, 40):
        term *= x / k
        if k % 2 == 0:
            kk = k // 2
            half_fact *= kk
            b = 1.0
            f = 1.0
            for i in range(1, k + 1):
                f *= i
            b = f / (4.0 ** kk * half_fact * half_fact)
            contrib = term * (1.0 - b)
        else:
            contrib = term
        total += contrib
        if contrib < 1e-20 * total:
            break
    return math.exp(-x) * total


def _one_minus_g0_pow(x, d):
    """1 - (e^{-x} I_0(x))^d via the stable complement."""
    q = _one_minus_g0(x)
    if d == 1:
        return q
    if d == 2:
        return q * (2.0 - q)
    return q * (3.0 - q * (3.0 - q))


def _integrand(code, s, iparams, x):
    if code == 0 or code == 2:
        t = math.exp(x)
    else:
        t = 1.0 / x
    if code <= 1:
        factors = [bessel_i_scaled(m, 2.0 * t) for m in iparams]
    else:
        factors = [_one_minus_g0_pow(2.0 * t, iparams[0])]
    if min(factors) == 0.0:
        return 0.0
    if code == 0 or code == 2:
        # e^{-s u} alone overflows for u < -709/s, where the product is tiny
        return math.exp(sum(math.log(f) for f in factors) - s * x)
    return math.prod(factors) * x ** (s - 1.0)


def _gk15(code, s, iparams, a, b):
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    vk = 0.0
    vg = 0.0
    for i in range(15):
        f = _integrand(code, s, iparams, c + hw * XGK15[i])
        vk += WGK15[i] * f
        if i % 2 == 1:
            vg += WG7[(i - 1) // 2] * f
    return vk * hw, abs((vk - vg) * hw)


def _adaptive(code, s, iparams, edges, abs_tol, rel_tol, max_splits):
    """Worst-interval-first refinement starting from the given edge list."""
    n0 = edges.size - 1
    cap = n0 + max_splits + 2
    lo = np.empty(cap)
    hi = np.empty(cap)
    va = np.empty(cap)
    er = np.empty(cap)
    m = n0
    for i in range(n0):
        lo[i] = edges[i]
        hi[i] = edges[i + 1]
        va[i], er[i] = _gk15(code, s, iparams, lo[i], hi[i])
    total = 0.0
    terr = 0.0
    for _ in range(max_splits):
        total = 0.0
        terr = 0.0
        worst = 0
        for i in range(m):
            total += va[i]
            terr += er[i]
            if er[i] > er[worst]:
                worst = i
        if terr <= max(abs_tol, rel_tol * abs(total)) * 0.5 or not math.isfinite(terr):
            return total, terr  # certified, or never will be: nan fails every test
        a = lo[worst]
        b = hi[worst]
        c = 0.5 * (a + b)
        if c <= a or c >= b:
            er[worst] = 0.0  # interval at floating resolution
            continue
        va[worst], er[worst] = _gk15(code, s, iparams, a, c)
        hi[worst] = c
        lo[m] = c
        hi[m] = b
        va[m], er[m] = _gk15(code, s, iparams, c, b)
        m += 1
    total = 0.0
    terr = 0.0
    for i in range(m):
        total += va[i]
        terr += er[i]
    return total, terr


def _panel_edges_small_t(u_lo):
    """Edges in u = log t from u_lo up to 0, coarse in the flat deep range."""
    pts = [0.0]
    u = 0.0
    while u > max(u_lo, -8.0):
        u = max(u - 1.0, u_lo)
        pts.append(u)
    while u > u_lo:
        u = max(u - 3.0, u_lo)
        pts.append(u)
    return np.array(pts[::-1])


def _panel_edges_large_t(depth=22):
    """Dyadic edges in v = 1/t on (0, 1]; the integrand peak for offset m
    sits near v ~ 4/|m|^2 and must be straddled by the initial grid."""
    pts = [1.0]
    for k in range(1, depth + 1):
        pts.append(2.0 ** (-k))
    pts.append(0.0)
    return np.array(pts[::-1])


@lru_cache(maxsize=None)
def _edges_cache(u_lo_key, depth):
    return _panel_edges_small_t(u_lo_key), _panel_edges_large_t(depth)


def _kernel_nd_impl(s, h, m_abs, tol, budget=1200):
    """Returns (value, err_estimate) for the kernel integral at offset m."""
    iparams = tuple(int(k) for k in m_abs)
    n1 = float(sum(iparams))
    lg_fact = float(sum(log_gamma(k + 1.0) for k in iparams))
    u_lo = -(60.0 + lg_fact) / (n1 - s)
    edges_a, edges_b = _edges_cache(round(u_lo, 3), 22)
    # coarse pass to fix the absolute scale, then refine against it
    va, ea = _adaptive(0, s, iparams, edges_a, 0.0, 1e-3, min(40, budget))
    vb, eb = _adaptive(1, s, iparams, edges_b, 0.0, 1e-3, min(60, budget))
    scale = abs(va) + abs(vb)
    target = 0.35 * tol * scale
    va, ea = _adaptive(0, s, iparams, edges_a, target, 0.0, min(400, budget))
    vb, eb = _adaptive(1, s, iparams, edges_b, target, 0.0, budget)
    pref = math.exp(_log_pref(s, h))
    val = pref * (va + vb)
    err = pref * (ea + eb)
    if not (math.isfinite(val) and err <= tol * abs(val) + 1e-300):
        raise ToleranceError(
            f"kernel quadrature stalled at relative error {err / max(abs(val), 1e-300):.3e}"
            f" (requested {tol:.3e})",
            achieved=err, requested=tol * abs(val))
    return val, err


def kernel_nd(params, m, tol=1e-10, budget=1200):
    """Kernel at offset m in any dimension by adaptive quadrature.

    Absolute error at most tol * value; raises ToleranceError (carrying the
    achieved estimate) when the refinement budget cannot certify that.
    """
    m_abs = [abs(int(x)) for x in np.atleast_1d(m)]
    if len(m_abs) != params.d:
        raise ValueError(f"offset has {len(m_abs)} components, expected d={params.d}")
    if sum(m_abs) == 0:
        raise ValueError("kernel_nd requires a nonzero offset")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    return _kernel_nd_impl(params.s, params.h, m_abs, tol, budget=budget)[0]


@lru_cache(maxsize=None)
def _kernel_mass_cached(s, h, d, tol):
    if d == 1:
        return 2.0 * _tail_1d_raw(s, h, 1.0)
    iparams = (d,)
    u_lo = -60.0 / (1.0 - s)
    edges_a, edges_b = _edges_cache(round(u_lo, 3), 22)
    va, ea = _adaptive(2, s, iparams, edges_a, 0.0, 1e-3, 40)
    vb, eb = _adaptive(3, s, iparams, edges_b, 0.0, 1e-3, 60)
    target = 0.35 * tol * (abs(va) + abs(vb))
    va, ea = _adaptive(2, s, iparams, edges_a, target, 0.0, 400)
    vb, eb = _adaptive(3, s, iparams, edges_b, target, 0.0, 1200)
    pref = math.exp(_log_pref(s, h))
    val = pref * (va + vb)
    err = pref * (ea + eb)
    if not (math.isfinite(val) and err <= tol * val):
        raise ToleranceError("kernel mass quadrature stalled", achieved=err)
    return val


def kernel_lattice_mass(params, tol=1e-12):
    """Total kernel mass sum_{m != 0} K(m); exact tails in d=1."""
    return _kernel_mass_cached(params.s, params.h, params.d, tol)


# --- heat kernels -------------------------------------------------------------


def heat_kernel(m, t):
    """Semidiscrete heat kernel G(m, t) = e^{-2dt} prod_i I_{m_i}(2t), in [0,1]."""
    if t < 0.0:
        raise ValueError("heat_kernel requires t >= 0")
    val = 1.0
    for mi in np.atleast_1d(m):
        val *= bessel_i_scaled(int(mi), 2.0 * t)
    return val


def _wrap_sums(n, x):
    """Row e^{-x} I_k(x), k = 0..m, and its wrap sums
    sum_l e^{-x} I_{|j + l n|}(x) for every torus coordinate j in [0, n-1].

    Orders past m = sqrt(90 x) + 2n are below e^{-45} and dropped."""
    m = int(math.sqrt(90.0 * x)) + 2 * n + 2
    row = np.empty(m + 1)
    bessel_i_scaled_row(m, x, row)
    k = np.arange(-m, m + 1)
    return row, np.bincount(k % n, weights=row[np.abs(k)], minlength=n)


def torus_heat_kernel(N, h, j, t, tol=1e-14, spectral=False):
    """Heat kernel of the discrete torus A^N_{h,d} at index offset j, time t > 0.

    Bessel wrap-sum form by default; ``spectral=True`` evaluates the
    equivalent Fourier form (cross-check path).  j may be an int (d=1) or a
    tuple; each component is reduced into {-N..N}.
    """
    if t <= 0.0:
        raise ValueError("torus_heat_kernel requires t > 0")
    n = 2 * N + 1
    x = 2.0 * t / (h * h)
    comps = [int(c) % n for c in np.atleast_1d(j)]
    if spectral:
        val = 1.0
        for c in comps:
            acc = 0.0
            for mm in range(-N, N + 1):
                ang = 2.0 * math.pi * mm / n
                acc += math.exp(-x * (1.0 - math.cos(ang))) * math.cos(ang * c)
            val *= acc / n
        return val
    wrap = _wrap_sums(n, x)[1]
    val = 1.0
    for c in comps:
        val *= wrap[c]
    return val


# --- torus kernel: Gamma-ratio series with certified remainders (d = 1) ------


def _arith_tail_remainder(s, h, n, a0):
    # Certified band for sum_{k >= 0} K(a0 + k n) using block convexity:
    # estimate (1/n) T(a0-(n-1)/2) - E/2 with |error| <= E/2,
    # E = ((n^2-1)/(8n)) (K(A) - K(A+1)) at A = a0 - (n-1)/2 - n.
    half = (n - 1) // 2
    l0 = a0 - half
    big_a = l0 - n
    if big_a < 1:
        return -1.0, -1.0
    e_tot = ((n * n - 1.0) / (8.0 * n)) * (
        _kernel_1d_raw(s, h, big_a) - _kernel_1d_raw(s, h, big_a + 1))
    est = _tail_1d_raw(s, h, float(l0)) / n - 0.5 * e_tot
    return est, 0.5 * e_tot


def _arith_tail_sum(s, h, n, a_start, tol_side):
    """sum_{k >= 0} K(a_start + k n) with certified absolute error <= tol_side."""
    k_req = 4
    while True:
        est, err = _arith_tail_remainder(s, h, n, a_start + k_req * n)
        if err >= 0.0 and err <= tol_side:
            break
        k_req *= 2
        if k_req > 1 << 40:
            return -1.0, -1.0
    total = 0.0
    kk = _kernel_1d_raw(s, h, a_start)
    m = a_start
    for _ in range(k_req):
        total += kk
        for _ in range(n):
            kk *= (m - s) / (m + 1.0 + s)
            m += 1
    return total + est, err


def _torus_kernel_series_1d(s, h, n, j, tol_abs):
    """Periodized 1D kernel sum_k K(j + k n), j reduced into [0, n-1].

    j = 0 returns the diagonal periodization (zero-offset term excluded).
    """
    if j == 0:
        v, e = _arith_tail_sum(s, h, n, n, 0.25 * tol_abs)
        return 2.0 * v, 2.0 * e
    v1, e1 = _arith_tail_sum(s, h, n, j, 0.25 * tol_abs)
    v2, e2 = _arith_tail_sum(s, h, n, n - j, 0.25 * tol_abs)
    return v1 + v2, e1 + e2


# --- torus kernel: heat-semigroup route (any d) -------------------------------


def _log_grid(s, u_hi):
    """Panel edges on the log-t axis: coarse deep left tail, fine center.

    The left end sits where the smallest offset's integrand e^{(1-s)u} is
    e^{-60}, but no lower than -700/s, so that e^{-s u} stays finite; t is
    below 1e-304 there and the integrands of all kept entries are negligible.
    """
    u_lo = max(-60.0 / (1.0 - s), -700.0 / s)
    edges = [u_lo]
    u = u_lo
    while u < min(-8.0, u_hi):
        u = min(u + 3.0, -8.0)
        edges.append(u)
    while u < min(0.0, u_hi):
        u = min(u + 0.75, 0.0)
        edges.append(u)
    while u < u_hi:
        u = min(u + 0.4, u_hi)
        edges.append(u)
    return np.array(edges)


def _grid_nodes_weights(edges, s):
    """Kronrod nodes t = e^u on the panels, with Kronrod-15 and embedded
    Gauss-7 weights for the measure t^{-1-s} dt = e^{-s u} du."""
    c = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * np.diff(edges)
    u = c[:, None] + hw[:, None] * XGK15
    measure = hw[:, None] * np.exp(-s * u)
    g7 = np.zeros(15)
    g7[1::2] = WG7
    return np.exp(u).ravel(), (WGK15 * measure).ravel(), (g7 * measure).ravel()


def _g0d_tail(d, s, T):
    """int_T^inf g_0(2t)^d t^{-1-s} dt, two asymptotic terms plus size of the next."""
    c = (4.0 * math.pi) ** (-0.5 * d)
    a1 = 0.5 * d + s
    a2 = a1 + 1.0
    val = c * (T ** (-a1) / a1 + (d / 16.0) * T ** (-a2) / a2)
    err = c * (9.0 * d * d / 512.0) * T ** (-a2 - 1.0) / (a2 + 1.0)
    return val, err


class _TorusKernelData:
    """Periodized torus kernel on {-N..N}^d plus the diagonal wrap value."""

    __slots__ = ("N", "d", "s", "h", "full", "diag", "err")

    def __init__(self, N, d, s, h, full, diag, err):
        self.N = N
        self.d = d
        self.s = s
        self.h = h
        self.full = full
        self.diag = diag
        self.err = err

    def value(self, offset):
        """Kernel at an integer offset (any representative; reduced mod 2N+1)."""
        n = 2 * self.N + 1
        idx = tuple((int(c) % n) for c in np.atleast_1d(offset))
        if all(i == 0 for i in idx):
            return self.diag
        return self.full[idx]


def _torus_table_heat(s, N, d, tol_abs, need_diag):
    if not 0.05 <= s <= 0.95:
        raise ValueError("heat-route torus tables support s in [0.05, 0.95]")
    n = 2 * N + 1
    pref = math.exp(_log_pref(s, 2.0 * math.pi / n))
    tol_u = tol_abs / pref
    # grow T until the uniform-plateau residual and the g_0^d tail error pass
    T = 256.0
    while True:
        wrow = _wrap_sums(n, 2.0 * T)[1][:N + 1]
        dev = np.abs(wrow - 1.0 / n).max()
        plateau_resid = (max(dev * d * n ** (-(d - 1)), 0.0)) * T ** (-s) / s
        _, g0_err = _g0d_tail(d, s, T)
        if plateau_resid <= 0.05 * tol_u and g0_err <= 0.05 * tol_u:
            break
        T *= 2.0
        if T > 1e8:
            raise ToleranceError("torus kernel plateau did not converge")
    ts, w15, w7 = _grid_nodes_weights(_log_grid(s, math.log(T)), s)
    W = np.empty((ts.size, N + 1))
    ring0 = np.empty(ts.size)
    g0row = np.empty(ts.size)
    for q, t in enumerate(ts):
        row, wrap = _wrap_sums(n, 2.0 * t)
        W[q] = wrap[:N + 1]
        ring0[q] = 2.0 * row[n::n].sum()
        g0row[q] = row[0]
    plateau = n ** (-d) * T ** (-s) / s

    if d == 1:
        v15 = W.T @ w15
        v7 = W.T @ w7
        orth = v15 + plateau
        err_q = float(np.abs(v15 - v7)[1:].max())
    elif d == 2:
        A15 = (W * w15[:, None]).T @ W
        A7 = (W * w7[:, None]).T @ W
        orth = A15 + plateau
        dq = np.abs(A15 - A7)
        dq[0, 0] = 0.0  # zero offset never read; its column integral diverges
        err_q = float(dq.max())
    else:
        raise ValueError("torus kernel tables support d <= 2")
    err = err_q + plateau_resid + 1e-18

    diag = 0.0
    diag_err = 0.0
    if need_diag:
        if d == 1:
            drow = ring0
        else:
            drow = ring0 * (W[:, 0] + g0row)
        g0t, g0te = _g0d_tail(d, s, T)
        d15 = float(drow @ w15)
        d7 = float(drow @ w7)
        diag = pref * (d15 + plateau - g0t)
        diag_err = pref * (abs(d15 - d7) + plateau_resid + g0te)

    # mirror the nonnegative orthant onto the full index cube {-N..N}^d
    idx = np.minimum(np.abs(np.arange(n)), n - np.abs(np.arange(n)))
    if d == 1:
        full = orth[idx] * pref
        full[0] = 0.0
    else:
        full = orth[np.ix_(idx, idx)] * pref
        full[0, 0] = 0.0
    return _TorusKernelData(N, d, s, 2.0 * math.pi / n, full, diag,
                            max(pref * err, diag_err))


def _torus_table_series(s, N, tol_abs, need_diag):
    n = 2 * N + 1
    h = 2.0 * math.pi / n
    vals = np.zeros(n)
    errs = 0.0
    for j in range(1, N + 1):
        v, e = _torus_kernel_series_1d(s, h, n, j, tol_abs)
        if not e >= 0:
            raise ToleranceError("torus kernel series remainder failed")
        vals[j] = v
        vals[n - j] = v
        errs = max(errs, e)
    diag = 0.0
    if need_diag:
        diag, e = _torus_kernel_series_1d(s, h, n, 0, tol_abs)
        errs = max(errs, e)
    return _TorusKernelData(N, 1, s, h, vals, diag, errs)


@lru_cache(maxsize=None)
def _torus_table_cached(s, N, d, tol_abs, need_diag, method):
    if method == "series":
        if d != 1:
            raise ValueError("the Gamma-ratio series route requires d = 1")
        table = _torus_table_series(s, N, tol_abs, need_diag)
    else:
        table = _torus_table_heat(s, N, d, tol_abs, need_diag)
    _require_finite(f"{method}-route torus kernel table", table.full, table.diag, table.err)
    return table


def torus_kernel_table(s, N, d=1, tol=1e-12, need_diag=False, method="auto"):
    """Build the full periodized kernel table for the torus {-N..N}^d.

    method: 'series' (Gamma-ratio route, d=1 only), 'heat' (semigroup
    integral route), or 'auto' (series in d=1, heat otherwise).  The zero
    offset entry of ``.full`` is 0; the diagonal wrap sum (all nonzero
    periodic copies of offset 0) is ``.diag`` when requested.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0,1)")
    if method == "auto":
        method = "series" if d == 1 else "heat"
    return _torus_table_cached(float(s), int(N), int(d), float(tol),
                               bool(need_diag), method)


def torus_kernel(params, N, j, tol=1e-12, method="auto"):
    """Periodized torus kernel at offset j != 0, mesh h = 2pi/(2N+1)."""
    n = 2 * N + 1
    h = 2.0 * math.pi / n
    if abs(params.h - h) > 1e-12 * h:
        raise ValueError(f"torus mesh must satisfy h = 2pi/(2N+1) = {h!r}")
    comps = [int(c) for c in np.atleast_1d(j)]
    if len(comps) != params.d:
        raise ValueError("offset dimension mismatch")
    if all(c % n == 0 for c in comps):
        raise ValueError("torus_kernel requires a nonzero offset")
    table = torus_kernel_table(params.s, N, params.d, tol, method=method)
    return table.value(comps)


# --- dense kernel tables on the lattice ---------------------------------------


@dataclass(frozen=True)
class KernelTable:
    """Kernel values for all offsets with |m|_inf <= radius.

    values has shape (2*radius+1,)**d indexed by offset + radius per axis;
    the zero offset holds 0.  tail_constant is the coefficient of the
    |m|^{-d-2s} model used for truncation certificates.
    """

    params: FracParams
    radius: int
    values: np.ndarray
    err: np.ndarray
    tail_constant: float

    def value(self, m):
        idx = tuple(int(c) + self.radius for c in np.atleast_1d(m))
        return self.values[idx]


def _tail_constant(params):
    s, h, d = params.s, params.h, params.d
    if d == 1:
        return math.exp(_log_c1(s, h))
    lg = (d * (d + 2.0 * s - 1.0) * math.log(2.0) + s * _LOG4
          + log_gamma(0.5 * d + s) - 0.5 * d * _LOG_PI + _log_pref(s, h))
    return math.exp(lg)


def build_kernel_table(params, radius, tol=1e-9):
    """Dense kernel cache up to the given sup-norm radius.

    d=1 uses the closed form; d=2 a shared log-t quadrature grid evaluated
    for all offsets at once (the per-offset route costs minutes at radius
    200); d=3 falls back to per-offset adaptive quadrature.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    s, h, d = params.s, params.h, params.d
    r = int(radius)
    if d == 1:
        vals = np.array([_kernel_1d_raw(s, h, m) for m in range(-r, r + 1)])
        return _kernel_table(params, r, vals, np.abs(vals) * 1e-14)
    if d == 3:
        shape = (2 * r + 1,) * 3
        vals = np.zeros(shape)
        errs = np.zeros(shape)
        for a in range(r + 1):
            for b in range(r + 1):
                for c in range(r + 1):
                    if a == b == c == 0:
                        continue
                    v, e = _kernel_nd_impl(s, h, [a, b, c], tol)
                    for sa in (a, -a):
                        for sb in (b, -b):
                            for sc in (c, -c):
                                vals[sa + r, sb + r, sc + r] = v
                                errs[sa + r, sb + r, sc + r] = e
        return _kernel_table(params, r, vals, errs)
    if d != 2:
        raise ValueError("kernel tables support d in {1, 2, 3}")

    if not 0.05 <= s <= 0.95:
        raise ValueError("shared-grid kernel tables support s in [0.05, 0.95]")
    T = max(4.0e4, 10.0 * (2.0 * r * r))
    ts, w15, w7 = _grid_nodes_weights(_log_grid(s, math.log(T)), s)
    G = np.empty((ts.size, r + 1))
    for q, t in enumerate(ts):
        bessel_i_scaled_row(r, 2.0 * t, G[q])
    A15 = (G * w15[:, None]).T @ G
    A7 = (G * w7[:, None]).T @ G
    # analytic tail over [T, inf): prod of two scaled-Bessel expansions
    aa = np.arange(r + 1, dtype=float) ** 2
    c1 = (4.0 * (aa[:, None] + aa[None, :]) - 2.0) / 16.0
    inv4pi = 1.0 / (4.0 * math.pi)
    tail = inv4pi * (T ** (-1.0 - s) / (1.0 + s) - c1 * T ** (-2.0 - s) / (2.0 + s))
    tail_err = inv4pi * (c1 * c1) * T ** (-3.0 - s) / (3.0 + s)
    pref = math.exp(_log_pref(s, h))
    orth = pref * (A15 + tail)
    orth_err = pref * (np.abs(A15 - A7) + tail_err)
    orth[0, 0] = 0.0
    orth_err[0, 0] = 0.0
    idx = np.abs(np.arange(-r, r + 1))
    return _kernel_table(params, r, orth[np.ix_(idx, idx)], orth_err[np.ix_(idx, idx)])


def _kernel_table(params, radius, vals, errs):
    _require_finite(f"kernel table (d={params.d}, radius {radius})", vals, errs)
    return KernelTable(params, radius, vals, errs, _tail_constant(params))


@lru_cache(maxsize=None)
def _tail_bound_ell1_cached(s, h, d, radius):
    # certified-flavored bound for sum over |m|_1 > radius of K(m):
    # Appendix-style pointwise bound summed with exact ell^1 shell counts to
    # P, integral comparison beyond, then doubled for safety.
    c = _tail_constant(FracParams(s, h, d))
    big_p = max(100000, 4 * radius)
    total = 0.0
    ratio = gamma_ratio(radius + 1.0 - s, radius + 1.0 + d + s)
    m = radius + 1
    for rho in range(radius + 1, big_p):
        if d == 1:
            cnt = 2.0
        elif d == 2:
            cnt = 4.0 * rho
        else:
            cnt = 4.0 * rho * rho + 2.0
        total += cnt * ratio
        ratio *= (m - s) / (m + d + s)
        m += 1
    # power-law continuation of the last ratio beyond P
    if d == 1:
        rem = 2.0 * ratio * big_p / (2.0 * s)
    elif d == 2:
        rem = 4.0 * ratio * big_p * big_p / (2.0 * s)
    else:
        rem = 4.0 * ratio * big_p ** 3 / (1.0 + 2.0 * s)
    return 2.0 * c * (total + 1.05 * rem)


def kernel_tail_bound_ell1(params, radius):
    """Upper bound for sum_{|m|_1 > radius} K(m) (safety factor 2 included)."""
    return _tail_bound_ell1_cached(params.s, params.h, params.d, int(radius))
