"""Kernels of the fractional discrete Laplacian.

The nonlocal operator on the mesh (hZ)^d is a kernel sum
``sum_m (u_j - u_m) K(j - m)`` with positive, even, summable weights K.
In one dimension K has a closed Gamma-ratio form; in every dimension it is
the heat-semigroup integral of a product of scaled modified Bessel functions
against ``t^{-1-s} dt``.  One evaluator computes that integral for a whole
batch of offsets (and the total mass) on a single fixed log-t Gauss-Kronrod
grid, with analytic small-t head and large-t tail and a certified error per
entry; kernel_nd, the d=2 and d=3 tables, the lattice operator and the UCP
systems all use it.  Arbitrary offsets gather their products from the grid's
Bessel matrix; the dense tables cover a full box, whose quadrature is a
weighted Gram product of that matrix.  The module also holds exact 1D tail
sums, the periodized kernel of the discrete torus (Gamma-ratio series, and
heat-route tables that integrate the wrap sums on the same grid up to the
time T where they have flattened to their plateau) and the semidiscrete
heat kernels, each with explicit error control.

Everything here is immutable after construction and safe to read
concurrently.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .specfun import (
    WG7,
    WGK15,
    XGK15,
    _bessel_sweep,
    bessel_i_scaled,
    bessel_i_scaled_row,
    gamma_ratio,
    gamma_ratio_shifted,
    log_abs_gamma_neg,
    log_gamma,
)

_LOG_PI = 1.1447298858494001741434273514
_LOG4 = 1.3862943611198906188344642429
# entries kept by each memoised mass and torus table: the warm-operator
# benchmark pool reads about 9 table keys, and a bound caps a long session
_CACHE_SIZE = 32


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


def _pref(s, h):
    # h^{-2s} / |Gamma(-s)| as a product; exp(_log_pref) carries ~|log s| ulps
    return h ** (-2.0 * s) * math.sin(math.pi * min(s, 1.0 - s)) * math.gamma(1.0 + s) / math.pi


def _log_c1(s, h):
    # log of 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)| h^{2s})
    return s * _LOG4 + log_gamma(0.5 + s) - 0.5 * _LOG_PI + _log_pref(s, h)


def _kernel_1d_raw(s, h, m):
    """K(m) by the closed form c1 Gamma(|m|-s)/Gamma(|m|+1+s) at an integer
    or an integer array m (0 at m = 0); a scalar m is the batch of one."""
    a = np.abs(np.asarray(m, dtype=float))
    out = math.exp(_log_c1(s, h)) * gamma_ratio_shifted(np.maximum(a, 1.0), -s, 1.0 + s)
    out = np.where(a == 0.0, 0.0, out)
    return out if out.ndim else float(out)


def _tail_1d_raw(s, h, big_m):
    """sum_{m >= M} K(m) at an integer or an integer array M >= 1, by the
    telescoping identity Gamma(m-s)/Gamma(m+1+s) = (1/2s)[Gamma(m-s)/Gamma(m+s)
    - the same at m + 1]; a scalar M is the batch of one."""
    return math.exp(_log_c1(s, h)) * gamma_ratio_shifted(big_m, -s, s) / (2.0 * s)


def kernel_1d(params, m):
    """Closed-form 1D kernel value at lattice offset m (0 at m = 0); an
    integer array of offsets gives an array."""
    if params.d != 1:
        raise ValueError("kernel_1d requires d = 1")
    return _kernel_1d_raw(params.s, params.h, np.asarray(m, dtype=np.int64))


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
    return math.exp(_log_bound_pref(s, h, d)) * gamma_ratio(n1 - s, n1 + d + s)


def _log_bound_pref(s, h, d):
    # log of h^{-2s} 2^{d(d+2s-1)} 4^s Gamma(d/2+s) / (pi^{d/2} |Gamma(-s)|)
    return (d * (d + 2.0 * s - 1.0) * math.log(2.0) + s * _LOG4
            + log_gamma(0.5 * d + s) - 0.5 * d * _LOG_PI + _log_pref(s, h))


def kernel_tail_bound_ell1(params, radius):
    """Upper bound for sum_{|m|_1 > radius} K(m), d <= 3.

    d = 1: the exact tail 2 T(radius + 1).  d = 2, 3: the ell^1-shell sum
    of kernel_nd_bound, sum_{rho > radius} n_d(rho) Gamma(rho-s)/Gamma(rho+d+s),
    in closed form.  With x = rho - s the shell counts are n_2 = 4 rho =
    4x + 4s and n_3 = 4 rho^2 + 2 = 4x(x+1) + 4(2s-1)x + 4s^2 + 2, so the
    summand is a sum of c_k Gamma(rho-s+k)/Gamma(rho+d+s), k < d, and each
    of those sums by

        sum_{rho >= R} Gamma(rho+a)/Gamma(rho+b) = Gamma(R+a)/((b-a-1) Gamma(R+b-1)).
    """
    s, h, d = params.s, params.h, params.d
    big_r = int(radius) + 1
    if big_r < 1:
        raise ValueError("radius must be >= 0")
    if d == 1:
        return 2.0 * _tail_1d_raw(s, h, float(big_r))
    if d == 2:
        coefs = (4.0 * s, 4.0)
    elif d == 3:
        coefs = (4.0 * s * s + 2.0, 4.0 * (2.0 * s - 1.0), 4.0)
    else:
        raise ValueError("the ell^1 tail bound supports d in {1, 2, 3}")
    k = np.arange(d)
    sums = gamma_ratio_shifted(big_r, k - s, d + s - 1.0) / (d - 1.0 - k + 2.0 * s)
    return math.exp(_log_bound_pref(s, h, d)) * float(np.dot(coefs, sums))


# --- the heat-semigroup integral on one shared grid ---------------------------
#
# K(m) = h^{-2s} / |Gamma(-s)| int_0^inf prod_i g_{m_i}(2t) t^{-1-s} dt with
# g_n(x) = e^{-x} I_n(x) (Ciaurri, Roncal, Stinga, Torrea & Varona, Adv. Math.
# 330, 2018).  One log-t Gauss-Kronrod grid on [t0, T] serves a whole batch
# of offsets and the mass integrand; [0, t0] and [T, inf) are integrated
# analytically.

_LOG_T0 = -40.0
_T0 = math.exp(_LOG_T0)
# relative rounding floor of every certified error: e^u and e^{-s u} at
# |u| <= 40 carry up to ~40 ulps per node, and the measured deviation of the
# kernel from its mpmath value stays below 8 ulps
_ROUNDING = 32.0 * np.finfo(float).eps
# entries per array of a batched build: Bessel-product gathers, wrap-sum rows
_BATCH = 1 << 18


def _shared_grid(s, d, big_a, tol):
    """T and the Kronrod nodes and weights of the log-t grid on [t0, T].

    big_a bounds the tail coefficients of the batch (|c1| <= big_a,
    |c2| <= big_a^2), so the two-term tail beyond T misses about
    (big_a / T)^{d/2+s+2} of a value, which this T keeps near tol/20."""
    T = big_a * max(100.0, (0.05 * tol) ** (-1.0 / (0.5 * d + s + 2.0)))
    return (T, *_grid_nodes_weights(_log_grid(math.log(T)), s))


def _certified(what, val, err, tol):
    """val, after checking err <= tol * val entrywise; a nan or inf never passes."""
    val, err = np.atleast_1d(val, err)
    bad = np.flatnonzero(~(np.isfinite(val) & (err <= tol * val)))
    if bad.size:
        i = bad[0]
        raise ToleranceError(
            f"{what} missed its tolerance: relative error {err[i] / val[i]:.3e}"
            f" (requested {tol:.3e})", achieved=float(err[i]), requested=float(tol * val[i]))
    return val


def kernel_values(params, offsets, tol=1e-10):
    """Kernel and its certified absolute error at a batch of nonzero offsets,
    the rows of a (B, d) array, as two arrays of length B.

    One shared-grid quadrature of the heat-semigroup integral serves the
    whole batch in any dimension.  Raises ToleranceError, carrying the
    achieved error, unless every error is at most tol * value.
    """
    m = np.abs(np.asarray(offsets, dtype=np.int64))
    if m.ndim != 2 or m.shape[1] != params.d:
        raise ValueError(f"offsets must have shape (B, {params.d}), got {m.shape}")
    if not m.any(axis=1).all():
        raise ValueError("the kernel quadrature requires nonzero offsets")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if m.size == 0:
        return np.zeros(0), np.zeros(0)
    T, w15, w7, G = _kernel_grid(params, float((m * m).sum(axis=1).max()), int(m.max()), tol)
    q15 = np.empty(len(m))
    q7 = np.empty(len(m))
    step = max(1, _BATCH // (G.shape[0] * params.d))
    for lo in range(0, len(m), step):
        F = G[:, m[lo:lo + step]].prod(axis=2)
        q15[lo:lo + step] = w15 @ F
        q7[lo:lo + step] = w7 @ F
    return _kernel_finish(params, m, T, q15, q7, tol)


def _kernel_grid(params, msq_max, nmax, tol):
    """T, the Kronrod and Gauss weights of the shared grid for offsets with
    |m|^2 <= msq_max, and its Bessel matrix G[q, k] = g_k(2 t_q), k <= nmax,
    from one vectorised call over nodes x orders."""
    big_a = (4.0 * msq_max + 9.0 * params.d) / 16.0
    T, ts, w15, w7 = _shared_grid(params.s, params.d, big_a, tol)
    G = np.empty((ts.size, nmax + 1))
    bessel_i_scaled_row(nmax, 2.0 * ts[:, None], G)
    return T, w15, w7, G


def _kernel_finish(params, m, T, q15, q7, tol):
    """Certified kernel values and errors at the nonzero offsets m, a (B, d)
    array, from their Kronrod and Gauss sums q15, q7 over the grid [t0, T]."""
    s, d = params.s, params.d
    a = 0.5 * d + s
    n1 = m.sum(axis=1)
    msq = (m * m).sum(axis=1).astype(float)
    # [0, t0]: prod_i g_{m_i}(2t) = t^{|m|_1} / prod_i m_i! (1 - theta), 0 <= theta <= 2dt
    head = np.exp((n1 - s) * _LOG_T0 - gammaln(m + 1.0).sum(axis=1)) / (n1 - s)
    # [T, inf): prod_i g_{m_i}(2t) = (4 pi t)^{-d/2} (1 - c1/t + c2/t^2 - ...)
    c = (4.0 * math.pi) ** (-0.5 * d)
    c1 = (4.0 * msq - d) / 16.0
    big_a = (4.0 * msq + 9.0 * d) / 16.0
    tail = c * (T ** -a / a - c1 * T ** (-a - 1.0) / (a + 1.0))
    tail_err = 2.0 * c * big_a ** 2 * T ** (-a - 2.0) / (a + 2.0)
    total = head + q15 + tail
    err = np.abs(q15 - q7) + 2.0 * d * _T0 * head + tail_err + _ROUNDING * total
    pref = _pref(s, params.h)
    return _certified("kernel quadrature", pref * total, pref * err, tol), pref * err


def _orthant_sums(G, w, d):
    """sum_q w_q prod_i G[q, m_i] for every m in the box {0..nmax}^d, as a
    weighted Gram product of the matrix G (a weighted column sum at d = 1)."""
    Gw = w[:, None]
    for _ in range(d - 1):
        Gw = (Gw[:, :, None] * G[:, None, :]).reshape(len(G), -1)
    return (Gw.T @ G).reshape((G.shape[1],) * d)


def kernel_nd(params, m, tol=1e-10):
    """Kernel at offset m in any dimension by the heat-semigroup quadrature.

    Absolute error at most tol * value; raises ToleranceError (carrying the
    achieved estimate) when that cannot be certified.
    """
    return float(kernel_values(params, [np.atleast_1d(m)], tol)[0][0])


def _one_minus_g0(x, g0):
    """1 - e^{-x} I_0(x) from g0 = e^{-x} I_0(x), cancellation-free for small x.

    Below x = 0.5 it is -expm1(-x) - e^{-x} sum_{k>=1} (x/2)^{2k} / (k!)^2;
    the direct difference loses all digits below x ~ 1e-8, and the mass
    integrand amplifies that roundoff exponentially."""
    y = 0.25 * np.minimum(x, 0.5) ** 2
    term = np.ones_like(x)
    series = np.zeros_like(x)
    for k in range(1, 10):
        term = term * y / (k * k)
        series += term
    return np.where(x < 0.5, -np.expm1(-x) - np.exp(-x) * series, 1.0 - g0)


@lru_cache(maxsize=_CACHE_SIZE)
def _kernel_mass_cached(s, h, d, tol):
    if d == 1:
        return 2.0 * _tail_1d_raw(s, h, 1.0)
    T, ts, w15, w7 = _shared_grid(s, d, 9.0 * d / 16.0, tol)
    g0 = np.empty((ts.size, 1))
    bessel_i_scaled_row(0, 2.0 * ts[:, None], g0)
    f = -np.expm1(d * np.log1p(-_one_minus_g0(2.0 * ts, g0[:, 0])))  # 1 - g_0(2t)^d
    q15 = float(w15 @ f)
    q7 = float(w7 @ f)
    # [0, t0]: 1 - g_0(2t)^d = 2dt (1 - theta), 0 <= theta <= 2dt;
    # [T, inf): int t^{-1-s} dt minus the g_0^d tail
    head = 2.0 * d * _T0 ** (1.0 - s) / (1.0 - s)
    g0_tail, g0_tail_err = _g0d_tail(d, s, T)
    total = head + q15 + T ** -s / s - g0_tail
    err = abs(q15 - q7) + 2.0 * d * _T0 * head + g0_tail_err + _ROUNDING * total
    pref = _pref(s, h)
    return float(_certified("kernel mass quadrature", pref * total, pref * err, tol)[0])


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


def _wrap_order(n, x):
    """The order cut-off of the wrap sums at argument x (a scalar or array):
    orders past sqrt(90 x) + 2n + 2 are below e^{-45}."""
    return np.sqrt(90.0 * np.asarray(x)).astype(np.int64) + 2 * n + 2


def _wrap_fold(n, m):
    """fold[|k|, k mod n] counts the orders k in [-m, m] that wrap onto each
    torus coordinate j in [0, n-1]."""
    k = np.arange(-m, m + 1)
    fold = np.zeros((m + 1, n))
    np.add.at(fold, (np.abs(k), k % n), 1.0)
    return fold


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
    wrap = _heat_wraps(n, N, np.array([x]))[0]
    val = 1.0
    for c in comps:
        val *= wrap[min(c, n - c)]
    return val


# --- torus kernel: Gamma-ratio series with certified remainders (d = 1) ------


def _residue_remainders(s, h, n, a0):
    """Certified bands for sum_{k >= 0} K(a0 + k n) at an array of starts a0
    by block convexity: the estimate (1/n) T(a0 - (n-1)/2) - E/2, |error| <=
    E/2, E = ((n^2-1)/(8n)) (K(A) - K(A+1)) at A = a0 - (n-1)/2 - n >= 1,
    with K(A) - K(A+1) = K(A) (1+2s)/(A+1+s) free of cancellation."""
    l0 = a0 - (n - 1) // 2
    big_a = l0 - n
    e_tot = ((n * n - 1.0) / (8.0 * n)) * (
        _kernel_1d_raw(s, h, big_a) * (1.0 + 2.0 * s) / (big_a + 1.0 + s))
    return _tail_1d_raw(s, h, l0) / n - 0.5 * e_tot, 0.5 * e_tot


# --- torus kernel: heat-semigroup route (any d) -------------------------------


def _log_grid(u_hi):
    """Panel edges on the log-t axis from log t0 to u_hi: coarse deep left
    tail, fine center."""
    edges = [_LOG_T0]
    u = _LOG_T0
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
    """int_T^inf g_0(2t)^d t^{-1-s} dt: two asymptotic terms, and twice the
    third as the bound on the rest.

    g_0(2t)^d = (4 pi t)^{-d/2} (1 + d/(16t) + (d^2 + 8d)/(512 t^2) + ...)
    has positive terms, so the rest exceeds the third term (at d = 1 the
    diagonal's deviation passed that bound by up to 4e-4 of it); from
    t = 100 on, the terms after it add under 1% to it."""
    c = (4.0 * math.pi) ** (-0.5 * d)
    a1 = 0.5 * d + s
    a2 = a1 + 1.0
    val = c * (T ** (-a1) / a1 + (d / 16.0) * T ** (-a2) / a2)
    err = c * ((d * d + 8.0 * d) / 256.0) * T ** (-a2 - 1.0) / (a2 + 1.0)
    return val, err


class _TorusKernelData:
    """Periodized torus kernel on {-N..N}^d plus the diagonal wrap value.

    For a heat-route table, T is the time where the quadrature stopped and
    nodes the number of quadrature nodes; both are None for the series route.
    """

    __slots__ = ("N", "d", "s", "h", "full", "diag", "err", "T", "nodes")

    def __init__(self, N, d, s, h, full, diag, err, T=None, nodes=None):
        self.N = N
        self.d = d
        self.s = s
        self.h = h
        self.full = full
        self.diag = diag
        self.err = err
        self.T = T
        self.nodes = nodes

    def value(self, offset):
        """Kernel at an integer offset (any representative; reduced mod 2N+1).

        The zero offset gives the diagonal wrap value ``.diag``.  An integer
        array of shape (B, d), or (..., d), is a batch of offsets and gives
        an array of shape (B,), or (...), by one gather; a single offset is
        the batch of one."""
        if np.ndim(offset) < 2:
            return float(self.value(np.reshape(offset, (1, -1)))[0])
        idx = np.moveaxis(np.asarray(offset) % (2 * self.N + 1), -1, 0)
        if idx.shape[0] != self.d:
            raise ValueError("offset dimension mismatch")
        out = self.full[tuple(idx)]
        out[~idx.any(axis=0)] = self.diag
        return out


def _heat_wraps(n, N, x):
    """Wrap sums j = 0..N, the ring 2 sum_{l >= 1} e^{-x} I_{ln}(x) and
    e^{-x} I_0(x) at ascending arguments x, as (x.size, N + 3) columns.  Each
    row starts at its own wrap order; chunks of at most _BATCH entries are
    swept from the largest argument down, and folded before they are scaled."""
    m = _wrap_order(n, x)
    k = np.arange(m[-1] + 1)
    fold = np.column_stack((_wrap_fold(n, k[-1])[:, :N + 1], 2.0 * (k % n == 0) * (k > 0), k == 0))
    out = np.empty((x.size, N + 3))
    hi = x.size
    while hi:
        lo = max(0, hi - max(1, _BATCH // int(m[hi - 1] + 1)))
        y, scale = _bessel_sweep(m[lo:hi], x[lo:hi])
        np.multiply(y.T @ fold[:len(y)], scale[:, None], out=out[lo:hi])
        hi = lo
    return out


def _torus_table_heat(s, N, d, tol_abs, need_diag):
    """Heat-route torus table, d <= 3: the semigroup integral of the wrap
    sums on the shared grid [t0, T] of kernel_values, the analytic head of
    each offset's minimum image below t0, and the plateau n^{-d} beyond T.

    T is the first doubling from 256 whose wrap row is flat to within the
    plateau bound.  Only the diagonal wrap value needs the g_0^d tail, so
    only a table with need_diag first doubles until that analytic bound
    passes.  The leading Fourier term (2/n) e^{-2T(1 - cos 2pi/n)} bounds the
    row's deviation below, so no doubling it fails is swept; the row at 2T,
    the table's largest argument, joins the nodes' sweep, and if it fails T
    doubles and the sweep is redone."""
    if d not in (1, 2, 3):
        raise ValueError("torus kernel tables support d in {1, 2, 3}")
    n = 2 * N + 1
    pref = _pref(s, 2.0 * math.pi / n)
    goal = 0.05 * tol_abs / pref
    resid_per_dev = d * n ** (1.0 - d) / s  # plateau residual / (row deviation T^{-s})
    T = 256.0
    while True:
        if T > 1e8:
            raise ToleranceError("torus kernel plateau did not converge")
        lead = resid_per_dev * T ** -s * (2.0 / n) * math.exp(-4.0 * T * math.sin(math.pi / n) ** 2)
        # the g_0^d tail bound and the leading term are analytic: no sweep until both pass
        if lead <= goal and not (need_diag and _g0d_tail(d, s, T)[1] > goal):
            ts, w15, w7 = _grid_nodes_weights(_log_grid(math.log(T)), s)
            cols = _heat_wraps(n, N, 2.0 * np.append(ts, T))
            dev = float(np.abs(cols[-1, :N + 1] - 1.0 / n).max())
            plateau_resid = resid_per_dev * dev * T ** -s
            if plateau_resid <= goal:
                break
        T *= 2.0
    W, ring0, g0row = cols[:-1, :N + 1], cols[:-1, N + 1], cols[:-1, N + 2]
    plateau = n ** (-d) * T ** (-s) / s

    # [0, t0]: the wrap product is t^{|j|_1} / prod_i j_i! (1 + theta), |theta|
    # <= 2dt, its other images t^{n - 2 j_i} j_i! / (n - j_i)! <= t relative
    j = np.indices((N + 1,) * d)
    n1 = j.sum(axis=0)
    head = np.exp((n1 - s) * _LOG_T0 - gammaln(j + 1.0).sum(axis=0)) / (n1 - s)
    q15 = _orthant_sums(W, w15, d)
    orth = q15 + head + plateau
    dq = np.abs(q15 - _orthant_sums(W, w7, d)) + 2.0 * d * _T0 * head + _ROUNDING * orth
    # the zero offset is never read; its integral diverges
    err = float(dq.ravel()[1:].max()) + plateau_resid + 1e-18

    diag = diag_err = 0.0
    if need_diag:
        # W_0^d - g_0^d = ring0 sum_i W_0^i g_0^{d-1-i}; below t0 it is at
        # most 2d t^n / n!
        drow = ring0 * sum(W[:, 0] ** i * g0row ** (d - 1 - i) for i in range(d))
        g0t, g0te = _g0d_tail(d, s, T)
        d15 = float(drow @ w15)
        d7 = float(drow @ w7)
        diag_head = 2.0 * d * math.exp((n - s) * _LOG_T0 - math.lgamma(n + 1.0)) / (n - s)
        diag = pref * (d15 + plateau - g0t)
        diag_err = pref * (abs(d15 - d7) + plateau_resid + g0te + diag_head
                           + _ROUNDING * (d15 + plateau))

    # mirror the nonnegative orthant onto the full index cube {-N..N}^d
    idx = np.minimum(np.arange(n), n - np.arange(n))
    full = orth[np.ix_(*(idx,) * d)] * pref
    full[(0,) * d] = 0.0
    return _TorusKernelData(N, d, s, 2.0 * math.pi / n, full, diag,
                            max(pref * err, diag_err), T, ts.size)


def _torus_table_series(s, N, tol_abs, need_diag):
    """Gamma-ratio route (d = 1): S(a) = sum_{k >= 0} K(a + k n) for all
    residues a = 1..n at once; entry j is S(j) + S(n - j), ``.diag`` 2 S(n).

    One doubling search finds k_req, after which every residue's remainder
    band is within tol_abs/4 (residue 1 binds).  K(m), m = 1..k_req n, is a
    running product of K(m+1)/K(m) = (m-s)/(m+1+s) over chunks of at most
    2^16 entries, each a multiple of n and seeded from the closed form; each
    chunk reshaped to (., n) adds its column sums to every residue."""
    n = 2 * N + 1
    h = 2.0 * math.pi / n
    k_req = 4
    while True:
        est, err = _residue_remainders(s, h, n, np.arange(1, n + 1) + k_req * n)
        if err.max() <= 0.25 * tol_abs:
            break
        k_req *= 2
        if k_req > 1 << 40:
            raise ToleranceError("torus kernel series remainder failed")
    chunk = n * max(1, (1 << 16) // n)
    starts = np.arange(1, k_req * n + 1, chunk)
    sums = np.zeros(n)
    for m0, seed in zip(starts.tolist(), _kernel_1d_raw(s, h, starts).tolist()):
        q = m0 - 1.0 + np.arange(min(chunk, k_req * n + 1 - m0))
        q = (q - s) / (q + 1.0 + s)
        q[0] = seed
        sums += np.cumprod(q).reshape(-1, n).sum(axis=0)
    sums += est
    vals = np.zeros(n)
    vals[1:] = sums[:-1] + sums[-2::-1]
    errs = np.max(err[:-1] + err[-2::-1], initial=0.0)
    diag = 0.0
    if need_diag:
        diag = 2.0 * float(sums[-1])
        errs = max(errs, 2.0 * err[-1])
    return _TorusKernelData(N, 1, s, h, vals, diag, float(errs))


@lru_cache(maxsize=_CACHE_SIZE)
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
    the zero offset holds 0; err holds the certified absolute error of each
    value.
    """

    params: FracParams
    radius: int
    values: np.ndarray
    err: np.ndarray

    def value(self, m):
        idx = tuple(int(c) + self.radius for c in np.atleast_1d(m))
        return self.values[idx]


def build_kernel_table(params, radius, tol=1e-9):
    """Dense kernel cache up to the given sup-norm radius.

    d=1 uses the closed form; d=2 and 3 integrate the nonnegative orthant,
    a full box, on the shared grid of kernel_values (same T, nodes, error
    terms and certificate) by a Gram product of its Bessel matrix, and
    mirror it.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    s, h, d = params.s, params.h, params.d
    r = int(radius)
    if d == 1:
        vals = _kernel_1d_raw(s, h, np.arange(-r, r + 1))
        return _kernel_table(params, r, vals, np.abs(vals) * 1e-14)
    if d not in (2, 3):
        raise ValueError("kernel tables support d in {1, 2, 3}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    T, w15, w7, G = _kernel_grid(params, float(d * r * r), r, tol)
    vals = np.zeros((r + 1,) * d)
    errs = np.zeros((r + 1,) * d)
    vals.flat[1:], errs.flat[1:] = _kernel_finish(
        params, np.indices(vals.shape).reshape(d, -1).T[1:], T,
        _orthant_sums(G, w15, d).ravel()[1:], _orthant_sums(G, w7, d).ravel()[1:], tol)
    mirror = np.ix_(*(np.abs(np.arange(-r, r + 1)),) * d)
    return _kernel_table(params, r, vals[mirror], errs[mirror])


def _kernel_table(params, radius, vals, errs):
    _require_finite(f"kernel table (d={params.d}, radius {radius})", vals, errs)
    return KernelTable(params, radius, vals, errs)
