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
sums, the periodized kernel of the discrete torus (Gamma-ratio series and
heat-route tables) and the semidiscrete heat kernels, each with explicit
error control.  The heat-route table builds its Bessel rows one panel of
nodes at a time, and integrates only to the time T where the wrap sums have
flattened to their plateau; a table that also needs the diagonal wrap value
integrates on until the tail of g_0(2t)^d is certified too.

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


def _shared_grid(s, d, big_a, tol):
    """T and the Kronrod nodes and weights of the log-t grid on [t0, T].

    big_a bounds the tail coefficients of the batch (|c1| <= big_a,
    |c2| <= big_a^2), so the two-term tail beyond T misses about
    (big_a / T)^{d/2+s+2} of a value, which this T keeps near tol/20."""
    T = big_a * max(100.0, (0.05 * tol) ** (-1.0 / (0.5 * d + s + 2.0)))
    return (T, *_grid_nodes_weights(_log_grid(_LOG_T0, math.log(T)), s))


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
    step = max(1, (1 << 18) // (G.shape[0] * params.d))
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
    pref = math.exp(_log_pref(s, params.h))
    return _certified("kernel quadrature", pref * total, pref * err, tol), pref * err


def _orthant_sums(G, w, d):
    """sum_q w_q prod_i G[q, m_i] for every m in the box {0..nmax}^d, d = 2
    or 3, as a weighted Gram product of the Bessel matrix G."""
    Gw = G * w[:, None]
    if d == 3:
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


@lru_cache(maxsize=None)
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
    pref = math.exp(_log_pref(s, h))
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


def _wrap_sums(n, x):
    """Rows e^{-x} I_k(x), k = 0..m, and their wrap sums
    sum_l e^{-x} I_{|j + l n|}(x) for every torus coordinate j in [0, n-1].

    x is a scalar, giving one row and one wrap vector, or a 1-d array of
    arguments, giving one of each per argument from a single broadcast Bessel
    call; the fold onto the torus is a matmul.  Orders past
    m = sqrt(90 max x) + 2n are below e^{-45} and dropped."""
    x = np.asarray(x, dtype=float)
    m = int(math.sqrt(90.0 * x.max())) + 2 * n + 2
    rows = np.empty(x.shape + (m + 1,))
    bessel_i_scaled_row(m, x[..., None], rows)
    # fold[|k|, k mod n] counts the orders k in [-m, m] that wrap onto each j
    k = np.arange(-m, m + 1)
    fold = np.zeros((m + 1, n))
    np.add.at(fold, (np.abs(k), k % n), 1.0)
    return rows, rows @ fold


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
    # K(a_start + k n) for k < k_req by the ratio K(m+1)/K(m) = (m-s)/(m+1+s),
    # as running products over chunks whose lengths are multiples of n
    total = 0.0
    kk = _kernel_1d_raw(s, h, a_start)
    chunk = n * max(1, (1 << 16) // n)
    for lo in range(0, k_req * n, chunk):
        m = a_start + lo + np.arange(min(chunk, k_req * n - lo), dtype=float)
        run = kk * np.cumprod((m - s) / (m + 1.0 + s))  # run[i] = K(m[i] + 1)
        total += kk + float(run[n - 1:-1:n].sum())
        kk = float(run[-1])
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


def _log_grid(u_lo, u_hi):
    """Panel edges on the log-t axis from u_lo to u_hi: coarse deep left
    tail, fine center."""
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
        """Kernel at an integer offset (any representative; reduced mod 2N+1)."""
        n = 2 * self.N + 1
        idx = tuple((int(c) % n) for c in np.atleast_1d(offset))
        if all(i == 0 for i in idx):
            return self.diag
        return self.full[idx]


def _torus_table_heat(s, N, d, tol_abs, need_diag):
    """Heat-route torus table: the semigroup integral of the wrap sums on a
    log-t grid up to T, plus the plateau n^{-d} beyond T.

    T doubles until the plateau residual passes; the error of the g_0^d tail
    enters only the diagonal wrap value, so only a table with need_diag also
    waits for it (up to 32 times larger T at tol 1e-12 and N = 8, 16).  The
    Bessel rows are built one Kronrod panel of consecutive nodes at a time."""
    if not 0.05 <= s <= 0.95:
        raise ValueError("heat-route torus tables support s in [0.05, 0.95]")
    n = 2 * N + 1
    pref = math.exp(_log_pref(s, 2.0 * math.pi / n))
    tol_u = tol_abs / pref
    T = 256.0
    while True:
        wrow = _wrap_sums(n, 2.0 * T)[1][:N + 1]
        dev = np.abs(wrow - 1.0 / n).max()
        plateau_resid = (max(dev * d * n ** (-(d - 1)), 0.0)) * T ** (-s) / s
        g0_err = _g0d_tail(d, s, T)[1] if need_diag else 0.0
        if plateau_resid <= 0.05 * tol_u and g0_err <= 0.05 * tol_u:
            break
        T *= 2.0
        if T > 1e8:
            raise ToleranceError("torus kernel plateau did not converge")
    # The left end sits where the smallest offset's integrand e^{(1-s)u} is
    # e^{-60}, but no lower than -700/s, so that e^{-s u} stays finite; t is
    # below 1e-304 there and the integrands of all kept entries are negligible.
    u_lo = max(-60.0 / (1.0 - s), -700.0 / s)
    ts, w15, w7 = _grid_nodes_weights(_log_grid(u_lo, math.log(T)), s)
    W = np.empty((ts.size, N + 1))
    ring0 = np.empty(ts.size)
    g0row = np.empty(ts.size)
    panel = XGK15.size
    for lo in range(0, ts.size, panel):
        rows, wrap = _wrap_sums(n, 2.0 * ts[lo:lo + panel])
        W[lo:lo + panel] = wrap[:, :N + 1]
        ring0[lo:lo + panel] = 2.0 * rows[:, n::n].sum(axis=1)
        g0row[lo:lo + panel] = rows[:, 0]
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
                            max(pref * err, diag_err), T, ts.size)


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
        vals = np.array([_kernel_1d_raw(s, h, m) for m in range(-r, r + 1)])
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
    return KernelTable(params, radius, vals, errs, _tail_constant(params))


@lru_cache(maxsize=None)
def _tail_bound_ell1_cached(s, h, d, radius):
    # certified-flavored bound for sum over |m|_1 > radius of K(m):
    # Appendix-style pointwise bound summed with exact ell^1 shell counts to
    # P, integral comparison beyond, then doubled for safety.
    c = _tail_constant(FracParams(s, h, d))
    big_p = max(100000, 4 * radius)
    # Gamma(rho - s) / Gamma(rho + d + s) by the recurrence
    # ratio(rho + 1) = ratio(rho) (rho - s) / (rho + d + s), as running
    # products over chunks of shells that carry the last ratio
    total = 0.0
    ratio = gamma_ratio(radius + 1.0 - s, radius + 1.0 + d + s)
    for lo in range(radius + 1, big_p, 1 << 12):
        rho = np.arange(lo, min(lo + (1 << 12), big_p), dtype=float)
        run = np.cumprod(np.concatenate(([ratio], (rho - s) / (rho + d + s))))
        if d == 1:
            cnt = 2.0
        elif d == 2:
            cnt = 4.0 * rho
        else:
            cnt = 4.0 * rho * rho + 2.0
        total += float(np.sum(cnt * run[:-1]))
        ratio = float(run[-1])
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
