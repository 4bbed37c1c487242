"""Special functions behind every kernel evaluation: thin wrappers over
``math`` and ``scipy.special``, and the scaled Bessel rows.

Exports log-Gamma, Gamma ratios, the exponentially scaled modified Bessel
function e^{-t} I_n(t) for integer orders, and the Macdonald function K_s
for s in (0,1), each with the domain checks the rest of the package relies
on.  Only the scaled form of I_n is exposed: the unscaled function
overflows near t ~ 700 while every formula downstream pairs it with a
decaying exponential.

The scalar e^{-t} I_n(t) is ``scipy.special.ive``, accurate to a few ulps
at low orders up to t ~ 1.07e9, the argument limit of the underlying AMOS
routines, beyond which it returns nan for every order.  The kernel
quadrature can evaluate past that limit, so exactly the entries where
``ive`` is not finite come from the large-argument expansion while its
terms decrease from the start (4n^2 - 1 < 8t), and from the uniform
(Debye) expansion beyond.  The columns of a few orders, which a kernel
at a few offsets reads, are one direct ``ive`` call over arguments x
orders; more orders, and the rows 0..nmax of every box table, come from a
normalised backward recurrence over a whole batch of arguments at once,
seeded and scaled by ``ive``, which also serves tiny arguments.  Gamma
ratios of large arguments, where ``scipy.special.poch`` loses digits, come
from a Stirling-series difference, and ratios at an integer plus small
shifts keep the integer apart from the shifts.

All functions are pure and safe for concurrent use.
"""

import math

import numpy as np
from scipy import special

_LOG_PI = 1.1447298858494001741434273514


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError("log_gamma requires x > 0")
    return math.lgamma(x)


def log_abs_gamma_neg(s):
    """ln |Gamma(-s)| for s in (0,1), via the reflection identity.

    Gamma(-s) Gamma(1+s) = -pi / sin(pi s), and Gamma(-s) < 0 on (0,1).
    The sine is taken at pi min(s, 1-s): near s = 1, sin(pi s) would lose
    the relative accuracy of its argument (1e-14 at s = 0.99).
    """
    if s <= 0.0 or s >= 1.0:
        raise ValueError("log_abs_gamma_neg requires 0 < s < 1")
    return _LOG_PI - math.log(math.sin(math.pi * min(s, 1.0 - s))) - log_gamma(1.0 + s)


def gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) for a, b > 0, elementwise over broadcast arrays; a
    pair of scalars is the batch of one and gives a float.

    Below 171, where Gamma is finite, the quotient of ``scipy.special.gamma``
    keeps about 1e-15 relative accuracy; ``poch`` loses up to 2e-13 there.
    Beyond, with both arguments at least 100, the difference of Stirling
    series is arranged so that no term of the size of ln Gamma cancels:

        ln Gamma(a) - ln Gamma(b) = (a - 1/2) log1p(-d/b) - d (ln b - 1)
                                    + S(a) - S(b),   d = b - a,

    with S(z) = 1/(12z) - 1/(360z^3) + 1/(1260z^5), whose truncation is below
    1e-17 from z = 100 on.  Against mpmath it keeps 1.3e-14 relative accuracy
    for nearby arguments (b - a <= 3 + 2s, a = M - s) up to M = 1e6, where
    ``poch`` lost up to 4e-11 between 171 and about 1e4.  Only arguments on
    both sides of 100 (a ratio beyond 1e150 or below 1e-150) still go to the
    Pochhammer symbol (b)_{a-b}.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not ((a > 0.0) & (b > 0.0)).all():
        raise ValueError("gamma_ratio requires positive arguments")
    small = np.maximum(a, b) < 171.0
    mixed = ~small & (np.minimum(a, b) < 100.0)
    # a regime holding every entry takes the arrays whole; an empty one is skipped
    out = np.empty(a.shape)
    for part, ratio in ((small, lambda a, b: special.gamma(a) / special.gamma(b)),
                        (mixed, lambda a, b: special.poch(b, a - b)),
                        (~(small | mixed), _stirling_ratio)):
        if part.all():
            out = ratio(a, b)
            break
        if part.any():
            out[part] = ratio(a[part], b[part])
    return out if out.ndim else float(out)


def _stirling_ratio(a, b):
    """Gamma(a)/Gamma(b) for a, b >= 100 by the Stirling difference above."""
    d = b - a
    ia, ib = 1.0 / a, 1.0 / b
    x = ((a - 0.5) * np.log1p(-d * ib) - d * (np.log(b) - 1.0) + (ia - ib) / 12.0
         - (ia ** 3 - ib ** 3) / 360.0 + (ia ** 5 - ib ** 5) / 1260.0)
    return np.where(x < 709.78, np.exp(np.minimum(x, 709.78)), np.inf)


def gamma_ratio_shifted(m, alpha, beta):
    """Gamma(m + alpha)/Gamma(m + beta) for integers m >= 1 (a scalar or an
    array) and real shifts with m + alpha, m + beta > 0, keeping m apart
    from the shifts; a scalar m is the batch of one and gives a float.

    m + alpha rounds to a double a with an error e = (m + alpha) - a that
    TwoSum recovers exactly, and Gamma(m + alpha) = Gamma(a) exp(psi(a) e)
    to second order in e (e is at most half an ulp of a).  Passing the
    rounded sums to gamma_ratio would instead carry a relative error of
    about m psi(m) eps: 2.6e-14 at m = 100 and 1.3e-9 at m = 1e6.
    """
    m = np.asarray(m, dtype=float)
    a, ea = _two_sum(m, alpha)
    b, eb = _two_sum(m, beta)
    out = gamma_ratio(a, b) * np.exp(special.psi(a) * ea - special.psi(b) * eb)
    return out if out.ndim else float(out)


def _two_sum(x, y):
    """fl(x + y) and its exact rounding error (Knuth's TwoSum), elementwise."""
    s = x + y
    yv = s - x
    return s, (x - (s - yv)) + (y - yv)


def _bessel_i_scaled_asymptotic(n, t):
    # Large-argument expansion of e^{-t} I_n(t) for arrays n, t of one shape,
    # each entry truncated at its smallest term.
    mu = 4.0 * n * n
    term = np.ones_like(t)
    total = np.ones_like(t)
    prev = np.full_like(t, np.inf)
    live = np.ones(t.shape, dtype=bool)
    for k in range(1, 40):
        f = 2.0 * k - 1.0
        term = term * (-(mu - f * f) / (8.0 * t * k))
        live &= np.abs(term) < prev
        total += np.where(live, term, 0.0)
        prev = np.abs(term)
        live &= prev > 1e-18
        if not live.any():
            break
    return total / np.sqrt(2.0 * math.pi * t)


def _bessel_i_scaled_debye(n, t):
    # Uniform (Debye) expansion of e^{-t} I_n(t) for arrays n >= 1, t > 0 of
    # one shape, through U_3(p), p = (1 + (t/n)^2)^{-1/2} (DLMF 10.41.3, 10.41.10)
    p = n / np.hypot(n, t)
    q = p * p
    series = (1.0 + p * (3.0 - 5.0 * q) / (24.0 * n)
              + q * (81.0 + q * (-462.0 + 385.0 * q)) / (1152.0 * n * n)
              + p * q * (30375.0 + q * (-369603.0 + q * (765765.0 - 425425.0 * q)))
              / (414720.0 * n ** 3))
    return np.exp(_log_ive_debye(n, t)) * series


def _ive(n, t):
    """scipy's e^{-t} I_n(t) on broadcast arrays n, t.  Where it is not finite
    (t beyond about 1.07e9), the large-argument expansion takes the entries
    with 4n^2 - 1 < 8t, whose terms decrease from the first, and the uniform
    expansion the others (n > 46,000: first omitted term below 1e-19)."""
    v = np.asarray(special.ive(n, t))
    bad = ~np.isfinite(v)
    if bad.any():
        n, t = np.broadcast_arrays(n, t)
        n, t = n[bad].astype(float), t[bad]
        out = np.empty(n.shape)
        uniform = 4.0 * n * n - 1.0 >= 8.0 * t
        out[uniform] = _bessel_i_scaled_debye(n[uniform], t[uniform])
        out[~uniform] = _bessel_i_scaled_asymptotic(n[~uniform], t[~uniform])
        v[bad] = out
    return v


def bessel_i_scaled(n, t):
    """e^{-t} I_n(t) for integer n and t >= 0; symmetric in n <-> -n.

    Values lie in [0, 1].
    """
    if t < 0.0:
        raise ValueError("bessel_i_scaled requires t >= 0")
    return float(_ive(abs(n), float(t)))


# A row's recurrence starts at the last order up to 2 nmax whose leading
# Debye estimate is above both e^{-5} times the estimate at nmax, which damps
# the seeds' error at nmax by about e^{-10}, and e^{-690} (about 2e-300),
# so that every order left at 0 is below 1e-280.
_ROW_MARGIN = 5.0
_LOG_ROW_FLOOR = -690.0
# Below this argument the orders from 2 on underflow to 0.
_ROW_TINY = 1e-200


def _log_ive_debye(k, x):
    """Leading uniform (Debye) estimate of log(e^{-x} I_k(x)) for k >= 1, x > 0.

    With z = x/k and r = sqrt(1 + z^2), the exponent k (r - z + log(z/(1+r)))
    is taken as k (w - log1p((1 + w)/z)), w = r - z = 1/(r + z), so that no
    two terms of size k cancel: its relative error stays a few ulps."""
    z = x / k
    r = np.sqrt(1.0 + z * z)
    w = 1.0 / (r + z)
    return k * (w - np.log1p((1.0 + w) / z)) - 0.5 * np.log(2.0 * math.pi * k * r)


def _top_orders(nmax, x):
    """The order in 1..2 nmax at which each row's recurrence starts (see
    _ROW_MARGIN), by bisection, as the estimate decreases in k.  nmax is a
    scalar or one order per argument.  Arguments below 1e-200 get order 0:
    their rows are the seeds at orders 0 and 1."""
    tiny = x < _ROW_TINY
    x = np.where(tiny, 1.0, x)
    level = np.maximum(_LOG_ROW_FLOOR, _log_ive_debye(np.asarray(nmax, float), x) - _ROW_MARGIN)
    lo = np.ones(x.shape, dtype=np.int64)
    hi = np.broadcast_to(2 * nmax, x.shape).astype(np.int64)
    while (live := hi > lo).any():
        mid = (lo + hi + 1) // 2
        above = _log_ive_debye(mid.astype(float), x) > level
        lo = np.where(live & above, mid, lo)
        hi = np.where(live & ~above, mid - 1, hi)
    return np.where(tiny, 0, lo)


def _bessel_sweep(nmax, x):
    """Unscaled order-major rows y[k], k = 0..max(nmax), of the normalised
    backward recurrence over the 1-d arguments x, and the scales
    ``ive(0, x) / y[0]``: y * scale is e^{-x} I_k(x).  nmax is a scalar or
    one per argument, and each row starts at the top order of its own."""
    top = _top_orders(nmax, x)
    # rows by ascending top order (as they come for ascending arguments), so
    # that the rows still running at each step of the sweep are a trailing
    # slice
    order = None if (np.diff(top) >= 0).all() else np.argsort(top, kind="stable")
    if order is not None:
        x, top = x[order], top[order]
    kmax, nrows = int(top[-1]), int(np.max(nmax)) + 1
    cols = np.arange(x.size)
    y = np.zeros((max(kmax + 2, nrows), x.size))
    y[top, cols] = _ive(top, x)
    y[top + 1, cols] = _ive(top + 1, x)
    # the rows whose top order is k or more are the columns first[k]:
    first = np.searchsorted(top, np.arange(kmax + 2))
    # between successive top orders the running rows are a fixed slice, and
    # only its coefficients 2k/x are built, each rounded once
    starts = np.unique(top)[::-1].tolist()
    for hi, lo in zip(starts, starts[1:] + [0]):
        ys = y[:, first[hi]:]
        cs = np.arange(2 * lo + 2, 2 * hi + 1, 2)[:, None] / x[first[hi]:]
        for k in range(hi, lo, -1):
            ck = cs[k - lo - 1]
            ck *= ys[k]
            np.add(ck, ys[k + 1], out=ys[k - 1])
    y, scale = y[:nrows], _ive(0, x) / y[0]
    if order is not None:
        back = np.argsort(order)
        y, scale = y[:, back], scale[back]
    return y, scale


def bessel_i_scaled_cols(orders, x):
    """e^{-x} I_k(x) at the sorted distinct orders k >= 0 (an integer array)
    over the 1-d arguments x >= 0, as an (x.size, len(orders)) array.

    Up to 4 orders it is one direct ``ive`` call over arguments x orders,
    about 0.1 ms per order on 720 arguments.  More take the columns of one
    sweep up to the largest order, about 0.4 ms up to order 12: e^{-x} I_k(x)
    is the minimal solution of y_{k-1} = y_{k+1} + (2k/x) y_k, so the
    recurrence is stable run downwards (Gautschi, SIAM Rev. 9, 1967).  Each
    argument starts from ``ive`` at its own top order and the next (see
    _top_orders) and is scaled by ``ive(0, x)``, which cancels the seeds'
    own error.  Against 50-digit references (x from 1e-3 to 2e5, up to 4,310
    orders) the swept values stay within 26 ulps wherever they exceed 1e-250.
    """
    if (x < 0.0).any():
        raise ValueError("bessel_i_scaled_cols requires x >= 0")
    if orders.size <= 4:
        return _ive(orders, x[:, None])
    y, scale = _bessel_sweep(int(orders[-1]), x)
    y = y if orders.size == len(y) else y[orders]  # all orders: no new array
    y *= scale
    return y.T


def bessel_k(s, x):
    """Macdonald function K_s(x) for s in (0,1), x > 0; positive and
    decreasing in x."""
    if s <= 0.0 or s >= 1.0:
        raise ValueError("bessel_k requires 0 < s < 1")
    if x <= 0.0:
        raise ValueError("bessel_k requires x > 0")
    return float(special.kv(s, x))


# --- Gauss-Kronrod 7/15 constants (shared by kernel quadratures) -------------

XGK15 = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])

WGK15 = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299785, 0.0229353220105292,
])

# 7-point Gauss weights, aligned with the odd-index Kronrod nodes.
WG7 = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])
