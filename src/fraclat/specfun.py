"""Special functions behind every kernel evaluation: thin wrappers over
``math`` and ``scipy.special``.

Exports log-Gamma, Gamma ratios, the exponentially scaled modified Bessel
function e^{-t} I_n(t) for integer orders, and the Macdonald function K_s
for s in (0,1), each with the domain checks the rest of the package relies
on.  Only the scaled form of I_n is exposed: the unscaled function
overflows near t ~ 700 while every formula downstream pairs it with a
decaying exponential.

``scipy.special.ive`` is accurate to a few ulps up to t ~ 1.07e9, the
argument limit of the underlying AMOS routines, and returns nan beyond it
for every order.  The kernel quadrature can evaluate past that limit, so
the large-argument expansion replaces exactly the entries where ``ive`` is
not finite; its terms decrease from the start there for every order the
package uses.  Likewise Gamma ratios of large arguments, where
``scipy.special.poch`` loses digits, come from a Stirling-series difference.

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
    """Gamma(a)/Gamma(b) for a, b > 0.

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
    if a <= 0.0 or b <= 0.0:
        raise ValueError("gamma_ratio requires positive arguments")
    if max(a, b) < 171.0:
        return float(special.gamma(a) / special.gamma(b))
    if min(a, b) < 100.0:
        return float(special.poch(b, a - b))
    d = b - a
    ia, ib = 1.0 / a, 1.0 / b
    x = ((a - 0.5) * math.log1p(-d * ib) - d * (math.log(b) - 1.0) + (ia - ib) / 12.0
         - (ia ** 3 - ib ** 3) / 360.0 + (ia ** 5 - ib ** 5) / 1260.0)
    return math.exp(x) if x < 709.78 else math.inf


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


def bessel_i_scaled(n, t):
    """e^{-t} I_n(t) for integer n and t >= 0; symmetric in n <-> -n.

    Values lie in [0, 1].
    """
    if t < 0.0:
        raise ValueError("bessel_i_scaled requires t >= 0")
    v = float(special.ive(abs(n), t))
    if not math.isfinite(v):
        v = float(_bessel_i_scaled_asymptotic(np.array(abs(n), float), np.array(float(t))))
    return v


def bessel_i_scaled_row(nmax, t, out):
    """Fill out[..., 0..nmax] with e^{-t} I_n(t), equal to the scalar calls.

    t is a scalar, or an array whose trailing axis broadcasts against the
    orders: a column ``t[:, None]`` fills one row of ``out`` per argument in
    a single vectorised call.
    """
    t = np.asarray(t, dtype=float)
    if (t < 0.0).any():
        raise ValueError("bessel_i_scaled_row requires t >= 0")
    orders = np.arange(nmax + 1.0)
    res = out[..., :nmax + 1]
    special.ive(orders, t, out=res)
    bad = ~np.isfinite(res)
    if bad.any():
        n, tb = np.broadcast_arrays(orders, t)
        res[bad] = _bessel_i_scaled_asymptotic(n[bad], tb[bad])


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
