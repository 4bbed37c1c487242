"""Functions on the lattice (hZ)^d and the discrete torus, and the operator.

The fractional discrete Laplacian is applied three ways: as a kernel sum on
the lattice (step profiles in every dimension through exact one-dimensional
half-line tails, by kernel reduction), as a kernel sum on the torus through
the periodized kernel, and spectrally on the torus through its exact
Fourier multiplier.
The pointwise and spectral torus routes are independent implementations
whose agreement is one of the package's core consistency checks, as is the
transference identity tying the lattice operator to the torus one.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    FracParams,
    ToleranceError,
    _kernel_1d_raw,
    _tail_1d_raw,
    kernel_lattice_mass,
    kernel_values,
    torus_kernel_table,
)


# --- containers ---------------------------------------------------------------


@dataclass(frozen=True)
class StepProfile:
    """Two-sided step along one axis: left_value for j_axis <= -cutoff,
    right_value for j_axis >= cutoff, zero on the slab strictly in between.
    cutoff = 0 degenerates to the slab-free split (left for j_axis < 0,
    right for j_axis >= 0), so constants are representable."""

    axis: int
    cutoff: int
    left_value: float
    right_value: float

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")

    def base_values(self, c):
        """The profile at an integer array c of coordinates along its axis."""
        return np.select([c <= min(-self.cutoff, -1), c >= self.cutoff],
                         [self.left_value, self.right_value], 0.0)


@dataclass(frozen=True)
class LatticeFunction:
    """Real function on Z^d: finite support plus an optional step profile.

    With profile=None this is a finitely supported function; otherwise the
    perturbation in ``support`` rides on top of the profile.  Both shapes
    are summable against (1+|m|)^{-d-2s}, so the operator is defined.
    """

    params: FracParams
    support: dict = field(default_factory=dict)
    profile: StepProfile | None = None

    def __post_init__(self):
        cleaned = {}
        for k, val in self.support.items():
            key = tuple(map(int, k if isinstance(k, tuple) else np.atleast_1d(k)))
            if len(key) != self.params.d:
                raise ValueError(f"support point {k} has wrong dimension")
            cleaned[key] = float(val)
        object.__setattr__(self, "support", cleaned)
        if self.profile is not None and not 0 <= self.profile.axis < self.params.d:
            raise ValueError("profile axis out of range")

    def value(self, j):
        """u at a point; an integer array of shape (P, d) is a batch of P
        points and gives an array of shape (P,), one point the batch of one."""
        if np.ndim(j) < 2:
            return float(self.value(np.reshape(j, (1, -1)))[0])
        pts = np.asarray(j, dtype=np.int64)
        keys, weights = self._support_arrays()
        v = (pts[:, None, :] == keys).all(axis=2) @ weights
        if self.profile is not None:
            v += self.profile.base_values(pts[:, self.profile.axis])
        return v

    def _support_arrays(self):
        """The support points as an integer (S, d) array and their values."""
        return (np.array(list(self.support), dtype=np.int64).reshape(-1, self.params.d),
                np.array(list(self.support.values()), dtype=float))

    def sup_norm_bound(self):
        b = max((abs(v) for v in self.support.values()), default=0.0)
        if self.profile is not None:
            b += max(abs(self.profile.left_value), abs(self.profile.right_value))
        return b

    def to_json(self):
        prof = None
        if self.profile is not None:
            prof = {"axis": self.profile.axis, "cutoff": self.profile.cutoff,
                    "left": self.profile.left_value, "right": self.profile.right_value}
        return json.dumps({
            "d": self.params.d,
            "h": self.params.h,
            "s": self.params.s,
            "support": sorted([list(k) + [v] for k, v in self.support.items()]),
            "profile": prof,
        }, sort_keys=True)

    @staticmethod
    def from_json(doc):
        """From the JSON text of to_json, or from that text already parsed."""
        obj = json.loads(doc) if isinstance(doc, str) else doc
        params = FracParams(s=obj["s"], h=obj["h"], d=obj["d"])
        support = {tuple(int(c) for c in row[:-1]): row[-1] for row in obj["support"]}
        prof = obj.get("profile")
        profile = None
        if prof is not None:
            profile = StepProfile(prof["axis"], prof["cutoff"], prof["left"], prof["right"])
        return LatticeFunction(params, support, profile)


class TorusFunction:
    """Real array over the index cube {-N..N}^d with mesh h = 2pi/(2N+1)."""

    __slots__ = ("N", "d", "values")

    def __init__(self, N, d, values):
        self.N = int(N)
        self.d = int(d)
        arr = np.asarray(values, dtype=float)
        n = 2 * self.N + 1
        if arr.shape != (n,) * self.d:
            raise ValueError(f"values must have shape {(n,) * self.d}, got {arr.shape}")
        self.values = arr

    @property
    def h(self):
        return 2.0 * math.pi / (2 * self.N + 1)

    @property
    def n(self):
        return 2 * self.N + 1

    def value(self, j):
        # stored in {-N..N} order; any integer representative reduces mod n
        idx = tuple((int(c) + self.N) % self.n for c in np.atleast_1d(j))
        return self.values[idx]

    def copy_with(self, values):
        return TorusFunction(self.N, self.d, values)

    def to_json(self):
        return json.dumps({
            "d": self.d,
            "N": self.N,
            "h": self.h,
            "values": [float(x) for x in self.values.ravel(order="C")],
        }, sort_keys=True)

    @staticmethod
    def from_json(doc):
        """From the JSON text of to_json, or from that text already parsed."""
        obj = json.loads(doc) if isinstance(doc, str) else doc
        n = 2 * int(obj["N"]) + 1
        vals = np.array(obj["values"], dtype=float).reshape((n,) * int(obj["d"]))
        return TorusFunction(obj["N"], obj["d"], vals)


def torus_index(j, N):
    """Map a lattice index to array position on the {-N..N} grid (wrapping)."""
    n = 2 * N + 1
    return tuple(((int(c) + N) % n) for c in np.atleast_1d(j))


# --- DFT, symbol, Sobolev norms -----------------------------------------------


def dft(v):
    """Normalized DFT: u_hat_m = (2N+1)^{-d} sum_j u_j e^{-2 pi i m.j/(2N+1)},
    both indices running over {-N..N}^d."""
    return _dft_values(v.values)


def _dft_values(values):
    # dft of a value array on the {-N..N}^d grid
    n, d = values.shape[0], values.ndim
    N = (n - 1) // 2
    axes = tuple(range(d))
    hat = np.fft.fftn(np.roll(values, -N, axis=axes)) / n ** d
    return np.roll(hat, N, axis=axes)


def idft(coeffs, N, d):
    """Inverse of :func:`dft`; returns the complex value array in {-N..N} order.

    The first d axes are the frequencies; trailing axes are a batch.
    """
    n = 2 * N + 1
    axes = tuple(range(d))
    rolled = np.roll(coeffs, -N, axis=axes)
    vals = np.fft.ifftn(rolled, axes=axes) * n ** d
    return np.roll(vals, N, axis=axes)


def symbol(params, xi):
    """Fourier multiplier h^{-2s} (sum_k 4 sin^2(h xi_k / 2))^s; 2pi/h-periodic."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size != params.d:
        raise ValueError("frequency dimension mismatch")
    q = np.sum(4.0 * np.sin(0.5 * params.h * xi) ** 2)
    return params.h ** (-2.0 * params.s) * q ** params.s


def _axis_sum(vecs):
    """sum_k vecs[k][j_k] on the grid whose axis k is vecs[k], added in
    axis order."""
    acc = vecs[0]
    for v in vecs[1:]:
        acc = acc[..., None] + v
    return acc


def _torus_multiplier(N, d, h, s):
    """The operator symbol on the torus frequency grid {-N..N}^d."""
    m = np.arange(-N, N + 1)
    sin2 = (4.0 / (h * h)) * np.sin(math.pi * m / (2 * N + 1)) ** 2
    return _axis_sum([sin2] * d) ** s


def _sobolev_multiplier(N, d, h):
    """Base multiplier 1 + h^{-2} sum_k sin^2(h xi_k) on the frequency grid."""
    m = np.arange(-N, N + 1)
    sin2 = np.sin(2.0 * math.pi * m / (2 * N + 1)) ** 2 / (h * h)
    return 1.0 + _axis_sum([sin2] * d)


def _sobolev_sq_grid(values, h, r):
    """Squared H^r norm of a value array regarded as one period of mesh-h data."""
    d, n = values.ndim, values.shape[0]
    mult = _sobolev_multiplier((n - 1) // 2, d, h)
    return (h * n) ** d * float(np.sum(mult ** r * np.abs(_dft_values(values)) ** 2))


def sobolev_norm(u, r):
    """H^r norm through the lattice Fourier multiplier (1+h^{-2} sum sin^2)^{r/2}.

    Torus functions are evaluated exactly on their frequency grid.  Finitely
    supported lattice functions are embedded in a grid that doubles until
    the result is stable to 1e-12 relative (the integrand is analytic and
    periodic, so the embedded rectangle rule converges geometrically).
    """
    if isinstance(u, TorusFunction):
        return math.sqrt(_sobolev_sq_grid(u.values, u.h, r))
    if u.profile is not None:
        raise ValueError("sobolev_norm requires a finitely supported function")
    if not u.support:
        return 0.0
    d, h = u.params.d, u.params.h
    rad = max(max(abs(c) for c in k) for k in u.support)
    N = max(2 * rad + 2, 8)
    prev = None
    for _ in range(12):
        n = 2 * N + 1
        arr = np.zeros((n,) * d)
        for k, val in u.support.items():
            arr[tuple((c + N) % n for c in k)] += val
        cur = _sobolev_sq_grid(arr, h, r)
        if prev is not None and abs(cur - prev) <= 1e-12 * max(cur, 1e-300):
            return math.sqrt(cur)
        prev = cur
        N *= 2
    raise ToleranceError("sobolev_norm embedding did not stabilize")


# --- the operator on the lattice ----------------------------------------------


def _kernels_at(params, offsets, tol):
    """Kernel values at an integer array of offsets of shape (..., d), 0 at
    the zero offset: one closed-form call in d=1, one shared-grid batch of
    the nonzero offsets otherwise."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if params.d == 1:
        return _kernel_1d_raw(params.s, params.h, offsets[..., 0])
    flat = offsets.reshape(-1, params.d)
    out = np.zeros(len(flat))
    nonzero = flat.any(axis=1)
    out[nonzero] = kernel_values(params, flat[nonzero], tol)[0]
    return out.reshape(offsets.shape[:-1])


def apply_frac_lattice(u, j):
    """Pointwise operator value sum_{m != j} (u_j - u_m) K(j - m).

    j is one point, or an integer array of shape (P, d) whose rows are P
    points, which gives an array of shape (P,); one point is the batch of
    one.  Write u = b + q with b the step profile along axis a (0 if there
    is none) and q the finitely supported part, c_p at its points p.  Then

        (Lu)_j = (L_1 b)(j_a) + mass * q_j - sum_p c_p K(j - p),

    exactly, in every dimension: the kernel reduction sum_{m' in Z^{d-1}}
    K_d(m_a, m') = K_1(m_a) at the same s and h (sum_n e^{-x} I_n(x) = 1 in
    the heat-semigroup form of K) collapses the profile's sum over the
    other axes.  (L_1 b) comes from exact half-line tails of the closed form;
    the rest from the exact total mass and one kernel batch over every
    (point, support point) pair.  Nothing is truncated.
    """
    params = u.params
    if np.ndim(j) < 2:
        return float(apply_frac_lattice(u, np.reshape(j, (1, -1)))[0])
    pts = np.asarray(j, dtype=np.int64)
    if pts.shape[1] != params.d:
        raise ValueError("point dimension mismatch")
    keys, weights = u._support_arrays()
    qj = (pts[:, None, :] == keys).all(axis=2) @ weights
    total = qj * kernel_lattice_mass(params) if qj.any() else np.zeros(len(pts))
    # (point, support point) offsets; a point on the support meets K(0) = 0
    total -= (_kernels_at(params, pts[:, None, :] - keys, 1e-12) * weights).sum(axis=1)
    prof = u.profile
    if prof is not None:
        # sum_{m <= lo} K_1(c - m) and sum_{m >= hi} K_1(c - m) are one-sided
        # tails when c is off the half-line, the mass minus one when it is on
        c = pts[:, prof.axis]
        lo, hi = min(-prof.cutoff, -1), prof.cutoff
        below, above = c > lo, c < hi
        tails = _tail_1d_raw(params.s, params.h, np.concatenate((
            [1], np.where(below, c - lo, lo - c + 1), np.where(above, hi - c, c - hi + 1))))
        mass = 2.0 * tails[0]
        t_le, t_ge = np.split(tails[1:], 2)
        sum_le = np.where(below, t_le, mass - t_le)
        sum_ge = np.where(above, t_ge, mass - t_ge)
        total += prof.base_values(c) * mass - prof.left_value * sum_le - prof.right_value * sum_ge
    return total


# --- the operator on the torus --------------------------------------------------


def _apply_pointwise(v, table):
    """sum_r K(r) (v_j - v_{j-r}) over all table offsets r, in any dimension.

    A direct kernel sum with no FFT, so it stays independent of the spectral
    route.  Two periods of v along every axis, less their first entry, give
    each point j a periodic window whose entry n-1-r is v_{j-r}; the window
    differences v_j - v_{j-r} of a chunk of output points are gathered into
    one block of about 2^18 entries and contracted with the flipped table.
    The zero-offset slot of the table holds 0, and a constant maps to
    exactly 0.
    """
    ext = np.tile(v, (2,) * v.ndim)[(slice(1, None),) * v.ndim]
    # windows[j][k] = ext[j + k] along each axis
    windows = np.lib.stride_tricks.as_strided(ext, v.shape * 2, ext.strides * 2,
                                              writeable=False)
    kflip = np.flip(table).ravel()
    flat = v.ravel()
    out = np.empty(flat.size)
    step = max(1, (1 << 18) // flat.size)
    for lo in range(0, flat.size, step):
        pts = np.arange(lo, min(lo + step, flat.size))
        diff = windows[np.unravel_index(pts, v.shape)].reshape(pts.size, -1)
        np.subtract(flat[pts, None], diff, out=diff)
        out[pts] = diff @ kflip
    return out.reshape(v.shape)


def apply_frac_torus_pointwise(v, s, tol=1e-11, method="auto"):
    """Torus operator through the periodized kernel sum (lattice route)."""
    vmax = float(np.abs(v.values).max())
    nterms = v.n ** v.d
    table_tol = min(1e-12, max(1e-15, 0.25 * tol / (nterms * (2.0 * vmax + 1.0))))
    table = torus_kernel_table(s, v.N, v.d, tol=table_tol, method=method)
    # table.full is indexed by offset mod n with the zero offset at slot 0
    return v.copy_with(_apply_pointwise(v.values, table.full))


def apply_frac_torus_spectral(v, s):
    """Torus operator through its exact Fourier multiplier (spectral route)."""
    lam = _torus_multiplier(v.N, v.d, v.h, s)
    out = idft(lam * dft(v), v.N, v.d)
    return v.copy_with(np.real(out))


# --- periodization, repetition, transference ------------------------------------


def periodize(u, N):
    """Wrap a finitely supported lattice function onto the {-N..N}^d torus."""
    if u.profile is not None:
        raise ValueError("periodize requires a finitely supported function")
    d = u.params.d
    n = 2 * N + 1
    arr = np.zeros((n,) * d)
    for k, val in u.support.items():
        arr[torus_index(k, N)] += val
    return TorusFunction(N, d, arr)


class RepeatedTorusFunction:
    """(2N+1)-periodic extension of a torus function to the whole lattice."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    def value(self, m):
        return float(self.base.values[torus_index(m, self.base.N)])

    __call__ = value


def repeat(v):
    """Evaluator of the periodic extension Rv on Z^d."""
    return RepeatedTorusFunction(v)


def _transference_direct_1d(v, phi, L):
    """sum_{|l| <= L} Rv_l (op phi)_l through the closed-form kernel (d = 1).

    (op phi)_l = mass phi_l - sum_i c_i K(l - p_i): K is evaluated once per
    distinct |l - p_i| with |l| <= L, gathered into a (support point, l)
    array and contracted with the weights c_i."""
    params = phi.params
    supp_pts = np.array([k[0] for k in phi.support], dtype=np.int64)
    supp_vals = np.array(list(phi.support.values()))
    mass = kernel_lattice_mass(params)
    ls = np.arange(-L, L + 1)
    dist, where = np.unique(np.abs(ls - supp_pts[:, None]), return_inverse=True)
    kvals = _kernel_1d_raw(params.s, params.h, dist)
    op = -(supp_vals @ kvals[where.reshape(supp_pts.size, ls.size)])
    inside = np.abs(supp_pts) <= L
    op[supp_pts[inside] + L] += mass * supp_vals[inside]
    vrep = v.values[(ls + v.N) % v.n]
    return float(vrep @ op)


def _wrapped_lhs(v, phi):
    """Left side of the transference identity, resummed exactly through the
    periodized kernel: mass <v, P phi> - sum_m phi_m sum_j v_j K^A(j - m),
    with the diagonal wrap value at the zero offset.

    One gather of the table covers every (support point, torus point) pair
    and one contraction with phi and v sums it; no FFT."""
    params, N, d = phi.params, v.N, v.d
    mass = kernel_lattice_mass(params)
    table = torus_kernel_table(params.s, N, d, tol=1e-13, need_diag=True,
                               method="series" if d == 1 else "heat")
    pts = np.array(list(phi.support), dtype=np.int64).reshape(-1, d)
    weights = np.array(list(phi.support.values()))
    grid = np.indices(v.values.shape).reshape(d, -1).T - N
    K = table.value(grid - pts[:, None])  # (support point, torus point)
    v_at_pts = v.values[tuple(((pts + N) % v.n).T)]
    return float(weights @ (mass * v_at_pts - K @ v.values.ravel()))


def transference_check(v, phi, tol=1e-10, method="wrapped", direct_radius=20000):
    """Defect of the lattice-to-torus transference identity.

    Left side: sum over Z^d of (periodic extension of v) times the lattice
    operator of phi.  Right side: torus inner product of v with the spectral
    operator applied to the periodization of phi.  method='wrapped' resums
    the absolutely convergent left side exactly through the periodized
    kernel, as one gather of the torus table over every (support point,
    torus point) pair and one contraction; method='direct' (d=1 only)
    truncates the lattice sum at |l| <= direct_radius = L, as array sums of
    the closed-form kernel, and adds to the returned defect the exact bound
    vmax sum_i |c_i| (T(L+1-p_i) + T(L+1+p_i)) on the omitted terms, T the
    closed-form tail sum; it raises ValueError for a support point p_i with
    |p_i| > L.  Neither left side uses an FFT; only the right side is
    spectral.  Either method raises ToleranceError when the returned defect
    exceeds both tol and tol * max(|lhs|, |rhs|).
    """
    if phi.profile is not None:
        raise ValueError("transference requires finitely supported phi")
    params = phi.params
    N, d = v.N, v.d
    if d != params.d:
        raise ValueError("dimension mismatch")
    if abs(params.h - v.h) > 1e-12 * v.h:
        raise ValueError("transference requires the lattice mesh h = 2pi/(2N+1)")
    s = params.s

    pphi = periodize(phi, N)
    rhs_field = apply_frac_torus_spectral(pphi, s)
    rhs = float(np.sum(v.values * rhs_field.values))

    if method == "wrapped":
        lhs = _wrapped_lhs(v, phi)
        defect = abs(lhs - rhs)
    elif method == "direct" and d == 1:
        L = int(direct_radius)
        keys, weights = phi._support_arrays()
        p = keys[:, 0]
        if np.any(np.abs(p) > L):
            raise ValueError("direct transference needs every support point within direct_radius")
        lhs = _transference_direct_1d(v, phi, L)
        # beyond |l| = L, (op phi)_l = -sum_i c_i K(l - p_i)
        tails = _tail_1d_raw(s, params.h, np.stack((L + 1 - p, L + 1 + p))).sum(axis=0)
        defect = abs(lhs - rhs) + float(np.abs(v.values).max()) * float(np.abs(weights) @ tails)
    else:
        raise ValueError("method must be 'wrapped', or 'direct' with d = 1")
    scale = max(abs(lhs), abs(rhs), 1e-30)
    if defect > tol * scale and defect > tol:
        raise ToleranceError("transference defect above tolerance",
                             achieved=defect, requested=tol * scale)
    return defect
