"""Functions on the lattice (hZ)^d and the discrete torus, and the operator.

The fractional discrete Laplacian is applied three ways: as a kernel sum on
the lattice (step profiles in every dimension through exact one-dimensional
half-line tails, by kernel reduction), as a kernel sum on the torus through
the periodized kernel, and spectrally on the torus through its exact
Fourier multiplier.
The pointwise and spectral torus routes are independent implementations
whose agreement is one of the package's core consistency checks, as is the
transference identity tying the lattice operator to the torus one.

The pointwise torus route uses no FFT: its kernel sum is one matrix product
of gathered periodic windows with the circulants of the table's last-axis
rows (_apply_pointwise).  Every torus Fourier multiplier in the package is
real and even, so it commutes with shifts and keeps the spectrum of real
data Hermitian; it is applied to the values in storage order by one real
FFT over the grid axes, on the half spectrum (_apply_even).  The spectral
route reads its symbol from a cache keyed on (N, d, s).  The DFT in
{-N..N} order, which the tests compare it against, lives in
tests/oracles.py.
"""

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernel import (
    FracParams,
    ToleranceError,
    _CACHE_SIZE,
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
            "values": self.values.ravel().tolist(),
        }, sort_keys=True)

    @staticmethod
    def from_json(doc):
        """From the JSON text of to_json, or from that text already parsed."""
        obj = json.loads(doc) if isinstance(doc, str) else doc
        n = 2 * int(obj["N"]) + 1
        vals = np.array(obj["values"], dtype=float).reshape((n,) * int(obj["d"]))
        return TorusFunction(obj["N"], obj["d"], vals)


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


def _half_spectrum(mult):
    """An even symbol on the {-N..N}^d frequency grid on the half spectrum
    that rfftn yields: FFT order on the first d-1 axes, frequencies 0..N on
    the last."""
    return np.fft.ifftshift(mult)[..., :(mult.shape[-1] + 1) // 2]


def _apply_even(values, half, d):
    """idft(mult * dft(values)) in storage order, by one real FFT, for a
    real symbol mult_m = mult_{-m} given by its half spectrum.

    An even multiplier commutes with shifts, so the {-N..N} storage needs no
    reordering, and it keeps the spectrum of real data Hermitian, so the
    result is real.  The first d axes are the torus grid; trailing axes of
    values and half are a batch.
    """
    axes = tuple(range(d))
    return np.fft.irfftn(half * np.fft.rfftn(values, axes=axes),
                         s=values.shape[:d], axes=axes)


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
    route.  With S the table's sum and w = v - v.flat[0] it is
    S w_j - sum_r K(r) w_{j-r}, and a constant maps to exactly 0.  Along the
    last axis the sum over r is a product with the n x n circulant of each
    last-axis row of the table, read as a window view of that row extended
    mod n.  Along the leading axes, two periods of w less their first entry
    give each leading point j' a periodic window whose entry n-1-r' is the
    row w_{j'-r'}.  The windows of a chunk of leading points are gathered
    into one block of about 2^18 entries, and one matrix product with the
    stacked circulants sums every offset.  In d = 1 the leading axis is a
    dummy of length 1.
    """
    n = v.shape[-1]
    lead = v.shape[:-1] or (1,)
    w = (v - v.flat[0]).reshape(lead + (n,))
    # w reversed along the last axis, so both window views have positive
    # strides: windows[j', k', q] = w[j' - (n-1-k'), n-1-q]
    ext = w[..., ::-1]
    for axis in range(len(lead)):
        ext = np.concatenate((ext, ext), axis=axis)
    st = ext.strides
    windows = np.ndarray(lead * 2 + (n,), buffer=ext, offset=sum(st[:-1]),
                         strides=st[:-1] * 2 + st[-1:])
    # circ[k', q, j] = K(n-1-k', j+q+1 mod n): the circulant of the table row
    # at leading offset n-1-k', acting on the reversed last axis
    rows = table.reshape(lead + (n,))[(slice(None, None, -1),) * len(lead)]
    x = np.concatenate((rows[..., 1:], rows), axis=-1)
    circ = np.ndarray(lead + (n, n), buffer=x,
                      strides=x.strides[:-1] + x.strides[-1:] * 2).reshape(-1, n)
    total = table.sum()
    flat = w.reshape(-1, n)
    out = np.empty_like(flat)
    step = max(1, (1 << 18) // len(circ))
    for lo in range(0, len(flat), step):
        hi = min(lo + step, len(flat))
        block = windows[np.unravel_index(np.arange(lo, hi), lead)].reshape(hi - lo, -1)
        np.subtract(total * flat[lo:hi], block @ circ, out=out[lo:hi])
    return out.reshape(v.shape)


def apply_frac_torus_pointwise(v, s, tol=1e-11):
    """Torus operator through the periodized kernel sum (lattice route).

    The table of the periodized kernel comes from the kernel's cache at a
    tolerance set by tol and the sup norm of v; the sum over its offsets is
    _apply_pointwise, one matrix product with no FFT."""
    vmax = float(np.abs(v.values).max())
    nterms = v.n ** v.d
    # rounded down to a power of two: nearby sup norms share one cached table
    table_tol = 2.0 ** math.floor(math.log2(
        min(1e-12, max(1e-15, 0.25 * tol / (nterms * (2.0 * vmax + 1.0))))))
    table = torus_kernel_table(s, v.N, v.d, tol=table_tol)
    # table.full is indexed by offset mod n with the zero offset at slot 0
    return v.copy_with(_apply_pointwise(v.values, table.full))


@lru_cache(maxsize=_CACHE_SIZE)
def _spectral_symbol(N, d, s):
    """The operator symbol on the half spectrum, read-only: built once per
    (N, d, s) and shared by every call."""
    half = _half_spectrum(_torus_multiplier(N, d, 2.0 * math.pi / (2 * N + 1), s))
    half.flags.writeable = False
    return half


def apply_frac_torus_spectral(v, s):
    """Torus operator through its exact Fourier multiplier (spectral route)."""
    return v.copy_with(_apply_even(v.values, _spectral_symbol(v.N, v.d, s), v.d))


# --- periodization, transference ------------------------------------------------


def periodize(u, N):
    """Wrap a finitely supported lattice function onto the {-N..N}^d torus."""
    if u.profile is not None:
        raise ValueError("periodize requires a finitely supported function")
    d = u.params.d
    n = 2 * N + 1
    arr = np.zeros((n,) * d)
    for k, val in u.support.items():
        arr[tuple((c + N) % n for c in k)] += val
    return TorusFunction(N, d, arr)


def _wrapped_lhs(v, phi):
    """Left side of the transference identity, resummed exactly through the
    periodized kernel: mass <v, P phi> - sum_m phi_m sum_j v_j K^A(j - m),
    with the diagonal wrap value at the zero offset.

    One gather of the table covers every (support point, torus point) pair
    and one contraction with phi and v sums it; no FFT."""
    params, N, d = phi.params, v.N, v.d
    mass = kernel_lattice_mass(params)
    table = torus_kernel_table(params.s, N, d, tol=1e-13, need_diag=True)
    pts = np.array(list(phi.support), dtype=np.int64).reshape(-1, d)
    weights = np.array(list(phi.support.values()))
    grid = np.indices(v.values.shape).reshape(d, -1).T - N
    K = table.value(grid - pts[:, None])  # (support point, torus point)
    v_at_pts = v.values[tuple(((pts + N) % v.n).T)]
    return float(weights @ (mass * v_at_pts - K @ v.values.ravel()))


def transference_check(v, phi, tol=1e-10):
    """Defect of the lattice-to-torus transference identity.

    Left side: sum over Z^d of (periodic extension of v) times the lattice
    operator of phi, resummed exactly through the periodized kernel as one
    gather of the torus table over every (support point, torus point) pair
    and one contraction (no FFT).  Right side: torus inner product of v with
    the spectral operator applied to the periodization of phi.  Raises
    ToleranceError when the defect exceeds both tol and
    tol * max(|lhs|, |rhs|).
    """
    if phi.profile is not None:
        raise ValueError("transference requires finitely supported phi")
    params = phi.params
    if v.d != params.d:
        raise ValueError("dimension mismatch")
    if abs(params.h - v.h) > 1e-12 * v.h:
        raise ValueError("transference requires the lattice mesh h = 2pi/(2N+1)")
    rhs = float(np.sum(v.values * apply_frac_torus_spectral(periodize(phi, v.N), params.s).values))
    lhs = _wrapped_lhs(v, phi)
    defect = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    if defect > tol * scale and defect > tol:
        raise ToleranceError("transference defect above tolerance",
                             achieved=defect, requested=tol * scale)
    return defect
