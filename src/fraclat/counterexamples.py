"""Constructive failures of unique continuation for the discrete operator.

On the lattice and on the discrete torus, vanishing of u and of its
fractional Laplacian on a finite set does not force u = 0: prescribing
u on a disjoint set Y with |Y| = |X| + 1 leaves an underdetermined
homogeneous system whose null vector is an explicit counterexample.  A
two-sided step with a single corrective amplitude likewise defeats weak
unique continuation from a three-point slab for a fractional Schroedinger
equation, in one and (by kernel reduction) two dimensions.

Every certificate produced here is re-verified through an operator
application path that is independent of the linear algebra used in the
construction.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    FracParams,
    build_kernel_table,
    _kernel_1d_raw,
    _tail_1d_raw,
)
from .lattice import (
    LatticeFunction,
    StepProfile,
    TorusFunction,
    _kernels_at,
    apply_frac_lattice,
    apply_frac_torus_pointwise,
)


class CertificateError(RuntimeError):
    """A constructed counterexample failed its independent verification."""


class InconsistentPotentialError(ValueError):
    """u vanishes where the operator value does not; no bounded potential fits."""

    def __init__(self, index):
        super().__init__(f"no bounded potential possible: u = 0 but Lu != 0 at {index}")
        self.index = index


@dataclass(frozen=True)
class Certificate:
    """Record of a verified counterexample.

    residual_sup is the largest |operator value| measured on the constrained
    set; the certificate is accepted when it does not exceed ``tolerance``.
    """

    residual_sup: float
    u_norm: float
    tolerance: float
    paper_claim: str
    potential_bound: float | None = None
    parameters: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.residual_sup <= self.tolerance and self.u_norm > 0.0

    def to_json(self):
        return json.dumps({
            "residual_sup": self.residual_sup,
            "u_norm": self.u_norm,
            "potential_bound": self.potential_bound,
            "tolerance": self.tolerance,
            "parameters": self.parameters,
            "paper_claim": self.paper_claim,
            "details": self.details,
            "passed": self.passed,
        }, sort_keys=True)


def _normalize_null_vector(vec):
    """Deterministic normalization: sup norm 1, first nonzero entry positive."""
    v = np.asarray(vec, dtype=float)
    v = v / np.abs(v).max()
    for x in v:
        if abs(x) > 1e-13:
            if x < 0:
                v = -v
            break
    return v


def _auto_select_y(points, count, d, exclude, wrap=None):
    """The ``count`` nearest lattice points outside ``exclude``.

    Nearest-first by sup-norm distance to the centroid of ``points``,
    lexicographic tie-break; ``wrap`` gives the torus period for wrapped
    distances.
    """
    pts = np.asarray(points, dtype=float).reshape(len(points), d)
    centroid = pts.mean(axis=0)
    base = tuple(int(round(c)) for c in centroid)
    excl = {tuple(int(c) for c in np.atleast_1d(p)) for p in exclude}
    radius = 1
    while True:
        cands = []
        for off in np.ndindex(*(2 * radius + 1,) * d):
            pt = tuple(base[i] + off[i] - radius for i in range(d))
            if wrap is not None:
                n = wrap
                pt = tuple(((c + (n // 2)) % n) - n // 2 for c in pt)
            if pt in excl:
                continue
            if wrap is not None:
                dist = max(min(abs(pt[i] - centroid[i] + k * wrap)
                               for k in (-1, 0, 1)) for i in range(d))
            else:
                dist = max(abs(pt[i] - centroid[i]) for i in range(d))
            cands.append((dist, pt))
        cands = sorted(set(cands))
        inner = [c for c in cands if c[0] <= radius - 0.5]
        if len(inner) >= count:
            return [c[1] for c in inner[:count]]
        if len(cands) >= count and radius > 2 * count + 2:
            return [c[1] for c in cands[:count]]
        radius += 1


def global_ucp_counterexample(params, X, Y=None, tol=1e-9, ktol=1e-12):
    """Nonzero u supported on Y with u = 0 = (fractional Laplacian u) on X.

    X is a finite set of lattice points; Y (|Y| = |X| + 1, disjoint from X)
    defaults to the nearest points outside X.  Returns the function and a
    certificate whose residual is recomputed by the summation path; its
    details["residuals"] holds |Lu| at each point of X, in order.
    """
    d = params.d
    Xs = [tuple(int(c) for c in np.atleast_1d(x)) for x in X]
    if len(set(Xs)) != len(Xs):
        raise ValueError("X contains repeated points")
    if Y is None:
        Ys = _auto_select_y(Xs, len(Xs) + 1, d, Xs)
    else:
        Ys = [tuple(int(c) for c in np.atleast_1d(y)) for y in Y]
        if set(Ys) & set(Xs):
            raise ValueError("Y must be disjoint from X")
        if len(Ys) != len(Xs) + 1:
            raise ValueError("Y must have |X| + 1 points")

    M = _kernels_at(params, np.array(Xs)[:, None] - np.array(Ys), ktol)
    _, sig, vt = np.linalg.svd(M)
    coeffs = _normalize_null_vector(vt[-1])
    multiple = bool(sig.size >= 2 and sig[-2] <= 1e-12 * sig[0])

    u = LatticeFunction(params, {y: float(c) for y, c in zip(Ys, coeffs)})
    residuals = np.abs(apply_frac_lattice(u, np.array(Xs))).tolist()
    residual = max(residuals)
    u_norm = float(np.abs(coeffs).max())
    cert = Certificate(
        residual_sup=residual,
        u_norm=u_norm,
        tolerance=tol * u_norm,
        paper_claim="global-ucp-failure-lattice",
        parameters={"s": params.s, "h": params.h, "d": params.d,
                    "X": [list(x) for x in Xs], "Y": [list(y) for y in Ys]},
        details={"singular_values": sig.tolist(),
                 "multiple_solutions": multiple,
                 "residuals": residuals},
    )
    if not cert.passed:
        raise CertificateError(
            f"null-vector residual {residual:.3e} above {cert.tolerance:.3e}")
    return u, cert


def torus_ucp_counterexample(N, s, X, tol=1e-12):
    """Nonzero torus function vanishing, together with its fractional
    Laplacian, on a set X of at most N points of {-N..N}.  The
    certificate's details["residuals"] holds |Lu| at each point of its
    parameters["X"] (X sorted), by the pointwise route."""
    n = 2 * N + 1
    Xs = sorted({int(np.atleast_1d(x)[0]) for x in X})
    if any(not -N <= x <= N for x in Xs):
        raise ValueError("X must lie in {-N..N}")
    if len(Xs) > N:
        raise ValueError(
            f"|X| = {len(Xs)} exceeds N = {N}: the system has at least as many"
            " equations as unknowns and the construction does not apply")
    from .kernel import torus_kernel_table

    table = torus_kernel_table(s, N, 1, tol=1e-14)
    Ys = [y[0] for y in _auto_select_y([(x,) for x in Xs], len(Xs) + 1, 1,
                                       [(x,) for x in Xs], wrap=n)]
    M = table.value(np.subtract.outer(Xs, Ys)[..., None])
    _, sig, vt = np.linalg.svd(M)
    coeffs = _normalize_null_vector(vt[-1])
    vals = np.zeros(n)
    for y, c in zip(Ys, coeffs):
        vals[(y + N) % n] = c
    u = TorusFunction(N, 1, vals)
    out = apply_frac_torus_pointwise(u, s, tol=min(tol, 1e-12))
    residuals = [abs(float(out.value(x))) for x in Xs]
    residual = max(residuals)
    u_norm = float(np.abs(coeffs).max())
    cert = Certificate(
        residual_sup=residual,
        u_norm=u_norm,
        tolerance=tol * u_norm,
        paper_claim="global-ucp-failure-torus",
        parameters={"s": s, "N": N, "X": Xs, "Y": Ys},
        details={"singular_values": sig.tolist(), "residuals": residuals},
    )
    if not cert.passed:
        raise CertificateError(
            f"torus null-vector residual {residual:.3e} above {cert.tolerance:.3e}")
    return u, cert


def slab_correction_amplitude(params):
    """The corrective spike amplitude a = (K(1)+K(2)) / (K(3)-K(1))."""
    k1, k2, k3 = _kernel_1d_raw(params.s, params.h, np.arange(1, 4)).tolist()
    a = (k1 + k2) / (k3 - k1)
    if a == -1.0:
        raise CertificateError("slab correction amplitude hit -1; spikes vanish")
    return a


def slab_counterexample_1d(params, tol=1e-10, window=200):
    """Weak-UCP failure on the slab {-1,0,1} in one dimension.

    Returns (u, V, certificate): u is the two-sided step corrected by spikes
    of amplitude a at +-2, V the bounded potential with Lu = V u everywhere
    (0/0 read as 0).  Residuals on the slab use the exact half-line tails.
    """
    if params.d != 1:
        raise ValueError("slab_counterexample_1d requires d = 1")
    a = slab_correction_amplitude(params)
    u = LatticeFunction(params, {(2,): a, (-2,): -a}, StepProfile(0, 2, -1.0, 1.0))
    # the slab points, then the window, in one operator call
    js = np.arange(-window, window + 1)
    pts = np.concatenate(([-1, 0, 1], js))[:, None]
    lu = apply_frac_lattice(u, pts)
    residuals = dict(zip((-1, 0, 1), lu[:3].tolist()))
    residual_sup = max(abs(r) for r in residuals.values())
    lu, uv = lu[3:], u.value(pts[3:])
    V = potential_from_pair(uv, lu, tol=max(tol, residual_sup * 4.0 + 1e-14))
    pot_bound = float(np.abs(V).max())
    # |Lu| is already decaying at the window edge, so the sup is interior
    edge_ok = abs(lu[-1]) <= abs(lu[-10]) and pot_bound > abs(lu[-1])

    u_norm = 1.0 + abs(a)
    cert = Certificate(
        residual_sup=residual_sup,
        u_norm=u_norm,
        tolerance=tol,
        paper_claim="weak-ucp-failure-slab-1d",
        potential_bound=pot_bound,
        parameters={"s": params.s, "h": params.h, "a": a, "window": window},
        details={"slab_residuals": {str(j): r for j, r in residuals.items()},
                 "potential_sup_interior": bool(edge_ok)},
    )
    if not cert.passed:
        raise CertificateError(f"slab residual {residual_sup:.3e} above {tol:.3e}")
    Vfun = LatticeFunction(params, {(j,): v for j, v in zip(js.tolist(), V.tolist())
                                    if v != 0.0})
    return u, Vfun, cert


def slab_counterexample_2d(params, j2_samples=(0, 1, 5, 25, 100), trunc_radius=200):
    """Weak-UCP failure on the slab {j1 in {-1,0,1}} in two dimensions.

    Evaluates the operator of the corrected step w (constant in j2) at
    j1 in {0, +-1} for each sampled j2 by truncated double sums over the box
    |m1 - j1| <= r, |m2| <= r, so the j2 dependence of the truncated values
    probes the exact cancellation of the infinite sums.

    The tolerance is the omitted mass, exact by kernel reduction
    (sum_{m2} K_2(m1, m2) = K_1(m1)): the full sums give (L_1 w)(j1), and
    the box omits sum_{m1=1..r} (2w(j1) - w(j1-m1) - w(j1+m1)) D(m1) plus
    2 w(j1) T(r+1) beyond it, where D(m1) = K_1(m1) - sum_{m2 in the window}
    K_2(m1, m2) >= 0 and T is the 1-D tail.  It is the largest over the
    samples of |(L_1 w)(j1)| plus that sum in absolute values, with |D| + e
    for D (e the window sum of the table's certified errors), plus a
    rounding floor.  A column with D < -e, a quadrature column above the
    closed form, raises CertificateError.
    """
    if params.d != 2:
        raise ValueError("slab_counterexample_2d requires d = 2")
    s, h = params.s, params.h
    r = int(trunc_radius)
    j2s = sorted({int(j) for j in j2_samples})
    j2max = max(abs(j) for j in j2s)
    if j2max > r // 2:
        raise ValueError("j2 samples must satisfy |j2| <= trunc_radius/2")
    p1 = FracParams(s, h, 1)
    a = slab_correction_amplitude(p1)
    # the corrected step along j1: the one-dimensional slab function
    step = StepProfile(0, 2, -1.0, 1.0)
    w = LatticeFunction(p1, {(2,): a, (-2,): -a}, step)
    j1s = np.array([[-1], [0], [1]])
    exact = np.abs(apply_frac_lattice(w, j1s))
    k1 = _kernel_1d_raw(s, h, np.arange(r + 1))

    # w(j1) - w(j1 - r1) for |r1| <= r; paired at +-m1 they give
    # 2w(j1) - w(j1-m1) - w(j1+m1), and beyond |m1| = r, where w is the step,
    # the omitted sum is exactly 2 w(j1) T(r+1)
    r1 = np.arange(-r, r + 1)
    wj = w.value(j1s)
    diffs = wj[:, None] - w.value((j1s - r1).reshape(-1, 1)).reshape(3, -1)
    pair = np.abs(diffs[:, r:] + diffs[:, r::-1])
    beyond = 2.0 * np.abs(wj) * _tail_1d_raw(s, h, r + 1.0)

    table = build_kernel_table(params, r + j2max, tol=1e-9)
    # column sums of the kernel over m2 in [j2 - r, j2 + r] for m1 = 0..r,
    # and of their certified errors; both are even in m1
    rad = table.radius
    vals = np.empty((3, len(j2s)))
    omitted = 0.0
    for k, j2 in enumerate(j2s):
        box = (slice(rad, rad + r + 1), slice(j2 - r + rad, j2 + r + rad + 1))
        cols, errs = table.values[box].sum(axis=1), table.err[box].sum(axis=1)
        deficit = k1 - cols
        if np.any(deficit[1:] < -errs[1:]):
            raise CertificateError(
                f"slab-2d quadrature column exceeds the closed-form K_1 at j2 = {j2}:"
                f" by {-deficit[1:].min():.3e}, certified error {errs[1:].max():.3e}")
        terms = diffs * cols[np.abs(r1)]
        vals[:, k] = terms.sum(axis=1)
        # each sum of 2r+1 terms rounds by at most (2r+1) eps of its absolute sum
        floor = 2.0 * (2 * r + 1) * np.finfo(float).eps * np.abs(terms).sum(axis=1)
        bound = exact + pair @ (np.abs(deficit) + errs) + beyond + floor
        omitted = max(omitted, float(bound.max()))
    resid = float(np.abs(vals).max())
    spread = float(np.abs(vals - vals[:, :1]).max())

    # uncorrected step value at (1, 0): 1D reduction oracle target
    cols0 = table.values[:, -r + rad:r + rad + 1].sum(axis=1)[r1 + rad]
    step_only = -float(step.base_values(1 - r1) @ cols0)

    cert = Certificate(
        residual_sup=resid,
        u_norm=1.0 + abs(a),
        tolerance=omitted,
        paper_claim="weak-ucp-failure-slab-2d",
        parameters={"s": s, "h": h, "a": a,
                    "trunc_radius": r, "j2_samples": j2s},
        details={"values": {f"{j1},{j2}": float(vals[i, k]) for i, j1 in enumerate((-1, 0, 1))
                            for k, j2 in enumerate(j2s)},
                 "j2_spread": spread,
                 "step_value_at_1_0": step_only,
                 "step_target": -float(k1[1:3].sum()),
                 "omitted_bound": omitted},
    )
    if not cert.passed:
        raise CertificateError(
            f"slab-2d residual {resid:.3e} above certificate tolerance {omitted:.3e}")
    return cert


def potential_from_pair(u_vals, lu_vals, tol=1e-12):
    """V with Lu = V u pointwise: V = Lu/u where u != 0, else 0.

    Raises InconsistentPotentialError at any index where u = 0 but
    |Lu| > tol.
    """
    u = np.asarray(u_vals, dtype=float)
    lu = np.asarray(lu_vals, dtype=float)
    if u.shape != lu.shape:
        raise ValueError("u and Lu must have the same shape")
    bad = np.flatnonzero((u == 0.0) & (np.abs(lu) > tol))
    if bad.size:
        raise InconsistentPotentialError(np.unravel_index(bad[0], u.shape))
    return np.divide(lu, u, out=np.zeros_like(u), where=u != 0.0)
