"""Constructive failures of unique continuation for the discrete operator.

On the lattice and on the discrete torus {-N..N}^d, d <= 3, vanishing of
u and of its fractional Laplacian on a finite set X does not force u = 0:
prescribing u on a disjoint set Y with |Y| = |X| + 1 (by default the
points outside X nearest to its centroid) leaves an underdetermined
homogeneous system whose null vector is an explicit counterexample; one
construction serves both.  A two-sided step with a single corrective
amplitude likewise defeats weak unique continuation from a three-point
slab for a fractional Schroedinger equation, in one and (by kernel
reduction) two dimensions.

Every certificate produced here is re-verified through an operator
application path that is independent of the linear algebra used in the
construction; on the torus, through both the pointwise and the spectral
route.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    FracParams,
    build_kernel_table,
    torus_kernel_table,
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
    apply_frac_torus_spectral,
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


def _select_y(X, count, n=None):
    """The ``count`` points outside X (an integer array (P, d)) nearest to
    its centroid by sup-norm distance, ties broken lexicographically.

    On the torus of period n the candidates are all of {-N..N}^d, at wrapped
    distance.  On the lattice they are the box of radius r around the
    rounded centroid, and r doubles until the count-th point lies within
    r - 1/2: no point outside the box is nearer."""
    centroid = X.mean(axis=0)
    corner, r = (-(n // 2), n // 2) if n else (np.rint(centroid).astype(np.int64) - 1, 1)
    while True:
        shape = (2 * r + 1,) * X.shape[1]
        free = np.ones(shape, dtype=bool)
        off = X - corner  # on the torus every point of X lies in the grid
        free[tuple((off if n else off[((off >= 0) & (off < shape[0])).all(axis=1)]).T)] = False
        pts = np.argwhere(free) + corner
        dist = np.abs(pts - centroid)
        if n:
            dist = np.minimum(dist, n - dist)
        dist = dist.max(axis=1)
        order = np.argsort(dist, kind="stable")[:count]  # pts are in lexicographic order
        if n or (order.size == count and dist[order[-1]] <= r - 0.5):
            return pts[order]
        corner, r = corner - r, 2 * r


def _certify_null_vector(M, measure, tol, paper_claim, parameters):
    """The null vector of the kernel matrix M (rows X, columns Y) as a
    verified counterexample.

    The vector is normalised to sup norm 1 with its first nonzero entry
    positive.  measure(coeffs, sig), given the singular values sig of M,
    returns (u, routes, details): routes maps detail keys to |Lu| at each
    point of X by a route independent of M, "residuals" giving residual_sup,
    and CertificateError is raised if any route exceeds the tolerance."""
    _, sig, vt = np.linalg.svd(M)
    coeffs = vt[-1] / np.abs(vt[-1]).max()
    if coeffs[np.abs(coeffs) > 1e-13][0] < 0:
        coeffs = -coeffs
    u, routes, details = measure(coeffs, sig)
    u_norm = float(np.abs(coeffs).max())
    cert = Certificate(residual_sup=max(routes["residuals"]), u_norm=u_norm,
                       tolerance=tol * u_norm, paper_claim=paper_claim, parameters=parameters,
                       details={"singular_values": sig.tolist(), **details, **routes})
    worst = max(max(r) for r in routes.values())
    if not (cert.passed and worst <= cert.tolerance):
        raise CertificateError(
            f"{paper_claim}: null-vector residual {worst:.3e} above {cert.tolerance:.3e}")
    return u, cert


def _point_array(points):
    """Points given as ints (d = 1) or d-tuples, as an integer array (P, d)."""
    arr = np.array(points, dtype=np.int64)
    if arr.size == 0 or arr.ndim > 2:
        raise ValueError("a point set must hold at least one point, all of one dimension")
    return arr.reshape(len(arr), -1)


def global_ucp_counterexample(params, X, Y=None, tol=1e-9, ktol=1e-12):
    """Nonzero u supported on Y with u = 0 = (fractional Laplacian u) on X.

    X is a finite set of lattice points of dimension params.d; Y (|Y| =
    |X| + 1, disjoint from X) defaults to the nearest points outside X.
    Returns the function and a certificate whose residual is recomputed by
    the summation path; its details["residuals"] holds |Lu| at each point
    of X, in order.
    """
    Xa = _point_array(X)
    Xs = list(map(tuple, Xa.tolist()))
    if Xa.shape[1] != params.d:
        raise ValueError(f"X holds {Xa.shape[1]}-dimensional points, params.d = {params.d}")
    if len(set(Xs)) != len(Xs):
        raise ValueError("X contains repeated points")
    if Y is None:
        Ya = _select_y(Xa, len(Xs) + 1)
    else:
        Ya = _point_array(Y)
        if set(map(tuple, Ya.tolist())) & set(Xs):
            raise ValueError("Y must be disjoint from X")
        if Ya.shape != (len(Xs) + 1, params.d):
            raise ValueError("Y must have |X| + 1 points of dimension d")
    Ys = Ya.tolist()

    def measure(coeffs, sig):
        u = LatticeFunction(params, dict(zip(map(tuple, Ys), coeffs.tolist())))
        return u, {"residuals": np.abs(apply_frac_lattice(u, Xa)).tolist()}, {
            "multiple_solutions": bool(sig.size >= 2 and sig[-2] <= 1e-12 * sig[0])}

    M = _kernels_at(params, Xa[:, None] - Ya, ktol)
    return _certify_null_vector(M, measure, tol, "global-ucp-failure-lattice",
                                {"s": params.s, "h": params.h, "d": params.d,
                                 "X": Xa.tolist(), "Y": Ys})


def torus_ucp_counterexample(N, s, X, tol=1e-12):
    """Nonzero torus function vanishing, together with its fractional
    Laplacian, on a set X of points of {-N..N}^d, d <= 3: ints (d = 1) or
    d-tuples, repeats merged, at most (n^d - 1)/2 of them (N in d = 1).

    The certificate's parameters["X"] is X sorted; details["residuals"]
    holds |Lu| at each of its points by the pointwise route, and
    details["residuals_spectral"] by the spectral route.
    """
    n = 2 * N + 1
    Xa = np.array(sorted(set(map(tuple, _point_array(X).tolist()))))
    d = Xa.shape[1]
    if np.abs(Xa).max() > N:
        raise ValueError("X must lie in {-N..N}^d")
    if len(Xa) > (n ** d - 1) // 2:
        raise ValueError(f"|X| = {len(Xa)} exceeds {'N' if d == 1 else f'(n^{d} - 1)/2'} = "
                         f"{(n ** d - 1) // 2}: the system has at least as many equations as"
                         " unknowns and the construction does not apply")
    Ya = _select_y(Xa, len(Xa) + 1, n)
    at = tuple((Xa + N).T)

    def measure(coeffs, sig):
        vals = np.zeros((n,) * d)
        vals[tuple((Ya + N).T)] = coeffs
        u = TorusFunction(N, d, vals)
        pointwise = apply_frac_torus_pointwise(u, s, tol=min(tol, 1e-12)).values[at]
        spectral = apply_frac_torus_spectral(u, s).values[at]
        return u, {"residuals": np.abs(pointwise).tolist(),
                   "residuals_spectral": np.abs(spectral).tolist()}, {}

    M = torus_kernel_table(s, N, d, tol=1e-14).value(Xa[:, None] - Ya)
    Xs, Ys = (a.ravel().tolist() if d == 1 else a.tolist() for a in (Xa, Ya))
    return _certify_null_vector(M, measure, tol, "global-ucp-failure-torus",
                                {"s": s, "N": N, "X": Xs, "Y": Ys})


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
