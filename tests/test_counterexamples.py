"""Unique-continuation counterexamples and their certificates."""

import numpy as np
import pytest

from fraclat.counterexamples import (
    InconsistentPotentialError,
    _select_y,
    global_ucp_counterexample,
    potential_from_pair,
    slab_correction_amplitude,
    slab_counterexample_1d,
    slab_counterexample_2d,
    torus_ucp_counterexample,
)
from fraclat.kernel import FracParams, kernel_1d
from fraclat.lattice import (
    apply_frac_lattice,
    apply_frac_torus_pointwise,
    apply_frac_torus_spectral,
)


def _select_y_loop(points, count, d, wrap=None):
    """Reference: Y as first chosen, by a growing box of candidate tuples
    around the rounded centroid, wrapped onto {-N..N}^d on the torus."""
    centroid = np.asarray(points, dtype=float).reshape(len(points), d).mean(axis=0)
    base = tuple(int(round(c)) for c in centroid)
    excl = set(points)
    radius = 1
    while True:
        cands = []
        for off in np.ndindex(*(2 * radius + 1,) * d):
            pt = tuple(base[i] + off[i] - radius for i in range(d))
            if wrap is not None:
                pt = tuple(((c + wrap // 2) % wrap) - wrap // 2 for c in pt)
            if pt in excl:
                continue
            if wrap is not None:
                dist = max(min(abs(pt[i] - centroid[i] + k * wrap) for k in (-1, 0, 1))
                           for i in range(d))
            else:
                dist = max(abs(pt[i] - centroid[i]) for i in range(d))
            cands.append((dist, pt))
        inner = [c for c in sorted(set(cands)) if c[0] <= radius - 0.5]
        if len(inner) >= count:
            return [c[1] for c in inner[:count]]
        radius += 1


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("torus", [False, True])
def test_array_selection_of_y_matches_the_loop(d, torus):
    rng = np.random.default_rng(10 * d + torus)
    for _ in range(150):
        if torus:
            N = int(rng.integers(1, 12 if d == 1 else 5))
            n = 2 * N + 1
            size = int(rng.integers(1, min((n ** d - 1) // 2, 10) + 1))
            flat = rng.choice(n ** d, size, replace=False)
            X = np.array(np.unravel_index(flat, (n,) * d)).T - N
        else:
            n, span = None, int(rng.integers(1, 10))
            X = rng.integers(-span, span + 1, (int(rng.integers(1, 8)), d))
        points = sorted(set(map(tuple, X.tolist())))
        Y = _select_y(np.array(points), len(points) + 1, n)
        assert list(map(tuple, Y.tolist())) == _select_y_loop(points, len(points) + 1, d, n)


class TestGlobalUCP:
    def test_hand_case(self):
        # X = {0}, Y = {1, 2}: K(1) u_1 + K(2) u_2 = 0 forces u ~ (1, -5)
        p = FracParams(0.5)
        u, cert = global_ucp_counterexample(p, [(0,)], Y=[(1,), (2,)], tol=1e-12)
        assert u.value(1) / u.value(2) == pytest.approx(-0.2, rel=1e-12)
        assert cert.residual_sup < 1e-14
        assert cert.passed

    def test_normalization_convention(self):
        p = FracParams(0.5)
        u, _ = global_ucp_counterexample(p, [(0,)], Y=[(1,), (2,)])
        vals = [u.value(1), u.value(2)]
        assert max(abs(v) for v in vals) == 1.0
        assert vals[0] > 0.0  # first nonzero entry positive

    def test_scaling_invariance(self):
        # the certificate decision is scale free: residual and tolerance
        # both scale with the sup norm of u
        p = FracParams(0.5)
        _, cert = global_ucp_counterexample(p, [(0,), (3,)], tol=1e-9)
        assert cert.tolerance == pytest.approx(1e-9 * cert.u_norm)

    def test_system_homogeneity(self):
        # rescaling every kernel entry (here through the mesh factor
        # h^{-2s}) leaves the null vector unchanged
        X, Y = [(0,), (3,)], [(1,), (2,), (5,)]
        u1, _ = global_ucp_counterexample(FracParams(0.5, 1.0, 1), X, Y=Y)
        u2, _ = global_ucp_counterexample(FracParams(0.5, 0.25, 1), X, Y=Y)
        for y in Y:
            assert u1.value(y) == pytest.approx(u2.value(y), abs=1e-13)

    def test_2d_random_sets(self):
        p = FracParams(0.3, 1.0, 2)
        rng = np.random.default_rng(5)
        X = list({tuple(int(c) for c in rng.integers(-4, 5, 2)) for _ in range(4)})
        u, cert = global_ucp_counterexample(p, X, tol=1e-9)
        assert cert.passed
        for x in X:
            assert abs(apply_frac_lattice(u, x)) <= 1e-9 * cert.u_norm

    def test_disjointness_enforced(self):
        p = FracParams(0.5)
        with pytest.raises(ValueError):
            global_ucp_counterexample(p, [(0,)], Y=[(0,), (1,)])


class TestTorusUCP:
    def test_single_point(self):
        u, cert = torus_ucp_counterexample(5, 0.5, [0], tol=1e-12)
        assert cert.passed
        assert np.abs(u.values).max() == 1.0

    def test_cardinality_precondition(self):
        with pytest.raises(ValueError, match="exceeds N"):
            torus_ucp_counterexample(5, 0.5, list(range(-3, 3)))

    def test_constant_shift_sanity(self):
        # adding a constant to u leaves the operator unchanged
        u, _ = torus_ucp_counterexample(5, 0.5, [0, 2], tol=1e-11)
        a = apply_frac_torus_pointwise(u, 0.5)
        shifted = u.copy_with(u.values + 3.7)
        b = apply_frac_torus_pointwise(shifted, 0.5)
        assert np.abs(a.values - b.values).max() < 1e-11

    @pytest.mark.parametrize("d, N", [(2, 8), (3, 4)])
    @pytest.mark.parametrize("s", [0.05, 0.95])
    def test_certified_in_higher_dimensions_by_both_routes(self, d, N, s):
        # X is the box {-1..1}^d: 9 and 27 points
        X = [tuple(p) for p in (np.indices((3,) * d).reshape(d, -1).T - 1).tolist()]
        u, cert = torus_ucp_counterexample(N, s, X, tol=1e-12)
        assert cert.passed and u.d == d
        assert cert.parameters["X"] == [list(x) for x in X]
        pointwise = apply_frac_torus_pointwise(u, s)
        spectral = apply_frac_torus_spectral(u, s)
        for x, rp, rs in zip(X, cert.details["residuals"], cert.details["residuals_spectral"]):
            assert rp == abs(pointwise.value(x)) and rs == abs(spectral.value(x))
            assert max(rp, rs) <= 1e-12
        assert u.values[tuple(np.add(X, N).T)].tolist() == [0.0] * len(X)

    @pytest.mark.parametrize("route", ["apply_frac_torus_pointwise", "apply_frac_torus_spectral"])
    def test_either_route_off_by_1e_8_fails(self, route, monkeypatch):
        import fraclat.counterexamples as counterexamples
        from fraclat.counterexamples import CertificateError

        real = getattr(counterexamples, route)

        def perturbed(u, s, **kwargs):
            out = real(u, s, **kwargs)
            return out.copy_with(out.values + 1e-8)

        monkeypatch.setattr(counterexamples, route, perturbed)
        with pytest.raises(CertificateError, match="1.000e-08"):
            torus_ucp_counterexample(4, 0.5, [(0, 0), (1, 0)])

    def test_cardinality_bound_in_two_dimensions(self):
        # n = 5: |X| <= (25 - 1)/2 = 12 points of the 5 x 5 torus
        grid = [tuple(p) for p in (np.indices((5, 5)).reshape(2, -1).T - 2).tolist()]
        passed = 0
        for k in range(1, 26):
            if k <= 12:
                passed += torus_ucp_counterexample(2, 0.5, grid[:k])[1].passed
            else:
                with pytest.raises(ValueError, match=r"exceeds \(n\^2 - 1\)/2 = 12"):
                    torus_ucp_counterexample(2, 0.5, grid[:k])
        assert passed == 12

    def test_points_of_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            torus_ucp_counterexample(4, 0.5, [(0, 0), (1,)])

    def test_residual_verified_by_pointwise_route(self):
        N, X = 8, [-2, 0, 3]
        u, cert = torus_ucp_counterexample(N, 0.5, X, tol=1e-10)
        out = apply_frac_torus_pointwise(u, 0.5)
        for x in X:
            assert abs(out.value(x)) <= 1e-10


class TestSlab1D:
    def test_amplitude_half(self):
        # a = (K(1)+K(2)) / (K(3)-K(1)) = -21/16 at s = 1/2, h = 1
        a = slab_correction_amplitude(FracParams(0.5))
        assert a == pytest.approx(-21.0 / 16.0, abs=1e-12)

    def test_amplitude_below_minus_one(self):
        for s in (0.1, 0.5, 0.9):
            assert slab_correction_amplitude(FracParams(s)) < -1.0

    def test_certificate(self):
        u, V, cert = slab_counterexample_1d(FracParams(0.5), tol=1e-10, window=80)
        assert cert.passed
        assert cert.details["slab_residuals"]["0"] == 0.0  # exact by symmetry
        assert abs(cert.details["slab_residuals"]["1"]) < 1e-12
        assert u.value(2) == pytest.approx(1.0 - 21.0 / 16.0)

    def test_schroedinger_identity_window(self):
        # (operator u)_j = V_j u_j on |j| <= 50
        p = FracParams(0.5)
        u, V, cert = slab_counterexample_1d(p, window=60)
        for j in range(-50, 51):
            lu = apply_frac_lattice(u, j)
            assert abs(lu - V.value(j) * u.value(j)) < 1e-9

    def test_potential_bound_mesh_scaling(self):
        _, _, c1 = slab_counterexample_1d(FracParams(0.5, 0.5, 1), window=60)
        _, _, c2 = slab_counterexample_1d(FracParams(0.5, 1.0, 1), window=60)
        assert c1.potential_bound / c2.potential_bound == pytest.approx(
            0.5 ** -1.0, rel=1e-10)
        _, _, c3 = slab_counterexample_1d(FracParams(0.5, 0.1, 1), window=60)
        assert c3.potential_bound / c2.potential_bound == pytest.approx(
            0.1 ** -1.0, rel=1e-10)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            slab_counterexample_1d(FracParams(0.5, 1.0, 2))


class TestSlab2D:
    def test_certificate_and_reduction(self):
        p = FracParams(0.5, 1.0, 2)
        cert = slab_counterexample_2d(p, j2_samples=(0, 1, 5, 20), trunc_radius=80)
        assert cert.passed
        # the uncorrected step reduces to the one-dimensional value
        target = -(kernel_1d(FracParams(0.5), 1) + kernel_1d(FracParams(0.5), 2))
        assert cert.details["step_value_at_1_0"] == pytest.approx(
            target, abs=cert.tolerance)
        # truncated values vary little across j2 (exact sums not at all)
        assert cert.details["j2_spread"] <= 2.0 * cert.tolerance
        # the vanishing rows are symmetric-exact
        for j2 in (0, 1, 5, 20):
            assert abs(cert.details["values"][f"0,{j2}"]) < 1e-12

    def test_j2_range_guard(self):
        p = FracParams(0.5, 1.0, 2)
        with pytest.raises(ValueError):
            slab_counterexample_2d(p, j2_samples=(0, 100), trunc_radius=80)

    def test_generic_order(self):
        p = FracParams(0.3, 1.0, 2)
        cert = slab_counterexample_2d(p, j2_samples=(0, 2, 10), trunc_radius=60)
        assert cert.passed
        target = -(kernel_1d(FracParams(0.3), 1) + kernel_1d(FracParams(0.3), 2))
        assert cert.details["step_value_at_1_0"] == pytest.approx(
            target, abs=cert.tolerance)


    @pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.85])
    def test_tolerance_is_the_omitted_mass(self, s):
        # the omitted column mass bounds each truncated value sharply: the
        # tolerance stays within 3x the residual, and below |u| by far
        cert = slab_counterexample_2d(FracParams(s, 1.0, 2), j2_samples=(0, 1, 5, 15, 30),
                                      trunc_radius=60)
        assert cert.passed
        assert cert.tolerance == cert.details["omitted_bound"]
        assert cert.tolerance <= 3.0 * cert.residual_sup
        assert cert.tolerance < 1e-2 * cert.u_norm
        assert abs(cert.details["step_value_at_1_0"]
                   - cert.details["step_target"]) <= cert.tolerance
        assert cert.details["j2_spread"] <= 2.0 * cert.tolerance

    def test_scaled_table_raises(self, monkeypatch):
        # kernel values 0.1% too large make a quadrature column exceed the
        # closed-form K_1: the independent reduction check must catch it
        import dataclasses

        import fraclat.counterexamples as counterexamples
        from fraclat.counterexamples import CertificateError

        real = counterexamples.build_kernel_table

        def scaled(*args, **kwargs):
            table = real(*args, **kwargs)
            return dataclasses.replace(table, values=1.001 * table.values)

        monkeypatch.setattr(counterexamples, "build_kernel_table", scaled)
        with pytest.raises(CertificateError):
            slab_counterexample_2d(FracParams(0.5, 1.0, 2), j2_samples=(0, 1, 5, 15, 30),
                                   trunc_radius=60)

class TestPotentialFromPair:
    def test_simple_ratio(self):
        V = potential_from_pair([2.0, 0.0], [1.0, 0.0])
        assert V[0] == 0.5 and V[1] == 0.0

    def test_zero_over_zero(self):
        assert potential_from_pair([0.0], [0.0])[0] == 0.0

    def test_inconsistency(self):
        with pytest.raises(InconsistentPotentialError):
            potential_from_pair([0.0], [0.3])
