"""Unique-continuation counterexamples and their certificates."""

import numpy as np
import pytest

from fraclat.counterexamples import (
    InconsistentPotentialError,
    global_ucp_counterexample,
    potential_from_pair,
    slab_correction_amplitude,
    slab_counterexample_1d,
    slab_counterexample_2d,
    torus_ucp_counterexample,
)
from fraclat.kernel import FracParams, kernel_1d
from fraclat.lattice import apply_frac_lattice, apply_frac_torus_pointwise


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
