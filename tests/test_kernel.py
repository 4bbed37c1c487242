"""Kernel evaluation: closed forms, quadrature, tails, torus, heat kernels."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from fraclat.kernel import (
    FracParams,
    build_kernel_table,
    heat_kernel,
    kernel_1d,
    kernel_lattice_mass,
    kernel_nd,
    kernel_nd_bound,
    kernel_tail_bound_ell1,
    kernel_tail_sum_1d,
    kernel_values,
    torus_heat_kernel,
    torus_kernel,
    torus_kernel_table,
)
from fraclat.specfun import bessel_i_scaled_row, gamma_ratio


def _quad_oracle(s, m):
    """Kernel at offset m (h = 1) by scipy quadrature of heat_kernel(m, e^u)
    e^{-s u} over [-60, log 1e9] plus the leading analytic tail beyond 1e9;
    independent of the shared grid and of its tail expansion."""
    a = 0.5 * len(m) + s
    big_t = 1e9
    val, _ = scipy.integrate.quad(
        lambda u: heat_kernel(m, math.exp(u)) * math.exp(-s * u), -60.0, math.log(big_t),
        epsabs=0.0, epsrel=1e-13, limit=400)
    tail = (4.0 * math.pi) ** (-0.5 * len(m)) * big_t ** (-a) / a
    return (val + tail) / abs(scipy.special.gamma(-s))


class TestKernel1D:
    def test_zero_offset(self):
        assert kernel_1d(FracParams(0.5), 0) == 0.0

    def test_half_values(self):
        p = FracParams(0.5)
        assert kernel_1d(p, 1) == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-14)
        assert kernel_1d(p, 2) == pytest.approx(4.0 / (15.0 * math.pi), rel=1e-14)
        assert kernel_1d(p, 3) == pytest.approx(4.0 / (35.0 * math.pi), rel=1e-14)

    def test_symmetry(self):
        p = FracParams(0.37)
        assert kernel_1d(p, -5) == kernel_1d(p, 5)

    def test_mesh_scaling_exact(self):
        # K with mesh h equals h^{-2s} K with mesh 1, exactly in floating point
        for s in (0.25, 0.5, 0.75):
            for h in (0.5, 0.1):
                a = kernel_1d(FracParams(s, h), 7)
                b = kernel_1d(FracParams(s, 1.0), 7) * h ** (-2.0 * s)
                assert a == pytest.approx(b, rel=1e-14)

    def test_asymptotic_doubling_ratio(self):
        for s in (0.25, 0.5, 0.75):
            p = FracParams(s)
            ratio = kernel_1d(p, 512) / kernel_1d(p, 1024)
            assert abs(ratio / 2.0 ** (1.0 + 2.0 * s) - 1.0) < 0.01

    def test_positivity(self):
        for s in (0.1, 0.5, 0.9):
            p = FracParams(s)
            assert all(kernel_1d(p, m) > 0 for m in range(1, 50))


class TestTailSum1D:
    def test_half_value(self):
        # s = 1/2, h = 1: total one-sided tail from 1 is 2/pi
        assert kernel_tail_sum_1d(FracParams(0.5), 1) == pytest.approx(
            2.0 / math.pi, rel=1e-13)

    def test_telescoping_consistency(self):
        p = FracParams(0.3)
        for M in range(1, 51):
            lhs = kernel_tail_sum_1d(p, M) - kernel_tail_sum_1d(p, M + 1)
            assert lhs == pytest.approx(kernel_1d(p, M), rel=1e-11)

    def test_brute_sum_oracle(self):
        # closed-form tail vs vectorized summation of the kernel to 1e6
        for s in (0.25, 0.5, 0.75):
            p = FracParams(s)
            m = np.arange(1.0, 1.0e6)
            c1 = kernel_1d(p, 1) / math.exp(
                scipy.special.gammaln(1.0 - s) - scipy.special.gammaln(2.0 + s))
            brute = float(np.sum(np.exp(
                scipy.special.gammaln(m - s) - scipy.special.gammaln(m + 1.0 + s)))) * c1
            closed = kernel_tail_sum_1d(p, 1)
            # the brute force truncation itself contributes ~ M^{-2s}
            assert abs(brute - closed) < max(3.0 * closed * 1e6 ** (-2.0 * s) / (2.0 * s), 1e-10)
            assert brute < closed

    def test_tail_power_stabilizes(self):
        p = FracParams(0.5)
        r1 = kernel_tail_sum_1d(p, 10 ** 4) * (10 ** 4) ** (2 * 0.5)
        r2 = kernel_tail_sum_1d(p, 10 ** 5) * (10 ** 5) ** (2 * 0.5)
        assert abs(r1 / r2 - 1.0) < 0.01


class TestKernelND:
    def test_matches_closed_form_d1(self):
        for s in (0.25, 0.5, 0.75):
            for h in (1.0, 0.1):
                p = FracParams(s, h, 1)
                for m in (1, 2, 5, 13, 20):
                    q = kernel_nd(p, [m], tol=1e-9)
                    assert q == pytest.approx(kernel_1d(p, m), rel=1e-8)

    def test_matches_closed_form_extreme_orders(self):
        for s in (0.05, 0.95):
            p = FracParams(s, 1.0, 1)
            for m in (1, 7, 20):
                q = kernel_nd(p, [m], tol=1e-9)
                assert q == pytest.approx(kernel_1d(p, m), rel=1e-8)

    def test_even_symmetry_2d(self):
        p = FracParams(0.3, 1.0, 2)
        v = kernel_nd(p, (2, -3))
        assert kernel_nd(p, (2, 3)) == pytest.approx(v, rel=1e-12)
        assert kernel_nd(p, (-2, 3)) == pytest.approx(v, rel=1e-12)

    def test_upper_bound_2d(self):
        p = FracParams(0.5, 1.0, 2)
        assert kernel_nd(p, (1, 0)) <= kernel_nd_bound(p, (1, 0))

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            kernel_nd(FracParams(0.5, 1.0, 2), (0, 0))

    def test_tolerance_failure_reports_achieved_error(self):
        from fraclat.kernel import ToleranceError

        with pytest.raises(ToleranceError) as exc:
            kernel_nd(FracParams(0.25, 1.0, 2), (3, 1), tol=1e-17)  # below the rounding floor
        assert exc.value.achieved is not None and exc.value.achieved > 0.0

    @pytest.mark.parametrize("s", [0.01, 0.25, 0.5, 0.75, 0.99, 0.995])
    def test_certificate_near_order_limits(self, s):
        # near s = 1 most of the integral lies at tiny t, near s = 0 in the
        # far tail: both ends must be integrated, not dropped
        p = FracParams(s, 1.0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in range(1, 41):
                (v,), (e,) = kernel_values(p, [[m]], tol=1e-10)
                ref = kernel_1d(p, m)
                assert kernel_nd(p, [m], tol=1e-10) == v
                assert v == pytest.approx(ref, rel=1e-10)
                assert abs(v - ref) <= e

    def test_large_t_panel_stays_finite(self):
        # the large-t panel evaluates g_m(2t) past scipy's ive argument limit
        assert math.isfinite(kernel_nd(FracParams(0.5, 1.0, 2), (3, 4)))

    def test_semigroup_quadrature_oracle(self):
        # scipy quadrature of the heat-kernel integral reproduces the kernel
        s, h = 0.4, 1.0
        p = FracParams(s, h, 2)
        for m in ((1, 0), (2, 1)):
            val, _ = scipy.integrate.quad(
                lambda t: heat_kernel(m, t) * t ** (-1.0 - s), 0.0, np.inf,
                epsabs=1e-12, epsrel=1e-10, limit=400)
            ref = val / abs(scipy.special.gamma(-s))
            assert kernel_nd(p, m, tol=1e-8) == pytest.approx(ref, rel=1e-6)


class TestKernelMass:
    def test_d1_closed_form(self):
        assert kernel_lattice_mass(FracParams(0.5)) == pytest.approx(
            4.0 / math.pi, rel=1e-12)

    def test_d2_bracketed_by_partial_sums(self):
        p = FracParams(0.5, 1.0, 2)
        mass = kernel_lattice_mass(p, tol=1e-12)
        table = build_kernel_table(p, 60, tol=1e-10)
        partial = float(table.values.sum())
        assert partial < mass < partial + kernel_tail_bound_ell1(p, 60)

    @pytest.mark.parametrize("d, radius", [(2, 60), (3, 12)])
    @pytest.mark.parametrize("s", [0.01, 0.99])
    def test_extreme_orders_bracketed(self, d, radius, s):
        p = FracParams(s, 1.0, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mass = kernel_lattice_mass(p, tol=1e-12)
            partial = float(build_kernel_table(p, radius, tol=1e-10).values.sum())
        assert math.isfinite(mass)
        assert partial < mass < partial + kernel_tail_bound_ell1(p, radius)


class TestAppendixBound:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_never_violated(self, d, s):
        p = FracParams(s, 1.0, d)
        offsets = []
        for off in np.ndindex(*(13,) * d):
            if 0 < sum(off) <= 12:
                offsets.append(off)
        for m in offsets:
            val = kernel_nd(p, m, tol=1e-8)
            assert val <= kernel_nd_bound(p, m) * (1.0 + 1e-8)


class TestTorusKernel:
    def test_series_matches_heat_route_d1(self):
        for s in (0.25, 0.5, 0.75):
            a = torus_kernel_table(s, 8, 1, tol=1e-12, need_diag=True, method="series")
            b = torus_kernel_table(s, 8, 1, tol=1e-12, need_diag=True, method="heat")
            assert np.abs(a.full - b.full).max() < 1e-10
            assert abs(a.diag - b.diag) < 1e-10

    def test_symmetry_and_domination(self):
        N, s = 8, 0.5
        n = 2 * N + 1
        h = 2.0 * math.pi / n
        p = FracParams(s, h, 1)
        for j in range(1, N + 1):
            va = torus_kernel(p, N, j)
            assert va == pytest.approx(torus_kernel(p, N, -j), rel=1e-14)
            assert va >= kernel_1d(p, j)

    def test_heat_route_2d_vs_brute_periodization(self):
        N, s = 3, 0.5
        n = 2 * N + 1
        h = 2.0 * math.pi / n
        table = torus_kernel_table(s, N, 2, tol=1e-13)
        K = 30
        wraps = [(1 + k1 * n, 2 + k2 * n)
                 for k1 in range(-K, K + 1) for k2 in range(-K, K + 1)]
        brute = float(kernel_values(FracParams(s, h, 2), wraps, tol=1e-9)[0].sum())
        # every excluded wrap lies beyond sup-norm distance K*n - 2 from the
        # base offset, so the gap is controlled by the ell^1 tail bound there
        tail = kernel_tail_bound_ell1(FracParams(s, h, 2), K * n - 2)
        assert 0.0 < table.value((1, 2)) - brute < tail

    def test_mesh_consistency_enforced(self):
        with pytest.raises(ValueError):
            torus_kernel(FracParams(0.5, 1.0, 1), 8, 1)

    def test_zero_offset_rejected(self):
        n = 17
        p = FracParams(0.5, 2.0 * math.pi / n, 1)
        with pytest.raises(ValueError):
            torus_kernel(p, 8, 0)


class TestHeatRouteTable:
    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.85, 0.95])
    def test_off_diagonal_table_stops_at_its_plateau(self, s, d, N):
        # only the diagonal wrap value needs the g_0^d tail certified, so a
        # table without it may stop at a smaller T; both must agree
        import fraclat.kernel

        fraclat.kernel._torus_table_cached.cache_clear()  # build inside the filter
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            off = torus_kernel_table(s, N, d, tol=1e-12, method="heat")
            with_diag = torus_kernel_table(s, N, d, tol=1e-12, need_diag=True, method="heat")
        assert np.abs(off.full - with_diag.full).max() <= off.err + with_diag.err
        assert off.T <= with_diag.T
        assert off.nodes <= with_diag.nodes
        assert off.diag == 0.0 and with_diag.diag > 0.0

    def test_series_route_records_no_plateau(self):
        table = torus_kernel_table(0.5, 8, 1, method="series")
        assert table.T is None and table.nodes is None


class TestHeatKernel:
    def test_initial_condition(self):
        assert heat_kernel([0], 0.0) == 1.0
        assert heat_kernel((0, 0), 0.0) == 1.0

    def test_symmetry(self):
        assert heat_kernel((2, -3), 1.3) == heat_kernel((2, 3), 1.3)
        assert heat_kernel((-2, 3), 1.3) == heat_kernel((2, 3), 1.3)

    def test_unit_mass(self):
        for t in (0.5, 1.0, 2.0):
            m1 = sum(heat_kernel([m], t) for m in range(-60, 61))
            assert abs(m1 - 1.0) < 1e-12
        total = sum(heat_kernel((a, b), 1.0)
                    for a in range(-60, 61) for b in range(-60, 61))
        assert abs(total - 1.0) < 1e-10


class TestTorusHeatKernel:
    def test_unit_mass(self):
        N = 8
        h = 2.0 * math.pi / 17.0
        tot = sum(torus_heat_kernel(N, h, j, 0.5) for j in range(-N, N + 1))
        assert abs(tot - 1.0) < 1e-12

    def test_spectral_cross_check(self):
        N = 8
        h = 2.0 * math.pi / 17.0
        for t in (0.1, 1.0, 5.0):
            a = torus_heat_kernel(N, h, 3, t)
            b = torus_heat_kernel(N, h, 3, t, spectral=True)
            assert abs(a - b) < 1e-10

    def test_initial_condition(self):
        assert torus_heat_kernel(8, 2.0 * math.pi / 17.0, 0, 1e-12) == pytest.approx(
            1.0, abs=1e-9)

    def test_2d_factorization(self):
        N = 4
        h = 2.0 * math.pi / 9.0
        v = torus_heat_kernel(N, h, (2, 3), 0.7)
        assert v == pytest.approx(
            torus_heat_kernel(N, h, 2, 0.7) * torus_heat_kernel(N, h, 3, 0.7),
            rel=1e-13)

    def test_batched_wrap_sums_equal_scalar_rows(self):
        from fraclat.kernel import _wrap_sums

        x = 2.0 * np.exp(np.linspace(-60.0, 9.0, 40))
        for n in (3, 17, 33):
            rows, wraps = _wrap_sums(n, x)
            for i, xi in enumerate(x):
                row, wrap = _wrap_sums(n, xi)
                assert np.abs(rows[i, :row.size] - row).max() <= 1e-15
                # the batch shares the largest argument's order cut-off
                assert rows[i, row.size:].max(initial=0.0) <= math.exp(-45.0)
                assert np.abs(wraps[i] - wrap).max() <= 1e-15

    def test_matches_per_argument_bincount_fold(self):
        def wrap_reference(n, x):
            # the wrap sums as first written: one Bessel row, folded by bincount
            m = int(math.sqrt(90.0 * x)) + 2 * n + 2
            row = np.empty(m + 1)
            bessel_i_scaled_row(m, x, row)
            k = np.arange(-m, m + 1)
            return np.bincount(k % n, weights=row[np.abs(k)], minlength=n)

        for N in (1, 4, 8, 16):
            n = 2 * N + 1
            h = 2.0 * math.pi / n
            for t in (1e-9, 0.3, 2.0, 40.0, 900.0):
                wrap = wrap_reference(n, 2.0 * t / (h * h))
                for j in ((0,), (N,), (1, -N), (N, 2)):
                    ref = math.prod(wrap[c % n] for c in j)
                    assert abs(torus_heat_kernel(N, h, j, t) - ref) <= 1e-15


class TestTailBound:
    def test_dominates_measured_partial_tails(self):
        # the certificate must sit above every measured partial tail sum
        p = FracParams(0.5, 1.0, 2)
        table = build_kernel_table(p, 150, tol=1e-9)
        rad = table.radius
        a = np.abs(np.arange(-rad, rad + 1))
        ell1 = a[:, None] + a[None, :]
        for R in (20, 50, 100):
            measured = float(table.values[ell1 > R].sum())
            assert measured < kernel_tail_bound_ell1(p, R)

    def test_decreasing_in_radius(self):
        p = FracParams(0.3, 1.0, 2)
        vals = [kernel_tail_bound_ell1(p, R) for R in (10, 30, 90)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.3, 0.9])
    def test_matches_scalar_loop(self, s, d):
        from fraclat.kernel import _tail_constant

        def loop_bound(radius):
            # the bound as first written: one ratio update per ell^1 shell
            big_p = max(100000, 4 * radius)
            total = 0.0
            ratio = gamma_ratio(radius + 1.0 - s, radius + 1.0 + d + s)
            m = radius + 1
            for rho in range(radius + 1, big_p):
                if d == 1:
                    cnt = 2.0
                elif d == 2:
                    cnt = 4.0 * rho
                else:
                    cnt = 4.0 * rho * rho + 2.0
                total += cnt * ratio
                ratio *= (m - s) / (m + d + s)
                m += 1
            if d == 1:
                rem = 2.0 * ratio * big_p / (2.0 * s)
            elif d == 2:
                rem = 4.0 * ratio * big_p * big_p / (2.0 * s)
            else:
                rem = 4.0 * ratio * big_p ** 3 / (1.0 + 2.0 * s)
            return 2.0 * _tail_constant(FracParams(s, 1.0, d)) * (total + 1.05 * rem)

        for radius in (5, 30, 200):
            assert kernel_tail_bound_ell1(FracParams(s, 1.0, d), radius) == pytest.approx(
                loop_bound(radius), rel=1e-12)


class TestKernelTable:
    def test_d1_closed_form(self):
        p = FracParams(0.5)
        t = build_kernel_table(p, 10)
        for m in range(-10, 11):
            assert t.value(m) == pytest.approx(kernel_1d(p, m), abs=1e-300, rel=1e-13)

    def test_d2_vs_adaptive(self):
        # reference: the scipy quadrature oracle, not the shared grid
        p = FracParams(0.5, 1.0, 2)
        t = build_kernel_table(p, 64, tol=1e-9)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = int(rng.integers(0, 65)), int(rng.integers(0, 65))
            if a == b == 0:
                a = 1
            ref = _quad_oracle(0.5, (a, b))
            assert abs(t.value((a, b)) - ref) <= 1e-8 * ref + 1e-13

    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_d2_honours_tol(self, s):
        tol = 1e-12
        t = build_kernel_table(FracParams(s, 1.0, 2), 60, tol=tol)
        off_zero = t.values != 0.0
        assert off_zero.sum() == t.values.size - 1
        assert (t.err[off_zero] <= tol * t.values[off_zero]).all()

    def test_symmetry_and_zero(self):
        p = FracParams(0.3, 1.0, 2)
        t = build_kernel_table(p, 5)
        assert t.value((0, 0)) == 0.0
        assert t.value((2, -4)) == t.value((-2, 4)) == t.value((2, 4))
        assert (t.values[t.values != 0.0] > 0).all()

    def test_d3_small(self):
        p = FracParams(0.5, 1.0, 3)
        t = build_kernel_table(p, 2, tol=1e-8)
        ref = _quad_oracle(0.5, (1, 2, 0))
        assert t.value((1, 2, 0)) == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("d, r", [(2, 90), (3, 12)])
    @pytest.mark.parametrize("s", [0.01, 0.25, 0.5, 0.95, 0.99])
    def test_gram_table_equals_gathered_offsets(self, s, d, r):
        # the table's Gram contraction and kernel_values' per-offset gather
        # share the grid, so they differ only by rounding
        p = FracParams(s, 1.0, d)
        table = build_kernel_table(p, r, tol=1e-9)
        m = np.indices((r + 1,) * d).reshape(d, -1).T[1:]
        val, _ = kernel_values(p, m, tol=1e-9)
        signs = np.random.default_rng(7).choice([-1, 1], size=m.shape)
        idx = tuple((signs * m + r).T)
        gap = np.abs(table.values[idx] - val)
        assert (gap <= 1e-14 * val).all()
        assert (gap <= table.err[idx]).all()


class TestNonFiniteCertificates:
    """A nan never passes an ``err > tol`` test; every certificate must catch it."""

    def test_kernel_nd_and_mass(self, monkeypatch):
        import fraclat.kernel
        from fraclat.kernel import ToleranceError

        def row_nan(nmax, t, out):
            out[..., :nmax + 1] = math.nan

        monkeypatch.setattr(fraclat.kernel, "bessel_i_scaled_row", row_nan)
        with pytest.raises(ToleranceError):
            kernel_nd(FracParams(0.4142, 1.0, 2), (1, 2))
        with pytest.raises(ToleranceError):
            kernel_lattice_mass(FracParams(0.4142, 1.0, 2))

    def test_shared_grid_tables(self, monkeypatch):
        import fraclat.kernel
        from fraclat.kernel import ToleranceError

        real_row = fraclat.kernel.bessel_i_scaled_row

        def row_nan_at_small_t(nmax, t, out):
            # quadrature nodes only: the heat route's plateau search stays finite
            real_row(nmax, t, out)
            out[..., :nmax + 1] = np.where(np.asarray(t) < 1.0, math.nan, out[..., :nmax + 1])

        monkeypatch.setattr(fraclat.kernel, "bessel_i_scaled_row", row_nan_at_small_t)
        for d in (1, 2):
            with pytest.raises(ToleranceError):
                torus_kernel_table(0.4142, 3, d, method="heat")
        with pytest.raises(ToleranceError):
            build_kernel_table(FracParams(0.4142, 1.0, 2), 4)

    def test_series_table(self, monkeypatch):
        import fraclat.kernel
        from fraclat.kernel import ToleranceError

        monkeypatch.setattr(fraclat.kernel, "gamma_ratio", lambda a, b: math.nan)
        with pytest.raises(ToleranceError):
            torus_kernel_table(0.4142, 3, 1, method="series")
