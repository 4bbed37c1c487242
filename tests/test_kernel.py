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
from fraclat.specfun import bessel_i_scaled_row


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

    def test_memoised_masses_and_tables_stay_within_their_bound(self):
        # the warm-operator benchmark pool reads about 9 table keys; more
        # distinct keys than the bound evict the oldest, and cache_clear empties
        import fraclat.kernel as K

        size = K._CACHE_SIZE
        assert size >= 9
        for k in range(size + 5):
            s = 0.3 + 0.01 * k
            kernel_lattice_mass(FracParams(s))
            torus_kernel_table(s, 2, 1)
        for cache in (K._kernel_mass_cached, K._torus_table_cached):
            info = cache.cache_info()
            assert info.maxsize == size and info.currsize == size
            cache.cache_clear()
            assert cache.cache_info().currsize == 0


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


def _exact_torus_kernel(s, N, d=1):
    """The periodized kernel on {-N..N}^d, indexed by j mod n, and its
    diagonal wrap value with the absolute error of that value, from finite
    sums.

    K_T(j) = -n^{-d} sum_k mu(k) cos(2 pi k.j / n), and .diag = mass -
    mean(mu) is the operator applied to delta_0, read at 0, both in mpmath
    at 30 digits, and 20 more than the decimal exponent of s below 1e-10,
    where mu^s is 1 + O(s).  In d = 1 the mass is 2 c1 Gamma(1-s) /
    (2s Gamma(1+s)), the telescoping tail at M = 1; in d >= 2 it is
    kernel_lattice_mass at tol 1e-13, whose error the third value carries."""
    import mpmath as mp

    n = 2 * N + 1
    k = np.indices((n,) * d).reshape(d, -1).T - N
    # K_T is even in each coordinate: sum over j in {0..N}^d and mirror
    j = np.indices((N + 1,) * d).reshape(d, -1).T
    with mp.workdps(max(30, 20 - math.floor(math.log10(s)))):
        S = mp.mpf(s)
        h = 2 * mp.pi / n
        mu = [(4 / h ** 2 * mp.fsum(mp.sin(mp.pi * int(c) / n) ** 2 for c in kk)) ** S
              for kk in k]
        cos = [mp.cos(2 * mp.pi * r / n) for r in range(n)]
        orth = np.array([float(-mp.fsum(m * cos[r] for m, r in zip(mu, (k @ jj) % n)) / n ** d)
                         for jj in j]).reshape((N + 1,) * d)
        mean = mp.fsum(mu) / n ** d
        if d == 1:
            c1 = 4 ** S * mp.gamma(0.5 + S) / (mp.sqrt(mp.pi) * abs(mp.gamma(-S)) * h ** (2 * S))
            mass, mass_err = c1 * mp.gamma(1 - S) / (S * mp.gamma(1 + S)), 0.0
        else:
            mass = kernel_lattice_mass(FracParams(s, float(h), d), tol=1e-13)
            mass_err = 1e-13 * mass
    idx = np.minimum(np.arange(n), n - np.arange(n))
    return orth[np.ix_(*(idx,) * d)], float(mass - mean), mass_err


class TestTorusKernel:
    def test_series_matches_heat_route_d1(self):
        for s in (0.25, 0.5, 0.75):
            a = torus_kernel_table(s, 8, 1, tol=1e-12, need_diag=True, method="series")
            b = torus_kernel_table(s, 8, 1, tol=1e-12, need_diag=True, method="heat")
            assert np.abs(a.full - b.full).max() < 1e-10
            assert abs(a.diag - b.diag) < 1e-10

    @pytest.mark.parametrize("N", (8, 16))
    @pytest.mark.parametrize("s", (0.01, 0.05, 0.1, 0.15, 0.21, 0.5, 0.95, 0.99))
    def test_routes_against_exact_fourier_sum(self, s, N):
        # each route lies within its certificate of the exact values
        exact, diag, _ = _exact_torus_kernel(s, N)
        for method in ("series", "heat"):
            t = torus_kernel_table(s, N, 1, tol=1e-12, need_diag=True, method=method)
            assert np.abs(t.full[1:] - exact[1:]).max() <= t.err, method
            assert abs(t.diag - diag) <= t.err, method

    @pytest.mark.parametrize("N", (4, 32))
    @pytest.mark.parametrize("s", (0.01, 0.99))
    def test_series_route_against_exact_fourier_sum(self, s, N):
        # the series route alone, where its residue-class build runs longest
        # (s = 0.01) and shortest
        exact, diag, _ = _exact_torus_kernel(s, N)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = torus_kernel_table(s, N, 1, tol=1e-12, need_diag=True, method="series")
        assert np.abs(t.full[1:] - exact[1:]).max() <= t.err
        assert abs(t.diag - diag) <= t.err

    @pytest.mark.parametrize("d, N", [(1, 16), (2, 3), (2, 8), (3, 2)])
    @pytest.mark.parametrize("s", (0.01, 0.5, 0.99))
    def test_heat_route_against_exact_fourier_sum_nd(self, s, d, N):
        # entries with and without the diagonal, and .diag, each within its
        # certificate of the exact values (and of the mass's error)
        import fraclat.kernel

        exact, diag, diag_err = _exact_torus_kernel(s, N, d)
        off = np.ones(exact.shape, dtype=bool)
        off[(0,) * d] = False
        fraclat.kernel._torus_table_cached.cache_clear()  # build inside the filter
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for need_diag in (False, True):
                t = torus_kernel_table(s, N, d, tol=1e-12, need_diag=need_diag, method="heat")
                assert np.abs(t.full - exact)[off].max() <= t.err, need_diag
        assert abs(t.diag - diag) <= t.err + diag_err

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

    @pytest.mark.parametrize("d", [1, 2])
    def test_value_gathers_full_and_diag(self, d):
        N = 3
        table = torus_kernel_table(0.4, N, d, tol=1e-12, need_diag=True)
        rng = np.random.default_rng(d)
        offsets = rng.integers(-20, 21, (40, d))
        offsets[:3] = [[0] * d, [7] * d, [-14] * d]  # zero offset and its wraps
        n = 2 * N + 1
        ref = [table.diag if not (o % n).any() else table.full[tuple(o % n)]
               for o in offsets]
        got = table.value(offsets)
        assert got.shape == (40,)
        assert list(got) == ref
        assert (got[:3] == table.diag).all()
        assert (table.value(offsets.reshape(4, 10, d)) == got.reshape(4, 10)).all()
        assert [table.value(tuple(o)) for o in offsets] == ref
        with pytest.raises(ValueError):
            table.value(np.zeros((2, d + 1), dtype=int))
        with pytest.raises(ValueError):
            table.value((3,) * (d + 1))
        if d == 2:
            with pytest.raises(ValueError):
                table.value(3)

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

    @pytest.mark.parametrize("N, d, need_diag", [(8, 2, True), (16, 1, False)])
    @pytest.mark.parametrize("s", (0.25, 0.35, 0.45, 0.55, 0.65, 0.85))
    def test_plateau_is_the_first_passing_doubling(self, s, N, d, need_diag):
        # the tables of the cold-kernels benchmark pool: at T/2 the wrap row
        # (argument 2 (T/2)) or the g_0^d tail misses the plateau bound, so
        # neither the search start nor the doublings that share one Bessel
        # call can make T larger than needed
        import fraclat.kernel as K

        t = torus_kernel_table(s, N, d, tol=1e-12, need_diag=need_diag, method="heat")
        n = 2 * N + 1
        goal = 0.05 * 1e-12 / math.exp(K._log_pref(s, 2.0 * math.pi / n))
        half = t.T / 2.0
        dev = np.abs(K._heat_wraps(n, N, np.array([t.T]))[0, :N + 1] - 1.0 / n).max()
        resid = d * n ** (1.0 - d) / s * dev * half ** -s
        assert resid > goal or (need_diag and K._g0d_tail(d, s, half)[1] > goal)

    POOL = (0.25, 0.35, 0.45, 0.55, 0.65, 0.85)

    @pytest.mark.parametrize("N, d, need_diag, pinned", [
        (16, 1, False, dict.fromkeys(POOL, (1024.0, 600))),
        (8, 2, True, {0.25: (2048.0, 630), 0.35: (2048.0, 630), 0.45: (2048.0, 630),
                      0.55: (1024.0, 600), 0.65: (1024.0, 600), 0.85: (512.0, 570)}),
    ])
    def test_pool_tables_sweep_at_most_twice(self, N, d, need_diag, pinned, monkeypatch):
        # the tables of the cold-kernels benchmark pool keep the plateau T and
        # node count of the search that tried the rows of every candidate
        # doubling; the row at 2T, the largest argument, rides in the sweep of
        # the largest nodes, and the deep nodes take one short sweep
        import fraclat.kernel as K

        real_sweep = K._bessel_sweep
        swept = []

        def recording_sweep(nmax, x):
            swept.append(x.copy())
            return real_sweep(nmax, x)

        monkeypatch.setattr(K, "_bessel_sweep", recording_sweep)
        for s, (T, nodes) in pinned.items():
            swept.clear()
            K._torus_table_cached.cache_clear()
            t = torus_kernel_table(s, N, d, tol=1e-12, need_diag=need_diag, method="heat")
            assert (t.T, t.nodes) == (T, nodes)
            assert 1 <= len(swept) <= 2
            assert swept[0][-1] == 2.0 * T and swept[0].size > 1
            assert sum(x.size for x in swept) == nodes + 1

    def test_wraps_match_rows_started_at_the_largest_cut_off(self):
        # the reference is the wrap route with one row length per call: every
        # row runs from the largest argument's cut-off and is scaled before
        # the fold
        import fraclat.kernel as K

        def reference(n, x):
            m = int(K._wrap_order(n, x.max()))
            rows = np.empty((x.size, m + 1))
            bessel_i_scaled_row(m, x[:, None], rows)
            k = np.arange(-m, m + 1)
            fold = np.zeros((m + 1, n))
            np.add.at(fold, (np.abs(k), k % n), 1.0)
            return rows, rows @ fold

        x = 2.0 * np.exp(np.linspace(-40.0, 9.0, 200))
        for n in (3, 17, 33):
            N = n // 2
            rows, wraps = reference(n, x)
            cols = K._heat_wraps(n, N, x)
            # coordinates j > N read the mirror column n - j, as torus_heat_kernel does
            mirror = np.minimum(np.arange(n), n - np.arange(n))
            assert np.abs(cols[:, mirror] - wraps).max() <= 1e-15
            assert np.abs(cols[:, N + 1] - 2.0 * rows[:, n::n].sum(axis=1)).max() <= 1e-15
            assert np.abs(cols[:, N + 2] - rows[:, 0]).max() <= 1e-15

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
    @pytest.mark.parametrize("s", [0.01, 0.3, 0.9])
    def test_matches_scalar_loop(self, s, d):
        # the closed form against mpmath's Levin-u sum of the shell series
        # C sum_{rho > R} n_d(rho) Gamma(rho - s) / Gamma(rho + d + s), with
        # n_1 = 2, n_2 = 4 rho, n_3 = 4 rho^2 + 2, and C the prefactor of
        # the exact kernel in d = 1 and of kernel_nd_bound otherwise
        import mpmath as mp

        with mp.workdps(30):
            ms = mp.mpf(s)
            count = {1: lambda r: 2, 2: lambda r: 4 * r, 3: lambda r: 4 * r * r + 2}[d]

            def term(r):
                return count(r) * mp.gamma(r - ms) / mp.gamma(r + d + ms)

            if d == 1:
                pref = 4 ** ms * mp.gamma(0.5 + ms) / (mp.sqrt(mp.pi) * abs(mp.gamma(-ms)))
            else:
                pref = (2 ** (d * (d + 2 * ms - 1)) * 4 ** ms * mp.gamma(d / mp.mpf(2) + ms)
                        / (mp.pi ** (d / mp.mpf(2)) * abs(mp.gamma(-ms))))
            # one Levin-u sum from rho = 6; larger radii subtract whole shells
            beyond_5 = mp.nsum(term, [6, mp.inf], method="levin", levin_variant="u")
            for radius in (5, 30, 200):
                ref = pref * (beyond_5 - mp.fsum(term(r) for r in range(6, radius + 1)))
                assert kernel_tail_bound_ell1(FracParams(s, 1.0, d), radius) == pytest.approx(
                    float(ref), rel=1e-12)


class TestKernelReduction:
    """sum_{m' in Z^{d-1}} K_d(m1, m') = K_1(m1) at the same s and h, from
    sum_n e^{-x} I_n(x) = 1 in the heat-semigroup form of the kernel."""

    @pytest.mark.parametrize("d, windows", [(2, (8, 32, 128)), (3, (4, 8, 16))])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.85])
    def test_partial_sums_approach_kernel_1d(self, s, d, windows):
        tol = 1e-12
        p = FracParams(s, 1.0, d)
        for m1 in (1, 3, 10):
            k1 = kernel_1d(FracParams(s), m1)
            gaps = []
            for w in windows:
                others = np.indices((2 * w + 1,) * (d - 1)).reshape(d - 1, -1).T - w
                offs = np.column_stack((np.full(len(others), m1), others))
                partial = float(kernel_values(p, offs, tol)[0].sum())
                assert partial <= k1 * (1.0 + tol)
                gaps.append(k1 - partial)
            assert gaps[0] > gaps[1] > gaps[2] > 0.0
            assert gaps[2] < 0.5 * gaps[0]


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
        real_sweep = fraclat.kernel._bessel_sweep

        def row_nan_at_small_t(nmax, t, out):
            # quadrature nodes only: the heat route's plateau row stays finite
            real_row(nmax, t, out)
            out[..., :nmax + 1] = np.where(np.asarray(t) < 1.0, math.nan, out[..., :nmax + 1])

        def sweep_nan_at_small_x(nmax, x):
            # the heat route's node sweep, which bypasses bessel_i_scaled_row
            y, scale = real_sweep(nmax, x)
            return np.where(x < 1.0, math.nan, y), scale

        monkeypatch.setattr(fraclat.kernel, "bessel_i_scaled_row", row_nan_at_small_t)
        monkeypatch.setattr(fraclat.kernel, "_bessel_sweep", sweep_nan_at_small_x)
        for d in (1, 2):
            with pytest.raises(ToleranceError):
                torus_kernel_table(0.4142, 3, d, method="heat")
        with pytest.raises(ToleranceError):
            build_kernel_table(FracParams(0.4142, 1.0, 2), 4)

    def test_series_table(self, monkeypatch):
        import fraclat.kernel
        from fraclat.kernel import ToleranceError

        # the series route's closed forms take their ratios from gamma_ratio_shifted
        monkeypatch.setattr(fraclat.kernel, "gamma_ratio_shifted", lambda m, a, b: math.nan)
        with pytest.raises(ToleranceError):
            torus_kernel_table(0.4142, 3, 1, method="series")
