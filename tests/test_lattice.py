"""Lattice/torus functions, transforms, operator applications, norms."""

import math

import numpy as np
import pytest
import scipy.integrate

from fraclat.inverse import h1_gram
from fraclat.kernel import (
    FracParams,
    ToleranceError,
    _tail_1d_raw,
    build_kernel_table,
    kernel_1d,
    kernel_lattice_mass,
    kernel_tail_bound_ell1,
    torus_kernel_table,
)
from fraclat.lattice import (
    LatticeFunction,
    StepProfile,
    TorusFunction,
    _torus_multiplier,
    apply_frac_lattice,
    apply_frac_torus_pointwise,
    apply_frac_torus_spectral,
    periodize,
    transference_check,
)
from oracles import dft, idft


# The index loops that the array code in fraclat.lattice replaced, kept as
# references for it.


def _roll_loop_apply(v, table):
    out = np.zeros_like(v)
    axes = tuple(range(v.ndim))
    for r in np.ndindex(table.shape):
        out += table[r] * (v - np.roll(v, r, axis=axes))
    return out


def _box_loop_apply(u, j, radius, table):
    jj = tuple(j)
    uj = u.value(jj)
    total = 0.0
    for off in np.ndindex(*(2 * radius + 1,) * u.params.d):
        r = tuple(o - radius for o in off)
        if all(x == 0 for x in r):
            continue
        m = tuple(a - b for a, b in zip(jj, r))
        total += (uj - u.value(m)) * table.values[off]
    return total


def _wrapped_lhs_loop(v, phi):
    params, N, d = phi.params, v.N, v.d
    table = torus_kernel_table(params.s, N, d, tol=1e-13, need_diag=True)
    lhs = kernel_lattice_mass(params) * float(np.sum(v.values * periodize(phi, N).values))
    for m, pm in phi.support.items():
        for j in np.ndindex(*(v.n,) * d):
            off = tuple(c - N - a for c, a in zip(j, m))
            lhs -= float(v.values[j]) * pm * table.value(off)
    return lhs


def _direct_lhs_loop(v, phi, L):
    mass = kernel_lattice_mass(phi.params)
    acc = 0.0
    for l in range(-L, L + 1):
        op_l = phi.support.get((l,), 0.0) * mass
        for (p,), c in phi.support.items():
            if l != p:
                op_l -= c * kernel_1d(phi.params, l - p)
        acc += v.values[(l + v.N) % v.n] * op_l
    return acc


def _direct_lhs(v, phi, L):
    """The left side of the transference identity in d = 1, summed directly
    over |l| <= L."""
    params = phi.params
    p = np.array([k[0] for k in phi.support])
    c = np.array(list(phi.support.values()))
    ls = np.arange(-L, L + 1)
    op = kernel_lattice_mass(params) * (ls == p[:, None]) - kernel_1d(params, ls - p[:, None])
    return float(v.values[(ls + v.N) % v.n] @ (c @ op))


def _direct_tail(v, phi, L):
    """The exact bound max|v| sum_i |c_i| (T(L+1-p_i) + T(L+1+p_i)) on the
    terms that _direct_lhs omits, T the closed-form tail; |p_i| <= L."""
    p = np.array([k[0] for k in phi.support])
    c = np.array(list(phi.support.values()))
    tails = _tail_1d_raw(phi.params.s, phi.params.h, np.stack((L + 1 - p, L + 1 + p)))
    return float(np.abs(v.values).max()) * float(np.abs(c) @ tails.sum(axis=0))


def random_torus(N, d, seed, sup_one=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((2 * N + 1,) * d)
    if sup_one:
        vals /= np.abs(vals).max()
    return TorusFunction(N, d, vals)


class TestDFT:
    def test_delta(self):
        N = 4
        vals = np.zeros(9)
        vals[4] = 1.0  # delta at index 0
        hat = dft(TorusFunction(N, 1, vals))
        assert np.abs(hat - 1.0 / 9.0).max() < 1e-15

    def test_roundtrip(self):
        for d in (1, 2):
            v = random_torus(4, d, 11)
            back = idft(dft(v), 4, d)
            assert np.abs(back.real - v.values).max() < 1e-13

    def test_parseval_direct_sum_oracle(self):
        N = 4
        v = random_torus(N, 1, 5)
        n = 2 * N + 1
        # direct O(n^2) transform as the oracle
        hat_direct = np.array([
            sum(v.values[j + N] * complex(math.cos(2 * math.pi * m * j / n),
                                          -math.sin(2 * math.pi * m * j / n))
                for j in range(-N, N + 1)) / n
            for m in range(-N, N + 1)])
        hat = dft(v)
        assert np.abs(hat - hat_direct).max() < 1e-13
        assert np.sum(np.abs(v.values) ** 2) == pytest.approx(
            n * np.sum(np.abs(hat) ** 2), rel=1e-12)


class TestSymbol:
    """The operator symbol h^{-2s} (sum_k 4 sin^2(h xi_k / 2))^s on the torus
    frequency grid, xi_k = 2 pi m_k / (n h), as the spectral route reads it."""

    def test_zero(self):
        assert _torus_multiplier(4, 2, 1.0, 0.5)[4, 4] == 0.0

    def test_peak(self):
        # the largest value sits at the corner frequencies m = +-N
        N = 6
        mult = _torus_multiplier(N, 3, 1.0, 0.5)
        peak = (12.0 * math.sin(math.pi * N / (2 * N + 1)) ** 2) ** 0.5
        assert mult[-1, -1, -1] == mult.max() == mult[0, 0, 0]
        assert mult.max() == pytest.approx(peak, rel=1e-13)

    def test_continuum_limit(self):
        # at fixed frequency m the symbol of mesh h = 2pi/n tends to |m|^{2s}
        N = 100
        mult = _torus_multiplier(N, 2, 2.0 * math.pi / (2 * N + 1), 0.5)
        assert abs(mult[N + 1, N + 2] / (1.0 + 4.0) ** 0.5 - 1.0) < 0.01

    def test_periodicity(self):
        # the symbol has period 2pi/h in xi, period n in m: FFT order, which
        # stores frequency k - n at slot k > N, holds the symbol at k
        N, h, s = 5, 0.7, 0.3
        n = 2 * N + 1
        k = np.arange(n)
        at_k = (4.0 / (h * h) * np.sin(math.pi * k / n) ** 2) ** s
        got = np.fft.ifftshift(_torus_multiplier(N, 1, h, s))
        assert np.allclose(got, at_k, rtol=1e-13, atol=0.0)


class TestLatticeFunctionKeys:
    def test_wrong_dimension_raises(self):
        for key in [(1, 2, 3), (1,), 3, np.int64(3)]:
            with pytest.raises(ValueError, match="wrong dimension"):
                LatticeFunction(FracParams(0.5, 1.0, 2), {key: 1.0})
        with pytest.raises(ValueError, match="wrong dimension"):
            LatticeFunction(FracParams(0.5), {(1, 2): 1.0})

    def test_numpy_int_keys(self):
        u = LatticeFunction(FracParams(0.5, 1.0, 2),
                            {(np.int64(1), np.int32(-2)): np.float32(0.5)})
        assert u.support == {(1, -2): 0.5}
        assert all(type(c) is int for c in next(iter(u.support)))
        v = LatticeFunction(FracParams(0.5), {np.int64(4): 1.0})
        assert v.support == {(4,): 1.0}

    def test_scalar_keys_in_one_dimension(self):
        u = LatticeFunction(FracParams(0.5), {3: 1.0, -1: 2.0})
        assert u.support == {(3,): 1.0, (-1,): 2.0}
        assert all(type(k[0]) is int for k in u.support)


class TestApplyLattice:
    def test_constant_profile_killed(self):
        p = FracParams(0.5)
        const = LatticeFunction(p, {}, StepProfile(0, 0, 3.3, 3.3))
        for j in range(-4, 5):
            assert apply_frac_lattice(const, j) == pytest.approx(0.0, abs=1e-13)

    def test_delta_single_term(self):
        p = FracParams(0.5)
        u = LatticeFunction(p, {(0,): 1.0})
        assert apply_frac_lattice(u, 5) == pytest.approx(-kernel_1d(p, 5), rel=1e-13)
        assert apply_frac_lattice(u, 0) == pytest.approx(
            kernel_lattice_mass(p), rel=1e-12)

    def test_step_slab_value(self):
        # two-sided step vanishing on {-1,0,1}: operator at 1 is -8/(5 pi)
        p = FracParams(0.5)
        step = LatticeFunction(p, {}, StepProfile(0, 2, -1.0, 1.0))
        assert apply_frac_lattice(step, 1) == pytest.approx(
            -8.0 / (5.0 * math.pi), rel=1e-12)
        assert apply_frac_lattice(step, 0) == 0.0
        assert apply_frac_lattice(step, -1) == pytest.approx(
            8.0 / (5.0 * math.pi), rel=1e-12)

    def test_step_brute_oracle(self):
        p = FracParams(0.5)
        step = LatticeFunction(p, {}, StepProfile(0, 2, -1.0, 1.0))
        j = 3
        uj = step.value(j)
        R = 200000
        ms = np.arange(j - R, j + R + 1)
        ms = ms[ms != j]
        brute = float(np.sum((uj - step.value(ms[:, None])) * kernel_1d(p, j - ms)))
        # brute truncation alone contributes ~ 2*tail(R)
        assert abs(apply_frac_lattice(step, j) - brute) < 1e-5

    def test_step_profile_2d_truncated(self):
        p = FracParams(0.5, 1.0, 2)
        step = LatticeFunction(p, {}, StepProfile(0, 2, -1.0, 1.0))
        val = apply_frac_lattice(step, (0, 3))
        assert abs(val) < 1e-10  # odd symmetry in the step axis

    @pytest.mark.parametrize("axis", [0, 1])
    def test_step_profile_2d_box_loop_oracle(self, axis):
        # the box loop at radius 32 omits only offsets with |r|_1 > 32, each
        # weighted by |u_j - u_m| <= sup
        p = FracParams(0.5, 1.0, 2)
        u = LatticeFunction(p, {(1, 2): 0.7, (-3, 5): -1.2, (0, 3): 0.5, (40, 0): 2.0},
                            StepProfile(axis, 2, -1.0, 1.5))
        table = build_kernel_table(p, 32, tol=1e-9)
        tail = kernel_tail_bound_ell1(p, 32)
        for j in [(0, 3), (4, -1), (-2, 7), (30, -30)]:
            sup = u.sup_norm_bound() + abs(u.value(j))
            ref = _box_loop_apply(u, j, 32, table)
            assert abs(apply_frac_lattice(u, j) - ref) <= sup * tail

    def test_step_profile_2d_unreachable_tolerance(self):
        # at s = 0.25 no truncated box certifies even tol = 0.05; by kernel
        # reduction a pure step is the one-dimensional operator along its axis
        p, p1 = FracParams(0.25, 1.0, 2), FracParams(0.25)
        k = [kernel_1d(p1, m) for m in range(8)]
        # (L_1 b)(5) = K(4) + K(5) + K(6) + 2 T(7); (L_1 b)(+-1) = -+(K(1) + K(2))
        ref5 = k[4] + k[5] + k[6] + 2.0 * _tail_1d_raw(p1.s, p1.h, 7)
        step1 = LatticeFunction(p1, {}, StepProfile(0, 2, -1.0, 1.0))
        along = np.tile([-6, -1, 0, 1, 2, 5], 3)
        other = np.repeat([-3, 0, 11], 6)
        for axis in (0, 1):
            step = LatticeFunction(p, {}, StepProfile(axis, 2, -1.0, 1.0))
            pts = np.column_stack((along, other) if axis == 0 else (other, along))
            got = apply_frac_lattice(step, pts)
            assert np.isfinite(got).all()
            assert got == pytest.approx(apply_frac_lattice(step1, along[:, None]), rel=1e-13)
            assert got[along == 5] == pytest.approx(ref5, rel=1e-13)
            assert got[along == 1] == pytest.approx(-(k[1] + k[2]), rel=1e-13)
            assert got[along == -1] == pytest.approx(k[1] + k[2], rel=1e-13)

    @pytest.mark.parametrize("s", [0.3, 0.7])
    def test_step_profile_3d(self, s):
        # a box sum omits the kernel mass outside the box, each offset
        # weighted by |u_j - u_m| <= sup: mass - box sum bounds the gap, and
        # the gap shrinks as the box grows
        p = FracParams(s, 1.0, 3)
        u = LatticeFunction(p, {(1, 0, 2): 0.7, (-2, 3, 0): -1.2, (0, 0, 0): 0.5},
                            StepProfile(1, 2, -1.0, 1.5))
        pts = np.array([(0, 3, 0), (2, -1, 1), (-1, 0, 4)])
        got = apply_frac_lattice(u, pts)
        mass = kernel_lattice_mass(p)
        gaps = []
        for radius in (6, 12):
            table = build_kernel_table(p, radius, tol=1e-9)
            offs = np.indices(table.values.shape).reshape(3, -1).T - radius
            box = np.array([((u.value(j) - u.value(j - offs)) * table.values.ravel()).sum()
                            for j in pts])
            sup = u.sup_norm_bound() + np.abs(u.value(pts))
            outside = mass - table.values.sum() + table.err.sum()
            assert (np.abs(got - box) <= sup * outside).all()
            gaps.append(np.abs(got - box))
        assert (gaps[1] < gaps[0]).all()
        # the pure step is the one-dimensional operator along its axis
        step = LatticeFunction(p, {}, u.profile)
        step1 = LatticeFunction(FracParams(s), {}, StepProfile(0, 2, -1.0, 1.5))
        assert apply_frac_lattice(step, pts) == pytest.approx(
            apply_frac_lattice(step1, pts[:, 1, None]), rel=1e-13)


class TestApplyLatticeBatch:
    """An integer (P, d) array of points gives the P single-point values."""

    def test_d1_step_and_finite_support(self):
        p = FracParams(0.35)
        step = LatticeFunction(p, {(2,): 0.4, (-5,): -1.1}, StepProfile(0, 2, -1.0, 1.5))
        finite = LatticeFunction(p, {(0,): 1.0, (3,): -0.5, (-7,): 2.0})
        pts = np.arange(-12, 13)[:, None]
        for u in (step, finite):
            batch = apply_frac_lattice(u, pts)
            assert batch.shape == (len(pts),)
            single = [apply_frac_lattice(u, j) for j in range(-12, 13)]
            assert batch == pytest.approx(single, rel=1e-14, abs=1e-16)
            assert u.value(pts).tolist() == [u.value(j) for j in range(-12, 13)]

    def test_d2_finite_support(self):
        # one shared-grid batch for every (point, support point) pair; each
        # kernel value is certified to 1e-12 relative on either grid
        p = FracParams(0.6, 1.0, 2)
        u = LatticeFunction(p, {(0, 0): 1.0, (1, -2): -0.7, (-3, 1): 0.4})
        pts = np.indices((7, 7)).reshape(2, -1).T - 3
        batch = apply_frac_lattice(u, pts)
        single = [apply_frac_lattice(u, tuple(j)) for j in pts]
        assert batch == pytest.approx(single, rel=1e-10, abs=1e-12)

    def test_d2_step_profile_builds_one_table(self, monkeypatch):
        # the step part is exact by kernel reduction: no dense table, and
        # the batch gives the single-point values
        import fraclat.kernel as kernel

        p = FracParams(0.65, 1.0, 2)
        u = LatticeFunction(p, {(1, 0): 0.5, (-2, 3): -0.25}, StepProfile(0, 2, -1.0, 1.0))
        pts = np.array([(j1, j2) for j1 in (-4, -3, 2, 4) for j2 in (-2, 0, 3)])
        calls = []
        real = kernel.build_kernel_table
        monkeypatch.setattr(kernel, "build_kernel_table",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        batch = apply_frac_lattice(u, pts)
        single = [apply_frac_lattice(u, tuple(j)) for j in pts]
        assert calls == []
        assert batch == pytest.approx(single, rel=1e-13, abs=1e-15)

    def test_one_point_is_the_batch_of_one(self):
        p = FracParams(0.5)
        step = LatticeFunction(p, {}, StepProfile(0, 2, -1.0, 1.0))
        assert isinstance(apply_frac_lattice(step, 1), float)
        assert apply_frac_lattice(step, [[1]]).tolist() == [apply_frac_lattice(step, (1,))]
        with pytest.raises(ValueError):
            apply_frac_lattice(step, np.zeros((3, 2), dtype=int))


class TestApplyTorus:
    def test_plane_wave_eigenfunction(self):
        N, k0, s = 6, 3, 0.5
        n = 2 * N + 1
        h = 2.0 * math.pi / n
        j = np.arange(-N, N + 1)
        v = TorusFunction(N, 1, np.cos(2.0 * math.pi * k0 * j / n))
        lam = (4.0 / h ** 2 * math.sin(math.pi * k0 / n) ** 2) ** s
        out = apply_frac_torus_spectral(v, s)
        assert np.abs(out.values - lam * v.values).max() < 1e-12

    def test_constant_killed(self):
        v = TorusFunction(4, 1, np.full(9, 2.2))
        assert np.abs(apply_frac_torus_spectral(v, 0.5).values).max() < 1e-13
        assert np.abs(apply_frac_torus_pointwise(v, 0.5).values).max() < 1e-13

    def test_semigroup_property(self):
        v = random_torus(5, 1, 3)
        a = apply_frac_torus_spectral(apply_frac_torus_spectral(v, 0.25), 0.25)
        b = apply_frac_torus_spectral(v, 0.5)
        assert np.abs(a.values - b.values).max() < 1e-12

    @pytest.mark.parametrize("d,N", [(1, 9), (2, 5), (3, 3)])
    @pytest.mark.parametrize("s", (0.3, 0.75))
    def test_spectral_matches_dft_route(self, s, d, N):
        # the real FFT in storage order against the {-N..N} reference route
        v = random_torus(N, d, 40 + d)
        ref = np.real(idft(_torus_multiplier(N, d, v.h, s) * dft(v), N, d))
        got = apply_frac_torus_spectral(v, s).values
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("d,N", [(1, 8), (2, 4)])
    def test_pointwise_matches_spectral(self, d, N):
        for s in (0.25, 0.5, 0.75):
            v = random_torus(N, d, 7, sup_one=True)
            a = apply_frac_torus_pointwise(v, s, tol=1e-11)
            b = apply_frac_torus_spectral(v, s)
            assert np.abs(a.values - b.values).max() < 1e-10

    @pytest.mark.parametrize("d,N", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_pointwise_explicit_loop_oracle(self, d, N):
        from fraclat.lattice import _apply_pointwise

        n = 2 * N + 1
        K = torus_kernel_table(0.37, N, d, method="heat").full
        v = random_torus(N, d, 5).values
        ref = np.zeros_like(v)
        if d == 1:
            for j in range(n):
                for m in range(n):
                    if m != j:
                        ref[j] += (v[j] - v[m]) * K[(j - m) % n]
        else:
            for j1 in range(n):
                for j2 in range(n):
                    for m1 in range(n):
                        for m2 in range(n):
                            if (m1, m2) != (j1, j2):
                                ref[j1, j2] += (v[j1, j2] - v[m1, m2]) * K[(j1 - m1) % n,
                                                                           (j2 - m2) % n]
        assert np.abs(_apply_pointwise(v, K) - ref).max() <= 1e-13

    @pytest.mark.parametrize("s,N,d", [(0.75, 32, 1), (0.4, 10, 2), (0.7, 12, 2)])
    def test_pointwise_roll_loop_oracle(self, s, N, d):
        from fraclat.lattice import _apply_pointwise

        K = torus_kernel_table(s, N, d, tol=1e-12).full
        v = random_torus(N, d, 17, sup_one=True).values
        assert np.abs(_apply_pointwise(v, K) - _roll_loop_apply(v, K)).max() <= 1e-13

    @pytest.mark.parametrize("s,N,d", [(0.05, 16, 1), (0.95, 16, 1), (0.05, 6, 2),
                                       (0.95, 6, 2), (0.5, 4, 3)])
    def test_pointwise_roll_loop_oracle_heat_tables(self, s, N, d):
        # real heat-route tables at both ends of (0,1), and a d = 3 torus
        from fraclat.lattice import _apply_pointwise

        K = torus_kernel_table(s, N, d, tol=1e-12, method="heat").full
        v = random_torus(N, d, 23, sup_one=True).values
        assert np.abs(_apply_pointwise(v, K) - _roll_loop_apply(v, K)).max() <= 1e-13

    @pytest.mark.parametrize("s,N,d", [(0.75, 32, 1), (0.4, 10, 2), (0.5, 4, 3)])
    def test_pointwise_constant_maps_to_zero(self, s, N, d):
        from fraclat.lattice import _apply_pointwise

        K = torus_kernel_table(s, N, d, tol=1e-12).full
        for c in (2.2, -1e300, 1.0 / 3.0):
            assert np.abs(_apply_pointwise(np.full(K.shape, c), K)).max() == 0.0
        v = TorusFunction(N, d, np.full(K.shape, 2.2))
        assert np.abs(apply_frac_torus_pointwise(v, s).values).max() == 0.0

    def test_pointwise_generic_in_d(self):
        from fraclat.lattice import _apply_pointwise

        rng = np.random.default_rng(8)
        K = rng.random((5, 5, 5))
        K[0, 0, 0] = 0.0
        v = rng.standard_normal((5, 5, 5))
        assert np.abs(_apply_pointwise(v, K) - _roll_loop_apply(v, K)).max() <= 1e-13
        assert np.abs(_apply_pointwise(np.full((5, 5, 5), 2.2), K)).max() == 0.0

    def test_pointwise_gathers_in_chunks(self):
        # unchunked, the window differences at d=2 N=40 take 6561^2 doubles
        # (344 MB); each chunk gathers about 2^18 of them
        import tracemalloc

        from fraclat.lattice import _apply_pointwise

        rng = np.random.default_rng(40)
        K = rng.random((81, 81))
        K[0, 0] = 0.0
        v = rng.standard_normal((81, 81))
        tracemalloc.start()
        try:
            out = _apply_pointwise(v, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        ref = _roll_loop_apply(v, K)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_pointwise_peak_memory_d2(self):
        # one d=2 N=10 call gathers n^3 window entries and n^3 circulant
        # entries, not the n^4 block of differences v_j - v_{j-r}
        import tracemalloc

        from fraclat.lattice import _apply_pointwise

        K = torus_kernel_table(0.4, 10, 2, tol=1e-12).full
        v = random_torus(10, 2, 4, sup_one=True).values
        _apply_pointwise(v, K)
        tracemalloc.start()
        try:
            _apply_pointwise(v, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 2 ** 10

    def test_pointwise_tables_keyed_by_power_of_two(self):
        # the table tolerance follows the data's sup norm; rounded down to a
        # power of two, inputs of nearby sup norms share one table
        from fraclat.kernel import _torus_table_cached

        N, tol = 6, 1e-11
        _torus_table_cached.cache_clear()
        buckets = set()
        for seed in range(8):
            v = random_torus(N, 1, seed)
            bound = 0.25 * tol / ((2 * N + 1) * (2.0 * np.abs(v.values).max() + 1.0))
            buckets.add(math.floor(math.log2(bound)))
            a = apply_frac_torus_pointwise(v, 0.45, tol=tol)
            assert np.abs(a.values - apply_frac_torus_spectral(v, 0.45).values).max() <= tol
        assert _torus_table_cached.cache_info().misses == len(buckets) < 8

    @pytest.mark.parametrize("d,N", [(1, 9), (2, 5), (3, 3)])
    @pytest.mark.parametrize("s", (0.3, 0.75))
    def test_spectral_symbol_cached_and_bit_identical(self, s, d, N):
        # the cached symbol is the one the uncached route builds, bit for
        # bit, and it is shared read-only
        from fraclat.kernel import _CACHE_SIZE
        from fraclat.lattice import _apply_even, _half_spectrum, _spectral_symbol

        v = random_torus(N, d, 60 + d)
        fresh = _half_spectrum(_torus_multiplier(N, d, v.h, s))
        got = apply_frac_torus_spectral(v, s).values
        assert np.array_equal(got, _apply_even(v.values, fresh, d))
        sym = _spectral_symbol(N, d, s)
        assert np.array_equal(sym, fresh)
        assert not sym.flags.writeable
        with pytest.raises(ValueError):
            sym[(0,) * d] = 1.0
        assert _spectral_symbol(N, d, s) is sym
        assert _spectral_symbol.cache_info().maxsize == _CACHE_SIZE

    def test_spectral_symbol_cache_is_bounded(self):
        from fraclat.kernel import _CACHE_SIZE
        from fraclat.lattice import _spectral_symbol

        _spectral_symbol.cache_clear()
        for k in range(_CACHE_SIZE + 5):
            apply_frac_torus_spectral(random_torus(2, 1, k), 0.01 + 0.02 * k)
        assert _spectral_symbol.cache_info().currsize == _CACHE_SIZE

    def test_self_adjoint_and_nonnegative(self):
        N = 6
        u = random_torus(N, 1, 1)
        v = random_torus(N, 1, 2)
        lu = apply_frac_torus_spectral(u, 0.5)
        lv = apply_frac_torus_spectral(v, 0.5)
        lhs = float(np.sum(lu.values * v.values))
        rhs = float(np.sum(u.values * lv.values))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
        assert float(np.sum(lv.values * v.values)) >= -1e-12


class TestPeriodizeRepeat:
    def test_copy_inside(self):
        p = FracParams(0.5)
        u = LatticeFunction(p, {(2,): 1.5, (-3,): -0.5})
        v = periodize(u, 4)
        assert v.value(2) == 1.5 and v.value(-3) == -0.5
        assert v.values.sum() == pytest.approx(1.0)

    def test_wraparound(self):
        p = FracParams(0.5)
        u = LatticeFunction(p, {(9,): 2.0})  # 9 = 2N+1 for N=4
        v = periodize(u, 4)
        assert v.value(0) == 2.0

    def test_mass_preserved(self):
        p = FracParams(0.5, 1.0, 2)
        rng = np.random.default_rng(0)
        u = LatticeFunction(p, {(int(a), int(b)): float(rng.standard_normal())
                                for a in range(-6, 7) for b in range(-6, 7)})
        v = periodize(u, 3)
        assert v.values.sum() == pytest.approx(sum(u.support.values()), rel=1e-12)

    def test_repeat_periodicity(self):
        # TorusFunction.value is the periodic extension to the whole lattice
        v = random_torus(4, 1, 9)
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = int(rng.integers(-40, 40))
            assert v.value(m) == v.value(m + 9) == v.value(m - 18)
        for j in range(-4, 5):
            assert v.value(j) == v.values[j + 4]

    def test_repeat_constant(self):
        v = TorusFunction(3, 1, np.full(7, 1.7))
        assert v.value(123) == 1.7


class TestTransference:
    @pytest.mark.parametrize("d,N,tol", [(1, 6, 1e-8), (2, 3, 1e-6), (3, 3, 1e-8)])
    def test_wrapped(self, d, N, tol):
        n = 2 * N + 1
        h = 2.0 * math.pi / n
        params = FracParams(0.5, h, d)
        rng = np.random.default_rng(13)
        v = TorusFunction(N, d, rng.standard_normal((n,) * d))
        phi = LatticeFunction(params, {
            tuple(int(c) - 1 for c in idx): float(rng.standard_normal())
            for idx in np.ndindex(*(3,) * d)})
        assert transference_check(v, phi, tol=tol) <= tol

    def test_constant_v(self):
        N = 4
        n = 9
        params = FracParams(0.5, 2.0 * math.pi / n, 1)
        v = TorusFunction(N, 1, np.full(n, 1.0))
        phi = LatticeFunction(params, {(0,): 1.0, (1,): -2.0})
        # both sides vanish: the operator kills constants (left side by
        # summing the operator of phi over all of Z, right side directly)
        assert transference_check(v, phi, tol=1e-8) <= 1e-10

    def test_direct_mode(self):
        # the wrapped left side against the lattice sum itself, truncated at
        # |l| <= L and widened by the exact bound on the omitted terms
        from fraclat.lattice import _wrapped_lhs

        N = 6
        n = 13
        params = FracParams(0.5, 2.0 * math.pi / n, 1)
        rng = np.random.default_rng(4)
        v = TorusFunction(N, 1, rng.standard_normal(n))
        phi = LatticeFunction(params, {(k,): float(rng.standard_normal())
                                       for k in range(-3, 4)})
        lhs, tail = _direct_lhs(v, phi, 60000), _direct_tail(v, phi, 60000)
        assert tail < 2e-3
        assert abs(_wrapped_lhs(v, phi) - lhs) <= tail
        assert transference_check(v, phi, tol=1e-8) < tail

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_direct_tail_bounds_the_omitted_terms(self, s):
        # the wrapped left side lies within the exact tail bound of the
        # direct sum over |l| <= L, which the terms between L and 16 L only
        # narrow, with support far beyond the torus
        from fraclat.lattice import _wrapped_lhs

        N, L = 8, 500
        n = 2 * N + 1
        params = FracParams(s, 2.0 * math.pi / n, 1)
        rng = np.random.default_rng(9)
        v = TorusFunction(N, 1, rng.standard_normal(n))
        phi = LatticeFunction(params, {(k,): float(rng.standard_normal())
                                       for k in (-40, -1, 0, 3, 400)})
        wrapped = _wrapped_lhs(v, phi)
        lhs, tail = _direct_lhs(v, phi, L), _direct_tail(v, phi, L)
        far, far_tail = _direct_lhs(v, phi, 16 * L), _direct_tail(v, phi, 16 * L)
        assert abs(far - lhs) <= tail
        assert abs(wrapped - lhs) <= tail
        assert abs(wrapped - far) <= far_tail + 1e-12 * abs(wrapped)
        # with v = 1 and every c_i > 0 the bound is attained: the whole sum
        # vanishes, so the truncated side is minus the omitted terms
        ones = TorusFunction(N, 1, np.ones(n))
        positive = LatticeFunction(params, {k: abs(c) for k, c in phi.support.items()})
        lhs, tail = _direct_lhs(ones, positive, L), _direct_tail(ones, positive, L)
        scale = kernel_lattice_mass(params) * sum(positive.support.values()) * n
        assert abs(_wrapped_lhs(ones, positive)) <= 1e-12 * scale
        assert lhs == pytest.approx(tail, rel=1e-6)

    @pytest.mark.parametrize("d,N", [(1, 6), (2, 4)])
    def test_wrapped_lhs_loop_oracle(self, d, N):
        from fraclat.lattice import _wrapped_lhs

        n = 2 * N + 1
        params = FracParams(0.3, 2.0 * math.pi / n, d)
        rng = np.random.default_rng(21)
        v = TorusFunction(N, d, rng.standard_normal((n,) * d))
        # support beyond the torus too, so offsets wrap and hit the diagonal
        phi = LatticeFunction(params, {
            tuple(int(c) for c in rng.integers(-2 * n, 2 * n, d)): float(rng.standard_normal())
            for _ in range(6)})
        ref = _wrapped_lhs_loop(v, phi)
        assert _wrapped_lhs(v, phi) == pytest.approx(ref, rel=1e-13)

    def test_direct_lhs_loop_oracle(self):
        # the array sum of _direct_lhs, which the tests above read, against
        # its loop, with support beyond L
        N = 6
        n = 2 * N + 1
        params = FracParams(0.5, 2.0 * math.pi / n, 1)
        rng = np.random.default_rng(4)
        v = TorusFunction(N, 1, rng.standard_normal(n))
        phi = LatticeFunction(params, {(k,): float(rng.standard_normal())
                                       for k in (-3, -1, 0, 2, 5, 1999, 2004)})
        ref = _direct_lhs_loop(v, phi, 2000)
        assert _direct_lhs(v, phi, 2000) == pytest.approx(ref, rel=1e-13)

    def test_mesh_mismatch_rejected(self):
        v = random_torus(4, 1, 0)
        phi = LatticeFunction(FracParams(0.5, 1.0, 1), {(0,): 1.0})
        with pytest.raises(ValueError):
            transference_check(v, phi)

    def test_unreachable_tolerance(self):
        # the error carries the defect and the scaled tolerance it missed;
        # a tolerance at the defect passes and returns it
        n = 9
        params = FracParams(0.5, 2.0 * math.pi / n, 1)
        rng = np.random.default_rng(6)
        v = TorusFunction(4, 1, rng.standard_normal(n))
        phi = LatticeFunction(params, {(0,): 1.0, (2,): -1.0})
        defect = transference_check(v, phi, tol=math.inf)
        with pytest.raises(ToleranceError) as info:
            transference_check(v, phi, tol=1e-17)
        assert info.value.achieved == defect
        assert 0.0 < info.value.requested < defect
        assert transference_check(v, phi, tol=defect) == defect


class TestSobolevNorm:
    """The H^1 norm of a function on W is the Gram form f' P f of h1_gram."""

    def test_monotone_in_r(self):
        # the H^1 norm dominates the L^2 norm, h |f|^2: P - h I is PSD
        N, W = 16, tuple(range(-3, 3))
        h = 2.0 * math.pi / (2 * N + 1)
        assert np.linalg.eigvalsh(h1_gram(N, W) - h * np.eye(len(W))).min() >= -1e-14

    def test_delta_quadrature_oracle(self):
        # a delta's squared norm is h (h/2pi) int (1 + sin(h xi)^2/h^2) dxi
        # over the frequency cell; the torus grid sums that trigonometric
        # polynomial exactly
        N = 8
        h = 2.0 * math.pi / (2 * N + 1)
        val, _ = scipy.integrate.quad(
            lambda xi: 1.0 + math.sin(h * xi) ** 2 / h ** 2,
            -math.pi / h, math.pi / h)
        ref = h * (h / (2.0 * math.pi)) * val
        assert h1_gram(N, (0,))[0, 0] == pytest.approx(ref, rel=1e-12)

    def test_consistency_lattice_vs_periodized(self):
        # support well inside a large torus: the lattice norm by quadrature
        # over the frequency cell equals the Gram form on the torus
        n = 2 * 24 + 1
        h = 2.0 * math.pi / n
        W, f = (0, 1, -2), np.array([1.0, 2.0, -1.0])

        def integrand(xi):
            hat = sum(c * complex(math.cos(w * h * xi), -math.sin(w * h * xi))
                      for w, c in zip(W, f))
            return abs(hat) ** 2 * (1.0 + math.sin(h * xi) ** 2 / h ** 2)

        val, _ = scipy.integrate.quad(integrand, -math.pi / h, math.pi / h, limit=200)
        ref = h * (h / (2.0 * math.pi)) * val
        assert float(f @ h1_gram(24, W) @ f) == pytest.approx(ref, rel=1e-10)


class TestSerialization:
    def test_torus_roundtrip(self):
        v = random_torus(3, 2, 21)
        w = TorusFunction.from_json(v.to_json())
        assert w.N == v.N and w.d == v.d
        assert np.array_equal(w.values, v.values)

    @pytest.mark.parametrize("d,N", [(1, 4), (2, 3), (3, 2)])
    def test_torus_json_text(self, d, N):
        # the text of one float conversion per entry, byte for byte
        import json

        v = random_torus(N, d, 30 + d)
        v.values.flat[0] = 0.1 + 0.2
        expected = json.dumps({"d": d, "N": N, "h": v.h,
                               "values": [float(x) for x in v.values.ravel(order="C")]},
                              sort_keys=True)
        assert v.to_json() == expected

    def test_lattice_roundtrip(self):
        p = FracParams(0.4, 0.5, 1)
        u = LatticeFunction(p, {(2,): 1.25, (-1,): -0.5},
                            StepProfile(0, 2, -1.0, 1.0))
        w = LatticeFunction.from_json(u.to_json())
        assert w.support == u.support
        assert w.profile == u.profile
        assert w.params == u.params
