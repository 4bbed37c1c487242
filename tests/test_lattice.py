"""Lattice/torus functions, transforms, operator applications, norms."""

import math

import numpy as np
import pytest
import scipy.integrate

from fraclat.kernel import (
    FracParams,
    build_kernel_table,
    kernel_1d,
    kernel_lattice_mass,
    kernel_tail_bound_ell1,
    kernel_tail_sum_1d,
    torus_kernel_table,
)
from fraclat.lattice import (
    LatticeFunction,
    StepProfile,
    TorusFunction,
    apply_frac_lattice,
    apply_frac_torus_pointwise,
    apply_frac_torus_spectral,
    dft,
    idft,
    periodize,
    repeat,
    sobolev_norm,
    symbol,
    transference_check,
)


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
    table = torus_kernel_table(params.s, N, d, tol=1e-13, need_diag=True,
                               method="series" if d == 1 else "heat")
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
    def test_zero(self):
        assert symbol(FracParams(0.5, 1.0, 2), [0.0, 0.0]) == 0.0

    def test_peak(self):
        p = FracParams(0.5, 1.0, 3)
        xi = [math.pi] * 3
        assert symbol(p, xi) == pytest.approx((4.0 * 3) ** 0.5, rel=1e-13)

    def test_continuum_limit(self):
        p = FracParams(0.5, 1e-3, 2)
        xi = [1.0, 2.0]
        assert abs(symbol(p, xi) / (1.0 + 4.0) ** 0.5 - 1.0) < 0.01

    def test_periodicity(self):
        p = FracParams(0.3, 0.7, 1)
        assert symbol(p, [1.1]) == pytest.approx(
            symbol(p, [1.1 + 2.0 * math.pi / 0.7]), rel=1e-10)


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
        ref5 = k[4] + k[5] + k[6] + 2.0 * kernel_tail_sum_1d(p1, 7)
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
        v = random_torus(4, 1, 9)
        rv = repeat(v)
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = int(rng.integers(-40, 40))
            assert rv.value(m) == rv.value(m + 9) == rv.value(m - 18)
        for j in range(-4, 5):
            assert rv.value(j) == v.values[j + 4]

    def test_repeat_constant(self):
        v = TorusFunction(3, 1, np.full(7, 1.7))
        rv = repeat(v)
        assert rv.value(123) == 1.7


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
        N = 6
        n = 13
        params = FracParams(0.5, 2.0 * math.pi / n, 1)
        rng = np.random.default_rng(4)
        v = TorusFunction(N, 1, rng.standard_normal(n))
        phi = LatticeFunction(params, {(k,): float(rng.standard_normal())
                                       for k in range(-3, 4)})
        d_direct = transference_check(v, phi, tol=1.0, method="direct",
                                      direct_radius=60000)
        assert d_direct < 2e-3
        assert transference_check(v, phi, tol=1e-8) < d_direct

    def test_direct_mode_honours_tol(self):
        # the returned defect, tail bound included, is held to tol as in the
        # wrapped method
        from fraclat.kernel import ToleranceError

        N = 6
        n = 2 * N + 1
        params = FracParams(0.5, 2.0 * math.pi / n, 1)
        v = TorusFunction(N, 1, np.random.default_rng(4).standard_normal(n))
        phi = LatticeFunction(params, {(0,): 1.0, (2,): -1.0})
        defect = transference_check(v, phi, tol=math.inf, method="direct", direct_radius=2000)
        with pytest.raises(ToleranceError) as info:
            transference_check(v, phi, tol=1e-17, method="direct", direct_radius=2000)
        assert info.value.achieved == defect
        assert 0.0 < info.value.requested < defect
        assert transference_check(v, phi, tol=defect, method="direct",
                                  direct_radius=2000) == defect

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_direct_tail_bounds_the_omitted_terms(self, s):
        # the returned defect adds the exact bound on the terms beyond L, of
        # which the terms between L and 16 L are a part
        from fraclat.lattice import _transference_direct_1d

        N, L = 8, 500
        n = 2 * N + 1
        params = FracParams(s, 2.0 * math.pi / n, 1)
        rng = np.random.default_rng(9)
        v = TorusFunction(N, 1, rng.standard_normal(n))
        phi = LatticeFunction(params, {(k,): float(rng.standard_normal())
                                       for k in (-40, -1, 0, 3, 400)})
        rhs = float(np.sum(v.values * apply_frac_torus_spectral(periodize(phi, N), s).values))
        lhs = _transference_direct_1d(v, phi, L)
        tail = transference_check(v, phi, tol=math.inf, method="direct",
                                  direct_radius=L) - abs(lhs - rhs)
        omitted = _transference_direct_1d(v, phi, 16 * L) - lhs
        assert abs(omitted) <= tail
        # with v = 1 and every c_i > 0 the bound is attained: the right side
        # is 0 and the truncated left side is minus the omitted terms
        ones = TorusFunction(N, 1, np.ones(n))
        positive = LatticeFunction(params, {k: abs(c) for k, c in phi.support.items()})
        lhs = _transference_direct_1d(ones, positive, L)
        assert transference_check(ones, positive, tol=math.inf, method="direct",
                                  direct_radius=L) == pytest.approx(2.0 * lhs, rel=1e-6)
        with pytest.raises(ValueError):
            transference_check(v, phi, method="direct", direct_radius=399)

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
        from fraclat.lattice import _transference_direct_1d

        N = 6
        n = 2 * N + 1
        params = FracParams(0.5, 2.0 * math.pi / n, 1)
        rng = np.random.default_rng(4)
        v = TorusFunction(N, 1, rng.standard_normal(n))
        phi = LatticeFunction(params, {(k,): float(rng.standard_normal())
                                       for k in (-3, -1, 0, 2, 5, 1999, 2004)})
        ref = _direct_lhs_loop(v, phi, 2000)
        assert _transference_direct_1d(v, phi, 2000) == pytest.approx(ref, rel=1e-13)

    def test_direct_lhs_far_support(self, monkeypatch):
        # a support point far beyond L costs its own 2L+1 offsets, not the
        # whole range up to it; the near points share theirs
        import fraclat.lattice as lattice

        N = 6
        n = 2 * N + 1
        params = FracParams(0.5, 2.0 * math.pi / n, 1)
        rng = np.random.default_rng(5)
        v = TorusFunction(N, 1, rng.standard_normal(n))
        phi = LatticeFunction(params, {(k,): float(rng.standard_normal())
                                       for k in (-3, 0, 5, 10 ** 7)})
        calls = []
        raw = lattice._kernel_1d_raw
        monkeypatch.setattr(lattice, "_kernel_1d_raw",
                            lambda s, h, m: calls.extend(np.ravel(m).tolist()) or raw(s, h, m))
        got = lattice._transference_direct_1d(v, phi, 2000)
        assert len(calls) == len(set(calls)) == 2006 + 4001
        assert got == pytest.approx(_direct_lhs_loop(v, phi, 2000), rel=1e-13)

    def test_mesh_mismatch_rejected(self):
        v = random_torus(4, 1, 0)
        phi = LatticeFunction(FracParams(0.5, 1.0, 1), {(0,): 1.0})
        with pytest.raises(ValueError):
            transference_check(v, phi)

    def test_unreachable_tolerance(self):
        from fraclat.kernel import ToleranceError

        n = 9
        params = FracParams(0.5, 2.0 * math.pi / n, 1)
        rng = np.random.default_rng(6)
        v = TorusFunction(4, 1, rng.standard_normal(n))
        phi = LatticeFunction(params, {(0,): 1.0, (2,): -1.0})
        with pytest.raises(ToleranceError):
            transference_check(v, phi, tol=1e-17)


class TestSobolevNorm:
    def test_r0_is_l2(self):
        p = FracParams(0.5)
        u = LatticeFunction(p, {(0,): 3.0, (2,): 4.0})
        assert sobolev_norm(u, 0.0) == pytest.approx(5.0, rel=1e-12)

    def test_monotone_in_r(self):
        p = FracParams(0.5)
        u = LatticeFunction(p, {(0,): 1.0, (1,): -0.3})
        assert (sobolev_norm(u, -0.8) <= sobolev_norm(u, -0.2)
                <= sobolev_norm(u, 0.3) <= sobolev_norm(u, 0.8)
                <= sobolev_norm(u, 1.5))

    def test_delta_quadrature_oracle(self):
        # r = 1, h = 1, d = 1 delta: squared norm is
        # h (h/2pi) int (1 + sin(h xi)^2/h^2) dxi over the frequency cell
        h = 1.0
        val, _ = scipy.integrate.quad(
            lambda xi: 1.0 + math.sin(h * xi) ** 2 / h ** 2,
            -math.pi / h, math.pi / h)
        ref = math.sqrt(h * (h / (2.0 * math.pi)) * val)
        u = LatticeFunction(FracParams(0.5, h, 1), {(0,): 1.0})
        assert sobolev_norm(u, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_torus_r0(self):
        v = random_torus(5, 1, 8)
        assert sobolev_norm(v, 0.0) == pytest.approx(
            math.sqrt(v.h * float(np.sum(v.values ** 2))), rel=1e-12)

    def test_consistency_lattice_vs_periodized(self):
        # support well inside a large torus: same multiplier, same norm
        n = 2 * 24 + 1
        h = 2.0 * math.pi / n
        p = FracParams(0.5, h, 1)
        u = LatticeFunction(p, {(0,): 1.0, (1,): 2.0, (-2,): -1.0})
        v = periodize(u, 24)
        assert sobolev_norm(u, 1.0) == pytest.approx(sobolev_norm(v, 1.0), rel=1e-6)


class TestSerialization:
    def test_torus_roundtrip(self):
        v = random_torus(3, 2, 21)
        w = TorusFunction.from_json(v.to_json())
        assert w.N == v.N and w.d == v.d
        assert np.array_equal(w.values, v.values)

    def test_lattice_roundtrip(self):
        p = FracParams(0.4, 0.5, 1)
        u = LatticeFunction(p, {(2,): 1.25, (-1,): -0.5},
                            StepProfile(0, 2, -1.0, 1.0))
        w = LatticeFunction.from_json(u.to_json())
        assert w.support == u.support
        assert w.profile == u.profile
        assert w.params == u.params
