"""Extension fields, Neumann traces, Carleman machinery, probes."""

import math

import numpy as np
import pytest
from scipy import special

from fraclat.extension import (
    _THETA_ZERO_ABOVE,
    CarlemanConfig,
    _stencil,
    _support_box,
    _theta,
    GridTooCoarseError,
    boundary_bulk_probe,
    carleman_probe,
    cs_extend_torus,
    half_ball_norms,
    make_t_grid,
    neumann_constant,
    neumann_trace,
    tangential_commutator_check,
)
from fraclat.lattice import TorusFunction, apply_frac_torus_spectral
from fraclat.specfun import bessel_k, log_abs_gamma_neg, log_gamma
from oracles import conjugated_laplacian, dft, idft, torus_symbol


def random_torus(N, d, seed):
    rng = np.random.default_rng(seed)
    return TorusFunction(N, d, rng.standard_normal((2 * N + 1,) * d))


def bump_trace(N, seed, width_lo=0.08, width_hi=0.2):
    n = 2 * N + 1
    h = 2.0 * math.pi / n
    rng = np.random.default_rng(seed)
    x = np.arange(-N, N + 1) * h
    vals = np.zeros(n)
    for _ in range(4):
        c = rng.uniform(-0.3, 0.3)
        w = rng.uniform(width_lo, width_hi)
        vals += rng.standard_normal() * np.exp(-((x - c) / w) ** 2 / 2.0)
    vals[np.abs(x) >= 0.5] = 0.0
    return TorusFunction(N, 1, vals)


class TestProfile:
    def test_half_is_exponential(self):
        for x in (1e-7, 1e-3, 0.3, 1.0, 7.0, 30.0):
            assert _theta(0.5, x) == pytest.approx(
                math.exp(-x), rel=1e-12)

    def test_value_at_zero(self):
        for s in (0.2, 0.5, 0.8):
            assert _theta(s, 0.0) == 1.0

    def test_decreasing(self):
        xs = np.geomspace(1e-4, 30.0, 50)
        for s in (0.3, 0.7):
            vals = [_theta(s, float(x)) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_against_mpmath(self):
        import mpmath as mp

        mp.mp.dps = 30
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            for x in (1e-6, 1e-4, 0.02, 0.7, 3.0, 12.0, 40.0):
                ref = float(2 ** (1 - s) * mp.mpf(x) ** s * mp.besselk(s, x)
                            / mp.gamma(s))
                assert _theta(s, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_ode_residual(self, s):
        # theta(sqrt(lam) t) solves f'' + (1-2s)/t f' - lam f = 0; finite
        # differences with a step proportional to t (the fourth derivative
        # blows up like x^{2s-4} at the origin, so points too close to the
        # boundary layer cannot be checked to 1e-6 in double precision)
        for lam in (0.5, 2.0, 10.0):
            q = math.sqrt(lam)
            for t in (0.1, 0.2, 0.7, 1.5):
                dt = 5e-4 * t / (1.0 + q * t)
                f = lambda tt: _theta(s, q * tt)
                d2 = (f(t + dt) - 2.0 * f(t) + f(t - dt)) / dt ** 2
                d1 = (f(t + dt) - f(t - dt)) / (2.0 * dt)
                resid = d2 + (1.0 - 2.0 * s) / t * d1 - lam * f(t)
                assert abs(resid) <= 1e-6 * (lam * abs(f(t)) + 1.0)


class TestArrayProfile:
    @staticmethod
    def scalar_theta(s, x):
        # the per-entry formula: 0 above the cutoff; e^{-x} at s = 1/2; else
        # the series below 1e-5 and the Bessel form between
        if x > _THETA_ZERO_ABOVE:
            return 0.0
        if s == 0.5:
            return math.exp(-x)
        if x < 1e-5:
            c1 = -math.exp(log_abs_gamma_neg(s) - log_gamma(s) - s * math.log(4.0))
            x2 = 0.25 * x * x
            corr = c1 * x ** (2.0 * s) * (1.0 + x2 / (1.0 + s)) if x > 0.0 else 0.0
            return 1.0 + x2 / (1.0 - s) + corr
        pref = math.exp((1.0 - s) * math.log(2.0) + s * math.log(x) - log_gamma(s))
        return pref * bessel_k(s, x)

    def test_half_is_exponential_on_all_branches(self):
        x = np.concatenate([[0.0, 1e-12, 3e-7, 9.99e-6],
                            np.geomspace(1e-5, 697.0, 200), [697.5, 700.5, 1e3, 1e5]])
        got = _theta(0.5, x)
        # e^{-x} is exact at s = 1/2; above the cutoff e^{-x} < 1e-302
        assert np.array_equal(got, np.where(x <= _THETA_ZERO_ABOVE, np.exp(-x), 0.0))

    @pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
    def test_zero_rule_shared(self, s):
        # one cutoff on both branches, at or below the point where kv underflows
        cut = _THETA_ZERO_ABOVE
        assert special.kv(s, cut) > 0.0
        x = np.array([cut - 1.0, np.nextafter(cut, 0.0), cut])
        assert (_theta(s, x) > 0.0).all()
        x = np.array([np.nextafter(cut, np.inf), 697.9, 700.0, 1e4, np.inf])
        assert (_theta(s, x) == 0.0).all()

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.77, 0.95])
    def test_matches_scalar_formula(self, s):
        x = np.concatenate([[0.0, 1e-9, 9.99e-6, 1e-5],
                            np.geomspace(1e-5, 697.0, 297), [697.0, 697.1, 1e4]])
        got = _theta(s, x.reshape(4, -1)).ravel()
        ref = np.array([self.scalar_theta(s, float(v)) for v in x])
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.allclose(got, ref, rtol=4e-15, atol=0.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            _theta(0.5, np.array([1.0, -1e-3]))

    @staticmethod
    def _assert_modes(v, s, profile):
        # the field's mode k is hat(v)_k profile(sqrt(lam_k) t), read through
        # the {-N..N} reference dft at every t level
        t = make_t_grid(1e-6, 3.0, 1.3)
        field = cs_extend_torus(v, s, t)
        lam = torus_symbol(v.N, v.d, v.h, 1.0)
        expect = dft(v)[..., None] * profile(np.sqrt(lam)[..., None] * t)
        got = np.stack([dft(v.copy_with(field.values[..., j])) for j in range(t.size)],
                       axis=-1)
        assert np.abs(got - expect).max() < 1e-14 * np.abs(dft(v)).max()

    @pytest.mark.parametrize("d,N", [(1, 7), (2, 5), (3, 3)])
    def test_half_field_mode_by_mode(self, d, N):
        # s = 1/2: the profile is exp(-x)
        self._assert_modes(random_torus(N, d, 21 + d), 0.5, lambda x: np.exp(-x))

    @pytest.mark.parametrize("d,N", [(1, 7), (2, 5)])
    def test_field_mode_by_mode(self, d, N):
        self._assert_modes(random_torus(N, d, 31 + d), 0.3, lambda x: _theta(0.3, x))


class TestExtensionField:
    def test_trace_condition(self):
        v = random_torus(6, 1, 3)
        field = cs_extend_torus(v, 0.5, make_t_grid(1e-12, 1.0, 1.3))
        assert np.abs(field.values[..., 0] - v.values).max() < 1e-11

    def test_constant_in_both_variables(self):
        v = TorusFunction(4, 1, np.full(9, 2.5))
        field = cs_extend_torus(v, 0.3, make_t_grid(1e-6, 3.0, 1.2))
        assert field.values.min() == field.values.max() == 2.5

    def test_half_closed_form(self):
        # s = 1/2: mode k decays as exp(-sqrt(lam_k) t)
        v = random_torus(5, 1, 9)
        t_grid = make_t_grid(1e-4, 2.0, 1.5)
        field = cs_extend_torus(v, 0.5, t_grid)
        lam = torus_symbol(5, 1, v.h, 1.0)
        hat = dft(v)
        for it, t in enumerate(t_grid):
            ref = np.real(idft(hat * np.exp(-np.sqrt(lam) * t), 5, 1))
            assert np.abs(field.values[..., it] - ref).max() < 1e-12

    def test_energy_decay_mean_zero(self):
        v = random_torus(6, 1, 5)
        v = v.copy_with(v.values - v.values.mean())
        field = cs_extend_torus(v, 0.4, make_t_grid(1e-4, 4.0, 1.1))
        energy = np.sqrt(np.sum(field.values ** 2, axis=0))
        assert np.all(np.diff(energy) <= 1e-12)


class TestNeumannTrace:
    def test_constant_is_one_at_half(self):
        assert neumann_constant(0.5) == 1.0

    def test_single_mode_half(self):
        # s = 1/2 plane wave: trace equals sqrt(lam) * v
        N, k0 = 6, 2
        n = 2 * N + 1
        h = 2.0 * math.pi / n
        j = np.arange(-N, N + 1)
        v = TorusFunction(N, 1, np.cos(2.0 * math.pi * k0 * j / n))
        lam = 4.0 / h ** 2 * math.sin(math.pi * k0 / n) ** 2
        field = cs_extend_torus(v, 0.5, make_t_grid(1e-8, 2.0, 1.05))
        tr = neumann_trace(field, check_rtol=None)
        assert np.abs(tr.values - math.sqrt(lam) * v.values).max() < 1e-6 * math.sqrt(lam)

    def test_constant_input_zero_trace(self):
        v = TorusFunction(5, 1, np.full(11, 1.3))
        field = cs_extend_torus(v, 0.5, make_t_grid(1e-8, 2.0, 1.05))
        tr = neumann_trace(field, check_rtol=None)
        assert np.abs(tr.values).max() < 1e-12

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_spectral_oracle(self, s):
        v = random_torus(6, 1, 11)
        field = cs_extend_torus(v, s, make_t_grid(1e-8, 4.0, 1.05))
        tr = neumann_trace(field, check_rtol=None)
        ref = apply_frac_torus_spectral(v, s).values * neumann_constant(s)
        assert np.abs(tr.values - ref).max() <= 1e-4 * np.abs(ref).max()

    def test_grid_too_coarse(self):
        v = random_torus(4, 1, 2)
        field = cs_extend_torus(v, 0.5, make_t_grid(1e-3, 2.0, 1.2))
        with pytest.raises(GridTooCoarseError):
            neumann_trace(field)


def _conjugates(cfg, v):
    # (S v, A v) as dicts of their nonzero entries: the stencils on the
    # padded support box, read back at lattice points
    x, lo = _support_box(v)
    out = []
    for y in (_stencil(cfg, x, lo, True), _stencil(cfg, x, lo, False)):
        idx = np.argwhere(y != 0.0)
        out.append(dict(zip(map(tuple, (idx + lo).tolist()), y[tuple(idx.T)].tolist())))
    return tuple(out)


def _conjugation_defect(cfg, v):
    # sup defect of e^{tau phi} Lap_d (e^{-tau phi} v) = (S + A) v: the exact
    # identity, so this measures round-off
    x, lo = _support_box(v)
    ref = _stencil(cfg, x, lo, True) + _stencil(cfg, x, lo, False)
    return float(np.max(np.abs(conjugated_laplacian(cfg, x, lo) - ref[(slice(1, -1),) * x.ndim])))


class TestTangentialOperators:
    def test_tau_zero_reduces_to_laplacian(self):
        cfg = CarlemanConfig(c0=1.0, tau=1e-15, h=0.1)
        sv, av = _conjugates(cfg, {(0,): 1.0})
        assert sv[(1,)] == pytest.approx(100.0)
        assert sv[(0,)] == pytest.approx(-200.0)
        assert max((abs(x) for x in av.values()), default=0.0) < 1e-10

    def test_bilinear_symmetry(self):
        cfg = CarlemanConfig(c0=2.0, tau=3.0, h=0.1)
        rng = np.random.default_rng(0)
        pts = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
        v = {p: float(rng.standard_normal()) for p in pts}
        w = {p: float(rng.standard_normal()) for p in pts}
        sv, av = _conjugates(cfg, v)
        sw, aw = _conjugates(cfg, w)

        def dot(a, b):
            keys = set(a) | set(b)
            return sum(a.get(k, 0.0) * b.get(k, 0.0) for k in keys)

        scale = abs(dot(sv, w)) + abs(dot(av, w)) + 1.0
        assert abs(dot(sv, w) - dot(v, sw)) < 1e-12 * scale
        assert abs(dot(av, w) + dot(v, aw)) < 1e-12 * scale

    def test_conjugation_identity(self):
        for (d, h, tau) in [(1, 0.1, 4.0), (2, 0.05, 9.0)]:
            cfg = CarlemanConfig(c0=1.0, tau=tau, h=h)
            rng = np.random.default_rng(7)
            if d == 1:
                v = {(j,): float(rng.standard_normal()) for j in range(-5, 6)}
            else:
                v = {(i, j): float(rng.standard_normal())
                     for i in range(-3, 4) for j in range(-3, 4)}
            scale = 1.0 / (h * h)
            assert _conjugation_defect(cfg, v) < 1e-12 * scale * 100

    def test_admissibility(self):
        with pytest.raises(ValueError):
            CarlemanConfig(c0=1.0, tau=100.0, h=0.1)

    @pytest.mark.parametrize("name", ["off_centre", "two_clusters"])
    def test_conjugation_identity_3d(self, name):
        h = 0.05
        cfg = CarlemanConfig(c0=1.0, tau=9.0, h=h)
        v = _supports_3d()[name]
        assert _conjugation_defect(cfg, v) < 1e-12 * 100 / (h * h)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_conjugates_match_dict_reference(self, d):
        cfg = CarlemanConfig(c0=2.0, tau=3.0, h=0.1)
        rng = np.random.default_rng(d)
        pts = {tuple(int(c) for c in rng.integers(-6, 9, d)) for _ in range(12)}
        supports = [{p: float(rng.standard_normal()) for p in pts}]
        if d == 3:
            supports += list(_supports_3d().values())
        for v in supports:
            for got, ref in zip(_conjugates(cfg, v), _conjugates_reference(cfg, v)):
                assert set(got) == set(ref)
                scale = max(abs(x) for x in ref.values())
                assert all(abs(got[p] - ref[p]) <= 1e-14 * scale for p in ref)

    def test_empty_and_mixed_supports(self):
        cfg = CarlemanConfig(c0=1.0, tau=2.0, h=0.1)
        with pytest.raises(ValueError, match="nonempty"):
            tangential_commutator_check(cfg, {})
        with pytest.raises(ValueError, match="mixed dimension"):
            tangential_commutator_check(cfg, {(0,): 1.0, (1, 2): 2.0})


def _supports_3d():
    # an off-centre block, and two 2 x 2 x 2 clusters 40 apart along axis 0
    rng = np.random.default_rng(3)
    off = {(i + 5, j - 7, k + 2): float(rng.standard_normal())
           for i in range(3) for j in range(4) for k in range(3)}
    two = {(c0 + i, c1 + j, c2 + k): float(rng.standard_normal())
           for c0, c1, c2 in ((-20, 0, 1), (20, 1, 0))
           for i in range(2) for j in range(2) for k in range(2)}
    return {"off_centre": off, "two_clusters": two}


def _conjugates_reference(cfg, v):
    # S v and A v point by point over the support and its neighbours
    tau, h2 = cfg.tau, cfg.h * cfg.h

    def step(p, k, sgn):
        return p[:k] + (p[k] + sgn,) + p[k + 1:]

    pts = set(v) | {step(p, k, sgn) for p in v for k in range(len(p)) for sgn in (1, -1)}
    out = ({}, {})
    for sym, fn, res in ((True, math.cosh, out[0]), (False, math.sinh, out[1])):
        for p in pts:
            acc = 0.0
            for k in range(len(p)):
                acc += fn(tau * h2 * (2.0 * p[k] + 1.0)) * v.get(step(p, k, 1), 0.0)
                acc += fn(tau * h2 * (1.0 - 2.0 * p[k])) * v.get(step(p, k, -1), 0.0)
                if sym:
                    acc -= 2.0 * v.get(p, 0.0)
            if acc != 0.0:
                res[p] = acc / h2
    return out


class TestCommutator:
    @pytest.mark.parametrize("d,h,tau", [(1, 0.2, 2.0), (1, 0.1, 4.0),
                                         (2, 0.1, 3.0), (2, 0.05, 10.0)])
    def test_identity(self, d, h, tau):
        cfg = CarlemanConfig(c0=4.0, tau=tau, h=h)
        rng = np.random.default_rng(17)
        if d == 1:
            v = {(j,): float(rng.standard_normal()) for j in range(-6, 7)}
        else:
            v = {(i, j): float(rng.standard_normal())
                 for i in range(-4, 5) for j in range(-4, 5)}
        lhs, rhs, defect = tangential_commutator_check(cfg, v)
        assert defect <= 1e-10 * abs(lhs)

    def test_delta_hand_expansion(self):
        # single spike at (1, 0): the closed form has two explicit sums
        cfg = CarlemanConfig(c0=1.0, tau=2.0, h=0.1)
        v = {(1, 0): 1.0}
        h2 = cfg.h ** 2
        sh = math.sinh(2.0 * cfg.tau * h2)
        rhs_manual = -4.0 / h2 ** 2 * sh * (
            math.sinh(2.0 * cfg.tau * 1 * h2) ** 2
            + math.sinh(0.0) ** 2)
        # gradient part: |v| = 1 at (1,0) contributes at the four neighbors
        # of the two axes: (0,0),(2,0),(1,-1),(1,1) each with (1/(2h))^2
        rhs_manual -= 4.0 / h2 * sh * 4.0 * (1.0 / (2.0 * cfg.h)) ** 2
        rhs_manual *= cfg.h ** 2
        lhs, rhs, defect = tangential_commutator_check(cfg, v)
        assert rhs == pytest.approx(rhs_manual, rel=1e-12)
        assert defect <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("name", ["off_centre", "two_clusters"])
    @pytest.mark.parametrize("h,tau", [(0.1, 3.0), (0.05, 9.0)])
    def test_identity_3d(self, name, h, tau):
        cfg = CarlemanConfig(c0=4.0, tau=tau, h=h)
        lhs, rhs, defect = tangential_commutator_check(cfg, _supports_3d()[name])
        assert lhs < 0.0
        assert defect <= 1e-10 * abs(lhs)

    def test_tau_to_zero(self):
        cfg = CarlemanConfig(c0=1.0, tau=1e-12, h=0.1)
        v = {(0,): 1.0, (1,): -1.0}
        lhs, rhs, _ = tangential_commutator_check(cfg, v)
        assert abs(lhs) < 1e-6 and abs(rhs) < 1e-6


def _probe_bump(h, dt):
    R = int(0.7 / h)
    nt = int(0.7 / dt)
    ax = np.arange(-R, R + 1) * h
    t = np.arange(nt) * dt
    X, T = np.meshgrid(ax, t, indexing="ij")
    return np.where(X ** 2 + T ** 2 < 0.6 ** 2,
                    np.exp(-(X ** 2 + T ** 2) / 0.05) * np.cos(3.0 * X), 0.0)


def _window_bump_2d(h, dt):
    R = int(0.5 / h)
    nt = int(0.5 / dt)
    ax = np.arange(-R, R + 1) * h
    t = np.arange(nt) * dt
    X, Y, T = np.meshgrid(ax, ax, t, indexing="ij")
    r2 = X ** 2 + Y ** 2 + T ** 2
    return np.where(r2 < 0.45 ** 2, np.exp(-r2 / 0.04), 0.0)


def _probe_roll_reference(cfg, vals):
    # the probe's (lhs, rhs, constant) with the spatial neighbours taken by
    # np.roll and the wrapped edge zeroed, operation for operation
    tau, h, dt = cfg.tau, cfg.h, cfg.dt
    d = vals.ndim - 1
    R = (vals.shape[0] - 1) // 2
    t = np.arange(vals.shape[-1]) * dt
    ax = np.arange(-R, R + 1) * h
    r2 = ax ** 2
    for _ in range(d - 1):
        r2 = r2[..., None] + ax ** 2
    W = np.exp(tau * (-r2[..., None] + cfg.c0 * (0.5 * t * t - t)))

    def rolled(k, step):
        out = np.roll(vals, step, axis=k)
        edge = [slice(None)] * vals.ndim
        edge[k] = -1 if step < 0 else 0
        out[tuple(edge)] = 0.0
        return out

    dtu = np.gradient(vals, dt, axis=-1)
    grads = [(rolled(k, -1) - rolled(k, 1)) / (2.0 * h) for k in range(d)]
    lap = np.zeros_like(vals)
    for k in range(d):
        lap += (rolled(k, -1) + rolled(k, 1) - 2.0 * vals) / (h * h)
    dtt = np.zeros_like(vals)
    dtt[..., 1:-1] = (vals[..., 2:] + vals[..., :-2] - 2.0 * vals[..., 1:-1]) / (dt * dt)

    def bulk(f):
        return math.sqrt(h ** d * dt * float(np.sum((W * f) ** 2)))

    lhs = tau ** 1.5 * bulk(vals) + tau ** 0.5 * bulk(dtu)
    for g in grads:
        lhs += tau ** 0.5 * bulk(g)
    interior = np.zeros_like(vals)
    interior[..., 1:-1] = 1.0
    rhs = bulk((lap + dtt) * interior)
    btrace = np.abs(vals[..., 0])
    for g in grads:
        btrace = btrace + np.abs(g[..., 0])
    btrace = btrace + np.abs(dtu[..., 0])
    rhs += tau ** 1.5 * math.sqrt(h ** d * float(np.sum((W[..., 0] * btrace) ** 2)))
    return lhs, rhs, lhs / rhs


class TestCarlemanProbe:
    def test_zero_field(self):
        cfg = CarlemanConfig(c0=4.0, tau=8.0, h=0.05)
        z = np.zeros((29, 40))
        assert carleman_probe(cfg, z) == (0.0, 0.0, 0.0)

    def test_bump_finite_and_stable_in_tau(self):
        h = 0.05
        consts = []
        for tau in (5.0, 8.0, 10.0):
            cfg = CarlemanConfig(c0=4.0, tau=tau, h=h)
            consts.append(carleman_probe(cfg, _probe_bump(h, cfg.dt))[2])
        assert all(math.isfinite(c) and c > 0 for c in consts)
        assert max(consts) / min(consts) < 10.0

    def test_two_dimensional_window(self):
        cfg = CarlemanConfig(c0=4.0, tau=4.0, h=0.1)
        c = carleman_probe(cfg, _window_bump_2d(cfg.h, cfg.dt))[2]
        assert math.isfinite(c) and c > 0.0

    def test_bit_identical_to_roll_reference(self):
        for cfg, bump in [
                (CarlemanConfig(c0=4.0, tau=8.0, h=0.05), _probe_bump),
                (CarlemanConfig(c0=4.0, tau=4.0, h=0.1), _window_bump_2d)]:
            vals = bump(cfg.h, cfg.dt)
            assert carleman_probe(cfg, vals) == _probe_roll_reference(cfg, vals)

    def test_support_condition(self):
        cfg = CarlemanConfig(c0=4.0, tau=8.0, h=0.05)
        R = int(0.9 / cfg.h)
        bad = np.ones((2 * R + 1, 10))
        with pytest.raises(ValueError, match="supported"):
            carleman_probe(cfg, bad)

    def test_tau_window(self):
        cfg = CarlemanConfig(c0=4.0, tau=0.5, h=0.05)
        with pytest.raises(ValueError, match="tau"):
            carleman_probe(cfg, np.zeros((29, 40)))


class TestHalfBallNorms:
    def test_constant_single_column(self):
        base = TorusFunction(15, 1, np.ones(31))
        tg = make_t_grid(1e-4, 2.0, 1.1)
        field = cs_extend_torus(base, 0.5, tg)
        r = 0.05  # contains only the j = 0 column
        (bulk, tl2, th1, tdt), = half_ball_norms(field, (0.0,), (r,))
        k = int(np.searchsorted(tg, r, side="right"))
        expected = math.sqrt(base.h * tg[k - 1])  # trapezoid of 1 over [0, t_last]
        assert bulk == pytest.approx(expected, rel=1e-12)
        assert tdt == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_radius(self):
        f = bump_trace(15, 3)
        field = cs_extend_torus(f, 0.5, make_t_grid(1e-4, 2.0, 1.1))
        rs = [0.2, 0.4, 0.7, 1.0]
        vals = half_ball_norms(field, (0.0,), rs)
        for comp in range(4):
            seq = [v[comp] for v in vals]
            assert all(a <= b + 1e-15 for a, b in zip(seq, seq[1:]))

    def test_direct_summation_oracle(self):
        f = bump_trace(10, 8)
        tg = make_t_grid(1e-3, 1.5, 1.2)
        field = cs_extend_torus(f, 0.5, tg)
        r = 0.8
        bulk = half_ball_norms(field, (0.0,), (r,))[0][0]
        h = f.h
        acc = 0.0
        for idx in range(21):
            x = (idx - 10) * h
            rem = r * r - x * x
            if rem <= 0:
                continue
            tmax = math.sqrt(rem)
            k = int(np.searchsorted(tg, tmax, side="right"))
            if k == 0:
                continue
            col = field.values[idx]
            seg = 0.5 * tg[0] * (f.values[idx] ** 2 + col[0] ** 2)
            for i in range(k - 1):
                seg += 0.5 * (tg[i + 1] - tg[i]) * (col[i] ** 2 + col[i + 1] ** 2)
            acc += seg * h
        assert bulk == pytest.approx(math.sqrt(acc), rel=1e-12)


    def test_direct_summation_oracle_2d(self):
        v = random_torus(5, 2, 4)
        tg = make_t_grid(1e-3, 2.0, 1.25)
        field = cs_extend_torus(v, 0.5, tg)
        r = 1.3
        h = v.h
        acc = 0.0
        for i in range(11):
            for j in range(11):
                rem = r * r - ((i - 5) * h) ** 2 - ((j - 5) * h) ** 2
                if rem <= 0:
                    continue
                k = int(np.searchsorted(tg, math.sqrt(rem), side="right"))
                if k == 0:
                    continue
                col = field.values[i, j]
                seg = 0.5 * tg[0] * (v.values[i, j] ** 2 + col[0] ** 2)
                for m in range(k - 1):
                    seg += 0.5 * (tg[m + 1] - tg[m]) * (col[m] ** 2 + col[m + 1] ** 2)
                acc += seg * h * h
        bulk = half_ball_norms(field, (0.0, 0.0), (r,))[0][0]
        assert bulk == pytest.approx(math.sqrt(acc), rel=1e-12)


class TestBoundaryBulkProbe:
    @pytest.mark.parametrize("d,N", [(1, 31), (2, 12)])
    def test_norms_match_separate_half_ball_calls(self, d, N):
        # one pass over the field for both radii gives what two calls give
        v = random_torus(N, d, 17)
        rad = np.sqrt(sum(np.meshgrid(*[(np.arange(-N, N + 1) * v.h) ** 2] * d,
                                      indexing="ij")))
        f = v.copy_with(np.where(rad < 0.45, v.values, 0.0))
        norms = boundary_bulk_probe(f, r0=0.5).norms
        field = cs_extend_torus(f, 0.5, make_t_grid(1e-6, 2.5, 1.05))
        (small,), (big,) = (half_ball_norms(field, (0.0,) * d, (r,)) for r in (0.5, 1.0))
        for got, ref in ((norms["bulk_small"], small[0]), (norms["bulk_big"], big[0]),
                         (norms["trace_l2"], big[1]), (norms["trace_h1"], big[2])):
            assert abs(got - ref) <= np.spacing(ref)

    def test_zero_trace(self):
        f = TorusFunction(31, 1, np.zeros(63))
        res = boundary_bulk_probe(f, r0=0.5)
        assert res.holds
        assert all(v == 0.0 for v in res.norms.values())

    def test_random_bumps_hold(self):
        for seed in (1, 2, 3):
            f = bump_trace(31, seed)
            res = boundary_bulk_probe(f, r0=0.5)
            assert res.holds
            assert 0.0 < res.fitted_alpha < 1.0

    def test_mesh_stability(self):
        alphas = []
        for N in (31, 62):
            res = boundary_bulk_probe(bump_trace(N, 7), r0=0.5)
            alphas.append(res.fitted_alpha)
        assert abs(alphas[0] - alphas[1]) < 0.2

    def test_geometry_guard(self):
        f = bump_trace(31, 1)
        with pytest.raises(ValueError):
            boundary_bulk_probe(f, r0=1.5)
