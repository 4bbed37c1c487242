"""Forward map, Tikhonov recovery, discrepancy principle, stability sweep."""

import math

import numpy as np
import pytest

from fraclat import inverse
from fraclat.inverse import (
    InverseSetup,
    LambdaRangeError,
    _sweep_data,
    continuum_regime,
    forward_matrix,
    h1_gram,
    noiseless_recovery_error,
    stability_bound,
    stability_sweep,
)
from oracles import dft, h1_gram_dft, recover_tikhonov

SETUP = InverseSetup(N=16, W=tuple(range(-3, 3)), Omega=tuple(range(5, 14)),
                     seed=2024)


def discrepancy_roots(A, g, P, target):
    # the discrepancy-principle lambdas on the standard form of (A, P)
    return inverse._discrepancy_roots(np.linalg.norm(A, 2), inverse._standard_form(A, P),
                                      g, target)


class TestSetup:
    def test_disjointness(self):
        with pytest.raises(ValueError):
            InverseSetup(N=8, W=(0, 1), Omega=(1, 5))


class TestForwardMatrix:
    def test_entries_negative(self):
        A = forward_matrix(SETUP)
        assert (A < 0).all()

    def test_kernel_symmetry_in_entries(self):
        # equal offsets give equal entries
        setup = InverseSetup(N=8, W=(-1, 1), Omega=(5, -5), seed=0)
        A = forward_matrix(setup)
        # offset(5, -1) = 6 and offset(-5, 1) = -6: even kernel
        assert A[0, 0] == pytest.approx(A[1, 1], rel=1e-14)

    def test_spectral_column_check_runs(self):
        forward_matrix(SETUP)

    def test_one_corrupted_entry_raises(self, monkeypatch):
        # every column is checked: an entry that a single column reads is caught
        import fraclat.inverse
        from fraclat.kernel import _TorusKernelData

        setup = InverseSetup(N=16, W=tuple(range(-8, 4)), Omega=tuple(range(6, 13)), seed=0)
        real = fraclat.inverse.torus_kernel_table

        def corrupted(*args, **kwargs):
            t = real(*args, **kwargs)
            full = t.full.copy()
            full[20] += 1e-8  # offset 20 = 12 - (-8), read by the column of w = -8 alone
            return _TorusKernelData(t.N, t.d, t.s, t.h, full, t.diag, t.err)

        forward_matrix(setup)
        monkeypatch.setattr(fraclat.inverse, "torus_kernel_table", corrupted)
        with pytest.raises(AssertionError):
            forward_matrix(setup)

    def test_columns_match_spectral(self):
        from fraclat.lattice import TorusFunction, apply_frac_torus_spectral

        A = forward_matrix(SETUP)
        n = 2 * SETUP.N + 1
        j = 2
        delta = np.zeros(n)
        delta[(SETUP.W[j] + SETUP.N) % n] = 1.0
        out = apply_frac_torus_spectral(TorusFunction(SETUP.N, 1, delta), 0.5)
        ref = np.array([out.value(om) for om in SETUP.Omega])
        assert np.abs(A[:, j] - ref).max() < 1e-10


class TestRecover:
    def test_zero_data(self):
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        f = recover_tikhonov(A, np.zeros(len(SETUP.Omega)), 1e-6, P)
        assert np.abs(f).max() == 0.0

    def test_noiseless_least_squares_limit(self):
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        rng = np.random.default_rng(1)
        f_true = rng.standard_normal(len(SETUP.W))
        g = A @ f_true
        resids = [float(np.linalg.norm(A @ recover_tikhonov(A, g, lam, P) - g))
                  for lam in (1e-2, 1e-6, 1e-12, 1e-18)]
        assert all(a > b for a, b in zip(resids, resids[1:]))
        assert resids[-1] < 1e-9 * float(np.linalg.norm(g))
        assert resids[-2] < 1e-4 * float(np.linalg.norm(g))

    def test_penalty_dominance(self):
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        g = np.ones(len(SETUP.Omega))
        f_hat = recover_tikhonov(A, g, 1e12, P)
        assert np.abs(f_hat).max() < 1e-10

    def test_optimality(self):
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        rng = np.random.default_rng(7)
        g = rng.standard_normal(len(SETUP.Omega))
        lam = 1e-5
        f_hat = recover_tikhonov(A, g, lam, P)
        grad = 2.0 * A.T @ (A @ f_hat - g) + 2.0 * lam * P @ f_hat
        scale = np.linalg.norm(A.T @ g) + 1.0
        assert np.linalg.norm(grad) < 1e-10 * scale


class TestGram:
    def test_spd(self):
        P = h1_gram(16, tuple(range(-3, 3)))
        ev = np.linalg.eigvalsh(P)
        assert ev.min() > 0.0

    def test_h1_norm_consistency(self):
        # f' P f equals the squared H^1 norm of the embedded torus function,
        # by Parseval over its {-N..N} Fourier coefficients
        from fraclat.lattice import TorusFunction

        N = 16
        W = tuple(range(-3, 3))
        P = h1_gram(N, W)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(len(W))
        vals = np.zeros(2 * N + 1)
        for w, c in zip(W, f):
            vals[(w + N) % (2 * N + 1)] = c
        v = TorusFunction(N, 1, vals)
        sobolev = 1.0 + np.sin(v.h * np.arange(-N, N + 1)) ** 2 / (v.h * v.h)
        norm_sq = v.h * v.n * float(np.sum(sobolev * np.abs(dft(v)) ** 2))
        assert float(f @ P @ f) == pytest.approx(norm_sq, rel=1e-12)

    @pytest.mark.parametrize("N", (1, 2, 16))
    def test_matches_parseval_form(self, N):
        # h (I + D'D) against the Sobolev multiplier summed over the
        # frequencies; at N = 1 the offsets +-2 wrap to -+1, at N = 2 they
        # sit next to them
        W = tuple(range(-N, N + 1))
        P = h1_gram(N, W)
        ref = h1_gram_dft(N, W)
        assert np.array_equal(P, P.T)
        assert np.abs(P - ref).max() <= 1e-14 * np.abs(ref).max()
        h = 2.0 * math.pi / (2 * N + 1)
        assert np.count_nonzero(P) == (2 * N + 1) * (3 if N > 1 else 2 * N + 1)
        assert np.all(np.diag(P) == h + 0.5 / h)


class TestDiscrepancy:
    def test_monotone_target_found(self):
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        rng = np.random.default_rng(11)
        f_true = rng.standard_normal(6)
        g0 = A @ f_true
        eta = rng.standard_normal(9)
        eta *= np.linalg.norm(g0) / np.linalg.norm(eta)
        g = g0 + 1e-3 * eta
        lam = discrepancy_roots(A, g, P, 1e-3 * float(np.linalg.norm(g)))
        resid = float(np.linalg.norm(A @ recover_tikhonov(A, g, lam, P) - g))
        assert resid == pytest.approx(1e-3 * float(np.linalg.norm(g)), rel=1e-3)

    def test_root_below_fixed_floor_found(self):
        # trial 7 at eps = 1e-6: the noise is ~96% orthogonal to range(A) and
        # the root (lambda ~ 8.4e-17) lies below 1e-16, but above 1e-16 ||A||^2
        setup = InverseSetup(N=16, W=tuple(range(-3, 3)), Omega=tuple(range(6, 15)),
                             seed=498100233)
        curve = stability_sweep(setup, [1e-5, 1e-6], trials=8)
        assert math.isfinite(curve.points[1][1])

    def test_non_bracketing_raises(self):
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        g = np.ones(len(SETUP.Omega))
        with pytest.raises(LambdaRangeError):
            discrepancy_roots(A, g, P, 1e30)


def _bisect_120_steps(A, g, P, target):
    # reference roots: bisection of log(lambda) for its full 120 steps
    _, U, sigma = inverse._standard_form(A, P)
    proj = np.asarray(g, dtype=float) @ U
    beta, perp2 = proj[..., :sigma.size], np.sum(proj[..., sigma.size:] ** 2, axis=-1)
    lo = np.full(perp2.shape, math.log(1e-16 * np.linalg.norm(A, 2) ** 2))
    hi = np.full(perp2.shape, math.log(1e8))
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        lam = np.exp(mid)[..., None]
        r = lam * beta / (sigma * sigma + lam)
        below = np.sqrt(np.sum(r * r, axis=-1) + perp2) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    lam = np.exp(0.5 * (lo + hi))
    return float(lam) if lam.ndim == 0 else lam


def _assert_roots(A, g, P, target, lam, ref):
    # the residual at each root, in the standard form the reference uses, is
    # within 32 eps of its target, and the root matches the reference root
    _, U, sigma = inverse._standard_form(A, P)
    proj = g @ U
    beta, perp2 = proj[..., :sigma.size], np.sum(proj[..., sigma.size:] ** 2, axis=-1)
    q = np.asarray(lam)[..., None]
    r = np.sqrt(np.sum((q * beta / (sigma * sigma + q)) ** 2, axis=-1) + perp2)
    assert np.all(np.abs(r - target) <= 32.0 * np.finfo(float).eps * target)
    assert np.all(np.abs(np.asarray(lam) / ref - 1.0) <= 1e-12)


class TestStandardForm:
    """The batched standard-form route against the independent augmented
    least-squares route and a 40-digit oracle."""

    EPS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]

    def test_sweep_lambdas_meet_target_on_augmented_route(self):
        curve = stability_sweep(SETUP, self.EPS, trials=10)
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        _, _, g = _sweep_data(SETUP, A, P, self.EPS, 10)
        lam = np.array(curve.extras["lambda"])
        assert lam.shape == (len(self.EPS), 10)
        for i, e in enumerate(self.EPS):
            for t in range(10):
                f = recover_tikhonov(A, g[i, t], lam[i, t], P)
                resid = float(np.linalg.norm(A @ f - g[i, t]))
                assert resid == pytest.approx(e * float(np.linalg.norm(g[i, t])), rel=1e-6)

    def test_batch_matches_single_roots(self):
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        eps = [1e-2, 1e-5]
        _, _, g = _sweep_data(SETUP, A, P, eps, 3)
        target = np.array(eps)[:, None] * np.linalg.norm(g, axis=-1)
        batch = discrepancy_roots(A, g, P, target)
        assert batch.shape == (2, 3)
        for i in range(2):
            for t in range(3):
                single = discrepancy_roots(A, g[i, t], P, target[i, t])
                assert isinstance(single, float)
                assert batch[i, t] == pytest.approx(single, rel=1e-12)

    @pytest.mark.parametrize("batched", [False, True])
    def test_newton_roots_meet_target(self, batched, monkeypatch):
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        _, _, g = _sweep_data(SETUP, A, P, self.EPS, 10)
        target = np.array(self.EPS)[:, None] * np.linalg.norm(g, axis=-1)
        if not batched:
            g, target = g[2, 4], target[2, 4]
        ref = _bisect_120_steps(A, g, P, target)
        calls = []
        residual = inverse._discrepancy_residual
        monkeypatch.setattr(inverse, "_discrepancy_residual",
                            lambda *a: calls.append(1) or residual(*a))
        lam = discrepancy_roots(A, g, P, target)
        assert type(lam) is type(ref)
        _assert_roots(A, g, P, target, lam, ref)
        assert len(calls) <= 40

    def test_newton_two_cycle_broken(self, monkeypatch):
        # eps = 0.1, trial 5 of this layout: Newton kept in the bracket alone
        # alternates between log(lambda) ~ -3.75 and -8.99 for 84 steps
        setup = InverseSetup(N=16, W=tuple(range(-10, -4)), Omega=tuple(range(-3, 6)),
                             seed=269868056)
        A = forward_matrix(setup)
        P = h1_gram(setup.N, setup.W)
        _, _, g = _sweep_data(setup, A, P, [1e-1], 10)
        g = g[0, 5]
        target = 1e-1 * float(np.linalg.norm(g))
        calls = []
        residual = inverse._discrepancy_residual
        monkeypatch.setattr(inverse, "_discrepancy_residual",
                            lambda *a: calls.append(1) or residual(*a))
        lam = discrepancy_roots(A, g, P, target)
        _assert_roots(A, g, P, target, lam, _bisect_120_steps(A, g, P, target))
        assert len(calls) <= 12

    def test_unbracketed_entry_named(self):
        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        _, _, g = _sweep_data(SETUP, A, P, [1e-2, 1e-3], 3)
        target = 1e-2 * np.linalg.norm(g, axis=-1)
        target[1, 2] = 1e30
        with pytest.raises(LambdaRangeError, match=r"entry \(1, 2\)"):
            discrepancy_roots(A, g, P, target)

    def test_mpmath_oracle_root(self):
        # the eps = 1e-6 roots of every trial, solved at 40 digits on the same
        # double data through the normal equations; measured worst deviation
        # 1.8e-9 (trial 6, where the residual is nearly flat in lambda)
        import mpmath as mp

        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        _, _, g = _sweep_data(SETUP, A, P, [1e-6], 10)
        with mp.workdps(40):
            Am = mp.matrix(A.tolist())
            AtA, Pm = Am.T * Am, mp.matrix(P.tolist())
            for gv in g[0]:
                target = 1e-6 * float(np.linalg.norm(gv))
                lam = discrepancy_roots(A, gv, P, target)
                gm = mp.matrix(gv.tolist())
                Atg = Am.T * gm

                def excess(log_lam):
                    f = mp.lu_solve(AtA + mp.exp(log_lam) * Pm, Atg)
                    return mp.norm(Am * f - gm) - mp.mpf(target)

                oracle = mp.exp(mp.findroot(excess, mp.log(lam)))
                assert abs(float(lam / oracle) - 1.0) <= 1e-8

    def test_sweep_makes_no_lstsq_calls(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        stability_sweep(SETUP, self.EPS, trials=10)
        noiseless_recovery_error(SETUP)
        assert calls == []
        # the counter sees the augmented route
        A = forward_matrix(SETUP)
        recover_tikhonov(A, np.ones(len(SETUP.Omega)), 1e-6, h1_gram(SETUP.N, SETUP.W))
        assert len(calls) == 1


class TestNoiseless:
    def test_mpmath_oracle_error(self):
        # the trials of noiseless_recovery_error, each (A'A + lam P) f = A'g
        # solved at 50 digits on the same double data.  Measured deviation
        # 6.5e-8 relative (4.1e-8 with the Fourier-form Gram matrix, whose
        # entries differ in their last ulp); the augmented least-squares
        # route gives 2.4e-9.
        # Both are far inside the rounding bound eps * cond(A L^{-1}) ~ 5e-10
        # on f, which is 3e-6 relative to this mean error.
        import mpmath as mp

        A = forward_matrix(SETUP)
        P = h1_gram(SETUP.N, SETUP.W)
        lam = 1e-16 * np.linalg.norm(A, 2) ** 2
        with mp.workdps(50):
            Am, Pm = mp.matrix(A.tolist()), mp.matrix(P.tolist())
            M = Am.T * Am + mp.mpf(float(lam)) * Pm
            f_true = np.array([inverse._draw_f(np.random.default_rng(SETUP.seed ^ (t + 1)), P)
                               for t in range(5)])
            errs = []
            for f0, g in zip(f_true, f_true @ A.T):
                f = mp.lu_solve(M, Am.T * mp.matrix(g.tolist()))
                errs.append(mp.sqrt(mp.mpf(SETUP.h)) * mp.norm(f - mp.matrix(f0.tolist())))
            oracle = float(mp.fsum(errs) / 5)
        assert noiseless_recovery_error(SETUP) == pytest.approx(oracle, rel=1e-7)


class TestSweep:
    EPS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]

    def test_deterministic(self):
        a = stability_sweep(SETUP, self.EPS, trials=4)
        b = stability_sweep(SETUP, self.EPS, trials=4)
        assert a.points == b.points
        assert a.fitted_nu == b.fitted_nu

    def test_monotone_within_two_sigma(self):
        curve = stability_sweep(SETUP, self.EPS, trials=10)
        errs = np.array([p[1] for p in curve.points])
        sig = np.array(curve.extras["err_std"])
        diffs = np.diff(errs)
        assert np.all(diffs <= 2.0 * (sig[:-1] + sig[1:]))

    def test_nu_positive(self):
        curve = stability_sweep(SETUP, self.EPS, trials=6)
        assert curve.fitted_nu > 0.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            stability_sweep(SETUP, [1e-2, 1e-1], trials=2)
        with pytest.raises(ValueError):
            stability_sweep(SETUP, [2.0, 1e-2], trials=2)
        # one eps fits no line
        with pytest.raises(ValueError, match="at least two values, got 1"):
            stability_sweep(SETUP, [1e-2], trials=2)

    def test_trials_validation(self):
        # no trial leaves nothing to average: rejected by name, not by a
        # shape error in the solve
        with pytest.raises(ValueError, match="trials must be at least 1"):
            stability_sweep(SETUP, self.EPS, trials=0)

    def test_noiseless(self):
        assert noiseless_recovery_error(SETUP) < 1e-3

    def test_degradation_with_separation(self):
        # larger W-Omega separation never helps, on average
        errs = []
        for start in (2, 4, 6):
            setup = InverseSetup(N=16, W=tuple(range(-6, 0)),
                                 Omega=tuple(range(start, start + 9)), seed=9)
            curve = stability_sweep(setup, [1e-2, 1e-3], trials=10)
            errs.append((curve.points[1][1], np.array(curve.extras["err_std"])[1]))
        for (e1, s1), (e2, s2) in zip(errs, errs[1:]):
            assert e2 >= e1 - 2.0 * (s1 + s2) / math.sqrt(10.0)


class TestPrepared:
    def test_one_build_per_setup(self, monkeypatch):
        # a sweep and a noiseless run on one setup build A, P, the standard
        # form and ||A||_2 once between them
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("forward_matrix", "h1_gram", "_standard_form"):
            monkeypatch.setattr(inverse, name, counted(name, getattr(inverse, name)))
        real_norm = np.linalg.norm

        def norm(x, ord=None, **kwargs):
            if ord == 2:
                calls.append("norm2")
            return real_norm(x, ord, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", norm)
        inverse._prepared.cache_clear()
        setup = InverseSetup(N=16, W=tuple(range(-3, 3)), Omega=tuple(range(5, 14)), seed=5)
        stability_sweep(setup, [1e-2, 1e-4], trials=3)
        noiseless_recovery_error(setup)
        assert sorted(calls) == ["_standard_form", "forward_matrix", "h1_gram", "norm2"]

    def test_arrays_read_only(self):
        A, P, factors, norm_a = inverse._prepared(SETUP)
        for arr in (A, P) + factors:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0
        assert isinstance(norm_a, float)
        assert inverse._prepared(SETUP)[0] is A


class TestBoundAndRegime:
    def test_bound_eps_limit(self):
        # first term dominates and vanishes like |log eps|^{-nu}
        v1 = stability_bound(1e-4, 0.01, 0.5, 1.0, 1.0)
        v2 = stability_bound(1e-16, 0.01, 0.5, 1.0, 1.0)
        assert v2 < v1
        assert v2 == pytest.approx(abs(math.log(1e-16)) ** -0.5, rel=0.05)

    def test_bound_h_limit(self):
        # second term decays exponentially in 1/h
        eps, nu, C = 1e-3, 0.3, 1.0
        first = C * abs(math.log(eps)) ** -nu
        for h in (0.1, 0.01, 0.001):
            second = stability_bound(eps, h, nu, C, 1.0) - first
            assert second == pytest.approx(
                math.exp(-abs(math.log(eps)) ** (nu - 1.0) / (C * h)), rel=1e-10)

    def test_bound_nu_zero(self):
        val = stability_bound(1e-3, 1.0, 0.0, 2.0, 1.5)
        assert val >= 2.0 * 1.5  # first term is constant C * f_h1

    def test_regime_examples(self):
        assert continuum_regime(1e-4, 1e-20, 0.1, 1.0) is True
        for eps in (1e-29, 1e-9, 0.5):
            if -math.log(eps) > 1.0:
                assert continuum_regime(1.0, eps, 0.5, 1.0) is False

    def test_regime_boundary_inclusive(self):
        eps, nu, C = 1e-20, 0.1, 1.0
        rhs = 0.1 * abs(math.log(eps)) ** (nu - 1.0) / abs(
            math.log(-C * math.log(eps)))
        assert continuum_regime(rhs, eps, nu, C) is True

    def test_regime_domain_error(self):
        with pytest.raises(ValueError):
            continuum_regime(0.1, 0.9, 0.5, 0.1)  # -C log eps < 1
