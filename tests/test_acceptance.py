"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of failures) and asserts the criterion.  Timed criteria
measure the computation after a small warmup call so that one-time JIT
compilation (cached across runs) is not billed to the algorithm.
"""

import math
import time

import numpy as np

import fraclat
from fraclat import (
    CarlemanConfig,
    FracParams,
    InverseSetup,
    LatticeFunction,
    TorusFunction,
    apply_frac_lattice,
    apply_frac_torus_pointwise,
    apply_frac_torus_spectral,
    boundary_bulk_probe,
    cs_extend_torus,
    global_ucp_counterexample,
    kernel_1d,
    kernel_nd,
    kernel_nd_bound,
    make_t_grid,
    neumann_constant,
    neumann_trace,
    noiseless_recovery_error,
    self_test,
    slab_correction_amplitude,
    slab_counterexample_1d,
    slab_counterexample_2d,
    stability_sweep,
    tangential_commutator_check,
    torus_heat_kernel,
    torus_ucp_counterexample,
    transference_check,
)
from fraclat.specfun import bessel_i_scaled_cols


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c01_kernel_quadrature_matches_closed_form():
    kernel_nd(FracParams(0.5, 1.0, 1), [1], tol=1e-9)  # warmup
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        for h in (1.0, 0.1):
            p = FracParams(s, h, 1)
            for m in range(1, 21):
                q = kernel_nd(p, [m], tol=1e-9)
                c = kernel_1d(p, m)
                worst = max(worst, abs(q - c) / c)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert report(1, ok, f"max rel diff {worst:.3e} (<=1e-8), {elapsed:.2f}s (<10s)")


def test_c02_kernel_values_and_asymptotics():
    p = FracParams(0.5)
    vals = [kernel_1d(p, m) for m in (1, 2, 3)]
    refs = [4.0 / (3.0 * math.pi), 4.0 / (15.0 * math.pi), 4.0 / (35.0 * math.pi)]
    value_err = max(abs(v - r) / r for v, r in zip(vals, refs))
    ratio_err = 0.0
    for s in (0.25, 0.5, 0.75):
        ps = FracParams(s)
        ratio = kernel_1d(ps, 512) / kernel_1d(ps, 1024)
        ratio_err = max(ratio_err, abs(ratio / 2.0 ** (1.0 + 2.0 * s) - 1.0))
    ok = value_err <= 1e-13 and ratio_err < 0.01
    assert report(2, ok, f"closed-form rel err {value_err:.2e} (<=1e-13), "
                         f"doubling-ratio dev {ratio_err:.4f} (<1%)")


def test_c03_kernel_upper_bound_sweep():
    worst_excess = 0.0
    count = 0
    for d in (2, 3):
        for s in (0.25, 0.5, 0.75):
            p = FracParams(s, 1.0, d)
            for off in np.ndindex(*(13,) * d):
                if not 0 < sum(off) <= 12:
                    continue
                v = kernel_nd(p, off, tol=1e-8)
                b = kernel_nd_bound(p, off)
                worst_excess = max(worst_excess, v / b)
                count += 1
    ok = worst_excess <= 1.0 + 1e-8
    assert report(3, ok, f"{count} offsets, max value/bound {worst_excess:.6f} (<=1)")


def test_c04_pointwise_spectral_equivalence():
    cases = []
    for s in (0.25, 0.5, 0.75):
        cases += [(1, 8, s, 10), (1, 12, s, 10), (2, 4, s, 10)]
    cases += [(2, 12, 0.5, 10)]
    rng = np.random.default_rng(404)
    worst = 0.0
    total = 0
    for d, N, s, reps in cases:
        n = 2 * N + 1
        for _ in range(reps):
            vals = rng.standard_normal((n,) * d)
            vals /= np.abs(vals).max()
            v = TorusFunction(N, d, vals)
            a = apply_frac_torus_pointwise(v, s, tol=1e-11)
            b = apply_frac_torus_spectral(v, s)
            worst = max(worst, float(np.abs(a.values - b.values).max()))
            total += 1
    ok = worst <= 1e-10 and total == 100
    assert report(4, ok, f"{total} random functions, max abs defect {worst:.3e} (<=1e-10)")


def test_c05_global_ucp_failure():
    # the hand case first
    p = FracParams(0.5)
    u, cert = global_ucp_counterexample(p, [(0,)], Y=[(1,), (2,)], tol=1e-12)
    hand_ok = abs(u.value(1) / u.value(2) + 0.2) < 1e-12
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(20):
        d = 1 if trial < 10 else 2
        s = float(rng.uniform(0.2, 0.8))
        size = int(rng.integers(1, 7))
        X = list({tuple(int(c) for c in rng.integers(-6, 7, d))
                  for _ in range(size)})
        uu, cc = global_ucp_counterexample(FracParams(s, 1.0, d), X, tol=1e-9)
        resid = float(np.abs(apply_frac_lattice(uu, np.array(X))).max())
        worst = max(worst, resid / cc.u_norm)
        assert cc.u_norm > 0
    ok = hand_ok and worst <= 1e-9
    assert report(5, ok, f"hand case u ~ (1,-5): {hand_ok}; "
                         f"20 random sets, max resid/|u| {worst:.3e} (<=1e-9)")


def test_c06_slab_counterexamples():
    t0 = time.perf_counter()
    a = slab_correction_amplitude(FracParams(0.5))
    a_ok = abs(a + 21.0 / 16.0) <= 1e-12
    _, _, cert1 = slab_counterexample_1d(FracParams(0.5), tol=1e-10, window=120)
    resid_ok = cert1.residual_sup <= 1e-10
    _, _, ch = slab_counterexample_1d(FracParams(0.5, 0.5, 1), window=60)
    _, _, c1 = slab_counterexample_1d(FracParams(0.5, 1.0, 1), window=60)
    _, _, ct = slab_counterexample_1d(FracParams(0.5, 0.1, 1), window=60)
    scale_err = max(abs(ch.potential_bound / c1.potential_bound - 2.0 ** 1.0) / 2.0,
                    abs(ct.potential_bound / c1.potential_bound - 10.0 ** 1.0) / 10.0)
    cert2 = slab_counterexample_2d(FracParams(0.5, 1.0, 2),
                                   j2_samples=(0, 1, 5, 25, 100), trunc_radius=200)
    spread_ok = cert2.details["j2_spread"] <= 2.0 * cert2.tolerance
    elapsed = time.perf_counter() - t0
    ok = (a_ok and resid_ok and scale_err <= 1e-10 and cert2.passed
          and spread_ok and elapsed < 60.0)
    assert report(6, ok, f"a+21/16 = {abs(a + 21.0 / 16.0):.2e} (<=1e-12), "
                         f"slab residual {cert1.residual_sup:.2e} (<=1e-10), "
                         f"V scaling err {scale_err:.2e} (<=1e-10), "
                         f"2D spread {cert2.details['j2_spread']:.2e} "
                         f"(<=2x omitted mass {2.0 * cert2.tolerance:.2e}), {elapsed:.1f}s (<60s)")


def test_c07_torus_ucp_failure():
    rng = np.random.default_rng(7)
    worst = 0.0
    N = 8
    for size in (1, 2, 3, 4):
        X = sorted(rng.choice(np.arange(-N, N + 1), size=size, replace=False).tolist())
        u, cert = torus_ucp_counterexample(N, 0.5, X, tol=1e-10)
        out = apply_frac_torus_pointwise(u, 0.5)
        worst = max(worst, max(abs(out.value(x)) for x in X))
    rejected = False
    try:
        torus_ucp_counterexample(N, 0.5, list(range(-4, 5)))  # |X| = 9 = N + 1
    except ValueError:
        rejected = True
    ok = worst <= 1e-10 and rejected
    assert report(7, ok, f"max residual {worst:.3e} (<=1e-10), "
                         f"|X|=N+1 rejected: {rejected}")


def test_c08_transference_identity():
    rng = np.random.default_rng(88)
    worst = 0.0
    total = 0
    for d in (1, 2):
        for N in (4, 6):
            n = 2 * N + 1
            params = FracParams(0.5, 2.0 * math.pi / n, d)
            for _ in range(5):
                v = TorusFunction(N, d, rng.standard_normal((n,) * d))
                phi = LatticeFunction(params, {
                    tuple(int(c) - 1 for c in idx): float(rng.standard_normal())
                    for idx in np.ndindex(*(3,) * d)})
                worst = max(worst, transference_check(v, phi, tol=1e-8))
                total += 1
    ok = worst <= 1e-8 and total == 20
    assert report(8, ok, f"{total} pairs, max defect {worst:.3e} (<=1e-8)")


def test_c09_heat_kernel_mass():
    worst_lat = 0.0
    for t in (0.5, 1.0, 2.0):
        row = bessel_i_scaled_cols(np.arange(61), np.array([2.0 * t]))[0]
        m1 = row[0] + 2.0 * row[1:].sum()
        worst_lat = max(worst_lat, abs(m1 - 1.0), abs(m1 ** 2 - 1.0))
    N = 8
    h = 2.0 * math.pi / 17.0
    tor = abs(sum(torus_heat_kernel(N, h, j, 0.5) for j in range(-N, N + 1)) - 1.0)
    ok = worst_lat <= 1e-10 and tor <= 1e-12
    assert report(9, ok, f"lattice mass defect {worst_lat:.3e} (<=1e-10, R=60, d<=2), "
                         f"torus mass defect {tor:.3e} (<=1e-12)")


def test_c10_neumann_trace():
    const_exact = neumann_constant(0.5) == 1.0
    rng = np.random.default_rng(10)
    v = TorusFunction(6, 1, rng.standard_normal(13))
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        field = cs_extend_torus(v, s, make_t_grid(1e-8, 4.0, 1.05))
        tr = neumann_trace(field, check_rtol=None)
        ref = apply_frac_torus_spectral(v, s).values * neumann_constant(s)
        worst = max(worst, float(np.abs(tr.values - ref).max() / np.abs(ref).max()))
    ok = worst <= 1e-4 and const_exact
    assert report(10, ok, f"max rel error {worst:.3e} (<=1e-4), "
                          f"constant at s=1/2 exactly 1: {const_exact}")


def test_c11_carleman_commutator():
    rng = np.random.default_rng(11)
    worst = 0.0
    for d in (1, 2):
        for h in (0.2, 0.1, 0.05):
            tau = 0.5 / h * 0.9  # tau h <= 0.5
            cfg = CarlemanConfig(c0=4.0, tau=tau, h=h)
            if d == 1:
                v = {(j,): float(rng.standard_normal()) for j in range(-6, 7)}
            else:
                v = {(i, j): float(rng.standard_normal())
                     for i in range(-4, 5) for j in range(-4, 5)}
            lhs, rhs, defect = tangential_commutator_check(cfg, v)
            worst = max(worst, defect / abs(lhs))
    ok = worst <= 1e-10
    assert report(11, ok, f"max relative defect {worst:.3e} (<=1e-10)")


def _bump_trace(N, seed):
    n = 2 * N + 1
    h = 2.0 * math.pi / n
    rng = np.random.default_rng(seed)
    x = np.arange(-N, N + 1) * h
    vals = np.zeros(n)
    for _ in range(4):
        c = rng.uniform(-0.3, 0.3)
        w = rng.uniform(0.08, 0.2)
        vals += rng.standard_normal() * np.exp(-((x - c) / w) ** 2 / 2.0)
    vals[np.abs(x) >= 0.5] = 0.0
    return TorusFunction(N, 1, vals)


def test_c12_boundary_bulk_probe():
    all_hold = True
    alpha_ok = True
    spread_ok = True
    count = 0
    for seed in (1, 2, 3, 4, 5):
        alphas = []
        for N in (31, 62):  # h ~ 0.1, 0.05
            res = boundary_bulk_probe(_bump_trace(N, seed), r0=0.5)
            all_hold &= res.holds
            alpha_ok &= 0.0 < res.fitted_alpha < 1.0
            alphas.append(res.fitted_alpha)
            count += 1
        spread_ok &= abs(alphas[0] - alphas[1]) < 0.2
    ok = all_hold and alpha_ok and spread_ok and count == 10
    assert report(12, ok, f"{count} probes: holds={all_hold}, alpha in (0,1)={alpha_ok}, "
                          f"mesh spread < 0.2: {spread_ok}")


def test_c13_inverse_sweep():
    t0 = time.perf_counter()
    setup = InverseSetup(N=16, W=tuple(range(-3, 3)), Omega=tuple(range(5, 14)),
                         seed=2024)
    nerr = noiseless_recovery_error(setup)
    eps = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    curve = stability_sweep(setup, eps, trials=12)
    errs = np.array([p[1] for p in curve.points])
    sig = np.array(curve.extras["err_std"])
    monotone = bool(np.all(np.diff(errs) <= 2.0 * (sig[:-1] + sig[1:])))
    elapsed = time.perf_counter() - t0
    ok = (nerr < 1e-3 and monotone and curve.fitted_nu > 0.0
          and curve.r_squared >= 0.9 and elapsed < 300.0)
    report(13, ok, f"noiseless {nerr:.2e} (<1e-3), monotone(2sigma)={monotone}, "
                   f"nu={curve.fitted_nu:.3f} (>0), R2={curve.r_squared:.3f} (>=0.9), "
                   f"{elapsed:.1f}s (<300s)")
    assert nerr < 1e-3
    assert monotone
    assert curve.fitted_nu > 0.0
    assert elapsed < 300.0
    # Structurally out of reach for this six-unknown section: the recovery
    # error follows the modal staircase of the forward map's singular values
    # rather than a single log-modulus, and the prescribed log-log fit tops
    # out near R^2 ~ 0.8 for every admissible geometry and seed.
    assert curve.r_squared >= 0.9


def test_c14_self_test_runtime():
    self_test()  # warmup: JIT everything involved
    t0 = time.perf_counter()
    rep = self_test()
    elapsed = time.perf_counter() - t0
    ok = rep.all_passed and elapsed < 30.0
    assert report(14, ok, f"all checks pass: {rep.all_passed}, {elapsed:.2f}s (<30s); "
                          f"full-suite budget (10 min) tracked by the pytest run")
