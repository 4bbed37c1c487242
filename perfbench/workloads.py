"""The three benchmark workloads: seeded inputs, ops and their checks.

Each op's inputs come from ``numpy.random.default_rng((seed, k))`` for op
index k, so they depend on the seed and the op index only, never on timing.
Every check compares the library against an independent route (a second
algorithm in fraclat, an identity, or scipy.special) at the tolerance the
library certifies or its own self-test uses; a failing check is counted,
never skipped.
"""

import hashlib
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import scipy.special as sp

import fraclat
from fraclat import specfun

from tracing import expect

EPS = np.finfo(float).eps
S_LO, S_HI = 0.05, 0.95  # documented range of the kernel tables


def _torus_function(rng, N, d):
    """Random torus data scaled to sup norm exactly 1.

    The pointwise route picks its table tolerance from the sup norm, so a
    fixed sup norm keeps every op on the table keys that set-up built.
    """
    n = 2 * N + 1
    v = rng.standard_normal((n,) * d)
    return fraclat.TorusFunction(N, d, v / np.abs(v).max())


def _box_function(rng, params):
    """Random lattice function supported on the 3^d box around 0."""
    d = params.d
    return fraclat.LatticeFunction(params, {
        tuple(int(c) - 1 for c in idx): float(rng.standard_normal())
        for idx in np.ndindex(*(3,) * d)})


# --- cold-kernels ---------------------------------------------------------


def draw_specfun(rng):
    return (rng.uniform(1e-3, 100.0, 5),
            np.exp(rng.uniform(0.0, math.log(5000.0), 5)).astype(int),
            rng.integers(0, 41, 5), np.exp(rng.uniform(-4.6, 6.9, 5)))


def check_specfun(op, s, draws):
    xs, ms, orders, ts = draws
    for x in np.concatenate([[s, 0.5 + s, 1.0 + s], xs]):
        got = op.call("specfun.log_gamma", specfun.log_gamma, float(x))
        ref = sp.gammaln(x)
        expect(abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), f"log_gamma({x})")
    # exp(lgamma(a) - lgamma(b)) inherits the rounding of both logs
    for m in ms:
        a, b = m - s, m + 1.0 + s
        got = op.call("specfun.gamma_ratio", specfun.gamma_ratio, a, b)
        ref = 1.0 / sp.poch(a, b - a)
        tol = 1e-13 + 16.0 * EPS * (abs(sp.gammaln(a)) + abs(sp.gammaln(b)))
        expect(abs(got - ref) <= tol * ref, f"gamma_ratio({a}, {b})")
    for nn, t in zip(orders, ts):
        got = op.call("specfun.bessel_i_scaled", specfun.bessel_i_scaled, int(nn), float(t))
        ref = sp.ive(int(nn), t)
        expect(abs(got - ref) <= 1e-12 * ref + 1e-300, f"bessel_i_scaled({nn}, {t})")


def check_kernel_nd_1d(op, s, offsets):
    params = fraclat.FracParams(s, 1.0, 1)
    tol = 1e-10
    for m in offsets:
        q = op.call("kernel.kernel_nd", fraclat.kernel_nd, params, [m], tol=tol)
        c = op.call("kernel.kernel_1d", fraclat.kernel_1d, params, m)
        expect(abs(q - c) <= tol * abs(q) + 1e-13 * c, f"kernel_nd vs closed form at m={m}")


def check_kernel_nd_bound(op, s, offsets):
    for m in offsets:
        params = fraclat.FracParams(s, 1.0, len(m))
        q = op.call("kernel.kernel_nd", fraclat.kernel_nd, params, m)
        bound = op.call("kernel.kernel_nd_bound", fraclat.kernel_nd_bound, params, m)
        expect(math.isfinite(q) and 0.0 < q <= bound, f"kernel_nd above its bound at {m}")


def check_mass_identity(op, s, N):
    """Total mass = mean of the torus symbol + heat-route diagonal wrap sum.

    The torus operator's diagonal entry is sum_{j != 0} K^A(j), which is the
    mean of its eigenvalues; adding the wrapped copies of offset 0 (diag)
    gives sum_{m != 0} K(m).
    """
    n = 2 * N + 1
    h = 2.0 * math.pi / n
    mass_tol = 1e-12
    table = op.call("kernel.torus_kernel_table.heat", fraclat.torus_kernel_table,
                    s, N, 2, tol=1e-12, need_diag=True, method="heat")
    mass = op.call("kernel.kernel_lattice_mass", fraclat.kernel_lattice_mass,
                   fraclat.FracParams(s, h, 2), tol=mass_tol)
    sin2 = (4.0 / (h * h)) * np.sin(math.pi * np.arange(-N, N + 1) / n) ** 2
    lam = (sin2[:, None] + sin2[None, :]) ** s
    spectral = float(lam.mean()) + table.diag
    tol = mass_tol * mass + table.err + 64.0 * EPS * float(lam.max())
    expect(abs(spectral - mass) <= tol, "kernel mass vs symbol mean + diag")


def check_series_vs_heat(op, s, N):
    a = op.call("kernel.torus_kernel_table.series", fraclat.torus_kernel_table,
                s, N, 1, tol=1e-12, method="series")
    b = op.call("kernel.torus_kernel_table.heat", fraclat.torus_kernel_table,
                s, N, 1, tol=1e-12, method="heat")
    gap = float(np.abs(a.full - b.full).max())
    expect(gap <= a.err + b.err, f"series vs heat gap {gap:.3e} > {a.err + b.err:.3e}")


def check_global_ucp(op, s, X):
    _, cert = op.call("counterexamples.global_ucp_counterexample",
                      fraclat.global_ucp_counterexample, fraclat.FracParams(s, 1.0, 2), X)
    expect(cert.passed, "global UCP certificate")


def check_slab_1d(op, s):
    _, _, cert = op.call("counterexamples.slab_counterexample_1d",
                         fraclat.slab_counterexample_1d, fraclat.FracParams(s, 1.0, 1))
    expect(cert.passed, "slab-1d certificate")


def check_slab_2d(op, s):
    cert = op.call("counterexamples.slab_counterexample_2d",
                   fraclat.slab_counterexample_2d, fraclat.FracParams(s, 1.0, 2),
                   j2_samples=(0, 1, 5, 15, 30), trunc_radius=60)
    expect(cert.passed, "slab-2d certificate")
    expect(cert.details["j2_spread"] <= 2.0 * cert.tolerance, "slab-2d j2 independence")


class ColdKernels:
    """Orders from a fixed pool, with every fraclat cache emptied before each op.

    Emptying the caches (``cold``) makes every kernel and table cache miss,
    as a fresh order would. A fixed pool makes each op's outcome a function
    of its order and seed only: the series-route certificate misses sit at
    scattered orders, and with drawn orders (even orders nudged by 1e-6) a
    run's count of failing ops depended on where its orders fell. The pool
    avoids the orders where the library is known to fail (F1 from
    s ~ 0.925; series-certificate misses for s <= 0.16 and near 0.21, 0.73,
    0.87 and 0.895); :func:`known_defects` probes those orders after the
    measured window. The seed draws every other input.
    """

    name = "cold-kernels"
    ORDERS = (0.25, 0.35, 0.45, 0.55, 0.65, 0.85)
    cycle = len(ORDERS)
    cold = True

    def __init__(self, seed):
        self.seed = seed

    def setup(self, op):
        self.run_op(op, 0.5, np.random.default_rng(0))

    def op(self, op, k):
        self.run_op(op, self.ORDERS[k % self.cycle], np.random.default_rng((self.seed, k)))

    @staticmethod
    def run_op(op, s, rng):
        offsets_1d = [1, int(rng.integers(2, 41))]
        offsets_2d = [tuple(int(c) for c in rng.integers(-12, 13, 2)) for _ in range(2)]
        offsets_3d = [tuple(int(c) for c in rng.integers(-4, 5, 3))]
        nonzero = [m for m in offsets_2d + offsets_3d if any(m)]
        X = [tuple(int(c) for c in rng.integers(-3, 4, 2))]
        specfun_draws = draw_specfun(rng)
        op.check("specfun_vs_scipy", check_specfun, s, specfun_draws)
        op.check("kernel_nd_1d_vs_closed_form", check_kernel_nd_1d, s, offsets_1d)
        op.check("kernel_nd_vs_bound", check_kernel_nd_bound, s, nonzero)
        op.check("mass_vs_symbol_plus_diag", check_mass_identity, s, 8)
        op.check("torus_series_vs_heat", check_series_vs_heat, s, 16)
        op.check("global_ucp_2d", check_global_ucp, s, X)
        op.check("slab_1d", check_slab_1d, s)
        op.check("slab_2d", check_slab_2d, s)


# --- warm-operator ----------------------------------------------------------


def check_pointwise_vs_spectral(op, v, s, perturb=0.0):
    a = op.call("lattice.apply_frac_torus_pointwise", fraclat.apply_frac_torus_pointwise,
                v, s, tol=1e-11)
    b = op.call("lattice.apply_frac_torus_spectral", fraclat.apply_frac_torus_spectral, v, s)
    pointwise = a.values.copy()
    pointwise.flat[0] += perturb
    gap = float(np.abs(pointwise - b.values).max())
    expect(gap <= 1e-10, f"pointwise vs spectral gap {gap:.3e}")


def check_transference(op, v, phi):
    defect = op.call("lattice.transference_check", fraclat.transference_check,
                     v, phi, tol=1e-10)
    expect(math.isfinite(defect), "transference defect is not finite")


def check_torus_ucp(op, N, s, X):
    _, cert = op.call("counterexamples.torus_ucp_counterexample",
                      fraclat.torus_ucp_counterexample, N, s, X)
    expect(cert.passed, "torus UCP certificate")


def check_harness_apply(op, v, s, scratch_dir):
    """harness.run('apply') writes the spectral result; compare it and its hash."""
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        src = Path(tmp) / "input.json"
        src.write_text(v.to_json())
        config = fraclat.ExperimentConfig(experiment="apply",
                                          params={"s": s, "file": str(src)},
                                          output_dir=tmp)
        report = op.call("harness.run", fraclat.run, config)
        expect(report.all_passed, "harness apply checks")
        (art,) = report.artifacts
        text = Path(art["path"]).read_text()
        expect(hashlib.sha256(text.encode()).hexdigest() == art["sha256"],
               "artifact hash")
        written = fraclat.TorusFunction.from_json(text).values
    ref = op.call("lattice.apply_frac_torus_spectral",
                  fraclat.apply_frac_torus_spectral, v, s).values
    expect(float(np.abs(written - ref).max()) <= 1e-13 * (1.0 + float(np.abs(ref).max())),
           "artifact values vs spectral route")


class WarmOperator:
    """A fixed pool of (s, N, d); set-up builds every table key ops read."""

    name = "warm-operator"
    cycle = 1
    cold = False
    POOL = ((0.75, 32, 1), (0.4, 10, 2), (0.7, 10, 2))

    def __init__(self, seed, scratch_dir):
        self.seed = seed
        self.scratch_dir = scratch_dir

    def setup(self, op):
        # One op on fixed data touches exactly the keys later ops read: the
        # pointwise tolerances depend only on (N, d) because data has sup
        # norm 1, transference always asks for tol=1e-13 with the diagonal.
        self.run_op(op, np.random.default_rng(0))

    def op(self, op, k):
        self.run_op(op, np.random.default_rng((self.seed, k)))

    def run_op(self, op, rng):
        for s, N, d in self.POOL:
            v = _torus_function(rng, N, d)
            phi = _box_function(rng, fraclat.FracParams(s, 2.0 * math.pi / (2 * N + 1), d))
            op.check("pointwise_vs_spectral", check_pointwise_vs_spectral, v, s)
            op.check("transference_wrapped", check_transference, v, phi)
            if d == 1:
                X = sorted(int(x) for x in rng.choice(np.arange(-N, N + 1), 4, replace=False))
                op.check("torus_ucp", check_torus_ucp, N, s, X)
            op.check("harness_apply", check_harness_apply, v, s, self.scratch_dir)


# --- extension-inverse --------------------------------------------------------


def _bumps(rng, N):
    """Trace data for the boundary-bulk probe, as the harness draws it."""
    n = 2 * N + 1
    x = np.arange(-N, N + 1) * (2.0 * math.pi / n)
    vals = np.zeros(n)
    for _ in range(4):
        c = rng.uniform(-0.3, 0.3)
        w = rng.uniform(0.08, 0.2)
        vals += rng.standard_normal() * np.exp(-((x - c) / w) ** 2 / 2.0)
    vals[np.abs(x) >= 0.5] = 0.0
    return fraclat.TorusFunction(N, 1, vals)


def check_boundary_bulk(op, f):
    res = op.call("extension.boundary_bulk_probe", fraclat.boundary_bulk_probe, f)
    norms = res.norms
    expect(all(math.isfinite(x) for x in norms.values()), "non-finite norm")
    expect(norms["bulk_small"] <= norms["bulk_big"], "bulk norm not monotone in radius")
    expect(0.0 < res.fitted_alpha < 1.0, "alpha outside (0, 1)")
    expect(res.holds, "interpolation inequality")


def check_neumann_trace(op, v, s):
    field = op.call("extension.cs_extend_torus", fraclat.cs_extend_torus,
                    v, s, fraclat.make_t_grid(1e-8, 4.0, 1.05))
    tr = op.call("extension.neumann_trace", fraclat.neumann_trace, field, check_rtol=None)
    const = op.call("extension.neumann_constant", fraclat.neumann_constant, s)
    ref = op.call("lattice.apply_frac_torus_spectral",
                  fraclat.apply_frac_torus_spectral, v, s).values * const
    err = float(np.abs(tr.values - ref).max() / np.abs(ref).max())
    expect(err <= 1e-4, f"Neumann trace vs spectral rel err {err:.3e}")


def check_commutator(op, v):
    cfg = fraclat.CarlemanConfig(c0=4.0, tau=3.0, h=0.1)
    lhs, _, defect = op.call("extension.tangential_commutator_check",
                             fraclat.tangential_commutator_check, cfg, v)
    expect(defect <= 1e-10 * abs(lhs), "commutator identity")


def check_inverse(op, setup, r_squared):
    curve = op.call("inverse.stability_sweep", fraclat.stability_sweep,
                    setup, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6], trials=10)
    err = op.call("inverse.noiseless_recovery_error", fraclat.noiseless_recovery_error, setup)
    # The R^2 >= 0.9 clause fails by construction (ROADMAP F2): record, don't fail.
    r_squared.append(curve.r_squared)
    expect(err < 1e-3, f"noiseless recovery error {err:.3e}")
    expect(curve.fitted_nu > 0.0, "fitted stability exponent not positive")


def check_bessel_k(op, orders, xs):
    for s, x in zip(orders, xs):
        got = op.call("specfun.bessel_k", specfun.bessel_k, float(s), float(x))
        ref = sp.kv(s, x)
        expect(abs(got - ref) <= 1e-12 * ref, f"bessel_k({s}, {x})")


def _inverse_setup(rng, N=16):
    """Adjacent W (6 points) and Omega (9 points) blocks, 1 to 3 points apart.

    Farther apart, the section is too ill-posed for the 1e-6 noise level
    and the discrepancy search leaves its bracket by design.
    """
    gap = int(rng.integers(1, 4))
    lo = int(rng.integers(-N, N - 13 - gap))
    w_first = bool(rng.random() < 0.5)
    size = 6 if w_first else 9
    first = tuple(range(lo, lo + size))
    second = tuple(range(lo + size + gap, lo + 15 + gap))
    W, Omega = (first, second) if w_first else (second, first)
    return fraclat.InverseSetup(N=N, W=W, Omega=Omega, seed=int(rng.integers(0, 2 ** 31)))


class ExtensionInverse:
    """Extension probes, the Tikhonov sweep and Macdonald-K batches."""

    name = "extension-inverse"
    cycle = 3  # ops per period of the N = 31, 31, 62 probe pattern
    cold = False

    def __init__(self, seed):
        self.seed = seed
        self.r_squared = []

    def setup(self, op):
        self.run_op(op, 0, np.random.default_rng(0), [])

    def op(self, op, k):
        self.run_op(op, k, np.random.default_rng((self.seed, k)), self.r_squared)

    @staticmethod
    def run_op(op, k, rng, r_squared):
        # every third op probes the finer torus, so each run has the same mix
        f = _bumps(rng, 62 if k % 3 == 2 else 31)
        # the t^(2s) fit on t >= 1e-8 resolves the layer to 1e-4 up to s ~ 0.7
        s = float(rng.uniform(S_LO, 0.7))
        v = fraclat.TorusFunction(6, 1, rng.standard_normal(13))
        box = {(i, j): float(rng.standard_normal()) for i in range(-4, 5) for j in range(-4, 5)}
        setup = _inverse_setup(rng)
        k_orders = rng.uniform(S_LO, S_HI, 300)
        k_args = np.exp(rng.uniform(-6.9, 3.9, 300))
        op.check("boundary_bulk", check_boundary_bulk, f)
        op.check("neumann_trace_vs_spectral", check_neumann_trace, v, s)
        op.check("carleman_commutator", check_commutator, box)
        op.check("inverse_recovery", check_inverse, setup, r_squared)
        op.check("bessel_k_vs_scipy", check_bessel_k, k_orders, k_args)


# --- fault injection ----------------------------------------------------------


def check_self_test(op, corrupt):
    report = fraclat.self_test(corrupt_kernel_constant=corrupt)
    expect(report.all_passed, "self-test")


def fault_probes(make_op):
    """Two ops with injected faults; both must be counted as failed.

    Returns {probe name: counted as failed}.
    """
    results = {}
    op = make_op("fault.self_test_corrupt_kernel_constant")
    op.check("self_test", check_self_test, True)
    results["self_test_corrupt_kernel_constant"] = not op.finish()

    op = make_op("fault.perturbed_pointwise")
    v = _torus_function(np.random.default_rng(0), 6, 1)
    op.check("pointwise_vs_spectral", check_pointwise_vs_spectral, v, 0.5, 1e-8)
    results["perturbed_pointwise"] = not op.finish()
    return results


def known_defects(make_op):
    """The cold-kernels checks at orders where the library is known to fail.

    Not counted as failed ops: the outcome of each probe goes to the
    detail line, so a fix shows as "passed". Returns {probe: outcome}.
    """
    probes = {
        "F1_kernel_nd_s0.95": (check_kernel_nd_1d, 0.95, [1]),
        "F1_mass_s0.95": (check_mass_identity, 0.95, 8),
        "series_certificate_s0.05": (check_series_vs_heat, 0.05, 16),
        "series_certificate_s0.15": (check_series_vs_heat, 0.15, 16),
    }
    outcomes = {}
    with warnings.catch_warnings():
        # F1's d=2 table overflows with RuntimeWarnings; the outcome says enough
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, (fn, *args) in probes.items():
            op = make_op(f"known.{name}")
            op.check(name, fn, *args)
            outcomes[name] = "passed" if op.finish() else [exc for _, exc in op.failures]
    return outcomes


def make(name, seed, scratch_dir):
    if name == ColdKernels.name:
        return ColdKernels(seed)
    if name == WarmOperator.name:
        return WarmOperator(seed, scratch_dir)
    if name == ExtensionInverse.name:
        return ExtensionInverse(seed)
    raise ValueError(f"unknown workload {name!r}")
