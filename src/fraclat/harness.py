"""Experiment orchestration: validated configs, dispatch, artifacts, reports.

Every experiment takes a flat key=value parameter table, runs one of the
library's constructions or probes, writes CSV/JSON artifacts with a content
hash manifest, and returns a report with one PASS/FAIL line per check.
Floating output uses round-trip (shortest exact) decimal formatting so that
artifacts are stable golden files.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernel import (
    FracParams,
    build_kernel_table,
    kernel_1d,
    kernel_nd,
    torus_heat_kernel,
)
from .lattice import (
    LatticeFunction,
    TorusFunction,
    apply_frac_torus_pointwise,
    apply_frac_torus_spectral,
    transference_check,
)
from .counterexamples import (
    global_ucp_counterexample,
    slab_counterexample_1d,
    slab_counterexample_2d,
    torus_ucp_counterexample,
)
from .extension import (
    CarlemanConfig,
    boundary_bulk_probe,
    carleman_probe,
    cs_extend_torus,
    make_t_grid,
    neumann_constant,
    neumann_trace,
    tangential_commutator_check,
)
from .inverse import InverseSetup, noiseless_recovery_error, stability_sweep
from .specfun import bessel_i_scaled, log_gamma

EXPERIMENTS = (
    "kernel-dump", "apply", "ucp-lattice", "ucp-torus", "slab-1d", "slab-2d",
    "transference", "extension-trace", "carleman-commutator", "carleman-probe",
    "boundary-bulk", "inverse-sweep", "self-test",
)


def fmt(x):
    """Round-trip decimal formatting for floats; plain str otherwise."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    output_dir: str = "."
    seed: int = 0

    def serialize(self):
        return json.dumps({
            "experiment": self.experiment,
            "output_dir": self.output_dir,
            "params": self.params,
            "seed": self.seed,
        }, sort_keys=True)

    @staticmethod
    def parse(text):
        obj = json.loads(text)
        return ExperimentConfig(experiment=obj["experiment"],
                                params=obj.get("params", {}),
                                output_dir=obj.get("output_dir", "."),
                                seed=obj.get("seed", 0))


@dataclass
class Check:
    name: str
    passed: bool
    measured: float
    threshold: float

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.measured = float(self.measured)
        self.threshold = float(self.threshold)

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: measured={fmt(self.measured)} threshold={fmt(self.threshold)}"


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    checks: list
    artifacts: list
    wall_time: float

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return json.dumps({
            "config": json.loads(self.config.serialize()),
            "checks": [{"name": c.name, "passed": c.passed,
                        "measured": c.measured, "threshold": c.threshold}
                       for c in self.checks],
            "artifacts": self.artifacts,
            "all_passed": self.all_passed,
            "wall_time": self.wall_time,
        }, sort_keys=True)


def _validate(config):
    errors = []
    p = config.params
    if config.experiment not in EXPERIMENTS:
        errors.append(f"experiment: unknown name {config.experiment!r}")
    s = p.get("s")
    if s is not None and not 0.0 < float(s) < 1.0:
        errors.append(f"s: must lie in (0,1), got {s}")
    h = p.get("h")
    if h is not None and float(h) <= 0.0:
        errors.append(f"h: must be positive, got {h}")
    d = p.get("d")
    if d is not None and int(d) < 1:
        errors.append(f"d: must be a positive integer, got {d}")
    N = p.get("N")
    if N is not None and int(N) < 1:
        errors.append(f"N: must be a positive integer, got {N}")
    tau = p.get("tau")
    if tau is not None and h is not None:
        delta0 = float(p.get("delta0", 0.5))
        if float(tau) * float(h) > delta0:
            errors.append(f"tau: tau*h = {float(tau) * float(h)} exceeds delta0 = {delta0}")
    if config.experiment == "apply" and "file" not in p:
        errors.append("file: required for the apply experiment")
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))


def _write_artifact(outdir, name, text):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    with open(outdir / "manifest.txt", "a") as f:
        f.write(f"{digest}  {name}\n")
    return {"path": str(path), "sha256": digest}


def _parse_points(text, d):
    """Parse '0;1,2;-3,4' into a list of d-tuples."""
    pts = []
    for tok in str(text).split(";"):
        tok = tok.strip()
        if not tok:
            continue
        comps = tuple(int(c) for c in tok.split(","))
        if len(comps) != d:
            raise ValueError(f"point {tok!r} is not {d}-dimensional")
        pts.append(comps)
    return pts


def run(config):
    """Validate, dispatch, write artifacts, and report."""
    _validate(config)
    t0 = time.perf_counter()
    name = config.experiment
    p = dict(config.params)
    checks = []
    artifacts = []
    out = config.output_dir

    if name == "kernel-dump":
        s = float(p.get("s", 0.5)); h = float(p.get("h", 1.0))
        d = int(p.get("d", 1)); radius = int(p.get("radius", 10))
        params = FracParams(s, h, d)
        table = build_kernel_table(params, radius)
        lines = [",".join([f"m_{i + 1}" for i in range(d)] + ["value", "abs_err_est"])]
        for off in sorted(np.ndindex(*(2 * radius + 1,) * d)):
            m = tuple(o - radius for o in off)
            lines.append(",".join([str(c) for c in m]
                                  + [fmt(float(table.values[off])),
                                     fmt(float(table.err[off]))]))
        artifacts.append(_write_artifact(out, "kernel.csv", "\n".join(lines) + "\n"))
        checks.append(Check("row_count", len(lines) - 1 == (2 * radius + 1) ** d,
                            len(lines) - 1, (2 * radius + 1) ** d))
        if d == 1:
            v1 = table.value(1)
            ref = kernel_1d(params, 1)
            checks.append(Check("closed_form_m1", abs(v1 - ref) <= 1e-13 * ref,
                                abs(v1 - ref), 1e-13 * ref))

    elif name == "apply":
        s = float(p.get("s", 0.5))
        doc = json.loads(Path(p["file"]).read_text())
        if "values" in doc:
            v = TorusFunction.from_json(doc)
            spec_out = apply_frac_torus_spectral(v, s)
            artifacts.append(_write_artifact(out, "applied.json", spec_out.to_json()))
            pw = apply_frac_torus_pointwise(v, s, tol=1e-10)
            defect = float(np.abs(pw.values - spec_out.values).max())
            checks.append(Check("pointwise_vs_spectral", defect <= 1e-9, defect, 1e-9))
        else:
            from .lattice import apply_frac_lattice

            u = LatticeFunction.from_json(doc)
            radius = int(p.get("radius", 10))
            d = u.params.d
            # the (2r+1)^d grid in lexicographic order, in one operator call
            pts = np.indices((2 * radius + 1,) * d).reshape(d, -1).T - radius
            vals = apply_frac_lattice(u, pts)
            lines = [",".join([f"j_{i + 1}" for i in range(d)] + ["value"])]
            for j, val in zip(pts.tolist(), vals.tolist()):
                lines.append(",".join([str(c) for c in j] + [fmt(val)]))
            artifacts.append(_write_artifact(out, "applied.csv",
                                             "\n".join(lines) + "\n"))
            checks.append(Check("row_count",
                                len(lines) - 1 == (2 * radius + 1) ** d,
                                len(lines) - 1, (2 * radius + 1) ** d))

    elif name == "ucp-lattice":
        s = float(p.get("s", 0.5)); h = float(p.get("h", 1.0)); d = int(p.get("d", 1))
        tol = float(p.get("tol", 1e-9))
        X = _parse_points(p.get("X", "0"), d)
        u, cert = global_ucp_counterexample(FracParams(s, h, d), X, tol=tol)
        artifacts.append(_write_artifact(out, "certificate.json", cert.to_json()))
        from .lattice import apply_frac_lattice
        for x, r in zip(X, np.abs(apply_frac_lattice(u, np.array(X))).tolist()):
            checks.append(Check(f"residual_at_{x}", r <= cert.tolerance, r, cert.tolerance))

    elif name == "ucp-torus":
        s = float(p.get("s", 0.5)); N = int(p.get("N", 8))
        tol = float(p.get("tol", 1e-10))
        X = [x[0] for x in _parse_points(p.get("X", "0"), 1)]
        u, cert = torus_ucp_counterexample(N, s, X, tol=tol)
        artifacts.append(_write_artifact(out, "certificate.json", cert.to_json()))
        outv = apply_frac_torus_pointwise(u, s)
        for x in X:
            r = abs(outv.value(x))
            checks.append(Check(f"residual_at_{x}", r <= cert.tolerance, r, cert.tolerance))

    elif name == "slab-1d":
        s = float(p.get("s", 0.5)); h = float(p.get("h", 1.0))
        tol = float(p.get("tol", 1e-10))
        u, V, cert = slab_counterexample_1d(FracParams(s, h, 1), tol=tol)
        artifacts.append(_write_artifact(out, "certificate.json", cert.to_json()))
        artifacts.append(_write_artifact(out, "potential.json", V.to_json()))
        for j, r in cert.details["slab_residuals"].items():
            checks.append(Check(f"residual_at_{j}", abs(r) <= tol, abs(r), tol))

    elif name == "slab-2d":
        s = float(p.get("s", 0.5)); h = float(p.get("h", 1.0))
        radius = int(p.get("trunc_radius", 200))
        j2s = [int(x) for x in str(p.get("j2_samples", "0;1;5;25;100")).split(";")]
        cert = slab_counterexample_2d(FracParams(s, h, 2), j2_samples=j2s,
                                      trunc_radius=radius)
        artifacts.append(_write_artifact(out, "certificate.json", cert.to_json()))
        checks.append(Check("residual_sup", cert.residual_sup <= cert.tolerance,
                            cert.residual_sup, cert.tolerance))
        checks.append(Check("j2_independence",
                            cert.details["j2_spread"] <= 2.0 * cert.tolerance,
                            cert.details["j2_spread"], 2.0 * cert.tolerance))

    elif name == "transference":
        s = float(p.get("s", 0.5)); N = int(p.get("N", 6)); d = int(p.get("d", 1))
        tol = float(p.get("tol", 1e-8)); npairs = int(p.get("pairs", 5))
        rng = np.random.default_rng(config.seed)
        n = 2 * N + 1
        h = 2.0 * math.pi / n
        params = FracParams(s, h, d)
        worst = 0.0
        for _ in range(npairs):
            v = TorusFunction(N, d, rng.standard_normal((n,) * d))
            supp = {tuple(int(c) for c in idx): float(rng.standard_normal())
                    for idx in np.ndindex(*(3,) * d)}
            phi = LatticeFunction(params, {tuple(c - 1 for c in k): val
                                           for k, val in supp.items()})
            worst = max(worst, transference_check(v, phi, tol=tol))
        checks.append(Check("transference_defect", worst <= tol, worst, tol))

    elif name == "extension-trace":
        s = float(p.get("s", 0.5)); N = int(p.get("N", 6))
        rtol = float(p.get("rtol", 1e-4))
        rng = np.random.default_rng(config.seed)
        v = TorusFunction(N, 1, rng.standard_normal(2 * N + 1))
        field_ = cs_extend_torus(v, s, make_t_grid(1e-8, 4.0, 1.05))
        tr = neumann_trace(field_, check_rtol=None)
        ref = apply_frac_torus_spectral(v, s).values * neumann_constant(s)
        err = float(np.abs(tr.values - ref).max() / np.abs(ref).max())
        checks.append(Check("neumann_vs_spectral", err <= rtol, err, rtol))

    elif name == "carleman-commutator":
        h = float(p.get("h", 0.1)); tau = float(p.get("tau", 3.0))
        c0 = float(p.get("c0", 4.0)); d = int(p.get("d", 2))
        tol = float(p.get("tol", 1e-10))
        cfg = CarlemanConfig(c0=c0, tau=tau, h=h)
        rng = np.random.default_rng(config.seed)
        if d == 1:
            v = {(j,): float(rng.standard_normal()) for j in range(-6, 7)}
        else:
            v = {(i, j): float(rng.standard_normal())
                 for i in range(-4, 5) for j in range(-4, 5)}
        lhs, rhs, defect = tangential_commutator_check(cfg, v)
        rel = defect / abs(lhs)
        lines = ["h,tau,c0,lhs,rhs,defect",
                 ",".join(fmt(x) for x in (h, tau, c0, lhs, rhs, defect))]
        artifacts.append(_write_artifact(out, "commutator.csv", "\n".join(lines) + "\n"))
        checks.append(Check("commutator_identity", rel <= tol, rel, tol))

    elif name == "carleman-probe":
        h = float(p.get("h", 0.05)); tau = float(p.get("tau", 8.0))
        c0 = float(p.get("c0", 4.0))
        cfg = CarlemanConfig(c0=c0, tau=tau, h=h)
        R = int(0.7 / h)
        nt = int(0.7 / cfg.dt)
        ax = np.arange(-R, R + 1) * h
        t = np.arange(nt) * cfg.dt
        X, T = np.meshgrid(ax, t, indexing="ij")
        bump = np.where(X ** 2 + T ** 2 < 0.6 ** 2,
                        np.exp(-(X ** 2 + T ** 2) / 0.05) * np.cos(3.0 * X), 0.0)
        lhs, rhs, cval = carleman_probe(cfg, bump, details=True)
        lines = ["h,tau,c0,lhs,rhs,empirical_C",
                 ",".join(fmt(x) for x in (h, tau, c0, lhs, rhs, cval))]
        artifacts.append(_write_artifact(out, "carleman_probe.csv", "\n".join(lines) + "\n"))
        checks.append(Check("empirical_constant_finite",
                            math.isfinite(cval) and cval >= 0.0, cval, math.inf))

    elif name == "boundary-bulk":
        N = int(p.get("N", 31)); r0 = float(p.get("r0", 0.5))
        rng = np.random.default_rng(config.seed)
        n = 2 * N + 1
        h = 2.0 * math.pi / n
        x = np.arange(-N, N + 1) * h
        vals = np.zeros(n)
        for _ in range(4):
            c = rng.uniform(-0.3, 0.3)
            w = rng.uniform(0.08, 0.2)
            vals += rng.standard_normal() * np.exp(-((x - c) / w) ** 2 / 2.0)
        vals[np.abs(x) >= 0.5] = 0.0
        f = TorusFunction(N, 1, vals)
        res = boundary_bulk_probe(f, r0=r0)
        data = res.norms["trace_h1"] + res.norms["trace_dt"]
        lines = ["h,r0,bulk_small,bulk_big,trace_data,fitted_alpha,holds",
                 ",".join(fmt(x) for x in (h, r0, res.norms["bulk_small"],
                                           res.norms["bulk_big"], data,
                                           res.fitted_alpha, res.holds))]
        artifacts.append(_write_artifact(out, "boundary_bulk.csv", "\n".join(lines) + "\n"))
        checks.append(Check("inequality_holds", res.holds, float(res.holds), 1.0))
        checks.append(Check("alpha_in_unit_interval",
                            0.0 < res.fitted_alpha < 1.0, res.fitted_alpha, 1.0))

    elif name == "inverse-sweep":
        N = int(p.get("N", 16))
        W = tuple(int(x) for x in str(p.get("W", "-3;-2;-1;0;1;2")).split(";"))
        Om = tuple(int(x) for x in str(p.get("Omega", "5;6;7;8;9;10;11;12;13")).split(";"))
        trials = int(p.get("trials", 10))
        eps_list = [float(x) for x in
                    str(p.get("eps", "1e-1;1e-2;1e-3;1e-4;1e-5;1e-6")).split(";")]
        setup = InverseSetup(N=N, W=W, Omega=Om, seed=config.seed)
        curve = stability_sweep(setup, eps_list, trials=trials)
        lines = ["eps,error_mean,error_std,data_ratio,lambda_chosen"]
        for (e, err, ratio), st, lam in zip(curve.points, curve.extras["err_std"],
                                            curve.extras["lambda_geomean"]):
            lines.append(",".join(fmt(x) for x in (e, err, st, ratio, lam)))
        artifacts.append(_write_artifact(out, "stability.csv", "\n".join(lines) + "\n"))
        artifacts.append(_write_artifact(out, "stability_summary.json",
                                         curve.to_json(setup)))
        # the singular values of A L^{-1} (P = L'L): the modal staircase the
        # recovery error follows, which caps the log-log fit's R^2
        lines = ["index,sigma"] + [f"{i},{fmt(x)}" for i, x in
                                   enumerate(curve.extras["singular_values"])]
        artifacts.append(_write_artifact(out, "singular_values.csv", "\n".join(lines) + "\n"))
        nerr = noiseless_recovery_error(setup)
        checks.append(Check("noiseless_error", nerr < 1e-3, nerr, 1e-3))
        checks.append(Check("fitted_nu_positive", curve.fitted_nu > 0.0,
                            curve.fitted_nu, 0.0))
        checks.append(Check("log_fit_r2", curve.r_squared >= 0.9,
                            curve.r_squared, 0.9))

    elif name == "self-test":
        return self_test(config)

    wall = time.perf_counter() - t0
    return ExperimentReport(config=config, checks=checks, artifacts=artifacts,
                            wall_time=wall)


def self_test(config=None, corrupt_kernel_constant=False):
    """Fast invariant battery; completes in well under 30 s.

    corrupt_kernel_constant is a fault-injection hook: it perturbs the
    closed-form values fed to the kernel comparison so the corresponding
    check must FAIL.
    """
    if config is None:
        config = ExperimentConfig(experiment="self-test")
    t0 = time.perf_counter()
    checks = []

    worst = 0.0
    for x in np.linspace(0.1, 100.0, 37):
        worst = max(worst, abs(math.exp(log_gamma(x + 1.0) - log_gamma(x)) - x) / x)
    checks.append(Check("gamma_recurrence", worst <= 1e-12, worst, 1e-12))

    worst = 0.0
    for nn in (0, 1, 3, 7, 20):
        for t in (0.5, 2.0, 11.0, 50.0):
            lhs = bessel_i_scaled(nn - 1, t) - bessel_i_scaled(nn + 1, t)
            rhs = (2.0 * nn / t) * bessel_i_scaled(nn, t)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
    checks.append(Check("bessel_recurrence", worst <= 1e-10, worst, 1e-10))

    fault = 1.0 + 1e-6 if corrupt_kernel_constant else 1.0
    worst = 0.0
    pp = FracParams(0.5, 1.0, 1)
    for m in (1, 2, 3, 5, 9):
        q = kernel_nd(pp, [m], tol=1e-9)
        c = kernel_1d(pp, m) * fault
        worst = max(worst, abs(q - c) / c)
    checks.append(Check("kernel_closed_form_vs_quadrature", worst <= 1e-8,
                        worst, 1e-8))

    rng = np.random.default_rng(config.seed)
    v = TorusFunction(6, 1, rng.standard_normal(13))
    a = apply_frac_torus_pointwise(v, 0.5, tol=1e-11)
    b = apply_frac_torus_spectral(v, 0.5)
    defect = float(np.abs(a.values - b.values).max())
    checks.append(Check("pointwise_vs_spectral", defect <= 1e-10, defect, 1e-10))

    cfg = CarlemanConfig(c0=4.0, tau=3.0, h=0.1)
    vdict = {(i, j): float(rng.standard_normal())
             for i in range(-3, 4) for j in range(-3, 4)}
    lhs, rhs, dfct = tangential_commutator_check(cfg, vdict)
    rel = dfct / abs(lhs)
    checks.append(Check("carleman_commutator", rel <= 1e-10, rel, 1e-10))

    n = 9
    h = 2.0 * math.pi / n
    params = FracParams(0.5, h, 1)
    v4 = TorusFunction(4, 1, rng.standard_normal(n))
    phi = LatticeFunction(params, {(k,): float(rng.standard_normal())
                                   for k in range(-2, 3)})
    dfct = transference_check(v4, phi, tol=1e-8)
    checks.append(Check("transference", dfct <= 1e-8, dfct, 1e-8))

    tot = sum(torus_heat_kernel(8, 2.0 * math.pi / 17.0, j, 0.5)
              for j in range(-8, 9))
    checks.append(Check("torus_heat_mass", abs(tot - 1.0) <= 1e-12,
                        abs(tot - 1.0), 1e-12))

    wall = time.perf_counter() - t0
    return ExperimentReport(config=config, checks=checks, artifacts=[],
                            wall_time=wall)
