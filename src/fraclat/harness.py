"""Experiment orchestration: validated configs, the experiment table,
artifacts, reports.

Every experiment is one function ``fn(config, **params)`` in
``_EXPERIMENTS`` whose keyword defaults are its parameter schema.  It runs
one of the library's constructions or probes, writes CSV/JSON artifacts
with a content hash manifest, and returns (checks, artifacts): one
PASS/FAIL line per check.
Floating output uses round-trip (shortest exact) decimal formatting so that
artifacts are stable golden files.
"""

import hashlib
import inspect
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernel import (
    FracParams,
    ToleranceError,
    build_kernel_table,
    kernel_1d,
    kernel_nd,
    torus_heat_kernel,
)
from .lattice import (
    LatticeFunction,
    TorusFunction,
    apply_frac_lattice,
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


def _validate(params):
    # range checks on the named fields, wherever an experiment takes them
    ranges = {"s": (lambda v: 0.0 < v < 1.0, "must lie in (0,1)"),
              "h": (lambda v: v > 0.0, "must be positive"),
              "d": (lambda v: v >= 1, "must be a positive integer"),
              "N": (lambda v: v >= 1, "must be a positive integer"),
              "pairs": (lambda v: v >= 1, "must be a positive integer")}
    errors = [f"{key}: {msg}, got {params[key]}"
              for key, (ok, msg) in ranges.items() if key in params and not ok(params[key])]
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))


def _bind(config):
    """The experiment's function and its keyword arguments: each value takes
    the type of its key's default (list-valued keys have str defaults), a
    key without a default is required, and an unknown key is an error."""
    fn = _EXPERIMENTS.get(config.experiment)
    if fn is None:
        raise ValueError(f"invalid config: experiment: unknown name {config.experiment!r}")
    schema = dict(inspect.signature(fn).parameters)
    del schema["config"]
    unknown = [key for key in config.params if key not in schema]
    if unknown:
        raise ValueError(f"invalid config: unknown key {', '.join(map(repr, unknown))} for "
                         f"{config.experiment} (keys: {', '.join(schema) or 'none'})")
    params = {}
    for key, par in schema.items():
        if key in config.params:
            value = config.params[key]
            if isinstance(par.default, int) and isinstance(value, float) and not value.is_integer():
                raise ValueError(f"invalid config: {key}: must be an integer, got {value}")
            try:
                params[key] = value if par.default is par.empty else type(par.default)(value)
            except ValueError as exc:
                raise ValueError(f"invalid config: {key}: {exc}") from None
        elif par.default is par.empty:
            raise ValueError(f"invalid config: {key}: required by {config.experiment}")
    _validate(params)
    return fn, params


def _write_artifact(outdir, name, text):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    with open(outdir / "manifest.txt", "a") as f:
        f.write(f"{digest}  {name}\n")
    return {"path": str(path), "sha256": digest}


def _write_csv(out, name, header, rows):
    lines = [header] + [",".join(fmt(x) for x in row) for row in rows]
    return _write_artifact(out, name, "\n".join(lines) + "\n")


def _box(radius, d):
    """The (2r+1)^d lattice box, one point per row, in lexicographic order."""
    return np.indices((2 * radius + 1,) * d).reshape(d, -1).T - radius


def _write_box(out, name, coord, radius, pts, columns):
    """One CSV row per box point: coordinates coord_1..coord_d, then the
    named columns (arrays the library returned, in the box's order); returns
    the artifact and the check that each column has (2 radius + 1)^d values."""
    header = ",".join([f"{coord}_{i + 1}" for i in range(pts.shape[1])] + list(columns))
    cols = zip(*(np.ravel(c).tolist() for c in columns.values()))
    rows = [j + list(vals) for j, vals in zip(pts.tolist(), cols)]
    want, sizes = (2 * radius + 1) ** pts.shape[1], {np.size(c) for c in columns.values()}
    return (_write_csv(out, name, header, rows),
            Check("row_count", sizes == {want}, min(sizes), want))


def _parse_points(text):
    """Parse '0;1,2;-3,4' into a list of d-tuples, d read from the first point."""
    pts = [tuple(int(c) for c in tok.split(",")) for tok in text.split(";") if tok.strip()]
    if not pts:
        raise ValueError("X holds no points")
    for p in pts:
        if len(p) != len(pts[0]):
            raise ValueError(f"point {p} is not {len(pts[0])}-dimensional")
    return pts


def _split(text, cast=int):
    """Parse '1;2;3' into a list."""
    return [cast(x) for x in text.split(";")]


def run(config):
    """Bind the parameters, run the experiment, and report."""
    fn, params = _bind(config)
    t0 = time.perf_counter()
    checks, artifacts = fn(config, **params)
    return ExperimentReport(config=config, checks=checks, artifacts=artifacts,
                            wall_time=time.perf_counter() - t0)


def _kernel_dump(config, s=0.5, h=1.0, d=1, radius=10):
    params = FracParams(s, h, d)
    table = build_kernel_table(params, radius)
    art, rows = _write_box(config.output_dir, "kernel.csv", "m", radius, _box(radius, d),
                           {"value": table.values, "abs_err_est": table.err})
    checks = [rows]
    if d == 1:
        v1 = table.value(1)
        ref = kernel_1d(params, 1)
        checks.append(Check("closed_form_m1", abs(v1 - ref) <= 1e-13 * ref,
                            abs(v1 - ref), 1e-13 * ref))
    return checks, [art]


def _apply(config, file, s=0.5, radius=10):
    doc = json.loads(Path(file).read_text())
    if "values" in doc:
        v = TorusFunction.from_json(doc)
        spec_out = apply_frac_torus_spectral(v, s)
        pw = apply_frac_torus_pointwise(v, s, tol=1e-10)
        defect = float(np.abs(pw.values - spec_out.values).max())
        return ([Check("pointwise_vs_spectral", defect <= 1e-9, defect, 1e-9)],
                [_write_artifact(config.output_dir, "applied.json", spec_out.to_json())])
    u = LatticeFunction.from_json(doc)
    pts = _box(radius, u.params.d)  # the whole box in one operator call
    art, rows = _write_box(config.output_dir, "applied.csv", "j", radius, pts,
                           {"value": apply_frac_lattice(u, pts)})
    return [rows], [art]


def _ucp_lattice(config, s=0.5, h=1.0, tol=1e-9, X="0"):
    X = _parse_points(X)
    _, cert = global_ucp_counterexample(FracParams(s, h, len(X[0])), X, tol=tol)
    return ([Check(f"residual_at_{x}", r <= cert.tolerance, r, cert.tolerance)
             for x, r in zip(X, cert.details["residuals"])],
            [_write_artifact(config.output_dir, "certificate.json", cert.to_json())])


def _ucp_torus(config, s=0.5, N=8, tol=1e-10, X="0"):
    _, cert = torus_ucp_counterexample(N, s, _parse_points(X), tol=tol)
    # the certificate's X is sorted and merged: ints in d = 1, lists otherwise
    return ([Check(f"residual_at_{x if isinstance(x, int) else tuple(x)}",
                   r <= cert.tolerance, r, cert.tolerance)
             for x, r in zip(cert.parameters["X"], cert.details["residuals"])],
            [_write_artifact(config.output_dir, "certificate.json", cert.to_json())])


def _slab_1d(config, s=0.5, h=1.0, tol=1e-10):
    _, V, cert = slab_counterexample_1d(FracParams(s, h, 1), tol=tol)
    return ([Check(f"residual_at_{j}", abs(r) <= tol, abs(r), tol)
             for j, r in cert.details["slab_residuals"].items()],
            [_write_artifact(config.output_dir, "certificate.json", cert.to_json()),
             _write_artifact(config.output_dir, "potential.json", V.to_json())])


def _slab_2d(config, s=0.5, h=1.0, trunc_radius=200, j2_samples="0;1;5;25;100"):
    cert = slab_counterexample_2d(FracParams(s, h, 2), j2_samples=_split(j2_samples),
                                  trunc_radius=trunc_radius)
    spread = cert.details["j2_spread"]
    return ([Check("residual_sup", cert.residual_sup <= cert.tolerance,
                   cert.residual_sup, cert.tolerance),
             Check("j2_independence", spread <= 2.0 * cert.tolerance,
                   spread, 2.0 * cert.tolerance)],
            [_write_artifact(config.output_dir, "certificate.json", cert.to_json())])


def _transference_defect(v, phi, tol):
    """The transference defect, also when transference_check raises for it:
    the achieved defect of a ToleranceError becomes a FAIL line, not a
    traceback."""
    try:
        return transference_check(v, phi, tol=tol)
    except ToleranceError as exc:
        if exc.achieved is None:
            raise
        return exc.achieved


def _transference(config, s=0.5, N=6, d=1, tol=1e-8, pairs=5):
    rng = np.random.default_rng(config.seed)
    n = 2 * N + 1
    params = FracParams(s, 2.0 * math.pi / n, d)
    worst = 0.0
    for _ in range(pairs):
        v = TorusFunction(N, d, rng.standard_normal((n,) * d))
        phi = LatticeFunction(params, {tuple(int(c) - 1 for c in idx): float(rng.standard_normal())
                                       for idx in np.ndindex(*(3,) * d)})
        worst = max(worst, _transference_defect(v, phi, tol))
    return [Check("transference_defect", worst <= tol, worst, tol)], []


def _extension_trace(config, s=0.5, N=6, rtol=1e-4):
    rng = np.random.default_rng(config.seed)
    v = TorusFunction(N, 1, rng.standard_normal(2 * N + 1))
    field_ = cs_extend_torus(v, s, make_t_grid(1e-8, 4.0, 1.05))
    tr = neumann_trace(field_, check_rtol=None)
    ref = apply_frac_torus_spectral(v, s).values * neumann_constant(s)
    err = float(np.abs(tr.values - ref).max() / np.abs(ref).max())
    return [Check("neumann_vs_spectral", err <= rtol, err, rtol)], []


def _carleman_commutator(config, h=0.1, tau=3.0, c0=4.0, d=2, tol=1e-10):
    cfg = CarlemanConfig(c0=c0, tau=tau, h=h)
    rng = np.random.default_rng(config.seed)
    half = 6 if d == 1 else 4
    v = {tuple(int(c) - half for c in idx): float(rng.standard_normal())
         for idx in np.ndindex(*(2 * half + 1,) * d)}
    lhs, rhs, defect = tangential_commutator_check(cfg, v)
    rel = defect / abs(lhs)
    return ([Check("commutator_identity", rel <= tol, rel, tol)],
            [_write_csv(config.output_dir, "commutator.csv", "h,tau,c0,lhs,rhs,defect",
                        [(h, tau, c0, lhs, rhs, defect)])])


def _carleman_probe(config, h=0.05, tau=8.0, c0=4.0):
    cfg = CarlemanConfig(c0=c0, tau=tau, h=h)
    R = int(0.7 / h)
    nt = int(0.7 / cfg.dt)
    ax = np.arange(-R, R + 1) * h
    t = np.arange(nt) * cfg.dt
    X, T = np.meshgrid(ax, t, indexing="ij")
    bump = np.where(X ** 2 + T ** 2 < 0.6 ** 2,
                    np.exp(-(X ** 2 + T ** 2) / 0.05) * np.cos(3.0 * X), 0.0)
    lhs, rhs, cval = carleman_probe(cfg, bump)
    return ([Check("empirical_constant_finite", math.isfinite(cval) and cval >= 0.0,
                   cval, math.inf)],
            [_write_csv(config.output_dir, "carleman_probe.csv",
                        "h,tau,c0,lhs,rhs,empirical_C", [(h, tau, c0, lhs, rhs, cval)])])


def _boundary_bulk(config, N=31, r0=0.5):
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
    res = boundary_bulk_probe(TorusFunction(N, 1, vals), r0=r0)
    nm = res.norms
    row = (h, r0, nm["bulk_small"], nm["bulk_big"], nm["trace_h1"] + nm["trace_dt"],
           res.fitted_alpha, res.holds)
    return ([Check("inequality_holds", res.holds, float(res.holds), 1.0),
             Check("alpha_in_unit_interval", 0.0 < res.fitted_alpha < 1.0,
                   res.fitted_alpha, 1.0)],
            [_write_csv(config.output_dir, "boundary_bulk.csv",
                        "h,r0,bulk_small,bulk_big,trace_data,fitted_alpha,holds", [row])])


def _inverse_sweep(config, N=16, W="-3;-2;-1;0;1;2", Omega="5;6;7;8;9;10;11;12;13",
                   trials=10, eps="1e-1;1e-2;1e-3;1e-4;1e-5;1e-6"):
    out = config.output_dir
    setup = InverseSetup(N=N, W=tuple(_split(W)), Omega=tuple(_split(Omega)),
                         seed=config.seed)
    curve = stability_sweep(setup, _split(eps, float), trials=trials)
    ex = curve.extras
    rows = [(e, err, st, ratio, lam) for (e, err, ratio), st, lam
            in zip(curve.points, ex["err_std"], ex["lambda_geomean"])]
    artifacts = [
        _write_csv(out, "stability.csv", "eps,error_mean,error_std,data_ratio,lambda_chosen",
                   rows),
        _write_artifact(out, "stability_summary.json", curve.to_json(setup)),
        # the singular values of A L^{-1} (P = L'L): the modal staircase the
        # recovery error follows, which caps the log-log fit's R^2
        _write_csv(out, "singular_values.csv", "index,sigma",
                   enumerate(ex["singular_values"])),
    ]
    nerr = noiseless_recovery_error(setup)
    return ([Check("noiseless_error", nerr < 1e-3, nerr, 1e-3),
             Check("fitted_nu_positive", curve.fitted_nu > 0.0, curve.fitted_nu, 0.0),
             Check("log_fit_r2", curve.r_squared >= 0.9, curve.r_squared, 0.9)],
            artifacts)


def self_test(config=None, corrupt_kernel_constant=False):
    """Fast invariant battery; completes in well under 30 s.

    corrupt_kernel_constant is a fault-injection hook: it perturbs the
    closed-form values fed to the kernel comparison so the corresponding
    check must FAIL.
    """
    config = config or ExperimentConfig(experiment="self-test")
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
    dfct = _transference_defect(v4, phi, 1e-8)
    checks.append(Check("transference", dfct <= 1e-8, dfct, 1e-8))

    tot = sum(torus_heat_kernel(8, 2.0 * math.pi / 17.0, j, 0.5)
              for j in range(-8, 9))
    checks.append(Check("torus_heat_mass", abs(tot - 1.0) <= 1e-12,
                        abs(tot - 1.0), 1e-12))

    return ExperimentReport(config=config, checks=checks, artifacts=[],
                            wall_time=time.perf_counter() - t0)


_EXPERIMENTS = {
    "kernel-dump": _kernel_dump,
    "apply": _apply,
    "ucp-lattice": _ucp_lattice,
    "ucp-torus": _ucp_torus,
    "slab-1d": _slab_1d,
    "slab-2d": _slab_2d,
    "transference": _transference,
    "extension-trace": _extension_trace,
    "carleman-commutator": _carleman_commutator,
    "carleman-probe": _carleman_probe,
    "boundary-bulk": _boundary_bulk,
    "inverse-sweep": _inverse_sweep,
    "self-test": lambda config: (self_test(config).checks, []),
}
EXPERIMENTS = tuple(_EXPERIMENTS)
