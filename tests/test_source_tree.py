"""Checks on the package source itself."""

import ast
import inspect
import re
from pathlib import Path

import fraclat
from fraclat import extension

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def _hits(pattern, files="**/*.py"):
    banned = re.compile(pattern)
    return [f"{path.relative_to(SRC)}:{no}"
            for path in sorted(SRC.glob(files))
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]


def test_single_numpy_scipy_path():
    # one NumPy/SciPy code path: no JIT layer, decorator or switch between two
    assert _hits(r"numba|njit|FRACLAT_NUMBA|JIT_ENABLED") == []


def test_single_kernel_quadrature():
    # one shared-grid evaluator: no per-offset adaptive path or budget knob
    assert _hits(r"\b_adaptive\b|\b_gk15\b|_kernel_nd_impl|\bbudget=") == []


def test_lattice_has_no_index_loops():
    # the operator sums in lattice.py and the half-ball norms in extension.py
    # are array gathers and contractions
    for files in ("fraclat/lattice.py", "fraclat/extension.py"):
        assert _hits(r"np\.ndindex", files) == []


def test_modified_bessel_only_in_specfun():
    # one Bessel-row path serves every kernel: scipy's modified Bessel
    # functions of the first kind are called in specfun.py alone
    hits = _hits(r"\b(ive|iv|i0e|i1e)\b")
    assert [h for h in hits if not h.startswith("fraclat/specfun.py:")] == []


def test_one_residue_class_series_build():
    # the series torus table sums every residue class in one array build:
    # no per-offset series search or per-residue tail sum
    assert _hits(r"_torus_kernel_series_1d|_arith_tail_sum") == []


def test_heat_tables_on_the_shared_grid():
    # heat-route torus tables integrate on the shared [t0, T] grid for every
    # s in (0,1): no deep left panels down to -700/s and no heat s-range
    assert _hits(r"700\.0 / s|heat-route torus tables support s", "fraclat/kernel.py") == []


def test_step_profiles_and_slab_2d_by_kernel_reduction():
    # step profiles in every d and the slab-2d certificate use the exact
    # one-dimensional tails: no truncated table in lattice.py, no ell^1
    # appendix tail in either, and the old loop machinery is gone
    assert _hits(r"build_kernel_table|kernel_tail_bound_ell1", "fraclat/lattice.py") == []
    assert _hits(r"kernel_tail_bound_ell1", "fraclat/counterexamples.py") == []
    assert _hits(r"_tail_bound_ell1_cached|_tail_constant") == []


def test_carleman_block_as_stencils():
    # the tangential conjugates, their identities and the probe are array
    # code on a padded box: no dict lookups or scalar hyperbolic loops
    assert _hits(r"\.get\(|math\.cosh|math\.sinh|_zero_wrap", "fraclat/extension.py") == []


def test_experiments_as_one_table():
    # each experiment is one function in one dict, its keyword defaults its
    # parameter schema: no dispatch chain on the name, no hand-read keys
    assert _hits(r"elif name ==|p\.get\(", "fraclat/harness.py") == []


def test_one_tikhonov_solver():
    # the library solves Tikhonov problems in standard form alone; the
    # augmented least-squares solve is the tests' oracle (tests/oracles.py)
    assert _hits(r"recover_tikhonov|lstsq|method=\"normal\"") == []


def _identifiers(path):
    """(identifier, top-level definition it sits in, or None) for every Name,
    Attribute, definition, parameter and keyword argument of a file; text in
    docstrings and comments is no identifier."""
    out = set()
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "arg", None)
                    or (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None))
            if name:
                out.add((name, owner))
    return out


def test_public_surface_is_what_runs():
    # every exported name is used by the library outside its own definition
    # or called by the benchmark
    init = SRC / "fraclat" / "__init__.py"
    exported = {alias.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {name for path in (SRC / "fraclat").glob("*.py") if path != init
            for name, owner in _identifiers(path) if name != owner}
    used |= {name for path in PERFBENCH.glob("*.py") for name, _ in _identifiers(path)}
    waiting = {
        "stability_bound",  # O17: the mesh sweep's joint fit calls it, or it goes
        "continuum_regime",  # O17: the mesh sweep reports it per mesh, or it goes
        "kernel_tail_bound_ell1",  # O5: the d <= 3 appendix-bound certificate
    }
    assert exported - used == waiting


def test_removed_names_and_options_stay_out():
    # the test-only names and the options that only one value used
    removed = {"symbol", "sobolev_norm", "_sobolev_sq_grid", "repeat", "RepeatedTorusFunction",
               "torus_index", "torus_kernel", "kernel_tail_sum_1d", "heat_kernel", "dft", "idft",
               "extension_profile", "carleman_weight", "tangential_conjugates",
               "conjugated_laplacian_defect", "_half_ball_norms", "discrepancy_lambda",
               "bessel_i_scaled_row", "_transference_direct_1d", "direct_radius", "ktol",
               "big_c", "t_step", "tau0", "delta0", "empty_ok"}
    present = {name for path in SRC.glob("**/*.py") for name, _ in _identifiers(path)}
    assert removed & present == set()
    for fn, options in ((fraclat.apply_frac_torus_pointwise, {"method"}),
                        (fraclat.transference_check, {"method"}),
                        (fraclat.carleman_probe, {"details"})):
        assert options & set(inspect.signature(fn).parameters) == set()
    assert set(inspect.signature(fraclat.CarlemanConfig).parameters) == {"c0", "tau", "h"}
    assert set(inspect.signature(extension._support_box).parameters) == {"v"}


def test_pointwise_torus_route_has_no_fft():
    # the pointwise route is a direct kernel sum, independent of the spectral
    # route's FFT; docstrings may say so, the code may not call one
    from fraclat import lattice

    for fn in (lattice._apply_pointwise, lattice.apply_frac_torus_pointwise):
        tree = ast.parse(inspect.getsource(fn))
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(tree)}
        assert {name for name in names if name and "fft" in name.lower()} == set()
        assert "_apply_even" not in names and "_spectral_symbol" not in names
