"""Checks on the package source itself."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
