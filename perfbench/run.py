#!/usr/bin/env python3
"""fraclat benchmark: closed-loop, single-client runs of seeded workloads.

    python3 perfbench/run.py --workload cold-kernels --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  BLAS is
pinned to one thread.  One client issues the next op when the previous one
returns, for ``--seconds`` seconds after set-up; every op is checked
against an independent route and counted as passed or failed.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans around every library call) with
``--trace 1``.  The lines before it give the environment, the failures by
check and exception type, the tail percentile used and other detail.
See perfbench/README.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib.util
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-kernels", "warm-operator", "extension-inverse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import fraclat from this checkout's src/; returns the seconds it took."""
    if not (SRC / "fraclat" / "__init__.py").is_file():
        sys.exit(f"error: no fraclat sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fraclat
    elapsed = time.perf_counter() - t0
    if Path(fraclat.__file__).resolve().parent != (SRC / "fraclat").resolve():
        sys.exit(f"error: imported fraclat from {fraclat.__file__}, not {SRC}")
    return elapsed


def environment():
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, or the pinned setting if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def clear_library_caches():
    """Empty every functools cache in the fraclat modules."""
    for name, module in list(sys.modules.items()):
        if name == "fraclat" or name.startswith("fraclat."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def rss_mb():
    """Resident set size now; the OS page size converts pages to bytes."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def tail_of(times):
    """The highest sample with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond); with too few samples the
    slowest op stands in and ``beyond`` says how many lie above it (0).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    idx = n - 1 - TAIL_BEYOND
    return ordered[idx], 100.0 * (idx + 1) / n, TAIL_BEYOND


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_s = import_library()

    import workloads
    from tracing import Op, Tracer, per_layer_metric_units

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, scratch)
    quiet = Tracer(enabled=False)
    tracer = Tracer(enabled=bool(args.trace))
    tracer.install_warning_hook()

    # set-up: import plus the median of repeated warm-ups from empty caches
    warmups = []
    setup_failures = []
    for _ in range(SETUP_REPEATS):
        clear_library_caches()
        op = Op(quiet, "setup", "setup")
        t0 = time.perf_counter()
        workload.setup(op)
        warmups.append(time.perf_counter() - t0)
        setup_failures.extend(op.failures)
    setup_s = import_s + statistics.median(warmups)

    # RSS is sampled between ops. The transient peak inside an op (reported
    # as ru_maxrss_mb) is set by the largest s a run uses, since the
    # quadrature grids grow like 1/(1-s); memory kept across ops, such as the
    # caches on the warm workloads, is what grows with run length.
    peak_rss = rss_mb()
    times = []
    failures = {}
    failed = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    end = start
    k = 0
    # a run ends on a whole cycle of the workload's fixed op pattern, so
    # every run weighs cheap and expensive ops alike
    while end < deadline or k % workload.cycle:
        if workload.cold:
            clear_library_caches()
        op = Op(tracer, k, f"op.{workload.name}")
        t0 = time.perf_counter()
        workload.op(op, k)
        end = time.perf_counter()
        times.append(end - t0)
        peak_rss = max(peak_rss, rss_mb())
        if not op.finish():
            failed += 1
            for check, exc in op.failures:
                key = f"{check}:{exc}"
                failures[key] = failures.get(key, 0) + 1
        k += 1
    attempted = len(times)
    ops_per_s = attempted / (end - start)

    probes = workloads.fault_probes(lambda name: Op(quiet, name, name))
    known = None
    if workload.cold:
        known = workloads.known_defects(lambda name: Op(quiet, name, name))
    tail, tail_pct, beyond = tail_of(times)

    if args.trace:
        values = tracer.layer_metrics(ops_per_s)
        units = per_layer_metric_units()
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans_path, {"workload": workload.name, "seed": args.seed,
                                  "seconds": args.seconds, "ops": attempted})
    else:
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END_UNITS

    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "client": "closed loop, 1 client",
        "ops": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures_by_check": dict(sorted(failures.items())),
        "op_tail": f"p{tail_pct:.1f} of {attempted} ops, {beyond} samples beyond it",
        "setup": {"import_s": import_s, "warmups_s": warmups,
                  "failures": [f"{c}:{e}" for c, e in setup_failures]},
        "fault_probes_counted_failed": probes,
        "known_defects": known,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if getattr(workload, "r_squared", None):
        r2 = workload.r_squared
        detail["f2_r_squared"] = {"median": statistics.median(r2), "min": min(r2),
                                  "max": max(r2), "clause": ">= 0.9, fails by construction"}
    if args.trace:
        detail["spans"] = str(spans_path.relative_to(ROOT))
        detail["note"] = ("spans are timed from outside the library: a call's busy "
                          "time includes every lower layer it reaches, so layer "
                          "busy times overlap and do not add up")

    print(json.dumps({"env": environment()}, sort_keys=True))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": all(probes.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
