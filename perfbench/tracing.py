"""Spans around the benchmark's calls into fraclat, and op accounting.

Every public call an op makes goes through :meth:`Op.call`.  With tracing
off that is a plain call.  With tracing on it records a span (name, start,
end, parent, op id, exception type, RuntimeWarnings raised inside it) in
memory; :meth:`Tracer.write` dumps them when the run ends.

A span is measured from outside the library, so it includes the time of
every lower layer the call reaches (``slab_counterexample_2d`` builds its own
kernel table, ``harness.run`` applies the operator).  Layer busy times are
therefore not additive across layers.
"""

import json
import time
import warnings

# Layers in call order, and the public functions of each that the benchmark
# calls.  torus_kernel_table is split by route.
FUNCTIONS = {
    "specfun": ("log_gamma", "gamma_ratio", "bessel_i_scaled", "bessel_k"),
    "kernel": ("kernel_1d", "kernel_nd", "kernel_nd_bound", "kernel_lattice_mass",
               "torus_kernel_table.series", "torus_kernel_table.heat"),
    "lattice": ("apply_frac_torus_pointwise", "apply_frac_torus_spectral",
                "transference_check"),
    "counterexamples": ("global_ucp_counterexample", "slab_counterexample_1d",
                        "slab_counterexample_2d", "torus_ucp_counterexample"),
    "extension": ("boundary_bulk_probe", "cs_extend_torus", "neumann_trace",
                  "neumann_constant", "tangential_commutator_check"),
    "inverse": ("stability_sweep", "noiseless_recovery_error"),
    "harness": ("run",),
}


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in a fixed order.

    Busy times are seconds per op (mean over the run's ops); calls, errors
    and warnings are totals over the run.
    """
    units = {}
    for layer, funcs in FUNCTIONS.items():
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.errors"] = "count"
        units[f"{layer}.warnings"] = "count"
        for func in funcs:
            units[f"{layer}.{func}.busy_s"] = "s"
            units[f"{layer}.{func}.calls"] = "count"
    units["bench.self_s"] = "s"
    units["trace.ops"] = "count"
    units["trace.ops_per_s"] = "1/s"
    return units


class CheckFailed(Exception):
    """A check compared two routes and they disagreed beyond its tolerance."""


class Tracer:
    """In-memory span log; ``enabled=False`` makes every hook a no-op."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._next_id = 0

    def install_warning_hook(self):
        """Count RuntimeWarnings against the innermost open span.

        With tracing off, RuntimeWarnings are silenced instead, so the
        untraced run pays for neither recording nor printing them.
        """
        if not self.enabled:
            warnings.simplefilter("ignore", RuntimeWarning)
            return
        warnings.simplefilter("always", RuntimeWarning)
        previous = warnings.showwarning

        def hook(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, RuntimeWarning) and self._stack:
                self._stack[-1]["warnings"] += 1
                return
            previous(message, category, filename, lineno, file, line)

        warnings.showwarning = hook

    def open(self, name, op_id):
        if not self.enabled:
            return None
        span = {"id": self._next_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "op": op_id, "name": name, "start": time.perf_counter(),
                "end": None, "error": None, "warnings": 0}
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span, error=None):
        if span is None:
            return
        span["end"] = time.perf_counter()
        span["error"] = error
        self._stack.pop()
        self.spans.append(span)

    def write(self, path, header):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"header": header, "spans": self.spans}))

    def layer_metrics(self, ops_per_s):
        """Per-function and per-layer busy time, calls, errors, warnings.

        An op's own span has no parent; the benchmark's self time is the
        part of it that no library call covers.
        """
        values = {name: 0.0 if unit == "s" else 0
                  for name, unit in per_layer_metric_units().items()}
        covered = {}
        ops = [span for span in self.spans if span["parent"] is None]
        for span in self.spans:
            if span["parent"] is None:
                continue
            dur = span["end"] - span["start"]
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + dur
            layer = span["name"].split(".", 1)[0]
            values[f"{span['name']}.busy_s"] += dur
            values[f"{span['name']}.calls"] += 1
            values[f"{layer}.busy_s"] += dur
            values[f"{layer}.warnings"] += span["warnings"]
            if span["error"] is not None:
                values[f"{layer}.errors"] += 1
        for span in ops:
            values["bench.self_s"] += span["end"] - span["start"] - covered.get(span["id"], 0.0)
        for name, unit in per_layer_metric_units().items():
            if unit == "s":
                values[name] /= len(ops)
        values["trace.ops"] = len(ops)
        values["trace.ops_per_s"] = ops_per_s
        return values


class Op:
    """One closed-loop operation: its traced calls and its named checks.

    An op fails when any of its checks raises or reports a mismatch; each
    failure is kept as ``(check name, exception type)``.
    """

    def __init__(self, tracer, op_id, name):
        self.tracer = tracer
        self.op_id = op_id
        self.failures = []
        self._span = tracer.open(name, op_id)

    def call(self, span_name, fn, *args, **kwargs):
        span = self.tracer.open(span_name, self.op_id)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.tracer.close(span, type(exc).__name__)
            raise
        self.tracer.close(span)
        return result

    def check(self, name, fn, *args):
        """Run one check; ``fn`` raises CheckFailed (or any library error)."""
        try:
            fn(self, *args)
        except Exception as exc:
            self.failures.append((name, type(exc).__name__))

    def finish(self):
        self.tracer.close(self._span)
        return not self.failures


def expect(condition, message):
    """Raise CheckFailed unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)
