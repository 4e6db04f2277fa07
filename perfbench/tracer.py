"""External per-layer trace: wraps public functions of the package's modules
from outside, records spans in memory and derives per-op counts and self times.

A function is replaced in every module namespace that binds it (a function
imported with `from .problem import eval_bundle` is bound in each importing
module), so calls through any of those names are seen. Self time is a span's
duration minus the time its direct child spans cover. The originals are put
back when the tracer is closed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> functions to wrap. Recursive helpers (expressions.evaluate and
# differentiate) are left out: their cost lands in their callers' self time.
LAYERS: dict[str, tuple[str, ...]] = {
    "problem": ("eval_bundle", "parse_problem"),
    "lower": ("solve_lower", "check_jacobian_uniqueness", "check_assumption_a",
              "recover_multipliers"),
    "value_function": ("value_derivatives",),
    "nonsmooth": ("assemble_a_matrix", "assemble_h_matrix", "enumerate_b_selectors",
                  "clarke_selector_grid"),
    "linalg": ("plu", "solve_linear", "solve_lp"),
    "cones": ("sample_cone",),
    "upper": ("upper_data", "check_mfcq", "upper_kkt_and_polytope",
              "second_order_necessary", "second_order_sufficient",
              "first_order_nonsmooth_necessary"),
    "certify": ("certify", "classify_path"),
    "oracle": ("verify_minimax_definition", "grid_local_maximize"),
    "report": ("report_to_doc", "dumps_canonical", "render_summary"),
    "cli": ("main",),
}

# per-op metrics reported by the traced run, in output order
CALLS = ("problem.eval_bundle", "lower.solve_lower", "nonsmooth.assemble_a_matrix",
         "nonsmooth.assemble_h_matrix", "linalg.plu", "linalg.solve_linear",
         "linalg.solve_lp", "cones.sample_cone", "upper.upper_data",
         "oracle.grid_local_maximize")
SELF_MS = (
    "problem.eval_bundle", "problem.parse_problem",
    "lower.solve_lower", "lower.check_jacobian_uniqueness", "lower.check_assumption_a",
    "lower.recover_multipliers", "value_function.value_derivatives",
    "nonsmooth.assemble_a_matrix", "nonsmooth.assemble_h_matrix",
    "linalg.plu", "linalg.solve_linear", "linalg.solve_lp", "cones.sample_cone",
    "upper.upper_data", "upper.check_mfcq", "upper.upper_kkt_and_polytope",
    "upper.second_order_necessary", "upper.second_order_sufficient",
    "upper.first_order_nonsmooth_necessary", "certify.certify", "certify.classify_path",
    "oracle.verify_minimax_definition", "oracle.grid_local_maximize",
    "report.report_to_doc", "report.dumps_canonical", "report.render_summary", "cli.main",
)
COUNTERS = ("lower.newton_iters", "lower.newton_restarts", "nonsmooth.selectors",
            "linalg.lp_pivots", "cones.directions", "upper.selectors_tried",
            "oracle.grid_points")
RATIOS = ("problem.eval_bundle.distinct_ratio", "upper.selector_hit_ratio")

OP_SPAN = "bench.op"


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_ms": "ms" for name in SELF_MS})
    units.update({f"{module}.self_ms": "ms" for module in LAYERS})
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "ratio" for name in RATIOS})
    units["trace.op_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


class LayerTracer:
    """Context manager: wraps LAYERS in the package `package` while open."""

    def __init__(self, package: str = "minimaxcert"):
        self.package = package
        self.spans: list[list] = []  # [name, op, start, end, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._op = -1
        self._points: set[bytes] = set()

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == self.package
                                           or name.startswith(self.package + "."))]
        for module, functions in LAYERS.items():
            home = sys.modules[f"{self.package}.{module}"]
            for fn in functions:
                name = f"{module}.{fn}"
                original = getattr(home, fn)
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, original):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside an op, e.g. the harness's own checks
                return original(*args, **kwargs)
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._op, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][2] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Run fn() as one op: the root span that every layer span nests in."""
        self._op = op_id
        self._points = set()
        index = self._open(OP_SPAN)
        try:
            return fn()
        finally:
            self._close(index)

    # -- counters taken from results ---------------------------------------

    def _observe_problem_eval_bundle(self, result):
        key = result.x.tobytes() + result.y.tobytes()
        if key not in self._points:
            self._points.add(key)
            self.counters["problem.eval_bundle.distinct"] += 1

    def _observe_lower_solve_lower(self, sol):
        self.counters["lower.newton_iters"] += sol.iterations
        self.counters["lower.newton_restarts"] += bool(sol.notes)

    def _observe_nonsmooth_enumerate_b_selectors(self, selectors):
        self.counters["nonsmooth.selectors"] += len(selectors)

    _observe_nonsmooth_clarke_selector_grid = _observe_nonsmooth_enumerate_b_selectors

    def _observe_linalg_solve_lp(self, lp):
        self.counters["linalg.lp_pivots"] += lp.iterations

    def _observe_cones_sample_cone(self, directions):
        self.counters["cones.directions"] += len(directions)

    def _observe_upper_first_order_nonsmooth_necessary(self, result):
        check, gset = result
        self.counters["upper.selectors_tried"] += len(gset.items) + len(gset.errors)
        self.counters["upper.selectors_admissible"] += check.status == "satisfied"

    def _observe_oracle_grid_local_maximize(self, result):
        self.counters["oracle.grid_points"] += result.total_points

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], int]:
        """Calls and self time (s) per span name, and the number of ops."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s, calls[OP_SPAN]

    def metrics(self) -> dict[str, float]:
        """Per-op values of every metric in metric_units() except the overhead."""
        calls, self_s, ops = self.totals()
        per_op = 1.0 / max(ops, 1)
        out: dict[str, float] = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls[name] * per_op
        for name in SELF_MS:
            out[f"{name}.self_ms"] = 1e3 * self_s[name] * per_op
        for module, functions in LAYERS.items():
            out[f"{module}.self_ms"] = 1e3 * per_op * sum(
                self_s[f"{module}.{fn}"] for fn in functions)
        for name in COUNTERS:
            out[name] = self.counters[name] * per_op
        bundles = calls["problem.eval_bundle"]
        out["problem.eval_bundle.distinct_ratio"] = (
            self.counters["problem.eval_bundle.distinct"] / bundles if bundles else 0.0)
        tried = self.counters["upper.selectors_tried"]
        out["upper.selector_hit_ratio"] = (
            self.counters["upper.selectors_admissible"] / tried if tried else 0.0)
        op_s = sum(end - start for name, _, start, end, _ in self.spans if name == OP_SPAN)
        out["trace.op_ms"] = 1e3 * op_s * per_op
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, op, start_s, end_s, parent."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, op, start, end, parent in self.spans:
                handle.write(json.dumps([name, op, start - t0, end - t0, parent]) + "\n")
