"""Per-layer spans recorded from outside the library.

While a ``Tracer`` is installed, the public functions of each sinrcap layer
are replaced at module-attribute level by wrappers that record one span
(name, start, end, parent) per call.  Modules import each other's
functions by name (``admission`` and ``greedy`` hold their own references
to ``sample_round`` and ``signal_strengthen``), so every sinrcap module
namespace holding a wrapped function is patched, not only the defining
one.  Source files are not touched.  A function missing from the library
is skipped, so the tracer keeps working when a layer drops one.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

MIB = float(1 << 20)


def _lp_shape(result):
    lp = result[1] if isinstance(result, tuple) else result  # large-opt returns (ids, lp)
    a = lp.row_coeffs
    nnz = a.nnz if hasattr(a, "nnz") else int(np.count_nonzero(a))
    return {"rows": int(lp.m), "cols": int(lp.n), "nnz": int(nnz)}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (module, function, counts recorded at the boundary or None)
TRACED = [
    ("model", "read_instance", None),
    ("affectance", "check_feasibility", None),
    ("affectance", "certify", None),
    ("formulations", "build_capacity_lp", lambda a, k, r: _lp_shape(r)),
    ("formulations", "build_qos_lp", lambda a, k, r: _lp_shape(r)),
    ("formulations", "build_weighted_lp", lambda a, k, r: _lp_shape(r)),
    ("formulations", "build_admission_lp", lambda a, k, r: _lp_shape(r)),
    ("formulations", "build_admission_large_lp", lambda a, k, r: _lp_shape(r)),
    ("lp_core", "solve_lp", lambda a, k, r: {"objective": float(r.objective)}),
    ("rounding", "run_pipeline", None),
    ("rounding", "sample_round", lambda a, k, r: {"survivors": len(r)}),
    ("rounding", "extract_low_affectance",
     lambda a, k, r: {"in": len(_arg(a, k, 1, "S")), "kept": len(r)}),
    ("rounding", "signal_strengthen",
     lambda a, k, r: {"in": len(_arg(a, k, 1, "S")),
                      "best": max((len(p) for p in r), default=0)}),
    ("rounding", "best_part", None),
    ("greedy", "greedy_base", None),
    ("greedy", "greedy_weight_classes", None),
    ("greedy", "greedy_length_classes", None),
    ("greedy", "greedy_combined", None),
    ("admission", "admit_general", None),
    ("admission", "admit_large_opt",
     lambda a, k, r: {"successes": int(r.notes.get("successful_samples", 0))}),
    ("admission", "partition_by_primaries", None),
    ("admission", "verify_admission", None),
    ("admission", "sparsify", None),
    ("oracle", "exact_capacity", lambda a, k, r: {"subsets": 2 ** a[0].n}),
    ("oracle", "exact_admission", lambda a, k, r: {"subsets": 2 ** a[0].n}),
    ("oracle", "largest_bifeasible", lambda a, k, r: {"subsets": 2 ** a[0].n}),
    ("harness", "generate_instance", None),
    ("harness", "run_compare", None),
    ("harness", "run_oracle_suite", None),
    ("cli", "main", None),
]

CONTEXT_SPAN = "affectance.AffectanceContext"
ACCOUNTING_SPAN = "trace.accounting"  # the tracer's own counting, excluded

# span name -> per-layer self-time metric; any other span of a layer
# counts towards "<layer>.self_s"
SELF_TIME_METRIC = {
    "model.read_instance": "model.read_s",
    CONTEXT_SPAN: "affectance.context_s",
    "affectance.check_feasibility": "affectance.check_s",
    "affectance.certify": "affectance.check_s",
    "lp_core.solve_lp": "lp_core.solve_s",
    "rounding.sample_round": "rounding.sample_s",
    "rounding.extract_low_affectance": "rounding.extract_s",
    "rounding.signal_strengthen": "rounding.strengthen_s",
    "rounding.run_pipeline": "rounding.pipeline_self_s",
    "rounding.best_part": "rounding.pipeline_self_s",
    "admission.partition_by_primaries": "admission.partition_s",
    "admission.verify_admission": "admission.verify_s",
    "oracle.exact_capacity": "oracle.enumerate_s",
    "oracle.exact_admission": "oracle.enumerate_s",
    "oracle.largest_bifeasible": "oracle.enumerate_s",
}
for _mod, _fn, _ in TRACED:
    if _mod == "formulations":
        SELF_TIME_METRIC[f"{_mod}.{_fn}"] = "formulations.build_s"

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "lp_core.solve_s": ("s", "lower"),
    "lp_core.solves": ("count", "lower"),
    "lp_core.objective_total": ("objective", "higher"),
    "formulations.build_s": ("s", "lower"),
    "formulations.rows": ("count", "lower"),
    "formulations.cols": ("count", "lower"),
    "formulations.nnz": ("count", "lower"),
    "rounding.sample_s": ("s", "lower"),
    "rounding.sample_calls": ("count", "lower"),
    "rounding.survivors_mean": ("count", "higher"),
    "rounding.extract_s": ("s", "lower"),
    "rounding.extract_keep_ratio": ("ratio", "higher"),
    "rounding.strengthen_s": ("s", "lower"),
    "rounding.strengthen_calls": ("count", "lower"),
    "rounding.best_part_ratio": ("ratio", "higher"),
    "rounding.pipeline_self_s": ("s", "lower"),
    "affectance.context_s": ("s", "lower"),
    "affectance.check_s": ("s", "lower"),
    "affectance.context_mib": ("MiB", "lower"),
    "greedy.self_s": ("s", "lower"),
    "greedy.calls": ("count", "lower"),
    "greedy.value_total": ("objective", "higher"),
    "admission.self_s": ("s", "lower"),
    "admission.partition_s": ("s", "lower"),
    "admission.verify_s": ("s", "lower"),
    "admission.sample_accept_ratio": ("ratio", "higher"),
    "oracle.enumerate_s": ("s", "lower"),
    "oracle.subsets_per_s": ("1/s", "higher"),
    "model.read_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def sinrcap_modules() -> dict:
    """Loaded sinrcap modules by short name; "" is the package itself."""
    return {name[len("sinrcap."):]: mod for name, mod in list(sys.modules.items())
            if name == "sinrcap" or name.startswith("sinrcap.")}


def patch(replace: dict) -> list:
    """Point every sinrcap module attribute that holds a key of ``replace``
    at its value; returns what ``restore`` needs to undo it."""
    by_id = {id(k): (k, v) for k, v in replace.items()}
    patched = []
    for mod in sinrcap_modules().values():
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    return patched


def restore(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
    patched.clear()


class Tracer:
    """Spans of one traced iteration.  ``install`` patches, ``uninstall``
    restores every patched attribute."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, counts or None]
        self.contexts = []   # contexts built while installed, sized at the end
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    def _wrap(self, name, fn, counts=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None or on_result is not None:
                # counted under the caller, as a span the metrics skip
                t0 = clock()
                if counts is not None:
                    span[4] = counts(args, kwargs, result)
                if on_result is not None:
                    on_result(args)
                spans.append([ACCOUNTING_SPAN, t0, clock(), parent, None])
            return result

        return wrapper

    def install(self):
        modules = sinrcap_modules()
        replace = {}
        for mod_name, fn_name, counts in TRACED:
            fn = getattr(modules.get(mod_name), fn_name, None)
            if fn is not None:
                replace[fn] = self._wrap(f"{mod_name}.{fn_name}", fn, counts)
        self._patched = patch(replace)
        cls = modules["affectance"].AffectanceContext
        init = cls.__init__
        cls.__init__ = self._wrap(CONTEXT_SPAN, init,
                                  on_result=lambda args: self.contexts.append(args[0]))
        self._patched.append((cls, "__init__", init))

    def uninstall(self):
        restore(self._patched)

    def metrics(self, wall: float, greedy_value: float) -> dict:
        """Per-layer metrics of this iteration; ``wall`` is its wall time."""
        out = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_frac"}
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        top = 0.0
        attempts = {}  # admit_large_opt span -> sample_round calls under it
        large_opt = set()
        totals = {"survivors": 0, "ext_in": 0, "ext_kept": 0, "str_in": 0,
                  "str_best": 0, "successes": 0, "subsets": 0}
        for i, (name, t0, t1, parent, counts) in enumerate(self.spans):
            if name == ACCOUNTING_SPAN:
                continue
            if parent < 0:
                top += t1 - t0
            layer = name.split(".")[0]
            metric = SELF_TIME_METRIC.get(name, f"{layer}.self_s")
            out[metric] += (t1 - t0) - child[i]
            out["trace.spans"] += 1
            counts = counts or {}
            if name == "lp_core.solve_lp":
                out["lp_core.solves"] += 1
                out["lp_core.objective_total"] += counts["objective"]
            elif layer == "formulations":
                for key in ("rows", "cols", "nnz"):
                    out[f"formulations.{key}"] += counts[key]
            elif name == "rounding.sample_round":
                out["rounding.sample_calls"] += 1
                totals["survivors"] += counts["survivors"]
                a = parent
                while a >= 0 and a not in large_opt:
                    a = self.spans[a][3]
                if a >= 0:
                    attempts[a] = attempts.get(a, 0) + 1
            elif name == "rounding.extract_low_affectance":
                totals["ext_in"] += counts["in"]
                totals["ext_kept"] += counts["kept"]
            elif name == "rounding.signal_strengthen":
                out["rounding.strengthen_calls"] += 1
                totals["str_in"] += counts["in"]
                totals["str_best"] += counts["best"]
            elif name == "admission.admit_large_opt":
                large_opt.add(i)
            elif layer == "greedy" and not self._inside(parent, "greedy"):
                out["greedy.calls"] += 1
            if "subsets" in counts:
                totals["subsets"] += counts["subsets"]
        for i in large_opt:
            totals["successes"] += (self.spans[i][4] or {}).get("successes", 0)

        def ratio(a, b):
            return a / b if b else 0.0

        out["rounding.survivors_mean"] = ratio(totals["survivors"], out["rounding.sample_calls"])
        out["rounding.extract_keep_ratio"] = ratio(totals["ext_kept"], totals["ext_in"])
        out["rounding.best_part_ratio"] = ratio(totals["str_best"], totals["str_in"])
        out["admission.sample_accept_ratio"] = ratio(totals["successes"],
                                                     sum(attempts.values()))
        out["oracle.subsets_per_s"] = ratio(totals["subsets"], out["oracle.enumerate_s"])
        out["affectance.context_mib"] = max(
            (sum(v.nbytes for v in vars(c).values() if isinstance(v, np.ndarray)) / MIB
             for c in self.contexts), default=0.0)
        out["greedy.value_total"] = greedy_value
        out["trace.coverage"] = ratio(top, wall)
        return out

    def _inside(self, index, layer):
        while index >= 0:
            if self.spans[index][0].startswith(layer + "."):
                return True
            index = self.spans[index][3]
        return False

    def dump(self) -> list:
        """Spans as plain lists, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        return [[n, round(t0 - base, 7), round(t1 - base, 7), p, c]
                for n, t0, t1, p, c in self.spans]


def median_metrics(per_iteration: list) -> dict:
    return {name: statistics.median(m[name] for m in per_iteration)
            for name in per_iteration[0]}
