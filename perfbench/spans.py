"""Layer spans recorded from outside the library, and the per-layer metrics
derived from them.

`Tracer.install` wraps each public function in `LAYERS` and rebinds the
wrapper in every loaded `roundness` module that holds the original, and in
the benchmark's own modules that imported it, so calls made inside the
library (for example `hamming` calling `generalized_roundness`, or `negtype`
calling `eigensym`) are recorded as well as calls from the benchmark.
`uninstall` restores the originals.

A span is `[name, start, end, parent, item, work]`: `parent` is the index
of the enclosing span (-1 at the top), `item` the index of the workload item
that caused it, and `work` a size measure (n**3 for `eigensym`). Spans stay
in memory until the run writes them out. A span's self time is its duration
minus the durations of its direct children; calls are sequential, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = (
    "graphs.path_metric",
    "metric.build_metric_space",
    "metric.power_matrix",
    "metric.hyperplane_basis",
    "negtype.negtype_form_matrix",
    "negtype.generalized_roundness",
    "negtype.kernel_coincidence_check",
    "negtype.check_negative_type",
    "spectral.eigensym",
    "spectral.rank_exact",
    "spectral.kernel_basis_exact",
    "hamming.scan_subsets",
    "hamming.classify_subset",
    "hamming.subset_metric",
    "hamming.null_dimension_check",
    "cli.resolve_space",
    "cli.emit",
)


def _matrix_n3(args, kwargs) -> int:
    a = args[0] if args else kwargs["a"]
    return len(a) ** 3


WORK = {"spectral.eigensym": _matrix_n3}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, callers=()) -> None:
        """Wrap every layer function in the roundness modules and in the
        `callers` modules that imported them by name."""
        for layer in LAYERS:
            importlib.import_module(f"roundness.{layer.split('.')[0]}")
        loaded = [mod for key, mod in list(sys.modules.items())
                  if key == "roundness" or key.startswith("roundness.")] + list(callers)
        for layer in LAYERS:
            module, fname = layer.split(".")
            original = getattr(sys.modules[f"roundness.{module}"], fname)
            wrapper = self._wrap(layer, original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item,
                    work(args, kwargs) if work else 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper


def _has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(span_lists: list[list[list]]) -> dict:
    """Calls, self time, work and the attributed counts, summed over span
    lists that each index their own parents (one per process)."""
    calls = {name: 0 for name in LAYERS}
    self_s = {name: 0.0 for name in LAYERS}
    incl_s = {name: 0.0 for name in LAYERS}
    work = {name: 0 for name in LAYERS}
    forms_in_q = q_in_scan = classified_in_scan = 0
    for spans in span_lists:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _item, _work in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (name, start, end, _parent, _item, w) in enumerate(spans):
            calls[name] += 1
            incl_s[name] += end - start
            self_s[name] += end - start - child_s[idx]
            work[name] += w
            if name == "negtype.negtype_form_matrix":
                forms_in_q += _has_ancestor(spans, idx, "negtype.generalized_roundness")
            elif name == "negtype.generalized_roundness":
                q_in_scan += _has_ancestor(spans, idx, "hamming.scan_subsets")
            elif name == "hamming.classify_subset":
                classified_in_scan += _has_ancestor(spans, idx, "hamming.scan_subsets")
    return {"calls": calls, "self_s": self_s, "incl_s": incl_s, "work": work,
            "forms_in_q": forms_in_q, "q_in_scan": q_in_scan,
            "classified_in_scan": classified_in_scan}


def per_layer_metrics(span_lists: list[list[list]], passes: int, untraced_pass_s: float,
                      traced_pass_s: float, import_s: float, report_bytes: float) -> dict:
    """Per-layer values per traced pass, as (value, unit) pairs. Layers a
    workload never reaches report 0. Shares are of the traced pass time, so
    that numerator and denominator come from the same passes."""
    t = layer_totals(span_lists)
    calls, self_s = t["calls"], t["self_s"]
    n_q = calls["negtype.generalized_roundness"]

    def per_pass(x):
        return x / passes

    out = {}
    for name in ("graphs.path_metric", "metric.power_matrix", "negtype.negtype_form_matrix",
                 "negtype.generalized_roundness", "spectral.eigensym", "spectral.rank_exact",
                 "spectral.kernel_basis_exact", "hamming.classify_subset"):
        out[f"{name}.calls"] = (per_pass(calls[name]), "count")
    for name in LAYERS:
        out[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
    out["negtype.evals_per_q"] = (t["forms_in_q"] / n_q if n_q else 0.0, "count")
    out["spectral.eigensym.share"] = (
        per_pass(t["incl_s"]["spectral.eigensym"]) / traced_pass_s, "ratio")
    out["spectral.eigensym.n3_sum"] = (per_pass(t["work"]["spectral.eigensym"]), "count")
    out["hamming.roundness_calls"] = (per_pass(t["q_in_scan"]), "count")
    out["hamming.strict_frac"] = (
        t["q_in_scan"] / t["classified_in_scan"] if t["classified_in_scan"] else 0.0, "ratio")
    out["cli.import_s"] = (import_s, "s")
    out["cli.report_bytes"] = (report_bytes, "bytes")
    out["trace_overhead_frac"] = (traced_pass_s / untraced_pass_s - 1.0, "ratio")
    return out
