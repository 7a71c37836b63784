"""Outside-in span recorder for diffgal's layers, and the per-layer metrics.

The recorder replaces each traced function or method with a wrapper that
records one span per call: name, start, end and the span that was open when
the call began (its parent). It patches every binding of the function in the
package, so names that other modules re-bind (`inverse` imports `buchberger`
and `normal_form` by name, `tower` and `cli` import `build_Lf`) are traced
too. `uninstall` puts every original object back, so untraced requests run the
untouched program.

Layers are the modules of the package. Traced per layer: every public
module-level function, the methods in `METHODS` and the private functions in
`PRIVATE`. Wrapping costs one Python call per traced call, so methods are
limited to the boundaries the per-layer metrics need.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("ratfield", "mpoly", "diffop", "tower", "inverse", "integrab", "parsing", "cli")

METHODS = {
    "ratfield": {"UPoly": ("gcd", "xgcd"),
                 "RatFunc": ("__add__", "__mul__", "__truediv__", "derive", "inverse")},
    "mpoly": {"MRat": ("derive",), "Derivation": ("derive",)},
    "diffop": {"SkewOp": ("__mul__",), "FMatrix": ("__mul__", "det", "inverse")},
    "tower": {"Tower": ("parse",), "TowerExpr": ("derive",)},
    "inverse": {"GroupSpec": ("resolved",)},
}

# The certificate facets have no public entry point of their own.
PRIVATE = {"inverse": ("_check_annihilation", "_check_fundamental")}


def _span_name(layer: str, owner: str | None, attr: str) -> str:
    name = attr.strip("_") if attr.startswith("__") else attr
    return f"{layer}.{owner}.{name}" if owner else f"{layer}.{name}"


def _targets() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) of every traced function and method."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"diffgal.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))):
                out.append((_span_name(layer, None, attr), mod, attr))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for attr in methods:
                out.append((_span_name(layer, cls_name, attr), cls, attr))
    return out


class SpanRecorder:
    """Records spans of the traced calls; spans live in memory until `write`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.request_ids: list[str] = []
        self.request_first: list[int] = []  # index of each request's first span
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper, built once
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------------

    def _wrapper(self, fn, name: str):
        key = id(fn)
        if key not in self._wrappers:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            nid = self._name_ids[name]
            stack, name_id, parent = self._stack, self.name_id, self.parent
            start, end, clock = self.start, self.end, time.perf_counter

            @functools.wraps(fn)
            def span(*args, **kwargs):
                i = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()

            self._wrappers[key] = span
        return self._wrappers[key]

    def install(self) -> None:
        """Patch every binding of every traced function in the package."""
        if self._patched:
            raise RuntimeError("recorder is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "diffgal" or n.startswith("diffgal."))]
        for name, owner, attr in _targets():
            fn = vars(owner)[attr]
            if not inspect.isfunction(fn):
                raise TypeError(f"{name} is not a plain function")
            wrapper = self._wrapper(fn, name)
            holders = modules if inspect.ismodule(owner) else [owner]
            for holder in holders:
                for alias, obj in list(vars(holder).items()):
                    if obj is fn:
                        self._patched.append((holder, alias, fn))
                        setattr(holder, alias, wrapper)

    def uninstall(self) -> None:
        """Put back every original object `install` replaced."""
        for holder, alias, fn in reversed(self._patched):
            setattr(holder, alias, fn)
        self._patched.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        """(holder, attribute, original) of every binding currently replaced."""
        return list(self._patched)

    def begin_request(self, rid: str) -> None:
        self.request_ids.append(rid)
        self.request_first.append(len(self.start))

    # -- output --------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: request, span, parent, name, start, end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        bounds = self.request_first + [len(self.start)]
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            for r, rid in enumerate(self.request_ids):
                for i in range(bounds[r], bounds[r + 1]):
                    fh.write(f"{rid}\t{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                             f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


# -- per-layer metrics ---------------------------------------------------------------

# metric name -> (statistic, span names, required parent span name or None).
# "calls" counts spans; "s" sums inclusive time, counting a span nested in a
# span of the same name once; "self" sums the self time of a layer's spans.
PER_LAYER = {
    "ratfield.self_s": ("self", ("ratfield",), None),
    "ratfield.UPoly.gcd.calls": ("calls", ("ratfield.UPoly.gcd",), None),
    "ratfield.UPoly.gcd.s": ("s", ("ratfield.UPoly.gcd",), None),
    "ratfield.RatFunc.mul.calls": ("calls", ("ratfield.RatFunc.mul",), None),
    "ratfield.RatFunc.add.calls": ("calls", ("ratfield.RatFunc.add",), None),
    "ratfield.RatFunc.derive.calls": ("calls", ("ratfield.RatFunc.derive",), None),
    "ratfield.hermite_reduce.calls": ("calls", ("ratfield.hermite_reduce",), None),
    "ratfield.squarefree_part.calls": ("calls", ("ratfield.squarefree_part",), None),
    "mpoly.self_s": ("self", ("mpoly",), None),
    "mpoly.buchberger.calls": ("calls", ("mpoly.buchberger",), None),
    "mpoly.buchberger.s": ("s", ("mpoly.buchberger",), None),
    "mpoly.normal_form.calls": ("calls", ("mpoly.normal_form",), None),
    "mpoly.normal_form.s": ("s", ("mpoly.normal_form",), None),
    "mpoly.eliminate.s": ("s", ("mpoly.eliminate",), None),
    "mpoly.spoly.calls": ("calls", ("mpoly.spoly",), None),
    "mpoly.MRat.derive.calls": ("calls", ("mpoly.MRat.derive",), None),
    "diffop.self_s": ("self", ("diffop",), None),
    "diffop.gauge_transform.s": ("s", ("diffop.gauge_transform",), None),
    "diffop.FMatrix.det.calls": ("calls", ("diffop.FMatrix.det",), None),
    "diffop.FMatrix.inverse.calls": ("calls", ("diffop.FMatrix.inverse",), None),
    "diffop.SkewOp.mul.calls": ("calls", ("diffop.SkewOp.mul",), None),
    "diffop.SkewOp.mul.s": ("s", ("diffop.SkewOp.mul",), None),
    "diffop.build_Lf.s": ("s", ("diffop.build_Lf",), None),
    "tower.self_s": ("self", ("tower",), None),
    "tower.apply_operator.calls": ("calls", ("tower.apply_operator",), None),
    "tower.apply_operator.s": ("s", ("tower.apply_operator",), None),
    "tower.TowerExpr.derive.calls": ("calls", ("tower.TowerExpr.derive",), None),
    "tower.nested_solutions.s": ("s", ("tower.nested_solutions",), None),
    "tower.fundamental_T.s": ("s", ("tower.fundamental_T",), None),
    "inverse.self_s": ("self", ("inverse",), None),
    "inverse.resolve.s": ("s", ("inverse.GroupSpec.resolved",), None),
    "inverse.groebner.s": ("s", ("mpoly.buchberger",), "inverse.run_pipeline"),
    "inverse.cyclic_vector.s": ("s", ("inverse.cyclic_vector",), None),
    "inverse.cyclic_vector.candidates": ("calls", ("diffop.FMatrix.det",), "inverse.cyclic_vector"),
    "inverse.gauge.s": ("s", ("diffop.gauge_transform",), "inverse.run_pipeline"),
    "inverse.g_recursion.s": ("s", ("inverse.g_recursion",), None),
    "inverse.reduce_to_F.s": ("s", ("inverse.reduce_to_F",), None),
    "inverse.cert.annihilation.s": ("s", ("inverse._check_annihilation",), None),
    "inverse.cert.fundamental.s": ("s", ("inverse._check_fundamental",), None),
    "inverse.cert.differential_ideal.s": ("s", ("mpoly.normal_form",), "inverse.run_pipeline"),
    "integrab.self_s": ("self", ("integrab",), None),
    "integrab.elementary_n_witness.s": ("s", ("integrab.elementary_n_witness",), None),
    "integrab.classify.s": ("s", ("integrab.classify_exp", "integrab.classify_log",
                                  "integrab.classify_radical"), None),
    "integrab.infinity_integrable.s": ("s", ("integrab.infinity_integrable_in_Cx",), None),
    "integrab.rational_log_parts.calls": ("calls", ("integrab.rational_log_parts",), None),
    "integrab.rational_log_parts.s": ("s", ("integrab.rational_log_parts",), None),
    "parsing.self_s": ("self", ("parsing",), None),
    "parsing.parse.calls": ("calls", ("parsing.parse_expr",), None),
    "cli.self_s": ("self", ("cli",), None),
}


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Every PER_LAYER metric, summed over all recorded requests."""
    n = len(rec.start)
    names = [rec.names[k] for k in rec.name_id]
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(rec.parent):
        if p >= 0:
            child[p] += dur[i]
    self_by_layer: dict[str, float] = {}
    calls: dict[tuple[str, str | None], int] = {}
    incl: dict[tuple[str, str | None], float] = {}
    for i in range(n):
        name = names[i]
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[i] - child[i]
        p = rec.parent[i]
        keys = ((name, None), (name, names[p])) if p >= 0 else ((name, None),)
        for key in keys:
            calls[key] = calls.get(key, 0) + 1
        # inclusive time: skip a span inside another span of the same name
        a = p
        while a >= 0 and names[a] != name:
            a = rec.parent[a]
        if a < 0:
            for key in keys:
                incl[key] = incl.get(key, 0.0) + dur[i]
    out: dict[str, float] = {}
    for metric, (stat, span_names, parent) in PER_LAYER.items():
        if stat == "self":
            out[metric] = self_by_layer.get(span_names[0], 0.0)
        elif stat == "calls":
            out[metric] = sum(calls.get((s, parent), 0) for s in span_names)
        else:
            out[metric] = sum(incl.get((s, parent), 0.0) for s in span_names)
    return out
