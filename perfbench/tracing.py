"""Span tracing at fracmom's layer boundaries, and the per-layer metrics.

The tracer replaces each layer's public functions, at every module
attribute that holds them, with a recording wrapper.  That covers the
name in the defining module and every ``from ... import`` binding in the
other modules, which is where a calling module looks the name up.
``uninstall`` puts the original functions back.

Most wrapped calls record a span: name, start, end, parent, plus a few
facts read from the arguments or result (grid nodes, CSV rows, curve
points).  The high-frequency leaf callbacks (the exact CF and PDF used
as integrands, and the gamma routines) would double the run time as
spans, so they are aggregated instead: calls, points and seconds per
(parent span, leaf).  Self time is a span's duration minus its child
spans and the leaf time aggregated under it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

import numpy as np

# Public functions per layer.  A name here that no longer resolves fails
# the traced run; it must not silently report zero.
LAYERS = {
    "special": ("complex_gamma", "reflection_product", "signed_complex_power"),
    "distributions": ("exact_cf", "exact_pdf", "closed_form_moment", "sample"),
    "moments": ("moment_quadrature", "moment_monte_carlo", "make_grid",
                "suggest_truncation", "working_strip", "write_grid_csv",
                "read_grid_csv"),
    "fracops": ("rl_integral_at_zero", "marchaud_derivative_at_zero",
                "riesz_derivative_at_zero", "riesz_integral_at_zero",
                "mellin_forward", "composition_check"),
    "reconstruct": ("sample_curve", "write_curve_csv", "cf_series",
                    "pdf_series", "classical_taylor_cf", "residue_partial_sum"),
    "cli": ("main",),
}

# Leaf -> index of the positional argument whose size counts as points.
LEAVES = {
    "exact_cf": 1,
    "exact_pdf": 1,
    "complex_gamma": 0,
    "reflection_product": 0,
    "signed_complex_power": 0,
}

GAMMA_LEAVES = ("complex_gamma", "reflection_product")

# argument types counted as one point without asking NumPy
_SCALARS = frozenset((float, int, complex, np.float64, np.complex128))

# Unit of every per-layer metric, including the four the runner adds
# (cli.bytes_out, cli.nonzero_exits, cli.integration_warnings,
# trace.overhead_s).  Metrics in a time unit vary from run to run; the
# others are counts that repeat exactly for a fixed seed.
UNITS = {
    "special.gamma_calls": "count", "special.gamma_s": "s",
    "distributions.cf_calls": "count", "distributions.cf_points": "count",
    "distributions.cf_s": "s",
    "distributions.pdf_calls": "count", "distributions.pdf_points": "count",
    "distributions.pdf_s": "s",
    "distributions.closed_form_calls": "count", "distributions.closed_form_s": "s",
    "distributions.sample_s": "s",
    "moments.quad_calls": "count", "moments.quad_self_s": "s",
    "moments.truncation_evals": "count", "moments.truncation_s": "s",
    "moments.grid_nodes": "count", "moments.grid_self_s": "s", "moments.mc_s": "s",
    "moments.csv_rows": "count", "moments.csv_write_s": "s", "moments.csv_read_s": "s",
    "moments.self_s": "s",
    "fracops.calls": "count", "fracops.self_s": "s", "fracops.points_per_call": "points",
    "fracops.osc_call_ms": "ms", "fracops.plain_call_ms": "ms", "fracops.failures": "count",
    "reconstruct.point_nodes": "count", "reconstruct.curve_s": "s",
    "reconstruct.ns_per_point_node": "ns", "reconstruct.csv_write_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "bytes", "cli.nonzero_exits": "count",
    "cli.integration_warnings": "count",
    "trace.overhead_s": "s",
}
TIME_UNITS = ("s", "ms", "ns")


class TraceSetupError(RuntimeError):
    """A listed boundary name does not resolve to a function."""


def resolve_boundaries() -> list[tuple[str, str, object]]:
    """(layer, name, function) for every listed name, or TraceSetupError."""
    out = []
    for layer, names in LAYERS.items():
        home = importlib.import_module(f"fracmom.{layer}")
        for name in names:
            fn = getattr(home, name, None)
            if not callable(fn):
                raise TraceSetupError(f"fracmom.{layer}.{name} does not resolve")
            out.append((layer, name, fn))
    return out


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "info", "failed")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None
        self.failed = False

    @property
    def duration(self):
        return self.end - self.start


def _span_info(name, args, kwargs, result):
    """Facts a metric needs, read from one call; None when there are none."""
    if name == "make_grid":
        method = args[2] if len(args) > 2 else kwargs.get("method", "closed_form")
        return {"nodes": int(result.values.size), "method": method}
    if name == "write_grid_csv":
        return {"rows": int(args[0].values.size)}
    if name == "read_grid_csv":
        return {"rows": int(result[0].values.size)}
    if name == "sample_curve":
        return {"point_nodes": int(result.abscissae.size) * int(args[0].values.size)}
    if name in LAYERS["fracops"]:
        return {"osc": kwargs.get("oscillation") is not None}
    return None


class Tracer:
    """Records spans and leaf aggregates while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        # parent span index (-1 outside any span) -> leaf name -> [calls, points, seconds]
        self.leaves: dict[int, dict[str, list]] = {-1: {}}
        self._open_leaves = self.leaves[-1]
        self._stack: list[int] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every binding of every listed function in fracmom."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if (key == "fracmom" or key.startswith("fracmom.")) and mod]
        for layer, name, fn in resolve_boundaries():
            wrapper = (self._leaf(layer, name, fn) if name in LEAVES
                       else self._span(layer, name, fn))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self.leaves = {-1: {}}
        self._open_leaves = self.leaves[-1]
        self._stack = []

    # -- wrappers -----------------------------------------------------

    def _span(self, layer, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, layer, stack[-1] if stack else -1)
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            outer_leaves = tracer._open_leaves
            tracer._open_leaves = tracer.leaves[index] = {}
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer._open_leaves = outer_leaves
            span.info = _span_info(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, layer, name, fn):
        tracer = self
        arg = LEAVES[name]

        def wrapper(*args, **kwargs):
            value = args[arg] if len(args) > arg else None
            points = 1 if value.__class__ in _SCALARS else np.size(value)
            if tracer._in_leaf:
                # time is already counted by the enclosing leaf
                agg = tracer._open_leaves.setdefault(name, [0, 0, 0.0])
                agg[0] += 1
                agg[1] += points
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_leaf = False
                agg = tracer._open_leaves.get(name)
                if agg is None:
                    agg = tracer._open_leaves[name] = [0, 0, 0.0]
                agg[0] += 1
                agg[1] += points
                agg[2] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------

    def leaf_items(self):
        """(parent span index, leaf name, [calls, points, seconds]) triples."""
        for parent, by_name in self.leaves.items():
            for name, agg in by_name.items():
                yield parent, name, agg

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        for parent, _, agg in self.leaf_items():
            if parent >= 0:
                own[parent] -= agg[2]
        return own

    def layer_seconds(self) -> dict[str, float]:
        """Self time per layer, leaf time counted in the leaf's layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for span, own in zip(self.spans, self.self_times()):
            out[span.layer] += own
        leaf_layer = {n: l for l, names in LAYERS.items() for n in names}
        for _, name, agg in self.leaf_items():
            out[leaf_layer[name]] += agg[2]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        spans, own = self.spans, self.self_times()

        def leaf(names, field):
            return sum(agg[field] for _, n, agg in self.leaf_items() if n in names)

        def select(name):
            return [i for i, s in enumerate(spans) if s.name == name]

        def info_sum(idx, key):
            return sum(spans[i].info[key] for i in idx if spans[i].info)

        fracops = set(LAYERS["fracops"])
        fr_all = [i for i, s in enumerate(spans) if s.name in fracops]
        fr_outer = [i for i in fr_all
                    if spans[i].parent < 0 or spans[spans[i].parent].name not in fracops]
        fr_points = sum(agg[1] for p, n, agg in self.leaf_items()
                        if n == "exact_cf" and p >= 0 and spans[p].name in fracops)

        def median_ms(osc):
            idx = [i for i in fr_outer if spans[i].info and spans[i].info["osc"] == osc]
            return 1e3 * statistics.median(spans[i].duration for i in idx) if idx else 0.0

        grid = select("make_grid")
        curves = select("sample_curve")
        point_nodes = info_sum(curves, "point_nodes")
        curve_s = sum(own[i] for i in curves)
        trunc = set(select("suggest_truncation"))
        closed = select("closed_form_moment")
        return {
            "special.gamma_calls": leaf(GAMMA_LEAVES, 0),
            "special.gamma_s": leaf(GAMMA_LEAVES, 2),
            "distributions.cf_calls": leaf(("exact_cf",), 0),
            "distributions.cf_points": leaf(("exact_cf",), 1),
            "distributions.cf_s": leaf(("exact_cf",), 2),
            "distributions.pdf_calls": leaf(("exact_pdf",), 0),
            "distributions.pdf_points": leaf(("exact_pdf",), 1),
            "distributions.pdf_s": leaf(("exact_pdf",), 2),
            "distributions.closed_form_calls": len(closed),
            "distributions.closed_form_s": sum(spans[i].duration for i in closed),
            "distributions.sample_s": sum(spans[i].duration for i in select("sample")),
            "moments.quad_calls": len(select("moment_quadrature")),
            "moments.quad_self_s": sum(own[i] for i in select("moment_quadrature")),
            "moments.truncation_evals": sum(1 for i in closed if spans[i].parent in trunc),
            "moments.truncation_s": sum(spans[i].duration for i in trunc),
            "moments.grid_nodes": info_sum(grid, "nodes"),
            "moments.grid_self_s": sum(own[i] for i in grid),
            "moments.mc_s": sum(own[i] for i in grid
                                if spans[i].info and spans[i].info["method"] == "monte_carlo"),
            "moments.csv_rows": (info_sum(select("write_grid_csv"), "rows")
                                 + info_sum(select("read_grid_csv"), "rows")),
            "moments.csv_write_s": sum(spans[i].duration for i in select("write_grid_csv")),
            "moments.csv_read_s": sum(spans[i].duration for i in select("read_grid_csv")),
            "moments.self_s": sum(o for s, o in zip(spans, own) if s.layer == "moments"),
            "fracops.calls": len(fr_outer),
            "fracops.self_s": sum(own[i] for i in fr_all),
            "fracops.points_per_call": fr_points / len(fr_outer) if fr_outer else 0.0,
            "fracops.osc_call_ms": median_ms(True),
            "fracops.plain_call_ms": median_ms(False),
            "fracops.failures": sum(1 for i in fr_outer if spans[i].failed),
            "reconstruct.point_nodes": point_nodes,
            "reconstruct.curve_s": curve_s,
            "reconstruct.ns_per_point_node": 1e9 * curve_s / point_nodes if point_nodes else 0.0,
            "reconstruct.csv_write_s": sum(spans[i].duration for i in select("write_curve_csv")),
            "cli.self_s": sum(own[i] for i in select("main")),
        }

    def dump(self, handle) -> None:
        """Write spans and leaf aggregates as JSON lines."""
        for i, s in enumerate(self.spans):
            handle.write(json.dumps({"id": i, "name": f"{s.layer}.{s.name}",
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "failed": s.failed,
                                     "info": s.info}) + "\n")
        for parent, name, (calls, points, seconds) in self.leaf_items():
            handle.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                     "points": points, "seconds": seconds}) + "\n")
