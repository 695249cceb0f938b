"""Span tracing of flowtree's public functions, installed from outside the package.

``Tracer.install()`` replaces every public module-level function of the
layer modules (also where another module re-bound it by ``from ... import``),
plus a few hot methods, by a wrapper that records a span: name, start, end,
parent span and run id (the index of the benchmark operation that caused
it).  Self time is a span's duration minus the time its child spans cover.
QSurd arithmetic is only counted: its calls are too small and too many for
a span each, so their time stays in the caller's self time.

Spans and counts live in memory, in flat typed arrays (28 bytes a span),
and every span is written when the pass ends.  Spans made during set-up
have run id -1.  The untraced mode installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict

LAYERS = ("trees", "ncpoly", "localops", "chebyshev", "zline", "exactnum",
          "abel", "flowkernel", "quotient", "analysis", "reports", "cli")

NCPOLY_OPS = ("__add__", "__sub__", "__mul__", "scale", "adjoint", "norm")

# (module, class, methods) wrapped with spans, and with counts only.
SPAN_METHODS = (
    ("trees", "TreeWindow", ("lca", "distance", "defect_distances")),
    ("ncpoly", "NcPolynomial", NCPOLY_OPS),
)
COUNT_METHODS = (
    ("exactnum", "QSurd", ("__add__", "__radd__", "__sub__", "__rsub__",
                           "__mul__", "__rmul__", "__truediv__", "__neg__")),
)

BUILDERS = ("trees.homogeneous_window", "trees.ball_window",
            "trees.constant_ratio_window", "trees.spine_window",
            "trees.load_window")
STENCILS = tuple("localops." + f for f in (
    "apply_shift", "apply_shift_adjoint", "apply_gradient",
    "apply_gradient_adjoint", "apply_averaging", "apply_laplacian"))
BESSEL = ("zline.heat_z_kernel", "zline.heat_z_gradkernel")
FFT = ("zline.z_multiplier_kernel", "zline.z_grad_multiplier_kernel")
CHEB_APPLY = ("chebyshev.cheb_column", "chebyshev.cheb_apply",
              "chebyshev.kernel_value_general")
PROFILE = ("flowkernel.profile_value", "flowkernel.profile_value_exact")

# Per-layer time metrics: summed self time of the named spans.
SELF_TIME_GROUPS = {
    "trees.build_s": BUILDERS,
    "trees.geometry_s": ("trees.TreeWindow.lca", "trees.TreeWindow.distance",
                         "trees.TreeWindow.defect_distances", "trees.safe_region"),
    "localops.stencil_s": STENCILS,
    "localops.accumulate_s": ("localops.apply_ncpoly", "localops.apply_lambda_poly",
                              "localops.kernel_column_poly",
                              "localops.kernel_column_lambda_poly"),
    "chebyshev.approx_s": ("chebyshev.cheb_approx",),
    "chebyshev.recurrence_s": CHEB_APPLY,
    "quotient.build_s": ("quotient.build_submersion_rational",),
    "quotient.validate_s": ("quotient.validate_submersion",),
    "quotient.fiber_s": ("quotient.fiber_average_kernel",),
    "quotient.rationalize_s": ("quotient.rationalize_flow",),
    "zline.bessel_s": BESSEL,
    "zline.fft_s": FFT,
    "zline.quad_s": ("zline.imaginary_power_quad",),
    "abel.exact_s": ("abel.e_f_exact", "abel.homog_kernel_value_exact",
                     "abel.abel_forward", "abel.abel_inverse"),
    "abel.radial_s": ("abel.radial_from_gradkernel", "abel.e_f_coefficients",
                      "abel.homog_kernel_value", "abel.sharpness_radial"),
    "abel.opsum_s": ("abel.homog_weighted_opsum", "abel.homog_weighted_l1",
                     "abel.sphere_weight_scaled", "abel.sphere_count"),
    "flowkernel.profile_s": PROFILE + ("flowkernel.variant_value",
                                       "flowkernel.pair_value"),
    "flowkernel.chain_s": ("flowkernel.chain_of",),
    "flowkernel.groupsum_s": ("flowkernel.level_sum", "flowkernel.weighted_colsum"),
    "reports.write_s": ("reports.write_csv", "reports.write_meta"),
}

# Per-layer call counts: number of calls of the named spans.
CALL_COUNT_GROUPS = {
    "trees.build_calls": BUILDERS,
    "trees.lca_calls": ("trees.TreeWindow.lca",),
    "trees.safe_region_calls": ("trees.safe_region",),
    "ncpoly.ops": tuple("ncpoly.NcPolynomial." + m for m in NCPOLY_OPS),
    "localops.stencil_calls": STENCILS,
    "zline.bessel_calls": BESSEL,
    "zline.fft_calls": FFT,
    "flowkernel.profile_calls": PROFILE,
    "flowkernel.chain_calls": ("flowkernel.chain_of",),
}

# Counters fed by the hooks below.
COUNTERS = ("trees.vertices_built", "localops.window_vertices_swept",
            "localops.outputs_nonzero", "chebyshev.degree_steps",
            "quotient.source_vertices", "zline.bessel_points", "zline.fft_points",
            "exactnum.qsurd_ops", "analysis.quadrature_node_evals",
            "reports.bytes_written")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _quadrature_nodes(spec) -> int:
    from flowtree.analysis import QuadratureSpec
    return len((spec or QuadratureSpec()).nodes())


def _hooks(tracer):
    """Counters computed from a call's arguments and result."""
    c = tracer.counters

    def built(args, kwargs, res):
        c["trees.vertices_built"] += len(res[0])

    def stencil(args, kwargs, res):
        c["localops.window_vertices_swept"] += len(args[0])
        c["localops.outputs_nonzero"] += len(res.values)

    def cheb(args, kwargs, res):
        c["chebyshev.degree_steps"] += _arg(args, kwargs, 2, "model").degree

    def submersion(args, kwargs, res):
        c["quotient.source_vertices"] += len(res.source)

    def bessel(args, kwargs, res):
        t, nmax = _arg(args, kwargs, 0, "t"), _arg(args, kwargs, 1, "nmax")
        c["zline.bessel_points"] += nmax + 1
        tracer.bessel_keys.add((float(t), int(nmax)))

    def fft(args, kwargs, res):
        c["zline.fft_points"] += 3 * res.grid // 2   # guard grids G and 2G

    def riesz(args, kwargs, res):
        pairs = _arg(args, kwargs, 2, "pairs")
        spec = args[3] if len(args) > 3 else kwargs.get("spec")
        c["analysis.quadrature_node_evals"] += len(pairs) * _quadrature_nodes(spec)

    def csv(args, kwargs, res):
        c["reports.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def meta(args, kwargs, res):
        path = _arg(args, kwargs, 0, "csv_path") + ".meta.json"
        c["reports.bytes_written"] += os.path.getsize(path)

    hooks = {k: built for k in BUILDERS}
    hooks.update({k: stencil for k in STENCILS})
    hooks.update({k: cheb for k in CHEB_APPLY})
    hooks.update({k: bessel for k in BESSEL})
    hooks.update({k: fft for k in FFT})
    hooks["quotient.build_submersion_rational"] = submersion
    hooks["analysis.riesz_kernel_values"] = riesz
    hooks["reports.write_csv"] = csv
    hooks["reports.write_meta"] = meta
    return hooks


class Tracer:
    """Spans, self times and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # one entry per span, in the order the spans end
        self.spans = {"span": array("i"), "parent": array("i"), "name": array("H"),
                      "start": array("d"), "end": array("d"), "run": array("h")}
        self.stack: list[list] = []        # frames [span id, child seconds]
        self.next_id = 0
        self.run_id = -1
        self.command = None
        self.cli_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.bessel_keys: set = set()
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        hooks = _hooks(self)
        modules = {name: importlib.import_module("flowtree." + name)
                   for name in LAYERS}
        layer_names = {m.__name__ for m in modules.values()}
        wrappers = {}    # one wrapper per function, wherever it is bound
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ not in layer_names):
                    continue
                key = fn.__module__.split(".")[-1] + "." + fn.__name__
                if fn not in wrappers:
                    wrappers[fn] = self._span_wrapper(key, fn, hooks.get(key))
                self._replace(mod, attr, wrappers[fn])
        for modname, clsname, methods in SPAN_METHODS:
            cls = getattr(modules[modname], clsname)
            for meth in methods:
                key = f"{modname}.{clsname}.{meth}"
                self._replace(cls, meth,
                              self._span_wrapper(key, vars(cls)[meth], hooks.get(key)))
        for modname, clsname, methods in COUNT_METHODS:
            cls = getattr(modules[modname], clsname)
            for meth in methods:
                self._replace(cls, meth, self._count_wrapper(
                    modname + ".qsurd_ops", vars(cls)[meth]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _count_wrapper(self, counter, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, key, fn, hook):
        tracer = self
        idx = len(self.names)
        self.names.append(key)
        self.calls.append(0)
        self.self_s.append(0.0)
        calls, self_s, stack = self.calls, self.self_s, self.stack
        span_ids, parents, names, starts, ends, runs = self.spans.values()
        is_cli = key.startswith("cli.")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                own = end - start - frame[1]
                calls[idx] += 1
                self_s[idx] += own
                if is_cli:
                    tracer.cli_self[tracer.command] += own
                span_ids.append(sid)
                parents.append(stack[-1][0] if stack else -1)
                names.append(idx)
                starts.append(start)
                ends.append(end)
                runs.append(tracer.run_id)
                if done and hook is not None:
                    hook(args, kwargs, result)
                if stack:
                    # the hook's time is tracing cost: keep it out of the parent
                    stack[-1][1] += clock() - start
        return wrapper

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Raw totals of one traced pass: per-span calls and self times,
        counters, and the per-command self time of the cli layer."""
        module_self = {layer: 0.0 for layer in LAYERS}
        for name, s in zip(self.names, self.self_s):
            module_self[name.split(".")[0]] += s
        return {
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "self_s": {n: s for n, s in zip(self.names, self.self_s) if s},
            "module_self_s": module_self,
            "counters": {k: self.counters.get(k, 0) for k in COUNTERS},
            "bessel_distinct": len(self.bessel_keys),
            "cli_self_s": dict(self.cli_self),
            "spans_total": self.next_id,
        }

    def write_spans(self, path: str) -> None:
        """Every span, as the arrays span, parent, name (an index into
        names), start, end (perf_counter seconds) and run of one .npz file."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.spans.items()})


def layer_metrics(summary: dict, commands) -> dict[str, tuple]:
    """Per-layer metrics (value, unit) from one pass summary.

    ``commands`` lists the README commands whose cli self time is reported.
    Ratios are returned next to their bases.
    """
    calls, self_s, ctr = summary["calls"], summary["self_s"], summary["counters"]
    out: dict[str, tuple] = {}
    for metric, names in SELF_TIME_GROUPS.items():
        out[metric] = (sum(self_s.get(n, 0.0) for n in names), "s")
    for metric, names in CALL_COUNT_GROUPS.items():
        out[metric] = (sum(calls.get(n, 0) for n in names), "count")
    for name in COUNTERS:
        out[name] = (ctr[name], "count")
    for layer, s in summary["module_self_s"].items():
        if layer != "exactnum":
            out[layer + ".self_s"] = (s, "s")
    swept = ctr["localops.window_vertices_swept"]
    outputs = ctr["localops.outputs_nonzero"]
    out["localops.support_fraction"] = (outputs / swept if swept else 0.0, "ratio")
    out["localops.ns_per_output"] = (
        1e9 * out["localops.stencil_s"][0] / outputs if outputs else 0.0, "ns")
    bcalls = out["zline.bessel_calls"][0]
    out["zline.bessel_distinct_ratio"] = (
        summary["bessel_distinct"] / bcalls if bcalls else 0.0, "ratio")
    for cmd in commands:
        out[f"cli.{cmd}_s"] = (summary["cli_self_s"].get(cmd, 0.0), "s")
    out["trace.spans"] = (summary["spans_total"], "count")
    return out
