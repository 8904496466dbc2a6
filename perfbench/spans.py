"""Span tracer that wraps the public functions of wedgebvp from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces the
traced functions and methods in the already imported ``wedgebvp`` modules
by timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.
A wrapper does nothing but call through while the tracer is inactive, so the
harness switches tracing on around set-up and operations only, never around
its own correctness checks.

Every call records a span (name, start, end, parent span, operation index)
and adds to per-name totals: calls, inclusive time, self time (inclusive
minus the time of traced calls made inside it) and nodes, the number of
complex points passed to a kernel evaluation or held by a built contour.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from dataclasses import dataclass

import numpy as np


@dataclass
class Totals:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    nodes: int = 0


def _arg_nodes(args, kwargs, result):
    return int(np.size(args[1]))


def _result_nodes(args, kwargs, result):
    return len(result)


# Traced names.  KernelEngine methods (attribute, node counter) are patched
# on the class; a module-level function is patched in every wedgebvp module
# that holds it, because callers import it by name.
KERNEL_METHODS = {
    "kernel.build": ("__init__", None),
    "kernel.v1": ("v1_hat", _arg_nodes),
    "kernel.a1": ("a1_hat", _arg_nodes),
    "kernel.g": ("g_hat", None),
    "kernel.g2": ("g2_hat", None),
    "kernel.T1": ("T1", None),
    "kernel.T2": ("T2", None),
    "kernel.m": ("m_func", None),
    "kernel.Q": ("Q_func", None),
}
CLOSED_FORM = ("kernel.g", "kernel.g2", "kernel.T1", "kernel.T2", "kernel.m", "kernel.Q")
CONTOUR_FUNCTIONS = {
    "contour.double_loop": "sommerfeld_double_loop",
    "contour.decomposition": "decomposition_contour",
}
SOLVER_FUNCTIONS = {
    "solver.u1_field": "u1_field",
    "solver.U_total": "U_total",
    "solver.grid_eval": "grid_eval",
    "solver.u1_decomposed": "u1_decomposed",
}
VERIFY_CHECKS = (
    "difference_equation", "automorphy", "pole_portrait", "boundary",
    "helmholtz", "asymptotics", "decomposition", "contour_independence",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.totals: dict = {}
        self.spans: list = []
        self.refined_builds = 0
        self.refined_nodes = 0
        self._stack: list = []
        self._patches: list = []
        self._seen_fine = weakref.WeakSet()

    # ------------------------------------------------------------------
    # span recording

    def _wrap(self, name, fn, nodes=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[1]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                tot = tracer.totals.setdefault(name, Totals())
                tot.calls += 1
                tot.incl_s += dur
                tot.self_s += dur - frame[2]
                if nodes is not None and result is not None:
                    tot.nodes += nodes(args, kwargs, result)
                tracer.spans[index] = (name, frame[1], end, parent, tracer.op)

        return wrapper

    def _wrap_refined(self, fn):
        """refined() builds the finer contour once and caches it."""
        tracer = self

        def counted(contour):
            fine = fn(contour)
            if tracer.active and fine not in tracer._seen_fine:
                tracer._seen_fine.add(fine)
                tracer.refined_builds += 1
                tracer.refined_nodes += len(fine)
            return fine

        return self._wrap("contour.refined", functools.wraps(fn)(counted))

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, name, module, attr, nodes=None):
        orig = getattr(module, attr)
        new = self._wrap(name, orig, nodes)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname == "wedgebvp" or modname.startswith("wedgebvp."):
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, new)

    def install(self):
        from wedgebvp import contour, kernel, solver, verify

        engine = kernel.KernelEngine
        for name, (attr, nodes) in KERNEL_METHODS.items():
            self._patch(engine, attr, self._wrap(name, getattr(engine, attr), nodes))
        poly = contour.ContourPolyline
        self._patch(poly, "refined", self._wrap_refined(poly.refined))
        for name, attr in CONTOUR_FUNCTIONS.items():
            self._patch_function(name, contour, attr, _result_nodes)
        for name, attr in SOLVER_FUNCTIONS.items():
            self._patch_function(name, solver, attr)
        for check in VERIFY_CHECKS:
            self._patch_function(f"verify.{check}", verify, f"check_{check}")
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    # per-layer figures

    def _t(self, name) -> Totals:
        return self.totals.get(name, Totals())

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer figures; times and counts are per operation."""
        per = 1.0 / max(n_ops, 1)
        t = self._t
        contour_builds = [t(n) for n in CONTOUR_FUNCTIONS]
        n_contours = sum(c.calls for c in contour_builds)
        a1, v1, u1 = t("kernel.a1"), t("kernel.v1"), t("solver.u1_field")
        out = {
            "kernel.build_count": (t("kernel.build").calls * per, "count/op"),
            "kernel.build_s": (t("kernel.build").incl_s * per, "s/op"),
            "kernel.v1_calls": (v1.calls * per, "count/op"),
            "kernel.v1_nodes": (v1.nodes * per, "count/op"),
            "kernel.v1_s": (v1.incl_s * per, "s/op"),
            "kernel.a1_s": (a1.self_s * per, "s/op"),
            "kernel.a1_us_per_node": (1e6 * a1.self_s / a1.nodes if a1.nodes else 0.0, "us/node"),
            "kernel.closed_form_s": (sum(t(n).self_s for n in CLOSED_FORM) * per, "s/op"),
            "contour.build_count": ((n_contours + self.refined_builds) * per, "count/op"),
            "contour.build_s": (
                (sum(c.incl_s for c in contour_builds) + t("contour.refined").incl_s) * per,
                "s/op",
            ),
            "contour.nodes": (
                sum(c.nodes for c in contour_builds) / n_contours if n_contours else 0.0,
                "nodes",
            ),
            "contour.refined_nodes": (
                self.refined_nodes / self.refined_builds if self.refined_builds else 0.0,
                "nodes",
            ),
            "solver.u1_calls": (u1.calls * per, "count/op"),
            "solver.u1_self_s": (u1.self_s * per, "s/op"),
            "solver.u1_self_us_per_call": (1e6 * u1.self_s / u1.calls if u1.calls else 0.0, "us/call"),
            "solver.kernel_sweeps_per_u1": (v1.calls / u1.calls if u1.calls else 0.0, "ratio"),
            "solver.grid_s": (t("solver.grid_eval").incl_s * per, "s/op"),
            "solver.decomposed_s": (t("solver.u1_decomposed").incl_s * per, "s/op"),
        }
        for check in VERIFY_CHECKS:
            out[f"verify.{check}_s"] = (t(f"verify.{check}").incl_s * per, "s/op")
        return out
