"""Spans around the calls into each denshoe layer, recorded from outside.

``Tracer.install`` replaces every public function of the five layer
modules by a wrapper, in every module namespace that holds it, so calls
between layers are seen as well as the benchmark's own.  A few calls out
of the package are wrapped too: ``mpmath.workdps`` (guard-band
escalations), ``numpy.linalg.solve``, ``numpy.linalg.eigvalsh`` and
``scipy.optimize.minimize``.  A span is recorded only while a task is
running, as (name, start, end, parent, task, work); ``work`` is a size
read from the call's arguments.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc
from functools import wraps

LAYERS = ("exact", "symbolic", "wdsfamily", "circle", "twist")


def _triples(m: int) -> int:
    return m * (m - 1) * (m - 2) // 2


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# How much work a call does, read from its arguments.
_WORK = {
    "sturmian_window": lambda a, k: 2 * _arg(a, k, 2, "radius") + 1,
    "itinerary": lambda a, k: 2 * _arg(a, k, 3, "radius") + 1,
    "rotation_estimate": lambda a, k: _arg(a, k, 2, "iterations"),
    "minimize_periodic": lambda a, k: _arg(a, k, 2, "q"),
    "heteroclinic_minimizer": lambda a, k: _arg(a, k, 3, "window"),
    "graph_hausdorff": lambda a, k: 4 * _triples(len(_arg(a, k, 0, "g1")))
    * _triples(len(_arg(a, k, 1, "g2"))),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.task = None            # id of the running task; None records nothing
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.gh_peak_bytes = 0

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, work=None, namer=None, peak=False):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if tracer.task is None:
                return fn(*args, **kwargs)
            span = namer(args, kwargs) if namer else name
            n = work(args, kwargs) if work else 0
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            if peak:
                tracemalloc.start()
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                if peak:
                    tracer.gh_peak_bytes = max(tracer.gh_peak_bytes,
                                               tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._stack.pop()
                tracer.spans[idx] = (span, t0, t1, parent, tracer.task, n)

        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import mpmath
        import numpy.linalg
        import scipy.optimize

        from denshoe import circle, exact, symbolic, twist, wdsfamily

        modules = (exact, symbolic, wdsfamily, circle, twist)
        is_exact = exact.is_exact

        def window_name(args, kwargs):
            exact_angles = (is_exact(_arg(args, kwargs, 0, "alpha"))
                            and is_exact(_arg(args, kwargs, 1, "theta")))
            return "exact.sturmian_window" if exact_angles else "symbolic.sturmian_window"

        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                namer = window_name if attr == "sturmian_window" else None
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, _WORK.get(attr), namer,
                                          peak=attr == "graph_hausdorff")
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    self._patch(mod, attr, wrappers[fn])
        self._patch(mpmath, "workdps", self._wrap("ext.workdps", mpmath.workdps))
        self._patch(numpy.linalg, "solve", self._wrap("ext.solve", numpy.linalg.solve))
        self._patch(numpy.linalg, "eigvalsh",
                    self._wrap("ext.eigvalsh", numpy.linalg.eigvalsh))
        self._patch(scipy.optimize, "minimize",
                    self._wrap("ext.lbfgs", scipy.optimize.minimize))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # --- output -----------------------------------------------------------

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def layer_metrics(self, tasks: int) -> dict[str, float]:
        """Per-layer metrics, each per timed task (see README)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0

        def in_layer(i, layer):
            while i >= 0:
                if spans[i][0].startswith(layer + "."):
                    return True
                i = spans[i][3]
            return False

        def outermost(i):
            name, p = spans[i][0], spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return False
                p = spans[p][3]
            return True

        total_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        work: dict[str, int] = {}
        self_ns = {layer: 0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for i, (name, t0, t1, parent, _, n) in enumerate(spans):
            if name.startswith("ext."):
                # outside calls count only under a layer that made them
                key = name
                if name != "ext.workdps":
                    if not in_layer(parent, "twist"):
                        continue
                    key = "twist." + name[4:]
                owner = spans[parent][0].split(".")[0] if parent >= 0 else None
            else:
                key = name
                owner = name.split(".")[0]
                layer_calls[owner] += 1
            if owner in self_ns:
                self_ns[owner] += t1 - t0 - child_ns[i]
            calls[key] = calls.get(key, 0) + 1
            work[key] = work.get(key, 0) + n
            if outermost(i):
                total_ns[key] = total_ns.get(key, 0) + t1 - t0

        per = max(tasks, 1)

        def ms(*keys):
            return sum(total_ns.get(k, 0) for k in keys) / 1e6 / per

        def count(table, *keys):
            return sum(table.get(k, 0) for k in keys) / per

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "exact.symbols": count(work, "exact.sturmian_window"),
            "exact.window_ms": ms("exact.sturmian_window"),
            "symbolic.float_symbols": count(work, "symbolic.sturmian_window"),
            "symbolic.float_window_ms": ms("symbolic.sturmian_window"),
            "symbolic.escalations": count(calls, "ext.workdps"),
            "symbolic.rotation_interval_ms": ms("symbolic.estimate_rotation_interval"),
            "symbolic.rotation_interval_calls": count(calls, "symbolic.estimate_rotation_interval"),
            "symbolic.factor_family_ms": ms("symbolic.factor_family"),
            "wdsfamily.build_wds_ms": ms("wdsfamily.build_wds"),
            "wdsfamily.cylinder_order_ms": ms("wdsfamily.cylinder_order"),
            "wdsfamily.rotation_class_ms": ms("wdsfamily.rotation_class"),
            "wdsfamily.graph_hausdorff_ms": ms("wdsfamily.graph_hausdorff"),
            "wdsfamily.graph_hausdorff_calls": count(calls, "wdsfamily.graph_hausdorff"),
            "wdsfamily.triple_pairs": count(work, "wdsfamily.graph_hausdorff"),
            "wdsfamily.graph_hausdorff_peak_mb": self.gh_peak_bytes / 2 ** 20,
            "circle.build_ms": ms("circle.denjoy_build"),
            "circle.itinerary_ms": ms("circle.itinerary"),
            "circle.map_steps": count(work, "circle.itinerary", "circle.rotation_estimate"),
            "twist.minimize_periodic_ms": ms("twist.minimize_periodic"),
            "twist.heteroclinic_ms": ms("twist.heteroclinic_minimizer"),
            "twist.hyperbolicity_ms": ms("twist.hyperbolicity_report"),
            "twist.am_set_ms": ms("twist.assemble_am_set", "twist.irrational_am_set"),
            "twist.sites": count(work, "twist.minimize_periodic", "twist.heteroclinic_minimizer"),
            "twist.dense_solve_ms": ms("twist.solve"),
            "twist.dense_solve_calls": count(calls, "twist.solve"),
            "twist.eigvalsh_ms": ms("twist.eigvalsh"),
            "twist.eigvalsh_calls": count(calls, "twist.eigvalsh"),
            "twist.lbfgs_ms": ms("twist.lbfgs"),
            "twist.lbfgs_calls": count(calls, "twist.lbfgs"),
        }
        m["exact.us_per_symbol"] = ratio(m["exact.window_ms"] * 1e3, m["exact.symbols"])
        m["symbolic.escalation_ratio"] = ratio(m["symbolic.escalations"],
                                               m["symbolic.float_symbols"])
        m["circle.us_per_step"] = ratio(
            ms("circle.itinerary", "circle.rotation_estimate") * 1e3, m["circle.map_steps"])
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / per
            m[f"{layer}.calls"] = layer_calls[layer] / per
        return m
