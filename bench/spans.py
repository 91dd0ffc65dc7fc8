"""Span recorder that times the package's public functions from outside.

Nothing here is imported by the package. :func:`install` replaces each public
function at the binding its caller uses (a module global looked up at call
time) with a wrapper that records a span, and returns a function that puts the
originals back. Spans stay in memory until the run ends.

A span is ``[name, start_ns, end_ns, parent, instance, attrs]``: ``parent`` is
the index of the enclosing span (-1 at top level) and ``instance`` is the id of
the benchmark instance being processed when it opened.
"""

from __future__ import annotations

import functools
import importlib
import time
from math import comb

NAME, START, END, PARENT, INSTANCE, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance = -1
        self._open = -1

    def call(self, name, fn, args, kwargs, pre, post):
        attrs = pre(*args, **kwargs) if pre else {}
        span = [name, time.perf_counter_ns(), 0, self._open, self.instance, attrs]
        index = len(self.spans)
        self.spans.append(span)
        self._open = index
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            attrs["error"] = type(e).__name__
            raise
        else:
            if post:
                attrs.update(post(result))
            return result
        finally:
            span[END] = time.perf_counter_ns()
            self._open = span[PARENT]

    def wrap(self, name, fn, pre=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, pre, post)

        return traced

    def extend(self, spans, instance):
        """Append spans recorded by a child process, re-indexing their parents."""
        base = len(self.spans)
        for s in spans:
            parent = s[PARENT] + base if s[PARENT] >= 0 else -1
            self.spans.append([s[NAME], s[START], s[END], parent, instance, s[ATTRS]])


def _solve_lp_arithmetic(inst, R, formulation, arithmetic=None):
    exact = inst.exact if arithmetic is None else arithmetic == "exact"
    return {"arithmetic": "exact" if exact else "float"}


def _maximize_shape(c, A, b, exact=True):
    m = len(A)
    return {"exact": bool(exact), "cells": m * (len(c) + m)}


def _btp_states(inst, btree, obj):
    return {"states": btree.size * (inst.k + 1) * (inst.z + 1) * (btree.n_real + 1)}


def _center_sets(inst, obj, *rest, **kw):
    return {"center_sets": comb(inst.n, inst.k)}


# (span name, module, attribute, pre, post): each attribute is the binding the
# caller looks up. cli binds Instance and validate_metric by name; lp reaches
# maximize and its own stages through its globals; perturb binds brute_force.
BINDINGS = (
    ("core.Instance", "cli", "Instance", None, None),
    ("core.validate_metric", "cli", "validate_metric", None, None),
    ("cli.load_instance_file", "cli", "load_instance_file", None, None),
    ("lp.certify", "lp", "certify", None, lambda v: {"kind": v.kind}),
    ("lp.min_feasible_radius", "lp", "min_feasible_radius", None, None),
    ("lp.solve_lp", "lp", "solve_lp", _solve_lp_arithmetic, None),
    ("lp.build_threshold_graph", "lp", "build_threshold_graph", None, None),
    ("lp.extract_integral", "lp", "extract_integral", None,
     lambda c: {"recovered": c is not None}),
    ("simplex.maximize", "lp", "maximize", _maximize_shape, None),
    ("mstdp.solve_outlier_clustering", "mstdp", "solve_outlier_clustering", None, None),
    ("mstdp.build_mst", "mstdp", "build_mst", None, None),
    ("mstdp.binarize", "mstdp", "binarize", None,
     lambda t: {"dummies": t.size - t.n_real}),
    ("mstdp.solve_btp", "mstdp", "solve_btp", _btp_states, None),
    ("oracle.brute_force", "perturb", "brute_force", _center_sets, None),
    ("perturb.apply_perturbation", "perturb", "apply_perturbation", None, None),
    ("perturb.falsify_resilience", "perturb", "falsify_resilience", None,
     lambda r: {"verdict": r.verdict}),
    ("generator.generate", "generator", "generate", None, None),
)


def install(tracer: Tracer, bindings=BINDINGS):
    """Wrap each binding (a module name as in BINDINGS, or a module object);
    return a function that undoes it."""
    saved = []
    for name, module, attr, pre, post in bindings:
        if isinstance(module, str):
            module = importlib.import_module(f"resilient_cluster.{module}")
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, pre, post))

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit, in report order
LAYER_METRICS = {
    "simplex.maximize.exact.calls": "count",
    "simplex.maximize.exact.s": "s",
    "simplex.maximize.float.calls": "count",
    "simplex.maximize.float.s": "s",
    "simplex.maximize.precision_retries": "count",
    "simplex.maximize.tableau_cells": "count",
    "lp.certify.s": "s",
    "lp.min_feasible_radius.s": "s",
    "lp.solve_lp.float.calls": "count",
    "lp.solve_lp.float.s": "s",
    "lp.solve_lp.exact.calls": "count",
    "lp.solve_lp.exact.s": "s",
    "lp.solve_lp.self_s": "s",
    "lp.build_threshold_graph.calls": "count",
    "lp.build_threshold_graph.s": "s",
    "lp.extract_integral.s": "s",
    "lp.extract_integral.recovered_ratio": "ratio",
    "lp.certify.optimal_ratio": "ratio",
    "core.Instance.s": "s",
    "core.validate_metric.s": "s",
    "cli.load_instance_file.s": "s",
    "cli.load_instance_file.self_s": "s",
    "cli.startup_s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.reported_s": "s",
    "mstdp.build_mst.s": "s",
    "mstdp.binarize.s": "s",
    "mstdp.binarize.dummies": "count",
    "mstdp.solve_btp.s": "s",
    "mstdp.solve_btp.states": "count",
    "oracle.brute_force.calls": "count",
    "oracle.brute_force.s": "s",
    "oracle.brute_force.center_sets": "count",
    "perturb.falsify_resilience.s": "s",
    "perturb.apply_perturbation.calls": "count",
    "perturb.apply_perturbation.s": "s",
    "perturb.apply_perturbation.valid_ratio": "ratio",
    "generator.generate.s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(hits: int, total: int) -> float:
    # a layer the workload never calls reports 0 rather than no number
    return hits / total if total else 0.0


def layer_metrics(spans, startup_s, reported_s, overhead_frac) -> dict:
    """Sum the spans into the per-layer metrics; every ``*.s`` is a total."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    calls: dict = {}
    total: dict = {}
    own: dict = {}
    for i, s in enumerate(spans):
        attrs = s[ATTRS]
        keys = [s[NAME]]
        if s[NAME] == "simplex.maximize":
            keys.append("simplex.maximize." + ("exact" if attrs["exact"] else "float"))
        elif s[NAME] == "lp.solve_lp":
            keys.append("lp.solve_lp." + attrs["arithmetic"])
        dur = s[END] - s[START]
        for key in keys:
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0) + dur
            own[key] = own.get(key, 0) + dur - child_ns[i]

    def attr_sum(name, key):
        return sum(s[ATTRS].get(key, 0) for s in spans if s[NAME] == name)

    def attr_count(name, key, value):
        return sum(1 for s in spans if s[NAME] == name and s[ATTRS].get(key) == value)

    values = {}
    for metric in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls.get(base, 0)
        elif field == "s":
            values[metric] = total.get(base, 0) / 1e9
        elif field == "self_s":
            values[metric] = own.get(base, 0) / 1e9
    values.update({
        "simplex.maximize.precision_retries": attr_count(
            "simplex.maximize", "error", "SolverPrecisionExceeded"),
        "simplex.maximize.tableau_cells": attr_sum("simplex.maximize", "cells"),
        "lp.extract_integral.recovered_ratio": _ratio(
            attr_count("lp.extract_integral", "recovered", True),
            calls.get("lp.extract_integral", 0)),
        "lp.certify.optimal_ratio": _ratio(
            attr_count("lp.certify", "kind", "OPTIMAL"), calls.get("lp.certify", 0)),
        "cli.startup_s": startup_s,
        "cli.reported_s": reported_s,
        "mstdp.binarize.dummies": attr_sum("mstdp.binarize", "dummies"),
        "mstdp.solve_btp.states": attr_sum("mstdp.solve_btp", "states"),
        "oracle.brute_force.center_sets": attr_sum("oracle.brute_force", "center_sets"),
        "perturb.apply_perturbation.valid_ratio": _ratio(
            attr_count("perturb.apply_perturbation", "error", None),
            calls.get("perturb.apply_perturbation", 0)),
        "trace.overhead_frac": overhead_frac,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
