"""Spans around calls into triso's layers, recorded from outside the package.

`install` rebinds, in the importing module, each name that one triso module
calls in another (``triso.canonical_form.act``, the ``least_squares`` that
``triso.orbit_oracle`` calls, ``Poly.__call__`` ...) to a wrapper that opens
a span on entry and closes it on exit.  Nothing under ``src/`` changes.

A span holds its name, start, end, parent span and one number taken from
the call's result (iterations, nfev, points).  Polynomial evaluations are
too frequent for a span each: they are counted and timed into the span
that encloses them, which keeps self times exact.  Spans stay in memory
until `write` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
from array import array

import numpy as np

NAN = float("nan")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.leaf_calls = array("i")
        self.leaf_time = array("d")
        self.stack: list[int] = []
        self.leaf_totals: dict[str, list] = {}

    def open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(ident)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.value.append(NAN)
        self.leaf_calls.append(0)
        self.leaf_time.append(0.0)
        self.end.append(NAN)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, value: float = NAN) -> None:
        self.end[idx] = time.perf_counter()
        self.value[idx] = value
        self.stack.pop()

    def wrap(self, fn, name: str, value_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, value_of(result) if value_of else NAN)
            return result

        return traced

    def wrap_leaf(self, fn, name: str):
        tracer = self
        totals = self.leaf_totals.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                if tracer.stack:
                    top = tracer.stack[-1]
                    tracer.leaf_calls[top] += 1
                    tracer.leaf_time[top] += dt

        return counted

    def write(self, path) -> None:
        """Save every span as gzip'd JSON: a name table and one list per field."""
        data = {
            "names": self.names,
            "fields": ["name", "parent", "start", "end", "value", "leaf_calls", "leaf_time"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "value": [None if math.isnan(v) else v for v in self.value],
            "leaf_calls": self.leaf_calls.tolist(),
            "leaf_time": self.leaf_time.tolist(),
            "leaf_totals": self.leaf_totals,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)


# (module, attribute, span name, number kept from the result).  A function
# called from several modules is rebound in each of them to one wrapper.
BOUNDARIES = (
    ("triso.invariants", "expand", "tensor_core.expand", None),
    ("triso.canonical_form", "expand", "tensor_core.expand", None),
    ("triso.orbit_oracle", "expand", "tensor_core.expand", None),
    ("triso.cli", "expand", "tensor_core.expand", None),
    ("triso.canonical_form", "act", "tensor_core.act", None),
    ("triso.cli", "act", "tensor_core.act", None),
    ("triso.canonical_form", "compress", "tensor_core.compress", None),
    ("triso.cli", "compress", "tensor_core.compress", None),
    ("triso.invariants", "smith_bao", "invariants.smith_bao", None),
    ("triso.orbit_oracle", "smith_bao", "invariants.smith_bao", None),
    ("triso.reference_cases", "smith_bao", "invariants.smith_bao", None),
    ("triso.cli", "smith_bao", "invariants.smith_bao", None),
    ("triso.invariants", "canonical_invariants", "invariants.canonical_invariants", None),
    ("triso.canonical_form", "canonicalize", "canonical_form.canonicalize", None),
    ("triso.cli", "canonicalize", "canonical_form.canonicalize", None),
    ("triso.canonical_form", "maximize_cubic_on_sphere", "canonical_form.maximize", lambda r: r.iterations),
    ("triso.canonical_form", "circle_zero_angle", "canonical_form.circle_zero", None),
    ("triso.independence", "independence_report", "independence.independence_report",
     lambda r: r.samples + r.degenerate),
    ("triso.cli", "independence_report", "independence.independence_report", lambda r: r.samples + r.degenerate),
    ("triso.independence", "jacobian_report", "independence.jacobian_report", None),
    ("triso.independence", "jacobian_canonical", "independence.jacobian_canonical", None),
    ("triso.independence", "det_jacobian_closed_form", "independence.det_jacobian_closed_form", None),
    ("triso.independence", "_sample_generic", "independence.sample_generic", len),
    ("triso.orbit_oracle", "same_orbit", "orbit_oracle.same_orbit", None),
    ("triso.cli", "same_orbit", "orbit_oracle.same_orbit", None),
    ("triso.orbit_oracle", "best_alignment", "orbit_oracle.best_alignment", None),
    ("triso.cli", "best_alignment", "orbit_oracle.best_alignment", None),
    ("triso.orbit_oracle", "least_squares", "orbit_oracle.least_squares", lambda r: r.nfev),
    ("triso.reference_cases", "run_report", "reference_cases.run_report", None),
    ("triso.cli", "run_report", "reference_cases.run_report", None),
    ("triso.cli", "main", "cli.main", None),
)

LEAVES = (("triso.polynomials", "Poly", "__call__"), ("triso.polynomials", "Poly", "eval_many"))


def install(tracer: Tracer):
    """Rebind every boundary to a traced wrapper; returns the undo function."""
    undo = []
    wrappers = {}
    for module_name, attr, span, value_of in BOUNDARIES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            # a boundary the program no longer has: its metrics read 0
            continue
        key = id(original)
        if key not in wrappers:
            wrappers[key] = tracer.wrap(original, span, value_of)
        setattr(module, attr, wrappers[key])
        undo.append((module, attr, original))
    for module_name, cls_name, attr in LEAVES:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        original = getattr(cls, "__dict__", {}).get(attr)
        if original is None:
            continue
        setattr(cls, attr, tracer.wrap_leaf(original, "polynomials.Poly"))
        undo.append((cls, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


class Spans:
    """Numpy view of a tracer's spans, with self times and root names."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.name)
        self.names = tracer.names
        self.name = np.array(tracer.name, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.value = np.array(tracer.value, dtype=float)
        self.dur = np.array(tracer.end, dtype=float) - np.array(tracer.start, dtype=float)
        leaf_calls = np.array(tracer.leaf_calls, dtype=np.int64)
        has_parent = self.parent >= 0
        child = np.zeros(n)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child - np.array(tracer.leaf_time, dtype=float)
        # parents open before their children, so one pass in index order
        # finds roots and one in reverse order sums leaf calls per subtree
        root = np.arange(n)
        for i in range(n):
            if self.parent[i] >= 0:
                root[i] = root[self.parent[i]]
        self.root = root
        subtree = leaf_calls.copy()
        for i in range(n - 1, -1, -1):
            if self.parent[i] >= 0:
                subtree[self.parent[i]] += subtree[i]
        self.subtree_leaf_calls = subtree

    def select(self, name: str, roots=None) -> np.ndarray:
        ident = self.names.index(name) if name in self.names else -1
        mask = self.name == ident
        if roots is not None:
            root_ids = [self.names.index(r) for r in roots if r in self.names]
            mask &= np.isin(self.name[self.root], root_ids)
        return np.flatnonzero(mask)


def per_layer(tracer: Tracer, extra: dict) -> dict:
    """Every per-layer metric, as {name: (value, unit)}.

    Times are medians per call of the span's self time (its duration less
    its child spans and the polynomial evaluations inside it), except where
    marked inclusive.  Per-pair and per-point figures divide totals by the
    pairs or points the enclosing benchmark spans handled.  A boundary that
    was never called reads 0.
    """
    s = Spans(tracer)

    def median(name, scale, inclusive=False, roots=None):
        idx = s.select(name, roots)
        vals = (s.dur if inclusive else s.self_time)[idx]
        return float(np.median(vals)) * scale if len(vals) else 0.0

    def per_item(name, roots, what, scale=1.0):
        # a call that raised kept no number from its result: nansum
        n = np.nansum(s.value[np.concatenate([s.select(r) for r in roots])])
        if not n:
            return 0.0
        idx = s.select(name, roots)
        if what == "count":
            total = len(idx)
        else:
            total = np.nansum({"self": s.self_time, "dur": s.dur, "value": s.value}[what][idx])
        return float(total) / n * scale

    planted, random_ = ("orbit.planted",), ("orbit.random",)
    pairs = planted + random_
    reports = s.select("independence.independence_report")
    points = float(np.nansum(s.value[reports]))
    samplers = s.select("independence.sample_generic")
    draws = np.isin(s.parent[s.select("independence.jacobian_canonical")], samplers).sum()
    sampled = float(np.nansum(s.value[samplers]))
    iterations = s.value[s.select("canonical_form.maximize")]
    iterations = iterations[~np.isnan(iterations)]
    poly_calls, poly_time = tracer.leaf_totals.get("polynomials.Poly", (0, 0.0))
    out = {
        "tensor_core.expand_us": (median("tensor_core.expand", 1e6), "us"),
        "tensor_core.act_us": (median("tensor_core.act", 1e6), "us"),
        "tensor_core.compress_us": (median("tensor_core.compress", 1e6), "us"),
        "invariants.smith_bao_us": (median("invariants.smith_bao", 1e6), "us"),
        "invariants.canonical_invariants_us": (median("invariants.canonical_invariants", 1e6, True), "us"),
        "canonical_form.maximize_ms": (median("canonical_form.maximize", 1e3), "ms"),
        "canonical_form.ascent_iterations": (float(np.mean(iterations)) if len(iterations) else 0.0, "iterations"),
        "canonical_form.circle_zero_us": (median("canonical_form.circle_zero", 1e6), "us"),
        "canonical_form.canonicalize_self_us": (median("canonical_form.canonicalize", 1e6), "us"),
        "polynomials.poly_evals_per_point": (float(s.subtree_leaf_calls[reports].sum()) / points if points else 0.0, "evals/point"),
        "polynomials.poly_eval_us": (poly_time / poly_calls * 1e6 if poly_calls else 0.0, "us"),
        "independence.jacobian_report_us": (median("independence.jacobian_report", 1e6), "us"),
        "independence.sample_generic_ms": (median("independence.sample_generic", 1e3, True), "ms"),
        "independence.draws_per_point": (float(draws) / sampled if sampled else 0.0, "draws/point"),
        "orbit_oracle.same_orbit_us": (median("orbit_oracle.same_orbit", 1e6), "us"),
        "orbit_oracle.ascent_planted_ms": (per_item("orbit_oracle.best_alignment", planted, "self", 1e3), "ms"),
        "orbit_oracle.ascent_random_ms": (per_item("orbit_oracle.best_alignment", random_, "self", 1e3), "ms"),
        "orbit_oracle.polish_planted_ms": (per_item("orbit_oracle.least_squares", planted, "dur", 1e3), "ms"),
        "orbit_oracle.polish_random_ms": (per_item("orbit_oracle.least_squares", random_, "dur", 1e3), "ms"),
        "orbit_oracle.lm_calls_per_pair": (per_item("orbit_oracle.least_squares", pairs, "count"), "calls/pair"),
        "orbit_oracle.lm_nfev_per_pair": (per_item("orbit_oracle.least_squares", pairs, "value"), "nfev/pair"),
        "reference_cases.run_report_ms": (median("reference_cases.run_report", 1e3, True), "ms"),
    }
    for name in ("cli.python_start_ms", "cli.import_numpy_ms", "cli.import_triso_ms", "cli.import_scipy_optimize_ms"):
        vals = extra.get(name, [])
        out[name] = (float(np.median(vals)) if vals else 0.0, "ms")
    for kind in ("invariants", "canonicalize", "align"):
        out[f"cli.main_{kind}_ms"] = (median("cli.main", 1e3, True, (f"cli.main_{kind}",)), "ms")
    return out
