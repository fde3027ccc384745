"""Spans and counters for the traced run, installed from the benchmark's files.

``Tracer.install`` wraps each layer's public functions.  Consumer modules
bind exterior (and other) functions with ``from .x import f``, so a wrapper
is set on every plectic module whose attribute *is* the original function,
not only on the defining module.  ``linalg`` is always called as
``linalg.<fn>``, which the same loop covers.  ``uninstall`` restores every
original.

Each wrapper records a span [name, start, end, parent span index] in memory.
A span's self time is its duration minus the durations of its direct
children (calls nest and never overlap in one thread).  The scalar ring is
counted, not timed: it sees hundreds of thousands of constructions per pass,
and a timer on each would swamp the run.
"""
from __future__ import annotations

import json
import statistics
import sys
import types
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYER_FUNCTIONS = {
    "exterior": ("interior", "ext_d", "pullback", "constant_linear_pullback",
                 "poincare_homotopy", "lie_derivative"),
    "linalg": ("eliminate", "solve", "nullspace", "det", "rank"),
    "classify": ("classify6", "extract_acs", "flatness_report", "nondegenerate",
                 "hitchin_endomorphism", "sign_on_chart"),
    "hdw": ("ham_vector_field",),
    "linfty": ("make_observable", "l_k"),
    "liesym": ("conserved_classify",),
    "mover": ("move_points", "jacobian_determinant", "realify_and_check"),
}
CLI_STAGES = ("cli.parse_request", "cli.run", "cli.render")

# (metric name, unit, better) in the order the traced run prints them.
PER_LAYER = (
    [("scalar.constructions", "count", "lower"), ("scalar.mul_calls", "count", "lower"),
     ("scalar.max_terms", "count", "lower"), ("scalar.max_den_bits", "bits", "lower")]
    + [(f"exterior.{fn}.{what}", unit, "lower")
       for fn in ("interior", "ext_d", "wedge", "pullback", "constant_linear_pullback",
                  "poincare_homotopy", "lie_derivative")
       for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"linalg.{fn}.{what}", unit, "lower")
       for fn in LAYER_FUNCTIONS["linalg"]
       for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [("linalg.cells", "count", "lower"), ("linalg.max_rows", "count", "lower"),
       ("linalg.const_ratio", "ratio", "higher"), ("linalg.repeat_ratio", "ratio", "lower")]
    + [(f"classify.{fn}.self_s", "s", "lower") for fn in LAYER_FUNCTIONS["classify"]]
    + [("hdw.ham_vector_field.calls", "count", "lower"),
       ("hdw.ham_vector_field.self_s", "s", "lower"),
       ("hdw.ham_vector_field.not_hamiltonian", "count", "lower")]
    + [(f"linfty.{fn}.{what}", unit, "lower")
       for fn in LAYER_FUNCTIONS["linfty"]
       for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [("liesym.conserved_classify.self_s", "s", "lower")]
    + [(f"mover.{fn}.self_s", "s", "lower") for fn in LAYER_FUNCTIONS["mover"]]
    + [(f"cli.{what}_ms", "ms", "lower")
       for what in ("interp_start", "import", "parse_request", "run", "render")]
    + [("trace.overhead_s", "s", "lower")]
)


def _is_constant(v):
    return getattr(v, "is_constant", True)


class Tracer:
    def __init__(self, solved=None):
        self.spans = []      # [name, start, end, parent index]
        self._stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self.children = []   # summaries and spans of traced child processes
        # printed matrices already solved; share one set between the tracers
        # of a run so that repeats are counted over the whole run
        self._solved = set() if solved is None else solved
        self._scalar = [0, 0, 0, 0]  # constructions, mul calls, max terms, max den bits
        self._undo = []

    # -- spans ----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _wrapper(self, name, fn):
        call = self.call
        if name == "linalg.eliminate":
            def wrapper(matrix, *args, **kwargs):
                self._note_elimination(matrix)
                return call(name, fn, matrix, *args, **kwargs)
        elif name == "linalg.det":
            def wrapper(matrix, *args, **kwargs):
                if len(matrix) >= 4:  # closed forms below 4, elimination above
                    self._note_elimination(matrix)
                return call(name, fn, matrix, *args, **kwargs)
        elif name == "linalg.solve":
            def wrapper(matrix, *args, **kwargs):
                self._note_solve(matrix)
                return call(name, fn, matrix, *args, **kwargs)
        elif name == "hdw.ham_vector_field":
            from plectic.errors import NotHamiltonian

            def wrapper(*args, **kwargs):
                try:
                    return call(name, fn, *args, **kwargs)
                except NotHamiltonian:
                    self.counts["hdw.ham_vector_field.not_hamiltonian"] += 1
                    raise
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters -------------------------------------------------------

    def _note_elimination(self, matrix):
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        self.counts["linalg.eliminations"] += 1
        self.counts["linalg.cells"] += rows * cols
        self.maxima["linalg.max_rows"] = max(self.maxima["linalg.max_rows"], rows)
        if all(_is_constant(v) for row in matrix for v in row):
            self.counts["linalg.const_eliminations"] += 1

    def _note_solve(self, matrix):
        # Keyed on the canonical printed entries, not hash(): RationalExpr
        # breaks the hash contract (x1^2/x1 == x1, different hashes).  Equal
        # entries may still print differently (no gcd cancellation), so the
        # repeat count is a lower bound.
        key = tuple(tuple(str(v) for v in row) for row in matrix)
        self.counts["linalg.solves"] += 1
        if key in self._solved:
            self.counts["linalg.repeat_solves"] += 1
        else:
            self._solved.add(key)

    def _scalar_hooks(self, ScalarExpr, RationalExpr):
        box = self._scalar
        s_init, r_init, s_mul = ScalarExpr.__init__, RationalExpr.__init__, ScalarExpr.__mul__

        def scalar_init(obj, dim, terms=None):
            s_init(obj, dim, terms)
            box[0] += 1
            if len(obj.terms) > box[2]:
                box[2] = len(obj.terms)
            for c in obj.terms.values():
                den = (c.denominator if type(c) is Fraction
                       else max(c.re.denominator, c.im.denominator))
                if den.bit_length() > box[3]:
                    box[3] = den.bit_length()

        def rational_init(obj, num, den=None):
            r_init(obj, num, den)
            box[0] += 1

        def scalar_mul(a, b):
            box[1] += 1
            return s_mul(a, b)

        return [(ScalarExpr, "__init__", scalar_init), (RationalExpr, "__init__", rational_init),
                (ScalarExpr, "__mul__", scalar_mul)]

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import plectic  # noqa: F401  (loads every layer module)
        from plectic import exterior, scalar

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "plectic" or n.startswith("plectic."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"plectic.{layer}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                wrapper = self._wrapper(f"{layer}.{fn_name}", orig)
                for m in modules:
                    if getattr(m, fn_name, None) is orig:
                        self._patch(m, fn_name, wrapper)
        alt = exterior._Alternating  # DiffForm.wedge and the wedge() helper both land here
        self._patch(alt, "wedge", self._wrapper("exterior.wedge", alt.wedge))
        for owner, attr, value in self._scalar_hooks(scalar.ScalarExpr, scalar.RationalExpr):
            self._patch(owner, attr, value)
        cli = sys.modules.get("plectic.cli")
        if cli is not None:
            for stage in ("parse_request", "run"):
                self._patch(cli, stage, self._wrapper(f"cli.{stage}", getattr(cli, stage)))
            # main() renders the report with json.dumps; time it at that binding site
            proxy = types.SimpleNamespace(loads=json.loads,
                                          dumps=self._wrapper("cli.render", json.dumps))
            self._patch(cli, "json", proxy)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- totals -----------------------------------------------------------

    def absorb(self, child):
        """Keep a child process's summary and spans (from ``cli_shim.py``)."""
        self.children.append(child)

    def summary(self):
        """Totals of this tracer's spans, counters and absorbed children."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls, self_s, durations = Counter(), Counter(), defaultdict(list)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_s[i]
            if name in CLI_STAGES:
                durations[name].append(end - start)
        counts = Counter(self.counts)
        counts["scalar.constructions"] += self._scalar[0]
        counts["scalar.mul_calls"] += self._scalar[1]
        maxima = dict(self.maxima, **{"scalar.max_terms": self._scalar[2],
                                      "scalar.max_den_bits": self._scalar[3]})
        own = {"calls": calls, "self_s": self_s, "counts": counts, "maxima": maxima,
               "durations": durations}
        return merge([own] + [c["summary"] for c in self.children])


def merge(summaries):
    """Combine summaries: sums of calls, self time and counts; maxima; durations."""
    total = {"calls": Counter(), "self_s": Counter(), "counts": Counter(),
             "maxima": Counter(), "durations": defaultdict(list)}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            total[key].update(s[key])
        for name, v in s["maxima"].items():
            total["maxima"][name] = max(total["maxima"][name], v)
        for name, values in s["durations"].items():
            total["durations"][name].extend(values)
    return total


def _ms_median(values):
    return statistics.median(values) * 1000 if values else 0.0


def per_layer_metrics(total, passes, overhead_s, interp_start_s, import_s):
    """Per traced pass values of every PER_LAYER metric."""
    calls, self_s, counts, maxima = (total[k] for k in ("calls", "self_s", "counts", "maxima"))
    values = {
        "scalar.constructions": counts["scalar.constructions"] / passes,
        "scalar.mul_calls": counts["scalar.mul_calls"] / passes,
        "scalar.max_terms": maxima["scalar.max_terms"],
        "scalar.max_den_bits": maxima["scalar.max_den_bits"],
        "linalg.cells": counts["linalg.cells"] / passes,
        "linalg.max_rows": maxima["linalg.max_rows"],
        "linalg.const_ratio": (counts["linalg.const_eliminations"] / counts["linalg.eliminations"]
                               if counts["linalg.eliminations"] else 0.0),
        "linalg.repeat_ratio": (counts["linalg.repeat_solves"] / counts["linalg.solves"]
                                if counts["linalg.solves"] else 0.0),
        "hdw.ham_vector_field.not_hamiltonian":
            counts["hdw.ham_vector_field.not_hamiltonian"] / passes,
        "cli.interp_start_ms": interp_start_s * 1000,
        "cli.import_ms": import_s * 1000,
        "cli.parse_request_ms": _ms_median(total["durations"]["cli.parse_request"]),
        "cli.run_ms": _ms_median(total["durations"]["cli.run"]),
        "cli.render_ms": _ms_median(total["durations"]["cli.render"]),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit, _better in PER_LAYER:
        if name not in values:
            fn, what = name.rsplit(".", 1)
            values[name] = (calls.get(fn, 0) if what == "calls" else self_s.get(fn, 0.0)) / passes
        out[name] = {"value": values[name], "unit": unit}
    return out
