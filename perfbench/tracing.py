"""Span tracing of the package's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper in
*every* `ihara_towers` module that binds it (the defining module, the
package namespace and each module that imported it by name), so calls made
through any of those names are seen.  Hot helpers such as `valuation` and
the `IntPoly` methods are deliberately left alone.

Spans (name, start, end, parent) are kept in memory and written out once,
when the run ends.  Importing this module imports nothing from the package,
so a traced child process can time the package import itself.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

PACKAGE = "ihara_towers"
MODULES = (
    "towers_cli",
    "ihara",
    "polyring",
    "graph_core",
    "voltage_cover",
    "mahler",
    "padic_engine",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bits_of(values, tracer):
    bits = max((abs(v).bit_length() for v in values), default=0)
    tracer.gauges["ihara.delta_bits_max"] = max(tracer.gauges["ihara.delta_bits_max"], bits)


def _count_range(args, kwargs, result, tracer):
    tracer.counters["ihara.pierce_lehmer_range.layers"] += _arg(args, kwargs, 1, "n_max")
    _bits_of(result, tracer)


def _count_single(args, kwargs, result, tracer):
    _bits_of((result,), tracer)


def _count_vertices(args, kwargs, result, tracer):
    tracer.counters["graph_core.spanning_tree_count.vertices"] += args[0].vertex_count


def _count_subsets(args, kwargs, result, tracer):
    g = args[0]
    if g.vertex_count > 1:
        tracer.counters["graph_core.spanning_tree_count_bruteforce.subsets"] += math.comb(
            len(g.edge_pairs), g.vertex_count - 1
        )
        tracer.counters["graph_core.spanning_tree_count_bruteforce.trees"] += result


def _count_rows(args, kwargs, result, tracer):
    rows = result.per_n.values()
    tracer.counters["padic_engine.padic_report.layers"] += len(rows)
    tracer.counters["padic_engine.padic_report.structural_rows"] += sum(
        1 for row in rows if row.source == "structural"
    )


# (module, function, counter hook run after the call, outside its span)
TRACED = (
    ("towers_cli", "main", None),
    ("ihara", "analyze", None),
    ("ihara", "ihara_polynomial", None),
    ("ihara", "pierce_lehmer", _count_single),
    ("ihara", "pierce_lehmer_range", _count_range),
    ("ihara", "kappa_sequence", None),
    ("ihara", "kappa_via_formula", None),
    ("ihara", "resultant_row", None),
    ("polyring", "poly_matrix_det", None),
    ("polyring", "divide_exact", None),
    ("polyring", "int_matrix_det", None),
    ("polyring", "resultant", None),
    ("graph_core", "spanning_tree_count", _count_vertices),
    ("graph_core", "spanning_tree_count_bruteforce", _count_subsets),
    ("voltage_cover", "derived_graph", None),
    ("voltage_cover", "monodromy_index", None),
    ("mahler", "mahler_archimedean", None),
    ("mahler", "count_unit_circle_roots", None),
    ("mahler", "mahler_padic", None),
    ("mahler", "archimedean_asymptotic", None),
    ("padic_engine", "padic_report", _count_rows),
    ("padic_engine", "unit_root_structure", None),
    ("padic_engine", "factor_mod_p", None),
    ("padic_engine", "multiplicative_order", None),
    ("padic_engine", "nu_structural", None),
    ("padic_engine", "ord_delta_exact", None),
    ("padic_engine", "iwasawa_invariants", None),
    ("padic_engine", "washington_invariants", None),
    ("padic_engine", "friedman_laws", None),
)


class Tracer:
    """Records spans while `enabled`; a disabled wrapper only forwards the call."""

    def __init__(self):
        self.enabled = False
        self.names = [f"{module}.{func}" for module, func, _ in TRACED]
        # (name index, start, end, parent span index or -1, outermost of its name)
        self.spans = []
        self.counters = defaultdict(int)
        self.gauges = defaultdict(int)
        self._stack = []
        self._active = [0] * len(self.names)
        self._patches = []  # (module, attribute, original)

    def _wrap(self, index, func, hook):
        spans, stack, active = self.spans, self._stack, self._active

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = active[index] == 0
            stack.append(slot)
            active[index] += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[index] -= 1
                stack.pop()
                spans[slot] = (index, start, end, parent, outer)
            if hook is not None:
                hook(args, kwargs, result, self)
            return result

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        """Patch every binding of every traced function; returns the bindings patched."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        namespaces = [sys.modules[PACKAGE]] + modules
        for index, (module, func, hook) in enumerate(TRACED):
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            wrapper = self._wrap(index, original, hook)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patches.append((namespace, attr, original))
        return [(ns.__name__, attr) for ns, attr, _ in self._patches]

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def dump(self, path, extra=None):
        """Write the span table once, at the end of a run."""
        doc = {"names": self.names, "spans": self.spans, "counters": self.counters,
               "gauges": self.gauges}
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


class Profile:
    """Per-name inclusive and self time, call counts, counters and gauges,
    accumulated from one or more span tables."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.gauges = defaultdict(int)

    def add(self, names, spans, counters=None, gauges=None):
        child_time = [0.0] * len(spans)
        for index, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for slot, (index, start, end, parent, outer) in enumerate(spans):
            name = names[index]
            self.calls[name] += 1
            self.self_time[name] += (end - start) - child_time[slot]
            if outer:
                self.inclusive[name] += end - start
        for key, value in (counters or {}).items():
            self.counters[key] += value
        for key, value in (gauges or {}).items():
            self.gauges[key] = max(self.gauges[key], value)

    def add_tracer(self, tracer):
        self.add(tracer.names, tracer.spans, tracer.counters, tracer.gauges)

    def module_self(self):
        out = defaultdict(float)
        for name, value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out
