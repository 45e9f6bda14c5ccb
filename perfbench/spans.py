"""Spans around girardlab's layers, recorded from outside the program.

`Tracer.install` replaces each layer function named in LAYERS with a
wrapper that records a span (name, start, end, parent, extra).  A name
bound with `from .x import f` is a separate reference in every module
that binds it, so every girardlab module attribute that *is* the
function gets the wrapper; calls inside the defining module go through
its globals and are caught too.  `numpy.linalg.svd` is wrapped as well,
since `subspaces` looks it up on every call.  Wrapped calls nest, so a
span's self time is its duration minus its children's.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Rank cutoff of the commands the benchmark runs (QuantaleContext's and
# the CLI's default), used to split singular values into kept and dropped.
TAU_RANK = 1e-9

LAYERS = {
    "search": ("canonical_key", "enumerate_lattices", "search_integral_residuation",
               "search_unital_residuation"),
    "residuation": ("derive_residua", "check_associative", "classify", "residuated_structure"),
    "orders": ("compute_lattice", "is_distributive", "is_complemented", "is_boolean",
               "check_inversion", "enumerate_inversions"),
    "ortho": ("check_ortholattice", "check_orthomodular", "blocks"),
    "girard": ("find_cyclic_dualizing", "girard_equivalences", "check_dualizer_join_formula",
               "check_boolean_idempotent_criterion", "check_unit_downset_boolean"),
    "structfile": ("load", "serialize"),
    "render": ("render_report",),
    "subspaces": ("mul", "join", "meet", "ortho", "residuum", "equal", "leq",
                  "verify_quantale_laws"),
}

# Name and unit of every per-layer metric, in report order.
METRICS = {
    "search.canonical_key_calls": "count",
    "search.canonical_key_s": "s",
    "search.frontier_posets": "count",
    "search.lattice_share": "ratio",
    "search.enumerate_s": "s",
    "search.integral_nodes": "count",
    "search.integral_s": "s",
    "search.unital_nodes": "count",
    "search.unital_nodes_per_s": "1/s",
    "search.unital_found": "count",
    "search.leaf_check_s": "s",
    "residuation.derive_residua_calls": "count",
    "residuation.derive_residua_s": "s",
    "residuation.check_associative_calls": "count",
    "residuation.check_associative_s": "s",
    "residuation.classify_s": "s",
    "orders.compute_lattice_calls": "count",
    "orders.compute_lattice_s": "s",
    "orders.law_scan_s": "s",
    "orders.enumerate_inversions_s": "s",
    "ortho.law_scan_s": "s",
    "ortho.blocks_s": "s",
    "girard.find_cyclic_dualizing_s": "s",
    "girard.equivalences_s": "s",
    "girard.propositions_s": "s",
    "structfile.load_s": "s",
    "structfile.serialize_s": "s",
    "render.render_report_s": "s",
    "subspaces.mul_calls": "count",
    "subspaces.mul_s": "s",
    "subspaces.lattice_ops_s": "s",
    "subspaces.compare_s": "s",
    "subspaces.svd_calls": "count",
    "subspaces.svd_s": "s",
    "subspaces.svd_flops": "count",
    "subspaces.trials_per_s": "1/s",
    "subspaces.min_kept_sigma_ratio": "ratio",
    "subspaces.max_dropped_sigma_ratio": "ratio",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
}

SEARCHES = ("search.search_integral_residuation", "search.search_unital_residuation")


def _search_extra(args, kwargs, result):
    return [result.nodes, len(result.found)]


def _svd_extra(args, kwargs, result):
    """Input shape, and for the rank-deciding calls (thin SVDs) the least
    kept and the largest dropped singular value relative to the largest."""
    m, n = args[0].shape
    sigma = result[1]
    if kwargs.get("full_matrices", True) or sigma.size == 0 or sigma[0] <= 0:
        return [m, n, None, None]
    ratio = sigma / sigma[0]
    kept = ratio >= TAU_RANK
    return [m, n, float(ratio[kept].min()), float(ratio[~kept].max()) if (~kept).any() else None]


EXTRAS = {
    "search.canonical_key": lambda args, kwargs, result: hash(result),
    "search.search_integral_residuation": _search_extra,
    "search.search_unital_residuation": _search_extra,
    "subspaces.verify_quantale_laws": lambda args, kwargs, result: args[1],
    "numpy.linalg.svd": _svd_extra,
}


class Tracer:
    """Keeps spans in memory as [name, start, end, parent, extra] lists;
    parent is the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack, clock, extra = self.spans, self._open, time.perf_counter, EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def region(self, name, extra=None):
        """A span around a block of the benchmark's own code."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, extra]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def record(self, name, start, end):
        self.spans.append([name, start, end, -1, None])

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "girardlab" or key.startswith("girardlab."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"girardlab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        self._restore.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self.wrap("numpy.linalg.svd", np.linalg.svd)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {name: k for k, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"], "names": names,
                       "spans": [[code[s[0]], *s[1:]] for s in self.spans]}, fh)


def layer_metrics(spans) -> dict:
    """Every per-layer metric of METRICS, derived from the spans alone.
    A metric of a layer the workload never calls reads 0."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    frontier = defaultdict(set)
    lattices = nodes_int = nodes_uni = found_uni = flops = trials = 0
    leaf = 0.0
    kept, dropped = [], []
    for k, (name, start, end, parent, extra) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[k]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "search.canonical_key":
            frontier[parent].add(extra)
        elif name == "orders.compute_lattice" and parent_name == "search.enumerate_lattices":
            lattices += 1
        elif name == "search.search_integral_residuation":
            nodes_int += extra[0]
        elif name == "search.search_unital_residuation":
            nodes_uni += extra[0]
            found_uni += extra[1]
        elif name == "subspaces.verify_quantale_laws":
            trials += extra
        elif name == "numpy.linalg.svd":
            flops += extra[0] * extra[1] * min(extra[0], extra[1])
            if extra[2] is not None:
                kept.append(extra[2])
            if extra[3] is not None:
                dropped.append(extra[3])
        if name in ("residuation.check_associative", "residuation.residuated_structure") \
                and parent_name in SEARCHES:
            leaf += end - start

    def ratio(a, b):
        return a / b if b else 0.0

    def own_sum(layer, *names):
        return sum(own[f"{layer}.{n}"] for n in names)

    posets = sum(len(keys) for keys in frontier.values())
    values = {
        "search.canonical_key_calls": calls["search.canonical_key"],
        "search.canonical_key_s": own["search.canonical_key"],
        "search.frontier_posets": posets,
        "search.lattice_share": ratio(lattices, posets),
        "search.enumerate_s": own["search.enumerate_lattices"],
        "search.integral_nodes": nodes_int,
        "search.integral_s": own["search.search_integral_residuation"],
        "search.unital_nodes": nodes_uni,
        "search.unital_nodes_per_s": ratio(nodes_uni, total["search.search_unital_residuation"]),
        "search.unital_found": found_uni,
        "search.leaf_check_s": leaf,
        "residuation.derive_residua_calls": calls["residuation.derive_residua"],
        "residuation.derive_residua_s": own["residuation.derive_residua"],
        "residuation.check_associative_calls": calls["residuation.check_associative"],
        "residuation.check_associative_s": own["residuation.check_associative"],
        "residuation.classify_s": own["residuation.classify"],
        "orders.compute_lattice_calls": calls["orders.compute_lattice"],
        "orders.compute_lattice_s": own["orders.compute_lattice"],
        "orders.law_scan_s": own_sum("orders", "is_distributive", "is_complemented", "is_boolean",
                                     "check_inversion"),
        "orders.enumerate_inversions_s": own["orders.enumerate_inversions"],
        "ortho.law_scan_s": own_sum("ortho", "check_ortholattice", "check_orthomodular"),
        "ortho.blocks_s": own["ortho.blocks"],
        "girard.find_cyclic_dualizing_s": own["girard.find_cyclic_dualizing"],
        "girard.equivalences_s": own["girard.girard_equivalences"],
        "girard.propositions_s": own_sum("girard", "check_dualizer_join_formula",
                                         "check_boolean_idempotent_criterion",
                                         "check_unit_downset_boolean"),
        "structfile.load_s": own["structfile.load"],
        "structfile.serialize_s": own["structfile.serialize"],
        "render.render_report_s": own["render.render_report"],
        "subspaces.mul_calls": calls["subspaces.mul"],
        "subspaces.mul_s": own["subspaces.mul"],
        "subspaces.lattice_ops_s": own_sum("subspaces", "join", "meet", "ortho", "residuum"),
        "subspaces.compare_s": own_sum("subspaces", "equal", "leq"),
        "subspaces.svd_calls": calls["numpy.linalg.svd"],
        "subspaces.svd_s": own["numpy.linalg.svd"],
        "subspaces.svd_flops": flops,
        "subspaces.trials_per_s": ratio(trials, total["subspaces.verify_quantale_laws"]),
        "subspaces.min_kept_sigma_ratio": min(kept, default=0.0),
        "subspaces.max_dropped_sigma_ratio": max(dropped, default=0.0),
        "setup.import_s": total["setup.import"],
        "setup.inputs_s": total["setup.inputs"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
