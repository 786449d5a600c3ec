"""Spans and counters recorded around gchom's public functions, from outside.

`Tracer.install` replaces every public function of the measured layers
(and three public methods) with a wrapper that appends one span
``[name, start, end, parent]`` to an in-memory list.  The package itself
is not modified: wrappers are bound into the module namespaces (and
module-level dicts such as the family builder table) after import.
Observers on a few functions record the counts the per-layer metrics
need; `lru_cache.cache_info()` gives canonical-form cache misses.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("graphs", "complexes", "sparse", "linalg", "cohomology", "kneissler", "cache")

# (module layer, class, method) -> span name
METHODS = {
    ("cache", "FileCache", "basis"): "cache.basis",
    ("cache", "FileCache", "matrix"): "cache.matrix",
    ("linalg", "PreconditionedOperator", "apply"): "linalg.precond_apply",
}

FAMILY_BUILDERS = ("barrel", "x_graph", "y_graph", "a_graph", "a_prime_graph")

# Every per-layer metric of a traced run: (name, unit, better).  The two
# `trace.*` metrics are computed by run.py from traced and untraced runs.
PER_LAYER = [
    ("graphs.canonical_data.calls", "count", "lower"),
    ("graphs.canonical_data.computed", "count", "lower"),
    ("graphs.canonical_data.evicted", "count", "lower"),
    ("graphs.canonical_data.hit_ratio", "ratio", "higher"),
    ("graphs.canonical_data.s", "s", "lower"),
    ("graphs.canonical_data.us_per_computed", "us", "lower"),
    ("graphs.canonicalize.calls", "count", "lower"),
    ("graphs.canonicalize.computed", "count", "lower"),
    ("graphs.canonicalize.s", "s", "lower"),
    ("graphs.self_s", "s", "lower"),
    ("complexes.raw_slice.s", "s", "lower"),
    ("complexes.raw_classes", "count", "higher"),
    ("complexes.vertex_splits.children", "count", "lower"),
    ("complexes.split_yield", "ratio", "higher"),
    ("complexes.enumerate_basis.s", "s", "lower"),
    ("complexes.generators", "count", "higher"),
    ("complexes.zero_dropped", "count", "lower"),
    ("complexes.differential_matrix.s", "s", "lower"),
    ("complexes.contract_edge.calls", "count", "lower"),
    ("complexes.dump_basis.s", "s", "lower"),
    ("complexes.load_basis.s", "s", "lower"),
    ("complexes.self_s", "s", "lower"),
    ("sparse.nnz", "count", "lower"),
    ("sparse.dump_sms.s", "s", "lower"),
    ("sparse.load_sms.s", "s", "lower"),
    ("sparse.sms_bytes", "bytes", "lower"),
    ("sparse.self_s", "s", "lower"),
    ("linalg.reduce_mod_p.s", "s", "lower"),
    ("linalg.gauss_rank.s", "s", "lower"),
    ("linalg.gauss_rank.calls", "count", "lower"),
    ("linalg.wiedemann_rank.s", "s", "lower"),
    ("linalg.wiedemann_rank.self_s", "s", "lower"),
    ("linalg.wiedemann_rank.calls", "count", "lower"),
    ("linalg.precond_apply.calls", "count", "lower"),
    ("linalg.precond_apply.s", "s", "lower"),
    ("linalg.wiedemann_tight_ratio", "ratio", "higher"),
    ("linalg.self_s", "s", "lower"),
    ("cohomology.cohomology_dims.self_s", "s", "lower"),
    ("cohomology.self_s", "s", "lower"),
    ("kneissler.build_families.s", "s", "lower"),
    ("kneissler.family_graphs", "count", "lower"),
    ("kneissler.restricted_differential.s", "s", "lower"),
    ("kneissler.upper_bound.self_s", "s", "lower"),
    ("kneissler.self_s", "s", "lower"),
    ("cache.basis.s", "s", "lower"),
    ("cache.matrix.s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("cache.bytes_read", "bytes", "lower"),
    ("cache.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _slice_key(spec, vertices: int) -> str:
    return f"{spec.parity}-{spec.variant}-g{spec.loops}-V{vertices}"


def _is_public_function(obj, module_name: str) -> bool:
    is_fn = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
    return is_fn and getattr(obj, "__module__", None) == module_name


class Tracer:
    """Span list, counters, and the wrappers that fill them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # exact per-slice counts: kind -> slice key -> value
        self.per_slice: dict[str, dict[str, int]] = defaultdict(dict)
        self.ranks: dict[str, list[tuple]] = {"gauss": [], "wiedemann": []}
        self._lru: dict[str, object] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args) if before else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(args, result, state)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the measured layers' public functions wherever gchom holds them."""
        swap: dict[int, object] = {}  # id(original) -> wrapper, which keeps it alive
        for layer in LAYERS:
            mod = importlib.import_module(f"gchom.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_public_function(obj, mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if hasattr(obj, "cache_info"):
                    self._lru[name] = obj
                swap[id(obj)] = self._wrap(name, obj)
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module(f"gchom.{layer}"), cls_name)
            setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
        # rebind every reference held by a gchom module: imported names and
        # dispatch tables such as kneissler._BUILDERS
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gchom" and not mod_name.startswith("gchom."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swap:
                    setattr(mod, attr, swap[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in swap:
                            obj[key] = swap[id(val)]

    # -- observers (args are positional at every call site in gchom) -------

    def _after_complexes_raw_slice(self, args, result, _):
        loops, vertices = args
        self.per_slice["raw_classes"][f"g{loops}-V{vertices}"] = len(result)

    def _after_complexes_vertex_splits(self, args, result, _):
        self.counts["split_children"] += len(result)

    def _after_complexes_enumerate_basis(self, args, result, _):
        spec, vertices = args
        key = _slice_key(spec, vertices)
        raw = self.per_slice["raw_classes"][f"g{spec.loops}-V{vertices}"]
        self.per_slice["generators"][key] = len(result)
        self.per_slice["zero_dropped"][key] = raw - len(result)

    def _after_complexes_load_basis(self, args, result, _):
        self.per_slice["generators"][_slice_key(result.spec, result.num_vertices)] = len(result)

    def _after_complexes_differential_matrix(self, args, result, _):
        src = args[0]
        self.per_slice["nnz"][_slice_key(src.spec, src.num_vertices)] = result.num_entries

    def _after_sparse_dump_sms(self, args, result, _):
        self.counts["sms_nnz"] += args[0].num_entries
        self.counts["sms_bytes"] += len(result)

    def _after_sparse_load_sms(self, args, result, _):
        self.counts["sms_nnz"] += result.num_entries
        self.counts["sms_bytes"] += len(args[0])

    def _after_linalg_gauss_rank(self, args, result, _):
        m = args[0]
        self.ranks["gauss"].append((m.p, m.nrows, m.ncols, m.num_entries, result.rank))

    def _after_linalg_wiedemann_rank(self, args, result, _):
        m = args[0]
        self.ranks["wiedemann"].append((m.p, m.nrows, m.ncols, m.num_entries, result.rank))

    def _cache_state(self, path):
        return path, path.stat().st_size if path.exists() else None

    def _before_cache_basis(self, cache, spec, vertices):
        return self._cache_state(cache.basis_path(spec, vertices))

    def _before_cache_matrix(self, cache, spec, vertices):
        return self._cache_state(cache.matrix_path(spec, vertices))

    def _after_cache_basis(self, args, result, state):
        path, size = state
        if size is None:
            self.counts["cache_misses"] += 1
            self.counts["cache_bytes_written"] += path.stat().st_size
        else:
            self.counts["cache_hits"] += 1
            self.counts["cache_bytes_read"] += size

    def _after_cache_matrix(self, args, result, state):
        self._after_cache_basis(args, result, state)
        _, spec, vertices = args
        self.per_slice["nnz"][_slice_key(spec, vertices)] = result.num_entries

    # -- results ----------------------------------------------------------

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for the same code and seed."""
        cd = self._lru["graphs.canonical_data"].cache_info()
        calls = Counter(span[0] for span in self.spans)
        return {
            "raw_classes": dict(sorted(self.per_slice["raw_classes"].items())),
            "split_children": self.counts["split_children"],
            "canonical_data.computed": cd.misses,
            "canonical_data.evicted": cd.misses - cd.currsize,
            "generators": dict(sorted(self.per_slice["generators"].items())),
            "nnz": dict(sorted(self.per_slice["nnz"].items())),
            "precond_apply.calls": calls["linalg.precond_apply"],
        }

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the `trace.*` pair."""
        stats = span_stats(self.spans)

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return stats.get(name, (0, 0.0, 0.0))[2]

        out: dict[str, float] = {}
        for name in ("graphs.canonical_data", "graphs.canonicalize"):
            info = self._lru[name].cache_info()
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.computed"] = info.misses
            out[f"{name}.s"] = total(name)
        cd = self._lru["graphs.canonical_data"].cache_info()
        out["graphs.canonical_data.evicted"] = cd.misses - cd.currsize
        out["graphs.canonical_data.hit_ratio"] = _ratio(cd.hits, cd.hits + cd.misses)
        out["graphs.canonical_data.us_per_computed"] = _ratio(
            1e6 * total("graphs.canonical_data"), cd.misses)

        raw = sum(self.per_slice["raw_classes"].values())
        children = self.counts["split_children"]
        out["complexes.raw_slice.s"] = total("complexes.raw_slice")
        out["complexes.raw_classes"] = raw
        out["complexes.vertex_splits.children"] = children
        out["complexes.split_yield"] = _ratio(raw, children)
        out["complexes.generators"] = sum(self.per_slice["generators"].values())
        out["complexes.zero_dropped"] = sum(self.per_slice["zero_dropped"].values())
        out["complexes.contract_edge.calls"] = calls("complexes.contract_edge")
        for fn in ("enumerate_basis", "differential_matrix", "dump_basis", "load_basis"):
            out[f"complexes.{fn}.s"] = total(f"complexes.{fn}")

        out["sparse.nnz"] = self.counts["sms_nnz"]
        out["sparse.sms_bytes"] = self.counts["sms_bytes"]
        out["sparse.dump_sms.s"] = total("sparse.dump_sms")
        out["sparse.load_sms.s"] = total("sparse.load_sms")

        out["linalg.reduce_mod_p.s"] = total("linalg.reduce_mod_p")
        out["linalg.gauss_rank.s"] = total("linalg.gauss_rank")
        out["linalg.gauss_rank.calls"] = calls("linalg.gauss_rank")
        out["linalg.wiedemann_rank.s"] = total("linalg.wiedemann_rank")
        out["linalg.wiedemann_rank.self_s"] = self_s("linalg.wiedemann_rank")
        out["linalg.wiedemann_rank.calls"] = calls("linalg.wiedemann_rank")
        out["linalg.precond_apply.calls"] = calls("linalg.precond_apply")
        out["linalg.precond_apply.s"] = total("linalg.precond_apply")
        gauss = {r[:4]: r[4] for r in self.ranks["gauss"]}
        tight = sum(1 for r in self.ranks["wiedemann"] if gauss.get(r[:4]) == r[4])
        out["linalg.wiedemann_tight_ratio"] = _ratio(tight, len(self.ranks["wiedemann"]))

        out["cohomology.cohomology_dims.self_s"] = self_s("cohomology.cohomology_dims")

        out["kneissler.build_families.s"] = total("kneissler.build_families")
        out["kneissler.family_graphs"] = sum(calls(f"kneissler.{b}") for b in FAMILY_BUILDERS)
        out["kneissler.restricted_differential.s"] = total("kneissler.restricted_differential")
        out["kneissler.upper_bound.self_s"] = self_s("kneissler.upper_bound")

        out["cache.basis.s"] = total("cache.basis")
        out["cache.matrix.s"] = total("cache.matrix")
        out["cache.hits"] = self.counts["cache_hits"]
        out["cache.misses"] = self.counts["cache_misses"]
        out["cache.bytes_written"] = self.counts["cache_bytes_written"]
        out["cache.bytes_read"] = self.counts["cache_bytes_read"]

        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, (_, _, s) in stats.items() if name.split(".")[0] == layer)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write the span list once, as JSON: [name, start, end, parent]."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_stats(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive seconds, self seconds).

    Inclusive time counts only the outermost span of a recursion (a span
    with an ancestor of the same name is already inside that ancestor).
    Self time is a span's duration minus the durations of its children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    incl: Counter = Counter()
    own: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        own[name] += dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += dur
    return {name: (calls[name], incl[name], own[name]) for name in calls}
