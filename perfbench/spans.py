"""Span tracing for the traced benchmark run.

``Tracer.installed()`` replaces every public function of each ``discern``
module, at every module-level name it is bound to, with a wrapper that
records a span (request, parent span, layer, function, start, end).  The
layer is the module that defines the function.  A call from inside the
defining module runs unwrapped, except for the few functions in
``INTRA_MODULE`` that carry named metrics, so spans sit on the boundaries
through which one module calls another.  Leaving the context manager puts
the original objects back.

Counters are read only through public surfaces: call arguments, returned
objects and ``cache_info()``.  Counts marked "computed" are derived from
the arguments (e.g. pair masks = g(g-1)/2 for g distinct profiles), not
observed inside the program.  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "scheme", "barrier", "matroid", "trees", "strategies", "tradeoff", "noisy", "checks", "resolver")

INTRA_MODULE = {("strategies", "tag_partition"), ("noisy", "repetitions_for")}

# Functions whose own inclusive time and call count are reported, by metric prefix.
FUNCTION_METRICS = {
    ("matroid", "block_dimension"): "matroid.block_dimension",
    ("strategies", "tag_partition"): "strategies.tag_partition",
    ("strategies", "identify"): "strategies.identify",
    ("noisy", "repetitions_for"): "noisy.repetitions",
    ("resolver", "parse_scenario"): "resolver.parse",
}

# lru_cache'd functions whose cache_info() deltas give trees.cache_hits/misses.
CACHED_TREES = ("optimal_decision_tree", "greedy_decision_tree")


def _pairs(g: int) -> int:
    return g * (g - 1) // 2


def _on_load_scheme(t, a, result):
    t.counts["scheme.in_bytes"] += os.path.getsize(a["path"])


def _on_subset_scan(limit_arg: str):
    """distinguishing_dimension / enumerate_minimal_distinguishing: all k classes."""

    def hook(t, a, result):
        scheme = a["scheme"]
        t.counts["matroid.pair_masks"] += _pairs(scheme.k)
        if scheme.n <= a[limit_arg]:
            t.counts["matroid.subsets"] += 1 << scheme.n

    return hook


def _on_block_dimension(t, a, result):
    scheme = a["scheme"]
    g = len({scheme.profile_ints[m] for m in a["members"]})
    if g > 1:
        t.counts["matroid.pair_masks"] += _pairs(g)
        if scheme.n <= a["exact_limit"]:
            t.counts["matroid.subsets"] += 1 << scheme.n


def _on_pair_scan(t, a, result):
    """closure / is_distinguishing rebuild the k(k-1)/2 pair masks per call."""
    t.counts["matroid.pair_masks"] += _pairs(a["scheme"].k)


def _on_pair_masks(t, a, result):
    t.counts["matroid.pair_masks"] += _pairs(len(a["profile_ints"]))


def _on_adaptive_tree(t, a, tree):
    t.counts["trees.adaptive_calls"] += 1
    t.counts["trees.exact_trees"] += tree.exact
    t.counts["trees.limit_fallbacks"] += not tree.exact
    if id(tree) not in t.trees_seen:
        t.trees_seen[id(tree)] = tree
        nodes, stack = 0, [tree.root]
        while stack:
            node = stack.pop()
            nodes += 1
            if node.zero is not None:
                stack += (node.zero, node.one)
        t.counts["trees.nodes"] += nodes


def _on_tag_partition(t, a, result):
    t.partition_keys.add((a["scheme"], a["tag_bits"]))
    t.counts["strategies.tag_partition_distinct"] = len(t.partition_keys)


def _on_noise(t, a, result):
    trials = a["cfg"].trials
    t.counts["noisy.trials"] += trials
    t.counts["noisy.rng_draws"] += trials * (1 + result.mean_queries)


def _on_check_scheme(t, a, result):
    n = a["scheme"].n
    if n <= a["closure_limit"]:
        t.counts["checks.closure_subsets"] += 2 << n  # axiom scan and exchange scan


def _on_resolve(t, a, result):
    t.counts["resolver.probes"] += len(a["trace"] or ())


# Counter hooks, called after a traced call returns with its bound arguments.
HOOKS = {
    ("scheme", "load_scheme"): _on_load_scheme,
    ("matroid", "distinguishing_dimension"): _on_subset_scan("exact_limit"),
    ("matroid", "enumerate_minimal_distinguishing"): _on_subset_scan("max_n"),
    ("matroid", "block_dimension"): _on_block_dimension,
    ("matroid", "closure"): _on_pair_scan,
    ("matroid", "is_distinguishing"): _on_pair_scan,
    ("matroid", "pair_separation_masks"): _on_pair_masks,
    ("trees", "adaptive_tree"): _on_adaptive_tree,
    ("strategies", "tag_partition"): _on_tag_partition,
    ("noisy", "simulate_noisy_identification"): _on_noise,
    ("checks", "check_scheme"): _on_check_scheme,
    ("resolver", "resolve"): _on_resolve,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield name, obj


class Tracer:
    """Spans and counters of the traced requests, kept in memory."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"discern.{layer}") for layer in LAYERS}
        self.spans: list[tuple] = []
        self.requests: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._cached = [getattr(self.modules["trees"], name) for name in CACHED_TREES]
        self.counts: Counter = Counter()
        self.trees_seen: dict[int, object] = {}
        self.partition_keys: set = set()

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        home = vars(self.modules[layer])
        traced_inside = (layer, name) in INTRA_MODULE
        hook = HOOKS.get((layer, name))
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not traced_inside and sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (len(tracer.requests) - 1, stack[-1] if stack else -1, layer, name, start, end)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every public function at every module-level name bound to it."""
        try:
            for layer, module in self.modules.items():
                for name, fn in list(_public_functions(module)):
                    wrapper = self._wrap(layer, name, fn)
                    for holder in self.modules.values():
                        if vars(holder).get(name) is fn:
                            self._patches.append((holder, name, fn))
                            setattr(holder, name, wrapper)
            yield self
        finally:
            while self._patches:
                holder, name, fn = self._patches.pop()
                setattr(holder, name, fn)

    def _cache_stats(self) -> tuple[int, int]:
        infos = [f.cache_info() for f in self._cached if hasattr(f, "cache_info")]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def begin_request(self, session: int, command: str):
        self.requests.append({"session": session, "command": command, "first_span": len(self.spans)})
        self.counts = Counter()
        self._cache_before = self._cache_stats()

    def end_request(self) -> Counter:
        """Per-layer self time, function times and counters of the request."""
        hits, misses = self._cache_stats()
        metrics = Counter(self.counts)
        metrics["trees.cache_hits"] += hits - self._cache_before[0]
        metrics["trees.cache_misses"] += misses - self._cache_before[1]
        first = self.requests[-1]["first_span"]
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for _, parent, _, _, start, end in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        for (_, _, layer, name, start, end), inner in zip(spans, child_time):
            metrics[f"{layer}.self_ms"] += (end - start - inner) * 1e3
            metrics[f"{layer}.calls"] += 1
            prefix = FUNCTION_METRICS.get((layer, name))
            if prefix:
                metrics[f"{prefix}_ms"] += (end - start) * 1e3
                metrics[f"{prefix}_calls"] += 1
        self.trees_seen, self.partition_keys = {}, set()
        return metrics

    def write(self, path, request_metrics: list[dict]):
        """Write every span and each request's metrics as one JSON document."""
        origin = self.spans[0][4] if self.spans else 0.0
        doc = {
            "span_fields": ["request", "parent", "layer", "function", "start_s", "end_s"],
            "requests": [
                {"session": r["session"], "command": r["command"], "metrics": m}
                for r, m in zip(self.requests, request_metrics)
            ],
            "spans": [[r, p, layer, name, s - origin, e - origin] for r, p, layer, name, s, e in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
