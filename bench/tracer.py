"""Span tracer for the benchmark's traced run.

The tracer swaps selected module attributes of the library for wrappers that
record one span per call: name, start, end and the span that was open when
the call began. Generator functions get one span per resumption, so time
spent producing each item is charged to the generator and not to its
consumer. Spans stay in memory until the run ends.

A wrapped name that the library no longer has is skipped and listed in
`absent`; the metrics that depend only on absent names are then reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter

# (module, attribute, group). A group is the unit the per-layer metrics read.
# Each entry wraps a call that crosses from one layer into another, under the
# calling module's own name for the callee.
WRAPS = [
    # the benchmark's own calls into the library
    ("rigikit", "enumerate_constrained", "enumeration"),
    ("rigikit", "is_flexible_circuit", "rigidity"),
    ("rigikit.verify", "classify_flexible_circuits", "verify"),
    # verify -> enumeration, rigidity, canon, constructions
    ("rigikit.verify", "enumerate_constrained", "enumeration"),
    ("rigikit.verify", "is_flexible_circuit", "rigidity"),
    ("rigikit.verify", "canonical_code", "canon"),
    ("rigikit.verify", "build_glued_cliques", "constructions"),
    ("rigikit.verify", "enumerate_glued_cliques_plus", "constructions"),
    # enumeration -> canon, graph, rigidity
    ("rigikit.enumeration", "canon_raw", "canon"),
    ("rigikit.enumeration", "graph6_decode", "decode"),
    ("rigikit.enumeration", "complement", "decode"),
    ("rigikit.enumeration", "is_d_sparse", "filter"),
    ("rigikit.enumeration", "is_k_connected", "filter"),
    # rigidity -> linalg, graph, and its own certificate steps
    ("rigikit.rigidity", "rank_mod_p", "rank"),
    ("rigikit.rigidity", "rank_exact_int", "rank"),
    ("rigikit.rigidity", "rank_and_left_null_mod_p", "null"),
    ("rigikit.rigidity", "random_realization", "matrix"),
    ("rigikit.rigidity", "rigidity_matrix", "matrix"),
    ("rigikit.rigidity", "is_d_sparse", "sparsity"),
    ("rigikit.rigidity", "small_cut", "cut"),
    ("rigikit.rigidity", "is_k_connected", "cut"),
]


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.groups: list[str] = []
        # (name index, start, end, parent span index or -1)
        self.spans: list = []
        self.yields: Counter = Counter()  # items produced, per group
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for mod_name, attr, group in WRAPS:
            mod = sys.modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            nid = len(self.names)
            self.names.append(f"{mod_name}.{attr}")
            self.groups.append(group)
            wrap = self._wrap_gen if inspect.isgeneratorfunction(fn) else self._wrap_call
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrap(fn, nid))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap_call(self, fn, nid: int):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, t0, clock(), parent)
                stack.pop()

        return wrapper

    def _wrap_gen(self, fn, nid: int):
        spans, stack, clock, yields = self.spans, self._stack, self.clock, self.yields
        group = self.groups[nid]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        spans[idx] = (nid, t0, clock(), parent)
                        stack.pop()
                    yields[group] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per group: `calls` and `time` of the outermost spans of the group
        (a span whose parent belongs to the same group is nested work, not a
        new call), and `self`, the summed span time not covered by children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {
            g: {"calls": 0, "time": 0.0, "self": 0.0} for g in self.groups
        }
        groups = self.groups
        for i, (nid, t0, t1, parent) in enumerate(self.spans):
            g = groups[nid]
            s = out[g]
            s["self"] += (t1 - t0) - child[i]
            if parent < 0 or groups[self.spans[parent][0]] != g:
                s["calls"] += 1
                s["time"] += t1 - t0
        return out

    def write(self, path) -> None:
        """One JSON header line with the span names, then one line per span:
        name index, start and end in microseconds from the first span, and
        the parent span index."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "groups": self.groups}) + "\n")
            for nid, t0, t1, parent in self.spans:
                fh.write(f"{nid} {(t0 - base) * 1e6:.1f} {(t1 - base) * 1e6:.1f} {parent}\n")
