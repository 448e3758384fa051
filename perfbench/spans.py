"""Span recording from outside the program, for the traced run.

`Tracer.install` rebinds public functions in the modules that call them
(`tpb.cli`, `tpb.structured`, `tpb.edge_solver`) to wrappers that record
one span per call: name, start, end, parent span and op id.  Spans stay
in memory until `write` is called at the end of the run; `remove` puts
the original functions back.  A layer's self time is its spans'
durations minus the part covered by their child spans.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

EDGE_CASE_TAGS = (
    "simple", "base", "1.1", "1.2", "1.3", "1.4", "1.5", "2.1", "2.2.1",
    "2.2.2", "2.2.3", "3.1", "3.2.1", "3.2.2", "4",
)


def _count_copy(counts, args, result):
    # lift/edge_lift copy the whole edge dict whenever they return a new graph
    if result is not args[0]:
        counts["demand.edges_copied"] += len(args[0].edges)


def _count_parse(counts, args, result):
    counts["instances.bytes"] += len(args[0])


def _count_serialize(counts, args, result):
    counts["instances.bytes"] += len(result)


def _count_list_pairs(counts, args, result):
    # greedy_list_color builds adjacency by scanning every ordered edge pair
    counts["coloring.list_color.pairs"] += len(args[0].edges) ** 2


def _count_edge_trace(counts, args, result):
    steps = result[1].steps
    counts["edge_solver.levels"] += len(steps)
    for step in steps:
        tag = step.case_tag if step.case_tag in EDGE_CASE_TAGS else "other"
        counts["edge_solver.case." + tag] += 1


def count_decide(counts, args, result):
    counts["oracle.nodes"] += result.nodes_explored
    if result.status == "unresolvable":
        counts["oracle.refuted"] += 1
    elif result.status == "unknown":
        counts["oracle.unknown"] += 1


#: (caller module, function name, span name, counter hook)
HOOKS = (
    ("tpb.cli", "parse_instance", "instances.parse", _count_parse),
    ("tpb.cli", "serialize_resolution", "instances.serialize", _count_serialize),
    ("tpb.cli", "solve_edge_version", "edge_solver.solve", _count_edge_trace),
    ("tpb.cli", "solve_blocked", "structured.blocked", None),
    ("tpb.cli", "solve_quarter", "structured.quarter", None),
    ("tpb.cli", "decide", "oracle.decide", count_decide),
    ("tpb.cli", "verify_resolution", "demand.verify", None),
    ("tpb.structured", "lift", "demand.lift", _count_copy),
    ("tpb.structured", "konig_decompose", "coloring.konig", None),
    ("tpb.structured", "vizing_color", "coloring.vizing", None),
    ("tpb.structured", "regularize", "coloring.regularize", None),
    ("tpb.structured", "greedy_list_color", "coloring.list_color", _count_list_pairs),
    ("tpb.structured", "extract_resolution", "demand.extract", None),
    ("tpb.edge_solver", "edge_lift", "demand.edge_lift", _count_copy),
    ("tpb.edge_solver", "extract_resolution", "demand.extract", None),
    ("tpb.edge_solver", "verify_resolution", "demand.verify", None),
    ("tpb.edge_solver", "decide", "oracle.decide", count_decide),
    ("tpb.edge_solver", "check_conditions", "edge_solver.check_conditions", None),
    ("tpb.edge_solver", "pad_to_full", "edge_solver.pad", None),
    ("tpb.edge_solver", "find_cover_F", "edge_solver.cover", None),
    ("tpb.edge_solver", "place_F", "edge_solver.place", None),
)


class Tracer:
    """In-memory span list plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def install(self) -> None:
        for modname, attr, name, hook in HOOKS:
            mod = sys.modules[modname]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, hook))

    def remove(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Inclusive seconds, self seconds and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[k]
            calls[name] += 1
        return incl, own, calls

    def child_calls(self, child: str, parent: str) -> int:
        """Number of `child` spans opened directly inside a `parent` span."""
        spans = self.spans
        return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([k, name, round(start, 9), round(end, 9), parent, op]) + "\n")
