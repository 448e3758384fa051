"""Exact decision procedure for resolvability, plus instance enumeration.

Demands are routed one at a time by depth-first search over simple
alternating paths in the residual base graph, shortest paths first.
`search`, the package's one backtracking loop, drives it without
recursion, so the number of demands is not bounded by Python's
recursion limit.  Branches die early on two necessary conditions:
every vertex must retain one free base edge per unrouted demand
endpoint (two more to be crossed as an intermediate), and the total
length of a routing cannot exceed the number of base edges, where
parallel demands admit at most one direct route.  A verdict of
unresolvable is only ever produced by exhausting the whole search space.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterator

from .demand import A, B, SIDE_A, DemandGraph, Path, Resolution
from .errors import PreconditionError

RESOLVABLE = "resolvable"
UNRESOLVABLE = "unresolvable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 5_000_000
    max_millis: int = 60_000

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_millis < 1:
            raise PreconditionError("search budget components must be at least 1")


@dataclass
class OracleVerdict:
    status: str
    resolution: Resolution | None
    nodes_explored: int


class _BudgetExceeded(Exception):
    pass


_EXHAUSTED = object()


def search(depth: int, choices: Callable[[int], Iterator[object]]) -> bool:
    """Depth-first search over levels 0..depth-1 on an explicit stack.

    `choices(k)` returns a generator for level k that applies one option
    per step and yields, and undoes that option when it is resumed.  The
    generators must not undo anything in a `finally` block, because the
    ones left suspended on success are closed by garbage collection.
    Returns True once every level holds an option, with those options
    still applied, or False with the state restored when level 0 runs
    out of options.
    """
    stack: list[Iterator[object]] = []
    while len(stack) < depth:
        stack.append(choices(len(stack)))
        while next(stack[-1], _EXHAUSTED) is _EXHAUSTED:
            stack.pop()
            if not stack:
                return False
    return True


def decide(D: DemandGraph, budget: SearchBudget) -> OracleVerdict:
    """Decide resolvability of a bipartite demand graph in K_{a,b}."""
    if not D.is_bipartite_demand():
        raise PreconditionError("the oracle decides class-crossing demand graphs")
    a, b = D.a, D.b
    degs = D.degree_map()
    mult = Counter(e.pair() for e in D.edges.values())

    def key(eid):
        e = D.edges[eid]
        return (-mult[e.pair()], -(degs[e.u] + degs[e.v]), e.pair(), eid)

    order = sorted(D.edges, key=key)
    demands = []
    for eid in order:
        e = D.edges[eid]
        ai = e.u.index if e.u.side == SIDE_A else e.v.index
        bj = e.v.index if e.u.side == SIDE_A else e.u.index
        demands.append((eid, ai, bj))

    used = [[False] * b for _ in range(a)]
    used_total = 0
    free_a = [b] * a
    free_b = [a] * b
    cnt_a = [0] * a
    cnt_b = [0] * b
    for _, ai, bj in demands:
        cnt_a[ai] += 1
        cnt_b[bj] += 1

    routes: dict[int, Path] = {}
    nodes = 0
    deadline = time.monotonic() + budget.max_millis / 1000.0

    def feasible(k: int) -> bool:
        for i in range(a):
            if free_a[i] < cnt_a[i]:
                return False
        for j in range(b):
            if free_b[j] < cnt_b[j]:
                return False
        groups = Counter((ai, bj) for _, ai, bj in demands[k:])
        need = 0
        for (i, j), c in groups.items():
            need += 3 * c - 2 if not used[i][j] else 3 * c
        return need <= a * b - used_total

    def paths(ai: int, bj: int):
        # Simple alternating paths from A_ai to B_bj in the residual graph,
        # in increasing length; vertices are emitted as index sequences
        # a, b, a, b, ...
        longest = 2 * min(a, b) - 1
        seq = [ai]
        vis_a = {ai}
        vis_b: set[int] = set()

        def step(cur: int, on_a: bool, remaining: int):
            if on_a:
                if remaining == 1:
                    if not used[cur][bj] and bj not in vis_b:
                        seq.append(bj)
                        yield seq
                        seq.pop()
                    return
                for j in range(b):
                    if j == bj or j in vis_b or used[cur][j]:
                        continue
                    if free_b[j] < cnt_b[j] + 2:
                        continue
                    vis_b.add(j)
                    seq.append(j)
                    yield from step(j, False, remaining - 1)
                    seq.pop()
                    vis_b.discard(j)
            else:
                for i in range(a):
                    if i in vis_a or used[i][cur]:
                        continue
                    if free_a[i] < cnt_a[i] + 2:
                        continue
                    vis_a.add(i)
                    seq.append(i)
                    yield from step(i, True, remaining - 1)
                    seq.pop()
                    vis_a.discard(i)

        for length in range(1, longest + 1, 2):
            yield from step(ai, True, length)

    def commit(seq: list[int], on: bool) -> None:
        nonlocal used_total
        for k in range(len(seq) - 1):
            i, j = (seq[k], seq[k + 1]) if k % 2 == 0 else (seq[k + 1], seq[k])
            used[i][j] = on
            delta = -1 if on else 1
            free_a[i] += delta
            free_b[j] += delta
            used_total += 1 if on else -1

    def choices(k: int):
        nonlocal nodes
        if not feasible(k):
            return
        eid, ai, bj = demands[k]
        cnt_a[ai] -= 1
        cnt_b[bj] -= 1
        for seq in paths(ai, bj):
            nodes += 1
            if nodes > budget.max_nodes:
                raise _BudgetExceeded
            if nodes % 1024 == 0 and time.monotonic() > deadline:
                raise _BudgetExceeded
            path = tuple(
                A(x) if t % 2 == 0 else B(x) for t, x in enumerate(seq)
            )
            commit(seq, True)
            routes[eid] = Path(path)
            yield
            del routes[eid]
            commit(seq, False)
        cnt_a[ai] += 1
        cnt_b[bj] += 1

    try:
        found = search(len(demands), choices)
    except _BudgetExceeded:
        return OracleVerdict(UNKNOWN, None, nodes)
    if found:
        return OracleVerdict(RESOLVABLE, Resolution(dict(routes)), nodes)
    return OracleVerdict(UNRESOLVABLE, None, nodes)


# -- exhaustive instance enumeration ----------------------------------------


def _is_canonical(M: list[list[int]], n: int) -> bool:
    """True iff M is the lexicographic minimum of its row/col permutation orbit."""
    flat = tuple(x for row in M for x in row)
    for sigma in permutations(range(n)):
        rows = [M[s] for s in sigma]
        cols = sorted(zip(*rows))
        cand = tuple(x for row in zip(*cols) for x in row)
        if cand < flat:
            return False
    return True


def enumerate_demands(
    n: int, max_edges: int, max_degree: int, canonical: bool = True
):
    """Yield all demand multigraphs on K_{n,n} within the caps.

    With `canonical` set, exactly one representative per orbit of the
    class-preserving vertex permutations is produced.
    """
    M = [[0] * n for _ in range(n)]
    row = [0] * n
    col = [0] * n
    cells = [(i, j) for i in range(n) for j in range(n)]

    def build() -> DemandGraph:
        pairs = []
        for i in range(n):
            for j in range(n):
                pairs.extend([(A(i), B(j))] * M[i][j])
        return DemandGraph.from_pairs(n, n, pairs)

    def rec(idx: int, total: int):
        if idx == len(cells):
            if not canonical or _is_canonical(M, n):
                yield build()
            return
        i, j = cells[idx]
        hi = min(max_degree - row[i], max_degree - col[j], max_edges - total)
        for m in range(hi + 1):
            M[i][j] = m
            row[i] += m
            col[j] += m
            yield from rec(idx + 1, total + m)
            M[i][j] = 0
            row[i] -= m
            col[j] -= m

    yield from rec(0, 0)
