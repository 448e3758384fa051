"""Exact decision procedure for resolvability, plus instance enumeration.

`decide` routes the demands one at a time by depth-first search over
simple alternating paths in the residual base graph.  `search`, the
package's one backtracking loop, drives it without recursion, so the
number of demands is not bounded by Python's recursion limit.  The
demands come in a fixed order in which parallel demands are adjacent,
and each demand's paths in increasing (length, vertex sequence) order.
A search in that order whose every cut discards only partial routings
that no complete routing extends returns the lexicographically first
routing R*, or exhausts its space when there is none.

Two cuts are necessary conditions.  Every vertex must keep one free base
edge per unrouted demand endpoint, and two more to be crossed as an
intermediate; this is checked once at the root, and the filter on
intermediates keeps it true below.  And the routing's total length
cannot exceed the number of free base edges, where parallel demands
admit at most one direct route.

Two more cuts break symmetries, in the lex-leader manner of Crawford,
Ginsberg, Luks and Roy ("Symmetry-breaking predicates for search
problems", 1996).  They discard partial routings that complete routings
do extend, but never a prefix of R*:

1. A demand's path must exceed, in (length, vertex sequence), the path
   of the previous demand on the same pair.  Swapping the two paths of
   a routing that breaks this gives a routing that is smaller at the
   earlier demand, so R* keeps the rule.
2. When a demand's paths are enumerated, call a vertex fresh if it has
   no unrouted demand, no used base edge and is not an endpoint of the
   demand.  A path may cross a fresh vertex only if it is the lowest
   fresh vertex of its side that the path does not yet cross.  If a
   path P crosses a fresh w while the lowest such vertex is w0 < w, the
   transposition (w w0) of base vertices fixes every demand and every
   committed path: a fresh vertex is on no committed path, and so is no
   endpoint of a routed demand either.  It maps each completion R of
   the partial routing to a routing that agrees with R on the earlier
   demands.  Its path for this demand is P with w and w0 exchanged, and
   as neither appears in P before w's place, that path is smaller than
   P.  So no completion of P is R*.

Every cut keeps R*, so the cuts together keep it too: the verdict never
changes, a resolution is the same R* with or without the symmetry cuts,
and only the number of nodes explored falls.  A verdict of
unresolvable is only ever produced by exhausting the reduced space.
`decide(..., symmetry_cuts=False)` makes the necessary-condition cuts
only, and so explores the nodes of the plain lexicographic search.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, permutations
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


def _extend(level, cur: int, nxt: int, remaining: int, options, p_nxt: int, p_cur: int):
    """Extend a demand's partial path by `remaining` >= 2 edges to its B end.

    `level` holds the demand's path so far, its B end, the on-path flags
    and the possible intermediates of each side, the used-edge tables and
    `route`, which applies a complete path.  The path ends at cur, on side
    1 - nxt; its next vertex comes from `options`, and p_s is the number
    of fresh vertices of side s on it.  A module function rather than a
    closure in `decide`, so that no level leaves a reference cycle for the
    garbage collector: the verdict's memory is all that a call keeps.
    """
    seq, bj, on_path, inner, used, route = level
    row, vis = used[1 - nxt][cur], on_path[nxt]
    for w, q in options:
        if vis[w] or row[w]:
            continue
        if q < 0:
            q = p_nxt
        elif q == p_nxt:
            q += 1
        else:
            continue  # w is fresh, and a lower fresh vertex stands in for it
        seq.append(w)
        if remaining > 2:
            vis[w] = True
            yield from _extend(level, w, 1 - nxt, remaining - 1, inner[1 - nxt], p_cur, q)
            vis[w] = False
        elif not used[0][w][bj]:
            seq.append(bj)
            yield from route(seq)
            seq.pop()
        seq.pop()


def decide(D: DemandGraph, budget: SearchBudget, symmetry_cuts: bool = True) -> OracleVerdict:
    """Decide resolvability of a bipartite demand graph in K_{a,b}.

    A resolution is the lexicographically first routing R* of the module
    docstring, with or without `symmetry_cuts`; `nodes_explored` counts
    the paths tried.
    """
    if not D.is_bipartite_demand():
        raise PreconditionError("the oracle decides class-crossing demand graphs")
    a, b = D.a, D.b
    degs = D.degree_map()
    mult = Counter(e.pair() for e in D.edges.values())

    def key(eid):
        e = D.edges[eid]
        return (-mult[e.pair()], -(degs[e.u] + degs[e.v]), e.pair(), eid)

    # Sides are 0 (class A) and 1 (class B).  cnt[s][v] counts the
    # unrouted demands at v on side s.
    demands = []
    cnt = ([0] * a, [0] * b)
    for eid in sorted(D.edges, key=key):
        e = D.edges[eid]
        u, v = (e.u, e.v) if e.u.side == SIDE_A else (e.v, e.u)
        demands.append((eid, u.index, v.index))
        cnt[0][u.index] += 1
        cnt[1][v.index] += 1
    depth = len(demands)

    # used[s][v][w] says whether the base edge between v on side s and w
    # on the other side is taken, and free[s][v] counts v's free edges.
    size = (a, b)
    used_a = [[False] * b for _ in range(a)]
    used_b = [[False] * a for _ in range(b)]
    used = (used_a, used_b)
    free = ([b] * a, [a] * b)
    # free >= cnt at every vertex is necessary, and the cnt + 2 filter on
    # intermediates keeps it true below the root once it holds there.
    if any(c > b for c in cnt[0]) or any(c > a for c in cnt[1]):
        return OracleVerdict(UNRESOLVABLE, None, 0)

    # Parallel demands are adjacent in the key order: pairs[group[k]:] are
    # the distinct pairs of demands[k:].
    pairs: list[tuple[int, int]] = []
    group = []
    for _, ai, bj in demands:
        if not pairs or pairs[-1] != (ai, bj):
            pairs.append((ai, bj))
        group.append(len(pairs) - 1)

    seqs: list[list[int]] = [[] for _ in range(depth)]  # the committed path of each level
    used_total = 0
    nodes = 0
    deadline = time.monotonic() + budget.max_millis / 1000.0

    def commit(seq: list[int], on: bool) -> None:
        nonlocal used_total
        delta = -1 if on else 1
        free_a, free_b = free
        bs = seq[1::2]
        for i, j in chain(zip(seq[::2], bs), zip(seq[2::2], bs)):
            used_a[i][j] = on
            used_b[j][i] = on
            free_a[i] += delta
            free_b[j] += delta
        used_total -= delta * (len(seq) - 1)

    def route(seq: list[int]):
        # seq is a complete path: count the node and apply it
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes:
            raise _BudgetExceeded
        if nodes % 1024 == 0 and time.monotonic() > deadline:
            raise _BudgetExceeded
        commit(seq, True)
        yield
        commit(seq, False)

    def choices(k: int):
        # Counting bound: each group of c parallel demands needs 3c - 2
        # base edges if its direct edge is free, 3c otherwise.
        spare = a * b - used_total - 3 * (depth - k)
        if spare < 0:
            for i, j in pairs[group[k] :]:
                if not used_a[i][j]:
                    spare += 2
                    if spare >= 0:
                        break
            else:
                return
        _, ai, bj = demands[k]
        cnt[0][ai] -= 1
        cnt[1][bj] -= 1
        seq = seqs[k] = [ai]
        # The possible intermediates of each side, as (vertex, its place
        # among the side's fresh vertices or -1).  Crossing v takes two free
        # edges, and each unrouted demand at v needs one more.
        inner: tuple[list[tuple[int, int]], ...] = ([], [])
        for s, end in ((0, ai), (1, bj)):
            c, f, full = cnt[s], free[s], size[1 - s]
            p = 0
            for v in range(size[s]):
                if v != end and f[v] >= c[v] + 2:
                    if c[v] or f[v] < full or not symmetry_cuts:
                        inner[s].append((v, -1))
                    else:
                        inner[s].append((v, p))
                        p += 1
        level = (seq, bj, ([False] * a, [False] * b), inner, used, route)
        if symmetry_cuts and k and group[k] == group[k - 1]:
            # Lex leader: this path must exceed the previous parallel one in
            # (length, vertex sequence).  That path's first edge is taken,
            # so a path of its length exceeds it iff its second vertex does.
            lo = seqs[k - 1]
            first = len(lo) - 1
            above = [x for x in inner[1] if x[0] > lo[1]]
        else:
            first, above = 1, inner[1]
            if not used_a[ai][bj]:
                seq.append(bj)
                yield from route(seq)
                seq.pop()
        for length in range(max(first, 3), 2 * min(a, b), 2):
            yield from _extend(level, ai, 1, length, above if length == first else inner[1], 0, 0)
        cnt[0][ai] += 1
        cnt[1][bj] += 1

    try:
        found = search(depth, choices)
    except _BudgetExceeded:
        return OracleVerdict(UNKNOWN, None, nodes)
    if not found:
        return OracleVerdict(UNRESOLVABLE, None, nodes)
    verts = ([A(i) for i in range(a)], [B(j) for j in range(b)])
    routes = {
        eid: Path(tuple(verts[t % 2][x] for t, x in enumerate(seq)))
        for (eid, _, _), seq in zip(demands, seqs)
    }
    return OracleVerdict(RESOLVABLE, Resolution(routes), nodes)


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
