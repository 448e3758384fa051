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

Call slack(w) the number of free base edges at w less the number of
unrouted demands at w.  Slack never grows: a path that ends at w lowers
both terms by one, and a path that crosses w lowers the first by two.
Four cuts are necessary conditions.

1. Crossing w takes two free edges, and each unrouted demand at w needs
   one more, so a path may cross only vertices of slack at least 2.
2. The routing's total length cannot exceed the number of free base
   edges, where parallel demands admit at most one direct route.
3. Saturation: call w usable for v when the base edge vw is free and
   either an unrouted demand joins v and w, or slack(w) >= 2.  Every v
   needs at least as many usable vertices as it has unrouted demands.
   Each of those demands leaves v by its own free edge vw.  Either w is
   the demand's other end, or the path crosses w, which needs slack(w)
   >= 2 then and so, as slack never grows, now.  Since usable edges are
   free, this also asks every vertex to keep one free edge per unrouted
   demand.  The cut is checked at the root and after every routed path,
   where only the vertices whose usable set the path shrank are looked
   at: the intermediates, the free non-partners of an intermediate whose
   slack fell below 2, and the ends of a pair that lost its last demand.
   It refutes `gen_sharp_edge(n)` at the root: A0 has n demands, but B1,
   of slack 1, leaves it only n - 1 usable vertices.
4. Crossings: a path of length 2t + 1 crosses t vertices of each side,
   so every route but a direct one crosses a vertex of each side, and a
   pair admits one direct route.  The routes still to come cross v at
   most slack(v) // 2 times: 2 crossings(v) + unrouted(v) <= free(v), as
   a crossing takes two free edges at v and an unrouted demand one.  So
   the unrouted demands, less the unrouted pairs whose base edge is free,
   cannot exceed either side's sum of slack // 2.  By cut 1 a crossing
   lowers that sum by exactly one, and both sides are crossed equally
   often, so the smaller sum is its root value less the crossings so
   far: half of the used base edges less the routed demands.

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
changes, a resolution is always R*, and only the number of nodes
explored falls.  A verdict of unresolvable is only ever produced by
exhausting the reduced space.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, permutations
from typing import Callable, Iterator

from .demand import DemandGraph, Resolution
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


@dataclass(slots=True)
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


def _bits(m: int) -> Iterator[int]:
    """The positions of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _extend(level, m: int, nxt: int, remaining: int, on_nxt: int, on_cur: int):
    """Extend a demand's partial path by `remaining` >= 3 edges to its B end.

    `level` holds the demand's path so far, its B end, whether it is the
    last demand on its pair, the bitmasks of each side's possible
    intermediates that are not fresh and of those that are, the free-edge
    bitmasks, `commit` and `retract`, which apply and undo a complete
    path, and `tick`, which counts a step of the search.  The next vertex
    is one of the bits of m, on side nxt: a possible intermediate, off the
    path, joined to the path's end by a free edge.  on_s is the bitmask of
    the vertices of side s on the path.  A fresh vertex may be crossed
    only as the lowest fresh one of its side off the path, so a call costs
    what its masks cost.  A vertex after which the path cannot go on is
    skipped without a call.  A module function rather than a closure in
    `decide`, so that no level leaves a reference cycle for the garbage
    collector: the verdict's memory is all that a call keeps.
    """
    seq, bj, last_demand, inner, fresh, fm, commit, retract, tick = level
    tick()
    cur = 1 - nxt
    spare = fresh[cur] & ~on_cur
    allowed = (inner[cur] | spare & -spare) & ~on_cur
    while m:
        bit = m & -m
        m ^= bit
        w = bit.bit_length() - 1
        if remaining > 3:
            after = fm[nxt][w] & allowed
            if after:
                seq.append(w)
                yield from _extend(level, after, cur, remaining - 1, on_cur, on_nxt | bit)
                seq.pop()
            continue
        # w is on side B; the last intermediate, on side A, is chosen here
        last = fm[1][w] & fm[1][bj] & allowed
        seq.append(w)
        while last:
            x = last & -last
            last ^= x
            seq.append(x.bit_length() - 1)
            seq.append(bj)
            if commit(seq, last_demand):
                yield
            retract(seq)
            seq.pop()
            seq.pop()
        seq.pop()


def decide(D: DemandGraph, budget: SearchBudget) -> OracleVerdict:
    """Decide resolvability of a bipartite demand graph in K_{a,b}.

    A resolution is the lexicographically first routing R* of the module
    docstring; `nodes_explored` counts the paths tried.  Every vertex set
    is a bitmask, and only the demands' ends are visited one by one, so
    beyond one list entry per vertex, set-up and each level cost what the
    demands and the masks cost, however many vertices have no demand.
    """
    if not D.is_bipartite_demand():
        raise PreconditionError("the oracle decides class-crossing demand graphs")
    a, b = D.a, D.b
    links = D.links
    degs = D.degree_map()
    mult = Counter(e.pair() for e in links.values())

    # Sides are 0 (class A) and 1 (class B).  cnt_s[v] counts the unrouted
    # demands at v on side s, and ends_s holds the vertices with demands.
    # Bitmasks over the other side: fm_s[v] holds the w whose base edge to
    # v is free, and pm_s[v] v's partners in unrouted demands.  Over side
    # s: touched_s holds the vertices with a demand or a used base edge,
    # and hi_s those with slack (free edges less unrouted demands) at least
    # 2, at the root every vertex without demands unless the other side has
    # one vertex.  The saturation cut finds fm_a[i] & (pm_a[i] | hi_b)
    # usable for A_i, all of pm_a[i] | hi_b at the root, and a vertex
    # without demands needs none.
    cnt_a, cnt_b = degs[:a], degs[a:]
    pm_a, pm_b = [0] * a, [0] * b
    for i, j in mult:
        pm_a[i] |= 1 << (j - a)
        pm_b[j - a] |= 1 << i
    ends_a, ends_b = {i for i, _ in mult}, {j - a for _, j in mult}
    touched_a, touched_b = sum(1 << i for i in ends_a), sum(1 << j for j in ends_b)
    full_a, full_b = (1 << a) - 1, (1 << b) - 1
    hi_a = full_a & ~sum(1 << i for i in ends_a if b - cnt_a[i] < 2) if b >= 2 else 0
    hi_b = full_b & ~sum(1 << j for j in ends_b if a - cnt_b[j] < 2) if a >= 2 else 0
    if any(cnt_a[i] > (pm_a[i] | hi_b).bit_count() for i in ends_a) or any(
        cnt_b[j] > (pm_b[j] | hi_a).bit_count() for j in ends_b
    ):
        return OracleVerdict(UNRESOLVABLE, None, 0)
    fm_a, fm_b = fm = [full_b] * a, [full_a] * b

    def key(eid):
        e = links[eid]
        return (-mult[e.pair()], -(degs[e.u] + degs[e.v]), e.pair(), eid)

    demands = []
    for eid in sorted(links, key=key):
        i, j = links[eid].pair()
        demands.append((eid, i, j - a))
    depth = len(demands)
    # The crossings the sides admit at the root: the smaller sum of slack // 2.
    cross = min(
        sum((b - cnt_a[i]) // 2 for i in ends_a) + (a - len(ends_a)) * (b // 2),
        sum((a - cnt_b[j]) // 2 for j in ends_b) + (b - len(ends_b)) * (a // 2),
    )
    # Parallel demands are adjacent in the key order: repeat[k] says that
    # demand k is on the pair of demand k - 1.
    repeat = [k > 0 and demands[k - 1][1:] == d[1:] for k, d in enumerate(demands)]

    seqs: list[list[int]] = [[] for _ in range(depth)]  # the committed path of each level
    saved: list[tuple[int, ...]] = []  # hi_s, touched_s, pm_a[ai], pm_b[bj] before each commit
    used_total = 0
    nodes = steps = 0
    max_nodes = budget.max_nodes
    deadline = time.monotonic() + budget.max_millis / 1000.0

    def tick() -> None:
        # Count a step, one per commit and per `_extend` call, so that the
        # deadline bounds the partial paths walked between commits too.
        nonlocal steps
        steps += 1
        if steps % 1024 == 0 and time.monotonic() > deadline:
            raise _BudgetExceeded

    def commit(seq: list[int], last_demand: bool) -> bool:
        # Count a node and route the demand seq[0]-seq[-1] along seq;
        # last_demand says whether it is the last one on its pair.
        # Returns whether the saturation cut still holds.
        nonlocal used_total, nodes, hi_a, hi_b, touched_a, touched_b
        nodes += 1
        if nodes > max_nodes:
            raise _BudgetExceeded
        tick()
        ai, bj = seq[0], seq[-1]
        saved.append((hi_a, hi_b, touched_a, touched_b, pm_a[ai], pm_b[bj]))
        As, Bs = seq[::2], seq[1::2]
        for i, j in zip(As, Bs):
            fm_a[i] ^= 1 << j
            fm_b[j] ^= 1 << i
        # The edges below join each B vertex of the path to the A vertex
        # after it, so each intermediate ends exactly one of them, by which
        # time it has lost its two free edges.  Once its slack falls below
        # 2 it is no longer usable from its free edges without demands.
        shrunk_a = shrunk_b = 0
        inner_a, inner_b = As[1:], Bs[:-1]
        for i, j in zip(inner_a, Bs):
            fm_a[i] ^= 1 << j
            fm_b[j] ^= 1 << i
            touched_a |= 1 << i
            touched_b |= 1 << j
            if fm_a[i].bit_count() < cnt_a[i] + 2:
                hi_a ^= 1 << i
                shrunk_b |= fm_a[i] & ~pm_a[i]
            if fm_b[j].bit_count() < cnt_b[j] + 2:
                hi_b ^= 1 << j
                shrunk_a |= fm_b[j] & ~pm_b[j]
        used_total += len(seq) - 1
        # The ends lose a free edge and a demand each, so their slack holds.
        cnt_a[ai] -= 1
        cnt_b[bj] -= 1
        if last_demand:
            pm_a[ai] ^= 1 << bj
            pm_b[bj] ^= 1 << ai
            shrunk_a |= 1 << ai
            shrunk_b |= 1 << bj
        # The cut held before, so only a vertex whose usable set shrank can
        # break it: an intermediate, a neighbour of one that lost its
        # slack, or an end of a pair that lost its last demand.
        for v in chain(inner_a, _bits(shrunk_a)):
            if cnt_a[v] > (fm_a[v] & (pm_a[v] | hi_b)).bit_count():
                return False
        for v in chain(inner_b, _bits(shrunk_b)):
            if cnt_b[v] > (fm_b[v] & (pm_b[v] | hi_a)).bit_count():
                return False
        return True

    def retract(seq: list[int]) -> None:
        # Undo commit(seq).
        nonlocal used_total, hi_a, hi_b, touched_a, touched_b
        ai, bj = seq[0], seq[-1]
        hi_a, hi_b, touched_a, touched_b, pm_a[ai], pm_b[bj] = saved.pop()
        Bs = seq[1::2]
        for i, j in chain(zip(seq[::2], Bs), zip(seq[2::2], Bs)):
            fm_a[i] ^= 1 << j
            fm_b[j] ^= 1 << i
        used_total -= len(seq) - 1
        cnt_a[ai] += 1
        cnt_b[bj] += 1

    def choices(k: int):
        # Counting bound and crossing bound: each unrouted demand needs 3
        # base edges and crosses a vertex of each side, unless it takes the
        # one direct route its pair admits, which needs a free direct edge.
        # Each side has been crossed (used_total - k) // 2 times so far.
        rest = depth - k
        spare = a * b - used_total - 3 * rest
        left = cross - (used_total - k) // 2
        if spare < 0 or left < rest:
            direct = sum((fm_a[i] & pm_a[i]).bit_count() for i in ends_a)
            if spare + 2 * direct < 0 or left < rest - direct:
                return
        _, ai, bj = demands[k]
        seq = seqs[k] = [ai]
        # The possible intermediates of each side: crossing v takes two free
        # edges, and each unrouted demand at v needs one more.  inner[s]
        # holds those that are touched, and fresh[s] the others.
        possible_a, possible_b = hi_a & ~(1 << ai), hi_b & ~(1 << bj)
        inner = (possible_a & touched_a, possible_b & touched_b)
        fresh = (possible_a ^ inner[0], possible_b ^ inner[1])
        last_demand = k + 1 == depth or not repeat[k + 1]
        level = (seq, bj, last_demand, inner, fresh, fm, commit, retract, tick)
        if repeat[k]:
            # Lex leader: this path must exceed the previous parallel one in
            # (length, vertex sequence).  That path's first edge is taken,
            # so a path of its length exceeds it iff its second vertex does.
            lo = seqs[k - 1]
            first = len(lo) - 1
            above = -2 << lo[1]
        else:
            first, above = 1, -1
            if fm_a[ai] >> bj & 1:
                seq.append(bj)
                if commit(seq, last_demand):
                    yield
                retract(seq)
                seq.pop()
        # A path of length 2t + 1 crosses t intermediates of each side.
        t = min(possible_a.bit_count(), possible_b.bit_count())
        step = fm_a[ai] & (inner[1] | fresh[1] & -fresh[1])
        for length in range(max(first, 3), 2 * t + 2, 2):
            yield from _extend(level, step & above if length == first else step, 1, length, 0, 0)

    try:
        found = search(depth, choices)
    except _BudgetExceeded:
        return OracleVerdict(UNKNOWN, None, nodes)
    if not found:
        return OracleVerdict(UNRESOLVABLE, None, nodes)
    routes = {eid: tuple(x + a * (t % 2) for t, x in enumerate(seq)) for (eid, _, _), seq in zip(demands, seqs)}
    return OracleVerdict(RESOLVABLE, Resolution.of_slots(a, routes), nodes)


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


def enumerate_demands(n: int, max_edges: int, max_degree: int):
    """Yield one demand multigraph on K_{n,n} within the caps per orbit.

    The orbits are those of the class-preserving vertex permutations.
    """
    M = [[0] * n for _ in range(n)]
    row = [0] * n
    col = [0] * n
    cells = [(i, j) for i in range(n) for j in range(n)]

    def build() -> DemandGraph:
        pairs = []
        for i in range(n):
            for j in range(n):
                pairs.extend([(i, n + j)] * M[i][j])
        return DemandGraph.empty(n, n).with_slots(pairs)

    def rec(idx: int, total: int):
        if idx == len(cells):
            if _is_canonical(M, n):
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
