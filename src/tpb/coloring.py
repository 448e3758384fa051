"""Edge-coloring toolkit for the demand-routing pipelines.

Kőnig decomposition splits a bipartite multigraph into exactly Δ
matchings via two-color alternating-path swaps.  `vizing_color` properly
colors any loopless multigraph from a palette of Δ+μ colors using the
fan/fold/reduce recoloring argument, which always succeeds within Δ+μ
colors (Berge and Fournier's proof of Vizing's theorem for multigraphs),
so a stalled fan raises StructuralError.
`greedy_list_color` assigns each edge a color from its own admissible
list and is guaranteed to succeed whenever every list is larger than the
edge's adjacency count.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

from .demand import A, B, DemandGraph, V
from .errors import PreconditionError, StructuralError
from .oracle import _BudgetExceeded, search


@dataclass
class MatchingDecomposition:
    """Ordered matchings (as edge-id sets) partitioning a graph's edges."""

    matchings: list[frozenset[int]]


@dataclass
class EdgeColoring:
    """Proper edge coloring; colors are ints (or vertices in list mode)."""

    colors: dict[int, object]
    palette_size: int


#: Lists of admissible colors per edge id, for `greedy_list_color`.
ListAssignment = Mapping[int, frozenset]


def konig_decompose(H: DemandGraph) -> MatchingDecomposition:
    """Partition a bipartite multigraph's edges into exactly Δ matchings."""
    for e in H.edges.values():
        if e.u.side == e.v.side:
            raise PreconditionError("Kőnig decomposition needs a class-crossing graph")
    delta = H.max_degree()
    if delta == 0:
        return MatchingDecomposition([])
    palette = frozenset(range(delta))
    at: dict[V, dict[int, int]] = defaultdict(dict)
    color: dict[int, int] = {}

    def flip_chain(start: V, alpha: int, beta: int) -> None:
        # Swap the two colors along the alternating chain whose first edge
        # is the alpha edge at `start`.  The chain is a simple path because
        # beta is free at `start`.
        chain = []
        w, c = start, alpha
        while c in at[w]:
            eid = at[w][c]
            chain.append(eid)
            w = H.edges[eid].other(w)
            c = beta if c == alpha else alpha
        for eid in chain:
            e = H.edges[eid]
            cc = color[eid]
            del at[e.u][cc]
            del at[e.v][cc]
        for eid in chain:
            cc = beta if color[eid] == alpha else alpha
            color[eid] = cc
            e = H.edges[eid]
            at[e.u][cc] = eid
            at[e.v][cc] = eid

    for eid in sorted(H.edges):
        e = H.edges[eid]
        free_u = palette - at[e.u].keys()
        free_v = palette - at[e.v].keys()
        common = free_u & free_v
        if common:
            c = min(common)
        else:
            alpha = min(free_u)
            beta = min(free_v)
            # The alpha/beta chain from v cannot reach u (parity), so after
            # the swap alpha is free at both endpoints.
            flip_chain(e.v, alpha, beta)
            c = alpha
        color[eid] = c
        at[e.u][c] = eid
        at[e.v][c] = eid

    matchings = [set() for _ in range(delta)]
    for eid, c in color.items():
        matchings[c].add(eid)
    return MatchingDecomposition([frozenset(m) for m in matchings])


def vizing_color(H: DemandGraph) -> EdgeColoring:
    """Properly color a loopless multigraph with at most Δ+μ colors.

    Edges that cannot take a color free at both endpoints are handled by
    building a fan of colored edges around one endpoint and recoloring it:
    either some color is free at the anchor and the last fan vertex
    (fold), or two fan vertices miss a common color and one alternating
    chain swap makes the fan foldable (reduce).  With Δ+μ colors one of
    the two always applies; a stall would be a bug and raises
    StructuralError.
    """
    if not H.edges:
        return EdgeColoring({}, 0)
    palette = frozenset(range(H.max_degree() + H.max_multiplicity()))
    degs = H.degree_map()
    at: dict[V, dict[int, int]] = defaultdict(dict)
    color: dict[int, int] = {}

    def free(w: V) -> frozenset[int]:
        return palette - at[w].keys()

    def assign(eid: int, c: int) -> None:
        e = H.edges[eid]
        old = color.get(eid)
        if old is not None:
            del at[e.u][old]
            del at[e.v][old]
        color[eid] = c
        at[e.u][c] = eid
        at[e.v][c] = eid

    def chain_from(start: V, cb: int, ca: int) -> tuple[list[int], V]:
        chain = []
        w, c = start, cb
        while c in at[w]:
            eid = at[w][c]
            chain.append(eid)
            w = H.edges[eid].other(w)
            c = ca if c == cb else cb
        return chain, w

    def swap(chain: list[int], ca: int, cb: int) -> None:
        for eid in chain:
            e = H.edges[eid]
            cc = color[eid]
            del at[e.u][cc]
            del at[e.v][cc]
        for eid in chain:
            cc = cb if color[eid] == ca else ca
            color[eid] = cc
            e = H.edges[eid]
            at[e.u][cc] = eid
            at[e.v][cc] = eid

    def fold(fan: list[int], rim: list[V], x: V) -> None:
        while True:
            common = free(x) & free(rim[-1])
            if not common:
                raise StructuralError("fan stalled: no color free at the anchor and the last rim")
            last = fan[-1]
            old = color.get(last)
            assign(last, min(common))
            if len(fan) == 1:
                return
            # `old` is now free at x and was missing at an earlier rim vertex.
            idx = None
            for i, w in enumerate(rim[:-1]):
                if old in free(w):
                    idx = i
                    break
            if idx is None:
                raise StructuralError("fan stalled: the freed color is free at no earlier rim")
            del fan[idx + 1:]
            del rim[idx + 1:]

    def reduce(fan: list[int], rim: list[V], x: V, i: int) -> None:
        yi, yn = rim[i], rim[-1]
        a_c = min(free(yi) & free(yn))
        b_c = min(free(x))
        if b_c in free(yi):
            del fan[i + 1:]
            del rim[i + 1:]
            fold(fan, rim, x)
            return
        chain, end = chain_from(yi, b_c, a_c)
        if end != x:
            swap(chain, a_c, b_c)
            del fan[i + 1:]
            del rim[i + 1:]
            fold(fan, rim, x)
            return
        chain, end = chain_from(yn, b_c, a_c)
        if end == x:
            raise StructuralError("fan stalled: both alternating chains end at the anchor")
        swap(chain, a_c, b_c)
        fold(fan, rim, x)

    def fan_color(e0: int) -> None:
        ed = H.edges[e0]
        x, y0 = (ed.u, ed.v) if degs[ed.u] <= degs[ed.v] else (ed.v, ed.u)
        fan = [e0]
        rim = [y0]
        missing = set(free(y0))
        cands = sorted(at[x].values())
        while cands:
            nxt = next((eid for eid in cands if color[eid] in missing), None)
            if nxt is None:
                raise StructuralError("fan stalled: no anchor edge has a color missing on the rim")
            cands.remove(nxt)
            fan.append(nxt)
            yn = H.edges[nxt].other(x)
            rim.append(yn)
            missing |= free(yn)
            if free(x) & free(yn):
                fold(fan, rim, x)
                return
            ri = next(
                (i for i, w in enumerate(rim[:-1]) if w != yn and free(w) & free(yn)),
                None,
            )
            if ri is not None:
                reduce(fan, rim, x, ri)
                return
        raise StructuralError("fan stalled: anchor edges ran out before a fold or reduce")

    for eid in sorted(H.edges):
        e = H.edges[eid]
        common = free(e.u) & free(e.v)
        if common:
            assign(eid, min(common))
            continue
        fan_color(eid)

    return _compact(color)


def _compact(color: dict[int, int]) -> EdgeColoring:
    seen = sorted(set(color.values()))
    remap = {c: i for i, c in enumerate(seen)}
    return EdgeColoring({eid: remap[c] for eid, c in color.items()}, len(seen))


def greedy_list_color(
    H: DemandGraph, lists: ListAssignment, max_nodes: int = 1000
) -> EdgeColoring | None:
    """Proper coloring with colors(e) drawn from L(e), or None on failure.

    Edges are processed in decreasing adjacency order with backtracking
    bounded by `max_nodes` assignments.  Success is guaranteed when every
    list exceeds the number of edges adjacent to its edge, since then the
    first pass can never dead-end.
    """
    if not H.edges:
        return EdgeColoring({}, 0)
    degs = H.degree_map()
    for eid in H.edges:
        if eid not in lists:
            raise PreconditionError(f"edge {eid} has no color list")
    order = sorted(
        H.edges, key=lambda eid: (-(degs[H.edges[eid].u] + degs[H.edges[eid].v]), eid)
    )
    adj = {
        eid: [
            oid
            for oid in order
            if oid != eid
            and (
                H.edges[oid].touches(H.edges[eid].u)
                or H.edges[oid].touches(H.edges[eid].v)
            )
        ]
        for eid in order
    }
    chosen: dict[int, object] = {}
    nodes = 0

    def choices(i: int):
        nonlocal nodes
        eid = order[i]
        for c in sorted(lists[eid]):
            if any(chosen.get(o) == c for o in adj[eid]):
                continue
            nodes += 1
            if nodes > max_nodes:
                raise _BudgetExceeded
            chosen[eid] = c
            yield
            del chosen[eid]

    try:
        if not search(len(order), choices):
            return None
    except _BudgetExceeded:
        return None
    return EdgeColoring(dict(chosen), len(set(chosen.values())))


# -- degree padding ---------------------------------------------------------


def choose_semiregular_targets(D: DemandGraph) -> tuple[int, int]:
    """Smallest feasible semiregular degree pair (targetA, targetB)."""
    degs = D.degree_map()
    da = max((degs[A(i)] for i in range(D.a)), default=0)
    db = max((degs[B(j)] for j in range(D.b)), default=0)
    t = da
    while True:
        if (D.a * t) % D.b == 0 and (D.a * t) // D.b >= db:
            return t, (D.a * t) // D.b
        t += 1


def regularize(D: DemandGraph, target_a: int, target_b: int) -> DemandGraph:
    """Pad D with flagged parallel edges until it is (targetA, targetB)-semiregular."""
    degs = D.degree_map()
    if any(degs[A(i)] > target_a for i in range(D.a)):
        raise PreconditionError("targetA below an existing class-A degree")
    if any(degs[B(j)] > target_b for j in range(D.b)):
        raise PreconditionError("targetB below an existing class-B degree")
    if D.a * target_a != D.b * target_b:
        raise PreconditionError("a*targetA must equal b*targetB")
    def_a = [target_a - degs[A(i)] for i in range(D.a)]
    def_b = [target_b - degs[B(j)] for j in range(D.b)]
    pairs = []
    while True:
        i = max(range(D.a), key=lambda i: (def_a[i], -i))
        if def_a[i] == 0:
            break
        j = max(range(D.b), key=lambda j: (def_b[j], -j))
        pairs.append((A(i), B(j)))
        def_a[i] -= 1
        def_b[j] -= 1
    return D.with_edges(pairs, padding=True)
