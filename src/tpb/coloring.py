"""Edge-coloring toolkit for the demand-routing pipelines.

Kőnig decomposition splits a bipartite multigraph into exactly Δ
matchings via two-color alternating-path swaps.  `vizing_color` properly
colors any loopless multigraph from a palette of Δ+μ colors using the
fan/fold/reduce recoloring argument, which always succeeds within Δ+μ
colors (Berge and Fournier's proof of Vizing's theorem for multigraphs),
so a stalled fan raises StructuralError.  `greedy_list_color` assigns
each edge a color from one ordered palette, minus the colors of the
edge's exclusion mask, and is guaranteed to succeed whenever the palette
size minus an edge's excluded colors exceeds the edge's adjacency count.

All three keep each slot's colors as an int bitmask `used[w]`, and a
choice takes the lowest free bit, the least color.  Kőnig and Vizing
also keep `color[eid]` and `at[w]` (color to edge at slot w), and change
that state only through `_paint` and `_flip`, which swaps two colors
along an alternating chain in one walk.
"""
from __future__ import annotations

from heapq import heapify, heapreplace
from math import gcd
from typing import Mapping, Sequence

from .demand import DemandGraph
from .errors import PreconditionError, StructuralError
from .oracle import _BudgetExceeded, search


#: Per edge id, the mask of palette positions (bit k for palette[k]) it may not take.
Exclusions = Mapping[int, int]


def _low(m: int) -> int:
    """The lowest color of a nonzero color bitmask."""
    return (m & -m).bit_length() - 1


def _paint(at, used, color: dict[int, int], eid: int, u: int, v: int, c: int) -> None:
    """Color the uncolored edge eid, between slots u and v, with c, free at both."""
    color[eid] = c
    at[u][c] = eid
    at[v][c] = eid
    used[u] |= 1 << c
    used[v] |= 1 << c


def konig_decompose(H: DemandGraph) -> list[frozenset[int]]:
    """Partition a bipartite multigraph's edges into exactly Δ matchings of edge ids."""
    a, links = H.a, H.links
    delta = H.max_degree()
    full = (1 << delta) - 1
    at: list[dict[int, int]] = [{} for _ in range(a + H.b)]
    used = [0] * (a + H.b)
    color: dict[int, int] = {}

    for eid in sorted(links):
        e = links[eid]
        u, v = e.u, e.v
        if (u < a) == (v < a):
            raise PreconditionError("Kőnig decomposition needs a class-crossing graph")
        common = full & ~(used[u] | used[v])
        if not common:
            alpha = _low(full & ~used[u])
            beta = _low(full & ~used[v])
            # The alpha/beta chain from v cannot reach u (parity), so after
            # the swap alpha is free at both endpoints.
            _flip(links, at, used, color, v, alpha, beta)
            common = 1 << alpha
        _paint(at, used, color, eid, u, v, _low(common))

    matchings = [set() for _ in range(delta)]
    for eid, c in color.items():
        matchings[c].add(eid)
    return [frozenset(m) for m in matchings]


def _chain(links, at, start: int, c1: int, c2: int) -> int:
    """The far end of the c1/c2 alternating chain from `start` (first edge colored c1).

    `at[w]` maps each color at slot w to its edge.  The chain is a simple
    path when c2 is free at `start`.
    """
    w, c = start, c1
    while c in at[w]:
        w = links[at[w][c]].other(w)
        c = c2 if c == c1 else c1
    return w


def _flip(links, at, used, color: dict[int, int], start: int, c1: int, c2: int) -> None:
    """Swap c1 and c2 along the chain from `start`, whose first edge has c1 and where c2 is free.

    Each edge takes its new color as the walk reaches it; only the chain's two ends change `used`.
    """
    w, c, d = start, c1, c2
    eid = at[w].pop(c)
    at[w][d] = eid
    used[w] ^= 1 << c | 1 << d
    while True:
        color[eid] = d
        w = links[eid].other(w)
        at[w][d], eid = eid, at[w].get(d)  # the chain goes on along the edge that had d at w
        if eid is None:
            del at[w][c]
            used[w] ^= 1 << c | 1 << d
            return
        at[w][c] = eid
        c, d = d, c


def vizing_color(H: DemandGraph) -> dict[int, int]:
    """Properly color a loopless multigraph with at most Δ+μ colors.

    Returns each edge id's color; the colors used are 0, 1, ... in order.

    Edges that cannot take a color free at both endpoints are handled by
    building a fan of colored edges around one endpoint and recoloring it:
    either some color is free at the anchor and the last fan vertex
    (fold), or two fan vertices miss a common color and one alternating
    chain swap makes the fan foldable (reduce).  With Δ+μ colors one of
    the two always applies; a stall would be a bug and raises
    StructuralError.
    """
    links = H.links
    full = (1 << (H.max_degree() + H.max_multiplicity())) - 1
    degs = H.degree_map()
    at: list[dict[int, int]] = [{} for _ in degs]
    used = [0] * len(degs)
    color: dict[int, int] = {}

    def free(w: int) -> int:
        return full & ~used[w]

    def fold(fan: list[int], rim: list[int], x: int) -> None:
        while True:
            common = free(x) & free(rim[-1])
            if not common:
                raise StructuralError("fan stalled: no color free at the anchor and the last rim")
            if len(fan) == 1:
                _paint(at, used, color, fan[0], x, rim[0], _low(common))
                return
            old = color[fan[-1]]
            _flip(links, at, used, color, x, old, _low(common))
            # `old` is now free at x and was missing at an earlier rim vertex.
            idx = next((i for i, w in enumerate(rim[:-1]) if not used[w] >> old & 1), None)
            if idx is None:
                raise StructuralError("fan stalled: the freed color is free at no earlier rim")
            del fan[idx + 1:]
            del rim[idx + 1:]

    def reduce(fan: list[int], rim: list[int], x: int, i: int) -> None:
        yi, yn = rim[i], rim[-1]
        a_c = _low(free(yi) & free(yn))
        b_c = _low(free(x))
        # b_c is taken at yi: each rim vertex joined the fan with no color
        # free at it and at x (y0 by e0's own first-fit test), and no color
        # changes while the fan grows.  So the b_c/a_c chain from yi has an edge.
        start = yi
        if _chain(links, at, yi, b_c, a_c) != x:
            del fan[i + 1:]
            del rim[i + 1:]
        else:
            start = yn
            if _chain(links, at, yn, b_c, a_c) == x:
                raise StructuralError("fan stalled: both alternating chains end at the anchor")
        _flip(links, at, used, color, start, b_c, a_c)
        fold(fan, rim, x)

    def fan_color(e0: int) -> None:
        ed = links[e0]
        x, y0 = (ed.u, ed.v) if degs[ed.u] <= degs[ed.v] else (ed.v, ed.u)
        fan = [e0]
        rim = [y0]
        missing = free(y0)
        cands = sorted(at[x].values())
        while cands:
            nxt = next((eid for eid in cands if missing >> color[eid] & 1), None)
            if nxt is None:
                raise StructuralError("fan stalled: no anchor edge has a color missing on the rim")
            cands.remove(nxt)
            fan.append(nxt)
            yn = links[nxt].other(x)
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

    for eid in sorted(links):
        e = links[eid]
        common = full & ~(used[e.u] | used[e.v])
        if common:
            _paint(at, used, color, eid, e.u, e.v, _low(common))
        else:
            fan_color(eid)

    remap = {c: i for i, c in enumerate(sorted(set(color.values())))}
    return {eid: remap[c] for eid, c in color.items()}


def greedy_list_color(
    H: DemandGraph, palette: Sequence, excluded: Exclusions, max_nodes: int = 1000
) -> dict[int, object] | None:
    """Proper coloring with colors(e) drawn from `palette` minus the mask excluded[e], or None.

    Edges are processed in decreasing adjacency order with backtracking
    bounded by `max_nodes` assignments; each edge tries the colors in
    palette order, skipping the taken and the excluded ones.  Success is
    guaranteed when, for every edge, the palette size minus its excluded
    colors exceeds the number of edges adjacent to it, since then the
    first pass can never dead-end.  Colors are bits of palette positions,
    in the exclusion masks as in the search, so a palette that repeats a
    color raises PreconditionError.
    """
    links = H.links
    if len(set(palette)) != len(palette):
        raise PreconditionError("the palette repeats a color")
    full = (1 << len(palette)) - 1
    for eid in links:
        if eid not in excluded:
            raise PreconditionError(f"edge {eid} has no exclusion mask")
    degs = H.degree_map()
    order = sorted(links, key=lambda eid: (-(degs[links[eid].u] + degs[links[eid].v]), eid))
    used = [0] * len(degs)
    chosen: dict[int, int] = {}
    nodes = 0

    def choices(i: int):
        nonlocal nodes
        eid = order[i]
        e = links[eid]
        # only levels < i hold colors while this generator is live
        free = full & ~(used[e.u] | used[e.v] | excluded[eid])
        while free:
            bit = free & -free
            free ^= bit
            nodes += 1
            if nodes > max_nodes:
                raise _BudgetExceeded
            chosen[eid] = bit
            used[e.u] |= bit
            used[e.v] |= bit
            yield
            used[e.u] ^= bit
            used[e.v] ^= bit
            del chosen[eid]

    try:
        if not search(len(order), choices):
            return None
    except _BudgetExceeded:
        return None
    return {eid: palette[bit.bit_length() - 1] for eid, bit in chosen.items()}


# -- degree padding ---------------------------------------------------------


def choose_semiregular_targets(D: DemandGraph) -> tuple[int, int]:
    """Smallest feasible semiregular degree pair (targetA, targetB).

    a*t is a multiple of b exactly when t is one of b // gcd(a, b), and then
    t*a/b >= Δ_B when t >= ceil(Δ_B*b/a); t is the least such multiple >= Δ_A.
    """
    a, b = D.a, D.b
    degs = D.degree_map()
    step = b // gcd(a, b)
    low = max(max(degs[:a]), -(-max(degs[a:]) * b // a))
    t = -(-low // step) * step
    return t, a * t // b


def regularize(D: DemandGraph, target_a: int, target_b: int) -> DemandGraph:
    """Pad D with parallel edges of fresh labels until it is (targetA, targetB)-semiregular."""
    a = D.a
    degs = D.degree_map()
    if max(degs[:a]) > target_a:
        raise PreconditionError("targetA below an existing class-A degree")
    if max(degs[a:]) > target_b:
        raise PreconditionError("targetB below an existing class-B degree")
    if D.a * target_a != D.b * target_b:
        raise PreconditionError("a*targetA must equal b*targetB")
    def_a = {i: target_a - degs[i] for i in range(a)}
    def_b = {j: target_b - degs[a + j] for j in range(D.b)}
    return D.with_slots((i, a + j) for i, j in deficit_pairs(def_a, def_b))


def deficit_pairs(def_a: dict[int, int], def_b: dict[int, int]) -> list[tuple[int, int]]:
    """Pair the largest class-A deficit with the largest class-B one until A has none.

    Returns the (A index, B index) pairs; ties go to the lowest index.
    Both deficit maps, keyed by index within the class, are used up in
    place; an empty def_a gives no pairs.  Each class keeps a heap of
    (-deficit, index) with one entry per index, so a pair costs O(log n).
    """
    heap_a = [(-d, i) for i, d in def_a.items()]
    heap_b = [(-d, j) for j, d in def_b.items()]
    heapify(heap_a)
    heapify(heap_b)
    pairs = []
    while heap_a and heap_a[0][0] < 0:
        nd, i = heap_a[0]
        heapreplace(heap_a, (nd + 1, i))
        nd, j = heap_b[0]
        heapreplace(heap_b, (nd + 1, j))
        pairs.append((i, j))
        def_a[i] -= 1
        def_b[j] -= 1
    return pairs
