"""Constructive solvers for blocked and degree-bounded demand graphs.

`solve_blocked` handles square instances whose classes split into three
aligned, contiguous blocks of the given sizes with no cross-block
demands and Δ <= floor(n/3): each block is padded to regularity and
decomposed into perfect matchings, all of which are lifted onto their
blocks' own class-A vertices in one batch; each block's within-class
edges are then edge-colored, the color of each naming a class-B vertex
of the other blocks to lift it onto.

`solve_quarter` handles general bipartite instances with small class-A
degrees: after semiregular padding, a Kőnig decomposition is re-cut into
one matching of size Δ_A per class-A vertex, each lifted onto its
vertex; the leftover within-class edges then receive distinct class-B
vertices via list coloring from the palette of all B-vertices, where
each edge excludes the at most 2Δ_A B-vertices adjacent to an endpoint,
so the palette size minus the excluded colors exceeds the adjacency
count whenever b > 6Δ_A - 2.  The list coloring is greedy, so success
is guaranteed for Δ_A <= floor((b+1)/6) and attempted up to b/4.
Neither solver copies the graph: `_stage_one` makes the first stage's
within-class pieces from its moves, and colors complete the routes.
"""
from __future__ import annotations

from .coloring import (
    choose_semiregular_targets,
    deficit_pairs,
    greedy_list_color,
    konig_decompose,
    regularize,
    vizing_color,
)
from .demand import DemandGraph, Edge, Resolution, checked_resolution
from .demand import extract_resolution, lift  # noqa: F401 -- perfbench/spans.py HOOKS rebinds these here
from .errors import PreconditionError, StructuralError
from .instances import MAX_DEMANDS

_DECLINE = "degree-bounded solver could not resolve the instance"


def repartition_matchings(
    H: DemandGraph, matchings: list[frozenset[int]], delta_a: int
) -> list[frozenset[int]]:
    """Re-cut Δ_B size-b matchings into a matchings of size Δ_A.

    Each input matching is chunked into full groups; a short leftover is
    carried into one mixed group filled with vertex-disjoint edges of the
    next matching.  Since the leftover has fewer than Δ_A <= b/4 edges it
    blocks under b/2 edges of the next matching, so the fill always
    succeeds, and the total count guarantees nothing is left at the end.
    """
    sizes = {len(m) for m in matchings}
    if len(sizes) > 1 or (sizes and sizes != {H.b}):
        raise PreconditionError("expected matchings that saturate class B")
    if delta_a < 1:
        raise PreconditionError("delta_a must be positive")
    # the carry-fill argument needs delta_a <= b/4; exact chunking never carries
    if 4 * delta_a > H.b and H.b % delta_a != 0:
        raise PreconditionError("repartition requires delta_a <= b/4")
    total = sum(len(m) for m in matchings)
    if total % delta_a != 0:
        raise PreconditionError("total edge count is not a multiple of delta_a")

    groups: list[frozenset[int]] = []
    carry: list[int] = []
    for m in matchings:
        avail = sorted(m)
        k = 0
        if carry:
            blocked = set()
            for eid in carry:
                blocked.add(H.links[eid].u)
                blocked.add(H.links[eid].v)
            picked: list[int] = []
            need = delta_a - len(carry)
            for eid in avail:
                if len(picked) == need:
                    break
                e = H.links[eid]
                if e.u in blocked or e.v in blocked:
                    continue
                picked.append(eid)
                blocked.add(e.u)
                blocked.add(e.v)
            if len(picked) < need:
                raise StructuralError("could not fill the carried matching disjointly")
            taken = set(picked)
            avail = [eid for eid in avail if eid not in taken]
            groups.append(frozenset(carry + picked))
            carry = []
        while len(avail) - k >= delta_a:
            groups.append(frozenset(avail[k:k + delta_a]))
            k += delta_a
        carry = avail[k:]
    if carry:
        raise StructuralError("edges left over after the final matching")
    return groups


def _stage_one(H: DemandGraph, moves: list[tuple[int, int]]) -> tuple[DemandGraph, list[tuple[int, int]]]:
    """What `lift(H, moves)` makes of H's class-crossing edges moved onto class-A slots, without copying H.

    Returns the within-class pieces, each with the id and the (u, v) order
    that `lift` gives it and labelled with the id of its source edge, as a
    graph whose next fresh id follows them; and the (A, B) slot pair of
    each move's cross edge, which is the edge itself when z is its A end.
    """
    a, links = H.a, H.links
    i = H.next_fresh_id
    within: dict[int, Edge] = {}
    cross = []
    for eid, z in moves:
        e = links[eid]
        x, y = (e.u, e.v) if e.u < a else (e.v, e.u)
        if z != x:
            piece = Edge(i, eid, x, z) if e.u < a else Edge(i + 1, eid, z, x)
            within[piece.id] = piece
            i += 2
        cross.append((z, y))
    return DemandGraph(a, H.b, within, i), cross


# -- blocked instances ---------------------------------------------------------


def solve_blocked(D: DemandGraph, sizes: tuple[int, int, int]) -> Resolution:
    """Resolve a block-respecting instance with Δ <= floor(n/3).

    Block k holds the indices from sizes[0] + ... + sizes[k-1] on, in both
    classes.  The construction is guaranteed for equal blocks: there every
    block's Vizing coloring needs at most Δ + μ = 2*floor(n/3) colors, the
    number of class-B vertices in the other two blocks.  A larger block may
    need more colors than that, which raises PreconditionError, as does
    padding to more than MAX_DEMANDS demands, before it is built.  A
    within-class edge of block k is lifted onto a class-B vertex of another
    block, while the B end of its label class lies in block k, so no path
    passes through its own class-B terminal.
    """
    if D.a != D.b:
        raise PreconditionError("blocked solving needs a square base graph")
    n = D.a
    t = n // 3
    if len(sizes) != 3 or sum(sizes) != n or min(sizes) < t:
        raise PreconditionError(f"need three block sizes of at least floor(n/3) = {t} summing to n = {n}")
    degs = D.degree_map()
    if max(degs) > t:
        raise PreconditionError(f"max degree {max(degs)} exceeds floor(n/3) = {t}")
    if n * t > MAX_DEMANDS:
        raise PreconditionError(f"padding to {n * t} demands exceeds the limit of {MAX_DEMANDS}")
    starts = (0, sizes[0], sizes[0] + sizes[1], n)
    blocks = [range(starts[k], starts[k + 1]) for k in range(3)]
    block_links: list[dict[int, Edge]] = [{}, {}, {}]
    for eid, e in D.links.items():
        i, j = (e.u, e.v - n) if e.u < n else (e.v, e.u - n)
        bi = (i >= starts[1]) + (i >= starts[2])
        bj = (j >= starts[1]) + (j >= starts[2])
        if bi != bj:
            raise PreconditionError(f"edge {e.id} joins block {bi + 1} to block {bj + 1}")
        block_links[bi][eid] = e

    # Pad every block to t-regularity with parallel demands of fresh ids.
    fresh = D.next_fresh_id
    for blk, links in zip(blocks, block_links):
        for i, j in deficit_pairs({i: t - degs[i] for i in blk}, {j: t - degs[n + j] for j in blk}):
            links[fresh] = Edge(fresh, fresh, i, n + j)
            fresh += 1

    # Lift the j-th perfect matching of every block onto the block's j-th A-vertex.
    first: dict[int, int] = {}
    pieces = []
    for k, blk in enumerate(blocks):
        H = DemandGraph(n, n, block_links[k], fresh)
        matchings = konig_decompose(H)
        if len(matchings) != t:
            raise StructuralError(f"block {k + 1}: expected {t} matchings, got {len(matchings)}")
        moves = []
        for j, matching in enumerate(matchings):
            if len(matching) != len(blk):
                raise StructuralError(f"block {k + 1}: matching {j} is not perfect")
            moves += ((eid, blk[j]) for eid in sorted(matching))
        pieces.append(_stage_one(H, moves)[0])
        fresh = pieces[-1].next_fresh_id
        first.update(moves)

    # Route each block's within-class edges of color c via the c-th B-vertex of the others.
    second: dict[int, int] = {}
    for k, within in enumerate(pieces):
        if within.max_multiplicity() > 2:
            raise StructuralError(f"block {k + 1}: within-class multiplicity exceeds 2")
        col = vizing_color(within)
        targets = [n + j for j in blocks[(k + 1) % 3]] + [n + j for j in blocks[(k + 2) % 3]]
        used = len(set(col.values()))
        if used > len(targets):
            raise PreconditionError(f"block {k + 1}: {used} colors but only {len(targets)} lift targets")
        second.update((within.links[eid].label, targets[c]) for eid, c in col.items())
    return _routes(D, D, first, second)


# -- degree-bounded instances ----------------------------------------------------


def check_quarter_claims(within: DemandGraph, cross: list[tuple[int, int]], delta_a: int) -> dict[int, int]:
    """Assert the facts the lifting stage must establish; return the exclusion masks.

    `within` holds the within-class edges the stage makes and `cross` the
    (A, B) slot pair of each cross edge it leaves.  A within-class edge uv
    may not be lifted onto a B-vertex next to either end, so it excludes
    `nb[u] | nb[v]`, `nb[x]` being x's cross neighbours as a mask of
    class-B positions (bit y - a for slot y).  Every class-A vertex keeps
    delta_a distinct cross edges, so an edge excludes at most 2*delta_a
    B-slots.
    """
    a = within.a
    nb = [0] * a
    within_deg = [0] * a
    for e in within.links.values():
        if e.u >= a:
            raise StructuralError("lifting created a class-B within edge")
        within_deg[e.u] += 1
        within_deg[e.v] += 1
    for x, y in cross:
        if nb[x] >> (y - a) & 1:
            raise StructuralError("lifting created a parallel cross edge")
        nb[x] |= 1 << (y - a)
    if within.max_multiplicity() > 2:
        raise StructuralError("within-class multiplicity exceeds 2")
    if any(ys.bit_count() != delta_a for ys in nb):
        raise StructuralError("some class-A vertex does not keep delta_a cross edges")
    if max(within_deg) > 2 * delta_a:
        raise StructuralError("within-class degree exceeds 2*delta_a")
    return {e.id: nb[e.u] | nb[e.v] for e in within.links.values()}


def solve_quarter(D: DemandGraph) -> Resolution:
    """Resolve a degree-bounded bipartite instance, or decline with PreconditionError.

    Success is guaranteed when the semiregularized class-A degree is at
    most floor((b+1)/6); anything up to b/4 is attempted, with the list
    coloring allowed bounded backtracking before giving up.  A class-A
    degree above b/4, padding to more than MAX_DEMANDS demands, or a list
    coloring that gives up, raises PreconditionError.  The class-B target
    of a within-class edge is excluded from the cross neighbours of both
    its ends, and those include the B end of its label class, so no path
    passes through its own class-B terminal.  When a < b the construction
    runs on the transposed instance, whose routes are mapped back to D's
    slots.
    """
    if not D.is_bipartite_demand():
        raise PreconditionError("solve_quarter needs a class-crossing demand graph")
    if not D.links:
        return Resolution({})
    T = D.transpose() if D.a < D.b else D
    ta, tb = choose_semiregular_targets(T)
    if 4 * ta > T.b:
        raise PreconditionError(f"{_DECLINE}: class-A degree {ta} exceeds b/4 = {T.b / 4:g}")
    if T.a * ta > MAX_DEMANDS:
        raise PreconditionError(f"{_DECLINE}: padding to {T.a * ta} demands exceeds the limit of {MAX_DEMANDS}")
    reg = regularize(T, ta, tb)
    matchings = konig_decompose(reg)
    if len(matchings) != tb:
        raise StructuralError("semiregular graph did not split into Δ_B matchings")
    groups = repartition_matchings(reg, matchings, ta)
    if len(groups) != reg.a:
        raise StructuralError("repartition did not produce one matching per A-vertex")
    moves = [(eid, i) for i, group in enumerate(groups) for eid in sorted(group)]
    within, cross = _stage_one(reg, moves)
    excluded = check_quarter_claims(within, cross, ta)
    budget = max(1000, within.m + 1)
    col = greedy_list_color(within, range(reg.a, reg.a + reg.b), excluded, max_nodes=budget)
    if col is None:
        raise PreconditionError(f"{_DECLINE}: the list coloring gave up within {budget} nodes")
    return _routes(D, T, dict(moves), {within.links[eid].label: c for eid, c in col.items()})


def _routes(D: DemandGraph, T: DemandGraph, first: dict[int, int], second: dict[int, int]) -> Resolution:
    """Each demand's route x, c, z, y, or x, y where stage 1 left it in place, via `checked_resolution`.

    z and c are its targets in `first` and `second`, keyed by edge id.  Routes are on D's slots
    (T is D or its transpose) and start at the end D lists first.
    """
    back = None if T is D else [*range(T.b, T.b + T.a), *range(T.b)]
    routes: dict[int, tuple[int, ...]] = {}
    for eid in sorted(T.links):
        e = T.links[eid]
        x, y = e.pair()  # class A sorts first
        z = first[eid]
        route = (x, y) if z == x else (x, second[eid], z, y)
        route = route if e.u == x else route[::-1]
        routes[eid] = route if back is None else tuple(back[s] for s in route)
    return checked_resolution(D, routes)
