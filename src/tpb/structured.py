"""Constructive solvers for blocked and degree-bounded demand graphs.

`solve_blocked` handles square instances whose classes split into three
aligned blocks with no cross-block demands and Δ <= floor(n/3): each
block is padded to regularity, decomposed into perfect matchings that
are lifted onto the block's own class-A vertices, and the resulting
within-class edges are edge-colored and lifted onto the other blocks'
class-B vertices.

`solve_quarter` handles general bipartite instances with small class-A
degrees: after semiregular padding, a Kőnig decomposition is re-cut into
one matching of size Δ_A per class-A vertex, each lifted onto its
vertex; the leftover within-class edges then receive distinct class-B
vertices via list coloring from the palette of all B-vertices, where
each edge excludes the at most 2Δ_A B-vertices adjacent to an endpoint,
so the palette size minus the excluded colors exceeds the adjacency
count whenever b > 6Δ_A - 2.  The list coloring is greedy, so success
is guaranteed for Δ_A <= floor((b+1)/6) and attempted up to b/4.
Each lifting stage is one batched `lift` call: one edge-dict copy.
"""
from __future__ import annotations

from dataclasses import dataclass

from .coloring import (
    MatchingDecomposition,
    choose_semiregular_targets,
    deficit_pairs,
    greedy_list_color,
    konig_decompose,
    regularize,
    vizing_color,
)
from .demand import (
    A,
    B,
    SIDE_A,
    DemandGraph,
    Resolution,
    V,
    extract_resolution,
    lift,
    transpose_resolution,
)
from .errors import PreconditionError, StructuralError


@dataclass(frozen=True)
class BlockPartition:
    """Three aligned index blocks per class, pairwise equal sizes."""

    u_blocks: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    v_blocks: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    @staticmethod
    def from_sizes(sizes: tuple[int, int, int]) -> "BlockPartition":
        starts = [0, sizes[0], sizes[0] + sizes[1]]
        blocks = tuple(
            tuple(range(starts[k], starts[k] + sizes[k])) for k in range(3)
        )
        return BlockPartition(blocks, blocks)

    def validate(self, n: int) -> None:
        t = n // 3
        for blocks, label in ((self.u_blocks, "A"), (self.v_blocks, "B")):
            seen: set[int] = set()
            for blk in blocks:
                for i in blk:
                    if not 0 <= i < n:
                        raise PreconditionError(f"class-{label} block index {i} out of range")
                    if i in seen:
                        raise PreconditionError(f"class-{label} blocks overlap at {i}")
                    seen.add(i)
            if len(seen) != n:
                raise PreconditionError(f"class-{label} blocks do not cover the class")
        for k in range(3):
            if len(self.u_blocks[k]) != len(self.v_blocks[k]):
                raise PreconditionError(f"block {k + 1} has unequal class sizes")
            if len(self.u_blocks[k]) < t:
                raise PreconditionError(f"block {k + 1} smaller than floor(n/3)")


@dataclass
class RepartitionResult:
    """a matchings of size Δ_A partitioning the decomposed edge set."""

    matchings: list[frozenset[int]]


def repartition_matchings(
    H: DemandGraph, dec: MatchingDecomposition, delta_a: int
) -> RepartitionResult:
    """Re-cut Δ_B size-b matchings into a matchings of size Δ_A.

    Each input matching is chunked into full groups; a short leftover is
    carried into one mixed group filled with vertex-disjoint edges of the
    next matching.  Since the leftover has fewer than Δ_A <= b/4 edges it
    blocks under b/2 edges of the next matching, so the fill always
    succeeds, and the total count guarantees nothing is left at the end.
    """
    sizes = {len(m) for m in dec.matchings}
    if len(sizes) > 1 or (sizes and sizes != {H.b}):
        raise PreconditionError("expected matchings that saturate class B")
    if delta_a < 1:
        raise PreconditionError("delta_a must be positive")
    # the carry-fill argument needs delta_a <= b/4; exact chunking never carries
    if 4 * delta_a > H.b and H.b % delta_a != 0:
        raise PreconditionError("repartition requires delta_a <= b/4")
    total = sum(len(m) for m in dec.matchings)
    if total % delta_a != 0:
        raise PreconditionError("total edge count is not a multiple of delta_a")

    groups: list[frozenset[int]] = []
    carry: list[int] = []
    for m in dec.matchings:
        avail = sorted(m)
        if carry:
            blocked = set()
            for eid in carry:
                blocked.add(H.edges[eid].u)
                blocked.add(H.edges[eid].v)
            picked: list[int] = []
            need = delta_a - len(carry)
            for eid in avail:
                if len(picked) == need:
                    break
                e = H.edges[eid]
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
        while len(avail) >= delta_a:
            groups.append(frozenset(avail[:delta_a]))
            avail = avail[delta_a:]
        carry = avail
    if carry:
        raise StructuralError("edges left over after the final matching")
    return RepartitionResult(groups)


# -- blocked instances ---------------------------------------------------------


def solve_blocked(D: DemandGraph, part: BlockPartition) -> Resolution:
    """Resolve a block-respecting instance with Δ <= floor(n/3)."""
    if D.a != D.b:
        raise PreconditionError("blocked solving needs a square base graph")
    n = D.a
    part.validate(n)
    t = n // 3
    if D.max_degree() > t:
        raise PreconditionError(f"max degree {D.max_degree()} exceeds floor(n/3) = {t}")
    block_of_a = {}
    block_of_b = {}
    for k in range(3):
        for i in part.u_blocks[k]:
            block_of_a[i] = k
        for j in part.v_blocks[k]:
            block_of_b[j] = k
    for e in D.edges.values():
        i = e.u.index if e.u.side == SIDE_A else e.v.index
        j = e.v.index if e.u.side == SIDE_A else e.u.index
        if block_of_a[i] != block_of_b[j]:
            raise PreconditionError(f"edge {e.id} joins block {block_of_a[i] + 1} to block {block_of_b[j] + 1}")

    # Pad every block to t-regularity with flagged parallel demands.
    degs = D.degree_map()
    pairs = []
    for k in range(3):
        def_a = {i: t - degs[A(i)] for i in part.u_blocks[k]}
        def_b = {j: t - degs[B(j)] for j in part.v_blocks[k]}
        pairs += deficit_pairs(def_a, def_b)
    G = padded = D.with_edges(pairs, padding=True)

    for k in range(3):
        if not part.u_blocks[k]:
            continue
        ua = sorted(part.u_blocks[k])
        vb = sorted(part.v_blocks[k])
        sub = G.induced({A(i) for i in ua} | {B(j) for j in vb})
        dec = konig_decompose(sub)
        if len(dec.matchings) != t:
            raise StructuralError(f"block {k + 1}: expected {t} matchings, got {len(dec.matchings)}")
        for j, matching in enumerate(dec.matchings):
            if len(matching) != len(ua):
                raise StructuralError(f"block {k + 1}: matching {j} is not perfect")
        G = lift(G, ((eid, A(ua[j])) for j, m in enumerate(dec.matchings) for eid in sorted(m)))
        within = G.induced({A(i) for i in ua})
        if within.max_multiplicity() > 2:
            raise StructuralError(f"block {k + 1}: within-class multiplicity exceeds 2")
        col = vizing_color(within)
        targets = [B(j) for j in sorted(part.v_blocks[(k + 1) % 3])] + [
            B(j) for j in sorted(part.v_blocks[(k + 2) % 3])
        ]
        if col.palette_size > len(targets):
            raise StructuralError(
                f"block {k + 1}: {col.palette_size} colors but only {len(targets)} lift targets"
            )
        by_color: dict[int, list[int]] = {}
        for eid, c in col.colors.items():
            by_color.setdefault(c, []).append(eid)
        G = lift(G, ((eid, targets[c]) for c in sorted(by_color) for eid in sorted(by_color[c])))

    res = extract_resolution(G, padded)
    return Resolution({eid: res.routes[eid] for eid in D.edges})


# -- degree-bounded instances ----------------------------------------------------


def quarter_lift(G: DemandGraph, groups: RepartitionResult) -> DemandGraph:
    """Lift the i-th matching onto the i-th class-A vertex."""
    return lift(G, ((eid, A(i)) for i, group in enumerate(groups.matchings) for eid in sorted(group)))


def check_quarter_claims(G: DemandGraph, delta_a: int) -> None:
    """Assert the structural facts the lifting stage must establish."""
    cross = {}
    within_mult: dict[tuple[V, V], int] = {}
    within_deg: dict[V, int] = {}
    to_b = [0] * G.a
    for e in G.edges.values():
        if e.u.side == e.v.side:
            if e.u.side != SIDE_A:
                raise StructuralError("lifting created a class-B within edge")
            key = e.pair()
            within_mult[key] = within_mult.get(key, 0) + 1
            within_deg[e.u] = within_deg.get(e.u, 0) + 1
            within_deg[e.v] = within_deg.get(e.v, 0) + 1
        else:
            key = e.pair()
            if key in cross:
                raise StructuralError("lifting created a parallel cross edge")
            cross[key] = e.id
            i = e.u.index if e.u.side == SIDE_A else e.v.index
            to_b[i] += 1
    if any(c > 2 for c in within_mult.values()):
        raise StructuralError("within-class multiplicity exceeds 2")
    if any(c != delta_a for c in to_b):
        raise StructuralError("some class-A vertex does not keep delta_a cross edges")
    if any(d > 2 * delta_a for d in within_deg.values()):
        raise StructuralError("within-class degree exceeds 2*delta_a")


def quarter_lists(G: DemandGraph, delta_a: int) -> dict[int, set[V]]:
    """Excluded lift targets per within-class edge: the B-vertices next to either end."""
    nb: dict[V, set[V]] = {A(i): set() for i in range(G.a)}
    aa_edges = []
    for e in G.edges.values():
        if e.u.side == e.v.side:
            aa_edges.append(e)
        else:
            if e.u.side == SIDE_A:
                nb[e.u].add(e.v)
            else:
                nb[e.v].add(e.u)
    excluded = {}
    for e in aa_edges:
        X = nb[e.u] | nb[e.v]
        if len(X) > 2 * delta_a:
            raise StructuralError("more than 2*delta_a excluded lift targets")
        excluded[e.id] = X
    return excluded


def solve_quarter(D: DemandGraph) -> Resolution | None:
    """Resolve a degree-bounded bipartite instance, or report failure.

    Success is guaranteed when the semiregularized class-A degree is at
    most floor((b+1)/6); anything up to b/4 is attempted, with the list
    coloring allowed bounded backtracking before giving up.
    """
    if not D.is_bipartite_demand():
        raise PreconditionError("solve_quarter needs a class-crossing demand graph")
    if D.a < D.b:
        res = solve_quarter(D.transpose())
        return None if res is None else transpose_resolution(res)
    if not D.edges:
        return Resolution({})
    ta, tb = choose_semiregular_targets(D)
    if 4 * ta > D.b:
        return None
    reg = regularize(D, ta, tb)
    dec = konig_decompose(reg)
    if len(dec.matchings) != tb:
        raise StructuralError("semiregular graph did not split into Δ_B matchings")
    groups = repartition_matchings(reg, dec, ta)
    if len(groups.matchings) != reg.a:
        raise StructuralError("repartition did not produce one matching per A-vertex")
    G = quarter_lift(reg, groups)
    check_quarter_claims(G, ta)
    within = G.induced({A(i) for i in range(G.a)})
    excluded = quarter_lists(G, ta)
    palette = [B(j) for j in range(G.b)]
    col = greedy_list_color(within, palette, excluded, max_nodes=max(1000, within.m + 1))
    if col is None:
        return None
    G = lift(G, ((eid, col.colors[eid]) for eid in sorted(col.colors)))
    res = extract_resolution(G, reg)
    return Resolution({eid: res.routes[eid] for eid in D.edges})
