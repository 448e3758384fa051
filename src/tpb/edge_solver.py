"""Inductive solver for demand graphs with at most 2n-2 edges on K_{n,n}.

Any square instance with at most 2n-2 demand edges and maximum degree at
most n (n >= 4) is resolvable, and this module constructs the routing.
The instance is padded to exactly 2n-2 edges, classified by the shape of
its degree-n, near-full and isolated vertices, transformed by a handful
of prescribed edge-liftings, and reduced to a strictly smaller square
instance by deleting a removal set Z with one or two vertices per class.
The reduction is legal when

  (1) Z meets both classes equally,
  (2) at least |Z| edges touch Z,
  (3) degrees away from Z stay at most n - |Z|/2, and
  (4) no parallel edges touch Z,

which `check_conditions` re-verifies at runtime at every level; a
violation raises StructuralError naming the case, since it can only mean
a handler bug.  Each handler reads one index of the level graph (degrees,
neighbour sets, each vertex pair's edge ids) and applies all its liftings
in one `edge_lift` batch picked from the level graph; that equals lifting
one edge at a time, because no lift creates an edge on a later lift's
vertex pair.  The induction runs as one loop: the edges touching Z are
set aside in the original coordinates and the rest is relabelled onto
the smaller K_{m,m}, until a simple graph, an n <= 5 instance (solved by
the exact oracle) or a case that lifts straight to a simple graph is
left.  Each step is recorded in a CaseTrace for auditability.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import permutations

from .demand import (
    A,
    B,
    SIDE_A,
    SIDE_B,
    DemandGraph,
    Edge,
    Resolution,
    V,
    edge_lift,
    extract_resolution,
    verify_resolution,
)
from .errors import PreconditionError, StructuralError
from .oracle import RESOLVABLE, SearchBudget, decide

_BASE_BUDGET = SearchBudget(max_nodes=10_000_000, max_millis=120_000)


@dataclass
class CaseContext:
    """One induction step: which case fired and on what structure."""

    n: int
    case_tag: str
    x_set: tuple[V, ...] = ()
    y_set: tuple[V, ...] = ()
    z_set: tuple[V, ...] = ()
    f_set: tuple[int, ...] = ()
    lifts: int = 0
    swapped: bool = False
    note: str = ""


@dataclass
class CaseTrace:
    steps: list[CaseContext] = field(default_factory=list)

    def tags(self) -> list[str]:
        return [s.case_tag for s in self.steps]


# -- public operations --------------------------------------------------------


def solve_edge_version(D: DemandGraph) -> tuple[Resolution, CaseTrace]:
    """Resolve an in-hypothesis instance and report the case trace."""
    if D.a != D.b:
        raise PreconditionError("the edge-version solver needs a square base graph")
    n = D.a
    if n < 4:
        raise PreconditionError("the edge version starts at n = 4")
    if not D.is_bipartite_demand():
        raise PreconditionError("demand edges must cross the classes")
    if D.m > 2 * n - 2:
        raise PreconditionError(f"at most {2 * n - 2} edges allowed, got {D.m}")
    if D.max_degree() > n:
        raise PreconditionError(f"max degree {D.max_degree()} exceeds n = {n}")
    trace = CaseTrace()
    final = _resolve(D, trace)
    res = extract_resolution(final, D)
    problems = verify_resolution(D, res)
    if problems:
        raise StructuralError("solver produced an invalid resolution: " + "; ".join(problems))
    return res, trace


def check_conditions(dp: DemandGraph, z: tuple[V, ...], n: int) -> list[str]:
    """Re-check the four induction conditions; returns failures."""
    problems = []
    zset = set(z)
    za = sum(1 for v in zset if v.side == SIDE_A)
    zb = len(zset) - za
    if za != zb:
        problems.append(f"(1) Z meets the classes {za}/{zb}")
    incident = sum(1 for e in dp.edges.values() if e.u in zset or e.v in zset)
    if incident < len(zset):
        problems.append(f"(2) only {incident} edges incident to Z, need {len(zset)}")
    rest = [v for v in dp.vertices() if v not in zset]
    off = dp.induced(rest)
    if off.max_degree() > n - len(zset) // 2:
        problems.append(
            f"(3) degree {off.max_degree()} off Z exceeds {n - len(zset) // 2}"
        )
    pair_mult: dict[tuple[V, V], int] = {}
    for e in dp.edges.values():
        pair_mult[e.pair()] = pair_mult.get(e.pair(), 0) + 1
    for (u, v), c in pair_mult.items():
        if c > 1 and (u in zset or v in zset):
            problems.append(f"(4) parallel edges {u}-{v} touch Z")
    return problems


def pad_to_full(D: DemandGraph, n: int) -> DemandGraph:
    """Add flagged demands between deficient vertices until |E| = 2n-2."""
    if D.m > 2 * n - 2:
        raise PreconditionError("instance already exceeds 2n-2 edges")
    if D.max_degree() > n:
        raise PreconditionError("instance already exceeds degree n")
    degs = D.degree_map()
    pairs = []
    while D.m + len(pairs) < 2 * n - 2:
        i = next((i for i in range(n) if degs[A(i)] < n), None)
        j = next((j for j in range(n) if degs[B(j)] < n), None)
        if i is None or j is None:
            raise StructuralError("no deficient vertex pair available for padding")
        pairs.append((A(i), B(j)))
        degs[A(i)] += 1
        degs[B(j)] += 1
    return D.with_edges(pairs, padding=True)


def find_cover_F(D: DemandGraph, X: tuple[V, ...], Y: tuple[V, ...]) -> tuple[int, ...]:
    """Four edges covering every vertex at most twice, Y at least once, X exactly twice.

    The selection follows the subcases on |Y|; a selection that comes up
    empty or fails validation raises StructuralError, since the case
    analysis guarantees one exists.
    """
    F = _structured_cover(D, _Index(D), X, Y)
    if F is None or not _cover_ok(D, F, X, Y):
        raise StructuralError(f"no structured 4-edge cover for |Y|={len(Y)}")
    return tuple(sorted(F))


def place_F(
    D: DemandGraph, F: tuple[int, ...], u1: V, u2: V, v1: V, v2: V
) -> DemandGraph:
    """Edge-lift the cover edges onto the four isolated corners of Z.

    Tries the up-to-24 assignments of F to the slots u1v1, u1v2, u2v2,
    u2v1, each as one batch, and returns the first producing no parallel
    edge at Z.
    """
    slots = [(u1, v1), (u1, v2), (u2, v2), (u2, v1)]
    zset = {u1, u2, v1, v2}
    for perm in permutations(sorted(F)):
        try:
            g = edge_lift(D, [(eid, x, y) for eid, (x, y) in zip(perm, slots)])
        except PreconditionError:
            continue
        if _no_parallel_at(g, zset):
            return g
    raise StructuralError("no numbering of the cover edges avoids parallels at Z")


# -- induction loop -------------------------------------------------------------


def _resolve(D: DemandGraph, trace: CaseTrace) -> DemandGraph:
    """Run the induction on D and return the simple graph it lifts to.

    Each level works on a compact K_{n,n}, and `orig` maps its vertices
    back to D's.  The edges touching Z are final once the level's liftings
    are done, so they go to `frozen` in D's coordinates; the rest is
    relabelled onto K_{m,m} for the next level.
    """
    N = D.a
    orig = {v: v for v in D.vertices()}
    frozen: dict[int, Edge] = {}
    while True:
        n = D.a
        if D.is_simple_base():
            trace.steps.append(CaseContext(n, "simple"))
            break
        if n <= 5:
            D = _base_case(D, trace)
            break
        full = pad_to_full(D, n)
        ctx, dp, z = _dispatch(full, n)
        trace.steps.append(ctx)
        if z is None:
            if not dp.is_simple_base():
                raise StructuralError(f"case {ctx.case_tag}: direct construction not simple")
            D = dp
            break
        problems = check_conditions(dp, z, n)
        if problems:
            raise StructuralError(f"case {ctx.case_tag}: " + "; ".join(problems))
        zset = set(z)
        local: dict[V, V] = {}
        for side in (SIDE_A, SIDE_B):
            gone = {v.index for v in zset if v.side == side}
            kept = (i for i in range(n) if i not in gone)
            local.update((V(side, i), V(side, k)) for k, i in enumerate(kept))
        rest = {}
        for e in dp.edges.values():
            if e.u in zset or e.v in zset:
                frozen[e.id] = Edge(e.id, e.label, orig[e.u], orig[e.v], e.padding)
            else:
                rest[e.id] = Edge(e.id, e.label, local[e.u], local[e.v], e.padding)
        m = n - len(zset) // 2
        if len(rest) > 2 * m - 2:
            raise StructuralError(f"case {ctx.case_tag}: induced instance keeps too many edges")
        D = DemandGraph(m, m, rest, dp.next_fresh_id)
        orig = {w: orig[v] for v, w in local.items()}
    for e in D.edges.values():
        frozen[e.id] = Edge(e.id, e.label, orig[e.u], orig[e.v], e.padding)
    return DemandGraph(N, N, frozen, D.next_fresh_id)


def _base_case(D: DemandGraph, trace: CaseTrace) -> DemandGraph:
    verdict = decide(D, _BASE_BUDGET)
    if verdict.status != RESOLVABLE:
        raise StructuralError(
            f"oracle reported {verdict.status} on an in-hypothesis base instance"
        )
    trace.steps.append(CaseContext(D.a, "base", note=f"nodes={verdict.nodes_explored}"))
    edges = {}
    nid = D.next_fresh_id
    for eid in sorted(D.edges):
        e = D.edges[eid]
        vs = verdict.resolution.routes[eid].vertices
        for x, y in zip(vs, vs[1:]):
            edges[nid] = Edge(nid, e.label, x, y, e.padding)
            nid += 1
    return DemandGraph(D.a, D.b, edges, nid)


# -- case dispatch -------------------------------------------------------------


class _Index:
    """A graph's per-pair edge ids, degrees and neighbour sets, from one pass.

    `pair` gives a vertex pair's edge ids lowest first; `deg` lists class
    A before class B, each by index.
    """

    def __init__(self, D: DemandGraph):
        self.ids: dict[tuple[V, V], list[int]] = {}
        for e in sorted(D.edges.values()):
            self.ids.setdefault(e.pair(), []).append(e.id)
        self.deg = dict.fromkeys(D.vertices(), 0)
        self.nbrs: dict[V, set[V]] = defaultdict(set)
        for (u, v), eids in self.ids.items():
            self.deg[u] += len(eids)
            self.deg[v] += len(eids)
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)

    def of_degree(self, d: int, side: str | None = None) -> list[V]:
        return [v for v, k in self.deg.items() if k == d and side in (None, v.side)]

    def side(self, side: str) -> list[V]:
        return [v for v in self.deg if v.side == side]

    def pair(self, u: V, v: V) -> list[int]:
        return self.ids.get((u, v) if u <= v else (v, u), [])


def _dispatch(full: DemandGraph, n: int):
    ix = _Index(full)
    iso_a = ix.of_degree(0, SIDE_A)
    iso_b = ix.of_degree(0, SIDE_B)
    X = ix.of_degree(n)
    if len({v.side for v in X}) < len(X):
        raise StructuralError("more than one degree-n vertex in a class")
    if len(iso_a) >= 2 and len(iso_b) >= 2:
        return _case1(full, ix, n)
    if not X:
        ones = ix.of_degree(1)
        if ones:
            return _oriented(_case21, full, ix, n, ones[0].side == SIDE_B)
        return _case22(full, ix, n)
    if len(X) == 1:
        return _oriented(_case3, full, ix, n, X[0].side == SIDE_B)
    return _oriented(_case4, full, ix, n, len(iso_b) >= 2)


def _oriented(handler, D: DemandGraph, ix: _Index, n: int, swap: bool):
    if swap:
        D = D.transpose()
        ix = _Index(D)
    ctx, dp, z = handler(D, ix, n)
    if swap:
        dp = dp.transpose()
        z = tuple(v.flip() for v in z) if z is not None else None
        ctx.x_set = tuple(v.flip() for v in ctx.x_set)
        ctx.y_set = tuple(v.flip() for v in ctx.y_set)
        ctx.z_set = z if z is not None else ()
        ctx.swapped = True
    return ctx, dp, z


def _no_parallel_at(g: DemandGraph, zset: set[V]) -> bool:
    mult: dict[tuple[V, V], int] = {}
    for e in g.edges.values():
        if e.u in zset or e.v in zset:
            key = e.pair()
            mult[key] = mult.get(key, 0) + 1
            if mult[key] > 1:
                return False
    return True


# -- Case 1: four isolated corners ---------------------------------------------


def _case1(full: DemandGraph, ix: _Index, n: int):
    u1, u2 = ix.of_degree(0, SIDE_A)[:2]
    v1, v2 = ix.of_degree(0, SIDE_B)[:2]
    X = tuple(ix.of_degree(n))
    Y = tuple(v for v, d in ix.deg.items() if d >= n - 1)
    F = find_cover_F(full, X, Y)
    dp = place_F(full, F, u1, u2, v1, v2)
    z = (u1, u2, v1, v2)
    tag = f"1.{5 - len(Y)}"
    ctx = CaseContext(n, tag, X, Y, z, f_set=F, lifts=4)
    return ctx, dp, z


def _cover_ok(D: DemandGraph, F, X, Y) -> bool:
    cover: dict[V, int] = {}
    for eid in F:
        e = D.edges[eid]
        cover[e.u] = cover.get(e.u, 0) + 1
        cover[e.v] = cover.get(e.v, 0) + 1
    if any(c > 2 for c in cover.values()):
        return False
    if any(cover.get(y, 0) < 1 for y in Y):
        return False
    if any(cover.get(x, 0) != 2 for x in X):
        return False
    return True


def _structured_cover(D: DemandGraph, ix: _Index, X, Y) -> list[int] | None:
    yset = set(Y)
    if len(Y) == 4:
        ya = sorted(v for v in Y if v.side == SIDE_A)
        yb = sorted(v for v in Y if v.side == SIDE_B)
        if len(ya) != 2 or len(yb) != 2:
            return None
        corners = [(ya[0], yb[0]), (ya[1], yb[0]), (ya[1], yb[1]), (ya[0], yb[1])]
        if all(ix.pair(u, v) for u, v in corners):
            return [ix.pair(u, v)[0] for u, v in corners]
        for pairing in (
            ((ya[0], yb[0]), (ya[1], yb[1])),
            ((ya[0], yb[1]), (ya[1], yb[0])),
        ):
            if all(len(ix.pair(u, v)) >= 2 for u, v in pairing):
                return [eid for u, v in pairing for eid in ix.pair(u, v)[:2]]
        return None
    if len(Y) == 3:
        ya = sorted(v for v in Y if v.side == SIDE_A)
        yb = sorted(v for v in Y if v.side == SIDE_B)
        if len(ya) == 1:
            s, p = ya[0], yb
        elif len(yb) == 1:
            s, p = yb[0], ya
        else:
            return None
        p_star = max(p, key=lambda w: (len(ix.pair(s, w)), -w.index))
        other = p[0] if p_star == p[1] else p[1]
        ids = ix.pair(s, p_star)
        if len(ids) < 2:
            return None
        out_ids = [
            eid
            for eid in sorted(D.edges)
            if D.edges[eid].touches(other) and D.edges[eid].other(other) not in yset
        ]
        if len(out_ids) < 2:
            return None
        return ids[:2] + out_ids[:2]
    if len(Y) == 2:
        y1, y2 = sorted(Y)
        if y1.side != y2.side:
            out1 = [
                eid
                for eid in sorted(D.edges)
                if D.edges[eid].touches(y1) and not D.edges[eid].touches(y2)
            ]
            out2 = [
                eid
                for eid in sorted(D.edges)
                if D.edges[eid].touches(y2) and not D.edges[eid].touches(y1)
            ]
            if len(out1) >= 2 and len(out2) >= 2:
                return out1[:2] + out2[:2]
            inner = [
                eid
                for eid in sorted(D.edges)
                if D.edges[eid].touches(y1) and D.edges[eid].touches(y2)
            ]
            outer = [
                eid
                for eid in sorted(D.edges)
                if not D.edges[eid].touches(y1) and not D.edges[eid].touches(y2)
            ]
            if len(inner) >= 2 and len(outer) >= 2:
                return inner[:2] + outer[:2]
            return None
        # both in one class: two lowest edges at each, capping shared endpoints
        out = []
        cover: dict[V, int] = {}
        for y in (y1, y2):
            got = 0
            for eid in sorted(D.edges):
                e = D.edges[eid]
                if not e.touches(y) or eid in out:
                    continue
                w = e.other(y)
                if cover.get(w, 0) >= 2:
                    continue
                out.append(eid)
                cover[w] = cover.get(w, 0) + 1
                got += 1
                if got == 2:
                    break
            if got < 2:
                return None
        return out
    if len(Y) == 1:
        y = Y[0]
        nbrs = sorted(ix.nbrs[y])
        if not nbrs:
            return None
        v = max(nbrs, key=lambda w: (len(ix.pair(y, w)), -w.index))
        ids = ix.pair(y, v)
        if len(ids) < 2:
            return None
        rest = [
            eid
            for eid in sorted(D.edges)
            if not D.edges[eid].touches(y) and not D.edges[eid].touches(v)
        ]
        if len(rest) < 2:
            return None
        return ids[:2] + rest[:2]
    # |Y| == 0: proceed from any parallel pair exactly as in the |Y| = 1 case
    pair = next((key for key in sorted(ix.ids) if len(ix.ids[key]) >= 2), None)
    if pair is None:
        return None
    rest = [
        eid
        for eid in sorted(D.edges)
        if not D.edges[eid].touches(pair[0]) and not D.edges[eid].touches(pair[1])
    ]
    if len(rest) < 2:
        return None
    return ix.ids[pair][:2] + rest[:2]


# -- Case 2: no degree-n vertex --------------------------------------------------


def _case21(D: DemandGraph, ix: _Index, n: int):
    """A degree-1 vertex x (class A after orientation)."""
    x = ix.of_degree(1, SIDE_A)[0]
    xp = next(iter(ix.nbrs[x]))
    iso_b = ix.of_degree(0, SIDE_B)
    if iso_b:
        y = iso_b[0]
        eid = next(
            (
                e
                for e in sorted(D.edges)
                if not D.edges[e].touches(x) and not D.edges[e].touches(xp)
            ),
            None,
        )
        if eid is None:
            raise StructuralError("case 2.1: no edge avoids x and its neighbor")
        dp = edge_lift(D, [(eid, x, y)])
        z = (x, y)
        return CaseContext(n, "2.1", z_set=z, lifts=1), dp, z
    ones = ix.of_degree(1, SIDE_B)
    if len(ones) < 2:
        raise StructuralError("case 2.1: expected two degree-1 vertices opposite x")
    y = next((y for y in ones if y not in ix.nbrs[x]), None)
    if y is None:
        raise StructuralError("case 2.1: every degree-1 vertex is joined to x")
    z = (x, y)
    return CaseContext(n, "2.1", z_set=z), D, z


def _case22(D: DemandGraph, ix: _Index, n: int):
    """No degree-1 vertex and no degree-n vertex."""
    iso_a = ix.of_degree(0, SIDE_A)
    iso_b = ix.of_degree(0, SIDE_B)
    for v, d in ix.deg.items():
        if d == 2 and len(ix.nbrs[v]) == 2:
            other_iso = iso_b if v.side == SIDE_A else iso_a
            if not other_iso:
                raise StructuralError("case 2.2.1: no isolated vertex opposite")
            z = (v, other_iso[0])
            return CaseContext(n, "2.2.1", z_set=z), D, z
    if len(iso_a) >= 2 or len(iso_b) >= 2:
        return _oriented(_case222, D, ix, n, len(iso_b) >= 2)
    return _case223(D, ix, n)


def _case222(D: DemandGraph, ix: _Index, n: int):
    """Two isolated vertices in class A; opposite class all doubled pairs."""
    iso_a = ix.of_degree(0, SIDE_A)
    if len(iso_a) < 2:
        raise StructuralError("case 2.2.2: missing the two isolated vertices")
    a1, a2 = iso_a[:2]
    for y in ix.side(SIDE_B):
        d = ix.deg[y]
        if d not in (0, 2) or (d == 2 and len(ix.nbrs[y]) != 1):
            raise StructuralError("case 2.2.2: opposite class is not all doubled pairs")
    pos = sorted(
        (x for x in ix.side(SIDE_A) if ix.deg[x] > 0),
        key=lambda x: (-ix.deg[x], x.index),
    )
    if len(pos) < 2:
        raise StructuralError("case 2.2.2: fewer than two positive-degree vertices")
    u, v = pos[:2]
    zz = min(ix.nbrs[u])
    w = min(ix.nbrs[v])
    if zz == w:
        raise StructuralError("case 2.2.2: chosen neighbors coincide")
    g = edge_lift(D, [(ix.pair(u, zz)[0], a1, w), (ix.pair(v, w)[0], a2, zz)])
    z = (a1, a2, zz, w)
    return CaseContext(n, "2.2.2", z_set=z, lifts=2), g, z


def _case223(D: DemandGraph, ix: _Index, n: int):
    """Exactly one isolated vertex per class: the doubled-matching chain."""
    part: dict[V, V] = {}
    for a in ix.side(SIDE_A):
        if ix.deg[a] == 0:
            continue
        nb = ix.nbrs[a]
        if ix.deg[a] != 2 or len(nb) != 1:
            raise StructuralError("case 2.2.3: not a doubled matching")
        part[a] = next(iter(nb))
    if len(part) != n - 1 or len(set(part.values())) != n - 1:
        raise StructuralError("case 2.2.3: partners are not a matching")
    a_seq = list(part) + ix.of_degree(0, SIDE_A)[:1]
    b_seq = list(part.values()) + ix.of_degree(0, SIDE_B)[:1]
    moves = [
        (ix.pair(a_seq[i], b_seq[i])[0], a_seq[i + 1], b_seq[(i + 2) % n])
        for i in range(n - 1)
    ]
    ctx = CaseContext(n, "2.2.3", lifts=n - 1)
    return ctx, edge_lift(D, moves), None


# -- Case 3: exactly one degree-n vertex -----------------------------------------


def _case3(D: DemandGraph, ix: _Index, n: int):
    z = ix.of_degree(n, SIDE_A)[0]
    iso_a = ix.of_degree(0, SIDE_A)
    if not iso_a:
        raise StructuralError("case 3: class of the full vertex has no isolated vertex")
    v = iso_a[0]
    ones_b = ix.of_degree(1, SIDE_B)
    if ones_b:
        u = ones_b[0]
        if u in ix.nbrs[z]:
            eid = next(
                (
                    e
                    for e in sorted(D.edges)
                    if not D.edges[e].touches(u) and not D.edges[e].touches(z)
                ),
                None,
            )
            if eid is None:
                raise StructuralError("case 3.1: no edge disjoint from u and z")
        else:
            eid = next(e for e in sorted(D.edges) if D.edges[e].touches(z))
        g = edge_lift(D, [(eid, v, u)])
        zz = (v, u)
        return CaseContext(n, "3.1", x_set=(z,), z_set=zz, lifts=1), g, zz
    iso_b = ix.of_degree(0, SIDE_B)
    if not iso_b:
        raise StructuralError("case 3.2: opposite class has no isolated vertex")
    u = iso_b[0]
    if all(ix.deg[y] == 2 for y in ix.side(SIDE_B) if y != u):
        return _case321(D, ix, n, z, v, u)
    return _case322(D, ix, n, z, v, u)


def _case321(D: DemandGraph, ix: _Index, n: int, z: V, v: V, u: V):
    """Full vertex with an isolated opposite vertex; all others degree two."""
    nbrs = ix.nbrs
    mult_free = [y for y in ix.side(SIDE_B) if y != u and len(nbrs[y]) == 2]
    adj_free = [x for x in mult_free if x in nbrs[z]]
    if adj_free:
        x = adj_free[0]
        eid = next(
            e
            for e in sorted(D.edges)
            if D.edges[e].touches(z) and not D.edges[e].touches(x)
        )
        g = edge_lift(D, [(eid, v, u)])
        zz = (v, x)
        ctx = CaseContext(n, "3.2.1", x_set=(z,), z_set=zz, lifts=1, note="plain neighbor")
        return ctx, g, zz
    if not mult_free:
        # every degree-2 vertex is a doubled pair
        iso_a = ix.of_degree(0, SIDE_A)
        if len(iso_a) < 2:
            raise StructuralError("case 3.2.1: second isolated vertex missing")
        v2 = iso_a[1]
        a_nb = min(nbrs[z])
        b_cands = [y for y in ix.of_degree(2, SIDE_B) if y not in nbrs[z]]
        if not b_cands:
            raise StructuralError("case 3.2.1: no doubled pair away from the full vertex")
        b = b_cands[0]
        zp = next(iter(nbrs[b]))
        g = edge_lift(D, [(ix.pair(z, a_nb)[0], v, b), (ix.pair(zp, b)[0], v2, a_nb)])
        zz = (v, v2, a_nb, b)
        ctx = CaseContext(n, "3.2.1", x_set=(z,), z_set=zz, lifts=2, note="parallel pairs")
        return ctx, g, zz
    # Mixed shape: the full vertex sees only doubled pairs while plain
    # degree-2 vertices live elsewhere.  Lift one copy of every doubled
    # pair at z onto v and the non-neighbors of z; afterwards z is simple
    # and Z = {z, v, first neighbor, u} satisfies the four conditions.
    star = sorted(nbrs[z])
    if n % 2 != 0 or len(star) != n // 2:
        raise StructuralError("case 3.2.1: unexpected neighborhood shape at the full vertex")
    if any(len(ix.pair(z, x)) != 2 for x in star):
        raise StructuralError("case 3.2.1: neighbor of the full vertex not doubled")
    targets = [y for y in ix.side(SIDE_B) if y not in nbrs[z]]
    if len(targets) != len(star):
        raise StructuralError("case 3.2.1: target count mismatch")
    g = edge_lift(D, [(ix.pair(z, x)[0], v, y) for x, y in zip(star, targets)])
    zz = (z, v, star[0], u)
    ctx = CaseContext(
        n, "3.2.1", x_set=(z,), z_set=zz, lifts=len(star), note="lifted parallel star"
    )
    return ctx, g, zz


def _case322(D: DemandGraph, ix: _Index, n: int, z: V, v: V, u: V):
    """Full vertex with two isolated opposite vertices; the rest of its class degree one."""
    ones_a = ix.of_degree(1, SIDE_A)
    for x in sorted(ix.nbrs[z]):
        for y in ones_a:
            if x not in ix.nbrs[y]:
                g = edge_lift(D, [(ix.pair(z, x)[0], y, u)])
                zz = (y, u)
                ctx = CaseContext(n, "3.2.2", x_set=(z,), z_set=zz, lifts=1)
                return ctx, g, zz
    raise StructuralError("case 3.2.2: every neighbor of z covers all degree-1 vertices")


# -- Case 4: two degree-n vertices ------------------------------------------------


def _case4(D: DemandGraph, ix: _Index, n: int):
    z1 = ix.of_degree(n, SIDE_A)[0]
    z2 = ix.of_degree(n, SIDE_B)[0]
    joint = ix.pair(z1, z2)
    if len(joint) < 2:
        raise StructuralError("case 4: the two full vertices are not doubly joined")
    iso_a = ix.of_degree(0, SIDE_A)
    iso_b = ix.of_degree(0, SIDE_B)
    if not iso_a or not iso_b:
        raise StructuralError("case 4: missing isolated vertices")
    v1, v2 = iso_a[0], iso_b[0]
    loose = [y for y in ix.of_degree(1, SIDE_B) if y not in ix.nbrs[z1]]
    if loose:
        x = loose[0]
        g = edge_lift(D, [(joint[0], v1, x)])
        zz = (v1, x)
        return CaseContext(n, "4", x_set=(z1, z2), z_set=zz, lifts=1), g, zz
    if len(joint) != 2:
        raise StructuralError("case 4: full vertex must carry exactly one doubled edge")
    g = edge_lift(D, [(joint[0], v1, v2)])
    zz = (z1, v2)
    return CaseContext(n, "4", x_set=(z1, z2), z_set=zz, lifts=1), g, zz
