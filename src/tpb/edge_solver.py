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
a handler bug.  The induction runs as one loop: the edges touching Z are
set aside in the original coordinates and the rest is relabelled onto
the smaller K_{m,m}, until a simple graph, an n <= 5 instance (solved by
the exact oracle) or a case that lifts straight to a simple graph is
left.  Each step is recorded in a CaseTrace for auditability.
"""
from __future__ import annotations

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
    F = _structured_cover(D, X, Y)
    if F is None or not _cover_ok(D, F, X, Y):
        raise StructuralError(f"no structured 4-edge cover for |Y|={len(Y)}")
    return tuple(sorted(F))


def place_F(
    D: DemandGraph, F: tuple[int, ...], u1: V, u2: V, v1: V, v2: V
) -> DemandGraph:
    """Edge-lift the cover edges onto the four isolated corners of Z.

    Tries the up-to-24 assignments of F to the slots u1v1, u1v2, u2v2,
    u2v1 and returns the first producing no parallel edge at Z.
    """
    slots = [(u1, v1), (u1, v2), (u2, v2), (u2, v1)]
    zset = {u1, u2, v1, v2}
    for perm in permutations(sorted(F)):
        g = D
        ok = True
        for eid, (x, y) in zip(perm, slots):
            try:
                g = edge_lift(g, eid, x, y)
            except PreconditionError:
                ok = False
                break
        if ok and _no_parallel_at(g, zset):
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


def _dispatch(full: DemandGraph, n: int):
    degs = full.degree_map()
    iso_a = [i for i in range(n) if degs[A(i)] == 0]
    iso_b = [j for j in range(n) if degs[B(j)] == 0]
    X = [v for v in full.vertices() if degs[v] == n]
    if sum(1 for v in X if v.side == SIDE_A) > 1 or sum(1 for v in X if v.side == SIDE_B) > 1:
        raise StructuralError("more than one degree-n vertex in a class")
    if len(iso_a) >= 2 and len(iso_b) >= 2:
        return _case1(full, n, degs)
    if not X:
        ones = [v for v in full.vertices() if degs[v] == 1]
        if ones:
            return _oriented(_case21, full, n, ones[0].side == SIDE_B)
        return _case22(full, n, degs, iso_a, iso_b)
    if len(X) == 1:
        return _oriented(_case3, full, n, X[0].side == SIDE_B)
    return _oriented(_case4, full, n, len(iso_b) >= 2)


def _oriented(handler, D: DemandGraph, n: int, swap: bool):
    g = D.transpose() if swap else D
    ctx, dp, z = handler(g, n)
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


def _neighbor_sets(D: DemandGraph) -> dict[V, set[V]]:
    """Every vertex's neighbors, from one pass over the edges."""
    nbrs: dict[V, set[V]] = {v: set() for v in D.vertices()}
    for e in D.edges.values():
        nbrs[e.u].add(e.v)
        nbrs[e.v].add(e.u)
    return nbrs


def _lowest_edge(D: DemandGraph, u: V, v: V) -> int:
    key = (u, v) if u <= v else (v, u)
    for eid in sorted(D.edges):
        if D.edges[eid].pair() == key:
            return eid
    raise StructuralError(f"no edge between {u} and {v}")


# -- Case 1: four isolated corners ---------------------------------------------


def _case1(full: DemandGraph, n: int, degs: dict[V, int]):
    iso_a = [i for i in range(n) if degs[A(i)] == 0]
    iso_b = [j for j in range(n) if degs[B(j)] == 0]
    u1, u2 = A(iso_a[0]), A(iso_a[1])
    v1, v2 = B(iso_b[0]), B(iso_b[1])
    X = tuple(v for v in full.vertices() if degs[v] == n)
    Y = tuple(v for v in full.vertices() if degs[v] >= n - 1)
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


def _structured_cover(D: DemandGraph, X, Y) -> list[int] | None:
    yset = set(Y)
    if len(Y) == 4:
        ya = sorted(v for v in Y if v.side == SIDE_A)
        yb = sorted(v for v in Y if v.side == SIDE_B)
        if len(ya) != 2 or len(yb) != 2:
            return None
        corners = [(ya[0], yb[0]), (ya[1], yb[0]), (ya[1], yb[1]), (ya[0], yb[1])]
        if all(D.multiplicity(u, v) >= 1 for u, v in corners):
            return [_lowest_edge(D, u, v) for u, v in corners]
        for pairing in (
            ((ya[0], yb[0]), (ya[1], yb[1])),
            ((ya[0], yb[1]), (ya[1], yb[0])),
        ):
            if all(D.multiplicity(u, v) >= 2 for u, v in pairing):
                out = []
                for u, v in pairing:
                    ids = [
                        eid
                        for eid in sorted(D.edges)
                        if D.edges[eid].pair() == ((u, v) if u <= v else (v, u))
                    ]
                    out.extend(ids[:2])
                return out
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
        p_star = max(p, key=lambda w: (D.multiplicity(s, w), -w.index))
        other = p[0] if p_star == p[1] else p[1]
        if D.multiplicity(s, p_star) < 2:
            return None
        key = (s, p_star) if s <= p_star else (p_star, s)
        ids = [eid for eid in sorted(D.edges) if D.edges[eid].pair() == key]
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
        nbrs = sorted(D.neighbors(y))
        if not nbrs:
            return None
        v = max(nbrs, key=lambda w: (D.multiplicity(y, w), -w.index))
        if D.multiplicity(y, v) < 2:
            return None
        key = (y, v) if y <= v else (v, y)
        ids = [eid for eid in sorted(D.edges) if D.edges[eid].pair() == key]
        rest = [
            eid
            for eid in sorted(D.edges)
            if not D.edges[eid].touches(y) and not D.edges[eid].touches(v)
        ]
        if len(rest) < 2:
            return None
        return ids[:2] + rest[:2]
    # |Y| == 0: proceed from any parallel pair exactly as in the |Y| = 1 case
    pair = None
    mult: dict[tuple[V, V], list[int]] = {}
    for eid in sorted(D.edges):
        mult.setdefault(D.edges[eid].pair(), []).append(eid)
    for key in sorted(mult):
        if len(mult[key]) >= 2:
            pair = key
            break
    if pair is None:
        return None
    rest = [
        eid
        for eid in sorted(D.edges)
        if not D.edges[eid].touches(pair[0]) and not D.edges[eid].touches(pair[1])
    ]
    if len(rest) < 2:
        return None
    return mult[pair][:2] + rest[:2]


# -- Case 2: no degree-n vertex --------------------------------------------------


def _case21(D: DemandGraph, n: int):
    """A degree-1 vertex x (class A after orientation)."""
    degs = D.degree_map()
    x = A(next(i for i in range(n) if degs[A(i)] == 1))
    xp = next(iter(D.neighbors(x)))
    iso_b = [j for j in range(n) if degs[B(j)] == 0]
    if iso_b:
        y = B(iso_b[0])
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
        dp = edge_lift(D, eid, x, y)
        z = (x, y)
        return CaseContext(n, "2.1", z_set=z, lifts=1), dp, z
    ones = [j for j in range(n) if degs[B(j)] == 1]
    if len(ones) < 2:
        raise StructuralError("case 2.1: expected two degree-1 vertices opposite x")
    yj = next((j for j in ones if D.multiplicity(x, B(j)) == 0), None)
    if yj is None:
        raise StructuralError("case 2.1: every degree-1 vertex is joined to x")
    z = (x, B(yj))
    return CaseContext(n, "2.1", z_set=z), D, z


def _case22(D: DemandGraph, n: int, degs, iso_a, iso_b):
    """No degree-1 vertex and no degree-n vertex."""
    nbrs = _neighbor_sets(D)
    for v in D.vertices():
        if degs[v] == 2 and len(nbrs[v]) == 2:
            other_iso = iso_b if v.side == SIDE_A else iso_a
            if not other_iso:
                raise StructuralError("case 2.2.1: no isolated vertex opposite")
            i = other_iso[0]
            z = (v, B(i) if v.side == SIDE_A else A(i))
            return CaseContext(n, "2.2.1", z_set=z), D, z
    if len(iso_a) >= 2 or len(iso_b) >= 2:
        return _oriented(_case222, D, n, len(iso_b) >= 2)
    return _case223(D, n)


def _case222(D: DemandGraph, n: int):
    """Two isolated vertices in class A; opposite class all doubled pairs."""
    degs = D.degree_map()
    iso_a = [i for i in range(n) if degs[A(i)] == 0]
    if len(iso_a) < 2:
        raise StructuralError("case 2.2.2: missing the two isolated vertices")
    a1, a2 = A(iso_a[0]), A(iso_a[1])
    nbrs = _neighbor_sets(D)
    for j in range(n):
        d = degs[B(j)]
        if d not in (0, 2) or (d == 2 and len(nbrs[B(j)]) != 1):
            raise StructuralError("case 2.2.2: opposite class is not all doubled pairs")
    pos = sorted(
        (i for i in range(n) if degs[A(i)] > 0),
        key=lambda i: (-degs[A(i)], i),
    )
    if len(pos) < 2:
        raise StructuralError("case 2.2.2: fewer than two positive-degree vertices")
    u, v = A(pos[0]), A(pos[1])
    zz = min(nbrs[u])
    w = min(nbrs[v])
    if zz == w:
        raise StructuralError("case 2.2.2: chosen neighbors coincide")
    g = edge_lift(D, _lowest_edge(D, u, zz), a1, w)
    g = edge_lift(g, _lowest_edge(g, v, w), a2, zz)
    z = (a1, a2, zz, w)
    return CaseContext(n, "2.2.2", z_set=z, lifts=2), g, z


def _case223(D: DemandGraph, n: int):
    """Exactly one isolated vertex per class: the doubled-matching chain."""
    degs = D.degree_map()
    nbrs = _neighbor_sets(D)
    part: dict[int, int] = {}
    for i in range(n):
        if degs[A(i)] == 0:
            continue
        nb = nbrs[A(i)]
        if degs[A(i)] != 2 or len(nb) != 1:
            raise StructuralError("case 2.2.3: not a doubled matching")
        part[i] = next(iter(nb)).index
    alive = sorted(part)
    if len(alive) != n - 1 or len(set(part.values())) != n - 1:
        raise StructuralError("case 2.2.3: partners are not a matching")
    a_seq = [A(i) for i in alive] + [A(next(i for i in range(n) if degs[A(i)] == 0))]
    b_seq = [B(part[i]) for i in alive] + [
        B(next(j for j in range(n) if degs[B(j)] == 0))
    ]
    g = D
    for i in range(n - 2):
        g = edge_lift(g, _lowest_edge(g, a_seq[i], b_seq[i]), a_seq[i + 1], b_seq[i + 2])
    g = edge_lift(g, _lowest_edge(g, a_seq[n - 2], b_seq[n - 2]), a_seq[n - 1], b_seq[0])
    ctx = CaseContext(n, "2.2.3", lifts=n - 1)
    return ctx, g, None


# -- Case 3: exactly one degree-n vertex -----------------------------------------


def _case3(D: DemandGraph, n: int):
    degs = D.degree_map()
    z = A(next(i for i in range(n) if degs[A(i)] == n))
    iso_a = [i for i in range(n) if degs[A(i)] == 0]
    if not iso_a:
        raise StructuralError("case 3: class of the full vertex has no isolated vertex")
    v = A(iso_a[0])
    ones_b = [j for j in range(n) if degs[B(j)] == 1]
    if ones_b:
        u = B(ones_b[0])
        if D.multiplicity(z, u) >= 1:
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
        g = edge_lift(D, eid, v, u)
        zz = (v, u)
        return CaseContext(n, "3.1", x_set=(z,), z_set=zz, lifts=1), g, zz
    iso_b = [j for j in range(n) if degs[B(j)] == 0]
    if not iso_b:
        raise StructuralError("case 3.2: opposite class has no isolated vertex")
    u = B(iso_b[0])
    if all(degs[B(j)] == 2 for j in range(n) if j != u.index):
        return _case321(D, n, degs, z, v, u)
    return _case322(D, n, degs, z, v, u)


def _case321(D: DemandGraph, n: int, degs, z: V, v: V, u: V):
    """Full vertex with an isolated opposite vertex; all others degree two."""
    nbrs = _neighbor_sets(D)
    mult_free = [B(j) for j in range(n) if j != u.index and len(nbrs[B(j)]) == 2]
    adj_free = [x for x in mult_free if x in nbrs[z]]
    if adj_free:
        x = adj_free[0]
        eid = next(
            e
            for e in sorted(D.edges)
            if D.edges[e].touches(z) and not D.edges[e].touches(x)
        )
        g = edge_lift(D, eid, v, u)
        zz = (v, x)
        ctx = CaseContext(n, "3.2.1", x_set=(z,), z_set=zz, lifts=1, note="plain neighbor")
        return ctx, g, zz
    if not mult_free:
        # every degree-2 vertex is a doubled pair
        iso_a = [i for i in range(n) if degs[A(i)] == 0]
        if len(iso_a) < 2:
            raise StructuralError("case 3.2.1: second isolated vertex missing")
        v2 = A(iso_a[1])
        a_nb = min(nbrs[z])
        b_cands = [B(j) for j in range(n) if degs[B(j)] == 2 and B(j) not in nbrs[z]]
        if not b_cands:
            raise StructuralError("case 3.2.1: no doubled pair away from the full vertex")
        b = b_cands[0]
        zp = next(iter(nbrs[b]))
        g = edge_lift(D, _lowest_edge(D, z, a_nb), v, b)
        g = edge_lift(g, _lowest_edge(g, zp, b), v2, a_nb)
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
    for x in star:
        if D.multiplicity(z, x) != 2:
            raise StructuralError("case 3.2.1: neighbor of the full vertex not doubled")
    targets = [B(j) for j in range(n) if B(j) not in nbrs[z]]
    if len(targets) != len(star):
        raise StructuralError("case 3.2.1: target count mismatch")
    g = D
    for x, y in zip(star, targets):
        g = edge_lift(g, _lowest_edge(g, z, x), v, y)
    zz = (z, v, star[0], u)
    ctx = CaseContext(
        n, "3.2.1", x_set=(z,), z_set=zz, lifts=len(star), note="lifted parallel star"
    )
    return ctx, g, zz


def _case322(D: DemandGraph, n: int, degs, z: V, v: V, u: V):
    """Full vertex with two isolated opposite vertices; the rest of its class degree one."""
    ones_a = [A(i) for i in range(n) if degs[A(i)] == 1]
    for x in sorted(D.neighbors(z)):
        for y in ones_a:
            if D.multiplicity(x, y) == 0:
                g = edge_lift(D, _lowest_edge(D, z, x), y, u)
                zz = (y, u)
                ctx = CaseContext(n, "3.2.2", x_set=(z,), z_set=zz, lifts=1)
                return ctx, g, zz
    raise StructuralError("case 3.2.2: every neighbor of z covers all degree-1 vertices")


# -- Case 4: two degree-n vertices ------------------------------------------------


def _case4(D: DemandGraph, n: int):
    degs = D.degree_map()
    z1 = A(next(i for i in range(n) if degs[A(i)] == n))
    z2 = B(next(j for j in range(n) if degs[B(j)] == n))
    if D.multiplicity(z1, z2) < 2:
        raise StructuralError("case 4: the two full vertices are not doubly joined")
    iso_a = [i for i in range(n) if degs[A(i)] == 0]
    iso_b = [j for j in range(n) if degs[B(j)] == 0]
    if not iso_a or not iso_b:
        raise StructuralError("case 4: missing isolated vertices")
    v1, v2 = A(iso_a[0]), B(iso_b[0])
    loose = [
        B(j)
        for j in range(n)
        if degs[B(j)] == 1 and D.multiplicity(z1, B(j)) == 0
    ]
    if loose:
        x = loose[0]
        g = edge_lift(D, _lowest_edge(D, z1, z2), v1, x)
        zz = (v1, x)
        return CaseContext(n, "4", x_set=(z1, z2), z_set=zz, lifts=1), g, zz
    if D.multiplicity(z1, z2) != 2:
        raise StructuralError("case 4: full vertex must carry exactly one doubled edge")
    g = edge_lift(D, _lowest_edge(D, z1, z2), v1, v2)
    zz = (z1, v2)
    return CaseContext(n, "4", x_set=(z1, z2), z_set=zz, lifts=1), g, zz
