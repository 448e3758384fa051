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

which `check_conditions` re-verifies at runtime after every level's
step; a violation raises StructuralError naming the case, since it can
only mean a handler bug.  The induction runs as one loop over one `LevelState`:
the remaining graph on the input's slots, with degrees, degree
buckets and one adjacency map of each vertex pair's edge ids kept up to
date by every change.  The stage operations (`pad_to_full`, `check_conditions`,
`find_cover_F`, `place_F` and the bipartite lifting `edge_lift`) take
that state: padding adds only the edges a level owes, and each case
lifts onto Z and removes Z in one change to it (its `edge_lift` batch
if it lifts), which moves every edge at Z, alive or just made, to the
final edges without indexing it, so a level costs about what it
changes rather than the size of the graph.  The paper states cases 2.1, 2.2.2, 3 and 4 with
either class as "A"; their handlers take the class playing A and the
other class as arguments, so a level with the classes swapped runs on
the same state like any other.  The handlers' rules
("the lowest isolated vertex", index tie-breaks) read the alive
vertices in slot order, which is the order of the smaller
K_{m,m} the induction stands for.  Each step is recorded in a CaseTrace
for auditability, with its sets as the slots the handler named; their
compact coordinates are worked out for the whole trace on the first read
of any step's sets, so a solve whose trace is never read converts
nothing.  The loop ends at a simple graph, an n <= 5 instance (solved by
the exact oracle, whose pieces are written straight to the final edges)
or a case that lifts straight to a simple graph.  Every lift, and the
base case's routing, records the pieces that replace an edge, so each
demand's route is composed from its own lifts.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice, permutations, repeat
from typing import Collection, Iterable

from .demand import (
    SIDE_A,
    SIDE_B,
    DemandGraph,
    Edge,
    Resolution,
    V,
    checked_resolution,
    extract_resolution,
    verify_resolution,  # noqa: F401 -- perfbench/spans.py HOOKS rebinds it here
)
from .errors import DomainError, NotFoundError, PreconditionError, StructuralError
from .oracle import RESOLVABLE, SearchBudget, decide

_BASE_BUDGET = SearchBudget(max_nodes=10_000_000, max_millis=120_000)


@dataclass
class CaseContext:
    """One induction step: which case fired and on what structure.

    X, Y and the removal set Z are kept as the slots the handler named;
    `x_set`, `y_set` and `z_set` give them as V in the compact coordinates
    of the step's K_{n,n}, worked out for the whole trace on the first
    read of any step's sets (see `_Levels`).
    """

    n: int
    case_tag: str
    x_slots: tuple[int, ...] = ()
    y_slots: tuple[int, ...] = ()
    z_slots: tuple[int, ...] = ()
    f_set: tuple[int, ...] = ()
    lifts: int = 0
    swapped: bool = False
    note: str = ""
    _at: tuple[_Levels, int] | None = field(default=None, init=False, repr=False, compare=False)

    x_set = property(lambda self: self._sets()[0])
    y_set = property(lambda self: self._sets()[1])
    z_set = property(lambda self: self._sets()[2])

    def _sets(self) -> tuple[tuple[V, ...], ...]:
        # a step that removed no Z (simple, base, 2.2.3) names no vertex
        return self._at[0].sets(self._at[1]) if self._at else ((), (), ())


class _Levels:
    """The X, Y and Z slots of a trace's levels in order, shared by its steps instead of the trace."""

    def __init__(self, a: int, size: int):
        self.a, self.size = a, size
        self.slots: list[tuple[tuple[int, ...], ...]] = []
        self.coords: list[tuple[tuple[V, ...], ...]] = []

    def add(self, ctx: CaseContext, z: tuple[int, ...]) -> None:
        """Record the level of ctx, which removed the slots z."""
        ctx.z_slots, ctx._at = z, (self, len(self.slots))
        self.slots.append((ctx.x_slots, ctx.y_slots, z))

    def sets(self, i: int) -> tuple[tuple[V, ...], ...]:
        """Level i's sets as V; the first call replays every level recorded so far."""
        if len(self.coords) < len(self.slots):
            self.coords = _replay(self.a, self.size, self.slots)
        return self.coords[i]


def _replay(a: int, size: int, slots: list[tuple[tuple[int, ...], ...]]) -> list[tuple[tuple[V, ...], ...]]:
    """Each level's X, Y and Z as V: a slot's position among its class's slots alive at that level.

    Slot v's position is v less the slots of its class removed at earlier
    levels below it, counted by a Fenwick tree over the slots (slot w at
    index w + 1) that each level's Z is added to after the level is read.
    """
    tree = [0] * (size + 1)
    gone_a = 0  # class-A slots removed so far, all below any class-B slot
    out = []
    for level in slots:
        sets = []
        for vs in level:
            coords = []
            for v in vs:
                i, below = v, 0
                while i:
                    below += tree[i]
                    i &= i - 1
                coords.append(V(SIDE_A, v - below) if v < a else V(SIDE_B, v - a - below + gone_a))
            sets.append(tuple(coords))
        out.append(tuple(sets))
        for v in level[2]:
            gone_a += v < a
            i = v + 1
            while i <= size:
                tree[i] += 1
                i += i & -i
    return out


@dataclass
class CaseTrace:
    """The steps of one induction in order, and the slots of the levels that removed a set Z."""

    steps: list[CaseContext] = field(default_factory=list)
    levels: _Levels | None = field(default=None, repr=False, compare=False)

    def tags(self) -> list[str]:
        return [s.case_tag for s in self.steps]


class LevelState:
    """The remaining graph of the induction, changed in place.

    Built from the alive edges of a demand graph D, optionally with the
    slots already `removed` and the edges already final as `frozen`;
    vertices are D's slots, and class s is 0 for A and 1 for B.
    `sides[s]` is the sorted list of class s's alive slots, `deg` their
    degrees and `bydeg` the alive slots of positive degree by degree.
    `adj[v][w]` lists the ids of the edges between v and w lowest first,
    one list shared by both ends, so the keys of `adj[v]` are v's
    neighbours; `parallel` holds the pairs with two or more edges.
    `low[d][s]` is a min-heap per degree d <= 2 and class s: a slot is
    pushed whenever its degree becomes d, and `lowest` prunes lazily the
    slots that have since changed degree or been removed, so a lookup of
    the k lowest reads about k entries, not the whole bucket.  `edges`
    holds the alive edges in id order (new ids are always the largest),
    `ids` is a min-heap of their ids pruned the same way, and `frozen`
    the final edges, those at removed vertices.
    `split[eid] = (u, ids)` records each edge that a lift or the base case
    replaced: the ids of its pieces in walk order from its end u.
    """

    def __init__(
        self,
        D: DemandGraph,
        removed: tuple[list[int], list[int]] | None = None,
        frozen: dict[int, Edge] | None = None,
    ):
        self.a, self.b = D.a, D.b
        self.next_fresh_id = D.next_fresh_id
        self.frozen = frozen if frozen is not None else {}
        gone = {v for vs in removed or () for v in vs}
        self.sides = [[v for v in vs if v not in gone] for vs in (range(D.a), range(D.a, D.a + D.b))]
        self.adj: dict[int, dict[int, list[int]]] = {v: {} for vs in self.sides for v in vs}
        self.parallel: set[tuple[int, int]] = set()
        self.edges: dict[int, Edge] = {}
        self.split: dict[int, tuple[int, tuple[int, ...]]] = {}
        self.ids: list[int] = []
        for e in sorted(D.links.values()):
            self._link(e)
        self.deg = {v: sum(map(len, nbrs.values())) for v, nbrs in self.adj.items()}
        self.bydeg = defaultdict(set)
        for v, d in self.deg.items():
            if d:
                self.bydeg[d].add(v)
        self.low = [[[v for v in vs if self.deg[v] == d] for vs in self.sides] for d in range(3)]

    @property
    def m(self) -> int:
        return len(self.edges)

    def pair(self, u: int, v: int) -> list[int]:
        return self.adj[u].get(v, [])

    def lowest(self, d: int, side: int, k: int) -> list[int]:
        """The k lowest alive slots of degree d <= 2 in a class, or all of them if fewer."""
        heap = self.low[d][side]
        deg = self.deg
        out: list[int] = []
        while heap and len(out) < k:
            v = heappop(heap)
            if deg.get(v) == d and (not out or out[-1] != v):  # pops come out in order, so a duplicate is out[-1]
                out.append(v)
        for v in out:
            heappush(heap, v)
        return out

    def _bump(self, k: int, *vs: int) -> None:
        deg, bydeg, low, a = self.deg, self.bydeg, self.low, self.a
        for v in vs:
            d = deg[v]
            if d:
                bucket = bydeg[d]
                bucket.discard(v)
                if not bucket:
                    del bydeg[d]
            d += k
            deg[v] = d
            if d:
                bydeg[d].add(v)
            if d <= 2:
                heappush(low[d][v >= a], v)

    def _link(self, e: Edge) -> None:
        self.edges[e.id] = e
        heappush(self.ids, e.id)
        ids = self.adj[e.u].get(e.v)
        if ids is None:
            ids = self.adj[e.u][e.v] = self.adj[e.v][e.u] = []
        ids.append(e.id)
        if len(ids) == 2:
            self.parallel.add(e.pair())

    def _add(self, e: Edge) -> None:
        self._link(e)
        self._bump(1, e.u, e.v)

    def _drop(self, eid: int) -> Edge:
        e = self.edges.pop(eid)
        ids = self.adj[e.u][e.v]
        ids.remove(eid)
        if not ids:
            del self.adj[e.u][e.v], self.adj[e.v][e.u]
        elif len(ids) == 1:
            self.parallel.discard(e.pair())
        self._bump(-1, e.u, e.v)
        return e

    def change(self, gone: Iterable[int], added: dict[int, Edge], z: tuple[int, ...] = ()) -> dict[int, Edge]:
        """Drop the ids in `gone`, add `added` in order and delete the vertices z; in place.

        Every edge at z, alive or added, moves straight to `frozen`, so only
        the added edges that miss z are indexed.  z must be distinct alive
        slots, which is checked before L changes.  Returns the edges frozen.
        """
        zs = set(z)
        if len(zs) < len(z) or not zs <= self.deg.keys():
            raise DomainError(f"removal set {z} repeats a slot or holds one that is not alive")
        for eid in gone:
            self._drop(eid)
        froze = {}
        for v in z:
            # a slot of z deleted already has left v's map
            for w, ids in self.adj.pop(v).items():
                for eid in ids:
                    froze[eid] = self.edges.pop(eid)
                if len(ids) > 1:
                    self.parallel.discard((v, w) if v < w else (w, v))
                del self.adj[w][v]
                self._bump(-len(ids), w, v)
            side = self.sides[v >= self.a]
            del self.deg[v], side[bisect_left(side, v)]
        for e in added.values():
            if e.u in zs or e.v in zs:
                froze[e.id] = e
            else:
                self._add(e)
        if added:
            self.next_fresh_id = max(added) + 1
        self.frozen.update(froze)
        return froze


# -- public operations --------------------------------------------------------


def edge_lift(L: LevelState, moves: Iterable[tuple[int, int, int]], z: tuple[int, ...] = ()) -> LevelState:
    """Apply the edge-liftings (edge_id, x, y) to L in order, in place; returns L.

    Each replaces class-crossing edge uv by the three edges xy, uy, xv with
    fresh ids, exactly as one call per move would: the same as lifting uv
    to x and the x-side half on to y, but the graph stays bipartite.  Each
    move needs alive slots x and y in opposite classes, either way round,
    and four distinct vertices; u is the endpoint of the lifted edge in x's
    class, so a lift with x in class B mirrors the class-A lift of the
    transposed graph.  Given a removal set z, the same `LevelState.change`
    then deletes z, so the new edges at z go straight to `frozen`.  The
    whole batch, z included, is checked before L changes.  Each move
    records uv's pieces uy, yx, xv in `L.split`.
    """
    gone: set[int] = set()
    added: dict[int, Edge] = {}
    split = {}
    a, deg = L.a, L.deg
    i = L.next_fresh_id
    for edge_id, x, y in moves:
        if edge_id in added:
            e = added.pop(edge_id)
        else:
            e = None if edge_id in gone else L.edges.get(edge_id)
            if e is None:
                raise NotFoundError(f"edge id {edge_id} not in graph")
            gone.add(edge_id)
        if x not in deg or y not in deg:
            raise DomainError(f"slot {y if x in deg else x} is not an alive vertex")
        if (x < a) == (y < a):
            raise PreconditionError("edge-lift target must pair vertices of opposite classes")
        if (e.u < a) == (e.v < a):
            raise PreconditionError("edge-lift applies to class-crossing edges only")
        u, v = (e.u, e.v) if (e.u < a) == (x < a) else (e.v, e.u)
        if len({u, v, x, y}) != 4:
            raise PreconditionError("edge-lift needs four distinct vertices")
        added[i] = Edge(i, e.label, x, y)
        added[i + 1] = Edge(i + 1, e.label, u, y)
        added[i + 2] = Edge(i + 2, e.label, x, v)
        split[edge_id] = (u, (i + 1, i, i + 2))
        i += 3
    L.change(gone, added, z)
    L.split.update(split)
    return L


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
    L = _resolve(D, trace)
    return checked_resolution(D, extract_resolution(D, L.split, L.frozen | L.edges)), trace


def check_conditions(L: LevelState, z: tuple[int, ...], n: int, froze: Collection[Edge]) -> list[str]:
    """Check the four induction conditions after the step that removed z; returns failures.

    Reads z, the edges at z that the step froze and the degrees left, which are those off z.
    """
    problems = []
    za = sum(1 for v in z if v < L.a)
    zb = len(z) - za
    if za != zb:
        problems.append(f"(1) Z meets the classes {za}/{zb}")
    if len(froze) < len(z):
        problems.append(f"(2) only {len(froze)} edges incident to Z, need {len(z)}")
    bound = n - len(z) // 2
    worst = max(L.bydeg, default=0)
    if worst > bound:
        problems.append(f"(3) degree {worst} off Z exceeds {bound}")
    pairs = [(e.u, e.v) if e.u <= e.v else (e.v, e.u) for e in froze]
    if len(set(pairs)) < len(pairs):
        bad = sorted(p for p, k in Counter(pairs).items() if k > 1)
        problems.extend(f"(4) parallel edges {u}-{v} touch Z" for u, v in bad)
    return problems


def pad_to_full(L: LevelState, n: int) -> LevelState:
    """Add demands of fresh labels between deficient vertices until |E| = 2n-2.

    Each demand joins the lowest-index vertices of degree below n.  L is
    padded in place and returned.
    """
    if L.m > 2 * n - 2:
        raise PreconditionError("instance already exceeds 2n-2 edges")
    if max(L.bydeg, default=0) > n:
        raise PreconditionError("instance already exceeds degree n")
    owed = 2 * n - 2 - L.m
    if not owed:
        return L

    def deficient(side: int):
        for v in L.sides[side]:
            yield from repeat(v, n - L.deg[v])

    pairs = list(islice(zip(deficient(0), deficient(1)), owed))
    if len(pairs) < owed:
        raise StructuralError("no deficient vertex pair available for padding")
    nid = L.next_fresh_id
    added = {i: Edge(i, i, u, v) for i, (u, v) in enumerate(pairs, nid)}
    L.change((), added)
    return L


def find_cover_F(L: LevelState, X: tuple[int, ...], Y: tuple[int, ...]) -> tuple[int, ...]:
    """Four distinct edges covering every vertex at most twice, Y at least once, X exactly twice.

    The selection follows the subcases on |Y| and is judged here once: a
    selection that is not such four edges raises StructuralError, since
    the case analysis guarantees one at a Case-1 level.
    """
    F = _structured_cover(L, X, Y)
    count: dict[int, int] = {}
    for eid in F:
        e = L.edges[eid]
        count[e.u] = count.get(e.u, 0) + 1
        count[e.v] = count.get(e.v, 0) + 1
    if (
        len(F) != 4 or len(set(F)) != 4 or max(count.values()) > 2
        or any(y not in count for y in Y) or any(count.get(x) != 2 for x in X)
    ):
        raise StructuralError(f"no structured 4-edge cover for |Y|={len(Y)}")
    return tuple(sorted(F))


def place_F(L: LevelState, F: tuple[int, ...], u1: int, u2: int, v1: int, v2: int) -> LevelState:
    """Edge-lift the cover edges onto the four isolated corners and remove them as Z.

    Takes the first numbering f0..f3 of F, in the order of
    `permutations(sorted(F))`, that leaves no parallel edge at Z when fi
    goes to the i-th slot xy of u1v1, u1v2, u2v2, u2v1 and becomes xy,
    py and xq, p being its end in u1's class: edges that share p need
    different y (f0 and f3 share v1, f1 and f2 share v2), and edges that
    share q different x (f0 and f1 share u1, f2 and f3 share u2).  It is
    applied with the removal of Z as one `edge_lift` batch to L in
    place.  A corner that carries an edge raises PreconditionError.
    """
    busy = [v for v in (u1, u2, v1, v2) if L.deg.get(v)]
    if busy:
        raise PreconditionError(f"place_F needs isolated corners; {busy[0]} has an edge")
    a = L.a
    side = u1 < a
    p, q = {}, {}
    for eid in F:
        e = L.edges[eid]
        p[eid], q[eid] = (e.u, e.v) if (e.u < a) == side else (e.v, e.u)
    for f0, f1, f2, f3 in permutations(sorted(F)):
        if p[f0] != p[f3] and p[f1] != p[f2] and q[f0] != q[f1] and q[f2] != q[f3]:
            moves = [(f0, u1, v1), (f1, u1, v2), (f2, u2, v2), (f3, u2, v1)]
            return edge_lift(L, moves, (u1, u2, v1, v2))
    raise StructuralError("no numbering of the cover edges avoids parallels at Z")


# -- induction loop -------------------------------------------------------------


def _resolve(D: DemandGraph, trace: CaseTrace) -> LevelState:
    """Run the induction on D and return its final state.

    Every level works on the one state L and ends in one change to it
    that lifts onto Z and removes Z, moving the edges at Z to `L.frozen`,
    where they are final; the alive edges left at the end are final too,
    and a base case writes its pieces to `L.frozen` directly.  Each lift
    and the base case record in `L.split` the pieces that replace an
    edge, and a demand's route is composed from those records.  Each
    level that removed a Z is recorded in `trace.levels`.
    """
    L = LevelState(D)
    levels = trace.levels = _Levels(D.a, D.a + D.b)
    while True:
        n = len(L.sides[0])
        if not L.parallel:
            trace.steps.append(CaseContext(n, "simple"))
            break
        if n <= 5:
            _base_case(L, trace)
            break
        pad_to_full(L, n)
        k = len(L.frozen)
        ctx, z = _dispatch(L, n)
        trace.steps.append(ctx)
        if z is None:
            if L.parallel:
                raise StructuralError(f"case {ctx.case_tag}: direct construction not simple")
            break
        levels.add(ctx, z)
        froze = list(islice(reversed(L.frozen.values()), len(L.frozen) - k))
        problems = check_conditions(L, z, n, froze)
        if problems:
            raise StructuralError(f"case {ctx.case_tag}: " + "; ".join(problems))
        m = n - len(z) // 2
        if L.m > 2 * m - 2:
            raise StructuralError(f"case {ctx.case_tag}: induced instance keeps too many edges")
    return L


def _base_case(L: LevelState, trace: CaseTrace) -> None:
    """Route the alive graph with the oracle on the compact K_{n,n}, in place.

    Each alive edge is replaced by the edges of its route, recorded in
    `L.split`.  The induction ends here, so the pieces go straight to
    `L.frozen` and the replaced edges leave `L.edges`; the adjacency,
    degrees and heaps, which nothing reads any more, are left as they were.
    """
    alive = [*L.sides[0], *L.sides[1]]  # by compact slot
    n = len(L.sides[0])
    compact = {v: k for k, v in enumerate(alive)}
    C = DemandGraph(
        n,
        n,
        {eid: e._replace(u=compact[e.u], v=compact[e.v]) for eid, e in L.edges.items()},
        L.next_fresh_id,
    )
    verdict = decide(C, _BASE_BUDGET)
    if verdict.status != RESOLVABLE:
        raise StructuralError(
            f"oracle reported {verdict.status} on an in-hypothesis base instance"
        )
    trace.steps.append(CaseContext(n, "base", note=f"nodes={verdict.nodes_explored}"))
    frozen = L.frozen
    nid = L.next_fresh_id
    for eid in sorted(C.links):
        e = C.links[eid]
        vs = [alive[s] for s in verdict.resolution.slots[eid]]
        L.split[eid] = (vs[0], tuple(range(nid, nid + len(vs) - 1)))
        for x, y in zip(vs, vs[1:]):
            frozen[nid] = Edge(nid, e.label, x, y)
            nid += 1
    L.edges = {}
    L.next_fresh_id = nid


# -- case dispatch -------------------------------------------------------------


def _dispatch(L: LevelState, n: int):
    """Run the case handler, which lifts onto Z and removes Z from L in place; returns (ctx, z)."""
    iso_a = L.lowest(0, 0, 2)
    iso_b = L.lowest(0, 1, 2)
    X = tuple(sorted(L.bydeg.get(n, ())))
    a = L.a
    if len({v >= a for v in X}) < len(X):
        raise StructuralError("more than one degree-n vertex in a class")
    if len(iso_a) >= 2 and len(iso_b) >= 2:
        return _case1(L, n, iso_a, iso_b, X)
    if not X:
        for s in (0, 1):
            if L.lowest(1, s, 1):
                return _oriented(_case21, L, n, s)
        return _case22(L, n)
    if len(X) == 1:
        return _oriented(_case3, L, n, int(X[0] >= a))
    return _oriented(_case4, L, n, 1 if len(iso_b) >= 2 else 0)


def _oriented(handler, L: LevelState, n: int, s: int):
    """Run a handler with class s in the role of the paper's class A.

    The handler gets s and the other class t as arguments; the step is
    recorded as swapped when class B plays class A.
    """
    ctx, z = handler(L, n, s, 1 - s)
    ctx.swapped = s == 1
    return ctx, z


def _first(L: LevelState, k: int, p: int | None = None, q: int | None = None, at: int | None = None) -> list[int]:
    """The k lowest ids of the alive edges that touch neither p nor q, and touch `at` if given.

    Reads `L.ids` in order, so the ids of edges gone since are read once.
    """
    heap, edges = L.ids, L.edges
    out, seen = [], []
    while heap and len(out) < k:
        e = edges.get(heappop(heap))
        if e is not None:
            seen.append(e.id)
            if e.u != p and e.v != p and e.u != q and e.v != q and (at is None or at == e.u or at == e.v):
                out.append(e.id)
    for eid in seen:
        heappush(heap, eid)
    return out


# -- Case 1: four isolated corners ---------------------------------------------


def _case1(L: LevelState, n: int, iso_a: list[int], iso_b: list[int], X: tuple[int, ...]):
    u1, u2 = iso_a
    v1, v2 = iso_b
    Y = tuple(sorted(v for d in (n - 1, n) for v in L.bydeg.get(d, ())))
    F = find_cover_F(L, X, Y)
    place_F(L, F, u1, u2, v1, v2)
    z = (u1, u2, v1, v2)
    return CaseContext(n, f"1.{5 - len(Y)}", X, Y, f_set=F, lifts=4), z


def _structured_cover(L: LevelState, X, Y) -> list[int]:
    # Case 1 has m = 2n - 2, Δ <= n, n >= 6: at most two Y vertices per class, so each branch finds 4 edges
    ya = sorted(v for v in Y if v < L.a)
    yb = sorted(v for v in Y if v >= L.a)
    if len(Y) == 4:
        if len(ya) != 2 or len(yb) != 2:
            return []
        corners = [(ya[0], yb[0]), (ya[1], yb[0]), (ya[1], yb[1]), (ya[0], yb[1])]
        if all(L.pair(u, v) for u, v in corners):
            return [L.pair(u, v)[0] for u, v in corners]
        # every edge joins ya to yb, so a missing corner doubles the other pairing
        pairing = ((ya[0], yb[0]), (ya[1], yb[1]))
        if not all(len(L.pair(u, v)) >= 2 for u, v in pairing):
            pairing = ((ya[0], yb[1]), (ya[1], yb[0]))
        return [eid for u, v in pairing for eid in L.pair(u, v)[:2]]
    if len(Y) == 3:
        if len(ya) == 1:
            hub, p = ya[0], yb
        elif len(yb) == 1:
            hub, p = yb[0], ya
        else:
            return []
        p_star = max(p, key=lambda w: (len(L.pair(hub, w)), -w))
        other = p[0] if p_star == p[1] else p[1]
        return L.pair(hub, p_star)[:2] + _first(L, 2, hub, at=other)
    if len(Y) == 2:
        y1, y2 = sorted(Y)
        if (y1 < L.a) != (y2 < L.a):
            out1 = _first(L, 2, y2, at=y1)
            out2 = _first(L, 2, y1, at=y2)
            if len(out1) >= 2 and len(out2) >= 2:
                return out1 + out2
            return L.pair(y1, y2)[:2] + _first(L, 2, y1, y2)
        # both in one class, so no edge joins them: two lowest edges at
        # each, capping shared endpoints
        out = []
        cover: dict[int, int] = {}
        for y in (y1, y2):
            got = 0
            for eid, e in L.edges.items():
                w = e.v if e.u == y else e.u if e.v == y else None
                if w is None or cover.get(w, 0) >= 2:
                    continue
                out.append(eid)
                cover[w] = cover.get(w, 0) + 1
                got += 1
                if got == 2:
                    break
        return out
    # two edges of one pair, the most repeated one at y for Y = {y} and the
    # lowest parallel pair otherwise, plus two edges avoiding both ends
    if len(Y) == 1:
        p = Y[0]
        if not L.adj[p]:
            return []
        q = max(L.adj[p], key=lambda w: (len(L.pair(p, w)), -w))
    elif L.parallel:
        p, q = min(L.parallel)
    else:
        return []
    return L.pair(p, q)[:2] + _first(L, 2, p, q)


# -- Case 2: no degree-n vertex --------------------------------------------------


def _case21(L: LevelState, n: int, s: int, t: int):
    """A degree-1 vertex x in class s."""
    x = L.lowest(1, s, 1)[0]
    xp = next(iter(L.adj[x]))
    iso_t = L.lowest(0, t, 1)
    if iso_t:
        y = iso_t[0]
        away = _first(L, 1, x, xp)
        if not away:
            raise StructuralError("case 2.1: no edge avoids x and its neighbor")
        z = (x, y)
        edge_lift(L, [(away[0], x, y)], z)
        return CaseContext(n, "2.1", lifts=1), z
    ones = L.lowest(1, t, 2)
    if len(ones) < 2:
        raise StructuralError("case 2.1: expected two degree-1 vertices opposite x")
    # x has the one neighbour xp, so one of the two lowest is not joined to x
    z = (x, ones[1] if ones[0] == xp else ones[0])
    L.change((), {}, z)
    return CaseContext(n, "2.1"), z


def _case22(L: LevelState, n: int):
    """No degree-1 vertex and no degree-n vertex."""
    iso_a = L.lowest(0, 0, 2)
    iso_b = L.lowest(0, 1, 2)
    v = _first_plain(L)
    if v is not None:
        other_iso = iso_b if v < L.a else iso_a
        if not other_iso:
            raise StructuralError("case 2.2.1: no isolated vertex opposite")
        z = (v, other_iso[0])
        L.change((), {}, z)
        return CaseContext(n, "2.2.1"), z
    if len(iso_a) >= 2 or len(iso_b) >= 2:
        return _oriented(_case222, L, n, 1 if len(iso_b) >= 2 else 0)
    return _case223(L, n)


def _first_plain(L: LevelState) -> int | None:
    """The lowest degree-2 slot with two distinct neighbours, read from each class in doubling prefixes."""
    for s in (0, 1):
        k = 1
        while True:
            k *= 2
            twos = L.lowest(2, s, k)
            for v in twos:
                if len(L.adj[v]) == 2:
                    return v
            if len(twos) < k:
                break
    return None


def _case222(L: LevelState, n: int, s: int, t: int):
    """Two isolated vertices in class s; class t all doubled pairs."""
    iso_s = L.lowest(0, s, 2)
    if len(iso_s) < 2:
        raise StructuralError("case 2.2.2: missing the two isolated vertices")
    a1, a2 = iso_s
    for y in L.sides[t]:
        d = L.deg[y]
        if d not in (0, 2) or (d == 2 and len(L.adj[y]) != 1):
            raise StructuralError("case 2.2.2: opposite class is not all doubled pairs")
    pos = sorted(
        (x for x in L.sides[s] if L.deg[x] > 0),
        key=lambda x: (-L.deg[x], x),
    )
    if len(pos) < 2:
        raise StructuralError("case 2.2.2: fewer than two positive-degree vertices")
    u, v = pos[:2]
    zz = min(L.adj[u])
    w = min(L.adj[v])
    if zz == w:
        raise StructuralError("case 2.2.2: chosen neighbors coincide")
    z = (a1, a2, zz, w)
    edge_lift(L, [(L.pair(u, zz)[0], a1, w), (L.pair(v, w)[0], a2, zz)], z)
    return CaseContext(n, "2.2.2", lifts=2), z


def _case223(L: LevelState, n: int):
    """Exactly one isolated vertex per class: the doubled-matching chain."""
    part: dict[int, int] = {}
    for a in L.sides[0]:
        if L.deg[a] == 0:
            continue
        nb = L.adj[a]
        if L.deg[a] != 2 or len(nb) != 1:
            raise StructuralError("case 2.2.3: not a doubled matching")
        part[a] = next(iter(nb))
    if len(part) != n - 1 or len(set(part.values())) != n - 1:
        raise StructuralError("case 2.2.3: partners are not a matching")
    a_seq = list(part) + L.lowest(0, 0, 1)
    b_seq = list(part.values()) + L.lowest(0, 1, 1)
    moves = [
        (L.pair(a_seq[i], b_seq[i])[0], a_seq[i + 1], b_seq[(i + 2) % n])
        for i in range(n - 1)
    ]
    edge_lift(L, moves)
    return CaseContext(n, "2.2.3", lifts=n - 1), None


# -- Case 3: exactly one degree-n vertex -----------------------------------------


def _case3(L: LevelState, n: int, s: int, t: int):
    """One degree-n vertex z, in class s."""
    (z,) = L.bydeg[n]
    iso_s = L.lowest(0, s, 1)
    if not iso_s:
        raise StructuralError("case 3: class of the full vertex has no isolated vertex")
    v = iso_s[0]
    ones_t = L.lowest(1, t, 1)
    if ones_t:
        u = ones_t[0]
        if u in L.adj[z]:
            away = _first(L, 1, u, z)
            if not away:
                raise StructuralError("case 3.1: no edge disjoint from u and z")
        else:
            away = _first(L, 1, at=z)
        zz = (v, u)
        edge_lift(L, [(away[0], v, u)], zz)
        return CaseContext(n, "3.1", x_slots=(z,), lifts=1), zz
    iso_t = L.lowest(0, t, 1)
    if not iso_t:
        raise StructuralError("case 3.2: opposite class has no isolated vertex")
    u = iso_t[0]
    if all(L.deg[y] == 2 for y in L.sides[t] if y != u):
        return _case321(L, n, s, t, z, v, u)
    return _case322(L, n, s, t, z, v, u)


def _case321(L: LevelState, n: int, s: int, t: int, z: int, v: int, u: int):
    """Full vertex z in class s, u isolated in class t, the rest of t degree two."""
    adj = L.adj
    mult_free = [y for y in L.sides[t] if y != u and len(adj[y]) == 2]
    adj_free = [x for x in mult_free if x in adj[z]]
    if adj_free:
        x = adj_free[0]
        eid = _first(L, 1, x, at=z)[0]
        zz = (v, x)
        edge_lift(L, [(eid, v, u)], zz)
        ctx = CaseContext(n, "3.2.1", x_slots=(z,), lifts=1, note="plain neighbor")
        return ctx, zz
    if not mult_free:
        # every degree-2 vertex is a doubled pair
        iso_s = L.lowest(0, s, 2)
        if len(iso_s) < 2:
            raise StructuralError("case 3.2.1: second isolated vertex missing")
        v2 = iso_s[1]
        a_nb = min(adj[z])
        # at most len(adj[z]) degree-2 slots are joined to z
        b_cands = [y for y in L.lowest(2, t, len(adj[z]) + 1) if y not in adj[z]]
        if not b_cands:
            raise StructuralError("case 3.2.1: no doubled pair away from the full vertex")
        b = b_cands[0]
        zp = next(iter(adj[b]))
        zz = (v, v2, a_nb, b)
        edge_lift(L, [(L.pair(z, a_nb)[0], v, b), (L.pair(zp, b)[0], v2, a_nb)], zz)
        ctx = CaseContext(n, "3.2.1", x_slots=(z,), lifts=2, note="parallel pairs")
        return ctx, zz
    # Mixed shape: the full vertex sees only doubled pairs while plain
    # degree-2 vertices live elsewhere.  Lift one copy of every doubled
    # pair at z onto v and the non-neighbors of z; afterwards z is simple
    # and Z = {z, v, first neighbor, u} satisfies the four conditions.
    star = sorted(adj[z])
    if n % 2 != 0 or len(star) != n // 2:
        raise StructuralError("case 3.2.1: unexpected neighborhood shape at the full vertex")
    if any(len(L.pair(z, x)) != 2 for x in star):
        raise StructuralError("case 3.2.1: neighbor of the full vertex not doubled")
    targets = [y for y in L.sides[t] if y not in adj[z]]
    if len(targets) != len(star):
        raise StructuralError("case 3.2.1: target count mismatch")
    zz = (z, v, star[0], u)
    edge_lift(L, [(L.pair(z, x)[0], v, y) for x, y in zip(star, targets)], zz)
    ctx = CaseContext(n, "3.2.1", x_slots=(z,), lifts=len(star), note="lifted parallel star")
    return ctx, zz


def _case322(L: LevelState, n: int, s: int, t: int, z: int, v: int, u: int):
    """Full vertex z in class s, two isolated vertices in class t, the rest of s degree one."""
    # every degree-1 slot joined to the first x is one of its edges, so a
    # prefix one longer than its degree holds the y the full bucket gives
    ones_s = L.lowest(1, s, L.deg[min(L.adj[z])] + 1)
    for x in sorted(L.adj[z]):
        for y in ones_s:
            if x not in L.adj[y]:
                zz = (y, u)
                edge_lift(L, [(L.pair(z, x)[0], y, u)], zz)
                return CaseContext(n, "3.2.2", x_slots=(z,), lifts=1), zz
    raise StructuralError("case 3.2.2: every neighbor of z covers all degree-1 vertices")


# -- Case 4: two degree-n vertices ------------------------------------------------


def _case4(L: LevelState, n: int, s: int, t: int):
    """Degree-n vertices z1 in class s and z2 in class t."""
    za, zb = sorted(L.bydeg[n])
    z1, z2 = (za, zb) if s == 0 else (zb, za)
    joint = L.pair(z1, z2)
    if len(joint) < 2:
        raise StructuralError("case 4: the two full vertices are not doubly joined")
    iso_s = L.lowest(0, s, 1)
    iso_t = L.lowest(0, t, 1)
    if not iso_s or not iso_t:
        raise StructuralError("case 4: missing isolated vertices")
    v1, v2 = iso_s[0], iso_t[0]
    # at most len(adj[z1]) degree-1 slots are joined to z1
    loose = [y for y in L.lowest(1, t, len(L.adj[z1]) + 1) if y not in L.adj[z1]]
    if loose:
        y, zz = loose[0], (v1, loose[0])
    elif len(joint) != 2:
        raise StructuralError("case 4: full vertex must carry exactly one doubled edge")
    else:
        y, zz = v2, (z1, v2)
    edge_lift(L, [(joint[0], v1, y)], zz)
    return CaseContext(n, "4", x_slots=(z1, z2), lifts=1), zz
