"""Loopless bipartite demand multigraphs and the lifting calculus.

A demand graph lives on the vertex classes of a complete bipartite base
graph K_{a,b}: every edge is a terminal pair that must be realized as a
path in the base graph.  Inside the package a vertex is an int slot: A_i
is i and B_j is a + j, so `u < a` tells the class and slots sort like
`V`s.  `V` (from `A` and `B`) is only the boundary: `from_pairs` and
`with_edges` take and check it, `DemandGraph.edges` shows it, and
`Resolution.routes` is made of it.  A solver's `Resolution` holds slot
routes and builds those `V` paths only when a caller first reads them.

Each physical edge carries a stable id plus a lineage label.  Lifting an
edge to a vertex replaces it by a two-edge detour that inherits the
label, so the edges sharing a label always form a walk between the two
original terminals.  `lift` applies a batch of moves with one copy of
the edge dict; its bipartite twin `edge_lift` lives with the edge
solver's level state, which it changes in place, removing a level's
removal set in the same change.  A demand's route is the composition
of its lifts: the edge solver records each split edge's pieces in walk
order as it makes them, and `extract_resolution` expands every demand
from those records down to its final edges as slot tuples, cutting the
cycles out of a walk that revisits a vertex.  `verify_routes` checks
slot routes (`verify_resolution` a `Resolution`'s), and the solvers'
one exit `checked_resolution` wraps them, once checked, in a
slot-backed `Resolution` without making any `V`.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, NamedTuple

from .errors import DomainError, NotFoundError, PreconditionError, StructuralError

SIDE_A = "A"
SIDE_B = "B"


class V(NamedTuple):
    """A base-graph vertex: class side plus position within the class."""

    side: str
    index: int


def A(i: int) -> V:
    return V(SIDE_A, i)


def B(j: int) -> V:
    return V(SIDE_B, j)


class Edge(NamedTuple):
    """A physical demand edge between slots.  `label` is the lineage tag liftings preserve."""

    id: int
    label: int
    u: int
    v: int

    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u

    def touches(self, w: int) -> bool:
        return w == self.u or w == self.v


class Path(NamedTuple):
    """A simple alternating path in the base graph, as a vertex sequence."""

    vertices: tuple[V, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


class Resolution:
    """Routes mapping each original demand-edge id to its path.

    `Resolution(routes)` holds `V` paths.  A solver's resolution comes from
    `of_slots`: it holds its slot routes in `slots`, with the class-A size
    `a` that reads them, and builds `routes` from them on first read.
    """

    def __init__(self, routes: dict[int, Path]):
        self.routes = routes
        self.slots: dict[int, tuple[int, ...]] | None = None
        self.a = 0

    @classmethod
    def of_slots(cls, a: int, slots: dict[int, tuple[int, ...]]) -> "Resolution":
        res = cls.__new__(cls)
        res.slots, res.a = slots, a
        return res

    @cached_property
    def routes(self) -> dict[int, Path]:
        a = self.a
        vertex = cache(lambda s: V(SIDE_A, s) if s < a else V(SIDE_B, s - a))
        return {eid: Path(tuple(map(vertex, route))) for eid, route in self.slots.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, Resolution) and self.routes == other.routes

    def __repr__(self) -> str:
        return f"Resolution(routes={self.routes!r})"


@dataclass(frozen=True)
class DemandGraph:
    """Immutable multigraph on the vertex classes of K_{a,b}.

    `links` maps edge id to Edge on slots and is never mutated after
    construction; all transforming operations return new graphs.  Demand
    edges cross the classes initially, but liftings may create same-side
    edges, so none of the accessors assume bipartiteness.
    """

    a: int
    b: int
    links: dict[int, Edge]
    next_fresh_id: int

    @staticmethod
    def empty(a: int, b: int) -> "DemandGraph":
        if a < 1 or b < 1:
            raise DomainError("both classes need at least one vertex")
        return DemandGraph(a, b, {}, 0)

    @staticmethod
    def from_pairs(a: int, b: int, pairs: Iterable[tuple[V, V]]) -> "DemandGraph":
        return DemandGraph.empty(a, b).with_edges(pairs)

    def with_edges(self, pairs: Iterable[tuple[V, V]]) -> "DemandGraph":
        """New graph with edges between the V pairs appended; ids and labels are fresh."""
        slot = self.slot
        return self.with_slots([(slot(u), slot(v)) for u, v in pairs])

    def with_slots(self, pairs: Iterable[tuple[int, int]]) -> "DemandGraph":
        """`with_edges` for pairs of slots that the caller has range-checked."""
        edges = dict(self.links)
        nid = self.next_fresh_id
        for u, v in pairs:
            if u == v:
                raise PreconditionError(f"loop at {self.vertex(u)} is not a demand edge")
            edges[nid] = Edge(nid, nid, u, v)
            nid += 1
        return DemandGraph(self.a, self.b, edges, nid)

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.links)

    @cached_property
    def edges(self) -> dict[int, Edge]:
        """`links` with V endpoints, for callers outside the package; built on first use."""
        vertex = cache(self.vertex)
        return {eid: Edge(eid, e.label, vertex(e.u), vertex(e.v)) for eid, e in self.links.items()}

    def slot(self, v: V) -> int:
        """The slot of vertex v; DomainError if v lies outside the base graph."""
        side, i = v
        if side == SIDE_A and 0 <= i < self.a:
            return i
        if side == SIDE_B and 0 <= i < self.b:
            return self.a + i
        raise DomainError(f"{v} outside K_{{{self.a},{self.b}}}")

    def vertex(self, s: int) -> V:
        return V(SIDE_A, s) if s < self.a else V(SIDE_B, s - self.a)

    def degree_map(self) -> list[int]:
        """The degree of every slot."""
        degs = [0] * (self.a + self.b)
        for e in self.links.values():
            degs[e.u] += 1
            degs[e.v] += 1
        return degs

    def max_degree(self) -> int:
        return max(self.degree_map())

    def max_multiplicity(self) -> int:
        pairs = Counter(e.pair() for e in self.links.values())
        return max(pairs.values(), default=0)

    def induced(self, keep: Iterable[int]) -> "DemandGraph":
        """Subgraph on the given slots; ids, labels and counter survive."""
        kept = set(keep)
        if kept and not (0 <= min(kept) and max(kept) < self.a + self.b):
            raise DomainError(f"a kept slot lies outside K_{{{self.a},{self.b}}}")
        edges = {eid: e for eid, e in self.links.items() if e.u in kept and e.v in kept}
        return DemandGraph(self.a, self.b, edges, self.next_fresh_id)

    def is_bipartite_demand(self) -> bool:
        a = self.a
        return all((e.u < a) != (e.v < a) for e in self.links.values())

    def transpose(self) -> "DemandGraph":
        """The graph with the classes swapped: A_i becomes B_i and B_j becomes A_j."""
        a, b = self.a, self.b
        flip = [*range(b, b + a), *range(b)]
        edges = {eid: e._replace(u=flip[e.u], v=flip[e.v]) for eid, e in self.links.items()}
        return DemandGraph(b, a, edges, self.next_fresh_id)


# -- lifting operations ---------------------------------------------------


def lift(D: DemandGraph, moves: Iterable[tuple[int, int]]) -> DemandGraph:
    """Apply the liftings (edge_id, z) onto slots z in order with one copy of the edge dict.

    Each replaces edge xy by the detour xz, zy with fresh ids, exactly as
    one call per move would; a move onto an endpoint is the identity.  D is
    never modified, and is returned as is when no move changes anything.
    """
    edges = dict(D.links)
    i = D.next_fresh_id
    n = D.a + D.b
    for edge_id, z in moves:
        e = edges.get(edge_id)
        if e is None:
            raise NotFoundError(f"edge id {edge_id} not in graph")
        if not 0 <= z < n:
            raise DomainError(f"slot {z} outside K_{{{D.a},{D.b}}}")
        if z != e.u and z != e.v:
            del edges[edge_id]
            edges[i] = Edge(i, e.label, e.u, z)
            edges[i + 1] = Edge(i + 1, e.label, z, e.v)
            i += 2
    return D if i == D.next_fresh_id else DemandGraph(D.a, D.b, edges, i)


# -- composing routes ------------------------------------------------------


def _shortcut_walk(walk: list) -> list:
    """Drop cycles from a walk, closing each one as soon as it appears."""
    out = []
    pos = {}
    for w in walk:
        if w in pos:
            cut = pos[w]
            for dropped in out[cut + 1:]:
                del pos[dropped]
            del out[cut + 1:]
        else:
            pos[w] = len(out)
            out.append(w)
    return out


def extract_resolution(
    D: DemandGraph, split: dict[int, tuple[int, tuple[int, ...]]], final: dict[int, Edge]
) -> dict[int, tuple[int, ...]]:
    """Compose one slot route per demand of D from the record of its splits.

    `split[eid] = (u, ids)` says that edge eid was replaced by the edges
    `ids`, a walk from its end u to its other end; an edge that was never
    split is in `final`.  Each demand's walk is expanded from
    `D.links[eid].u` down to final edges, and a walk that repeats a vertex
    is cut short by `_shortcut_walk`.  The routes are not checked here:
    that is `checked_resolution`'s job.
    """
    routes: dict[int, tuple[int, ...]] = {}
    for eid in sorted(D.links):
        walk = [D.links[eid].u]
        stack = [eid]
        while stack:
            i = stack.pop()
            piece = split.get(i)
            if piece is not None:
                u, ids = piece
                stack.extend(reversed(ids) if u == walk[-1] else ids)
            elif i in final:
                e = final[i]
                walk.append(e.v if e.u == walk[-1] else e.u)
            else:
                raise StructuralError(f"edge {i} of demand {eid} is neither split nor final")
        if len(set(walk)) < len(walk):
            walk = _shortcut_walk(walk)
        routes[eid] = tuple(walk)
    return routes


def checked_resolution(D: DemandGraph, routes: dict[int, tuple[int, ...]]) -> Resolution:
    """A constructive solver's slot routes as a slot-backed `Resolution`, once they pass `verify_routes`.

    Any problem is a solver bug and raises StructuralError naming every problem.
    """
    problems = verify_routes(D, routes)
    if problems:
        raise StructuralError("solver produced an invalid resolution: " + "; ".join(problems))
    return Resolution.of_slots(D.a, routes)


def verify_resolution(D: DemandGraph, res: Resolution) -> list[str]:
    """Check a claimed resolution; returns violations, empty means valid."""
    return verify_routes(D, {eid: path.vertices for eid, path in res.routes.items()}, D.slot)


def verify_routes(D: DemandGraph, routes: dict[int, tuple], slot: Callable | None = None) -> list[str]:
    """`verify_resolution` for slot routes in [0, a+b), or for `V` routes whose vertices `slot` maps to slots.

    One pass per route: a route alternates iff its even and its odd
    positions each lie in one class, told apart by their min and max.
    """
    links = D.links
    problems = [f"edge {eid}: no route" for eid in sorted(links.keys() - routes.keys())]
    a, n = D.a, D.a + D.b
    sound: list[tuple[int, tuple[int, ...] | list[int]]] = []
    for eid in sorted(routes):
        e = links.get(eid)
        if e is None:
            problems.append(f"route {eid}: unknown demand edge")
            continue
        vs = ss = routes[eid]
        if len(vs) < 2:
            problems.append(f"route {eid}: needs at least one edge")
            continue
        if slot is not None:
            ss = []
            for w in vs:
                try:
                    ss.append(slot(w))
                except DomainError:
                    problems.append(f"route {eid}: vertex {w} outside base graph")
                    break
            if len(ss) < len(vs):
                continue
        elif min(ss) < 0 or max(ss) >= n:
            problems.append(f"route {eid}: vertex {next(w for w in ss if not 0 <= w < n)} outside base graph")
            continue
        even, odd = ss[::2], ss[1::2]
        ok = max(even) < a <= min(odd) or max(odd) < a <= min(even)
        if not ok:
            problems.append(f"route {eid}: consecutive vertices do not alternate classes")
        if len(set(ss)) != len(ss):
            problems.append(f"route {eid}: repeats a vertex")
            ok = False
        x, y = ss[0], ss[-1]
        if not (x == e.u and y == e.v or x == e.v and y == e.u):
            problems.append(f"route {eid}: endpoints differ from the demand edge")
            ok = False
        if ok:
            sound.append((eid, ss))
    usage: dict[int, int] = {}
    for eid, ss in sound:
        for x, y in zip(ss, ss[1:]):
            key = x * n + y if x < y else y * n + x
            first = usage.setdefault(key, eid)
            if first != eid:
                lo, hi = divmod(key, n)
                problems.append(f"base edge {D.vertex(lo)}-{D.vertex(hi)} used by routes {first} and {eid}")
    return problems
