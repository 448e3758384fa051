"""Lifting calculus: liftings, route composition, verifier."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpb import (
    A,
    B,
    DemandGraph,
    DomainError,
    LevelState,
    NotFoundError,
    Path,
    PreconditionError,
    Resolution,
    StructuralError,
    V,
    edge_lift,
    extract_resolution,
    lift,
    verify_resolution,
)
from tpb.demand import Edge, _shortcut_walk, checked_resolution, verify_routes


def g(a, b, pairs):
    return DemandGraph.from_pairs(a, b, pairs)


def flipped(v):
    """The vertex at the same index in the other class."""
    return (B if v.side == "A" else A)(v.index)


def graph_of(L):
    """The alive edges of a level state as a graph."""
    return DemandGraph(L.a, L.b, dict(L.edges), L.next_fresh_id)


def state_of(L):
    """Everything a level state holds, for comparing two states."""
    return (
        list(L.edges.items()), L.next_fresh_id, L.deg, L.bydeg, L.adj,
        L.parallel, [list(vs) for vs in L.sides], L.frozen, L.split,
        [L.lowest(d, s, L.a + L.b) for d in range(3) for s in (0, 1)],
    )


# -- lift ---------------------------------------------------------------------


def test_lift_to_endpoint_is_identity():
    D = g(2, 2, [(A(0), B(0))])
    assert lift(D, [(0, D.slot(A(0)))]) is D
    assert lift(D, [(0, D.slot(B(0)))]) is D


def test_lift_splits_edge_and_keeps_label():
    D = g(2, 2, [(A(0), B(0))])
    D2 = lift(D, [(0, D.slot(A(1)))])
    assert D2.m == D.m + 1
    assert sorted(e.pair() for e in D2.edges.values()) == [
        (A(0), A(1)),
        (A(1), B(0)),
    ]
    assert all(e.label == 0 for e in D2.edges.values())
    assert 0 not in D2.edges


def test_lift_composition_equals_edge_lift():
    # lifting uv to x and then the ux half on to y equals edge_lift to xy
    D = g(3, 3, [(A(0), B(0))])
    one = lift(D, [(0, D.slot(A(1)))])
    half = next(eid for eid, e in one.edges.items() if e.pair() == (A(0), A(1)))
    two = lift(one, [(half, D.slot(B(1)))])
    direct = edge_lift(LevelState(D), [(0, D.slot(A(1)), D.slot(B(1)))])
    assert Counter(e.pair() for e in two.edges.values()) == Counter(
        e.pair() for e in graph_of(direct).edges.values()
    )


def test_lift_unknown_edge_and_bad_vertex():
    D = g(2, 2, [(A(0), B(0))])
    with pytest.raises(NotFoundError):
        lift(D, [(99, D.slot(A(1)))])
    for z in (-1, 4, 5):  # slots of K_{2,2} are 0..3
        with pytest.raises(DomainError):
            lift(D, [(0, z)])


def test_lift_batch_without_effective_move_is_identity():
    D = g(2, 2, [(A(0), B(0)), (A(1), B(1))])
    assert lift(D, []) is D
    assert lift(D, [(0, 0), (1, D.slot(B(1))), (0, D.slot(B(0)))]) is D


def test_lift_batch_rejects_repeated_id_and_bad_vertex_without_change():
    D = g(3, 3, [(A(0), B(0)), (A(1), B(1))])
    before = list(D.links.items()), D.next_fresh_id
    with pytest.raises(NotFoundError):
        lift(D, [(0, D.slot(A(1))), (0, D.slot(A(2)))])
    with pytest.raises(DomainError):
        lift(D, [(0, D.slot(A(1))), (1, 9)])
    assert (list(D.links.items()), D.next_fresh_id) == before


def test_lift_batch_may_move_edges_it_creates():
    D = g(3, 3, [(A(0), B(0))])
    G = lift(D, [(0, D.slot(A(1))), (2, D.slot(B(2)))])  # id 2 is the A(1)-B(0) half
    assert [(e.id, e.u, e.v) for e in G.edges.values()] == [
        (1, A(0), A(1)),
        (3, A(1), B(2)),
        (4, B(2), B(0)),
    ]
    assert G.next_fresh_id == 5


# -- edge lift ----------------------------------------------------------------


def test_edge_lift_example():
    D = g(2, 2, [(A(0), B(0))])
    L = LevelState(D)
    assert edge_lift(L, [(0, D.slot(A(1)), D.slot(B(1)))]) is L
    assert sorted(e.pair() for e in graph_of(L).edges.values()) == [
        (A(0), B(1)),
        (A(1), B(0)),
        (A(1), B(1)),
    ]
    assert all(e.label == 0 for e in L.edges.values())


def test_edge_lift_degrees():
    D = g(2, 2, [(A(0), B(0))])
    L = edge_lift(LevelState(D), [(0, D.slot(A(1)), D.slot(B(1)))])
    degs = L.deg
    assert degs[D.slot(A(0))] == 1 and degs[D.slot(B(0))] == 1
    assert degs[D.slot(A(1))] == 2 and degs[D.slot(B(1))] == 2


def test_edge_lift_rejects_shared_vertex():
    D = g(2, 2, [(A(0), B(0))])
    L = LevelState(D)
    with pytest.raises(PreconditionError):
        edge_lift(L, [(0, D.slot(A(0)), D.slot(B(1)))])
    with pytest.raises(PreconditionError):
        edge_lift(L, [(0, D.slot(B(1)), D.slot(A(0)))])


def test_edge_lift_rejects_within_class_edge():
    D = g(2, 2, [(A(0), B(0))])
    D2 = lift(D, [(0, D.slot(A(1)))])  # creates the within-class edge (A0, A1)
    aa = next(eid for eid, e in D2.edges.items() if e.pair() == (A(0), A(1)))
    with pytest.raises(PreconditionError):
        edge_lift(LevelState(D2), [(aa, D.slot(A(0)), D.slot(B(1)))])


def test_edge_lift_batch_failure_leaves_input_unchanged():
    D = g(4, 4, [(A(0), B(0)), (A(1), B(1))])
    s = D.slot

    def fresh():
        L = LevelState(D)
        L.change((), {}, (s(A(3)), s(B(3))))
        return L

    L = fresh()
    assert edge_lift(L, []) is L
    for error, moves in (
        (NotFoundError, [(0, s(A(1)), s(B(1))), (0, s(A(2)), s(B(2)))]),
        (DomainError, [(0, s(A(2)), s(B(2))), (1, s(A(0)), 8)]),  # slots of K_{4,4} are 0..7
        (DomainError, [(0, s(A(2)), s(B(2))), (1, -1, s(B(0)))]),
        (DomainError, [(0, s(A(2)), s(B(2))), (1, s(A(3)), s(B(0)))]),  # A3 is removed
        (PreconditionError, [(0, s(A(2)), s(B(2))), (1, s(A(2)), s(B(1)))]),
        (PreconditionError, [(0, s(A(2)), s(B(2))), (1, s(B(0)), s(B(2)))]),  # target in class B only
        (PreconditionError, [(0, s(A(2)), s(B(2))), (1, s(A(0)), s(A(2)))]),
    ):
        with pytest.raises(error):
            edge_lift(L, moves)
        assert state_of(L) == state_of(fresh()), moves
    # the removal set is checked with the moves: a repeated or removed slot
    for z in ((s(A(2)), s(B(2)), s(A(2))), (s(A(2)), s(B(3)))):
        with pytest.raises(DomainError):
            edge_lift(L, [(0, s(A(2)), s(B(2)))], z)
        assert state_of(L) == state_of(fresh()), z


# -- extraction ----------------------------------------------------------------


def test_extract_length_one_and_simple_walk():
    D = g(3, 3, [(A(0), B(0)), (A(1), B(1))])
    s = D.slot
    r = extract_resolution(D, {}, D.links)
    assert r == {0: (s(A(0)), s(B(0))), 1: (s(A(1)), s(B(1)))}
    L = edge_lift(LevelState(D), [(0, s(A(2)), s(B(2)))])
    # the pieces uy, xy, xv of uv = A0-B0, in walk order from A0
    assert L.split == {0: (s(A(0)), (3, 2, 4))}
    r = extract_resolution(D, L.split, L.edges)
    assert r[0] == (s(A(0)), s(B(2)), s(A(2)), s(B(0)))
    assert verify_routes(D, r) == []
    # a demand listed from its other end walks the pieces backwards
    D2 = g(3, 3, [(B(0), A(0))])
    r = extract_resolution(D2, L.split, L.edges)
    assert r[0] == (s(B(0)), s(A(2)), s(B(2)), s(A(0)))
    assert verify_routes(D2, r) == []


def test_shortcut_drops_two_cycle():
    walk = [A(0), B(1), A(0), B(0)]
    assert _shortcut_walk(walk) == [A(0), B(0)]


def revisiting_splits():
    """Split records whose composed walks revisit vertices.

    Demand 0 (A0-B0) is split into A0-B1, B1-A0 and A0-B0, and its middle
    piece, recorded from A0, into A0-B2-A1-B1, so its walk runs round
    A0-B1-A1-B2-A0 before its last edge.  Demand 1 (A2-B3) walks
    A2-B4-A3-B5-A2-B1-A3-B3, meeting A2 and A3 twice each.
    """
    s = DemandGraph.empty(4, 6).slot
    orig = DemandGraph(4, 6, {0: Edge(0, 0, s(A(0)), s(B(0))), 1: Edge(1, 1, s(A(2)), s(B(3)))}, 2)
    steps = [
        (0, A(0), B(1)), (0, A(0), B(0)), (0, A(0), B(2)), (0, B(2), A(1)), (0, A(1), B(1)),
        (1, A(2), B(4)), (1, B(4), A(3)), (1, A(3), B(5)), (1, B(5), A(2)),
        (1, A(2), B(1)), (1, B(1), A(3)), (1, A(3), B(3)),
    ]
    final = {10 + k: Edge(10 + k, lab, s(u), s(v)) for k, (lab, u, v) in enumerate(steps)}
    split = {
        0: (s(A(0)), (10, 9, 11)),
        9: (s(A(0)), (12, 13, 14)),
        1: (s(A(2)), tuple(range(15, 22))),
    }
    return orig, split, final


def test_extract_revisiting_class_pinned():
    orig, split, final = revisiting_splits()
    r = extract_resolution(orig, split, final)
    s = orig.slot
    assert r == {0: (s(A(0)), s(B(0))), 1: (s(A(2)), s(B(1)), s(A(3)), s(B(3)))}
    assert verify_routes(orig, r) == []


def test_extract_flags_lost_label():
    # a demand whose edge, or a piece of it, is neither split nor final
    D = g(2, 2, [(A(0), B(0))])
    with pytest.raises(StructuralError):
        extract_resolution(D, {}, {})
    with pytest.raises(StructuralError):
        extract_resolution(D, {0: (0, (1, 2))}, {1: Edge(1, 0, 0, 3)})


# -- verifier -------------------------------------------------------------------


def test_verify_identity_resolution():
    D = g(3, 3, [(A(0), B(0)), (A(1), B(2))])
    r = Resolution({0: Path((A(0), B(0))), 1: Path((A(1), B(2)))})
    assert verify_resolution(D, r) == []


def test_verify_duplicate_base_edge():
    D = g(2, 2, [(A(0), B(0)), (A(0), B(0))])
    r = Resolution({0: Path((A(0), B(0))), 1: Path((A(0), B(0)))})
    problems = verify_resolution(D, r)
    assert any("used by routes" in p for p in problems)


def test_verify_missing_and_unknown_routes():
    D = g(2, 2, [(A(0), B(0))])
    r = Resolution({5: Path((A(0), B(0)))})
    problems = verify_resolution(D, r)
    assert any("no route" in p for p in problems)
    assert any("unknown demand edge" in p for p in problems)


def test_verify_rejects_claims_on_sharp_instance():
    # the n=4 edge-sharpness instance admits no resolution; any claim
    # such as routing everything directly must surface a violation
    from tpb import gen_sharp_edge

    D = gen_sharp_edge(4)
    claim = Resolution({eid: Path((e.u, e.v)) for eid, e in D.edges.items()})
    assert verify_resolution(D, claim)


def test_verify_bad_paths():
    D = g(3, 3, [(A(0), B(0))])
    assert verify_resolution(D, Resolution({0: Path((A(0),))}))
    assert verify_resolution(D, Resolution({0: Path((A(0), A(1)))}))
    assert verify_resolution(D, Resolution({0: Path((A(0), B(1)))}))
    walk = Resolution({0: Path((A(0), B(1), A(0), B(0)))})
    assert any("repeats" in p for p in verify_resolution(D, walk))


@pytest.mark.parametrize("w", [B(3), A(-1), B(-1), A(3), V("C", 0)])
def test_verify_flags_vertex_outside_base_graph(w):
    # a route through a vertex that K_{3,3} lacks fails, whatever its slot would be
    D = g(3, 3, [(A(0), B(0))])
    vs = (A(0), w, A(1), B(0)) if w.side != "A" else (A(0), B(1), w, B(0))
    assert verify_resolution(D, Resolution({0: Path(vs)})) == [
        f"route 0: vertex {w} outside base graph"
    ]


@pytest.mark.parametrize("w", [6, -1])
def test_verify_routes_flags_slot_outside_base_graph(w):
    # a slot route through a slot that K_{3,3} lacks fails as a V route does,
    # although its classes alternate and its base edges are distinct
    D = g(3, 3, [(A(0), B(0))])
    route = (0, w, 1, 3) if w >= 3 else (0, 4, w, 3)
    assert verify_routes(D, {0: route}) == [f"route 0: vertex {w} outside base graph"]


def test_verify_routes_reports_every_problem_in_order():
    # one input that hits every message: missing routes first, then each
    # route's problems in id order, then the base edges two sound routes share
    D = g(3, 3, [(A(0), B(0))] * 6 + [(A(1), B(1)), (A(2), B(1)), (A(1), B(2))])
    routes = {
        9: (0, 3),  # no such demand
        8: (0, 1, 0),  # no alternation, a repeat and wrong endpoints at once
        1: (0,),
        2: (0, 6, 1, 3),
        3: (0, 1, 3),
        4: (0, 4, 0, 3),  # shares A0-B1 with route 5, but neither is sound
        5: (0, 4),
        6: (1, 4),
        7: (2, 5, 1, 4),
    }
    expected = [
        "edge 0: no route",
        "route 1: needs at least one edge",
        "route 2: vertex 6 outside base graph",
        "route 3: consecutive vertices do not alternate classes",
        "route 4: repeats a vertex",
        "route 5: endpoints differ from the demand edge",
        "route 8: consecutive vertices do not alternate classes",
        "route 8: repeats a vertex",
        "route 8: endpoints differ from the demand edge",
        "route 9: unknown demand edge",
        f"base edge {A(1)}-{B(1)} used by routes 6 and 7",
    ]
    assert verify_routes(D, routes) == expected
    # the same routes as V paths, where slot 6 is the vertex B(3) that K_{3,3} lacks
    paths = Resolution({eid: Path(tuple(map(D.vertex, route))) for eid, route in routes.items()})
    expected[2] = f"route 2: vertex {B(3)} outside base graph"
    assert verify_resolution(D, paths) == expected


def test_checked_resolution_is_the_one_exit():
    # routes that pass become V paths; any problem raises, naming every one
    D = g(3, 3, [(A(0), B(0)), (A(1), B(1))])
    s = D.slot
    res = checked_resolution(D, {0: (s(A(0)), s(B(2)), s(A(2)), s(B(0))), 1: (s(A(1)), s(B(1)))})
    assert res.routes == {0: Path((A(0), B(2), A(2), B(0))), 1: Path((A(1), B(1)))}
    with pytest.raises(StructuralError) as exc:
        checked_resolution(D, {0: (s(A(0)), s(B(0))), 1: (s(A(1)), 6)})
    assert str(exc.value) == (
        "solver produced an invalid resolution: route 1: vertex 6 outside base graph"
    )


# -- multigraph accessors ---------------------------------------------------------


def test_multiplicity_and_degree_count_parallels():
    D = g(2, 2, [(A(0), B(0))] * 3)
    assert Counter(e.pair() for e in D.edges.values()) == {(A(0), B(0)): 3}
    assert D.degree_map()[D.slot(A(0))] == 3
    assert D.max_degree() == 3
    assert D.max_multiplicity() == 3


def test_induced_identity_and_filter():
    D = g(2, 2, [(A(0), B(0)), (A(1), B(1))])
    assert D.induced(range(D.a + D.b)).links == D.links
    sub = D.induced([D.slot(A(0)), D.slot(B(0))])
    assert list(sub.edges) == [0]
    assert sub.next_fresh_id == D.next_fresh_id


def test_degree_sum_is_twice_edges():
    D = g(4, 3, [(A(0), B(0)), (A(0), B(1)), (A(2), B(1))])
    assert sum(D.degree_map()) == 2 * D.m


# -- property tests ----------------------------------------------------------------


@st.composite
def graphs(draw, max_n=4, max_edges=6):
    a = draw(st.integers(1, max_n))
    b = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_edges))
    pairs = [
        (A(draw(st.integers(0, a - 1))), B(draw(st.integers(0, b - 1))))
        for _ in range(m)
    ]
    return DemandGraph.from_pairs(a, b, pairs)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_lifting_preserves_label_walks(D, data):
    G = D
    for _ in range(data.draw(st.integers(0, 6))):
        if not G.edges:
            break
        eid = data.draw(st.sampled_from(sorted(G.edges)))
        side = data.draw(st.booleans())
        idx = data.draw(st.integers(0, (G.a if side else G.b) - 1))
        G = lift(G, [(eid, G.slot(A(idx) if side else B(idx)))])
    # label count and terminals survive any lifting sequence
    assert {e.label for e in G.edges.values()} == {e.label for e in D.edges.values()}
    assert sum(G.degree_map()) == 2 * G.m
    for eid, e0 in D.edges.items():
        cls = [e for e in G.edges.values() if e.label == e0.label]
        degs = Counter()
        for e in cls:
            degs[e.u] += 1
            degs[e.v] += 1
        odd = {v for v, d in degs.items() if d % 2 == 1}
        assert odd in ({e0.u, e0.v}, set())


@settings(max_examples=80, deadline=None)
@given(graphs(), st.data())
def test_batched_lift_equals_one_move_per_call(D, data):
    D = D.with_edges([(A(0), B(0))] * data.draw(st.integers(0, 2)))
    G = D
    moves = []
    for _ in range(data.draw(st.integers(0, 8))):
        if not G.edges:
            break
        eid = data.draw(st.sampled_from(sorted(G.edges)))
        side = data.draw(st.booleans())
        z = data.draw(st.integers(0, G.a - 1)) if side else G.a + data.draw(st.integers(0, G.b - 1))
        moves.append((eid, z))
        G = lift(G, [(eid, z)])
    batched = lift(D, iter(moves))
    assert list(batched.edges.items()) == list(G.edges.items())
    assert batched.next_fresh_id == G.next_fresh_id
    assert (batched is D) == (G is D)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=5), st.data())
def test_batched_edge_lift_equals_one_move_per_call(D, data):
    D = D.with_edges([(A(0), B(0))] * data.draw(st.integers(0, 2)))
    G = LevelState(D)
    moves = []
    for _ in range(data.draw(st.integers(0, 8))):
        legal = [
            (eid, i, j)
            for eid, e in sorted(G.edges.items())
            for i in range(G.a)
            for j in range(G.a, G.a + G.b)
            if not e.touches(i) and not e.touches(j)
        ]
        if not legal:
            break
        move = data.draw(st.sampled_from(legal))
        moves.append(move)
        assert edge_lift(G, [move]) is G
    batched = LevelState(D)
    assert edge_lift(batched, iter(moves)) is batched
    assert state_of(batched) == state_of(G)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=5), st.data())
def test_edge_lift_from_class_b_mirrors_class_a(D, data):
    # lifting with x in class B is the lift of the transposed graph with x in
    # class A, flipped back: the same ids, labels and u/v order
    flips = data.draw(st.lists(st.booleans(), min_size=D.m, max_size=D.m))
    pairs = [(e.v, e.u) if f else (e.u, e.v) for e, f in zip(D.edges.values(), flips)]
    D = DemandGraph.from_pairs(D.a, D.b, pairs)
    D = D.with_edges([(B(0), A(0))] * data.draw(st.integers(0, 2)))
    G = LevelState(D.transpose())
    moves = []
    for _ in range(data.draw(st.integers(1, 6))):
        legal = [
            (eid, i, j)
            for eid, e in sorted(G.edges.items())
            for i in range(G.a)
            for j in range(G.a, G.a + G.b)
            if not e.touches(i) and not e.touches(j)
        ]
        if not legal:
            break
        move = data.draw(st.sampled_from(legal))
        moves.append(move)
        edge_lift(G, [move])
    want = graph_of(edge_lift(LevelState(D.transpose()), moves)).transpose()
    T = D.transpose()
    flip = {x: D.slot(flipped(T.vertex(x))) for x in range(D.a + D.b)}
    got = edge_lift(LevelState(D), [(eid, flip[x], flip[y]) for eid, x, y in moves])
    assert list(got.edges.items()) == list(want.links.items())
    assert got.next_fresh_id == want.next_fresh_id


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=5), st.data())
def test_transpose_is_an_involution_that_flips_every_vertex(D, data):
    # lifts first, so that within-class edges of both classes occur too
    for _ in range(data.draw(st.integers(0, 4))):
        if D.links:
            eid = data.draw(st.sampled_from(sorted(D.links)))
            D = lift(D, [(eid, data.draw(st.integers(0, D.a + D.b - 1)))])
    T = D.transpose()
    assert (T.a, T.b, T.next_fresh_id) == (D.b, D.a, D.next_fresh_id)
    assert T.transpose() == D
    assert list(T.edges.items()) == [
        (eid, e._replace(u=flipped(e.u), v=flipped(e.v))) for eid, e in D.edges.items()
    ]
