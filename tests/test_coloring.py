"""Coloring toolkit: Kőnig, Vizing, greedy list coloring, padding."""
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpb import (
    A,
    B,
    DemandGraph,
    PreconditionError,
    choose_semiregular_targets,
    greedy_list_color,
    konig_decompose,
    regularize,
    vizing_color,
)


def proper(H, colors):
    for e1 in H.edges.values():
        for e2 in H.edges.values():
            if e1.id < e2.id and (e1.touches(e2.u) or e1.touches(e2.v)):
                if colors[e1.id] == colors[e2.id]:
                    return False
    return True


def random_bipartite(seed, max_ab=10, max_mult=4, max_edges=24):
    rng = random.Random(seed)
    a = rng.randint(1, max_ab)
    b = rng.randint(1, max_ab)
    pairs = []
    mult = {}
    for _ in range(rng.randint(0, max_edges)):
        i, j = rng.randrange(a), rng.randrange(b)
        if mult.get((i, j), 0) < max_mult:
            pairs.append((A(i), B(j)))
            mult[(i, j)] = mult.get((i, j), 0) + 1
    return DemandGraph.from_pairs(a, b, pairs)


def random_multigraph(seed, max_verts=8, max_mult=3, max_edges=16):
    rng = random.Random(seed)
    na = rng.randint(1, max(1, max_verts // 2))
    nb = rng.randint(1, max_verts - na)
    verts = [A(i) for i in range(na)] + [B(j) for j in range(nb)]
    pairs = []
    mult = {}
    for _ in range(rng.randint(0, max_edges)):
        if len(verts) < 2:
            break
        u, v = rng.sample(verts, 2)
        key = (min(u, v), max(u, v))
        if mult.get(key, 0) < max_mult:
            pairs.append((u, v))
            mult[key] = mult.get(key, 0) + 1
    return DemandGraph.from_pairs(na, nb, pairs)


# -- Kőnig -------------------------------------------------------------------


def test_konig_four_cycle():
    D = DemandGraph.from_pairs(
        2, 2, [(A(0), B(0)), (A(0), B(1)), (A(1), B(0)), (A(1), B(1))]
    )
    dec = konig_decompose(D)
    assert len(dec.matchings) == 2
    assert all(len(m) == 2 for m in dec.matchings)


def test_konig_parallel_edges_become_singletons():
    D = DemandGraph.from_pairs(1, 1, [(A(0), B(0))] * 4)
    dec = konig_decompose(D)
    assert len(dec.matchings) == 4
    assert all(len(m) == 1 for m in dec.matchings)


def test_konig_rejects_within_class_edges():
    D = DemandGraph.from_pairs(2, 1, [(A(0), A(1))])
    with pytest.raises(PreconditionError):
        konig_decompose(D)


def check_decomposition(H, dec):
    assert len(dec.matchings) == H.max_degree()
    seen = set()
    for m in dec.matchings:
        vs = set()
        for eid in m:
            e = H.edges[eid]
            assert e.u not in vs and e.v not in vs
            vs.add(e.u)
            vs.add(e.v)
        assert not (m & seen)
        seen |= m
    assert seen == set(H.edges)
    # each vertex appears in exactly degree(v) matchings
    degs = H.degree_map()
    for v, d in degs.items():
        hit = sum(
            1
            for m in dec.matchings
            if any(H.edges[eid].touches(v) for eid in m)
        )
        assert hit == d


def test_konig_random_8x8():
    D = random_bipartite(11, max_ab=8, max_mult=3, max_edges=30)
    check_decomposition(D, konig_decompose(D))


@pytest.mark.parametrize("seed", range(40))
def test_konig_random(seed):
    H = random_bipartite(seed)
    check_decomposition(H, konig_decompose(H))


# -- Vizing -------------------------------------------------------------------


def test_vizing_triangle():
    T = DemandGraph.from_pairs(2, 1, [(A(0), A(1)), (A(1), B(0)), (A(0), B(0))])
    col = vizing_color(T)
    assert col.palette_size <= 3
    assert proper(T, col.colors)


def test_vizing_parallel_edges_exact():
    D = DemandGraph.from_pairs(1, 1, [(A(0), B(0))] * 5)
    col = vizing_color(D)
    assert col.palette_size == 5
    assert proper(D, col.colors)


def doubled_triangle():
    return DemandGraph.from_pairs(
        3,
        1,
        [
            (A(0), A(1)),
            (A(0), A(1)),
            (A(1), A(2)),
            (A(1), A(2)),
            (A(0), A(2)),
            (A(0), A(2)),
        ],
    )


def test_vizing_doubled_triangle_is_tight():
    T = doubled_triangle()
    col = vizing_color(T)
    assert proper(T, col.colors)
    assert col.palette_size <= T.max_degree() + T.max_multiplicity() == 6
    # brute force: five colors are not enough (all six edges pairwise adjacent)
    ids = sorted(T.edges)
    for assignment in product(range(5), repeat=6):
        colors = dict(zip(ids, assignment))
        if proper(T, colors):
            pytest.fail("five colors sufficed for the doubled triangle")


@pytest.mark.parametrize("seed", range(500))
def test_vizing_random(seed):
    H = random_multigraph(seed)
    col = vizing_color(H)
    assert proper(H, col.colors)
    if H.edges:
        assert col.palette_size <= H.max_degree() + H.max_multiplicity()


def test_vizing_complete_multigraphs():
    # doubled complete graphs keep the fan machinery busy
    for nv in (4, 5, 6):
        verts = [A(i) for i in range(nv)]
        pairs = [
            (verts[i], verts[j])
            for i in range(nv)
            for j in range(i + 1, nv)
            for _ in range(2)
        ]
        H = DemandGraph.from_pairs(nv, 1, pairs)
        col = vizing_color(H)
        assert proper(H, col.colors)
        assert col.palette_size <= H.max_degree() + 2


# -- greedy list coloring ---------------------------------------------------------


def test_list_color_single_edge():
    D = DemandGraph.from_pairs(1, 1, [(A(0), B(0))])
    col = greedy_list_color(D, {0: frozenset([5])})
    assert col.colors == {0: 5}


def test_list_color_star_distinct():
    D = DemandGraph.from_pairs(1, 4, [(A(0), B(j)) for j in range(4)])
    lists = {eid: frozenset(range(4)) for eid in D.edges}
    col = greedy_list_color(D, lists)
    assert sorted(col.colors.values()) == [0, 1, 2, 3]


def test_list_color_path_with_binary_lists():
    D = DemandGraph.from_pairs(
        2, 2, [(A(0), B(0)), (B(0), A(1)), (A(1), B(1))]
    )
    lists = {eid: frozenset([0, 1]) for eid in D.edges}
    col = greedy_list_color(D, lists)
    assert col is not None
    assert proper(D, col.colors)


def test_list_color_reports_failure():
    D = DemandGraph.from_pairs(1, 2, [(A(0), B(0)), (A(0), B(1))])
    assert greedy_list_color(D, {eid: frozenset([0]) for eid in D.edges}) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_list_color_guarantee(seed):
    # lists one larger than the adjacency count never fail
    H = random_multigraph(seed, max_verts=6, max_mult=2, max_edges=10)
    degs = H.degree_map()
    lists = {}
    for eid, e in H.edges.items():
        adjacent = degs[e.u] + degs[e.v] - 2
        lists[eid] = frozenset(range(adjacent + 1))
    col = greedy_list_color(H, lists)
    assert col is not None
    assert proper(H, col.colors)
    assert all(col.colors[eid] in lists[eid] for eid in H.edges)


# -- semiregular padding ------------------------------------------------------------


def test_targets_square_balanced():
    D = DemandGraph.from_pairs(3, 3, [(A(i), B(i)) for i in range(3)] * 3)
    assert choose_semiregular_targets(D) == (3, 3)


def test_targets_rectangular():
    D = DemandGraph.from_pairs(
        4, 2, [(A(0), B(0)), (A(1), B(0)), (A(2), B(0)), (A(3), B(1))]
    )
    # max A-degree 1, max B-degree 3
    assert choose_semiregular_targets(D) == (2, 4)


def test_targets_divisibility():
    D = DemandGraph.from_pairs(3, 2, [(A(0), B(0))])
    assert choose_semiregular_targets(D) == (2, 3)


def test_regularize_identity_when_semiregular():
    D = DemandGraph.from_pairs(2, 2, [(A(0), B(0)), (A(1), B(1))])
    R = regularize(D, 1, 1)
    assert R.edges == D.edges


def test_regularize_empty_square():
    D = DemandGraph.empty(4, 4)
    R = regularize(D, 2, 2)
    degs = R.degree_map()
    assert all(degs[A(i)] == 2 for i in range(4))
    assert all(degs[B(j)] == 2 for j in range(4))
    assert all(e.padding for e in R.edges.values())


def test_regularize_rectangular_profile():
    D = DemandGraph.from_pairs(6, 3, [(A(0), B(0)), (A(1), B(0))])
    R = regularize(D, 1, 2)
    degs = R.degree_map()
    assert all(degs[A(i)] == 1 for i in range(6))
    assert all(degs[B(j)] == 2 for j in range(3))
    # originals survive; padding is identifiable and removable
    assert all(eid in R.edges for eid in D.edges)
    stripped = {eid: e for eid, e in R.edges.items() if not e.padding}
    assert stripped == D.edges


def test_regularize_rejects_infeasible():
    D = DemandGraph.from_pairs(2, 2, [(A(0), B(0))] * 3)
    with pytest.raises(PreconditionError):
        regularize(D, 2, 2)
    with pytest.raises(PreconditionError):
        regularize(DemandGraph.empty(2, 2), 1, 2)
