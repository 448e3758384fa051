"""Coloring toolkit: Kőnig, Vizing, greedy list coloring, padding."""
import hashlib
import random
from collections import Counter
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
from tpb.coloring import deficit_pairs
from tpb.demand import Edge


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
    matchings = konig_decompose(D)
    assert len(matchings) == 2
    assert all(len(m) == 2 for m in matchings)


def test_konig_parallel_edges_become_singletons():
    D = DemandGraph.from_pairs(1, 1, [(A(0), B(0))] * 4)
    matchings = konig_decompose(D)
    assert len(matchings) == 4
    assert all(len(m) == 1 for m in matchings)


def test_konig_rejects_within_class_edges():
    D = DemandGraph.from_pairs(2, 1, [(A(0), A(1))])
    with pytest.raises(PreconditionError):
        konig_decompose(D)


def check_decomposition(H, matchings):
    assert len(matchings) == H.max_degree()
    seen = set()
    for m in matchings:
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
    for v, d in enumerate(degs):
        hit = sum(
            1
            for m in matchings
            if any(H.links[eid].touches(v) for eid in m)
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
    assert len(set(col.values())) <= 3
    assert proper(T, col)


def test_vizing_parallel_edges_exact():
    D = DemandGraph.from_pairs(1, 1, [(A(0), B(0))] * 5)
    col = vizing_color(D)
    assert len(set(col.values())) == 5
    assert proper(D, col)


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
    assert proper(T, col)
    assert len(set(col.values())) <= T.max_degree() + T.max_multiplicity() == 6
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
    assert proper(H, col)
    if H.edges:
        assert len(set(col.values())) <= H.max_degree() + H.max_multiplicity()


def test_vizing_reads_the_degrees_once(monkeypatch):
    calls = Counter()
    real = DemandGraph.degree_map

    def counted(G):
        calls["degree_map"] += 1
        return real(G)

    monkeypatch.setattr(DemandGraph, "degree_map", counted)
    H = doubled_triangle()
    assert proper(H, vizing_color(H))
    assert calls["degree_map"] == 1


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
        assert proper(H, col)
        assert len(set(col.values())) <= H.max_degree() + 2


# -- pinned colorings ----------------------------------------------------------------


def capped_multigraph(seed, bipartite):
    """Up to 40 edges, each pair at most twice (bipartite, 2-8 slots a class) or three times (any loopless, 2-12 slots)."""
    rng = random.Random(seed)
    if bipartite:
        a, b = rng.randint(2, 8), rng.randint(2, 8)
    else:
        nv = rng.randint(2, 12)
        a = rng.randint(1, nv - 1)
        b = nv - a
    cap = rng.randint(1, 2 if bipartite else 3)
    mult = Counter()
    pairs = []
    for _ in range(rng.randint(0, 40)):
        if bipartite:
            u, v = rng.randrange(a), a + rng.randrange(b)
        else:
            u, v = sorted(rng.sample(range(a + b), 2))
        if mult[u, v] < cap:
            mult[u, v] += 1
            pairs.append((u, v))
    return DemandGraph.empty(a, b).with_slots(pairs)


def test_vizing_colorings_pinned():
    # 3000 multigraphs, 16 of which need a reduce (both chain tails run)
    h = hashlib.sha256()
    for seed in range(3000):
        h.update(repr(sorted(vizing_color(capped_multigraph(seed, False)).items())).encode())
    assert h.hexdigest() == "7889faae056bcf340aaba898c9574e7d6256b4ee790c516e76954df4690f889d"


def test_konig_decompositions_pinned():
    # 3000 bipartite multigraphs, 334 edges of which need an alternating-chain swap
    h = hashlib.sha256()
    for seed in range(3000):
        h.update(repr([sorted(m) for m in konig_decompose(capped_multigraph(seed, True))]).encode())
    assert h.hexdigest() == "8a5e9bec4a0bae6efb7856a351c80e2f39cceea58f6528750c1fc1fb7535b950"


def test_colorings_of_the_empty_graph():
    H = DemandGraph.empty(3, 3)
    assert vizing_color(H) == {}
    assert konig_decompose(H) == []


# -- greedy list coloring ---------------------------------------------------------


def test_list_color_single_edge():
    D = DemandGraph.from_pairs(1, 1, [(A(0), B(0))])
    col = greedy_list_color(D, [5], {0: 0})
    assert col == {0: 5}


def test_list_color_star_distinct():
    D = DemandGraph.from_pairs(1, 4, [(A(0), B(j)) for j in range(4)])
    col = greedy_list_color(D, range(4), dict.fromkeys(D.links, 0))
    assert sorted(col.values()) == [0, 1, 2, 3]


def test_list_color_path_with_binary_lists():
    D = DemandGraph.from_pairs(
        2, 2, [(A(0), B(0)), (B(0), A(1)), (A(1), B(1))]
    )
    col = greedy_list_color(D, [0, 1], dict.fromkeys(D.links, 0))
    assert col is not None
    assert proper(D, col)


def test_list_color_reports_failure():
    D = DemandGraph.from_pairs(1, 2, [(A(0), B(0)), (A(0), B(1))])
    assert greedy_list_color(D, [0], dict.fromkeys(D.links, 0)) is None


def test_list_color_needs_every_exclusion_list():
    D = DemandGraph.from_pairs(1, 2, [(A(0), B(0)), (A(0), B(1))])
    with pytest.raises(PreconditionError):
        greedy_list_color(D, [0, 1], {0: 0})


def test_list_color_refuses_a_palette_that_repeats_a_color():
    D = DemandGraph.from_pairs(1, 2, [(A(0), B(0)), (A(0), B(1))])
    with pytest.raises(PreconditionError):
        greedy_list_color(D, [0, 1, 0], dict.fromkeys(D.links, 0))


def parallel_within_class_graph():
    # A0-A1 three times and A2-A3 twice, on the class-A vertices (slots 0..4) of K_{5,12}
    pairs = [(0, 1), (0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3), (0, 2), (3, 4)]
    return DemandGraph(5, 12, {k: Edge(k, k, u, v) for k, (u, v) in enumerate(pairs)}, 9)


def window_exclusions(H, step, short):
    # each edge may take the B(j) (slot 5 + j, palette position j) of a cyclic
    # window starting at step * eid, one longer than the edge's adjacency
    # count less `short`; the mask excludes every other position
    degs = H.degree_map()
    return {
        eid: sum({1 << (step * eid + j) % 12 for j in range(degs[e.u] + degs[e.v] - 1 - short, 12)})
        for eid, e in H.links.items()
    }


def test_list_color_parallel_edges_pinned_colorings():
    H = parallel_within_class_graph()
    palette = range(5, 17)
    # lists one larger than the adjacency count: no backtracking needed
    excluded = window_exclusions(H, 5, 0)
    col = greedy_list_color(H, palette, excluded)
    assert {eid: c - 5 for eid, c in col.items()} == {
        0: 0, 1: 5, 2: 1, 3: 3, 4: 0, 5: 1, 6: 6, 7: 2, 8: 4
    }
    assert len(set(col.values())) == 7
    assert greedy_list_color(H, palette, excluded, max_nodes=8) is None
    # lists two short of the adjacency count: the first pass dead-ends and
    # the search needs 14 assignments
    excluded = window_exclusions(H, 3, 3)
    assert greedy_list_color(H, palette, excluded, max_nodes=13) is None
    col = greedy_list_color(H, palette, excluded, max_nodes=14)
    assert {eid: c - 5 for eid, c in col.items()} == {
        0: 0, 1: 3, 2: 6, 3: 9, 4: 2, 5: 3, 6: 7, 7: 1, 8: 0
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_list_color_guarantee(seed):
    # palette size minus excluded colors one larger than the adjacency count never fails
    H = random_multigraph(seed, max_verts=6, max_mult=2, max_edges=10)
    degs = H.degree_map()
    adjacent = {eid: degs[e.u] + degs[e.v] - 2 for eid, e in H.links.items()}
    palette = range(max(adjacent.values(), default=0) + 1)
    full = (1 << len(palette)) - 1
    excluded = {eid: full & ~((1 << (adj + 1)) - 1) for eid, adj in adjacent.items()}
    col = greedy_list_color(H, palette, excluded)
    assert col is not None
    assert proper(H, col)
    assert all(col[eid] <= adjacent[eid] for eid in H.edges)


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


def test_targets_match_the_search_they_replace():
    def searched(a, b, da, db):
        # the least t >= da with a*t divisible by b and a*t/b >= db, by trial
        t = da
        while (a * t) % b or (a * t) // b < db:
            t += 1
        return t, (a * t) // b

    rng = random.Random(3)
    for a, b in product(range(1, 13), repeat=2):
        for _ in range(4):
            # edges skewed towards low indices, so the two maxima vary apart
            pairs = [(A(rng.randrange(rng.randint(1, a))), B(rng.randrange(rng.randint(1, b))))
                     for _ in range(rng.randint(0, 3 * max(a, b)))]
            D = DemandGraph.from_pairs(a, b, pairs)
            degs = D.degree_map()
            assert choose_semiregular_targets(D) == searched(a, b, max(degs[:a]), max(degs[a:])), (a, b, pairs)


def test_regularize_identity_when_semiregular():
    D = DemandGraph.from_pairs(2, 2, [(A(0), B(0)), (A(1), B(1))])
    R = regularize(D, 1, 1)
    assert R.edges == D.edges


def test_regularize_empty_square():
    D = DemandGraph.empty(4, 4)
    R = regularize(D, 2, 2)
    assert R.degree_map() == [2] * 8
    assert all(e.label == e.id for e in R.edges.values())


def test_regularize_rectangular_profile():
    D = DemandGraph.from_pairs(6, 3, [(A(0), B(0)), (A(1), B(0))])
    R = regularize(D, 1, 2)
    assert R.degree_map() == [1] * 6 + [2] * 3
    # originals survive; padding is identifiable by its fresh labels and removable
    assert all(eid in R.edges for eid in D.edges)
    labels = {e.label for e in D.edges.values()}
    stripped = {eid: e for eid, e in R.edges.items() if e.label in labels}
    assert stripped == D.edges


def test_regularize_rejects_infeasible():
    D = DemandGraph.from_pairs(2, 2, [(A(0), B(0))] * 3)
    with pytest.raises(PreconditionError):
        regularize(D, 2, 2)
    with pytest.raises(PreconditionError):
        regularize(DemandGraph.empty(2, 2), 1, 2)


def reference_deficit_pairs(def_a, def_b):
    """Two max() scans per pair, as the padding once ran."""
    pairs = []
    while def_a:
        i = max(def_a, key=lambda i: (def_a[i], -i))
        if def_a[i] == 0:
            break
        j = max(def_b, key=lambda j: (def_b[j], -j))
        pairs.append((i, j))
        def_a[i] -= 1
        def_b[j] -= 1
    return pairs


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_deficit_pairs_matches_two_max_scans(seed):
    # sparse indices, many ties, zero deficits, and B holding more than A owes
    rng = random.Random(seed)
    def_a = {i: rng.choice((0, 0, 1, 2, 2, 3)) for i in rng.sample(range(12), rng.randint(0, 6))}
    def_b = {j: rng.choice((0, 1, 1, 2, 4)) for j in rng.sample(range(12), rng.randint(1, 6))}
    owed = sum(def_a.values()) - sum(def_b.values())
    if owed > 0:
        j = rng.choice(sorted(def_b))
        def_b[j] += owed + rng.randint(0, 2)
    ref_a, ref_b = dict(def_a), dict(def_b)
    assert deficit_pairs(def_a, def_b) == reference_deficit_pairs(ref_a, ref_b)
    assert (def_a, def_b) == (ref_a, ref_b)
