"""Inductive edge-version solver: padding, covers, cases, full solves."""
from itertools import combinations

import pytest

from tpb import (
    A,
    B,
    DemandGraph,
    PreconditionError,
    StructuralError,
    check_conditions,
    find_cover_F,
    gen_chain,
    gen_random_edge,
    pad_to_full,
    place_F,
    solve_edge_version,
    verify_resolution,
)


def g(n, pairs):
    return DemandGraph.from_pairs(n, n, pairs)


def solved_with(D, tag):
    res, trace = solve_edge_version(D)
    assert verify_resolution(D, res) == []
    assert tag in trace.tags(), trace.tags()
    return res, trace


# -- padding ---------------------------------------------------------------------


def test_pad_noop_when_full():
    D = gen_chain(5)  # already 2n-2 edges
    assert pad_to_full(D, 5).edges == D.edges


def test_pad_empty():
    D = DemandGraph.empty(4, 4)
    P = pad_to_full(D, 4)
    assert P.m == 6
    assert P.max_degree() <= 4
    assert all(e.padding for e in P.edges.values())


def test_pad_avoids_full_vertices():
    pairs = [(A(0), B(j)) for j in range(4)] + [(A(1), B(0))]
    D = g(4, pairs)  # A0 already at degree 4 = n
    P = pad_to_full(D, 4)
    assert P.m == 6
    assert P.max_degree() <= 4
    assert P.degree(A(0)) == 4


# -- induction conditions -----------------------------------------------------------


def test_conditions_empty_z():
    D = gen_chain(6)
    assert check_conditions(D, (), 6) == []


def test_conditions_flag_parallels_at_z():
    D = g(6, [(A(0), B(0))] * 2)
    problems = check_conditions(D, (A(0), B(1)), 6)
    assert any(p.startswith("(4)") for p in problems)


def test_conditions_flag_unbalanced_and_degree():
    D = g(6, [(A(0), B(j)) for j in range(6)])
    problems = check_conditions(D, (A(1), A(2)), 6)
    assert any(p.startswith("(1)") for p in problems)
    D = g(6, [(A(0), B(0))] * 6)
    problems = check_conditions(D, (A(1), B(1)), 6)
    assert any(p.startswith("(3)") for p in problems)  # A0 keeps degree 6 > 5


# -- cover set (Case 1) ---------------------------------------------------------------


def cover_counts(D, F):
    cover = {}
    for eid in F:
        e = D.edges[eid]
        cover[e.u] = cover.get(e.u, 0) + 1
        cover[e.v] = cover.get(e.v, 0) + 1
    return cover


def test_cover_c4_subcase():
    pairs = (
        [(A(0), B(0))] * 3
        + [(A(1), B(1))] * 3
        + [(A(0), B(1))] * 2
        + [(A(1), B(0))] * 2
    )
    D = g(6, pairs)
    degs = D.degree_map()
    Y = tuple(v for v in D.vertices() if degs[v] >= 5)
    X = tuple(v for v in D.vertices() if degs[v] == 6)
    assert len(Y) == 4
    F = find_cover_F(D, X, Y)
    cover = cover_counts(D, F)
    assert all(cover.get(y, 0) >= 1 for y in Y)
    assert all(c <= 2 for c in cover.values())


def test_cover_parallel_plus_disjoint():
    pairs = [(A(0), B(0))] * 2 + [
        (A(1), B(1)),
        (A(2), B(2)),
        (A(3), B(3)),
        (A(1), B(2)),
        (A(2), B(3)),
        (A(3), B(1)),
        (A(0), B(1)),
        (A(1), B(0)),
    ]
    D = g(6, pairs)
    F = find_cover_F(D, (), ())
    assert all(c <= 2 for c in cover_counts(D, F).values())


def test_cover_without_structured_selection_raises():
    # a simple graph has no parallel pair to start the |Y| = 0 selection
    D = g(6, [(A(i), B(i)) for i in range(6)])
    with pytest.raises(StructuralError):
        find_cover_F(D, (), ())


def test_cover_matches_exhaustive_properties():
    D = gen_random_edge(8, 505)
    full = pad_to_full(D, 8)
    degs = full.degree_map()
    Y = tuple(v for v in full.vertices() if degs[v] >= 7)
    X = tuple(v for v in full.vertices() if degs[v] == 8)
    F = find_cover_F(full, X, Y)
    cover = cover_counts(full, F)
    assert all(c <= 2 for c in cover.values())
    assert all(cover.get(y, 0) >= 1 for y in Y)
    assert all(cover.get(x, 0) == 2 for x in X)
    # brute force agrees some valid cover exists
    found = False
    for combo in combinations(sorted(full.edges), 4):
        cc = cover_counts(full, combo)
        if (
            all(c <= 2 for c in cc.values())
            and all(cc.get(y, 0) >= 1 for y in Y)
            and all(cc.get(x, 0) == 2 for x in X)
        ):
            found = True
            break
    assert found


def test_place_f_disjoint_edges():
    pairs = [(A(0), B(0)), (A(1), B(1)), (A(2), B(2)), (A(3), B(3))]
    D = g(8, pairs + [(A(0), B(1))] * 2)  # extra bulk, irrelevant
    F = (0, 1, 2, 3)
    out = place_F(D, F, A(6), A(7), B(6), B(7))
    zset = {A(6), A(7), B(6), B(7)}
    assert all(out.degree(v) == 4 for v in zset)


def test_place_f_with_parallel_pair():
    pairs = [(A(0), B(0))] * 2 + [(A(1), B(1)), (A(2), B(2))]
    D = g(8, pairs)
    out = place_F(D, (0, 1, 2, 3), A(6), A(7), B(6), B(7))
    mult = {}
    for e in out.edges.values():
        if e.u in {A(6), A(7), B(6), B(7)} or e.v in {A(6), A(7), B(6), B(7)}:
            key = e.pair()
            mult[key] = mult.get(key, 0) + 1
    assert all(c == 1 for c in mult.values())


def test_place_f_c4_cover():
    pairs = [(A(0), B(0)), (A(1), B(0)), (A(1), B(1)), (A(0), B(1))]
    D = g(8, pairs)
    out = place_F(D, (0, 1, 2, 3), A(6), A(7), B(6), B(7))
    assert out.m == D.m + 8


# -- full solves -----------------------------------------------------------------------


def test_empty_instance():
    res, trace = solve_edge_version(DemandGraph.empty(4, 4))
    assert res.routes == {}
    assert trace.tags() == ["simple"]


def test_rejects_out_of_hypothesis():
    with pytest.raises(PreconditionError):
        solve_edge_version(DemandGraph.empty(3, 3))
    with pytest.raises(PreconditionError):
        solve_edge_version(g(4, [(A(0), B(0))] * 7))
    with pytest.raises(PreconditionError):
        solve_edge_version(
            DemandGraph.from_pairs(5, 4, [(A(0), B(0))])
        )


def test_n4_parallel_heavy():
    D = g(4, [(A(0), B(0))] * 4 + [(A(1), B(1))] * 2)
    res, trace = solve_edge_version(D)
    assert verify_resolution(D, res) == []
    assert "base" in trace.tags()


def test_chain_instances_resolve_directly():
    for n in (4, 5, 6, 7, 8):
        D = gen_chain(n)
        res, trace = solve_edge_version(D)
        assert verify_resolution(D, res) == []
        if n >= 6:
            assert trace.tags() == ["2.2.3"]


def test_case_1_variants():
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 3
            + [(A(1), B(1))] * 3
            + [(A(0), B(1))] * 2
            + [(A(1), B(0))] * 2,
        ),
        "1.1",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 3
            + [(A(0), B(1))] * 2
            + [(A(1), B(0))] * 2
            + [(A(2), B(1))] * 3,
        ),
        "1.2",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1))] * 2
            + [(A(0), B(2)), (A(1), B(0)), (A(1), B(0)), (A(2), B(0))]
            + [(A(3), B(3))] * 2,
        ),
        "1.3",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 4
            + [(A(0), B(1)), (A(1), B(0))]
            + [(A(2), B(2))] * 2
            + [(A(3), B(3))] * 2,
        ),
        "1.3",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3))]
            + [(A(1), B(0)), (A(1), B(1))]
            + [(A(2), B(0)), (A(2), B(1)), (A(2), B(2))],
        ),
        "1.4",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1))] * 2
            + [(A(1), B(0))] * 2
            + [(A(1), B(1)), (A(2), B(1))]
            + [(A(2), B(2))] * 2,
        ),
        "1.5",
    )


def test_case_2_variants():
    solved_with(
        g(
            6,
            [(A(0), B(0))]
            + [(A(1), B(1))] * 2
            + [(A(2), B(2))] * 2
            + [(A(3), B(3))] * 2
            + [(A(4), B(4))] * 3,
        ),
        "2.1",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0)), (A(0), B(1))]
            + [(A(1), B(2))] * 2
            + [(A(2), B(3))] * 2
            + [(A(3), B(4))] * 2
            + [(A(4), B(5)), (A(5), B(5))],
        ),
        "2.1",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0)), (A(0), B(1)), (A(1), B(0)), (A(1), B(1))]
            + [(A(2), B(2))] * 2
            + [(A(3), B(3))] * 2
            + [(A(4), B(4))] * 2,
        ),
        "2.2.1",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1))] * 2
            + [(A(1), B(2))] * 2
            + [(A(1), B(3))] * 2
            + [(A(2), B(4))] * 2,
        ),
        "2.2.2",
    )


def test_case_3_variants():
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3)), (A(0), B(4))]
            + [(A(1), B(5))] * 2
            + [(A(2), B(5))] * 2,
        ),
        "3.1",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 3
            + [(A(0), B(1))] * 3
            + [(A(1), B(2)), (A(2), B(3)), (A(3), B(4)), (A(4), B(5))],
        ),
        "3.1",
    )
    plain = solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3)), (A(0), B(4))]
            + [(A(1), B(1)), (A(2), B(2)), (A(3), B(3)), (A(4), B(4))],
        ),
        "3.2.1",
    )
    assert plain[1].steps[0].note == "plain neighbor"
    par = solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1))] * 2
            + [(A(0), B(2))] * 2
            + [(A(1), B(3))] * 2
            + [(A(2), B(4))] * 2,
        ),
        "3.2.1",
    )
    assert par[1].steps[0].note == "parallel pairs"
    repair = solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1))] * 2
            + [(A(0), B(2))] * 2
            + [(A(1), B(4)), (A(2), B(4)), (A(3), B(5)), (A(4), B(5))],
        ),
        "3.2.1",
    )
    assert repair[1].steps[0].note == "lifted parallel star"
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1))] * 2
            + [(A(0), B(2)), (A(0), B(3))]
            + [(A(1), B(2)), (A(2), B(3)), (A(3), B(0)), (A(4), B(1))],
        ),
        "3.2.2",
    )


def test_case_4_variants():
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 3
            + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3))]
            + [(A(1), B(0)), (A(2), B(0)), (A(3), B(0))]
            + [(A(4), B(4))],
        ),
        "4",
    )
    solved_with(
        g(
            6,
            [(A(0), B(0))] * 2
            + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3)), (A(0), B(4))]
            + [(A(1), B(0)), (A(2), B(0)), (A(3), B(0)), (A(4), B(0))],
        ),
        "4",
    )


def test_orientation_swap_recorded():
    # degree-1 vertices only in class B force a swap for case 2.1
    pairs = (
        [(A(0), B(0)), (A(0), B(1))]
        + [(A(1), B(2))] * 2
        + [(A(2), B(3))] * 2
        + [(A(3), B(4))] * 2
        + [(A(4), B(5))] * 2
    )
    D = g(6, pairs)
    res, trace = solve_edge_version(D)
    assert verify_resolution(D, res) == []
    step = trace.steps[0]
    assert step.case_tag == "2.1" and step.swapped


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_random_instances(n):
    for seed in range(60):
        D = gen_random_edge(n, 1000 * n + seed)
        res, trace = solve_edge_version(D)
        assert verify_resolution(D, res) == []
        ns = [s.n for s in trace.steps]
        assert ns == sorted(ns, reverse=True)


def test_trace_n_decreases_by_half_z():
    pairs = [(A(0), B(0))] * 3 + [(A(1), B(1))] * 3 + [(A(0), B(1))] * 2 + [
        (A(1), B(0))
    ] * 2
    D = g(6, pairs)
    res, trace = solve_edge_version(D)
    first = trace.steps[0]
    assert first.case_tag == "1.1" and len(first.z_set) == 4
    assert trace.steps[1].n == first.n - 2
