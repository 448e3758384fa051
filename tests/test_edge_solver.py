"""Inductive edge-version solver: padding, covers, cases, full solves."""
import hashlib
import inspect
import random
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tpb.edge_solver
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
from tpb.demand import Edge, V
from tpb.edge_solver import LevelState
from tpb.instances import serialize_resolution

from numbering import reference_numbering
from readback import reference_extract


def g(n, pairs):
    return DemandGraph.from_pairs(n, n, pairs)


def state(n, pairs):
    return LevelState(g(n, pairs))


def slots(n, *vs):
    """The slots of vertices of K_{n,n}."""
    return tuple(map(DemandGraph.empty(n, n).slot, vs))


def solved_with(D, tag):
    res, trace = solve_edge_version(D)
    assert verify_resolution(D, res) == []
    assert tag in trace.tags(), trace.tags()
    return res, trace


# -- padding ---------------------------------------------------------------------


def test_pad_noop_when_full():
    D = gen_chain(5)  # already 2n-2 edges
    L = LevelState(D)
    assert pad_to_full(L, 5) is L
    assert L.edges == D.links


def test_pad_empty():
    L = LevelState(DemandGraph.empty(4, 4))
    assert pad_to_full(L, 4) is L
    assert L.m == 6
    assert max(L.deg.values()) <= 4
    assert all(e.label == e.id for e in L.edges.values())


def test_pad_avoids_full_vertices():
    pairs = [(A(0), B(j)) for j in range(4)] + [(A(1), B(0))]
    L = state(4, pairs)  # A0 already at degree 4 = n
    assert pad_to_full(L, 4) is L
    assert L.m == 6
    assert max(L.deg.values()) <= 4
    assert L.deg[0] == 4  # A0


# -- induction conditions -----------------------------------------------------------


def removed_and_checked(L, z, n):
    """Remove z from L as a level does, then audit the step."""
    return check_conditions(L, z, n, L.change((), {}, z).values())


def test_conditions_empty_z():
    assert removed_and_checked(LevelState(gen_chain(6)), (), 6) == []


def test_conditions_flag_parallels_at_z():
    L = state(6, [(A(0), B(0))] * 2)
    problems = removed_and_checked(L, slots(6, A(0), B(1)), 6)
    assert problems == [f"(4) parallel edges {slots(6, A(0))[0]}-{slots(6, B(0))[0]} touch Z"]


def test_conditions_flag_unbalanced_and_degree():
    L = state(6, [(A(0), B(j)) for j in range(6)])
    problems = removed_and_checked(L, slots(6, A(1), A(2)), 6)
    assert any(p.startswith("(1)") for p in problems)
    assert any(p.startswith("(2)") for p in problems)  # no edge at A1 or A2
    L = state(6, [(A(0), B(0))] * 6)
    problems = removed_and_checked(L, slots(6, A(1), B(1)), 6)
    assert any(p.startswith("(3)") for p in problems)  # A0 keeps degree 6 > 5


# -- cover set (Case 1) ---------------------------------------------------------------


def cover_counts(edges, F):
    cover = {}
    for eid in F:
        e = edges[eid]
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
    Y = tuple(v for v, d in enumerate(degs) if d >= 5)
    X = tuple(v for v, d in enumerate(degs) if d == 6)
    assert len(Y) == 4
    F = find_cover_F(LevelState(D), X, Y)
    cover = cover_counts(D.links, F)
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
    F = find_cover_F(LevelState(D), (), ())
    assert all(c <= 2 for c in cover_counts(D.links, F).values())


def test_cover_without_structured_selection_raises():
    # a simple graph has no parallel pair to start the |Y| = 0 selection
    L = state(6, [(A(i), B(i)) for i in range(6)])
    with pytest.raises(StructuralError):
        find_cover_F(L, (), ())


def test_cover_matches_exhaustive_properties():
    full = pad_to_full(LevelState(gen_random_edge(8, 505)), 8)
    degs = full.deg
    Y = tuple(v for v in sorted(degs) if degs[v] >= 7)
    X = tuple(v for v in sorted(degs) if degs[v] == 8)
    F = find_cover_F(full, X, Y)
    cover = cover_counts(full.edges, F)
    assert all(c <= 2 for c in cover.values())
    assert all(cover.get(y, 0) >= 1 for y in Y)
    assert all(cover.get(x, 0) == 2 for x in X)
    # brute force agrees some valid cover exists
    found = False
    for combo in combinations(sorted(full.edges), 4):
        cc = cover_counts(full.edges, combo)
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
    L = state(8, pairs + [(A(0), B(1))] * 2)  # extra bulk, irrelevant
    F = (0, 1, 2, 3)
    z = slots(8, A(6), A(7), B(6), B(7))
    assert place_F(L, F, *z) is L
    # the corners leave the state with their four edges each frozen
    at = Counter(w for e in L.frozen.values() for w in (e.u, e.v))
    assert all(at[v] == 4 and v not in L.deg for v in z)
    assert L.m == 2 and not any(set(z) & {e.u, e.v} for e in L.edges.values())


def test_place_f_with_parallel_pair():
    pairs = [(A(0), B(0))] * 2 + [(A(1), B(1)), (A(2), B(2))]
    L = state(8, pairs)
    z = slots(8, A(6), A(7), B(6), B(7))
    place_F(L, (0, 1, 2, 3), *z)
    mult = Counter(e.pair() for e in L.frozen.values())
    assert len(mult) == 12 and all(c == 1 for c in mult.values())


def test_place_f_c4_cover():
    pairs = [(A(0), B(0)), (A(1), B(0)), (A(1), B(1)), (A(0), B(1))]
    L = state(8, pairs)
    place_F(L, (0, 1, 2, 3), *slots(8, A(6), A(7), B(6), B(7)))
    assert L.m == 0 and len(L.frozen) == len(pairs) + 8


def test_place_f_rejects_a_corner_with_an_edge():
    pairs = [(A(0), B(0)), (A(1), B(1)), (A(2), B(2)), (A(3), B(3)), (A(6), B(0))]
    L = state(8, pairs)
    before = list(L.edges.items())
    with pytest.raises(PreconditionError):
        place_F(L, (0, 1, 2, 3), *slots(8, A(6), A(7), B(6), B(7)))
    with pytest.raises(PreconditionError):
        place_F(L, (0, 1, 2, 3), *slots(8, A(7), A(6), B(6), B(7)))
    assert list(L.edges.items()) == before


#: Hand-built Case-1 covers, edges 0-3, placed on the isolated corners A6, A7, B6, B7 of K_{8,8}.
PLACE_COVERS = {
    "disjoint": [(A(0), B(0)), (A(1), B(1)), (A(2), B(2)), (A(3), B(3))],
    "parallel pair": [(A(0), B(0))] * 2 + [(A(1), B(1)), (A(2), B(2))],
    "c4": [(A(0), B(0)), (A(1), B(0)), (A(1), B(1)), (A(0), B(1))],
    "shared A end": [(A(0), B(0)), (A(0), B(1)), (A(1), B(2)), (A(2), B(3))],
    "shared B end": [(A(0), B(0)), (A(1), B(0)), (A(2), B(1)), (A(3), B(2))],
}


@pytest.mark.parametrize("flip", [False, True], ids=["a-first", "b-first"])
@pytest.mark.parametrize("corners", [
    (A(6), A(7), B(6), B(7)), (A(7), A(6), B(6), B(7)),
    (A(6), A(7), B(7), B(6)), (A(7), A(6), B(7), B(6)),
], ids=["u67-v67", "u76-v67", "u67-v76", "u76-v76"])
@pytest.mark.parametrize("cover", sorted(PLACE_COVERS))
def test_place_f_takes_the_first_numbering_by_the_twelve_pairs_rule(cover, corners, flip):
    pairs = [(v, u) if flip else (u, v) for u, v in PLACE_COVERS[cover]]
    z = slots(8, *corners)
    ref = state(8, pairs)
    moves = reference_numbering(ref, (0, 1, 2, 3), *z)
    tpb.edge_solver.edge_lift(ref, moves, z)
    L = state(8, pairs)
    place_F(L, (0, 1, 2, 3), *z)
    assert L.split == ref.split
    assert L.frozen == ref.frozen


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


# hand-built K_{6,6} instances: (tag of the first step, its note, demand pairs)
CASE_VARIANTS = [
    (
        "1.1",
        "",
        [(A(0), B(0))] * 3 + [(A(1), B(1))] * 3 + [(A(0), B(1))] * 2 + [(A(1), B(0))] * 2,
    ),
    (
        "1.2",
        "",
        [(A(0), B(0))] * 3 + [(A(0), B(1))] * 2 + [(A(1), B(0))] * 2 + [(A(2), B(1))] * 3,
    ),
    (
        "1.3",
        "",
        [(A(0), B(0))] * 2
        + [(A(0), B(1))] * 2
        + [(A(0), B(2)), (A(1), B(0)), (A(1), B(0)), (A(2), B(0))]
        + [(A(3), B(3))] * 2,
    ),
    (
        "1.3",
        "",
        [(A(0), B(0))] * 4
        + [(A(0), B(1)), (A(1), B(0))]
        + [(A(2), B(2))] * 2
        + [(A(3), B(3))] * 2,
    ),
    (
        "1.4",
        "",
        [(A(0), B(0))] * 2
        + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3))]
        + [(A(1), B(0)), (A(1), B(1))]
        + [(A(2), B(0)), (A(2), B(1)), (A(2), B(2))],
    ),
    (
        "1.5",
        "",
        [(A(0), B(0))] * 2
        + [(A(0), B(1))] * 2
        + [(A(1), B(0))] * 2
        + [(A(1), B(1)), (A(2), B(1))]
        + [(A(2), B(2))] * 2,
    ),
    (
        "2.1",
        "",
        [(A(0), B(0))]
        + [(A(1), B(1))] * 2
        + [(A(2), B(2))] * 2
        + [(A(3), B(3))] * 2
        + [(A(4), B(4))] * 3,
    ),
    (
        "2.1",
        "",
        [(A(0), B(0)), (A(0), B(1))]
        + [(A(1), B(2))] * 2
        + [(A(2), B(3))] * 2
        + [(A(3), B(4))] * 2
        + [(A(4), B(5)), (A(5), B(5))],
    ),
    (
        "2.2.1",
        "",
        [(A(0), B(0)), (A(0), B(1)), (A(1), B(0)), (A(1), B(1))]
        + [(A(2), B(2))] * 2
        + [(A(3), B(3))] * 2
        + [(A(4), B(4))] * 2,
    ),
    (
        "2.2.2",
        "",
        [(A(0), B(0))] * 2
        + [(A(0), B(1))] * 2
        + [(A(1), B(2))] * 2
        + [(A(1), B(3))] * 2
        + [(A(2), B(4))] * 2,
    ),
    (
        "3.1",
        "",
        [(A(0), B(0))] * 2
        + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3)), (A(0), B(4))]
        + [(A(1), B(5))] * 2
        + [(A(2), B(5))] * 2,
    ),
    (
        "3.1",
        "",
        [(A(0), B(0))] * 3
        + [(A(0), B(1))] * 3
        + [(A(1), B(2)), (A(2), B(3)), (A(3), B(4)), (A(4), B(5))],
    ),
    (
        "3.2.1",
        "plain neighbor",
        [(A(0), B(0))] * 2
        + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3)), (A(0), B(4))]
        + [(A(1), B(1)), (A(2), B(2)), (A(3), B(3)), (A(4), B(4))],
    ),
    (
        "3.2.1",
        "parallel pairs",
        [(A(0), B(0))] * 2
        + [(A(0), B(1))] * 2
        + [(A(0), B(2))] * 2
        + [(A(1), B(3))] * 2
        + [(A(2), B(4))] * 2,
    ),
    (
        "3.2.1",
        "lifted parallel star",
        [(A(0), B(0))] * 2
        + [(A(0), B(1))] * 2
        + [(A(0), B(2))] * 2
        + [(A(1), B(4)), (A(2), B(4)), (A(3), B(5)), (A(4), B(5))],
    ),
    (
        "3.2.2",
        "",
        [(A(0), B(0))] * 2
        + [(A(0), B(1))] * 2
        + [(A(0), B(2)), (A(0), B(3))]
        + [(A(1), B(2)), (A(2), B(3)), (A(3), B(0)), (A(4), B(1))],
    ),
    (
        "4",
        "",
        [(A(0), B(0))] * 3
        + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3))]
        + [(A(1), B(0)), (A(2), B(0)), (A(3), B(0))]
        + [(A(4), B(4))],
    ),
    (
        "4",
        "",
        [(A(0), B(0))] * 2
        + [(A(0), B(1)), (A(0), B(2)), (A(0), B(3)), (A(0), B(4))]
        + [(A(1), B(0)), (A(2), B(0)), (A(3), B(0)), (A(4), B(0))],
    ),
]


def case_instances(case, transposed=False):
    """The hand-built instances of one case, as (instance, tag, note)."""
    for tag, note, pairs in CASE_VARIANTS:
        if tag.split(".")[0] == case:
            D = g(6, pairs)
            yield (D.transpose() if transposed else D), tag, note


def check_case_variants(case):
    for D, tag, note in case_instances(case):
        _, trace = solved_with(D, tag)
        if note:
            assert trace.steps[0].note == note


def test_case_1_variants():
    check_case_variants("1")


def test_case_2_variants():
    check_case_variants("2")


def test_case_3_variants():
    check_case_variants("3")


def test_case_4_variants():
    check_case_variants("4")


def orientation_swap_instance():
    # degree-1 vertices only in class B force a swap for case 2.1
    pairs = (
        [(A(0), B(0)), (A(0), B(1))]
        + [(A(1), B(2))] * 2
        + [(A(2), B(3))] * 2
        + [(A(3), B(4))] * 2
        + [(A(4), B(5))] * 2
    )
    return g(6, pairs)


def test_orientation_swap_recorded():
    D = orientation_swap_instance()
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


# -- pinned outputs and depth ----------------------------------------------------------


def clustered_instance(n, seed, frac=0.10):
    """2n-2 edges whose endpoints lie on 10 % of each class, with degree at most n."""
    rng = random.Random(seed)
    k = max(2, int(n * frac))
    hubs_a = rng.sample(range(n), k)
    hubs_b = rng.sample(range(n), k)
    deg_a = dict.fromkeys(hubs_a, 0)
    deg_b = dict.fromkeys(hubs_b, 0)
    pairs = []
    while len(pairs) < 2 * n - 2:
        i = rng.choice(hubs_a)
        j = rng.choice(hubs_b)
        if deg_a[i] < n and deg_b[j] < n:
            pairs.append((A(i), B(j)))
            deg_a[i] += 1
            deg_b[j] += 1
    return DemandGraph.from_pairs(n, n, pairs)


def solves_digest(instances):
    """sha256 over each resolution file plus every field of every trace step.

    A base step's note, the oracle's node count, is left out: a pruning
    change moves it while the routing stays the same.
    """
    h = hashlib.sha256()
    for D in instances:
        res, trace = solve_edge_version(D)
        h.update(serialize_resolution(res).encode())
        for s in trace.steps:
            note = "" if s.case_tag == "base" else s.note
            fields = (s.n, s.case_tag, s.x_set, s.y_set, s.z_set, s.f_set, s.lifts, s.swapped, note)
            h.update(repr(fields).encode())
    return h.hexdigest()


# seeds 0..7 of each family; gen_chain(60) is a single instance
PINNED_DIGESTS = {
    ("clustered", 8): "c915bd536c41d484c644eba281a17d27e0981b63e5199ac9987268f16292b688",
    ("clustered", 12): "804f27b9a9be4116530b4bf2241325fc67944d116573a72eceb3ef01c3804ee1",
    ("clustered", 32): "fc56b749649570ce23bb1d7f847efa9e3a332d16d54cc21379620187ab6c064f",
    ("clustered", 96): "c6492e06b6415d1506465dd380df438ff9aabea6932f7f61b41a44140a2d4ee7",
    ("random_edge", 6): "37d7219f7a79cd54fe0bfdf7f235680bcad38b3037f631415d7a974f56bdcd1e",
    ("random_edge", 7): "3d875e8b6d115150d8aedcdb69aabbe2a4710bab6dae87bbc3614559874c2763",
    ("random_edge", 8): "7c7fd57912ebc2189f5e1d733c0ec4a701b59e9e86b76d514564665cd6c2251e",
    ("random_edge", 9): "084b344ad058ae6e7501332c3b0b29373b23833aeb2f61a51594d232d3dc712d",
    ("random_edge", 10): "9bb6c123fd4f68f3218a77de3c08d4633b2a03398aecde77b92490a5e0c27359",
    ("chain", 60): "74b6b2044a4e435da3961e0e0366b95beafe46a19df140137353be8c383c2493",
}


@pytest.mark.parametrize("family,n", sorted(PINNED_DIGESTS))
def test_outputs_and_traces_pinned(family, n):
    if family == "chain":
        instances = [gen_chain(n)]
    else:
        make = clustered_instance if family == "clustered" else gen_random_edge
        instances = (make(n, seed) for seed in range(8))
    assert solves_digest(instances) == PINNED_DIGESTS[(family, n)]


def test_composed_routes_equal_the_label_class_read_back(monkeypatch):
    # The routes composed from the split records equal the Euler trail and
    # shortcut of each demand's label class among the final edges.
    states = []
    real = tpb.edge_solver._resolve

    def recording(D, trace):
        states.append(real(D, trace))
        return states[-1]

    monkeypatch.setattr(tpb.edge_solver, "_resolve", recording)
    instances = [gen_random_edge(n, seed) for n in range(4, 40) for seed in range(40)]
    instances += [clustered_instance(n, seed) for n in (8, 16, 32, 64, 128, 256) for seed in range(8)]
    instances += [D for case in "1234" for flip in (False, True) for D, _, _ in case_instances(case, flip)]
    instances.append(gen_chain(400))
    for D in instances:
        res, _ = solve_edge_version(D)
        L = states.pop()
        final = DemandGraph(L.a, L.b, L.frozen | L.edges, L.next_fresh_id)
        assert res.routes == reference_extract(final, D)


# every hand-built case instance with the classes swapped, in CASE_VARIANTS order
TRANSPOSED_CASES_DIGEST = "a73fd99fc3d6096ce8bbc58f1ba207144cae733674f6a9af7d837cff2a7ce552"


def test_transposed_case_instances_pinned():
    instances = [D for case in "1234" for D, _, _ in case_instances(case, transposed=True)]
    swapped = set()
    for D, (tag, note, _) in zip(instances, CASE_VARIANTS):
        res, trace = solve_edge_version(D)
        assert verify_resolution(D, res) == []
        first = trace.steps[0]
        assert (first.case_tag, first.note) == (tag, note)
        swapped.update((s.case_tag, s.note) for s in trace.steps if s.swapped)
    assert swapped == {
        ("2.2.2", ""),
        ("3.1", ""),
        ("3.2.1", "plain neighbor"),
        ("3.2.1", "parallel pairs"),
        ("3.2.1", "lifted parallel star"),
        ("3.2.2", ""),
    }
    assert solves_digest(instances) == TRANSPOSED_CASES_DIGEST


# the first gen_random_edge(n, seed) instances, scanning n = 6.. and seeds 0..,
# whose induction swaps the classes for case 3.1, 4 and 3.2.2
SWAPPED_RANDOM_DIGESTS = {
    (6, 95, "3.1"): "ac0546497be6a9ee2c4d9456e36c20cf12e7decec77ca531e5737a3e8057fc71",
    (8, 264, "4"): "1d7cfc39c889320eee5fcf54f8ed8de974c4c72ce2aeb5c560a9fbaa2bc808ae",
    (12, 134, "3.2.2"): "d6b3a6ceaf7d248b60db5c17a89bab0fe5a469d41e981e86cee49cbd0178e4ea",
}


@pytest.mark.parametrize("n,seed,tag", sorted(SWAPPED_RANDOM_DIGESTS))
def test_swapped_random_instances_pinned(n, seed, tag):
    D = gen_random_edge(n, seed)
    _, trace = solve_edge_version(D)
    assert [s.case_tag for s in trace.steps if s.swapped] == [tag]
    assert solves_digest([D]) == SWAPPED_RANDOM_DIGESTS[(n, seed, tag)]


def test_deep_induction_needs_no_stack_per_level():
    D = clustered_instance(160, 1)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        res, trace = solve_edge_version(D)
    finally:
        sys.setrecursionlimit(old)
    assert len(trace.steps) >= 60
    assert verify_resolution(D, res) == []


def test_chain_lifts_in_one_batch(monkeypatch):
    calls = []
    real = tpb.edge_solver.edge_lift

    def counting(G, *args):
        calls.append(G)
        return real(G, *args)

    monkeypatch.setattr(tpb.edge_solver, "edge_lift", counting)
    D = gen_chain(40)
    res, trace = solve_edge_version(D)
    assert verify_resolution(D, res) == []
    assert trace.tags() == ["2.2.3"]
    assert len(calls) == 1


# -- the level state -------------------------------------------------------------------


def full_check_conditions(dp, z, n):
    """The four induction conditions checked over the whole graph: the test oracle."""
    problems = []
    zset = set(z)
    za = sum(1 for v in zset if v < dp.a)
    zb = len(zset) - za
    if za != zb:
        problems.append(f"(1) Z meets the classes {za}/{zb}")
    incident = sum(1 for e in dp.links.values() if e.u in zset or e.v in zset)
    if incident < len(zset):
        problems.append(f"(2) only {incident} edges incident to Z, need {len(zset)}")
    rest = [v for v in range(dp.a + dp.b) if v not in zset]
    off = dp.induced(rest)
    if off.max_degree() > n - len(zset) // 2:
        problems.append(
            f"(3) degree {off.max_degree()} off Z exceeds {n - len(zset) // 2}"
        )
    pair_mult = {}
    for e in dp.links.values():
        pair_mult[e.pair()] = pair_mult.get(e.pair(), 0) + 1
    for (u, v), c in pair_mult.items():
        if c > 1 and (u in zset or v in zset):
            problems.append(f"(4) parallel edges {u}-{v} touch Z")
    return problems


def pinned_instances():
    for family, n in sorted(PINNED_DIGESTS):
        if family == "chain":
            yield gen_chain(n)
        else:
            make = clustered_instance if family == "clustered" else gen_random_edge
            yield from (make(n, seed) for seed in range(8))


def test_incremental_conditions_agree_with_full_check(monkeypatch):
    # every level's step is replayed on rebuilt copies of the state before
    # it, with the real Z and six perturbed ones, and each audit is compared
    # with the full check over the lifted graph that the step removes Z from
    real_change = LevelState.change
    real_check = tpb.edge_solver.check_conditions
    steps = []
    levels = []
    failures = Counter()

    def recording(L, gone, added, z=()):
        if z:
            steps.append((rebuilt(L), list(gone), dict(added), z))
        return real_change(L, gone, added, z)

    def both(L, z, n, froze):
        before, gone, added, step_z = steps[-1]
        assert step_z == z
        lifted = rebuilt(before)
        real_change(lifted, gone, added)
        G = DemandGraph(lifted.a, lifted.b, dict(lifted.edges), lifted.next_fresh_id)
        top = max(lifted.deg, key=lambda v: (lifted.deg[v], v))
        other = max(
            (v for v in lifted.deg if (v < lifted.a) != (z[0] < lifted.a)),
            key=lambda v: (lifted.deg[v], v),
        )
        idle = tuple(lifted.lowest(0, 0, 2) + lifted.lowest(0, 1, 2))
        for zz in (z, z[:-1], (z[0], other), (top,) + z[1:], (top, other), idle, idle[::2]):
            zz = tuple(dict.fromkeys(zz))
            replay = rebuilt(before)
            got = real_check(replay, zz, n, real_change(replay, gone, added, zz).values())
            assert sorted(got) == sorted(full_check_conditions(G, zz, n)), (zz, got)
            failures.update(p[:3] for p in got)
        levels.append(z)
        return real_check(L, z, n, froze)

    monkeypatch.setattr(LevelState, "change", recording)
    monkeypatch.setattr(tpb.edge_solver, "check_conditions", both)
    for D in pinned_instances():
        solve_edge_version(D)
    assert len(levels) > 500
    assert len(steps) == len(levels)
    assert set(failures) == {"(1)", "(2)", "(3)", "(4)"}


def removed_of(L):
    """Each class's removed slots in order: those not in `L.sides`."""
    return tuple(
        sorted(set(slots).difference(side)) for slots, side in zip((range(L.a), range(L.a, L.a + L.b)), L.sides)
    )


def rebuilt(L):
    return LevelState(
        DemandGraph(L.a, L.b, dict(L.edges), L.next_fresh_id), removed_of(L), dict(L.frozen),
    )


def state_of(L):
    return (
        list(L.edges.items()), L.next_fresh_id, L.deg, L.bydeg, L.adj,
        L.parallel, [list(vs) for vs in L.sides], removed_of(L), L.frozen,
        [L.lowest(d, s, L.a + L.b) for d in range(3) for s in (0, 1)],
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_state_matches_rebuild(data):
    n = data.draw(st.integers(4, 9), label="n")
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = data.draw(st.lists(cells, max_size=2 * n - 2), label="pairs")
    L = LevelState(DemandGraph.from_pairs(n, n, [(A(i), B(j)) for i, j in pairs]))
    for _ in range(data.draw(st.integers(1, 8), label="ops")):
        alive_a, alive_b = list(L.sides[0]), list(L.sides[1])
        if not alive_a or not alive_b:
            break
        op = data.draw(st.sampled_from(["step", "pad"]), label="op")
        before = rebuilt(L)
        try:
            if op == "step":
                moves = data.draw(
                    st.lists(
                        st.tuples(
                            st.sampled_from(sorted(L.edges) + [L.next_fresh_id]),
                            st.sampled_from(alive_a),
                            st.sampled_from(alive_b),
                            st.booleans(),
                        ).map(lambda t: (t[0], t[2], t[1]) if t[3] else t[:3]),
                        max_size=3,
                    ),
                    label="moves",
                )
                # mostly alive distinct slots; a removed or repeated one fails the batch
                za = data.draw(st.lists(st.sampled_from(range(n)), max_size=2), label="za")
                zb = data.draw(st.lists(st.sampled_from(range(n, 2 * n)), max_size=2), label="zb")
                z = tuple(za + zb)
                assert tpb.edge_solver.edge_lift(L, moves, z) is L
                assert not set(z) & set(L.deg)
                removed = {v for ix in removed_of(L) for v in ix}
                assert all({e.u, e.v} & removed for e in L.frozen.values())
                # the same as lifting first and removing z after
                two = rebuilt(before)
                tpb.edge_solver.edge_lift(two, moves)
                two.change((), {}, z)
                assert state_of(two) == state_of(L)
            else:
                assert pad_to_full(L, len(alive_a)) is L
                assert L.m == 2 * len(alive_a) - 2
        except (PreconditionError, StructuralError, tpb.NotFoundError, tpb.DomainError):
            assert state_of(L) == state_of(before)  # a failed batch changes nothing
        assert list(L.edges) == sorted(L.edges)
        assert state_of(L) == state_of(rebuilt(L))
        for d in range(3):
            for s, alive in enumerate(L.sides):
                bucket = [v for v in alive if L.deg[v] == d]
                for k in (1, 2, 3):
                    assert L.lowest(d, s, k) == bucket[:k], (d, s, k)
        # the alive edge ids come off their heap in id order
        assert tpb.edge_solver._first(L, L.m + 1) == list(L.edges)


def test_low_degree_lookups_read_a_constant_per_level(monkeypatch):
    # the entries the lookups read are heap pops, stale ones included; the
    # only bucket read whole is the degree-n one, which holds at most two
    # slots, so a lookup that sorted the degree-1 bucket instead would read
    # hundreds per level at n = 1024
    assert not hasattr(LevelState, "of_degree")
    reads = Counter()
    real_pop = tpb.edge_solver.heappop

    def counting_pop(heap):
        reads["entries"] += 1
        return real_pop(heap)

    monkeypatch.setattr(tpb.edge_solver, "heappop", counting_pop)
    per_level = []
    for n in (256, 1024, 4096):
        reads.clear()
        D = gen_random_edge(n, 0)
        res, trace = solve_edge_version(D)
        assert verify_resolution(D, res) == []
        per_level.append(reads["entries"] / len(trace.steps))
    assert all(b <= 1.5 * a for a, b in zip(per_level, per_level[1:])), per_level


def test_lowest_returns_each_slot_once_when_its_heap_repeats_it():
    # a slot that leaves degree 0 and comes back is pushed again, so the heap
    # holds several entries for it, next to stale ones of a slot still at degree 1
    L = LevelState(DemandGraph.empty(6, 6))
    L.change((), {99: Edge(99, 0, 3, 9)})
    for r in range(3):
        ids = (100 + 3 * r, 101 + 3 * r, 102 + 3 * r)
        L.change((), {ids[0]: Edge(ids[0], 0, 0, 6), ids[1]: Edge(ids[1], 0, 2, 7), ids[2]: Edge(ids[2], 0, 5, 8)})
        L.change(ids, {})
    heap = L.low[0][0]
    assert Counter(heap)[0] == Counter(heap)[2] == 4 and 3 in heap
    for k in range(1, 7):
        assert L.lowest(0, 0, k) == [0, 1, 2, 4, 5][:k]
    assert L.lowest(0, 0, 6) == [0, 1, 2, 4, 5]


def test_levels_touch_no_whole_graph(monkeypatch):
    calls = Counter()

    def counted(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for name in ("induced", "transpose", "degree_map"):
        counted(DemandGraph, name)
    counted(LevelState, "__init__")
    D = clustered_instance(96, 0)
    res, trace = solve_edge_version(D)
    assert verify_resolution(D, res) == []
    base = trace.tags()[-1] == "base"
    assert len(trace.steps) > 30
    assert calls["__init__"] == 1  # one state for the whole induction
    # the degree list is read once by the hypothesis check (max_degree) and
    # once by the oracle at an n <= 5 base case, never by a level
    assert calls["degree_map"] == 1 + int(base)
    assert calls["induced"] == calls["transpose"] == 0


def test_edge_solve_reads_no_vertex_of_its_input(monkeypatch):
    # the routes stay slot tuples from the lift records through the one
    # check, so no V of a route goes back through the input's `slot` (a
    # base case reads its oracle's routes on its own compact graph)
    D = clustered_instance(96, 0)
    graphs = []
    real = DemandGraph.slot

    def slot(G, v):
        graphs.append(G)
        return real(G, v)

    monkeypatch.setattr(DemandGraph, "slot", slot)
    res, trace = solve_edge_version(D)
    assert not [G for G in graphs if G is D]
    assert verify_resolution(D, res) == []


def test_edge_solver_audits_its_routes(monkeypatch):
    # routes that share a base edge, fed to the solver's one exit, fail there
    D = gen_chain(6)
    monkeypatch.setattr(
        tpb.edge_solver, "extract_resolution", lambda D, *_: {eid: (e.u, e.v) for eid, e in D.links.items()}
    )
    with pytest.raises(StructuralError, match="solver produced an invalid resolution: .*used by routes"):
        solve_edge_version(D)


def test_swapped_levels_build_one_state(monkeypatch):
    inits = []
    real = LevelState.__init__

    def counted(self, *args, **kwargs):
        inits.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(LevelState, "__init__", counted)
    instances = [
        orientation_swap_instance(),  # swapped 2.1
        *(D for D, _, _ in case_instances("3", transposed=True)),  # swapped 3.1, 3.2.x
        gen_random_edge(8, 264),  # swapped 4
    ]
    for D in instances:
        inits.clear()
        res, trace = solve_edge_version(D)
        assert verify_resolution(D, res) == []
        assert sum(s.swapped for s in trace.steps) > 0
        assert len(inits) == 1


# -- the lazy trace and the base case --------------------------------------------------


def test_edge_solve_builds_no_vertex(monkeypatch):
    # a level keeps its sets as slots; V is built only when a caller reads them
    built = Counter()
    real_new = V.__new__

    def counting_new(cls, *args):
        built["v"] += 1
        return real_new(cls, *args)

    instances = [gen_random_edge(256, 0), clustered_instance(96, 0)]
    monkeypatch.setattr(V, "__new__", counting_new)
    for D in instances:
        built.clear()
        res, trace = solve_edge_version(D)
        assert built["v"] == 0
        assert any(s.z_set for s in trace.steps) and built["v"] > 0
        assert verify_resolution(D, res) == []


def test_trace_sets_replayed_once_and_count_earlier_levels_only(monkeypatch):
    replays = Counter()
    real = tpb.edge_solver._replay

    def counting(*args):
        replays["runs"] += 1
        return real(*args)

    monkeypatch.setattr(tpb.edge_solver, "_replay", counting)
    D = gen_random_edge(4096, 0)
    res, trace = solve_edge_version(D)
    assert replays["runs"] == 0
    first = [(s.x_set, s.y_set, s.z_set) for s in trace.steps]
    again = [(s.x_set, s.y_set, s.z_set) for s in trace.steps]
    assert replays["runs"] == 1 and first == again
    # a slot's coordinate is its position among its class's slots that no
    # earlier level removed, read here from two sorted lists kept by hand
    sides = (list(range(D.a)), list(range(D.a, 2 * D.a)))
    for s, sets in zip(trace.steps, first):
        want = tuple(
            tuple(V("AB"[v >= D.a], sides[v >= D.a].index(v)) for v in vs)
            for vs in (s.x_slots, s.y_slots, s.z_slots)
        )
        assert sets == want, s
        for v in s.z_slots:
            sides[v >= D.a].remove(v)
    assert sum(map(len, sides)) == 2 * trace.steps[-1].n


def test_base_case_writes_its_pieces_final(monkeypatch):
    # the loop ends at the base case, so its pieces are not indexed in the level state
    calls = Counter()
    inside = []
    for name in ("_drop", "_add", "_bump"):
        real = getattr(LevelState, name)

        def counted(self, *args, real=real, name=name):
            if inside:
                calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(LevelState, name, counted)
    real_base = tpb.edge_solver._base_case

    def base(L, trace):
        inside.append(L)
        try:
            real_base(L, trace)
        finally:
            inside.pop()

    monkeypatch.setattr(tpb.edge_solver, "_base_case", base)
    bases = 0
    for seed in range(20):
        D = gen_random_edge(8, seed)
        res, trace = solve_edge_version(D)
        assert verify_resolution(D, res) == []
        bases += trace.tags()[-1] == "base"
    assert bases > 0
    assert not calls, calls
