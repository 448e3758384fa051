"""Exact oracle: decisions, budgets, enumeration."""
from itertools import permutations, product

import pytest

from tpb import (
    A,
    B,
    DemandGraph,
    PreconditionError,
    RESOLVABLE,
    SearchBudget,
    UNKNOWN,
    UNRESOLVABLE,
    decide,
    enumerate_demands,
    gen_chain,
    gen_sharp_conjecture,
    gen_sharp_edge,
    verify_resolution,
)
from tpb.oracle import search

BUDGET = SearchBudget(max_nodes=10_000_000, max_millis=120_000)


def naive_decide(D):
    """Pruning-free reference search, for cross-checking tiny verdicts."""
    demands = sorted(D.edges)
    used = set()

    def all_paths(u, v):
        out = []

        def walk(cur, seen, acc):
            if cur == v:
                out.append(tuple(acc))
                return
            nxt = (
                [B(j) for j in range(D.b)]
                if cur.side == "A"
                else [A(i) for i in range(D.a)]
            )
            for w in nxt:
                if w in seen:
                    continue
                key = (min(cur, w), max(cur, w))
                if key in used:
                    continue
                walk(w, seen | {w}, acc + [w])

        walk(u, {u}, [u])
        return out

    def rec(k):
        if k == len(demands):
            return True
        e = D.edges[demands[k]]
        for path in all_paths(e.u, e.v):
            keys = [
                (min(x, y), max(x, y)) for x, y in zip(path, path[1:])
            ]
            if len(set(keys)) != len(keys):
                continue
            used.update(keys)
            if rec(k + 1):
                return True
            used.difference_update(keys)
        return False

    return rec(0)


def test_single_edge():
    D = DemandGraph.from_pairs(2, 2, [(A(0), B(0))])
    v = decide(D, BUDGET)
    assert v.status == RESOLVABLE
    assert v.resolution.routes[0].length == 1


def test_sharp_conjecture_unresolvable():
    assert decide(gen_sharp_conjecture(3), BUDGET).status == UNRESOLVABLE
    # counting bound rejects n=6 without any search
    v = decide(gen_sharp_conjecture(6), BUDGET)
    assert v.status == UNRESOLVABLE
    assert v.nodes_explored == 0


def test_sharp_edge_unresolvable():
    for n in (4, 5):
        v = decide(gen_sharp_edge(n), BUDGET)
        assert v.status == UNRESOLVABLE
        assert v.nodes_explored <= 10_000_000


def test_resolvable_verdicts_verify():
    for n in (4, 5):
        D = gen_chain(n)
        v = decide(D, BUDGET)
        assert v.status == RESOLVABLE
        assert verify_resolution(D, v.resolution) == []


def test_budget_exhaustion_is_unknown():
    D = gen_sharp_edge(5)
    v = decide(D, SearchBudget(max_nodes=5, max_millis=120_000))
    assert v.status == UNKNOWN


def test_determinism():
    D = gen_chain(5)
    v1 = decide(D, BUDGET)
    v2 = decide(D, BUDGET)
    assert v1.status == v2.status
    assert v1.nodes_explored == v2.nodes_explored
    assert v1.resolution.routes == v2.resolution.routes


def test_decide_beyond_the_recursion_limit():
    # 1200 demands, one search level each
    pairs = [(A(i), B(j)) for i in range(40) for j in range(40) if (i + j) % 4 != 0]
    D = DemandGraph.from_pairs(40, 40, pairs)
    v = decide(D, BUDGET)
    assert v.status == RESOLVABLE
    assert verify_resolution(D, v.resolution) == []
    assert v.nodes_explored == 1200


def _trail_choices(options, trail, tried):
    """Level k appends each of options(k, trail) to `trail` in turn."""

    def choices(k):
        for x in options(k, trail):
            trail.append(x)
            tried.append(tuple(trail))
            yield
            trail.pop()

    return choices


def test_search_depth_zero_succeeds_without_expanding():
    expanded = []
    assert search(0, expanded.append) is True
    assert expanded == []


def test_search_exhausted_restores_state():
    trail, tried = [], []
    # level 1 offers nothing, so every level-0 option is undone again
    choices = _trail_choices(lambda k, t: [1, 2, 3] if k == 0 else [], trail, tried)
    assert search(2, choices) is False
    assert trail == []
    assert tried == [(1,), (2,), (3,)]


def test_search_keeps_first_success_in_depth_first_order():
    trail, tried = [], []

    def options(k, t):
        # the last level only accepts a value that brings the sum to 4
        return range(3) if k < 2 else [x for x in range(3) if sum(t) + x == 4]

    assert search(3, _trail_choices(options, trail, tried)) is True
    assert trail == [0, 2, 2]
    assert tried == [(0,), (0, 0), (0, 1), (0, 2), (0, 2, 2)]


def test_rejects_within_class_demands():
    D = DemandGraph.from_pairs(2, 1, [(A(0), A(1))])
    with pytest.raises(PreconditionError):
        decide(D, BUDGET)


def test_agreement_with_naive_reference():
    # every canonical instance on K_{2,2} with few edges, both ways
    for D in enumerate_demands(2, 4, 3, canonical=True):
        verdict = decide(D, BUDGET)
        assert verdict.status in (RESOLVABLE, UNRESOLVABLE)
        assert (verdict.status == RESOLVABLE) == naive_decide(D)


def test_enumerate_tiny():
    got = list(enumerate_demands(1, 1, 1, canonical=True))
    assert len(got) == 2
    assert sorted(g.m for g in got) == [0, 1]


def test_enumerate_counts_match_direct_orbits():
    # independent count via explicit orbit minimization
    mats = []
    for cells in product(range(3), repeat=4):
        M = [list(cells[:2]), list(cells[2:])]
        if sum(cells) > 2:
            continue
        if any(sum(r) > 2 for r in M):
            continue
        if any(M[0][j] + M[1][j] > 2 for j in range(2)):
            continue
        mats.append(cells)
    orbits = set()
    for cells in mats:
        M = [list(cells[:2]), list(cells[2:])]
        best = min(
            tuple(M[sr[i]][sc[j]] for i in range(2) for j in range(2))
            for sr in permutations(range(2))
            for sc in permutations(range(2))
        )
        orbits.add(best)
    mine = list(enumerate_demands(2, 2, 2, canonical=True))
    assert len(mine) == len(orbits)


def test_enumerate_respects_caps():
    for D in enumerate_demands(2, 3, 2, canonical=False):
        assert D.m <= 3
        assert D.max_degree() <= 2
