"""Exact oracle: decisions, budgets, enumeration."""
import hashlib
import random
import time
import tracemalloc
from collections import Counter
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
    gen_random_semiregular,
    gen_sharp_conjecture,
    gen_sharp_edge,
    verify_resolution,
)
from tpb.cli import main
from tpb.demand import SIDE_A
from tpb.instances import serialize_instance
from tpb.oracle import search

BUDGET = SearchBudget(max_nodes=10_000_000, max_millis=120_000)
# the oracle-search benchmark workload's budget
WORKLOAD_BUDGET = SearchBudget(max_nodes=4_000, max_millis=120_000)


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


def reference_decide(D):
    """`decide`'s search without its symmetry, saturation and crossing cuts.

    It takes the demands in the same order and the paths in the same
    (length, vertex sequence) order, and makes only the root degree check,
    the counting bound and the slack filter on intermediates, so both
    return the lexicographically first routing.  Returns the status, each
    demand's route as a vertex-index sequence, the number of paths tried,
    and the number of levels it searched at which `decide`'s crossing
    bound fails.
    """
    a, b = D.a, D.b
    degs = Counter(w for e in D.edges.values() for w in (e.u, e.v))
    mult = Counter(e.pair() for e in D.edges.values())
    demands = []
    for eid in sorted(D.edges):
        e = D.edges[eid]
        ai, bj = (e.u.index, e.v.index) if e.u.side == SIDE_A else (e.v.index, e.u.index)
        demands.append(((-mult[e.pair()], -(degs[e.u] + degs[e.v]), e.pair(), eid), eid, ai, bj))
    demands = [d[1:] for d in sorted(demands)]
    cnt_a = Counter(ai for _, ai, _ in demands)
    cnt_b = Counter(bj for _, _, bj in demands)
    if any(c > b for c in cnt_a.values()) or any(c > a for c in cnt_b.values()):
        return UNRESOLVABLE, None, 0, 0
    free_a, free_b = [b] * a, [a] * b
    used = set()
    routes = {}
    nodes = crossing_cut = 0

    def walk(seq, length, bj):
        # alternating index sequences seq + ... ending at B_bj, `length` edges in all
        cur, on_a = seq[-1], len(seq) % 2 == 1
        if len(seq) == length:
            if (cur, bj) not in used:
                yield seq + [bj]
            return
        for w in range(b if on_a else a):
            edge, free, cnt = ((cur, w), free_b, cnt_b) if on_a else ((w, cur), free_a, cnt_a)
            if (on_a and w == bj) or w in seq[len(seq) % 2 :: 2] or edge in used:
                continue
            if free[w] >= cnt[w] + 2:
                yield from walk(seq + [w], length, bj)

    def rec(k):
        nonlocal nodes, crossing_cut
        if k == len(demands):
            return True
        groups = Counter((ai, bj) for _, ai, bj in demands[k:])
        need = sum(3 * c - (0 if pair in used else 2) for pair, c in groups.items())
        if need > a * b - len(used):
            return False
        # counted only: a demand without a direct route crosses a vertex of
        # each side, and v can be crossed slack(v) // 2 more times
        left = min(
            sum((free_a[i] - cnt_a[i]) // 2 for i in range(a)),
            sum((free_b[j] - cnt_b[j]) // 2 for j in range(b)),
        )
        direct = sum(1 for pair in groups if pair not in used)
        crossing_cut += left < len(demands) - k - direct
        eid, ai, bj = demands[k]
        cnt_a[ai] -= 1
        cnt_b[bj] -= 1
        for length in range(1, 2 * min(a, b), 2):
            for seq in walk([ai], length, bj):
                nodes += 1
                edges = [(seq[t], seq[t + 1]) if t % 2 == 0 else (seq[t + 1], seq[t]) for t in range(length)]
                used.update(edges)
                for i, j in edges:
                    free_a[i] -= 1
                    free_b[j] -= 1
                routes[eid] = seq
                if rec(k + 1):
                    return True
                used.difference_update(edges)
                for i, j in edges:
                    free_a[i] += 1
                    free_b[j] += 1
        cnt_a[ai] += 1
        cnt_b[bj] += 1
        return False

    if rec(0):
        return RESOLVABLE, routes, nodes, crossing_cut
    return UNRESOLVABLE, None, nodes, crossing_cut


def relabeled(D, seed):
    """D under a seeded permutation of each class and of the edge order."""
    rng = random.Random(seed)
    perm_a, perm_b = list(range(D.a)), list(range(D.b))
    rng.shuffle(perm_a)
    rng.shuffle(perm_b)
    pairs = [(A(perm_a[e.u.index]), B(perm_b[e.v.index])) for e in D.edges.values()]
    rng.shuffle(pairs)
    return DemandGraph.from_pairs(D.a, D.b, pairs)


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
    # the saturation cut refutes the family at the root: A0 has n demands
    # but B1, whose slack is 1, leaves it only n - 1 usable edges
    for n in range(4, 65):
        v = decide(gen_sharp_edge(n), BUDGET)
        assert (v.status, v.nodes_explored) == (UNRESOLVABLE, 0), n
    # the benchmark's relabelled copies, whose refutation the labels must not slow
    for seed in range(10):
        v = decide(relabeled(gen_sharp_edge(5), seed), WORKLOAD_BUDGET)
        assert (v.status, v.nodes_explored) == (UNRESOLVABLE, 0), seed


def uniform(n, seed):
    """The oracle benchmark's uniform random instance: 2n+2..3n demands on K_{n,n}."""
    rng = random.Random(seed)
    m = rng.randint(2 * n + 2, 3 * n)
    return DemandGraph.from_pairs(n, n, [(A(rng.randrange(n)), B(rng.randrange(n))) for _ in range(m)])


def test_uniform_instances_decided_within_budget():
    # without the saturation cut, one instance of each size is still
    # UNKNOWN after 100 k nodes
    budget = SearchBudget(max_nodes=10_000, max_millis=120_000)
    for n in (6, 7):
        for seed in range(40):
            D = uniform(n, seed)
            v = decide(D, budget)
            assert v.status in (RESOLVABLE, UNRESOLVABLE), (n, seed)
            if v.status == RESOLVABLE:
                assert verify_resolution(D, v.resolution) == []


#: Benchmark ops that used up WORKLOAD_BUDGET before the crossing bound:
#: (n, seed) -> (verdict, nodes explored).
CROSSING_BOUND_OPS = {
    (6, 145118792): (RESOLVABLE, 3603),
    (5, 1472053993): (UNRESOLVABLE, 3267),
    (6, 1202264108): (RESOLVABLE, 2949),
    (5, 1341344619): (UNRESOLVABLE, 2860),
}


@pytest.mark.parametrize("n, seed", sorted(CROSSING_BOUND_OPS))
def test_crossing_bound_decides_benchmark_ops_within_budget(n, seed):
    D = uniform(n, seed)
    v = decide(D, WORKLOAD_BUDGET)
    assert (v.status, v.nodes_explored) == CROSSING_BOUND_OPS[n, seed]
    if v.status == RESOLVABLE:
        assert verify_resolution(D, v.resolution) == []


def test_resolvable_verdicts_verify():
    for n in (4, 5):
        D = gen_chain(n)
        v = decide(D, BUDGET)
        assert v.status == RESOLVABLE
        assert verify_resolution(D, v.resolution) == []


def threshold_instance(n, copies):
    """n disjoint pairs A_i-B_i with `copies` parallel demands each."""
    return DemandGraph.from_pairs(n, n, [(A(i), B(i)) for i in range(n) for _ in range(copies)])


def test_budget_exhaustion_is_unknown():
    D = threshold_instance(8, 3)
    v = decide(D, SearchBudget(max_nodes=5, max_millis=120_000))
    assert v.status == UNKNOWN


def stalling_instance():
    """A relabelling of gen_random_semiregular(24, 24, 10, 2).

    The search on it walks partial paths for seconds between commits.
    """
    D0 = gen_random_semiregular(24, 24, 10, 2)
    rng = random.Random(0)
    pa, pb = list(range(24)), list(range(24))
    rng.shuffle(pa)
    rng.shuffle(pb)
    D = D0.empty(24, 24).with_slots([(pa[e.u], 24 + pb[e.v - 24]) for e in D0.links.values()])
    digest = hashlib.sha256(serialize_instance(D).encode()).hexdigest()
    assert digest == "f8b8e874564ecadabc33fe1cef9240f3795c101b260b0cfbe29352fce6d130bf"
    return D


def test_time_budget_bounds_the_walk_between_commits():
    # a 2-vCPU VM commits about 200 paths in the second, so the node
    # budget alone would let the search run for many seconds
    D = stalling_instance()
    started = time.monotonic()
    v = decide(D, SearchBudget(max_nodes=960, max_millis=1000))
    assert v.status == UNKNOWN
    assert time.monotonic() - started < 2.0


def test_cli_timeout_exits_3_on_time(tmp_path, capsys):
    inst = tmp_path / "stall.tpb"
    inst.write_text(serialize_instance(stalling_instance()))
    started = time.monotonic()
    assert main(["solve", "--in", str(inst), "--algo", "oracle", "--timeout-ms", "1000"]) == 3
    assert time.monotonic() - started < 2.0
    assert "outcome: unknown" in capsys.readouterr().out


def test_crossing_bound_resolves_the_threshold_instance():
    # UNKNOWN after 100 k nodes without the crossing bound, which is tight
    # at the root: the 16 demands that no direct route takes cross a vertex
    # of each side apiece, and each side admits 8 * ((8 - 3) // 2) = 16
    # crossings, so every route is direct or of length 3
    D = threshold_instance(8, 3)
    v = decide(D, BUDGET)
    assert (v.status, v.nodes_explored) == (RESOLVABLE, 6140)
    assert verify_resolution(D, v.resolution) == []


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


def test_wide_headers_cost_what_their_demands_cost():
    # one demand in K_{n,n-1}: the fresh vertices are one mask per side, so
    # the peak grows about linearly in n; a list of one mask per fresh
    # vertex would grow as n^2
    peaks = []
    for n in (10_000, 40_000):
        D = DemandGraph.from_pairs(n, n - 1, [(A(n // 2), B(n // 2))])
        tracemalloc.start()
        try:
            v = decide(D, BUDGET)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (v.status, v.nodes_explored) == (RESOLVABLE, 1)
    assert peaks[1] <= 6 * peaks[0]
    assert peaks[1] <= 8 * 2**20


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
    for D in enumerate_demands(2, 4, 3):
        verdict = decide(D, BUDGET)
        assert verdict.status in (RESOLVABLE, UNRESOLVABLE)
        assert (verdict.status == RESOLVABLE) == naive_decide(D)


def test_symmetry_cuts_keep_the_first_routing():
    # every canonical instance on K_{n,n}, n <= 4, with at most 2n-1
    # demands and degree at most n, then random ones on K_{5,5}, denser
    # ones on K_{4,4} with the benchmark's 2n+2..3n demands, and the
    # benchmark's relabelled sharp_edge(5)
    rng = random.Random(5)
    sample = [D for n in (1, 2, 3, 4) for D in enumerate_demands(n, 2 * n - 1, n)]
    for _ in range(200):
        pairs = [(A(rng.randrange(5)), B(rng.randrange(5))) for _ in range(rng.randint(8, 15))]
        sample.append(DemandGraph.from_pairs(5, 5, pairs))
    sample += [uniform(4, seed) for seed in range(200)]
    sample += [relabeled(gen_sharp_edge(5), seed) for seed in range(10)]
    statuses = Counter()
    crossing_cut = 0
    for D in sample:
        status, routes, nodes, cut = reference_decide(D)
        v = decide(D, BUDGET)
        assert v.status == status
        if status == RESOLVABLE:
            got = {eid: [x.index for x in p.vertices] for eid, p in v.resolution.routes.items()}
            assert got == routes
        assert v.nodes_explored <= nodes
        statuses[status] += 1
        crossing_cut += cut > 0
    assert statuses[RESOLVABLE] > 500 and statuses[UNRESOLVABLE] > 40
    # instances whose reference search meets a level that the crossing
    # bound cuts (140 of the 1142)
    assert crossing_cut > 100


def test_enumerate_tiny():
    got = list(enumerate_demands(1, 1, 1))
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
    mine = list(enumerate_demands(2, 2, 2))
    assert len(mine) == len(orbits)


def test_enumerate_respects_caps():
    for D in enumerate_demands(2, 3, 2):
        assert D.m <= 3
        assert D.max_degree() <= 2
