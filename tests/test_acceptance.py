"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are zero throughout: the solvers must succeed and
verify on every in-hypothesis instance, and the oracle must refute every
sharp instance within the stated budgets.
"""
import random
from itertools import product

import pytest

from tpb import (
    A,
    B,
    DemandGraph,
    PreconditionError,
    RESOLVABLE,
    SearchBudget,
    UNRESOLVABLE,
    decide,
    enumerate_demands,
    gen_random_blocked,
    gen_random_edge,
    gen_random_semiregular,
    gen_sharp_conjecture,
    gen_sharp_edge,
    konig_decompose,
    parse_instance,
    parse_resolution,
    serialize_instance,
    serialize_resolution,
    solve_blocked,
    solve_edge_version,
    solve_quarter,
    verify_resolution,
    vizing_color,
)

BUDGET = SearchBudget(max_nodes=10_000_000, max_millis=300_000)

_cache: dict = {}


def canonical_n4():
    if "n4" not in _cache:
        _cache["n4"] = list(enumerate_demands(4, 6, 4))
    return _cache["n4"]


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_c1_edge_version_total_correctness():
    solved = 0
    for D in canonical_n4():
        res, _ = solve_edge_version(D)
        assert verify_resolution(D, res) == [], "n=4 exhaustive case failed"
        solved += 1
    for n in (5, 6):
        for seed in range(500):
            D = gen_random_edge(n, seed)
            res, _ = solve_edge_version(D)
            assert verify_resolution(D, res) == [], f"n={n} seed={seed}"
            solved += 1
    report(
        f"C1 PASS: edge-version solver 100% on {len(canonical_n4())} exhaustive "
        f"n=4 instances and 500 random instances each at n=5,6 ({solved} total)"
    )


def test_c2_edge_sharpness():
    for n in range(4, 65):
        v = decide(gen_sharp_edge(n), BUDGET)
        assert v.status == UNRESOLVABLE, f"sharp edge instance n={n}"
        assert v.nodes_explored == 0, f"sharp edge instance n={n}"
    report("C2 PASS: edge-sharpness instances refuted at the root (0 nodes) for n=4..64")


def test_c3_conjecture_sharpness():
    v = decide(gen_sharp_conjecture(3), BUDGET)
    assert v.status == UNRESOLVABLE
    for n in range(1, 101):
        assert n + 3 * n * (-(-n // 3)) > n * n
    report(
        "C3 PASS: conjecture-sharpness instance refuted at n=3; "
        "counting bound n+3n*ceil(n/3) > n^2 holds for 1<=n<=100"
    )


def test_c4_blocked_pipeline():
    total = 0
    for n in (3, 6, 9, 12):
        t = n // 3
        for seed in range(50):
            D = gen_random_blocked(n, (t, t, t), seed)
            res = solve_blocked(D, (t, t, t))
            assert verify_resolution(D, res) == [], f"blocked n={n} seed={seed}"
            if n == 6:
                v = decide(D, BUDGET)
                assert v.status == RESOLVABLE, f"oracle disagrees at n=6 seed={seed}"
            total += 1
    report(
        f"C4 PASS: blocked solver 100% on {total} instances over n in (3,6,9,12); "
        "all n=6 instances cross-checked resolvable by the oracle"
    )


def test_c5_quarter_pipeline():
    total = 0
    for a, b in ((12, 12), (24, 12), (24, 24), (60, 60)):
        cap = (b + 1) // 6
        for seed in range(20):
            da = random.Random(1_000_003 * a + 101 * b + seed).randint(1, cap)
            D = gen_random_semiregular(a, b, da, seed)
            res = solve_quarter(D)
            assert res is not None, f"quarter ({a},{b}) delta={da} seed={seed}"
            assert verify_resolution(D, res) == []
            total += 1
    # best effort above the constructive threshold, reported without a gate
    attempts = succ = 0
    for a, b in ((24, 24), (60, 60)):
        hi = b // 4
        for seed in range(5):
            D = gen_random_semiregular(a, b, hi, seed)
            attempts += 1
            try:
                succ += verify_resolution(D, solve_quarter(D)) == []
            except PreconditionError:  # the solver declined
                pass
    report(
        f"C5 PASS: quarter solver 100% on {total} instances within the "
        f"constructive degree threshold; best-effort at delta_A = b/4: "
        f"{succ}/{attempts} (no pass threshold)"
    )


def test_c6_intermediate_claims():
    # the pipelines raise StructuralError the moment an intermediate claim
    # breaks, so a clean pass over fresh instances certifies the claims;
    # test_structured re-derives the same facts by staging the pipeline.
    for seed in range(10):
        D = gen_random_semiregular(24, 24, 4, 100 + seed)
        assert solve_quarter(D) is not None
    for n in (6, 8):
        for seed in range(50):
            D = gen_random_edge(n, 7000 + seed)
            res, trace = solve_edge_version(D)
            assert verify_resolution(D, res) == []
            ns = [s.n for s in trace.steps]
            assert ns == sorted(ns, reverse=True)
    report(
        "C6 PASS: in-run intermediate-claim checks held on every "
        "solve_quarter and solve_edge_version execution"
    )


def _random_bipartite(seed):
    rng = random.Random(seed)
    a = rng.randint(1, 10)
    b = rng.randint(1, 10)
    pairs = []
    mult: dict = {}
    for _ in range(rng.randint(0, 26)):
        i, j = rng.randrange(a), rng.randrange(b)
        if mult.get((i, j), 0) < 4:
            pairs.append((A(i), B(j)))
            mult[(i, j)] = mult.get((i, j), 0) + 1
    return DemandGraph.from_pairs(a, b, pairs)


def _random_multigraph(seed):
    rng = random.Random(seed)
    na = rng.randint(1, 4)
    nb = rng.randint(1, 4)
    verts = [A(i) for i in range(na)] + [B(j) for j in range(nb)]
    pairs = []
    mult: dict = {}
    for _ in range(rng.randint(0, 16)):
        if len(verts) < 2:
            break
        u, v = rng.sample(verts, 2)
        key = (min(u, v), max(u, v))
        if mult.get(key, 0) < 3:
            pairs.append((u, v))
            mult[key] = mult.get(key, 0) + 1
    return DemandGraph.from_pairs(na, nb, pairs)


def _proper(H, colors):
    for e1 in H.edges.values():
        for e2 in H.edges.values():
            if e1.id < e2.id and (e1.touches(e2.u) or e1.touches(e2.v)):
                if colors[e1.id] == colors[e2.id]:
                    return False
    return True


def test_c7_coloring_toolkit():
    for seed in range(1000):
        H = _random_bipartite(seed)
        matchings = konig_decompose(H)
        assert len(matchings) == H.max_degree()
        seen: set = set()
        for m in matchings:
            vs: set = set()
            for eid in m:
                e = H.edges[eid]
                assert e.u not in vs and e.v not in vs
                vs.add(e.u)
                vs.add(e.v)
            seen |= m
        assert seen == set(H.edges)
    for seed in range(1000):
        H = _random_multigraph(seed)
        col = vizing_color(H)
        assert _proper(H, col)
        if H.edges:
            assert len(set(col.values())) <= H.max_degree() + H.max_multiplicity()
    T = DemandGraph.from_pairs(
        3,
        1,
        [(A(0), A(1))] * 2 + [(A(1), A(2))] * 2 + [(A(0), A(2))] * 2,
    )
    col = vizing_color(T)
    assert _proper(T, col) and len(set(col.values())) == 6
    ids = sorted(T.edges)
    for assignment in product(range(5), repeat=6):
        if _proper(T, dict(zip(ids, assignment))):
            pytest.fail("doubled triangle admitted a 5-coloring")
    report(
        "C7 PASS: Kőnig exact on 1000 random bipartite multigraphs, Vizing "
        "proper within Δ+μ on 1000 random multigraphs, doubled triangle "
        "needs exactly 6 colors"
    )


def test_c8_oracle_solver_agreement():
    both = 0
    for D in canonical_n4():
        res, _ = solve_edge_version(D)
        assert verify_resolution(D, res) == []
        v = decide(D, BUDGET)
        assert v.status == RESOLVABLE
        assert verify_resolution(D, v.resolution) == []
        both += 1
    report(
        f"C8 PASS: oracle and edge solver agree (both resolve) on all "
        f"{both} canonical n=4 in-hypothesis instances"
    )


def test_c9_format_round_trip():
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        D = gen_random_edge(n, seed)
        once = serialize_instance(D)
        assert serialize_instance(parse_instance(once)) == once
    routes = 0
    for seed in range(40):
        D = gen_random_edge(6, 3000 + seed)
        res, _ = solve_edge_version(D)
        text = serialize_resolution(res)
        status, back = parse_resolution(text)
        assert status == "SOLVED"
        assert serialize_resolution(back) == text
        routes += len(res.routes)
    report(
        f"C9 PASS: 1000 instance files and 40 resolution files "
        f"({routes} routes) round-trip byte-identically"
    )
