"""Blocked and degree-bounded pipelines plus matching repartition."""
import hashlib
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpb import (
    A,
    B,
    DemandGraph,
    PreconditionError,
    RESOLVABLE,
    SearchBudget,
    StructuralError,
    TpbError,
    decide,
    gen_random_blocked,
    gen_random_semiregular,
    konig_decompose,
    repartition_matchings,
    solve_blocked,
    solve_quarter,
    verify_resolution,
)
import tpb.cli
import tpb.structured
from tpb.structured import _stage_one, check_quarter_claims, lift
from tpb.coloring import choose_semiregular_targets, regularize
from tpb.instances import serialize_instance, serialize_resolution

from readback import reference_extract


# -- repartition -----------------------------------------------------------------


def check_repartition(H, groups, delta_a):
    total = set()
    for g in groups:
        assert len(g) == delta_a
        vs = set()
        for eid in g:
            e = H.edges[eid]
            assert e.u not in vs and e.v not in vs
            vs.add(e.u)
            vs.add(e.v)
        assert not (g & total)
        total |= g
    assert total == set(H.edges)


def test_repartition_plain_chunking():
    H = gen_random_semiregular(8, 8, 2, 0)
    groups = repartition_matchings(H, konig_decompose(H), 2)
    assert len(groups) == 8
    check_repartition(H, groups, 2)


def test_repartition_with_carry():
    H = gen_random_semiregular(12, 8, 2, 1)
    matchings = konig_decompose(H)
    assert len(matchings) == 3 and all(len(m) == 8 for m in matchings)
    groups = repartition_matchings(H, matchings, 2)
    assert len(groups) == 12
    check_repartition(H, groups, 2)


def test_repartition_single_matching_identity():
    H = DemandGraph.from_pairs(4, 4, [(A(i), B(i)) for i in range(4)])
    matchings = konig_decompose(H)
    assert len(matchings) == 1
    assert repartition_matchings(H, matchings, 4) == [frozenset(H.edges)]


def test_repartition_rejects_large_delta():
    H = gen_random_semiregular(8, 8, 3, 3)
    matchings = konig_decompose(H)
    with pytest.raises(PreconditionError):
        repartition_matchings(H, matchings, 3)  # 4*3 > 8 and 3 does not divide 8


@pytest.mark.parametrize("seed", range(10))
def test_repartition_randomized(seed):
    H = gen_random_semiregular(16, 8, 2, seed)
    groups = repartition_matchings(H, konig_decompose(H), 2)
    check_repartition(H, groups, 2)


def sliced_repartition(H, matchings, delta_a):
    """The groups as `repartition_matchings` once cut them, dropping each group's slice from `avail`."""
    groups, carry = [], []
    for m in matchings:
        avail = sorted(m)
        if carry:
            blocked = {w for eid in carry for w in (H.links[eid].u, H.links[eid].v)}
            picked = []
            for eid in avail:
                if len(picked) == delta_a - len(carry):
                    break
                e = H.links[eid]
                if e.u not in blocked and e.v not in blocked:
                    picked.append(eid)
                    blocked |= {e.u, e.v}
            avail = [eid for eid in avail if eid not in picked]
            groups.append(frozenset(carry + picked))
            carry = []
        while len(avail) >= delta_a:
            groups.append(frozenset(avail[:delta_a]))
            avail = avail[delta_a:]
        carry = avail
    return groups


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_repartition_cuts_the_groups_the_slicing_version_cut(data):
    b = data.draw(st.integers(4, 24), label="b")
    delta_a = data.draw(st.integers(1, b // 4), label="delta_a")
    step = b // gcd(b, delta_a)  # a*delta_a must be a multiple of b, and a >= b
    a = step * data.draw(st.integers(-(-b // step), -(-b // step) + 2), label="a / step")
    H = gen_random_semiregular(a, b, delta_a, data.draw(st.integers(0, 99), label="seed"))
    matchings = konig_decompose(H)
    assert repartition_matchings(H, matchings, delta_a) == sliced_repartition(H, matchings, delta_a)


def test_repartition_keeps_the_sliced_groups_across_a_carry():
    # b = 9 is not a multiple of delta_a = 2, so every matching leaves or fills a carry
    H = gen_random_semiregular(9, 9, 2, 4)
    matchings = konig_decompose(H)
    groups = repartition_matchings(H, matchings, 2)
    assert groups == sliced_repartition(H, matchings, 2)
    assert sum(len(g & m) == 1 for g in groups for m in matchings) == 2  # the one mixed group
    check_repartition(H, groups, 2)


# -- blocked -----------------------------------------------------------------------


def test_blocked_identity_matching_n3():
    D = DemandGraph.from_pairs(3, 3, [(A(i), B(i)) for i in range(3)])
    res = solve_blocked(D, (1, 1, 1))
    assert verify_resolution(D, res) == []


def test_blocked_parallel_pairs_n6():
    pairs = [(A(0), B(0))] * 2 + [(A(2), B(2))] * 2 + [(A(4), B(4))] * 2
    D = DemandGraph.from_pairs(6, 6, pairs)
    res = solve_blocked(D, (2, 2, 2))
    assert verify_resolution(D, res) == []
    v = decide(D, SearchBudget(10_000_000, 60_000))
    assert v.status == RESOLVABLE


def test_blocked_full_regular_blocks_n9():
    D = gen_random_blocked(9, (3, 3, 3), 4)
    res = solve_blocked(D, (3, 3, 3))
    assert verify_resolution(D, res) == []


def test_blocked_three_regular_blocks_n9():
    # every block a complete 3x3 bipartite graph: 3-regular, saturating the bound
    pairs = [
        (A(3 * k + i), B(3 * k + j))
        for k in range(3)
        for i in range(3)
        for j in range(3)
    ]
    D = DemandGraph.from_pairs(9, 9, pairs)
    assert D.max_degree() == 3
    res = solve_blocked(D, (3, 3, 3))
    assert verify_resolution(D, res) == []


def test_blocked_rejects_cross_block_edge():
    D = DemandGraph.from_pairs(6, 6, [(A(0), B(3))])
    with pytest.raises(PreconditionError):
        solve_blocked(D, (2, 2, 2))


def test_blocked_rejects_high_degree():
    D = DemandGraph.from_pairs(6, 6, [(A(0), B(0))] * 3)
    with pytest.raises(PreconditionError):
        solve_blocked(D, (2, 2, 2))


def test_blocked_unequal_blocks_sparse():
    D = gen_random_blocked(7, (3, 2, 2), 1)
    res = solve_blocked(D, (3, 2, 2))
    assert verify_resolution(D, res) == []


def test_block_partition_validation():
    D = DemandGraph.from_pairs(6, 6, [(A(0), B(0))])
    for sizes in ((4, 1, 1), (2, 2, 1), (2, 2, 3), (3, 3), (2, 2, 2, 0)):
        with pytest.raises(PreconditionError):
            solve_blocked(D, sizes)


# -- quarter ------------------------------------------------------------------------


def test_quarter_perfect_matching():
    D = DemandGraph.from_pairs(8, 8, [(A(i), B(i)) for i in range(8)])
    res = solve_quarter(D)
    assert res is not None
    assert verify_resolution(D, res) == []


def test_quarter_empty():
    assert solve_quarter(DemandGraph.empty(4, 4)).routes == {}


@pytest.mark.parametrize("seed", range(8))
def test_quarter_square_semiregular(seed):
    D = gen_random_semiregular(24, 24, 4, seed)
    res = solve_quarter(D)
    assert res is not None
    assert verify_resolution(D, res) == []


def test_quarter_rectangular():
    D = gen_random_semiregular(24, 12, 2, 9)
    res = solve_quarter(D)
    assert res is not None
    assert verify_resolution(D, res) == []


def test_quarter_wide_rectangular():
    # strongly unbalanced classes: delta_b ends up five times delta_a
    D = gen_random_semiregular(60, 12, 2, 21)
    res = solve_quarter(D)
    assert res is not None
    assert verify_resolution(D, res) == []


def test_quarter_swaps_classes_when_b_exceeds_a():
    D = gen_random_semiregular(24, 12, 2, 2).transpose()
    assert D.a < D.b
    res = solve_quarter(D)
    assert res is not None
    assert verify_resolution(D, res) == []


def test_quarter_declines_above_quarter_degree():
    # a=b=8 with delta 3: 4*3 > 8, outside even the attempt regime
    D = gen_random_semiregular(8, 8, 3, 0)
    with pytest.raises(PreconditionError, match="degree-bounded solver could not resolve") as exc:
        solve_quarter(D)
    assert str(exc.value).endswith(": class-A degree 3 exceeds b/4 = 2")


def test_quarter_gives_up_when_the_list_coloring_fails():
    # within the b/4 attempt regime, but the bounded list coloring gives up
    D = gen_random_semiregular(24, 24, 6, 10)
    with pytest.raises(PreconditionError, match="degree-bounded solver could not resolve") as exc:
        solve_quarter(D)
    assert str(exc.value).endswith(": the list coloring gave up within 1000 nodes")


def quarter_stage_one(D):
    """The semiregular padding of D, the class-A degree and the moves of `solve_quarter`'s first stage."""
    ta, tb = choose_semiregular_targets(D)
    reg = regularize(D, ta, tb)
    groups = repartition_matchings(reg, konig_decompose(reg), ta)
    return reg, ta, [(eid, i) for i, group in enumerate(groups) for eid in sorted(group)]  # onto A_i


def within_and_cross(G):
    """G's within-class edges as a graph, and the (A, B) slot pair of each cross edge."""
    within = {eid: e for eid, e in G.links.items() if (e.u < G.a) == (e.v < G.a)}
    cross = [e.pair() for e in G.links.values() if (e.u < G.a) != (e.v < G.a)]
    return DemandGraph(G.a, G.b, within, G.next_fresh_id), cross


def test_quarter_intermediate_claims():
    # stage the pipeline by hand and re-derive the lifted-graph facts
    D = gen_random_semiregular(24, 24, 4, 17)
    reg, ta, moves = quarter_stage_one(D)
    assert ta == 4
    G = lift(reg, moves)
    excluded = check_quarter_claims(*within_and_cross(G), ta)  # raises on any violated claim
    cross_pairs = set()
    to_b = [0] * G.a
    within_deg = {}
    within_mult = {}
    for e in G.edges.values():
        if e.u.side == e.v.side:
            key = e.pair()
            within_mult[key] = within_mult.get(key, 0) + 1
            within_deg[e.u] = within_deg.get(e.u, 0) + 1
            within_deg[e.v] = within_deg.get(e.v, 0) + 1
        else:
            assert e.pair() not in cross_pairs
            cross_pairs.add(e.pair())
            i = e.u.index if e.u.side == "A" else e.v.index
            to_b[i] += 1
    assert all(c == ta for c in to_b)
    assert all(c <= 2 for c in within_mult.values())
    assert all(d <= 2 * ta for d in within_deg.values())
    within = [eid for eid, e in G.edges.items() if e.u.side == e.v.side]
    assert sorted(excluded) == sorted(within)
    assert all(X.bit_count() <= 2 * ta for X in excluded.values())
    # an edge's mask has bit j for each B(j) next to either of its ends
    nb = [0] * G.a
    for x, y in cross_pairs:
        nb[x.index] |= 1 << y.index
    assert all(excluded[eid] == nb[G.edges[eid].u.index] | nb[G.edges[eid].v.index] for eid in within)


# -- pinned outputs and lift batching ------------------------------------------------


def outputs_digest(results):
    h = hashlib.sha256()
    for res in results:
        text = serialize_resolution(res) if res is not None else serialize_resolution(None, "UNSOLVED")
        h.update(hashlib.sha256(text.encode()).hexdigest().encode())
    return h.hexdigest()


# gen_random_semiregular(a, b, delta_a, seed) for seeds 0..7; (16, 32) is
# solved through the transposed (32, 16) instance
QUARTER_DIGESTS = {
    (16, 16, 2): "47dbe1a5fb39ebf81c98a6d8445c71ed7a4d5fd4234d84553d80d9f6e13e7ac1",
    (32, 32, 4): "5087248b9ffae7a5abf8ddd8cfe290d499e79dabe052ca6d1e2567eb981666a4",
    (64, 64, 8): "fe5c7719862aacd0f8c37fe84925b8fe04cda70be1e31fc1f78ce587614df146",
    (16, 32, 4): "1a3481ddf2d80073251981da15ab79e8d0b64d1beb103ff8c8c707298738d468",
    # the greedy coloring backtracks on seeds 3 and 4 here
    (48, 48, 12): "a947359cb4a82a10aecf6288aadd63057ed9e46803d98732cb6f1bbb545c79eb",
}

# gen_random_blocked(n, (n/3, n/3, n/3), seed) for seeds 0..7
BLOCKED_DIGESTS = {
    12: "5abb94a979d7d6194f3bb49ed7ef00961ec267489c0218d425fb4a1a404b069c",
    24: "2d79350a0a43a448ddcca95af06ca34a5c7b1f94976da1de57d4fa660c920174",
    48: "cbaf0a4ff9c1178caa554cbaa4b2138a7638e41db9328dd8f836638e923dcf87",
}


# gen_random_blocked(n, sizes, seed) for seeds 0..7 on unequal blocks, which
# the construction does not cover: n = 11 fails on seeds 1, 3, 5 and n = 14
# on seeds 1, 2, 6, where the larger block needs more colors than lift targets
UNEQUAL_BLOCKED_DIGESTS = {
    (7, (3, 2, 2)): "a82cb46565aa0d1b6d334e129b88dbff832fcb1702edf9366a174b4d38936fe2",
    (10, (4, 3, 3)): "ba3977b2d1b16027c8d0e7017309336bffb0f76532f77417d15cf97410fe2d09",
    (11, (5, 3, 3)): "9a78232af6ea0592e0456e4b6f0bfa65f2db04e2946e6aa3720b609a30d95caf",
    (14, (6, 4, 4)): "7d877d43496dcd07627891ca46da99d2e4dbef61cd8c6afc8486cb87973c25fc",
}


def solve_blocked_or_none(n, sizes, seed):
    try:
        return solve_blocked(gen_random_blocked(n, sizes, seed), sizes)
    except TpbError:
        return None


@pytest.mark.parametrize("args", sorted(QUARTER_DIGESTS))
def test_quarter_outputs_pinned(args):
    results = [solve_quarter(gen_random_semiregular(*args, seed)) for seed in range(8)]
    assert outputs_digest(results) == QUARTER_DIGESTS[args]


@pytest.mark.parametrize("n", sorted(BLOCKED_DIGESTS))
def test_blocked_outputs_pinned(n):
    t = n // 3
    results = [solve_blocked(gen_random_blocked(n, (t, t, t), seed), (t, t, t)) for seed in range(8)]
    assert outputs_digest(results) == BLOCKED_DIGESTS[n]


@pytest.mark.parametrize("n, sizes", sorted(UNEQUAL_BLOCKED_DIGESTS))
def test_blocked_unequal_outputs_pinned(n, sizes):
    results = [solve_blocked_or_none(n, sizes, seed) for seed in range(8)]
    assert outputs_digest(results) == UNEQUAL_BLOCKED_DIGESTS[n, sizes]


@pytest.fixture
def graph_copies(monkeypatch):
    calls = []
    real_lift, real_induced = tpb.structured.lift, DemandGraph.induced

    def lifting(G, moves):
        calls.append("lift")
        return real_lift(G, moves)

    def inducing(G, keep):
        calls.append("induced")
        return real_induced(G, keep)

    monkeypatch.setattr(tpb.structured, "lift", lifting)
    monkeypatch.setattr(DemandGraph, "induced", inducing)
    return calls


# stage 1's within-class pieces are made from its moves and stage 2 is read
# off the colouring, so neither stage copies the graph
def test_quarter_builds_no_lifted_or_induced_graph(graph_copies):
    D = gen_random_semiregular(32, 32, 4, 3)
    assert verify_resolution(D, solve_quarter(D)) == []
    assert graph_copies == []


def test_blocked_builds_no_lifted_or_induced_graph(graph_copies):
    D = gen_random_blocked(24, (8, 8, 8), 3)
    assert verify_resolution(D, solve_blocked(D, (8, 8, 8))) == []
    assert graph_copies == []


def with_one_label(D):
    # a valid graph whose labels all repeat, as in `induced` of a lifted graph
    return DemandGraph(D.a, D.b, {eid: e._replace(label=0) for eid, e in D.links.items()}, D.next_fresh_id)


def mixed_orders(D):
    # the same demands with every other pair given class B first
    return DemandGraph.from_pairs(
        D.a, D.b, [(e.u, e.v) if e.id % 2 else (e.v, e.u) for e in D.edges.values()]
    )


@pytest.mark.parametrize("labels", [lambda D: D, with_one_label], ids=["own-labels", "one-label"])
@pytest.mark.parametrize("order", [lambda D: D, mixed_orders], ids=["a-first", "mixed"])
@pytest.mark.parametrize("a, b, delta_a", [(16, 16, 2), (24, 12, 2)])
def test_stage_one_pieces_are_the_lifted_graphs_edges(a, b, delta_a, order, labels):
    reg, _, moves = quarter_stage_one(labels(order(gen_random_semiregular(a, b, delta_a, 1))))
    # moves onto an edge's own A end change nothing and use up no id
    stays = sum(z in (reg.links[eid].u, reg.links[eid].v) for eid, z in moves)
    assert 0 < stays < len(moves)
    within, cross = _stage_one(reg, moves)
    lifted_within, lifted_cross = within_and_cross(lift(reg, moves))
    assert within.next_fresh_id == lifted_within.next_fresh_id == reg.next_fresh_id + 2 * (len(moves) - stays)
    assert {eid: e[2:] for eid, e in within.links.items()} == {eid: e[2:] for eid, e in lifted_within.links.items()}
    assert list(within.links) == sorted(within.links)
    # each piece names its source edge, whose own label `lift` passes on
    assert all(reg.links[e.label].label == lifted_within.links[eid].label for eid, e in within.links.items())
    target = dict(moves)
    assert all({e.u, e.v} == {min(reg.links[e.label].pair()), target[e.label]} for e in within.links.values())
    assert Counter(cross) == Counter(lifted_cross)


# -- routes composed from the two stages ---------------------------------------------


@pytest.fixture
def stages(monkeypatch):
    """Record every stage-1 input graph and its moves, and every stage-2 colouring of a solve."""
    seen = {"stage_one": [], "cols": []}
    real_stage_one = tpb.structured._stage_one
    names = ("vizing_color", "greedy_list_color")
    real_colorings = {name: getattr(tpb.structured, name) for name in names}

    def staging(H, moves):
        seen["stage_one"].append((H, list(moves)))
        return real_stage_one(H, moves)

    def recording(real):
        def color(*args, **kwargs):
            seen["cols"].append(real(*args, **kwargs))
            return seen["cols"][-1]
        return color

    monkeypatch.setattr(tpb.structured, "_stage_one", staging)
    for name, real in real_colorings.items():
        monkeypatch.setattr(tpb.structured, name, recording(real))
    return seen


def lifted_stage_one(seen):
    """The stage-1 graph: every recorded input edge, with one `lift` of every recorded move in order."""
    (first, _), *_ = seen["stage_one"]
    links = {eid: e for H, _ in seen["stage_one"] for eid, e in H.links.items()}
    moves = [move for _, ms in seen["stage_one"] for move in ms]
    return lift(DemandGraph(first.a, first.b, links, first.next_fresh_id), moves)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, sizes", [(12, (4, 4, 4)), (24, (8, 8, 8)), (7, (3, 2, 2))])
@pytest.mark.parametrize("order", [lambda D: D, mixed_orders], ids=["a-first", "mixed"])
def test_blocked_routes_equal_extraction_after_a_second_lift(stages, seed, n, sizes, order):
    D = order(gen_random_blocked(n, sizes, seed))
    res = solve_blocked(D, sizes)
    starts = (0, sizes[0], sizes[0] + sizes[1], n)
    blocks = [range(starts[k], starts[k + 1]) for k in range(3)]
    moves = []
    for k, col in enumerate(stages["cols"]):
        targets = [n + j for j in blocks[(k + 1) % 3]] + [n + j for j in blocks[(k + 2) % 3]]
        moves += ((eid, targets[c]) for eid, c in sorted(col.items(), key=lambda ec: (ec[1], ec[0])))
    assert res.routes == reference_extract(lift(lifted_stage_one(stages), moves), D)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("a, b, delta_a", [(16, 16, 2), (24, 12, 2), (16, 32, 4), (32, 32, 4)])
@pytest.mark.parametrize("order", [lambda D: D, mixed_orders], ids=["a-first", "mixed"])
def test_quarter_routes_equal_extraction_after_a_second_lift(stages, seed, a, b, delta_a, order):
    D = order(gen_random_semiregular(a, b, delta_a, seed))
    res = solve_quarter(D)
    (col,) = stages["cols"]
    final = lift(lifted_stage_one(stages), sorted(col.items()))
    assert res.routes == reference_extract(final if a >= b else final.transpose(), D)


def test_structured_solvers_key_lift_targets_by_edge_id():
    D = gen_random_semiregular(16, 16, 2, 0)
    assert solve_quarter(with_one_label(D)).routes == solve_quarter(D).routes
    D = gen_random_blocked(12, (4, 4, 4), 1)
    assert solve_blocked(with_one_label(D), (4, 4, 4)).routes == solve_blocked(D, (4, 4, 4)).routes


def test_structured_solvers_audit_their_routes(monkeypatch, tmp_path, capsys):
    # every within-class edge onto the same class-B vertex: routes share base edges
    monkeypatch.setattr(tpb.structured, "vizing_color", lambda H: dict.fromkeys(H.links, 0))
    monkeypatch.setattr(
        tpb.structured, "greedy_list_color", lambda H, palette, *_, **__: dict.fromkeys(H.links, palette[0])
    )
    blocked = gen_random_blocked(24, (8, 8, 8), 3)
    quarter = gen_random_semiregular(32, 32, 4, 3)
    with pytest.raises(StructuralError, match="solver produced an invalid resolution: .*used by routes"):
        solve_blocked(blocked, (8, 8, 8))
    with pytest.raises(StructuralError, match="solver produced an invalid resolution: .*used by routes"):
        solve_quarter(quarter)
    for D, algo in ((blocked, ("blocked", "--blocks", "8,8,8")), (quarter, ("quarter",))):
        inst = tmp_path / "audit.tpb"
        inst.write_text(serialize_instance(D))
        assert tpb.cli.main(["solve", "--in", str(inst), "--algo", *algo]) == 1
        assert capsys.readouterr().err.startswith("error: solver produced an invalid resolution: ")
