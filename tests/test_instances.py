"""Generators and the instance / resolution text formats."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tpb.instances
from tpb import (
    A,
    B,
    DemandGraph,
    FormatError,
    Path,
    Resolution,
    gen_chain,
    gen_random_blocked,
    gen_random_edge,
    gen_random_semiregular,
    gen_sharp_conjecture,
    gen_sharp_edge,
    parse_instance,
    parse_resolution,
    serialize_instance,
    serialize_resolution,
)


def mult(D):
    return Counter(e.pair() for e in D.edges.values())


# -- extremal families ---------------------------------------------------------


def test_sharp_conjecture_shape():
    D = gen_sharp_conjecture(3)
    assert D.m == 6
    assert all(mult(D)[(A(i), B(i))] == 2 for i in range(3))
    assert gen_sharp_conjecture(1).m == 2
    with pytest.raises(FormatError, match="exceed the 1 edges"):  # K_{1,1} has one edge
        serialize_instance(gen_sharp_conjecture(1))
    D = gen_sharp_conjecture(6)
    assert D.m == 6 * 3


def test_serialize_refuses_more_demands_than_a_file_may_hold(monkeypatch):
    # parse_instance would refuse the file, so it is never written
    monkeypatch.setattr(tpb.instances, "MAX_DEMANDS", 5)
    with pytest.raises(FormatError, match="10 demand edges exceed the limit of 5"):
        serialize_instance(gen_chain(6))


def test_more_vertices_than_a_file_may_hold_are_refused(monkeypatch):
    # both ways: a header past the limit is a parse error, and no such file is written
    monkeypatch.setattr(tpb.instances, "MAX_VERTICES", 5)
    with pytest.raises(FormatError, match="6 vertices in a class exceed the limit of 5"):
        serialize_instance(gen_chain(6))
    with pytest.raises(FormatError, match="line 1: 6 vertices in a class exceed the limit of 5"):
        parse_instance("p tpb 5 6 1\ne 1 1\n")
    assert parse_instance("p tpb 5 5 1\ne 1 1\n").m == 1


def test_sharp_conjecture_counting_bound():
    for n in range(1, 101):
        assert n + 3 * n * (-(-n // 3)) > n * n


def test_sharp_edge_shape():
    for n in (4, 5, 9):
        D = gen_sharp_edge(n)
        assert D.m == 2 * n - 1
        assert D.max_degree() == n
        assert mult(D)[(A(0), B(0))] == n
        assert mult(D)[(A(1), B(1))] == n - 1


def test_chain_shape():
    for n in (4, 7):
        D = gen_chain(n)
        assert D.m == 2 * n - 2
        assert D.max_degree() == 2
        degs = D.degree_map()
        assert degs[D.slot(A(n - 1))] == 0 and degs[D.slot(B(n - 1))] == 0


def test_generators_deterministic():
    a = serialize_instance(gen_random_edge(6, 42))
    b = serialize_instance(gen_random_edge(6, 42))
    assert a == b
    assert gen_random_blocked(6, (2, 2, 2), 7).edges == gen_random_blocked(
        6, (2, 2, 2), 7
    ).edges


def test_random_profiles_in_hypothesis():
    D = gen_random_edge(6, 1)
    assert D.m <= 10 and D.max_degree() <= 6
    D = gen_random_blocked(9, (3, 3, 3), 2)
    assert D.max_degree() <= 3
    for e in D.edges.values():
        i = e.u.index if e.u.side == "A" else e.v.index
        j = e.v.index if e.u.side == "A" else e.u.index
        assert i // 3 == j // 3
    D = gen_random_semiregular(24, 24, 4, 3)
    assert D.degree_map() == [4] * 48


# -- instance format -------------------------------------------------------------


def test_parse_accumulates_multiplicity():
    D = parse_instance("p tpb 2 2 2\ne 1 1 2\n")
    assert mult(D)[(A(0), B(0))] == 2
    D = parse_instance("p tpb 2 2 2\ne 1 1\ne 1 1\n")
    assert mult(D)[(A(0), B(0))] == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_instance("p tpb x 2 3\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_instance("p tpb 2 2 1\ne 3 1\n")
    with pytest.raises(FormatError, match="declares 3"):
        parse_instance("p tpb 2 2 3\ne 1 1 2\n")
    with pytest.raises(FormatError, match="before header"):
        parse_instance("e 1 1\n")
    with pytest.raises(FormatError):
        parse_instance("c only a comment\n")
    # numbers are ASCII digits only: no separator, other script, sign or overlong run
    for text, line in (
        ("p tpb 1_0 2 1\ne 1 1\n", "line 1"),
        ("p tpb 2 2 1\ne \u0661 1\n", "line 2"),
        ("p tpb 2 2 1\ne 1 1 +1\n", "line 2"),
        ("p tpb 2 2 1\ne 1 1 " + "1" * 5000 + "\n", "line 2"),
    ):
        with pytest.raises(FormatError, match=line):
            parse_instance(text)


def test_parse_rejects_edges_beyond_the_header_count_before_expanding():
    # a huge multiplicity must fail at its own line, not after building the pairs
    with pytest.raises(FormatError, match="line 2: edge lines supply more than the 1"):
        parse_instance("p tpb 4 4 1\ne 1 1 99999999999")
    with pytest.raises(FormatError, match="line 3"):
        parse_instance("p tpb 4 4 2\ne 1 1\ne 2 2 2\n")
    # nor may the header declare more demands than the base graph has edges
    for text in ("p tpb 4 4 99999999999\ne 1 1 99999999999", "p tpb 2 2 5\n"):
        with pytest.raises(FormatError, match="line 1: .* exceed the"):
            parse_instance(text)


def test_serialize_canonicalizes():
    text = "c demo\np tpb 2 2 3\ne 2 1\ne 1 1\ne 1 1\n"
    assert serialize_instance(parse_instance(text)) == (
        "p tpb 2 2 3\ne 1 1 2\ne 2 1 1\n"
    )


def test_round_trip_is_identity_on_canonical_form():
    D = gen_sharp_edge(5)
    once = serialize_instance(D)
    assert serialize_instance(parse_instance(once)) == once


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_random(seed):
    D = gen_random_edge(5 + seed % 4, seed)
    once = serialize_instance(D)
    assert serialize_instance(parse_instance(once)) == once


# -- resolution format -------------------------------------------------------------


def test_resolution_round_trip():
    res = Resolution(
        {
            0: Path((A(0), B(1), A(1), B(0))),
            2: Path((A(1), B(1))),
        }
    )
    text = serialize_resolution(res)
    status, back = parse_resolution(text)
    assert status == "SOLVED"
    assert back.routes == res.routes
    assert serialize_resolution(back) == text


def test_resolution_orients_routes_from_class_a():
    res = Resolution({0: Path((B(0), A(0)))})
    text = serialize_resolution(res)
    assert "r 0 1 a1 b1" in text


def test_resolution_status_only_files():
    text = serialize_resolution(None, "UNSOLVED")
    assert text == "s UNSOLVED\n"
    status, res = parse_resolution(text)
    assert status == "UNSOLVED" and res is None


def test_resolution_parse_errors():
    with pytest.raises(FormatError):
        parse_resolution("r 0 1 a1 b1\n")
    with pytest.raises(FormatError, match="alternate"):
        parse_resolution("s SOLVED\nr 0 1 b1 a1\n")
    with pytest.raises(FormatError, match="lists"):
        parse_resolution("s SOLVED\nr 0 2 a1 b1\n")
    with pytest.raises(FormatError):
        parse_resolution("s MAYBE\n")
    for eid in ("1_0", "\u0661", "+0"):
        with pytest.raises(FormatError, match="line 2: non-integer route field"):
            parse_resolution(f"s SOLVED\nr {eid} 1 a1 b1\n")


def test_resolution_rejects_non_ascii_digits():
    # superscript two, Arabic-Indic one, a sign, more digits than int() reads
    for tok in ("a²", "a١", "a+1", "a" + "1" * 5000):
        with pytest.raises(FormatError, match="bad vertex token"):
            parse_resolution(f"s SOLVED\nr 0 1 {tok} b1\n")
