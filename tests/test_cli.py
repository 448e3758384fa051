"""Command-line interface: exit codes, files, reproducibility."""
import hashlib
import time
from collections import Counter

import pytest

import tpb.cli
import tpb.demand
import tpb.edge_solver
import tpb.instances
import tpb.structured
from tpb import A, B, DemandGraph, Path, PreconditionError, Resolution, verify_resolution
from tpb.cli import main
from tpb.instances import parse_instance, parse_resolution, serialize_resolution


def run(*argv):
    return main(list(argv))


def test_gen_solve_verify_chain(tmp_path, capsys):
    inst = tmp_path / "chain.tpb"
    sol = tmp_path / "chain.sol"
    assert run("gen", "--family", "chain", "--n", "6", "--out", str(inst)) == 0
    assert (
        run("solve", "--in", str(inst), "--algo", "edge", "--out", str(sol)) == 0
    )
    out = capsys.readouterr().out
    assert "outcome: solved" in out
    assert "2.2.3" in out
    assert run("verify", "--in", str(inst), "--resolution", str(sol)) == 0


def test_solve_verifies_each_resolution_once(tmp_path, monkeypatch, capsys):
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(tpb.demand, "verify_routes", counting("routes", tpb.demand.verify_routes))
    monkeypatch.setattr(tpb.cli, "verify_resolution", counting("resolution", tpb.cli.verify_resolution))
    inst = tmp_path / "solve.tpb"
    # the constructive solvers check their slot routes once, in
    # `checked_resolution`, and the command not again
    for gen, algo in (
        (("--family", "chain", "--n", "6"), ("edge",)),
        (("--family", "random-blocked", "--n", "12"), ("blocked", "--blocks", "4,4,4")),
        (("--family", "random-semiregular", "--n", "16", "--delta-a", "2"), ("quarter",)),
    ):
        assert run("gen", *gen, "--out", str(inst)) == 0
        calls.clear()
        assert run("solve", "--in", str(inst), "--algo", *algo) == 0
        assert calls == {"routes": 1}, algo
    # the oracle's resolution is verified by the command, through `verify_routes`
    assert run("gen", "--family", "chain", "--n", "6", "--out", str(inst)) == 0
    calls.clear()
    assert run("solve", "--in", str(inst), "--algo", "oracle") == 0
    assert calls == {"resolution": 1, "routes": 1}


def test_solve_builds_no_path(tmp_path, monkeypatch, capsys):
    # a constructive solver's routes stay on slots from the solver to the
    # file; the V paths are built only when a caller reads `routes`
    built = Counter()
    real_new = Path.__new__

    def counting_new(cls, *args):
        built["path"] += 1
        return real_new(cls, *args)

    solved = []

    def keeping(real):
        def wrapper(*args):
            result = real(*args)
            solved.append(result[0] if isinstance(result, tuple) else result)
            return result
        return wrapper

    for name in ("solve_edge_version", "solve_blocked", "solve_quarter"):
        monkeypatch.setattr(tpb.cli, name, keeping(getattr(tpb.cli, name)))
    monkeypatch.setattr(Path, "__new__", counting_new)
    inst = tmp_path / "solve.tpb"
    sol = tmp_path / "solve.sol"
    for gen, algo in (
        (("--family", "random-edge", "--n", "8"), ("edge",)),  # ends in the oracle's base case
        (("--family", "random-blocked", "--n", "12"), ("blocked", "--blocks", "4,4,4")),
        (("--family", "random-semiregular", "--n", "16", "--delta-a", "2"), ("quarter",)),
    ):
        assert run("gen", *gen, "--out", str(inst)) == 0
        built.clear()
        solved.clear()
        assert run("solve", "--in", str(inst), "--algo", *algo, "--out", str(sol)) == 0
        assert built["path"] == 0, algo
        [res] = solved
        D = parse_instance(inst.read_text())
        assert res.routes == {eid: Path(tuple(map(D.vertex, route))) for eid, route in res.slots.items()}
        assert res.routes == parse_resolution(sol.read_text())[1].routes  # the file's routes start in class A too
        assert verify_resolution(D, res) == []
        assert sol.read_text() == serialize_resolution(res) == serialize_resolution(Resolution(dict(res.routes)))
    # a graph listed B-first gets routes that start in class B, which the file reverses
    D = DemandGraph.from_pairs(8, 8, [(B(j), A(i)) for i, j in [(0, 1), (0, 1), (2, 3), (4, 2), (5, 5)]])
    for res in (tpb.edge_solver.solve_edge_version(D)[0], tpb.structured.solve_quarter(D)):
        assert all(route[0] >= D.a for route in res.slots.values())
        text = serialize_resolution(res)
        assert text == serialize_resolution(Resolution(dict(res.routes)))
        assert all(line.split()[3].startswith("a") for line in text.splitlines()[1:])


def test_quarter_declines_padding_beyond_the_demand_limit(tmp_path, capsys):
    # a*Δ_A = 8000 * 1000 padded demands exceed MAX_DEMANDS, so the solver
    # declines before it pads
    inst = tmp_path / "wide.tpb"
    inst.write_text("p tpb 8000 4000 1000\n" + "".join(f"e 1 {j}\n" for j in range(1, 1001)))
    started = time.monotonic()
    assert run("solve", "--in", str(inst), "--algo", "quarter") == 1
    assert time.monotonic() - started < 5
    assert capsys.readouterr().out.endswith(
        "detail: degree-bounded solver could not resolve the instance: "
        "padding to 8000000 demands exceeds the limit of 1000000\n"
    )
    with pytest.raises(PreconditionError, match="padding to 8000000 demands"):
        tpb.structured.solve_quarter(parse_instance(inst.read_text()))


def test_blocked_declines_padding_beyond_the_demand_limit(tmp_path, capsys):
    # n*floor(n/3) = 1800 * 600 padded demands exceed MAX_DEMANDS, so the
    # solver declines before it pads
    inst = tmp_path / "wide.tpb"
    inst.write_text("p tpb 1800 1800 1\ne 1 1\n")
    started = time.monotonic()
    assert run("solve", "--in", str(inst), "--algo", "blocked", "--blocks", "600,600,600") == 1
    assert time.monotonic() - started < 1
    assert capsys.readouterr().out.endswith("detail: padding to 1080000 demands exceeds the limit of 1000000\n")
    with pytest.raises(PreconditionError, match="padding to 1080000 demands"):
        tpb.structured.solve_blocked(parse_instance(inst.read_text()), (600, 600, 600))


def test_quarter_with_over_a_thousand_within_class_edges(tmp_path, capsys):
    inst = tmp_path / "q96.tpb"
    sol = tmp_path / "q96.sol"
    gen = ("--family", "random-semiregular", "--a", "96", "--b", "96", "--delta-a", "12")
    assert run("gen", *gen, "--seed", "1", "--out", str(inst)) == 0
    assert run("solve", "--in", str(inst), "--algo", "quarter", "--out", str(sol)) == 0
    capsys.readouterr()
    assert run("verify", "--in", str(inst), "--resolution", str(sol)) == 0
    assert capsys.readouterr().out == "valid\n"


def test_oracle_on_sharp_edge(tmp_path, capsys):
    inst = tmp_path / "se4.tpb"
    assert run("gen", "--family", "sharp-edge", "--n", "4", "--out", str(inst)) == 0
    D = parse_instance(inst.read_text())
    assert D.m == 7
    assert run("solve", "--in", str(inst), "--algo", "oracle") == 1
    assert "unresolvable" in capsys.readouterr().out


def test_malformed_header_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.tpb"
    for text in ("p tpb x 2 3\n", "p tpb 1_0 2 1\ne 1 1\n", "p tpb \u0661 2 1\ne 1 1\n"):
        bad.write_text(text, encoding="utf-8")
        assert run("solve", "--in", str(bad)) == 2
        assert "line 1" in capsys.readouterr().err


def test_verify_flags_duplicate_use(tmp_path, capsys):
    inst = tmp_path / "two.tpb"
    inst.write_text("p tpb 2 2 2\ne 1 1 2\n")
    sol = tmp_path / "two.sol"
    sol.write_text("s SOLVED\nr 0 1 a1 b1\nr 1 1 a1 b1\n")
    assert run("verify", "--in", str(inst), "--resolution", str(sol)) == 1
    assert "used by routes" in capsys.readouterr().out


def test_verify_flags_unknown_ids(tmp_path, capsys):
    inst = tmp_path / "one.tpb"
    inst.write_text("p tpb 2 2 1\ne 1 1\n")
    sol = tmp_path / "one.sol"
    sol.write_text("s SOLVED\nr 5 1 a1 b1\n")
    assert run("verify", "--in", str(inst), "--resolution", str(sol)) == 1


def test_gen_is_reproducible(tmp_path):
    f1 = tmp_path / "a.tpb"
    f2 = tmp_path / "b.tpb"
    for f in (f1, f2):
        assert (
            run(
                "gen",
                "--family",
                "random-edge",
                "--n",
                "8",
                "--seed",
                "9",
                "--out",
                str(f),
            )
            == 0
        )
    assert f1.read_bytes() == f2.read_bytes()


def test_auto_falls_back_to_oracle(tmp_path, capsys):
    inst = tmp_path / "se4.tpb"
    run("gen", "--family", "sharp-edge", "--n", "4", "--out", str(inst))
    assert run("solve", "--in", str(inst), "--algo", "auto") == 1
    out = capsys.readouterr().out
    assert "algorithm: oracle" in out


def test_blocked_via_flags(tmp_path, capsys):
    inst = tmp_path / "b9.tpb"
    sol = tmp_path / "b9.sol"
    assert (
        run(
            "gen",
            "--family",
            "random-blocked",
            "--n",
            "9",
            "--blocks",
            "3,3,3",
            "--seed",
            "4",
            "--out",
            str(inst),
        )
        == 0
    )
    assert (
        run(
            "solve",
            "--in",
            str(inst),
            "--algo",
            "blocked",
            "--blocks",
            "3,3,3",
            "--out",
            str(sol),
        )
        == 0
    )
    assert run("verify", "--in", str(inst), "--resolution", str(sol)) == 0


@pytest.fixture
def unequal_blocked(tmp_path):
    # the default blocks for n = 11 are 5,3,3; block 1 needs 7 colors, 6 targets exist
    inst = tmp_path / "b11.tpb"
    assert run("gen", "--family", "random-blocked", "--n", "11", "--seed", "8", "--out", str(inst)) == 0
    return inst


def test_auto_passes_unequal_blocks_on_to_the_oracle(unequal_blocked, tmp_path, capsys):
    sol = tmp_path / "b11.sol"
    assert run("solve", "--in", str(unequal_blocked), "--blocks", "5,3,3", "--out", str(sol)) == 0
    assert "algorithm: oracle" in capsys.readouterr().out
    assert run("verify", "--in", str(unequal_blocked), "--resolution", str(sol)) == 0


def test_blocked_on_unequal_blocks_reports_unsolved(unequal_blocked, capsys):
    assert run("solve", "--in", str(unequal_blocked), "--algo", "blocked", "--blocks", "5,3,3") == 1
    captured = capsys.readouterr()
    assert "outcome: unsolved" in captured.out
    assert "7 colors but only 6 lift targets" in captured.out
    assert captured.err == ""


def test_solve_writes_status_file_when_unsolved(tmp_path):
    inst = tmp_path / "se5.tpb"
    sol = tmp_path / "se5.sol"
    run("gen", "--family", "sharp-edge", "--n", "5", "--out", str(inst))
    assert run("solve", "--in", str(inst), "--algo", "oracle", "--out", str(sol)) == 1
    status, res = parse_resolution(sol.read_text())
    assert status == "UNSOLVED" and res is None


def test_unknown_budget_exit_code(tmp_path, capsys):
    # 8 disjoint pairs with 3 parallel demands each: UNKNOWN after 50 k
    # nodes, while the clock is read every 1024 search steps
    inst = tmp_path / "t8.tpb"
    inst.write_text("p tpb 8 8 24\n" + "".join(f"e {i} {i} 3\n" for i in range(1, 9)))
    code = run(
        "solve", "--in", str(inst), "--algo", "oracle", "--timeout-ms", "1"
    )
    assert code == 3


def test_timeout_below_one_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "c6.tpb"
    run("gen", "--family", "chain", "--n", "6", "--out", str(inst))
    for value in ("0", "-5"):
        assert run("solve", "--in", str(inst), "--timeout-ms", value) == 2
        assert "--timeout-ms" in capsys.readouterr().err


def test_gen_without_n_is_usage_error(capsys):
    for family in ("sharp-conj", "sharp-edge", "chain", "random-edge", "random-blocked"):
        assert run("gen", "--family", family) == 2
        assert capsys.readouterr().err == f"error: --n is required for --family {family}\n"
    assert run("gen", "--family", "random-semiregular", "--a", "8", "--delta-a", "2") == 2
    assert "--n is required" in capsys.readouterr().err
    assert run("gen", "--family", "random-semiregular", "--a", "8", "--b", "8", "--delta-a", "2") == 0


@pytest.mark.parametrize(
    "args",
    [
        ("random-edge", "--n", "0"),
        ("random-edge", "--n", "-1"),
        ("random-blocked", "--n", "0"),
        ("random-blocked", "--n", "-1"),
        ("random-semiregular", "--n", "0"),
        ("random-semiregular", "--n", "8", "--delta-a", "-1"),
        ("random-semiregular", "--n", "4", "--a", "0", "--b", "4"),
        # more demands than base edges: no instance file may hold them
        ("sharp-conj", "--n", "1"),
        ("random-semiregular", "--n", "2", "--delta-a", "3"),
    ],
)
def test_gen_out_of_range_size_is_usage_error(args, capsys):
    assert run("gen", "--family", *args) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_gen_beyond_the_demand_limit_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tpb.instances, "MAX_DEMANDS", 5)
    out = tmp_path / "f"
    assert run("gen", "--family", "chain", "--n", "6", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unwritable_or_missing_file_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "c6.tpb"
    missing = str(tmp_path / "missing" / "x")
    assert run("gen", "--family", "chain", "--n", "6", "--out", str(inst)) == 0
    for argv in (
        ("gen", "--family", "chain", "--n", "6", "--out", missing),
        ("solve", "--in", str(inst), "--out", missing),
        ("verify", "--in", str(inst), "--resolution", missing),
    ):
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_oversized_multiplicity_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "big.tpb"
    # a header may not declare more demands than K_{4,4} has edges, nor
    # more than the format's limit of a million, nor more than a million
    # vertices per class
    for text, line in (
        ("p tpb 4 4 1\ne 1 1 99999999999", 2),
        ("p tpb 4 4 99999999999\ne 1 1 99999999999", 1),
        ("p tpb 1000000 1000000 999999999999\ne 1 1 999999999999", 1),
        ("p tpb 100000000000 100000000000 1\ne 1 1", 1),
    ):
        inst.write_text(text)
        assert run("solve", "--in", str(inst)) == 2
        assert capsys.readouterr().err.startswith(f"parse error: line {line}:")


def test_edge_on_a_wide_header_with_one_demand(tmp_path, capsys):
    # the solvers allocate for every vertex of the header, not only for
    # the two that carry the demand
    inst = tmp_path / "wide.tpb"
    sol = tmp_path / "wide.sol"
    inst.write_text("p tpb 200000 200000 1\ne 1 1\n")
    assert run("solve", "--in", str(inst), "--algo", "edge", "--out", str(sol)) == 0
    status, res = parse_resolution(sol.read_text())
    assert status == "SOLVED" and len(res.routes) == 1


def test_edge_solve_whose_composed_walk_revisits_a_vertex(tmp_path, monkeypatch, capsys):
    # Case 3.2.1's plain-neighbour lift leaves demand 2 (A2-B3, 0-based)
    # with the alive piece A1-B3 after the frozen pieces A2-B2-A1; the base
    # case routes A1-B3 as A1-B1-A2-B3, so the composed walk revisits its
    # own terminal A2 and is the one walk that needs the shortcut.
    calls = []
    real = tpb.demand._shortcut_walk

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tpb.demand, "_shortcut_walk", counting)
    inst = tmp_path / "revisit.tpb"
    sol = tmp_path / "revisit.sol"
    pairs = ("1 1 1", "1 4 1", "3 4 1", "3 5 1", "4 4 2", "5 2 1", "5 4 1", "6 1 1", "6 4 1")
    inst.write_text("p tpb 6 6 10\n" + "".join(f"e {p}\n" for p in pairs))
    assert run("solve", "--in", str(inst), "--algo", "edge", "--out", str(sol)) == 0
    assert "case-trace: 6:3.2.1 5:base\n" in capsys.readouterr().out
    assert "r 2 1 a3 b4\n" in sol.read_text()
    assert run("verify", "--in", str(inst), "--resolution", str(sol)) == 0
    assert capsys.readouterr().out == "valid\n"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "pairs,trace,digest",
    [
        # |Y| = 4 without all four corners: the doubled pairing a1-b1, a2-b2
        (("1 1 5", "2 2 5"), "6:1.1 4:base", "5bc74606136daf405a1fc704e02378f70d23e69f8b9c941e4bb2150a7bc07c12"),
        # the other pairing, a1-b2, a2-b1
        (("1 2 5", "2 1 5"), "6:1.1 4:base", "7a0c6e3746b1ba1c19e9d67fc8104bb29c90e88fe9f091ba666baae3a58c4091"),
        # |Y| = 2 in class A: a2's edge to b1 is skipped once a1 has capped b1
        (
            ("1 1 2", "1 2 1", "1 3 1", "1 4 1", "2 1 1", "2 2 2", "2 3 1", "2 4 1"),
            "6:1.3 4:simple",
            "856505c6f7dc35c84cd112dd74dcff765baf63b9896c5e3984ea682bacb3d154",
        ),
    ],
)
def test_case1_covers_pinned(pairs, trace, digest, tmp_path, capsys):
    inst = tmp_path / "case1.tpb"
    sol = tmp_path / "case1.sol"
    inst.write_text("p tpb 6 6 10\n" + "".join(f"e {p}\n" for p in pairs))
    assert run("solve", "--in", str(inst), "--algo", "edge", "--out", str(sol)) == 0
    assert f"case-trace: {trace}\n" in capsys.readouterr().out
    assert hashlib.sha256(sol.read_bytes()).hexdigest() == digest


def test_quarter_gives_up_on_the_list_coloring(tmp_path, capsys):
    inst = tmp_path / "q24.tpb"
    gen = ("--family", "random-semiregular", "--n", "24", "--delta-a", "6", "--seed", "22")
    assert run("gen", *gen, "--out", str(inst)) == 0
    assert run("solve", "--in", str(inst), "--algo", "quarter") == 1
    out = capsys.readouterr().out
    assert "outcome: unsolved\n" in out
    assert out.endswith(
        "detail: degree-bounded solver could not resolve the instance: "
        "the list coloring gave up within 1000 nodes\n"
    )


@pytest.mark.parametrize(
    "text,message",
    [
        ("p tpb 2 2 1\np tpb 2 2 1\ne 1 1\n", "line 2: duplicate header"),
        ("p tpb 2 2\n", "line 1: header must read 'p tpb <a> <b> <m>'"),
        ("p tpb 0 2 0\n", "line 1: header values out of range"),
        ("p tpb 2 2 1\ne 1\n", "line 2: edge record must read 'e <i> <j> [mult]'"),
        ("p tpb 2 2 1\ne 1 3\n", "line 2: class-B index 3 out of range 1..2"),
        ("p tpb 2 2 1\ne 1 1 0\n", "line 2: multiplicity must be positive"),
        ("p tpb 2 2 1\nx 1 1\n", "line 2: unrecognized record 'x'"),
    ],
)
def test_instance_parse_errors(text, message, tmp_path, capsys):
    inst = tmp_path / "bad.tpb"
    inst.write_text(text)
    assert run("solve", "--in", str(inst)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"parse error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text,message",
    [
        ("s SOLVED\ns SOLVED\n", "line 2: duplicate status line"),
        ("s SOLVED\nr 0 1\n", "line 2: truncated route record"),
        ("s SOLVED\nr 0 1 x1 b1\n", "line 2: bad vertex token 'x1'"),
        ("s SOLVED\nr 0 1 a1 b1\nr 0 1 a1 b1\n", "line 3: duplicate route for edge 0"),
        ("s SOLVED\nq 1\n", "line 2: unrecognized record 'q'"),
        ("c no status\n", "missing 's' status line"),
    ],
)
def test_resolution_parse_errors(text, message, tmp_path, capsys):
    inst = tmp_path / "one.tpb"
    sol = tmp_path / "bad.sol"
    inst.write_text("p tpb 2 2 1\ne 1 1\n")
    sol.write_text(text)
    assert run("verify", "--in", str(inst), "--resolution", str(sol)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"parse error: {message}\n"
    assert captured.out == ""


def test_verify_of_an_unsolved_file_has_nothing_to_check(tmp_path, capsys):
    inst = tmp_path / "one.tpb"
    sol = tmp_path / "unsolved.sol"
    inst.write_text("p tpb 2 2 1\ne 1 1\n")
    sol.write_text("s UNSOLVED\n")
    assert run("verify", "--in", str(inst), "--resolution", str(sol)) == 1
    assert capsys.readouterr().out == "resolution file carries status UNSOLVED; nothing to verify\n"


def test_non_utf8_input_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "c6.tpb"
    sol = tmp_path / "c6.sol"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfep tpb 4 4 1\ne 1 1\n")
    assert run("gen", "--family", "chain", "--n", "6", "--out", str(inst)) == 0
    assert run("solve", "--in", str(inst), "--out", str(sol)) == 0
    for argv in (
        ("solve", "--in", str(bad)),
        ("verify", "--in", str(bad), "--resolution", str(sol)),
        ("verify", "--in", str(inst), "--resolution", str(bad)),
    ):
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "not UTF-8" in err


def test_non_ascii_digit_in_route_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "c6.tpb"
    sol = tmp_path / "c6.sol"
    assert run("gen", "--family", "chain", "--n", "6", "--out", str(inst)) == 0
    sol.write_text("s SOLVED\nr 0 1 a\u00b2 b1\n", encoding="utf-8")
    capsys.readouterr()
    assert run("verify", "--in", str(inst), "--resolution", str(sol)) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


@pytest.fixture
def blocked6(tmp_path):
    # default blocks 2,2,2; floor(n/3) = 2
    inst = tmp_path / "b6.tpb"
    assert run("gen", "--family", "random-blocked", "--n", "6", "--seed", "1", "--out", str(inst)) == 0
    return inst


@pytest.mark.parametrize("algo", ["auto", "edge", "blocked", "quarter", "oracle"])
@pytest.mark.parametrize("blocks", ["1,1,1", "0,3,3", "3,-1,4", "2,2", "2,x,2"])
def test_blocks_that_do_not_fit_are_usage_errors(blocked6, algo, blocks, capsys):
    assert run("solve", "--in", str(blocked6), "--algo", algo, "--blocks", blocks) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --blocks")
    assert captured.out == ""


@pytest.mark.parametrize("blocks,code", [("4,1,1", 1), ("2,2,2", 0)])
def test_blocks_that_fit_reach_the_solver(blocked6, blocks, code, capsys):
    # 4,1,1 sums to n but has blocks below floor(n/3): a solver precondition
    assert run("solve", "--in", str(blocked6), "--algo", "blocked", "--blocks", blocks) == code
    captured = capsys.readouterr()
    assert ("outcome: solved" if code == 0 else "outcome: unsolved") in captured.out
    assert captured.err == ""


def test_parser_built_once_keeps_help_and_usage(capsys):
    assert run("--help") == 0
    first = capsys.readouterr().out
    assert first.startswith("usage: tpb")
    assert run("solve") == 2  # --in is required
    assert "usage: tpb solve" in capsys.readouterr().err
    assert run("--help") == 0
    assert capsys.readouterr().out == first
    assert tpb.cli.build_parser() is tpb.cli.build_parser()
