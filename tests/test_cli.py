"""Command-line interface: exit codes, files, reproducibility."""
from tpb.cli import main
from tpb.instances import parse_instance, parse_resolution


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
    bad.write_text("p tpb x 2 3\n")
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


def test_solve_writes_status_file_when_unsolved(tmp_path):
    inst = tmp_path / "se5.tpb"
    sol = tmp_path / "se5.sol"
    run("gen", "--family", "sharp-edge", "--n", "5", "--out", str(inst))
    assert run("solve", "--in", str(inst), "--algo", "oracle", "--out", str(sol)) == 1
    status, res = parse_resolution(sol.read_text())
    assert status == "UNSOLVED" and res is None


def test_unknown_budget_exit_code(tmp_path, capsys):
    inst = tmp_path / "se5.tpb"
    run("gen", "--family", "sharp-edge", "--n", "5", "--out", str(inst))
    # 1 ms wall clock cannot finish the n=5 proof
    code = run(
        "solve", "--in", str(inst), "--algo", "oracle", "--timeout-ms", "1"
    )
    assert code in (1, 3)  # fast machines may still finish the refutation
