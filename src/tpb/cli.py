"""Command-line front end: solve, verify and generate instances.

Exit codes: 0 solved / verified, 1 unsolved or failed, 2 usage or parse
error, 3 unknown (budget or timeout exhausted).  All flags are
long-form.  The solvers make no random choices, and the instance
generators draw theirs from `gen --seed`, so identical invocations
produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import functools
import sys
import time

from .demand import Resolution, verify_resolution
from .edge_solver import solve_edge_version
from .errors import FormatError, PreconditionError, TpbError
from .instances import (
    SOLVED,
    UNKNOWN_STATUS,
    UNSOLVED,
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
from .oracle import RESOLVABLE, UNRESOLVABLE, SearchBudget, decide
from .structured import solve_blocked, solve_quarter

EXIT_SOLVED = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _parse_blocks(text: str, n: int) -> tuple[int, int, int]:
    """Three block sizes, each positive, that sum to n; otherwise a usage error."""
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise FormatError("--blocks expects three comma-separated integers")
    if len(parts) != 3:
        raise FormatError("--blocks expects exactly three sizes")
    if min(parts) < 1 or sum(parts) != n:
        raise FormatError(f"--blocks sizes must be positive and sum to n = {n}")
    return parts


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})")


def cmd_solve(args) -> int:
    try:
        D = parse_instance(_read_text(args.infile))
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = time.monotonic()
    budget = SearchBudget(max_nodes=10_000_000, max_millis=args.timeout_ms)
    blocks = _parse_blocks(args.blocks, D.a) if args.blocks else None
    res: Resolution | None = None
    outcome = "unsolved"
    detail = ""
    nodes: int | None = None
    trace: list[str] = []

    algos = [args.algo] if args.algo != "auto" else ["edge", "blocked", "quarter", "oracle"]
    for algo in algos:
        try:
            if algo == "edge":
                res, induction = solve_edge_version(D)
                trace = [f"{s.n}:{s.case_tag}" for s in induction.steps]
            elif algo == "blocked":
                if blocks is None:
                    raise PreconditionError("blocked solving needs --blocks")
                res = solve_blocked(D, blocks)
            elif algo == "quarter":
                res = solve_quarter(D)
            else:
                verdict = decide(D, budget)
                nodes = verdict.nodes_explored
                res = verdict.resolution
                if verdict.status == UNRESOLVABLE:
                    detail = "oracle proved the instance unresolvable"
                elif verdict.status != RESOLVABLE:
                    outcome = "unknown"
                    detail = "oracle budget exhausted"
        except PreconditionError as exc:
            detail = str(exc)
        if res is not None or algo == "oracle" or args.algo != "auto":
            break

    millis = int((time.monotonic() - started) * 1000)
    if res is not None:
        # the constructive solvers verify their resolutions themselves
        if algo == "oracle" and verify_resolution(D, res):
            print("internal error: produced resolution fails verification", file=sys.stderr)
            return EXIT_UNSOLVED
        outcome = "solved"
        detail = ""
    print(f"instance: a={D.a} b={D.b} edges={D.m} max-degree={D.max_degree()}")
    print(f"algorithm: {algo}")
    print(f"outcome: {outcome}")
    print(f"time-ms: {millis}")
    if nodes is not None:
        print(f"oracle-nodes: {nodes}")
    if trace:
        print("case-trace: " + " ".join(trace))
    if detail:
        print(f"detail: {detail}")
    if args.out:
        if res is not None:
            text = serialize_resolution(res, SOLVED)
        else:
            text = serialize_resolution(None, UNKNOWN_STATUS if outcome == "unknown" else UNSOLVED)
        with open(args.out, "w") as fh:
            fh.write(text)
    if outcome == "solved":
        return EXIT_SOLVED
    if outcome == "unknown":
        return EXIT_UNKNOWN
    return EXIT_UNSOLVED


def cmd_verify(args) -> int:
    try:
        D = parse_instance(_read_text(args.infile))
        status, res = parse_resolution(_read_text(args.resolution))
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if status != SOLVED or res is None:
        print(f"resolution file carries status {status}; nothing to verify")
        return EXIT_UNSOLVED
    problems = verify_resolution(D, res)
    for p in problems:
        print(p)
    if problems:
        return EXIT_UNSOLVED
    print("valid")
    return EXIT_SOLVED


def cmd_gen(args) -> int:
    fam = args.family
    if args.n is None and (fam != "random-semiregular" or args.a is None or args.b is None):
        print(f"error: --n is required for --family {fam}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if fam == "sharp-conj":
            D = gen_sharp_conjecture(args.n)
        elif fam == "sharp-edge":
            D = gen_sharp_edge(args.n)
        elif fam == "chain":
            D = gen_chain(args.n)
        elif fam == "random-edge":
            D = gen_random_edge(args.n, args.seed)
        elif fam == "random-blocked":
            blocks = _parse_blocks(args.blocks, args.n) if args.blocks else (
                args.n - 2 * (args.n // 3), args.n // 3, args.n // 3)
            D = gen_random_blocked(args.n, blocks, args.seed)
        else:  # random-semiregular
            a = args.n if args.a is None else args.a
            b = args.n if args.b is None else args.b
            D = gen_random_semiregular(a, b, args.delta_a, args.seed)
        text = serialize_instance(D)
    except (PreconditionError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_SOLVED


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building takes ten times a parse."""
    parser = argparse.ArgumentParser(
        prog="tpb",
        description="Edge-disjoint demand routing in complete bipartite base graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance file")
    ps.add_argument("--in", dest="infile", required=True)
    ps.add_argument(
        "--algo",
        choices=["auto", "edge", "blocked", "quarter", "oracle"],
        default="auto",
    )
    ps.add_argument("--out", default=None)
    ps.add_argument(
        "--timeout-ms",
        dest="timeout_ms",
        type=_positive_int,
        default=10_000,
        help="wall-clock budget of the exact oracle in ms (default %(default)s); it bounds only"
        " --algo oracle and the oracle stage of auto, and the edge, blocked and quarter solvers ignore it",
    )
    ps.add_argument("--blocks", default=None, help="three block sizes i,j,k")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="check a resolution file against an instance")
    pv.add_argument("--in", dest="infile", required=True)
    pv.add_argument("--resolution", required=True)
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("gen", help="write a generated instance")
    pg.add_argument(
        "--family",
        required=True,
        choices=[
            "sharp-conj",
            "sharp-edge",
            "chain",
            "random-edge",
            "random-blocked",
            "random-semiregular",
        ],
    )
    pg.add_argument("--n", type=int, default=None)
    pg.add_argument("--a", type=int, default=None)
    pg.add_argument("--b", type=int, default=None)
    pg.add_argument("--delta-a", dest="delta_a", type=int, default=1)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument(
        "--blocks",
        default=None,
        help="random-blocked block sizes i,j,k (default n-2*floor(n/3), floor(n/3), "
        "floor(n/3); unequal, and so outside the blocked solver's guarantee, "
        "when n is not a multiple of 3)",
    )
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TpbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSOLVED


if __name__ == "__main__":
    sys.exit(main())
