"""Command-line front end: solve, verify and generate instances.

Exit codes: 0 solved / verified, 1 unsolved or failed, 2 usage or parse
error, 3 unknown (budget or timeout exhausted).  All flags are
long-form.  The solvers make no random choices, and the instance
generators draw theirs from `gen --seed`, so identical invocations
produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from .demand import DemandGraph, Resolution, verify_resolution
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
from .structured import BlockPartition, solve_blocked, solve_quarter

EXIT_SOLVED = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


@dataclass
class RunReport:
    a: int
    b: int
    edges: int
    max_degree: int
    algorithm: str = ""
    outcome: str = ""
    millis: int = 0
    nodes: int | None = None
    trace: list[str] = field(default_factory=list)
    detail: str = ""

    def emit(self) -> None:
        print(f"instance: a={self.a} b={self.b} edges={self.edges} max-degree={self.max_degree}")
        print(f"algorithm: {self.algorithm}")
        print(f"outcome: {self.outcome}")
        print(f"time-ms: {self.millis}")
        if self.nodes is not None:
            print(f"oracle-nodes: {self.nodes}")
        if self.trace:
            print("case-trace: " + " ".join(self.trace))
        if self.detail:
            print(f"detail: {self.detail}")


def _parse_blocks(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise FormatError("--blocks expects three comma-separated integers")
    if len(parts) != 3:
        raise FormatError("--blocks expects exactly three sizes")
    return parts


def _try_edge(D: DemandGraph, report: RunReport) -> Resolution:
    res, trace = solve_edge_version(D)
    report.trace = [f"{s.n}:{s.case_tag}" for s in trace.steps]
    return res


def _try_blocked(D: DemandGraph, blocks: tuple[int, int, int] | None) -> Resolution:
    if blocks is None:
        raise PreconditionError("blocked solving needs --blocks")
    return solve_blocked(D, BlockPartition.from_sizes(blocks))


def cmd_solve(args) -> int:
    try:
        with open(args.infile) as fh:
            D = parse_instance(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = RunReport(D.a, D.b, D.m, D.max_degree())
    started = time.monotonic()
    budget = SearchBudget(max_nodes=10_000_000, max_millis=args.timeout_ms)
    blocks = _parse_blocks(args.blocks) if args.blocks else None
    res: Resolution | None = None
    outcome = "unsolved"
    detail = ""

    algos = [args.algo] if args.algo != "auto" else ["edge", "blocked", "quarter", "oracle"]
    for algo in algos:
        report.algorithm = algo
        try:
            if algo == "edge":
                res = _try_edge(D, report)
            elif algo == "blocked":
                res = _try_blocked(D, blocks)
            elif algo == "quarter":
                res = solve_quarter(D)
                if res is None:
                    detail = "degree-bounded solver could not resolve the instance"
            else:
                verdict = decide(D, budget)
                report.nodes = verdict.nodes_explored
                if verdict.status == RESOLVABLE:
                    res = verdict.resolution
                elif verdict.status == UNRESOLVABLE:
                    outcome = "unsolved"
                    detail = "oracle proved the instance unresolvable"
                else:
                    outcome = "unknown"
                    detail = "oracle budget exhausted"
        except PreconditionError as exc:
            detail = str(exc)
            res = None
            if args.algo != "auto":
                outcome = "unsolved"
            continue
        if res is not None or algo == "oracle" or args.algo != "auto":
            break

    report.millis = int((time.monotonic() - started) * 1000)
    if res is not None:
        problems = verify_resolution(D, res)
        if problems:
            print("internal error: produced resolution fails verification", file=sys.stderr)
            return EXIT_UNSOLVED
        outcome = "solved"
        detail = ""
    report.outcome = outcome
    report.detail = detail
    report.emit()
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
        with open(args.infile) as fh:
            D = parse_instance(fh.read())
        with open(args.resolution) as fh:
            status, res = parse_resolution(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
            blocks = _parse_blocks(args.blocks) if args.blocks else (
                args.n - 2 * (args.n // 3), args.n // 3, args.n // 3)
            D = gen_random_blocked(args.n, blocks, args.seed)
        elif fam == "random-semiregular":
            a = args.a if args.a else args.n
            b = args.b if args.b else args.n
            D = gen_random_semiregular(a, b, args.delta_a, args.seed)
        else:
            print(f"unknown family {fam}", file=sys.stderr)
            return EXIT_USAGE
    except (PreconditionError, FormatError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = serialize_instance(D)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_SOLVED


def build_parser() -> argparse.ArgumentParser:
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
    ps.add_argument("--timeout-ms", dest="timeout_ms", type=int, default=10_000)
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
    pg.add_argument("--blocks", default=None)
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
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TpbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSOLVED


if __name__ == "__main__":
    sys.exit(main())
