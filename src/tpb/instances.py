"""Extremal and random instance generators plus the text file formats.

Instance files are DIMACS-flavoured: `c` comment lines, one
`p tpb <a> <b> <m>` header, then `e <i> <j> [mult]` lines with 1-based
vertex indices (repeated lines accumulate).  The header's m is at most
a*b, because at most a*b edge-disjoint routes fit in K_{a,b}, and at
most MAX_DEMANDS = 1 000 000; a and b are each at most MAX_VERTICES =
1 000 000, because the solvers allocate per vertex of the header.
`solve_quarter` pads to a*Δ_A demands and declines when that exceeds
MAX_DEMANDS, as it would for `p tpb 8000 4000 1000` with 1000 demands at
one class-A vertex.  `solve_blocked` pads to n*floor(n/3) demands and
declines in the same way when that exceeds MAX_DEMANDS.
Edge ids are assigned in file order, expanding multiplicities in line order.
The canonical form sorts edge lines by (i, j) with multiplicities
merged, which makes the serialize/parse round trip the identity.
Resolution files carry an `s SOLVED|UNSOLVED|UNKNOWN` line and one `r`
record per route; a slot-backed `Resolution` is written from its slots.
"""
from __future__ import annotations

import random
from collections import Counter
from functools import cache
from itertools import repeat

from .demand import A, B, SIDE_A, DemandGraph, Path, Resolution, V
from .errors import FormatError, PreconditionError

SOLVED = "SOLVED"
UNSOLVED = "UNSOLVED"
UNKNOWN_STATUS = "UNKNOWN"

MAX_DEMANDS = 1_000_000  # the most demand edges an instance file may declare
MAX_VERTICES = 1_000_000  # the most vertices per class an instance file may declare


# -- sharp unresolvable families -----------------------------------------------


def gen_sharp_conjecture(n: int) -> DemandGraph:
    """n disjoint terminal pairs, each demanding ceil(n/3)+1 parallel paths.

    Unresolvable in K_{n,n} for every n: one demand per pair can route
    directly, the rest need length >= 3, and n + 3n*ceil(n/3) > n^2.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    mult = -(-n // 3) + 1
    pairs = [(i, n + i) for i in range(n) for _ in range(mult)]
    return DemandGraph.empty(n, n).with_slots(pairs)


def gen_sharp_edge(n: int) -> DemandGraph:
    """One pair joined n times, another n-1 times: 2n-1 edges, unresolvable."""
    if n < 4:
        raise PreconditionError("n must be at least 4")
    pairs = [(0, n)] * n + [(1, n + 1)] * (n - 1)
    return DemandGraph.empty(n, n).with_slots(pairs)


def gen_chain(n: int) -> DemandGraph:
    """n-1 doubled pairs plus one isolated pair: 2n-2 edges with Δ = 2."""
    if n < 4:
        raise PreconditionError("n must be at least 4")
    pairs = [(i, n + i) for i in range(n - 1) for _ in range(2)]
    return DemandGraph.empty(n, n).with_slots(pairs)


# -- seeded random families ---------------------------------------------------


def gen_random_edge(n: int, seed: int) -> DemandGraph:
    """Random instance within the edge-version hypotheses (|E| <= 2n-2, Δ <= n)."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    rng = random.Random(seed)
    target = rng.randint(0, 2 * n - 2)
    deg_a = [0] * n
    deg_b = [0] * n
    pairs: list[tuple[int, int]] = []
    attempts = 0
    while len(pairs) < target and attempts < 200 * (n + target):
        attempts += 1
        i = rng.randrange(n)
        j = rng.randrange(n)
        if deg_a[i] < n and deg_b[j] < n:
            pairs.append((i, n + j))
            deg_a[i] += 1
            deg_b[j] += 1
    D = DemandGraph.empty(n, n).with_slots(pairs)
    assert D.m <= 2 * n - 2 and D.max_degree() <= n
    return D


def gen_random_blocked(n: int, sizes: tuple[int, int, int], seed: int) -> DemandGraph:
    """Random block-respecting instance with Δ <= floor(n/3)."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if sum(sizes) != n:
        raise PreconditionError("block sizes must sum to n")
    t = n // 3
    if any(s < t for s in sizes):
        raise PreconditionError("every block needs at least floor(n/3) vertices")
    rng = random.Random(seed)
    starts = [0, sizes[0], sizes[0] + sizes[1]]
    deg_a = [0] * n
    deg_b = [0] * n
    pairs: list[tuple[int, int]] = []
    for blk in range(3):
        lo, s = starts[blk], sizes[blk]
        target = rng.randint(0, t * s)
        attempts = 0
        while target > 0 and attempts < 500 * (s + 1):
            attempts += 1
            i = lo + rng.randrange(s)
            j = lo + rng.randrange(s)
            if deg_a[i] < t and deg_b[j] < t:
                pairs.append((i, n + j))
                deg_a[i] += 1
                deg_b[j] += 1
                target -= 1
    D = DemandGraph.empty(n, n).with_slots(pairs)
    assert D.max_degree() <= t
    return D


def gen_random_semiregular(a: int, b: int, delta_a: int, seed: int) -> DemandGraph:
    """Random semiregular instance: every A-degree delta_a, every B-degree a*delta_a/b."""
    if a < 1 or b < 1:
        raise PreconditionError("both classes need at least one vertex")
    if delta_a < 0:
        raise PreconditionError("delta_a must be at least 0")
    total = a * delta_a
    if total % b != 0:
        raise PreconditionError("a*delta_a must be divisible by b")
    delta_b = total // b
    rng = random.Random(seed)
    stubs = [j for j in range(b) for _ in range(delta_b)]
    rng.shuffle(stubs)
    pairs = []
    k = 0
    for i in range(a):
        for _ in range(delta_a):
            pairs.append((i, a + stubs[k]))
            k += 1
    D = DemandGraph.empty(a, b).with_slots(pairs)
    degs = D.degree_map()
    assert all(d == delta_a for d in degs[:a])
    assert all(d == delta_b for d in degs[a:])
    return D


# -- instance files -----------------------------------------------------------


def serialize_instance(D: DemandGraph) -> str:
    """Canonical text form: header, then merged edge lines sorted by (i, j)."""
    if not D.is_bipartite_demand():
        raise FormatError("only class-crossing demand graphs are serializable")
    if D.m > D.a * D.b:
        raise FormatError(f"{D.m} demand edges exceed the {D.a * D.b} edges of K_{{{D.a},{D.b}}}")
    if D.m > MAX_DEMANDS:
        raise FormatError(f"{D.m} demand edges exceed the limit of {MAX_DEMANDS}")
    if max(D.a, D.b) > MAX_VERTICES:
        raise FormatError(f"{max(D.a, D.b)} vertices in a class exceed the limit of {MAX_VERTICES}")
    a = D.a
    mult = Counter((e.u, e.v - a) if e.u < a else (e.v, e.u - a) for e in D.links.values())
    lines = [f"p tpb {D.a} {D.b} {D.m}"]
    for (i, j) in sorted(mult):
        lines.append(f"e {i + 1} {j + 1} {mult[(i, j)]}")
    return "\n".join(lines) + "\n"


def _decimal(tok: str, ln: int, what: str) -> int:
    """Read an unsigned field of ASCII digits; anything else is a FormatError at line ln."""
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # more digits than int() reads from text
            pass
    raise FormatError(f"line {ln}: {what} {tok!r}")


def parse_instance(text: str) -> DemandGraph:
    a = b = m = None
    pairs: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if a is not None:
                raise FormatError(f"line {ln}: duplicate header")
            if len(toks) != 5 or toks[1] != "tpb":
                raise FormatError(f"line {ln}: header must read 'p tpb <a> <b> <m>'")
            a, b, m = (_decimal(t, ln, "non-integer header field") for t in toks[2:])
            if a < 1 or b < 1 or m < 0:
                raise FormatError(f"line {ln}: header values out of range")
            if m > a * b:
                raise FormatError(f"line {ln}: {m} demand edges exceed the {a * b} edges of K_{{{a},{b}}}")
            if m > MAX_DEMANDS:
                raise FormatError(f"line {ln}: {m} demand edges exceed the limit of {MAX_DEMANDS}")
            if max(a, b) > MAX_VERTICES:
                raise FormatError(f"line {ln}: {max(a, b)} vertices in a class exceed the limit of {MAX_VERTICES}")
        elif toks[0] == "e":
            if a is None:
                raise FormatError(f"line {ln}: edge record before header")
            if len(toks) not in (3, 4):
                raise FormatError(f"line {ln}: edge record must read 'e <i> <j> [mult]'")
            i = _decimal(toks[1], ln, "non-integer edge field")
            j = _decimal(toks[2], ln, "non-integer edge field")
            mult = _decimal(toks[3], ln, "non-integer edge field") if len(toks) == 4 else 1
            if not 1 <= i <= a:
                raise FormatError(f"line {ln}: class-A index {i} out of range 1..{a}")
            if not 1 <= j <= b:
                raise FormatError(f"line {ln}: class-B index {j} out of range 1..{b}")
            if mult < 1:
                raise FormatError(f"line {ln}: multiplicity must be positive")
            if len(pairs) + mult > m:
                raise FormatError(f"line {ln}: edge lines supply more than the {m} declared edges")
            pairs.extend(repeat((i - 1, a + j - 1), mult))
        else:
            raise FormatError(f"line {ln}: unrecognized record {toks[0]!r}")
    if a is None:
        raise FormatError("missing 'p tpb' header")
    if len(pairs) != m:
        raise FormatError(
            f"header declares {m} edges but the edge lines supply {len(pairs)}"
        )
    return DemandGraph.empty(a, b).with_slots(pairs)


# -- resolution files ----------------------------------------------------------


def _vertex_token(v: V) -> str:
    return f"{'a' if v.side == SIDE_A else 'b'}{v.index + 1}"


def serialize_resolution(res: Resolution | None, status: str = SOLVED) -> str:
    """Resolution text; routes are oriented to start at the class-A terminal.

    A slot-backed resolution is written from its slots, without its `V` paths.
    """
    if status not in (SOLVED, UNSOLVED, UNKNOWN_STATUS):
        raise FormatError(f"unknown status {status!r}")
    if status != SOLVED:
        return f"s {status}\n"
    if res is None:
        raise FormatError("a SOLVED file needs a resolution")
    lines = ["s SOLVED"]
    if res.slots is None:
        for eid in sorted(res.routes):
            vs = res.routes[eid].vertices
            if vs and vs[0].side != SIDE_A:
                vs = vs[::-1]
            lines.append(f"r {eid} {len(vs) - 1} {' '.join(map(_vertex_token, vs))}")
    else:
        a, slots = res.a, res.slots
        token = cache(lambda s: f"a{s + 1}" if s < a else f"b{s - a + 1}")
        for eid in sorted(slots):
            ss = slots[eid]
            if ss[0] >= a:
                ss = ss[::-1]
            lines.append(f"r {eid} {len(ss) - 1} {' '.join(map(token, ss))}")
    return "\n".join(lines) + "\n"


def parse_resolution(text: str) -> tuple[str, Resolution | None]:
    status = None
    routes: dict[int, Path] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "s":
            if status is not None:
                raise FormatError(f"line {ln}: duplicate status line")
            if len(toks) != 2 or toks[1] not in (SOLVED, UNSOLVED, UNKNOWN_STATUS):
                raise FormatError(f"line {ln}: bad status line")
            status = toks[1]
        elif toks[0] == "r":
            if status != SOLVED:
                raise FormatError(f"line {ln}: route record without a SOLVED status")
            if len(toks) < 4:
                raise FormatError(f"line {ln}: truncated route record")
            eid = _decimal(toks[1], ln, "non-integer route field")
            k = _decimal(toks[2], ln, "non-integer route field")
            verts = toks[3:]
            if len(verts) != k + 1:
                raise FormatError(
                    f"line {ln}: route declares {k} edges but lists {len(verts)} vertices"
                )
            path = []
            for pos, tok in enumerate(verts):
                if tok[0] not in "ab":
                    raise FormatError(f"line {ln}: bad vertex token {tok!r}")
                idx = _decimal(tok[1:], ln, "bad vertex token") - 1
                want = "a" if pos % 2 == 0 else "b"
                if tok[0] != want:
                    raise FormatError(
                        f"line {ln}: route vertices must alternate starting at class A"
                    )
                path.append(A(idx) if tok[0] == "a" else B(idx))
            if eid in routes:
                raise FormatError(f"line {ln}: duplicate route for edge {eid}")
            routes[eid] = Path(tuple(path))
        else:
            raise FormatError(f"line {ln}: unrecognized record {toks[0]!r}")
    if status is None:
        raise FormatError("missing 's' status line")
    if status != SOLVED:
        return status, None
    return status, Resolution(routes)
