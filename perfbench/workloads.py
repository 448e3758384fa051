"""Seeded instance lists for the three benchmark workloads.

Every workload is a fixed list of operations built from `--seed`: the
same seed gives the same instances in the same shuffled order.  A solve
op is a `tpb solve` argument list over an instance file written during
set-up; a decide op is an in-memory demand graph for `tpb.oracle.decide`.

The mix inside a workload is chosen so that the median and the 90th
percentile of the per-op times fall inside groups of similar instances,
not on the edge between a cheap group and an expensive one; that keeps
both percentiles steady from seed to seed.  See README.md for why each
family is in its workload.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

#: Node budget for the oracle workload, just above the 3196 nodes that
#: refuting sharp_edge(5) takes.  `tpb solve` only offers a wall-clock
#: budget, which would make verdicts and node counts depend on the machine.
ORACLE_MAX_NODES = 4_000

#: (family, size, count) per workload and scale.  "tiny" is the smoke
#: size used by selftest.py; the command line always runs "full".
FAMILIES = {
    "edge-induction": {
        "full": [
            ("random_edge", 128, 20), ("clustered", 32, 260), ("clustered", 96, 52),
            ("clustered", 256, 5), ("chain", 400, 1),
        ],
        "tiny": [("random_edge", 16, 3), ("clustered", 20, 2), ("chain", 8, 1)],
    },
    "structured-lift": {
        "full": [
            ("blocked", 24, 100), ("blocked", 48, 30), ("blocked", 96, 3),
            ("quarter", 32, 100), ("quarter", 64, 45), ("quarter", 96, 2),
        ],
        "tiny": [("blocked", 12, 2), ("blocked", 24, 1), ("quarter", 16, 2), ("quarter", 32, 1)],
    },
    "oracle-search": {
        "full": [("sharp_edge", n, 1) for n in (4, 5, 6)]
        + [("sharp_conjecture", n, 1) for n in (3, 4, 5, 6)]
        + [("relabeled_sharp_edge", 5, 195), ("uniform", 5, 130), ("uniform", 6, 16)],
        "tiny": [("sharp_edge", 4, 1), ("relabeled_sharp_edge", 5, 1), ("uniform", 5, 4), ("uniform", 6, 3)],
    },
}

WORKLOADS = tuple(FAMILIES)


@dataclass
class Op:
    """One closed-loop operation of a workload."""

    id: int
    label: str
    kind: str  # "solve" or "decide"
    edges: int
    graph: object = None  # decide: the DemandGraph; solve ops keep only the file
    argv: tuple[str, ...] = ()  # solve: the arguments before "--out"
    instance_path: str = ""


def clustered_instance(tpb, n: int, seed: int, frac: float = 0.10):
    """2n-2 edges whose endpoints lie on 10 % of each class, with Δ <= n."""
    rng = random.Random(seed)
    k = max(2, int(n * frac))
    hubs_a = rng.sample(range(n), k)
    hubs_b = rng.sample(range(n), k)
    deg_a = dict.fromkeys(hubs_a, 0)
    deg_b = dict.fromkeys(hubs_b, 0)
    pairs = []
    while len(pairs) < 2 * n - 2:
        i = rng.choice(hubs_a)
        j = rng.choice(hubs_b)
        if deg_a[i] < n and deg_b[j] < n:
            pairs.append((tpb.A(i), tpb.B(j)))
            deg_a[i] += 1
            deg_b[j] += 1
    return tpb.DemandGraph.from_pairs(n, n, pairs)


def relabeled(tpb, D, seed: int):
    """D under a seeded permutation of each class and of the edge order."""
    rng = random.Random(seed)
    perm_a = list(range(D.a))
    perm_b = list(range(D.b))
    rng.shuffle(perm_a)
    rng.shuffle(perm_b)
    pairs = [(tpb.A(perm_a[e.u.index]), tpb.B(perm_b[e.v.index])) for e in D.edges.values()]
    rng.shuffle(pairs)
    return tpb.DemandGraph.from_pairs(D.a, D.b, pairs)


def uniform_instance(tpb, n: int, seed: int):
    """Uniform random demand multigraph on K_{n,n} with 2n+2..3n edges."""
    rng = random.Random(seed)
    m = rng.randint(2 * n + 2, 3 * n)
    pairs = [(tpb.A(rng.randrange(n)), tpb.B(rng.randrange(n))) for _ in range(m)]
    return tpb.DemandGraph.from_pairs(n, n, pairs)


def make_instance(tpb, family: str, n: int, s: int):
    """(label, demand graph, solve arguments) for one generator call."""
    if family == "random_edge":
        return f"gen_random_edge({n},{s})", tpb.gen_random_edge(n, s), ("--algo", "edge")
    if family == "clustered":
        return f"clustered({n},{s})", clustered_instance(tpb, n, s), ("--algo", "edge")
    if family == "chain":
        return f"gen_chain({n})", tpb.gen_chain(n), ("--algo", "edge")
    if family == "blocked":
        t = n // 3
        blocks = f"{t},{t},{t}"
        D = tpb.gen_random_blocked(n, (t, t, t), s)
        return f"gen_random_blocked({n},({blocks}),{s})", D, ("--algo", "blocked", "--blocks", blocks)
    if family == "quarter":
        D = tpb.gen_random_semiregular(n, n, n // 8, s)
        return f"gen_random_semiregular({n},{n},{n // 8},{s})", D, ("--algo", "quarter")
    if family == "sharp_edge":
        return f"gen_sharp_edge({n})", tpb.gen_sharp_edge(n), ()
    if family == "sharp_conjecture":
        return f"gen_sharp_conjecture({n})", tpb.gen_sharp_conjecture(n), ()
    if family == "relabeled_sharp_edge":
        return f"relabeled(gen_sharp_edge({n}),{s})", relabeled(tpb, tpb.gen_sharp_edge(n), s), ()
    if family == "uniform":
        return f"uniform({n},{s})", uniform_instance(tpb, n, s), ()
    raise ValueError(f"unknown family {family!r}")


def build_ops(tpb, workload: str, seed: int, workdir: str, scale: str = "full") -> list[Op]:
    """Generate the workload's instances from `seed` and write the instance files."""
    rng = random.Random(f"{workload}/{seed}")
    calls = [(family, n, rng.randrange(2**31)) for family, n, count in FAMILIES[workload][scale] for _ in range(count)]
    rng.shuffle(calls)
    ops = []
    for k, call in enumerate(calls):
        # one instance at a time, so a solve workload's graphs are not all held at once
        label, D, argv = make_instance(tpb, *call)
        if workload == "oracle-search":
            ops.append(Op(k, label, "decide", D.m, D))
            continue
        path = os.path.join(workdir, f"op{k:04d}.tpb")
        with open(path, "w") as fh:
            fh.write(tpb.serialize_instance(D))
        ops.append(Op(k, label, "solve", D.m, argv=("solve", "--in", path) + argv, instance_path=path))
    return ops
