"""Self-checks of the benchmark harness, at tiny sizes.

Run from the root of a checkout (takes a few seconds):

    python3 perfbench/selftest.py

Checks that two runs with the same seed agree exactly on the output
digest and on the counts a later change may cite, that a crashing op is
recorded as `fail.crash` without ending the run, that a resolution which
fails verification is caught, that self times are computed from the
span tree, that the traced run puts every rebound function back, and
that the benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from types import ModuleType, SimpleNamespace

import run
from spans import EDGE_CASE_TAGS, HOOKS, Tracer
from workloads import WORKLOADS, Op

EXACT = (
    "oracle.nodes", "oracle.calls", "oracle.refuted", "oracle.unknown",
    "edge_solver.levels", "demand.lift.calls", "demand.edge_lift.calls",
    "demand.edges_copied", "demand.verify.calls", "coloring.list_color.pairs",
    "instances.bytes",
) + tuple("edge_solver.case." + t for t in EDGE_CASE_TAGS + ("other",))


def check_same_seed_same_counts() -> None:
    for workload in WORKLOADS:
        first = run.run_workload(workload, 7, 0, trace=True, scale="tiny")
        second = run.run_workload(workload, 7, 0, trace=True, scale="tiny")
        other = run.run_workload(workload, 8, 0, trace=True, scale="tiny")
        assert not first["problems"], first["problems"]
        assert first["output_digest"] == second["output_digest"], workload
        assert first["output_digest"] != other["output_digest"], f"{workload}: seed has no effect"
        for name in EXACT:
            assert first["per_layer"][name][0] == second["per_layer"][name][0], (workload, name)
        cover = first["per_layer"]["trace.span_cover_frac"][0]
        unattributed = first["per_layer"]["trace.unattributed_frac"][0]
        assert 0.5 < cover <= 1.0, (workload, cover)
        assert 0.0 < unattributed < 0.9, (workload, unattributed)
        for modname, attr, _, _ in HOOKS:
            assert not hasattr(getattr(sys.modules[modname], attr), "__wrapped__"), (modname, attr)
        print(f"ok  {workload}: same seed, same digest and counts; wrappers removed")


def check_self_times() -> None:
    tracer = Tracer()
    # [name, start, end, parent, op]: a covers b and c; c covers d
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 2.0, 5.0, 0, 0], ["c", 6.0, 9.0, 0, 0], ["d", 7.0, 8.0, 2, 0]]
    incl, own, calls = tracer.totals()
    assert dict(own) == {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0}, dict(own)
    assert incl["a"] == 10.0 and calls["d"] == 1

    mod = ModuleType("traced_example")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = Tracer()
    mod.inner, mod.outer = tracer.wrap("inner", mod.inner), tracer.wrap("outer", mod.outer)
    with tracer.span("op"):
        assert mod.outer(1) == 4
    assert [(s[0], s[3]) for s in tracer.spans] == [("op", -1), ("outer", 0), ("inner", 1)], tracer.spans
    print("ok  self time is span time minus the time its children cover")


def check_metrics_match_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    summary = run.run_workload(WORKLOADS[0], 1, 0, trace=True, scale="tiny")
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        with contextlib.redirect_stdout(io.StringIO()):
            printed = run.report(summary, trace)["metrics"]
        assert [m["name"] for m in listed] == list(printed), trace
        assert all(printed[m["name"]]["unit"] == m["unit"] for m in listed), trace
    print("ok  printed metric names and units match BENCHMARK.json")


def check_crash_is_recorded() -> None:
    env = run.load_tpb()
    tpb = env.tpb
    # decide() refuses a demand inside one class with PreconditionError
    crashing = Op(1, "same-side demand", "decide", 1, tpb.DemandGraph.from_pairs(2, 2, [(tpb.A(0), tpb.A(1))]))
    fine = Op(2, "sharp_edge(4)", "decide", 7, tpb.gen_sharp_edge(4))
    phase = run.run_phase(env, [crashing, fine], "", "u", 0, passes=1)
    fails = run.failures(phase.results)
    assert fails["crash"] == {"PreconditionError": 1}, fails
    assert [r.outcome for r in phase.results] == ["crash", "refuted"], phase.results
    print("ok  a crashing op is recorded as fail.crash and the run goes on")


def check_invalid_resolution_is_caught() -> None:
    env = run.load_tpb()
    tpb = env.tpb
    op = Op(3, "one demand", "decide", 1, tpb.DemandGraph.from_pairs(2, 2, [(tpb.A(0), tpb.B(0))]))
    wrong = tpb.Resolution({0: tpb.Path((tpb.A(0), tpb.B(1)))})  # ends at the wrong terminal
    result = run.Result(op, "u", 0, 0.0, "resolvable", "", SimpleNamespace(resolution=wrong))
    _, problems = run.verify_results(env, [result])
    assert result.outcome == "invalid" and problems, problems
    print("ok  a resolution that fails verification makes the run incorrect")


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.WORK_ROOT, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    for line in proc.stdout.splitlines():
        try:
            parsed = json.loads(line)
        except ValueError:
            continue
        assert not isinstance(parsed, dict), "printed a result without the program"
    print("ok  without src/tpb the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    check_self_times()
    check_same_seed_same_counts()
    check_metrics_match_benchmark_json()
    check_crash_is_recorded()
    check_invalid_resolution_is_caught()
    check_refuses_without_sources()
