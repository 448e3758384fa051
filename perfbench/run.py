"""tpb benchmark: seeded closed-loop workloads over `tpb solve` and `decide`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload edge-induction --seed 1 --seconds 25 --trace 0

One process and one thread send the workload's ops one at a time, each
after the previous one returned.  `--trace 0` measures the end-to-end
metrics; `--trace 1` runs one untraced and one traced pass and reports
the per-layer metrics.  Outside the timed region every resolution is
re-parsed and re-verified; an invalid one makes the run exit 1.  The
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

Times are corrected for the host's speed (see calibration.py): a fixed
calibration loop runs after every op, and each op's time is divided by
the slowdown of the loops run within CAL_WINDOW_S of it; each set-up
time is divided by the slowdown of the loops run just before and just
after it.  The uncorrected figures are printed beside them.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from calibration import calibration_s, slowdown
from spans import EDGE_CASE_TAGS, Tracer, count_decide
from workloads import ORACLE_MAX_NODES, WORKLOADS, Op, build_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_CHILD = os.path.join(HERE, "setup_child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 15
MIN_SAMPLES = 100
FAIL_KINDS = ("crash", "unknown", "unsolved", "invalid")

SETUP_CAL = 40  # calibration loops just before and just after each set-up
#: The host's speed drifts within seconds, so an op's slowdown comes
#: from the calibration loops run within this many seconds of it.
CAL_WINDOW_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "edges_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def op_slowdowns(ph: Phase) -> list[float]:
    """Each op's slowdown, from the calibration loops run within CAL_WINDOW_S of it.

    The calibration after op j runs when op j ends, so the window holds
    the loops whose op ended between CAL_WINDOW_S before this op started
    and CAL_WINDOW_S after it ended: at least the loops just before and
    just after it.
    """
    ends = [r.start + r.seconds for r in ph.results]
    out = []
    for r in ph.results:
        lo = bisect.bisect_left(ends, r.start - CAL_WINDOW_S)
        hi = bisect.bisect_right(ends, r.start + r.seconds + CAL_WINDOW_S)
        out.append(slowdown(ph.cal[lo:hi]))
    return out


@dataclass
class Env:
    """The imported program and the oracle workload's budget."""

    tpb: object
    cli: object
    oracle: object
    budget: object


@dataclass
class Result:
    op: Op
    phase: str
    pass_no: int
    seconds: float
    outcome: str  # solved, resolvable, refuted, or one of FAIL_KINDS
    detail: str = ""
    payload: object = None  # resolution file path (solve) or verdict (decide)
    start: float = 0.0  # perf_counter() when the op was sent


@dataclass
class Phase:
    results: list[Result] = field(default_factory=list)
    cal: list[float] = field(default_factory=list)  # calibration time after each op
    wall: float = 0.0
    passes: int = 0
    peak_rss_mb: float = 0.0  # of the process when the loop ended, before any checks


def load_tpb() -> Env:
    """Import tpb from the checkout's src/ directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tpb
    import tpb.cli
    import tpb.oracle

    return Env(tpb, tpb.cli, tpb.oracle, tpb.oracle.SearchBudget(max_nodes=ORACLE_MAX_NODES, max_millis=10**9))


def timed_setups(workload: str, seed: int, workdir: str, scale: str, reps: int) -> tuple[list[float], list[float]]:
    """Set-up times of `reps` fresh interpreters, started one after the other, and each one's slowdown.

    Each set-up runs setup_child.py, which imports tpb, generates the
    instances and writes the instance files; it is timed from the
    process's start until it reports that the first op could run.  The
    slowdown comes from SETUP_CAL calibration loops run here just before
    the start and SETUP_CAL run by the child just after it reported.
    """
    times = []
    slowdowns = []
    for k in range(reps):
        d = os.path.join(workdir, f"setup{k}")
        os.makedirs(d)
        cal = [calibration_s() for _ in range(SETUP_CAL)]
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, SETUP_CHILD, workload, str(seed), d, scale, str(SETUP_CAL)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            after = proc.stdout.read().split()
        if proc.returncode != 0 or ready.strip() != "ready" or len(after) != SETUP_CAL:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        slowdowns.append(slowdown(cal + [float(x) for x in after]))
        shutil.rmtree(d)
    return times, slowdowns


def _classify_exit(rc: int, stderr: str) -> tuple[str, str]:
    if rc == 0:
        return "solved", ""
    if rc == 1:
        if "fails verification" in stderr:
            return "invalid", "tpb solve rejected its own resolution"
        return "unsolved", stderr.strip().splitlines()[0] if stderr.strip() else "exit 1"
    if rc == 3:
        return "unknown", "exit 3"
    return "crash", f"exit {rc}"


def _no_span(name: str):
    return contextlib.nullcontext()


def _call(env: Env, op: Op, out_path: str, tracer: Tracer | None) -> tuple[str, str, object]:
    span = _no_span if tracer is None else tracer.span
    if op.kind == "solve":
        err = io.StringIO()
        argv = [*op.argv, "--out", out_path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), span("cli.main"):
            rc = env.cli.main(argv)
        outcome, detail = _classify_exit(rc, err.getvalue())
        return outcome, detail, out_path
    with span("oracle.decide"):
        verdict = env.oracle.decide(op.graph, env.budget)
    if tracer is not None:
        count_decide(tracer.counts, (op.graph,), verdict)
    status = {env.oracle.RESOLVABLE: "resolvable", env.oracle.UNRESOLVABLE: "refuted"}
    return status.get(verdict.status, "unknown"), "", verdict


def run_op(env: Env, op: Op, out_path: str, tracer: Tracer | None = None) -> tuple[float, str, str, object]:
    """Send one op through its user path; every exception is a crash."""
    if tracer is not None:
        tracer.op = op.id
    span = _no_span if tracer is None else tracer.span
    t0 = time.perf_counter()
    try:
        with span("op"):
            outcome, detail, payload = _call(env, op, out_path, tracer)
    except Exception as exc:  # one failing op must not end the run
        outcome, detail, payload = "crash", type(exc).__name__, None
    return time.perf_counter() - t0, outcome, detail, payload


def run_phase(
    env: Env, ops: list[Op], workdir: str, name: str, seconds: float,
    passes: int | None = None, tracer: Tracer | None = None,
) -> Phase:
    """Closed loop over whole passes of the op list.

    With `passes` unset, passes continue until at least MIN_SAMPLES ops
    ran and the next pass would end more than half a pass past `seconds`.
    """
    ph = Phase()
    t0 = time.perf_counter()
    while True:
        for op in ops:
            out = os.path.join(workdir, f"{name}{ph.passes}-op{op.id:04d}.sol")
            start = time.perf_counter()
            dt, outcome, detail, payload = run_op(env, op, out, tracer)
            ph.results.append(Result(op, name, ph.passes, dt, outcome, detail, payload, start))
            ph.cal.append(calibration_s())
        ph.passes += 1
        ph.wall = time.perf_counter() - t0
        ph.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if passes is not None:
            if ph.passes >= passes:
                break
        elif len(ph.results) >= MIN_SAMPLES and ph.wall + ph.wall / ph.passes / 2 >= seconds:
            break
    return ph


def _resolution_ok(env: Env, op: Op, text: str, instances: dict) -> bool:
    tpb = env.tpb
    try:
        status, res = tpb.parse_resolution(text)
        if status != tpb.instances.SOLVED or res is None:
            return False
        if op.kind == "solve":
            if op.id not in instances:
                with open(op.instance_path) as fh:
                    instances[op.id] = tpb.parse_instance(fh.read())
            D = instances[op.id]
        else:
            D = op.graph
        return not tpb.verify_resolution(D, res)
    except tpb.FormatError:
        return False


def verify_results(env: Env, results: list[Result]) -> tuple[str, list[str]]:
    """Re-verify every resolution; returns the output digest and any problems.

    A resolution that fails turns its op into an `invalid` failure.  The
    digest is the sha256 of each op's outcome and output bytes in op
    order, and must be the same for every pass.
    """
    instances: dict = {}
    checked: dict[tuple[int, str], bool] = {}
    per_pass: dict[tuple[str, int], list[tuple[int, bytes]]] = {}
    for r in results:
        text = ""
        if r.op.kind == "solve" and os.path.exists(r.payload or ""):
            with open(r.payload) as fh:
                text = fh.read()
        elif r.outcome == "resolvable":
            text = env.tpb.serialize_resolution(r.payload.resolution)
        if r.outcome in ("solved", "resolvable"):
            key = (r.op.id, hashlib.sha256(text.encode()).hexdigest())
            if key not in checked:
                checked[key] = _resolution_ok(env, r.op, text, instances)
            if not checked[key]:
                r.outcome, r.detail = "invalid", "resolution fails verification"
        shown = r.outcome if r.outcome in ("solved", "resolvable", "refuted") else f"{r.outcome} {r.detail}"
        per_pass.setdefault((r.phase, r.pass_no), []).append((r.op.id, f"{shown}\n{text}".encode()))
    digests = [_digest_of(outputs) for outputs in per_pass.values()]
    problems = [f"op {r.op.id} {r.op.label}: {r.detail}" for r in results if r.outcome == "invalid"]
    if len(set(digests)) > 1:
        problems.append("outputs differ between passes over the same instances")
    return digests[0], problems


def _digest_of(outputs: list[tuple[int, bytes]]) -> str:
    h = hashlib.sha256()
    for op_id, blob in sorted(outputs):
        h.update(f"op {op_id} {len(blob)}\n".encode())
        h.update(blob)
    return h.hexdigest()


def completed_edges(results: list[Result]) -> int:
    return sum(r.op.edges for r in results if r.outcome in ("solved", "resolvable", "refuted"))


def failures(results: list[Result]) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {k: {} for k in FAIL_KINDS}
    for r in results:
        if r.outcome in out:
            out[r.outcome][r.detail] = out[r.outcome].get(r.detail, 0) + 1
    return out


def edge_rate(ph: Phase, ks: list[float]) -> float:
    """Demand edges of completed ops per second of op time, each op's time divided by its slowdown."""
    return completed_edges(ph.results) / sum(r.seconds / k for r, k in zip(ph.results, ks))


def end_to_end(setup_times: list[float], setup_ks: list[float], ph: Phase, ks: list[float]) -> dict[str, float]:
    """End-to-end figures, with each time divided by its slowdown in `setup_ks` or `ks`."""
    times = [r.seconds / k for r, k in zip(ph.results, ks)]
    return {
        "setup_s": statistics.median(t / k for t, k in zip(setup_times, setup_ks)),
        "edges_per_s": edge_rate(ph, ks),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": ph.peak_rss_mb,
    }


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced pass; `*_s` figures are inclusive seconds.

    Times are divided by the traced pass's median calibration slowdown.
    """
    incl, own, calls = tracer.totals()
    c = tracer.counts
    levels = c["edge_solver.levels"]
    places = calls["edge_solver.place"]
    fails = failures(traced.results)
    k = slowdown(traced.cal)
    untraced_rate = edge_rate(untraced, op_slowdowns(untraced))
    traced_rate = edge_rate(traced, op_slowdowns(traced))
    op_s = incl["op"]
    m = {
        "cli.self_s": (own["cli.main"], "s"),
        "instances.parse_s": (incl["instances.parse"], "s"),
        "instances.serialize_s": (incl["instances.serialize"], "s"),
        "instances.bytes": (c["instances.bytes"], "bytes"),
        "demand.lift.calls": (calls["demand.lift"], "count"),
        "demand.lift_s": (incl["demand.lift"], "s"),
        "demand.edge_lift.calls": (calls["demand.edge_lift"], "count"),
        "demand.edge_lift_s": (incl["demand.edge_lift"], "s"),
        "demand.edges_copied": (c["demand.edges_copied"], "count"),
        "demand.extract_s": (incl["demand.extract"], "s"),
        "demand.verify.calls": (calls["demand.verify"], "count"),
        "demand.verify_s": (incl["demand.verify"], "s"),
        "coloring.konig_s": (incl["coloring.konig"], "s"),
        "coloring.vizing_s": (incl["coloring.vizing"], "s"),
        "coloring.regularize_s": (incl["coloring.regularize"], "s"),
        "coloring.list_color_s": (incl["coloring.list_color"], "s"),
        "coloring.list_color.pairs": (c["coloring.list_color.pairs"], "count"),
        "structured.blocked_s": (incl["structured.blocked"], "s"),
        "structured.quarter_s": (incl["structured.quarter"], "s"),
        "structured.self_s": (own["structured.blocked"] + own["structured.quarter"], "s"),
        "edge_solver.solve_s": (incl["edge_solver.solve"], "s"),
        "edge_solver.levels": (levels, "count"),
        "edge_solver.self_s": (own["edge_solver.solve"], "s"),
        "edge_solver.self_ms_per_level": (1000 * own["edge_solver.solve"] / levels if levels else 0.0, "ms"),
        "edge_solver.check_conditions_s": (incl["edge_solver.check_conditions"], "s"),
        "edge_solver.pad_s": (incl["edge_solver.pad"], "s"),
        "edge_solver.cover_s": (incl["edge_solver.cover"], "s"),
        "edge_solver.place_s": (incl["edge_solver.place"], "s"),
        "edge_solver.place.lifts_per_call": (
            tracer.child_calls("demand.edge_lift", "edge_solver.place") / places if places else 0.0, "ratio"),
    }
    for tag in EDGE_CASE_TAGS + ("other",):
        m["edge_solver.case." + tag] = (c["edge_solver.case." + tag], "count")
    m.update({
        "oracle.calls": (calls["oracle.decide"], "count"),
        "oracle.decide_s": (incl["oracle.decide"], "s"),
        "oracle.nodes": (c["oracle.nodes"], "count"),
        "oracle.nodes_per_s": (c["oracle.nodes"] / incl["oracle.decide"] if incl["oracle.decide"] else 0.0, "1/s"),
        "oracle.refuted": (c["oracle.refuted"], "count"),
        "oracle.unknown": (c["oracle.unknown"], "count"),
    })
    for kind in FAIL_KINDS:
        m["fail." + kind] = (sum(fails[kind].values()), "count")
    m.update({
        "bench.self_s": (own["op"], "s"),
        "trace.span_cover_frac": (sum(v for name, v in own.items() if name != "op") / op_s, "frac"),
        "trace.unattributed_frac": ((own["cli.main"] + own["op"]) / op_s, "frac"),
        "trace.overhead_frac": (1 - traced_rate / untraced_rate if untraced_rate else 0.0, "frac"),
        "host.slowdown": (k, "ratio"),
    })
    for name, (value, unit) in m.items():
        if unit in ("s", "ms"):
            m[name] = (value / k, unit)
        elif unit == "1/s":
            m[name] = (value * k, unit)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """One benchmark run; returns everything the report and selftest.py need."""
    workdir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times, setup_ks = timed_setups(workload, seed, workdir, scale, SETUP_REPS if scale == "full" else 1)
        env = load_tpb()
        ops = build_ops(env.tpb, workload, seed, workdir, scale)
        gc.collect()
        phases = []
        untraced = run_phase(env, ops, workdir, "u", seconds, passes=1 if trace else None)
        phases.append(untraced)
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                phases.append(run_phase(env, ops, workdir, "t", seconds, passes=1, tracer=tracer))
            finally:
                tracer.remove()
        results = [r for ph in phases for r in ph.results]
        digest, problems = verify_results(env, results)
        ks = op_slowdowns(untraced)
        summary = {
            "workload": workload,
            "seed": seed,
            "ops_per_pass": len(ops),
            "untraced": untraced,
            "setup_times": setup_times,
            "slowdown": (statistics.median(setup_ks), statistics.median(ks)),
            "end_to_end": end_to_end(setup_times, setup_ks, untraced, ks),
            "uncorrected": end_to_end(setup_times, [1.0] * len(setup_ks), untraced, [1.0] * len(ks)),
            "failures": failures(untraced.results),
            "attempted": len(results),
            "failed": sum(1 for r in results if r.outcome in FAIL_KINDS),
            "output_digest": digest,
            "problems": problems,
        }
        if tracer is not None:
            summary["per_layer"] = per_layer(tracer, phases[1], untraced)
            summary["tracer"] = tracer
        return summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # left in place while another run still uses it


def report(s: dict, trace: bool) -> dict:
    """Print the human-readable figures and return the JSON result object."""
    u = s["untraced"]
    e2e = s["end_to_end"]
    n = len(u.results)
    failed_u = sum(sum(v.values()) for v in s["failures"].values())
    raw = s["uncorrected"]
    print(f"workload {s['workload']} seed {s['seed']}: {s['ops_per_pass']} ops per pass, "
          f"{u.passes} untraced pass(es), {u.wall:.3f} s timed, one process, one thread, closed loop")
    print(f"  host slowdown {s['slowdown'][0]:.4f} over set-ups, {s['slowdown'][1]:.4f} over ops "
          f"(medians, from {len(u.cal)} calibration loops in the loop); corrected (uncorrected) figures:")
    print(f"  setup_s      {e2e['setup_s']:.6f} s   ({raw['setup_s']:.6f}; median of set-ups taking "
          + " ".join(f"{t:.4f}" for t in s["setup_times"]) + " s uncorrected)")
    print(f"  edges_per_s  {e2e['edges_per_s']:.3f} 1/s ({raw['edges_per_s']:.3f}; demand edges of completed ops / op time)")
    print(f"  op_p50_ms    {e2e['op_p50_ms']:.4f} ms  ({raw['op_p50_ms']:.4f}; n={n} op samples)")
    print(f"  op_p90_ms    {e2e['op_p90_ms']:.4f} ms  ({raw['op_p90_ms']:.4f}; n={n} op samples)")
    print(f"  failed_frac  {failed_u / n:.6f} frac ({failed_u} of {n} attempted)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.3f} MB")
    for kind, by_detail in s["failures"].items():
        for detail, count in sorted(by_detail.items()):
            print(f"  fail.{kind}: {detail} x{count}")
    print(f"  output_digest {s['output_digest']}")
    for p in s["problems"]:
        print(f"  INCORRECT: {p}")
    if trace:
        for name, (value, unit) in s["per_layer"].items():
            print(f"  {name:36s} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in s["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {
        "correct": not s["problems"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tpb", "__init__.py")):
        print(f"error: no tpb sources under {SRC}; run from the root of a tpb checkout", file=sys.stderr)
        return 2
    s = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        s["tracer"].write(os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    result = report(s, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
