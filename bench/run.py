"""Benchmark of the stationary, oracle and closed-form discord paths.

    python3 bench/run.py --workload random_mixed --seed 1 --seconds 1 --trace 0

Runs one workload in this process with BLAS pinned to one thread, times the
public entry point ``discord(rho, method=...)``, checks every output against
``reference.py`` outside the timed region, and prints a summary followed by
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Each run also writes its full record, and with ``--trace 1``
its spans, to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import time

#: Process start, as near as this module can see it; set-up is timed from here.
T_START = time.perf_counter()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "qdiscord" / "__init__.py").is_file():
    sys.exit(f"error: package source {SRC / 'qdiscord'} not found; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import reference  # noqa: E402
from qdiscord import bloch, choi, correlations, qmat, xstate  # noqa: E402
from speed import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Child processes timed to measure set-up; the median is reported.
SETUP_SAMPLES = 9
#: With fewer states than this the tail is the slowest state.
TAIL_MIN_STATES = 40


@dataclass(frozen=True)
class Workload:
    build: object  # seed -> list of corpus.State
    primary: str  # discord() method under test
    x_pattern: bool  # local copies must keep the X entry pattern
    warmup: int  # index of the state solved once during set-up


WORKLOADS = {
    "random_mixed": Workload(corpus.random_mixed, "stationary", False, -1),
    "xstate_closed_form": Workload(corpus.xstate_closed_form, "xstate_analytic", True, 0),
    "near_singular": Workload(corpus.near_singular, "stationary", False, -1),
}
METHOD_INDEX = {"stationary": 0, "oracle": 1, "xstate_analytic": 2}
#: Operations that fail on every run because of a fault in the program, with
#: the one check they are allowed to fail and by how much C may fall below
#: the reference's coarse maximum.  At eps = 1e-3 and 1e-4 the stationary
#: solver keeps the decomposition-frame polar candidate and misses both the
#: original-frame pole and the narrow maximum at theta ~ 0.7 eps, so C is
#: low by 1.5e-7 and 1.5e-9.  Any other failure of these solves, or a larger
#: deficit, is unexpected.
KNOWN_FAULTS = {
    ("near_singular", "eps1e-03", "stationary"): 2e-7,
    ("near_singular", "eps1e-04", "stationary"): 2e-9,
}

LAYERS = [
    (qmat, "check_density_matrix"),
    (choi, "decompose"),
    (bloch, "affine_from_kraus"),
    (bloch, "fold_angles"),
    (correlations, "mutual_information"),
    (correlations, "find_stationary_points"),
    (correlations, "universal_candidates"),
    (correlations, "grid_oracle"),
    (xstate, "x_params"),
    (xstate, "analytic_discord_x"),
]
#: per-layer metric -> (span name, total or self time, solves it is read from)
LAYER_METRICS = {
    "correlations.find_stationary_points_self_ms": ("correlations.find_stationary_points", "self", "primary"),
    "correlations.universal_candidates_ms": ("correlations.universal_candidates", "total", "primary"),
    "correlations.grid_oracle_ms": ("correlations.grid_oracle", "total", "oracle"),
    "qmat.check_density_matrix_ms": ("qmat.check_density_matrix", "total", "primary"),
    "choi.decompose_ms": ("choi.decompose", "total", "primary"),
    "bloch.affine_from_kraus_ms": ("bloch.affine_from_kraus", "total", "primary"),
    "bloch.fold_angles_ms": ("bloch.fold_angles", "total", "primary"),
    "correlations.mutual_information_ms": ("correlations.mutual_information", "total", "primary"),
    "xstate.x_params_ms": ("xstate.x_params", "total", "primary"),
    "xstate.analytic_discord_x_self_ms": ("xstate.analytic_discord_x", "self", "primary"),
}
UNITS = {"setup_s": "s", "states_per_s": "1/s", "peak_rss_mb": "MB", "correlations.stationary_points": "count"}


@dataclass
class Op:
    """One timed call of discord() on one local copy of one state."""

    state: int
    method: str
    rho: np.ndarray
    start: float
    seconds: float  # wall time
    report: object = None  # None: the closed form declined the state
    error: str = ""
    root: int | None = None  # root span in the traced run
    failed: list = field(default_factory=list)
    deficit: float = 0.0  # reference coarse maximum minus the reported C
    ref_seconds: float = 0.0  # wall time at the reference speed


def solve(rho, method):
    """(start, seconds, report, error) of one discord() call."""
    t0 = time.perf_counter()
    report, error = None, ""
    try:
        report = correlations.discord(rho, method=method)
    except xstate.NotApplicableError:
        pass
    except Exception as exc:  # counted as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return t0, time.perf_counter() - t0, report, error


def setup(name, seed):
    """Input generation and one warm-up solve; imports happened above."""
    wl = WORKLOADS[name]
    states = wl.build(seed)
    solve(corpus.local_copy(states[wl.warmup].rho, [seed], wl.x_pattern), wl.primary)
    return wl, states


def setup_only(name, seed):
    """Set up and print the wall time since this module started."""
    setup(name, seed)
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))


def setup_seconds(name, seed):
    """Median set-up time of fresh processes that import, generate and warm
    up, each timed from within.  Not rescaled by the calibration kernel:
    set-up is mostly imports, which run only 0.85x as long in a core's fast
    mode while the kernel runs 0.6x as long, so rescaling would add noise."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    runs = [
        json.loads(subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    return statistics.median(runs)


def grad_probe(tracer, rho, report):
    """One gradient at the report's best point, in the decomposition frame."""
    if report is None or not report.stationary_points:
        return
    with tracer.span("probe"):
        d = choi.decompose(rho)
        ch = bloch.affine_from_kraus(d.kraus)
        best = report.stationary_points[0]
        with tracer.span("correlations.grad_objective"):
            correlations.grad_objective(ch, d.gamma, best.theta, best.phi)


def run_round(wl, states, seed, rnd, tracer):
    """Passes over the corpus, the primary method's and the oracle's in
    turn; pass c solves copy c of every state that has one, in an order
    drawn from the seed.  A burst of slow machine time then lands on one
    copy of each state it covers, at a different place in each pass, which
    the state's median drops, and a method's copies are spread over the
    whole round rather than over one stretch of the machine's speed."""
    ops = []
    copies = {wl.primary: [st.copies for st in states], "oracle": [st.oracle for st in states]}
    for c in range(max(max(n) for n in copies.values())):
        for m, n in copies.items():
            order = np.random.default_rng([seed, rnd, c, METHOD_INDEX[m]]).permutation(len(states))
            for i in order.tolist():
                if c < n[i]:
                    ops.append(solve_copy(wl, states[i].rho, [seed, rnd, c, i, METHOD_INDEX[m]], i, m, tracer))
    return ops


def solve_copy(wl, base, seed_words, i, m, tracer):
    rho = corpus.local_copy(base, seed_words, wl.x_pattern)
    if tracer is None:
        return Op(i, m, rho, *solve(rho, m))
    tracer.state = i
    with tracer.span(f"solve.{m}") as root:
        op = Op(i, m, rho, *solve(rho, m), root=root)
    if m == wl.primary:
        grad_probe(tracer, rho, op.report)
    return op


def check_ops(wl, states, ops):
    """Fill ``op.failed`` with the names of the checks each op fails."""
    first_q, coarse_max, by_state = {}, {}, defaultdict(list)
    for op in ops:
        if op.error:
            op.failed.append(op.error)
            continue
        if op.method == "xstate_analytic":
            expected = reference.closed_form_declines(reference.x_shape_parameter(op.rho))
            if expected is not None and expected != (op.report is None):
                op.failed.append("declined_outside_gap" if op.report is None else "accepted_inside_gap")
        if op.report is None:
            continue
        ref = reference.Reference(op.rho, coarse_max.get(op.state))
        coarse_max[op.state] = ref.coarse_max
        op.failed += ref.check(op.report, states[op.state].bell)
        op.deficit = ref.coarse_max - op.report.classical_corr
        q = op.report.discord
        key = (op.state, op.method)
        if key not in first_q:
            first_q[key] = q
        elif not reference.copies_agree(first_q[key], q):
            op.failed.append("lu_copies")
        by_state[op.state].append(op)
    for state_ops in by_state.values():
        oracle_q = [op.report.discord for op in state_ops if op.method == "oracle"]
        for op in state_ops:
            if op.method == wl.primary and not all(reference.methods_agree(op.report.discord, q) for q in oracle_q):
                op.failed.append("oracle_mismatch")


def known_fault(workload, label, op):
    """Whether ``op`` fails only as the known fault of its state allows."""
    limit = KNOWN_FAULTS.get((workload, label, op.method))
    return limit is not None and op.failed == ["below_coarse_max"] and op.deficit <= limit


def p50(values):
    return statistics.median(values)


def per_state(pairs):
    """Each state's median value, from ``(state, value)`` pairs."""
    values = defaultdict(list)
    for state, value in pairs:
        values[state].append(value)
    return [p50(v) for v in values.values()]


def tail(values):
    """Highest percentile with at least ten states beyond it; the slowest
    state when there are too few states for such a percentile."""
    v = sorted(values)
    return v[len(v) - 11] if len(v) >= TAIL_MIN_STATES else v[-1]


def end_to_end(wl, ops, attr="ref_seconds"):
    prim = per_state((op.state, getattr(op, attr)) for op in ops if op.method == wl.primary)
    orc = per_state((op.state, getattr(op, attr)) for op in ops if op.method == "oracle")
    prim_solves = [getattr(op, attr) for op in ops if op.method == wl.primary]
    return {
        "solve_p50_ms": 1e3 * p50(prim),
        "solve_tail_ms": 1e3 * tail(prim),
        "oracle_p50_ms": 1e3 * p50(orc),
        "oracle_tail_ms": 1e3 * tail(orc),
        "states_per_s": len(prim_solves) / sum(prim_solves),
    }


def per_layer(wl, ops, speed, tracer):
    """Per-state p50 of each layer's time per solve at the reference speed,
    read from the spans, as the end-to-end metrics take it."""
    times = tracer.layer_times()
    out = {}
    for metric, (span, kind, source) in LAYER_METRICS.items():
        method = wl.primary if source == "primary" else source
        vals = per_state(
            (op.state, times[op.root][0 if kind == "total" else 1][span] * op.ref_seconds / op.seconds)
            for op in ops
            if op.method == method and span in times[op.root][0]
        )
        out[metric] = 1e3 * p50(vals) if vals else 0.0
    probes = per_state(
        (state, speed.to_ref(start, end - start))
        for name, start, end, _, state in tracer.spans
        if name == "correlations.grad_objective"
    )
    out["correlations.grad_objective_ms"] = 1e3 * p50(probes) if probes else 0.0
    counts = per_state(
        (op.state, len(op.report.stationary_points)) for op in ops if op.method == "stationary" and op.report
    )
    out["correlations.stationary_points"] = p50(counts) if counts else 0
    prim = per_state((op.state, op.ref_seconds) for op in ops if op.method == wl.primary)
    out["trace.solve_p50_ms"] = 1e3 * p50(prim)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument(
        "--seconds", type=float, default=1.0, help="whole rounds repeat until at least this much time has passed"
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    wl, states = setup(args.workload, args.seed)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.instrument(LAYERS)
    ops, rounds = [], 0
    deadline = time.perf_counter() + args.seconds
    with Speed() as speed:
        while not rounds or time.perf_counter() < deadline:
            ops += run_round(wl, states, args.seed, rounds, tracer)
            rounds += 1
    for op in ops:
        op.ref_seconds = speed.to_ref(op.start, op.seconds)
    check_ops(wl, states, ops)

    metrics = per_layer(wl, ops, speed, tracer) if tracer else end_to_end(wl, ops)
    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = [op for op in ops if op.failed]
    unexpected = [op for op in failed if not known_fault(args.workload, states[op.state].label, op)]
    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            k: {"value": v, "unit": UNITS.get(k, "ms")} for k, v in sorted(metrics.items())
        },
    }

    record = dict(result, workload=args.workload, seed=args.seed, rounds=rounds, states=len(states))
    record["wall_metrics"] = end_to_end(wl, ops, "seconds")
    record["kernel_runs"] = speed.runs
    record["ops"] = [(states[op.state].label, op.method, op.start, op.seconds, op.ref_seconds) for op in ops]
    record["failures"] = [
        {"state": states[op.state].label, "method": op.method, "checks": op.failed, "deficit": op.deficit}
        for op in failed
    ]
    if tracer:
        record["spans"] = tracer.dump()
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(f"workload {args.workload}: {len(states)} states, {rounds} round(s), seed {args.seed}")
    for k, m in result["metrics"].items():
        print(f"  {k:48s} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for f in record["failures"][:10]:
        print(f"  failed: {f['state']} {f['method']}: {', '.join(f['checks'])} (C {f['deficit']:.2e} below)")
    print(f"  record: {out_file.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
