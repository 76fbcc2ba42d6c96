"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload newton-urysohn --seed 1 --seconds 55 --trace 0

The library is imported from ``src/`` next to this directory.  The run is a
closed loop with one client: each op starts when the previous one ended,
and ops start until the next one would end after ``--seconds`` of op time
(at least one op; a traced run at least the workload's ``trace_ops``).
The set-up probes behind ``setup_s`` run between ops and are not counted.  Every op is
checked against the paper's orders; a wrong answer or an exception counts
as a failed op and the run goes on.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs each op twice, untraced and traced in alternating order,
and prints the per-layer metrics: the traced counts and self times are per
op over the first ``trace_ops`` ops, which a seed fixes, so counts repeat
exactly; ``trace.overhead`` compares the two halves of the pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it,
``info: {...}``, records the machine, the drawn gammas and every op.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the thread count alone changes the Newton
# numbers (np.linalg.cond on 240x240 takes 25 ms with 2 OpenBLAS threads and
# 6.8 ms with 1 on a 2-core machine).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 12
# Setup builds its problem at the paper's gamma, outside the drawn sequence.
SETUP_GAMMA = math.sqrt(12.0)
LAYER_FIELDS = {"calls": "calls", "points": "work", "self_s": "self_s", "total_s": "total_s"}


def import_library():
    """Import urysohn from this checkout's src/, never from elsewhere."""
    if not (SRC / "urysohn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import urysohn

    if Path(urysohn.__file__).resolve().parent != SRC / "urysohn":
        raise SystemExit(f"bench: urysohn imported from {urysohn.__file__}, not {SRC}")
    return urysohn


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": int(BLAS_THREADS),
            "machine": platform.machine()}


def run_op(workload, gamma: float, ctx) -> dict:
    """One op, timed including its correctness check."""
    gc.collect()  # start every op with the same collector state
    cpu0, start = time.process_time(), time.perf_counter()
    try:
        detail = workload.op(gamma, ctx)
    except Exception as exc:  # a failed op is counted and the run goes on
        traceback.print_exc(file=sys.stderr)
        detail = {"ok": False, "error": f"{type(exc).__name__}: {exc}"[:200]}
    wall = time.perf_counter() - start
    return {"gamma": gamma, "wall_s": wall, "cpu_s": time.process_time() - cpu0, **detail}


def closed_loop(step, seconds: float, min_steps: int, between=None) -> float:
    """Call step(i) back to back while the next call, at the median duration
    so far, would still end within ``seconds`` of step time.  ``between``,
    if given, is called with the step time so far before each step; its own
    time is not counted.  Returns the step time."""
    durations = []
    while (len(durations) < min_steps
           or sum(durations) + statistics.median(durations) <= seconds):
        if between is not None:
            between(sum(durations))
        began = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - began)
    return sum(durations)


def tail(times: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the median while fewer than 21 samples leave none above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), 50.0


def setup_probe(args) -> float:
    """Seconds for a fresh interpreter to import the library and set up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def untraced_run(args, workload, ctx, gammas) -> tuple:
    workload.setup(SETUP_GAMMA, ctx)
    setup = []

    def probe_due(step_s):
        # Probes are spread evenly over the timed loop, so that setup_s sees
        # the same stretch of machine time as the ops do.
        while len(setup) < SETUP_PROBES and len(setup) * args.seconds / SETUP_PROBES <= step_s:
            setup.append(setup_probe(args))

    records = []
    elapsed = closed_loop(lambda i: records.append(run_op(workload, next(gammas), ctx)),
                          args.seconds, 1, probe_due)
    probe_due(math.inf)
    times = [r["wall_s"] for r in records]
    ok = sum(r["ok"] for r in records)
    tail_s, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": ok / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": ok / len(records),
    }
    notes = {"setup_probes_s": setup, "tail_percentile": tail_pct, "ops": len(records),
             "timed_s": elapsed}
    return records, values, notes


def traced_run(args, workload, ctx, gammas, layer_metrics) -> tuple:
    from tracing import Tracer, aggregate

    tracer = Tracer()
    workload.setup(SETUP_GAMMA, ctx)
    records = []

    def pair(i):
        gamma = next(gammas)
        traced_first = i % 2 == 1
        for traced in (traced_first, not traced_first):
            mark = len(tracer.spans)
            tracer.op = i
            ctx.tracer = tracer if traced else None
            if traced:
                tracer.install()
            try:
                record = run_op(workload, gamma, ctx)
            finally:
                tracer.uninstall()
                ctx.tracer = None
            record["traced"] = traced
            records.append(record)
            if traced and i >= workload.trace_ops:
                del tracer.spans[mark:]  # only the first trace_ops ops are reported

    closed_loop(pair, args.seconds, workload.trace_ops)
    counted = set(range(workload.trace_ops))
    layers = aggregate(tracer.spans, counted)
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    per_op = workload.trace_ops
    values = {
        "process.cpu_per_wall": sum(r["cpu_s"] for r in untraced) / sum(r["wall_s"] for r in untraced),
        "trace.overhead": (statistics.median(r["wall_s"] for r in traced)
                           / statistics.median(r["wall_s"] for r in untraced) - 1.0),
        "solver.iterations": layers.get("solver.solve_galerkin", {}).get("work", 0) / per_op,
    }
    absent = []
    for metric in layer_metrics:
        layer, _, field = metric.rpartition(".")
        if field in LAYER_FIELDS:
            values[metric] = layers.get(layer, {}).get(LAYER_FIELDS[field], 0) / per_op
            if layer not in tracer.layers:
                absent.append(layer)
    op_s = sum(r["wall_s"] for r in traced[:per_op]) / per_op
    shares = {name: round(entry["self_s"] / per_op / op_s, 4)
              for name, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])}
    write_spans(args, tracer.spans)
    notes = {"traced_ops_reported": per_op, "pairs": len(traced), "absent": sorted(set(absent)),
             "self_share_of_traced_op": shares}
    return records, values, notes


def write_spans(args, spans) -> None:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write("name,op,parent,start,end,work\n")
        for name, op, parent, start, end, work in spans:
            handle.write(f"{name},{op},{parent},{start:.9f},{end:.9f},{work}\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, then exit (used to time setup)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_library()
    from workloads import WORKLOADS, OpContext, gamma_stream

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ctx = OpContext(workdir)
        if args.setup_only:
            workload.setup(SETUP_GAMMA, ctx)
            return 0
        gammas = gamma_stream(args.seed)
        if args.trace:
            names = spec["per_layer"]
            records, values, notes = traced_run(args, workload, ctx, gammas,
                                                [m["name"] for m in names])
        else:
            records, values, notes = untraced_run(args, workload, ctx, gammas)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} fail_rate = {failed / len(records):.6g} ({failed} of {len(records)} ops)")
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "env": environment(),
            "gammas": [round(r["gamma"], 6) for r in records], **notes,
            "op_records": records}
    print("info: " + json.dumps(info, default=float))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
