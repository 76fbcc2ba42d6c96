"""Run sets of benchmark runs, summarise them, and compare two sets.

    python3 bench/sweep.py run --seeds 1-10 --out a.jsonl            # all workloads
    python3 bench/sweep.py run --seeds 1-3 --trace 1 --out t.jsonl
    python3 bench/sweep.py summary a.jsonl
    python3 bench/sweep.py compare a.jsonl b.jsonl

``run`` calls bench/run.py once per (seed, workload), one at a time, for
every workload of BENCHMARK.json and its ``run_seconds``, and appends one
JSON line per run.  The seed is the outer loop, so that every workload's
runs share the same stretches of machine time.  ``summary`` prints, per workload and
end-to-end metric, the median of the runs and their spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound.  ``compare`` judges two
sets of runs of the same code: a metric agrees when neither set's spread
exceeds its bound and the medians differ by no more than the bound; otherwise it is unresolved.  Traced runs of one seed in
both sets must report identical counts.  Tune on seeds 1-10; check a claim
on held-out seeds such as 1001-1010.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list:
    seeds = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("info: "):
        raise SystemExit(f"run failed ({workload}, seed {seed}, exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    info = json.loads(lines[-2][len("info: "):])
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "info": info}


def load(path: str) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def by_workload(records: list, trace: int) -> dict:
    groups = defaultdict(list)
    for record in records:
        if record["trace"] == trace:
            groups[record["workload"]].append(record)
    return groups


def values_of(records: list, metric: str) -> list:
    return [r["result"]["metrics"][metric]["value"] for r in records]


def summary(records: list) -> bool:
    """Print medians and spreads; True when every spread is within a third
    of its bound and no run failed an op."""
    steady = True
    for workload, runs in by_workload(records, 0).items():
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} of {attempted} ops failed")
        steady &= failed == 0
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = values_of(runs, name)
            share = spread(values)
            within = not share > bound / 3  # nan: one run
            steady &= within
            print(f"  {name:14s} median {statistics.median(values):.6g} {metric['unit']:6s} "
                  f"spread {share:.4f}  bound {bound}  {'ok' if within else 'WIDE'}")
    for workload, runs in by_workload(records, 1).items():
        print(f"{workload}: {len(runs)} traced runs")
        for metric in SPEC["per_layer"]:
            values = values_of(runs, metric["name"])
            print(f"  {metric['name']:38s} median {statistics.median(values):.6g} {metric['unit']}")
    return steady


def compare(first: list, second: list) -> bool:
    """Print agree/unresolved per workload and metric; True when all agree."""
    all_agree = True
    a_groups, b_groups = by_workload(first, 0), by_workload(second, 0)
    for workload in sorted(set(a_groups) | set(b_groups)):
        a_runs, b_runs = a_groups.get(workload, []), b_groups.get(workload, [])
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if len(a_runs) < 2 or len(b_runs) < 2:
                print(f"{workload:20s} {name:14s} unresolved (fewer than two runs in a set)")
                all_agree = False
                continue
            a, b = values_of(a_runs, name), values_of(b_runs, name)
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = spread(a), spread(b)
            change = mb / ma - 1.0
            agree = abs(change) <= bound and max(sa, sb) <= bound
            all_agree &= agree
            print(f"{workload:20s} {name:14s} {'agree' if agree else 'unresolved':10s} "
                  f"median {ma:.6g} -> {mb:.6g} {metric['unit']} ({change:+.2%}), "
                  f"spread {sa:.3f} / {sb:.3f}, bound {bound}")
    a_traced = {(r["workload"], r["seed"]): r for r in first if r["trace"] == 1}
    for record in second:
        key = (record["workload"], record["seed"])
        if record["trace"] != 1 or key not in a_traced:
            continue
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count/op"]
        differ = [name for name in counts
                  if values_of([a_traced[key]], name) != values_of([record], name)]
        all_agree &= not differ
        print(f"{key[0]:20s} seed {key[1]} traced counts "
              f"{'identical' if not differ else 'differ: ' + ', '.join(differ)}")
    return all_agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads over seeds and append to a JSONL file")
    run.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 1,5,9")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    sub.add_parser("summary").add_argument("runs")
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return 0 if compare(load(args.first), load(args.second)) else 1
    if args.command == "summary":
        return 0 if summary(load(args.runs)) else 1
    records = []
    for seed in args.seeds:
        for workload in (w["name"] for w in SPEC["workloads"]):
            record = run_once(workload, seed, args.trace)
            records.append(record)
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            result = record["result"]
            shown = ", ".join(f"{k}={v['value']:.5g} {v['unit']}"
                              for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown}, "
                  f"fail_rate={result['failed'] / result['attempted']:.3g}", flush=True)
    return 0 if summary(records) else 1


if __name__ == "__main__":
    sys.exit(main())
