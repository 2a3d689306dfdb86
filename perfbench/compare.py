"""Collect sets of benchmark runs and compare them.

Collect one set (one run per seed, one after another)::

    python3 perfbench/compare.py collect --workload http-2k-mapped \\
        --seeds 1-10 --out .perfbench_records/a.jsonl

Summarize one set, or compare two (each file may hold several
workloads)::

    python3 perfbench/compare.py show .perfbench_records/a.jsonl
    python3 perfbench/compare.py diff .perfbench_records/a.jsonl .perfbench_records/b.jsonl

For every workload and metric the table gives each side's median and
quartiles (``statistics.quantiles(values, n=4)``), the spread (the
distance between the quartiles as a share of the median), and the
change of the second median against the first in the metric's worse
direction.  ``ok`` means the spread is within the metric's bound from
``BENCHMARK.json`` and, in ``diff``, that the second median is not
worse than the first by more than the bound.  The share of failed
operations must be identical between the two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load(path) -> dict:
    """``{workload: [record, ...]}`` from one JSON-lines file."""
    runs: dict[str, list] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def bounds(trace: bool) -> dict:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m for m in metrics}


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def failed_share(records) -> tuple[int, int]:
    return (sum(r["result"]["failed"] for r in records),
            sum(r["result"]["attempted"] for r in records))


def table(first: dict, second: dict | None) -> bool:
    ok_all = True
    for workload, records in first.items():
        trace = bool(records[0].get("trace"))
        spec = bounds(trace)
        others = second.get(workload, []) if second else []
        if second is not None and not others:
            print(f"{workload}: missing from the second set")
            ok_all = False
            continue
        print(f"\n{workload} ({len(records)} runs"
              + (f" vs {len(others)} runs" if others else "") + ")")
        head = f"{'metric':28} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
        if others:
            head += f" | {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'worse':>7}"
        print(head + f" {'bound':>6}  ok")
        for name, meta in spec.items():
            bound = meta.get("bound")
            line, ok = _row(name, meta, bound, records, others)
            ok_all &= ok
            print(line)
        a_failed, a_attempted = failed_share(records)
        line = f"failed {a_failed}/{a_attempted}"
        if others:
            b_failed, b_attempted = failed_share(others)
            same = a_failed * b_attempted == b_failed * a_attempted
            ok_all &= same
            line += f" vs {b_failed}/{b_attempted}: {'same share' if same else 'DIFFERENT share'}"
        correct = all(r["result"]["correct"] for r in records + others)
        ok_all &= correct
        print(line + ("" if correct else "  (a run reported correct=false)"))
    return ok_all


def _row(name, meta, bound, records, others):
    values = [r["result"]["metrics"][name]["value"] for r in records]
    med, q1, q3, spread = stats(values)
    ok = bound is None or spread <= bound
    line = f"{name:28} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f}"
    if others:
        values_b = [r["result"]["metrics"][name]["value"] for r in others]
        med_b, q1_b, q3_b, spread_b = stats(values_b)
        sign = 1.0 if meta["better"] == "lower" else -1.0
        worse = sign * (med_b - med) / abs(med) if med else float("inf")
        ok &= bound is None or spread_b <= bound
        ok &= bound is None or worse <= bound
        line += f" | {med_b:11.5g} {q1_b:11.5g} {q3_b:11.5g} {spread_b:7.3f} {worse:+7.3f}"
    line += f" {bound if bound is not None else '-':>6}  {'yes' if ok else 'NO'}"
    return line, ok


def collect(args) -> int:
    lo, _, hi = args.seeds.partition("-")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    for seed in range(int(lo), int(hi or lo) + 1):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        notes = [line for line in proc.stderr.splitlines()
                 if line.startswith(f"{args.workload} seed=")]
        record = {"workload": args.workload, "seed": seed, "trace": args.trace,
                  "note": notes[-1] if notes else "", "result": result}
        with out.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        print(f"{args.workload} seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("collect", help="run one seed range, append records")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    run.add_argument("--seconds", type=int, default=None)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    show = sub.add_parser("show", help="summarize one set of records")
    show.add_argument("records")
    diff = sub.add_parser("diff", help="compare two sets of records")
    diff.add_argument("first")
    diff.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args)
    if args.command == "show":
        return 0 if table(load(args.records), None) else 1
    return 0 if table(load(args.first), load(args.second)) else 1


if __name__ == "__main__":
    sys.exit(main())
