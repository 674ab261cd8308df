"""Run every workload once and print its metrics as one table.

    python3 perfbench/report.py --seed 1 --seconds 55            # end-to-end metrics
    python3 perfbench/report.py --seed 1 --seconds 55 --trace 1  # per-layer metrics

Each workload runs in its own process through perfbench/run.py, so peak
memory is per workload.  With `--trace 1` the table holds the per-layer
metrics, including `cli.trace_overhead_share` (traced against untraced
time of the same operations), followed by each workload's largest
self-time shares.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classify-mix", "generate-in", "verify-all")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"error: {workload} exited {done.returncode}\n{done.stderr}")
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    records = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    first = records[WORKLOADS[0]]
    print(f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}, "
          f"python {first['context']['python']}, nproc {first['context']['nproc']}, "
          f"src lines {first['context']['src_lines']}")
    header = f"{'metric':34s} {'unit':9s}" + "".join(f" {w:>14s}" for w in WORKLOADS)
    print(header)
    print("-" * len(header))
    for name, entry in first["metrics"].items():
        cells = "".join(f" {records[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(f"{name:34s} {entry['unit']:9s}{cells}")
    print("-" * len(header))
    info_rows = ("samples", "latency_tail_percentile", "fail_share", "unknown_share", "limit_exits", "wrong_outputs")
    for key in info_rows:
        cells = "".join(f" {records[w]['info'][key]:14.6g}" for w in WORKLOADS)
        print(f"{key:34s} {'':9s}{cells}")
    correct = "".join(f" {str(records[w]['correct']):>14s}" for w in WORKLOADS)
    print(f"{'correct':34s} {'':9s}{correct}")
    if args.trace:
        for w in WORKLOADS:
            shares = list(records[w]["info"]["self_time_share"].items())[:6]
            print(f"{w} self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
