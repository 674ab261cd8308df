"""Reduced-size smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs every workload for one short run (at least one full cycle) with
tracing off and on, and checks that each prints exactly the metric names
and units that BENCHMARK.json declares, that every output check ran, and
that no operation failed.  It also checks that the benchmark refuses to
run, without printing a result, in a directory that holds only
BENCHMARK.json and perfbench/.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "0.5"
# output checks each workload must run at least once
CHECKS = {
    "classify-mix": ("classify.porcelain", "classify.implications", "classify.slt_certificate", "classify.limit_exit"),
    "generate-in": ("generate.oracle",),
    "verify-all": ("verify.pass_line",),
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{where}: {name} is not a number")
    with open(os.path.join(HERE, "out", f"{workload}-seed1-trace{trace}.json"), encoding="utf-8") as fh:
        checks = json.load(fh)["info"]["checks"]
    expected = CHECKS[workload] + (("trace.stdout_identical",) if trace else ())
    errors.extend(f"{where}: output check {c} never ran" for c in expected if not checks.get(c))
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/ present: no program, so no result."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run(bare, "verify-all", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for workload in CHECKS:
        for trace in (0, 1):
            errors.extend(check_run(spec, workload, trace))
            print(f"ran {workload} trace={trace}", flush=True)
    errors.extend(check_bare_directory())
    for e in errors:
        print(f"FAIL {e}")
    print("smoke run: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
