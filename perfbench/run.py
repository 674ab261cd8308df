"""Benchmark of the sublang command line, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 55 --trace 0

The benchmark imports the program from `src/` of the same checkout and
drives `sublang.cli.main(argv)` in this process, one operation at a time
(a closed loop with one client).  Inputs are generated from the seed into
a temporary directory under `perfbench/out/`; every output is checked
outside the timed region.  `--trace 0` reports the end-to-end metrics;
`--trace 1` runs every operation untraced and then traced, checks that
both print the same bytes, and reports the per-layer metrics.  The last
line of standard output is one JSON object; a result file with the run
context is written to `perfbench/out/`.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import inputs
from tracing import FAMILY_PROCEDURES, MONOID_CAP_MESSAGE, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("classify-mix", "generate-in", "verify-all")
SETUP_SAMPLES = 11
TAIL_BEYOND = 10
WATCHDOG_S = 170  # a run that is still going after this stops with an error
# words checked against every window certificate, per alphabet
CERT_WORDS = {"ab": inputs.words_upto("ab", 10), "abc": inputs.words_upto("abc", 7)}
# classify-mix cycle: DFAS_PER_CELL random minimal DFAs per size and
# alphabet, one window-set file per (k, alphabet) cell, one regex per
# alphabet in REGEX_ALPHABETS (see NOTES.md for why the mix is weighted so)
DFA_SIZES = (8, 16, 24, 32)
DFA_ALPHABETS = ("ab", "abc")
DFAS_PER_CELL = 2
SLT_CELLS = ((2, "ab"), (2, "abc"), (3, "ab"), (3, "abc"))
REGEX_ALPHABETS = ("ab",)
# generate-in inputs: witness grammar id and length bound
GENERATE_INPUTS = (("dyck", 16), ("kk(1)", 14), ("kk(2)", 13))

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "ok_share": "share",
    "exact_share": "share",
    "peak_rss_mb": "MB",
}

# span names reported as self seconds per operation
SELF_TIME_SPANS = (
    "formats.parse",
    "regexes.compile",
    "automata.minimize",
    "automata.determinize",
    "automata.equiv",
    "automata.product",
    "automata.enumerate",
    "automata.factor_sets",
    *(f"families.{tag}" for tag in FAMILY_PROCEDURES),
    "families.monoid",
    "slt.is_slt_k",
    "slt.slt_to_dfa",
    "grammars.generate",
    "witnesses.verify_lemma",
    "witnesses.oracle",
)
PER_LAYER_UNITS = {
    "cli.op_s": "s/op",
    "cli.trace_overhead_share": "share",
    **{f"{name}_s": "s/op" for name in SELF_TIME_SPANS},
    "regexes.compile_calls": "count/op",
    "automata.minimize_calls": "count/op",
    "automata.determinize_states": "count/op",
    "families.monoid_builds_per_op": "count/op",
    "families.monoid_size_max": "count",
    "families.monoid_cap_hits": "count/op",
    "families.ORD_budget_exhausted": "count/op",
    "slt.k_tried": "count/op",
    "grammars.words_out": "count/op",
    "grammars.successor_s": "s/op",
    "grammars.candidates": "count/op",
    "grammars.new_ratio": "ratio",
    "grammars.closure_overhead_s": "s/op",
}


def load_program():
    """Import the CLI from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "sublang", "cli.py")):
        raise SystemExit(f"error: no program sources at {os.path.join(SRC, 'sublang')}")
    sys.path.insert(0, SRC)
    import sublang.cli

    if not os.path.abspath(sublang.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported sublang from {sublang.cli.__file__}, not from {SRC}")
    return sublang.cli


def measure_setup_s() -> float:
    """Median wall time of a cold `import sublang.cli` in fresh interpreters."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t = time.perf_counter()\n"
        "import sublang.cli\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# operations and their output checks


@dataclass
class Tally:
    ok: int = 0
    limit: int = 0  # exits at the program's documented monoid cap
    bad: int = 0  # wrong output, unexpected exit code, or traceback
    verdict_rows: int = 0
    unknown_rows: int = 0
    checks: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[int | None, str, str, Tally], str]  # -> "ok" | "limit" | "bad"


_PORCELAIN = re.compile(r"family=(\S+) verdict=(yes|no|unknown)(?: bound=(\d+))?(?: evidence=(.*))?")
_WINDOWS = re.compile(r"k=(\d+) B=\{(.*)\} I=\{(.*)\} E=\{(.*)\} F=\{(.*)\}")


def _parse_porcelain(out: str, verdict_type) -> list:
    entries = []
    for line in out.splitlines():
        m = _PORCELAIN.fullmatch(line)
        if m is None:
            raise ValueError(f"unparsable report line {line!r}")
        evidence = ast.literal_eval(m.group(4)) if m.group(4) else None
        bound = int(m.group(3)) if m.group(3) else None
        entries.append((m.group(1), verdict_type(m.group(2), bound, evidence)))
    return entries


def _words(field_text: str) -> list[str]:
    return ["" if w == "_" else w for w in field_text.split(",") if w]


def classify_check(reference, alphabet: str):
    from sublang import Alphabet, ClassificationReport, Verdict, implication_violations, make_rep
    from sublang.families import FAMILY_BASE_ORDER
    from sublang.slt import slt_membership

    def check(rc, out, err, tally: Tally) -> str:
        if rc == 2 and out == "" and err == f"error: {MONOID_CAP_MESSAGE}\n":
            tally.checks["classify.limit_exit"] += 1
            return "limit"
        if rc != 0:
            return "bad"
        entries = _parse_porcelain(out, Verdict)
        tally.checks["classify.porcelain"] += 1
        names = [name for name, _ in entries]
        slt_rows = len(names) - len(FAMILY_BASE_ORDER) - 1
        expected = [*FAMILY_BASE_ORDER, *(f"SLT{k}" for k in range(1, slt_rows + 1)), "SLT"]
        if slt_rows < 1 or names != expected:
            raise ValueError(f"report rows out of order: {names}")
        report = ClassificationReport(Alphabet.of(alphabet), tuple(entries))
        violations = implication_violations(report)
        tally.checks["classify.implications"] += 1
        if violations:
            raise ValueError(f"hierarchy violations {violations}")
        for name, verdict in entries:
            if name != "SLT" and name.startswith("SLT") and verdict.value == "yes":
                m = _WINDOWS.fullmatch(verdict.evidence or "")
                if m is None:
                    raise ValueError(f"unparsable window certificate {verdict.evidence!r}")
                rep = make_rep(int(m.group(1)), Alphabet.of(alphabet), *(_words(m.group(i)) for i in range(2, 6)))
                for w in CERT_WORDS[alphabet]:
                    if slt_membership(rep, w) != reference.accepts(w):
                        raise ValueError(f"{name} certificate disagrees with the input on {w or '_'!r}")
                tally.checks["classify.slt_certificate"] += 1
        tally.verdict_rows += len(entries)
        tally.unknown_rows += sum(1 for _, v in entries if v.value == "unknown")
        return "ok"

    return check


class ClassifyMix:
    """Per cycle: two random minimal DFAs per size and alphabet, one window-set
    file per (k, alphabet) cell and one random regex, in a seeded order."""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(f"classify-mix:{seed}")
        self.workdir = workdir

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _dfa_op(self, slot: int, rng: random.Random, n: int, alphabet: str) -> Op:
        dfa = inputs.random_minimal_dfa(rng, n, alphabet)
        path = self._write(f"in{slot}.dfa", dfa.text())
        argv = ["classify", "--input", f"dfa:{path}", "--porcelain"]
        return Op(f"dfa{n}-{alphabet}", argv, classify_check(dfa, alphabet))

    def warmup(self) -> Op:
        return self._dfa_op(-1, random.Random(f"classify-mix-warmup:{self.rng.random()}"), 8, "ab")

    def next_cycle(self) -> list[Op]:
        rng = self.rng
        ops = []
        for _ in range(DFAS_PER_CELL):
            for n in DFA_SIZES:
                for alphabet in DFA_ALPHABETS:
                    ops.append(self._dfa_op(len(ops), rng, n, alphabet))
        for k, alphabet in SLT_CELLS:
            sets = inputs.random_window_sets(rng, k, alphabet)
            path = self._write(f"in{len(ops)}.slt", sets.text())
            argv = ["classify", "--input", f"slt:{path}", "--porcelain"]
            ops.append(Op(f"slt{k}-{alphabet}", argv, classify_check(sets, alphabet)))
        for alphabet in REGEX_ALPHABETS:
            expr = inputs.random_regex(rng, alphabet)
            argv = ["classify", "--input", f"regex:{expr}", "--alphabet", alphabet, "--porcelain"]
            ops.append(Op(f"regex-{alphabet}", argv, classify_check(inputs.RegexReference(expr), alphabet)))
        rng.shuffle(ops)
        return ops


class GenerateIn:
    """`generate --mode in` on witness grammars rendered to .cg files; the
    seed sets the order of the three operations in every cycle."""

    def __init__(self, seed: int, workdir: str):
        from sublang.formats import render_grammar
        from sublang.witnesses import build_witness, oracle_words

        self.rng = random.Random(f"generate-in:{seed}")
        self.ops = []
        for wid, max_len in GENERATE_INPUTS:
            stem = re.sub(r"\W", "", wid)
            gdir = os.path.join(workdir, stem)
            os.makedirs(gdir)
            path = os.path.join(gdir, f"{stem}.cg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_grammar(build_witness(wid), gdir))
            expected = "".join(f"{w or '_'}\n" for w in oracle_words(wid, max_len))
            argv = ["generate", "--grammar", path, "--mode", "in", "--max-len", str(max_len)]
            self.ops.append(Op(f"{wid}@{max_len}", argv, self._check(expected)))

    @staticmethod
    def _check(expected: str):
        def check(rc, out, err, tally: Tally) -> str:
            tally.checks["generate.oracle"] += 1
            return "ok" if rc == 0 and err == "" and out == expected else "bad"

        return check

    def warmup(self) -> Op:
        return self.ops[-1]

    def next_cycle(self) -> list[Op]:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops


class VerifyAll:
    """`verify --lemma all` at its default bounds; the command takes no
    input, so the seed only names the result file."""

    def __init__(self, seed: int, workdir: str):
        self.op = Op("verify-all", ["verify", "--lemma", "all"], self._check)

    @staticmethod
    def _check(rc, out, err, tally: Tally) -> str:
        tally.checks["verify.pass_line"] += 1
        lines = out.splitlines()
        return "ok" if rc == 0 and lines and lines[-1] == "PASS" else "bad"

    def warmup(self) -> Op:
        return self.op

    def next_cycle(self) -> list[Op]:
        return [self.op]


WORKLOAD_CLASSES = {"classify-mix": ClassifyMix, "generate-in": GenerateIn, "verify-all": VerifyAll}


def run_op(cli, argv: list[str], tracer: Tracer | None = None) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.enter("cli.op")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback out of the CLI is a failed operation
            rc = None
            traceback.print_exc()
        finally:
            if tracer is not None:
                tracer.exit()
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def judge(op: Op, rc, out: str, err: str, tally: Tally) -> str:
    try:
        outcome = op.check(rc, out, err, tally)
        reason = f"exit {rc}, stderr {err[-300:]!r}"
    except (ValueError, SyntaxError, KeyError) as exc:
        outcome, reason = "bad", str(exc)
    if outcome == "bad" and len(tally.problems) < 20:
        tally.problems.append(f"{op.label}: {reason}")
    return outcome


def replay_successors(tracer: Tracer) -> tuple[float, int, int]:
    """Time the public successor functions over every generated word."""
    from sublang.grammars import external_successors, internal_successors

    seconds, candidates, new_words = 0.0, 0, 0
    for grammar, mode, words in tracer.generated:
        successors = internal_successors if mode == "in" else external_successors
        start = time.perf_counter()
        count = sum(len(successors(grammar, w)) for w in words)
        seconds += time.perf_counter() - start
        candidates += count
        new_words += len(words) - len(set(grammar.axioms) & set(words))
    tracer.generated.clear()
    return seconds, candidates, new_words


@dataclass
class RunResult:
    tally: Tally
    latencies: list[float]
    outcomes: list[tuple[str, float, str]]  # label, seconds, outcome
    traced: list[float]
    cycle_rates: list[float]  # completed operations per second of operation time, per cycle
    wall_s: float
    replay: list  # successor seconds, candidate count, new-word count


def measure(cli, workload, seconds: float, tracer: Tracer | None) -> RunResult:
    warm = workload.warmup()
    rc, out, err, _ = run_op(cli, warm.argv)
    if judge(warm, rc, out, err, Tally()) == "bad":
        raise SystemExit(f"error: warm-up operation {warm.label} failed: exit {rc}, {err[-300:]!r}")
    tally = Tally()
    latencies: list[float] = []
    outcomes: list[tuple[str, float, str]] = []
    traced: list[float] = []
    replay = [0.0, 0, 0]
    cycle_rates: list[float] = []
    start = time.perf_counter()
    while True:
        cycle_s, completed = 0.0, 0
        for op in workload.next_cycle():
            rc, out, err, elapsed = run_op(cli, op.argv)
            latencies.append(elapsed)
            cycle_s += elapsed
            outcome = judge(op, rc, out, err, tally)
            if tracer is not None:
                tracer.install()
                try:
                    rc_t, out_t, err_t, elapsed_t = run_op(cli, op.argv, tracer)
                finally:
                    tracer.uninstall()
                tracer.op += 1
                traced.append(elapsed_t)
                tally.checks["trace.stdout_identical"] += 1
                if out_t != out or rc_t != rc:
                    outcome = "bad"
                    tally.problems.append(f"{op.label}: traced run printed different output")
                for i, value in enumerate(replay_successors(tracer)):
                    replay[i] += value
            outcomes.append((op.label, elapsed, outcome))
            if outcome == "ok":
                tally.ok += 1
            elif outcome == "limit":
                tally.limit += 1
            else:
                tally.bad += 1
            completed += outcome != "bad"
        cycle_rates.append(completed / cycle_s)
        if time.perf_counter() - start >= seconds:
            break
    return RunResult(tally, latencies, outcomes, traced, cycle_rates, time.perf_counter() - start, replay)


# ---------------------------------------------------------------------------
# metrics


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The sample with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)  # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(res: RunResult, setup_s: float) -> tuple[dict, dict]:
    t = res.tally
    attempted = len(res.latencies)
    tail, tail_pct = tail_latency(res.latencies)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": 1000.0 * statistics.median(res.latencies),
        "latency_tail_ms": 1000.0 * tail,
        "throughput_ops_s": statistics.median(res.cycle_rates),
        "ok_share": t.ok / attempted,
        "exact_share": 1.0 - t.unknown_rows / t.verdict_rows if t.verdict_rows else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "samples": attempted,
        "cycles": len(res.cycle_rates),
        "wall_s": res.wall_s,
        "latency_tail_percentile": tail_pct,
        "fail_share": (t.limit + t.bad) / attempted,
        "unknown_share": t.unknown_rows / t.verdict_rows if t.verdict_rows else 0.0,
        "limit_exits": t.limit,
        "wrong_outputs": t.bad,
        "checks": dict(t.checks),
        "problems": t.problems,
    }
    return metrics, info


def per_layer(res: RunResult, tracer: Tracer) -> tuple[dict, dict]:
    ops = len(res.traced)

    def per_op(total: float) -> float:
        return total / ops

    successor_s, candidates, new_words = res.replay
    generate_s = per_op(tracer.self_s["grammars.generate"])
    metrics = {
        "cli.op_s": per_op(sum(res.traced)),
        "cli.trace_overhead_share": sum(res.traced) / sum(res.latencies) - 1.0,
        **{f"{name}_s": per_op(tracer.self_s[name]) for name in SELF_TIME_SPANS},
        "regexes.compile_calls": per_op(tracer.calls["regexes.compile"]),
        "automata.minimize_calls": per_op(tracer.calls["automata.minimize"]),
        "automata.determinize_states": per_op(tracer.counts["automata.determinize_states"]),
        "families.monoid_builds_per_op": per_op(tracer.calls["families.monoid"]),
        "families.monoid_size_max": tracer.maxima.get("families.monoid_size_max", 0),
        "families.monoid_cap_hits": per_op(tracer.counts["families.monoid_cap_hits"]),
        "families.ORD_budget_exhausted": per_op(tracer.counts["families.ORD_budget_exhausted"]),
        "slt.k_tried": per_op(tracer.calls["slt.is_slt_k"]),
        "grammars.words_out": per_op(tracer.counts["grammars.words_out"]),
        "grammars.successor_s": per_op(successor_s),
        "grammars.candidates": per_op(candidates),
        "grammars.new_ratio": new_words / candidates if candidates else 0.0,
        "grammars.closure_overhead_s": generate_s - per_op(successor_s),
    }
    op_total = sum(res.traced)
    shares = {name: tracer.self_s[name] / op_total for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True)}
    info = {"self_time_share": shares, "spans": len(tracer.spans)}
    return metrics, info


def src_line_count() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


class Overtime(BaseException):
    """Raised by the watchdog; unlike SystemExit, no operation wrapper catches it."""


def _overtime(signum, frame) -> None:
    raise Overtime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(WATCHDOG_S)
    cli = load_program()
    setup_s = measure_setup_s()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, workdir)
        res = measure(cli, workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, info = end_to_end(res, setup_s)
    if tracer is None:
        metrics, units = e2e, END_TO_END_UNITS
    else:
        metrics, layer_info = per_layer(res, tracer)
        units = PER_LAYER_UNITS
        info.update(layer_info)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": src_line_count(),
    }
    result = {
        "correct": res.tally.bad == 0,
        "attempted": len(res.latencies),
        "failed": res.tally.bad,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"context": context, **result, "untraced": e2e, "info": info, "ops": res.outcomes}
    if tracer is not None:
        record["spans"] = tracer.spans
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} cycles={len(res.cycle_rates)} wall_s={res.wall_s:.1f}")
    print(
        f"# samples={info['samples']} tail=p{info['latency_tail_percentile']:.1f} "
        f"fail_share={info['fail_share']:.4f} (limit exits {info['limit_exits']}, wrong {info['wrong_outputs']}) "
        f"unknown_share={info['unknown_share']:.4f}"
    )
    print(f"# checks {json.dumps(info['checks'], sort_keys=True)}")
    for problem in info["problems"]:
        print(f"# problem: {problem}")
    for name in units:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    print(f"# result file {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Overtime:
        sys.exit(f"error: run still going after {WATCHDOG_S} s")
