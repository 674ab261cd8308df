"""CLI output pinned byte for byte against recorded golden files.

Each case runs `sublang.cli.main` in process and compares stdout with
`tests/golden/<name>.txt`.  The files were recorded before the closure
families moved from NFA subset construction to walks on the DFA, and
before the transition monoid and the ORD cover search got their faster
inner loops, so they hold the verdicts, evidence strings and report
layout those changes kept.  The ORD rows of two inputs were re-recorded
where a search that had run out of its node budget began to finish, with
the same verdict and bound: each read `search budget exhausted` before.
For `regex:aababbb(b|a)b` an orientation conflict began to settle chain
length n; for `prefix-suffix-abc.slt` the cover search's position bound
let the search at length 9 end with budget left.  The budget accounting
of that search is pinned by an exact trial count in `test_families.py`,
re-recorded when the bound gained the images of the unplaced labels and
again when it gained its cross-letter term, each time with the same
verdict.  `ord-tail-abc.slt`, the slowest ORD search of a classify-mix
run, was recorded before the cross-letter term; its trial counts are
pinned in `test_families.py` too.
The grammar samples (`*.cg`) are not languages and have no classify report;
their `generate` output was recorded before generation moved from a heap
to length layers over one successor kernel.  The `enumerate`, `convert`
and `compare` cases were recorded before determinization, products,
distance pruning, cycle search and the window sets moved onto shared
graph searches.  `verify-all-porcelain` and the `generate` cases of
`witness-kk2.cg` and `witness-dyck.cg` (the `kk(2)` and `dyck` witnesses
written out by `formats.render_grammar`) were recorded before the
successor kernel began to build and check each step in place.
`classify-regex-a_or_b_star_a19` was recorded while the SLT sweep still
walked one window node per window string and re-proved each "yes" by
construct-and-compare, before window nodes were keyed by their suffix
images.
"""

import os
import time

import pytest

from sublang.cli import main

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
SAMPLES = os.path.join(HERE, "..", "samples")
SAMPLE_KINDS = {".dfa": "dfa", ".slt": "slt"}

CASES = {
    f"classify-{name}": [
        "classify",
        "--porcelain",
        "--input",
        f"{SAMPLE_KINDS[os.path.splitext(name)[1]]}:{os.path.join(SAMPLES, name)}",
    ]
    for name in sorted(os.listdir(SAMPLES))
    if os.path.splitext(name)[1] in SAMPLE_KINDS
}
CASES.update(
    {
        "classify-regex-a_or_abstar_a": ["classify", "--porcelain", "--input", "regex:a|ab*a"],
        "classify-regex-ab_abstar": ["classify", "--porcelain", "--input", "regex:ab(ab)*"],
        "classify-regex-b_or_abstar_a_star": ["classify", "--porcelain", "--input", "regex:(b|ab*a)*"],
        # ORD settles its only chain length, n = 11, by an orientation conflict
        "classify-regex-aababbb_b_or_a_b": ["classify", "--porcelain", "--input", "regex:aababbb(b|a)b"],
        "verify-all": ["verify", "--lemma", "all"],
        "verify-all-porcelain": ["verify", "--lemma", "all", "--porcelain"],
        "enumerate-witness-l-abna-8": ["enumerate", "--input", "witness:l-abna", "--max-len", "8"],
        "enumerate-regex-ab_or_ba_star_a-7": [
            "enumerate",
            "--input",
            "regex:(ab|ba)*a",
            "--alphabet",
            "ab",
            "--max-len",
            "7",
        ],
        "convert-definite-a_ab-b": ["convert", "--definite", "a,ab", "b", "--alphabet", "a b"],
        "compare-dyck-oracle-dyck-12": [
            "compare",
            "--left",
            f"grammar-in:{os.path.join(SAMPLES, 'dyck.cg')}",
            "--right",
            "oracle:dyck",
            "--max-len",
            "12",
            "--porcelain",
        ],
    }
)
GENERATE_CASES = (
    ("dyck", "in", 10),
    ("dyck", "ex", 10),
    ("insertion", "in", 12),
    ("witness-kk2", "in", 12),
    ("witness-dyck", "in", 12),
)
for grammar, mode, max_len in GENERATE_CASES:
    CASES[f"generate-{grammar}-{mode}-{max_len}"] = [
        "generate",
        "--grammar",
        os.path.join(SAMPLES, f"{grammar}.cg"),
        "--mode",
        mode,
        "--max-len",
        str(max_len),
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    assert code == 0


def test_generate_step_cap_output_matches_golden(capsys):
    # the partial set printed when the step cap runs out, and its exit code
    argv = ["generate", "--grammar", os.path.join(SAMPLES, "dyck.cg"), "--mode", "in"]
    code = main(argv + ["--max-len", "8", "--step-cap", "3"])
    captured = capsys.readouterr()
    with open(os.path.join(GOLDEN, "generate-dyck-in-8-step-cap-3.txt"), encoding="utf-8", newline="") as fh:
        assert captured.out == fh.read()
    assert captured.err == "error: step cap exhausted after 3 expansions\n"
    assert code == 1


def test_definite_sweep_to_the_window_space_matches_golden_quickly(capsys):
    """`(a|b)*a^19` is definite, so its SLT sweep runs to the end of the
    window space, k = 18, with a "no" at every k.  One node per window
    string made it take about 2 s in process; nodes keyed by suffix images,
    shared across k, take a small share of the 0.5 s allowed here."""
    start = time.perf_counter()
    code = main(["classify", "--porcelain", "--input", "regex:(a|b)*aaaaaaaaaaaaaaaaaaa"])
    elapsed = time.perf_counter() - start
    with open(os.path.join(GOLDEN, "classify-regex-a_or_b_star_a19.txt"), encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == 0
    assert elapsed < 0.5, f"{elapsed:.2f} s"
