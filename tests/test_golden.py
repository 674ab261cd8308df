"""CLI output pinned byte for byte against recorded golden files.

Each case runs `sublang.cli.main` in process and compares stdout with
`tests/golden/<name>.txt`.  The files were recorded before the closure
families moved from NFA subset construction to walks on the DFA, and
before the transition monoid and the ORD cover search got their faster
inner loops, so they hold the verdicts, evidence strings and report
layout those changes kept.
The grammar samples (`*.cg`) are not languages and have no classify report.
"""

import os

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
        # ORD runs out of its cover-search node budget: pins the budget accounting
        "classify-regex-aababbb_b_or_a_b": ["classify", "--porcelain", "--input", "regex:aababbb(b|a)b"],
        "verify-all": ["verify", "--lemma", "all"],
    }
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    assert code == 0
