import contextlib
import io
import os
import shlex
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import sublang
from sublang import automata
from sublang.cli import main
from sublang.formats import parse_slt_text

DYCK_FILE = """alphabet c d
axiom _
pair
  select regex (c|d)*
  family MON
  context c , d
end
"""


@pytest.fixture()
def dyck_path(tmp_path):
    p = tmp_path / "dyck.cg"
    p.write_text(DYCK_FILE, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_dyck(capsys, dyck_path):
    code, out, _ = run(capsys, "generate", "--grammar", dyck_path, "--mode", "in", "--max-len", "4")
    assert code == 0
    assert out.splitlines() == ["_", "cd", "ccdd", "cdcd"]


def test_classify_regex(capsys):
    code, out, _ = run(capsys, "classify", "--input", "regex:a|ab*a")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("SLT1 yes") for line in lines)
    assert any(line.startswith("DEF no") for line in lines)


def test_classify_porcelain(capsys):
    code, out, _ = run(capsys, "classify", "--input", "regex:ab*a", "--porcelain")
    assert code == 0
    assert "family=UF verdict=yes" in out


def write_dfa(path, accept, rows) -> str:
    lines = ["alphabet a b c", f"states {len(rows)}", "start 0", "accept " + " ".join(map(str, accept))]
    for q, row in enumerate(rows):
        lines.extend(f"trans {q} {a} {t}" for a, t in zip("abc", row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"dfa:{path}"


# a minimal 16-state DFA over abc whose transition monoid exceeds the cap;
# its first counter, `a`, settles NC, PS and ORD without the rest
CAP_DFA_ROWS = (
    (1, 2, 3),
    (4, 0, 5),
    (6, 2, 1),
    (2, 7, 8),
    (6, 9, 2),
    (7, 6, 10),
    (5, 10, 4),
    (0, 5, 11),
    (12, 11, 13),
    (10, 1, 14),
    (10, 6, 3),
    (2, 6, 0),
    (7, 5, 1),
    (7, 12, 0),
    (3, 15, 13),
    (8, 7, 7),
)

CAP_DFA_REPORT = """\
family=FIN verdict=no evidence='pumpable: _(aaaaaa)*b'
family=MON verdict=no evidence='witness=_'
family=NIL verdict=no evidence='language and complement both pump'
family=COMB verdict=no evidence='witness=aa'
family=DEF verdict=no evidence='state pair (0, 1) never merges on (aaaaaa)*'
family=SUF verdict=no evidence='suffix _ of an accepted word is rejected'
family=ORD verdict=no evidence='not star-free (word a has eventual period 6); ordered automata are aperiodic'
family=COMM verdict=no evidence='swap of aab gives aba which is rejected'
family=CIRC verdict=no evidence='rotation ab of ba is rejected'
family=NC verdict=no evidence='word a has eventual period 6'
family=PS verdict=no evidence='powers of a mix accept/reject on their cycle (cycle start 3, period 6)'
family=UF verdict=unknown evidence='no union-free expression certificate; syntactic check only'
family=SLT1 verdict=no evidence='not star-free'
family=SLT verdict=no evidence='not star-free'
"""


def test_classify_settles_a_counter_past_the_monoid_cap(capsys, tmp_path):
    spec = write_dfa(tmp_path / "cap.dfa", (2, 4, 5, 6, 9, 10, 13, 14), CAP_DFA_ROWS)
    code, out, err = run(capsys, "classify", "--porcelain", "--input", spec)
    assert (code, out, err) == (0, CAP_DFA_REPORT, "")


# order-preserving, extensive letter maps on 28 states: an aperiodic
# language whose minimal DFA (23 states) has a transition monoid of 46,749
# elements, so NC "yes" needs more than the cap
APERIODIC_CAP_DFA_ROWS = (
    (0, 1, 2), (1, 1, 2), (2, 2, 3), (4, 3, 6), (4, 5, 6), (6, 7, 6), (7, 7, 6),
    (10, 7, 8), (10, 8, 11), (10, 10, 11), (10, 11, 13), (11, 12, 13), (13, 15, 13), (14, 15, 14),
    (15, 15, 15), (16, 17, 15), (17, 17, 17), (19, 18, 20), (21, 18, 20), (21, 22, 20), (21, 22, 20),
    (23, 22, 22), (23, 23, 23), (23, 24, 24), (26, 26, 24), (27, 26, 25), (27, 27, 26), (27, 27, 27),
)
APERIODIC_CAP_DFA_ACCEPT = (0, 2, 5, 6, 7, 9, 11, 13, 15, 17, 18, 19, 20, 22, 24, 26, 27)


def test_classify_reports_the_monoid_cap(capsys, tmp_path):
    spec = write_dfa(tmp_path / "cap.dfa", APERIODIC_CAP_DFA_ACCEPT, APERIODIC_CAP_DFA_ROWS)
    code, out, err = run(capsys, "classify", "--porcelain", "--input", spec)
    assert code == 2
    assert out == ""
    assert err == "error: transition monoid too large for desk-scale analysis\n"


@pytest.mark.parametrize("m", [4, 5])
def test_classify_orders_the_minimal_automaton_of_an_a_m_places_from_the_end(capsys, m):
    """(a|b)*a(a|b)^m has 2^(m+1) minimal states.  The ORD search at length
    n finds a monotone order of the minimal automaton well within its
    budget, because its position bound counts the positions that the
    images of the unplaced labels still need; without that term it ran
    out of budget and read `unknown ... search budget exhausted`."""
    expr = "(a|b)*a" + "(a|b)" * m
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--porcelain", "--input", f"regex:{expr}")
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    d = sublang.compile_regex(expr, sublang.Alphabet.of("ab"))
    report = sublang.classify(d, source_expr=sublang.parse_regex(expr))
    assert out.splitlines() == report.render_porcelain()
    assert sublang.implication_violations(report) == []
    verdict = report.verdict("ORD")
    assert verdict.value == "yes"
    assert verdict.evidence.startswith("monotone order on the minimal automaton: q0 <= ")
    dm = sublang.minimize(d)
    cert = verdict.payload
    assert len(cert.labels) == dm.n_states == 2 ** (m + 1)
    assert sublang.verify_order(cert.dfa, cert.order) and sublang.are_equivalent(cert.dfa, dm).equal


def test_a_definite_language_past_the_window_space_gets_a_full_report(capsys, monkeypatch):
    # the window space is lowered to |V|^11 over ab: a definite language
    # needing windows of 13 letters, whose sweep extends to 79, stops at 11
    monkeypatch.setattr(automata, "MAX_WORD_SPACE", 1 << 11)
    code, out, err = run(capsys, "classify", "--input", "regex:(a|b)*" + "a" * 12)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "DEF yes" in lines
    assert lines[-2:] == ["SLT11 no [witness=" + "a" * 11 + "]", "SLT unknown_up_to(11)"]


def test_a_k_max_past_the_window_space_is_clamped_in_the_report(capsys, monkeypatch):
    # the window space is lowered to 64: over abc the widest window is 3
    monkeypatch.setattr(automata, "MAX_WORD_SPACE", 1 << 6)
    code, out, err = run(capsys, "classify", "--input", "regex:(a|b|c)*a(a|b|c)*", "--k-max", "13")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-4:] == [
        "SLT1 no [witness=b]",
        "SLT2 no [witness=bb]",
        "SLT3 no [witness=bbb]",
        "SLT unknown_up_to(3)",
    ]


def test_verify_with_a_k_max_past_the_window_space_names_the_cap_searched(capsys, monkeypatch):
    # over two letters a window space of 64 allows windows of 6 letters
    monkeypatch.setattr(automata, "MAX_WORD_SPACE", 1 << 6)
    code, out, err = run(capsys, "verify", "--lemma", "all", "--k-max", "19")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "PASS"
    sweeps = [line.split()[1].rstrip(":") for line in lines if "-not-window-testable-up-to-" in line]
    assert sweeps == ["selector-1-not-window-testable-up-to-6", "selector-not-window-testable-up-to-6"]


@pytest.mark.parametrize(
    "expr",
    ["a*" * 1200, "a|" * 1199 + "a", "(" * 1200 + "a" + ")" * 1200],
    ids=["1200-stars", "1200-unions", "1200-parens"],
)
def test_classify_deep_regex_trees_do_not_recurse(capsys, expr):
    code, out, err = run(capsys, "classify", "--porcelain", "--input", f"regex:{expr}", "--alphabet", "a")
    assert (code, err) == (0, "")
    assert "family=NC verdict=yes" in out


def test_verify_single_lemma(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "l-abna")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_rejects_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--lemma", "no-such-lemma")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--input", "regex:a|ab*a", "--k-max", "0"),
        ("classify", "--porcelain", "--input", "regex:a|ab*a", "--k-max", "-2"),
        ("verify", "--lemma", "all", "--k-max", "0"),
        ("verify", "--lemma", "dyck", "--k-max", "-1"),
    ],
)
def test_k_max_below_one_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: k_max must be >= 1\n")


def test_compare_grammar_vs_oracle(capsys, dyck_path):
    code, out, _ = run(
        capsys,
        "compare",
        "--left", f"grammar-in:{dyck_path}",
        "--right", "oracle:dyck",
        "--max-len", "10",
    )
    assert code == 0
    assert "equal up to length 10" in out


def test_compare_detects_difference(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        "--left", "regex:a*",
        "--right", "regex:aa*",
        "--max-len", "4",
        "--alphabet", "a",
    )
    assert code == 1
    assert "left only: _" in out


SAMPLE_DYCK = os.path.join(os.path.dirname(__file__), "..", "samples", "dyck.cg")


def test_compare_rejects_oracle_words_outside_the_grammar_alphabet(capsys):
    # the oracle has no alphabet of its own; its words must be over the other
    # side's, and an empty alphabet is still an alphabet
    cases = [
        (
            ["--left", f"grammar-in:{SAMPLE_DYCK}", "--right", "oracle:l-ic-32", "--max-len", "4"],
            "'ab' is not a word over 'cd'",
        ),
        (
            ["--left", "regex:_", "--right", "oracle:dyck", "--alphabet", "", "--max-len", "2"],
            "'cd' is not a word over ''",
        ),
    ]
    for args, message in cases:
        code, out, err = run(capsys, "compare", *args)
        assert (code, out, err) == (2, "", f"error: alphabet mismatch: {message}\n"), args


def test_compare_over_the_empty_alphabet(capsys):
    code, out, err = run(
        capsys, "compare", "--left", "regex:_", "--right", "regex:_", "--alphabet", "", "--max-len", "2"
    )
    assert (code, out, err) == (0, "equal up to length 2\n", "")


def test_compare_accepts_an_oracle_over_the_grammar_alphabet(capsys):
    code, out, err = run(
        capsys,
        "compare",
        "--left", "oracle:dyck",
        "--right", f"grammar-in:{SAMPLE_DYCK}",
        "--max-len", "4",
    )
    assert code == 0
    assert out == "equal up to length 4\n"
    assert err == ""


def test_convert_definite(capsys):
    code, out, _ = run(capsys, "convert", "--definite", "-", "b", "--alphabet", "a b")
    assert code == 0
    rep = parse_slt_text(out, "cli")
    assert rep.k == 2
    assert rep.short_words == frozenset({"b"})
    assert rep.suffixes == frozenset({"ab", "bb"})


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", "regex:a|ab*a", "--max-len", "3")
    assert code == 0
    assert out.splitlines() == ["a", "aa", "aba"]


def test_enumerate_witness_source(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", "witness:l-abna", "--max-len", "3")
    assert code == 0
    assert out.splitlines() == ["a", "aa", "aba"]


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--input", "dfa:" + str(tmp_path / "missing.dfa"))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "classify", "--input", "regex:(")
    assert code == 2
    code, _, err = run(capsys, "classify", "--input", "noscheme")
    assert code == 2


def test_classify_slt_file_input(capsys, tmp_path):
    p = tmp_path / "rep.slt"
    p.write_text("slt k=1\nalphabet a b\nB a\nI b\nE a\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", "--input", f"slt:{p}")
    assert code == 0
    assert any(line.startswith("SLT1 yes") for line in out.splitlines())


def test_generate_step_cap_exhaustion(capsys, dyck_path):
    code, out, err = run(
        capsys, "generate", "--grammar", dyck_path, "--mode", "in",
        "--max-len", "8", "--step-cap", "2",
    )
    assert code == 1
    assert "step cap" in err
    assert "_" in out.splitlines()  # partial set still printed


@pytest.mark.parametrize("cap, partial", [(0, ["_"]), (1, ["_", "cd"]), (2, ["_", "cd", "ccdd", "cdcd"])])
def test_generate_step_cap_reports_expansions_not_words(capsys, dyck_path, cap, partial):
    code, out, err = run(
        capsys, "generate", "--grammar", dyck_path, "--mode", "in",
        "--max-len", "22", "--step-cap", str(cap),
    )
    assert code == 1
    assert err == f"error: step cap exhausted after {cap} expansions\n"
    assert out.splitlines() == partial


def test_generate_rejects_a_negative_step_cap(capsys, dyck_path):
    code, out, err = run(
        capsys, "generate", "--grammar", dyck_path, "--mode", "in",
        "--max-len", "22", "--step-cap", "-1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: step_cap must be >= 0\n"


def test_convert_out_file(capsys, tmp_path):
    out_path = tmp_path / "rep.slt"
    code, _, _ = run(
        capsys, "convert", "--definite", "a,ab", "b", "--alphabet", "ab",
        "--out", str(out_path),
    )
    assert code == 0
    rep = parse_slt_text(out_path.read_text(encoding="utf-8"), "file")
    assert rep.k == 3


def test_convert_out_to_an_unwritable_path_is_an_input_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "rep.slt"
    code, out, err = run(
        capsys, "convert", "--definite", "a,ab", "b", "--alphabet", "ab",
        "--out", str(out_path),
    )
    assert (code, out, err) == (2, "", f"error: cannot write {out_path}: No such file or directory\n")


@pytest.mark.parametrize("max_len", ["0", "5", "9"])
def test_verify_all_runs_at_small_bounds(capsys, max_len):
    code, out, _ = run(capsys, "verify", "--lemma", "all", "--max-len", max_len)
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_a_closed_stdout_ends_the_command_without_a_traceback():
    # `sublang enumerate ... | head -1`: the reader goes away after one line
    src = os.path.dirname(os.path.dirname(sublang.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "sublang.cli", "enumerate", "--input", "regex:(a|b)*", "--max-len", "14"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        assert proc.stdout.readline() == "_\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (1, "")


def test_enumerate_prints_as_it_walks():
    # 3^20 words in all: the first lines come at once, in bounded memory
    src = os.path.dirname(os.path.dirname(sublang.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "sublang.cli", "enumerate", "--input", "regex:(a|b|c)*", "--max-len", "20"]

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, preexec_fn=limit_memory
    ) as proc:
        assert [proc.stdout.readline() for _ in range(5)] == ["_\n", "a\n", "b\n", "c\n", "aa\n"]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (1, "")


def test_the_readme_command_lines_run(capsys, monkeypatch):
    """Every `sublang ...` line of the README's "Command line" block runs
    from the repository root and ends in 0 or 1 with nothing on stderr."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sublang ")]
    assert len(lines) >= 9
    monkeypatch.chdir(root)
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert code in (0, 1) and err == "", line


def test_the_readme_library_block_runs():
    """The python block of the README's "Library" section prints a report
    that ends in the SLT row, then the Dyck words up to length 8."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("FIN ")
    assert lines[-2] == "SLT yes [k=1]"
    assert lines[-1].startswith("['', 'cd', 'ccdd', 'cdcd', ")


def test_verify_porcelain(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "dyck", "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lemma=dyck check=")
    assert lines[-1] == "PASS"


def test_verify_echoes_the_parsed_id(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", " dyck ", "--porcelain")
    assert code == 0
    assert all(line.startswith("lemma=dyck check=") for line in out.splitlines()[:-1])
    code, out, _ = run(capsys, "verify", "--lemma", "kk(01)")
    assert code == 0
    assert out.splitlines()[0] == "kk(1): PASS"


def test_compare_grammar_ex_source(capsys, tmp_path):
    path = tmp_path / "wrap.cg"
    path.write_text(
        "alphabet a b\naxiom b\npair\n select regex (a|b)*\n context a , b\nend\n",
        encoding="utf-8",
    )
    code, _, _ = run(
        capsys, "compare",
        "--left", f"grammar-ex:{path}",
        "--right", "regex:a*bb*",
        "--max-len", "7",
        "--alphabet", "ab",
    )
    assert code == 1  # grammar gives a^n b^(n+1) only; bb is right-side extra
    code2, _, _ = run(
        capsys, "compare",
        "--left", f"grammar-ex:{path}",
        "--right", f"grammar-ex:{path}",
        "--max-len", "7",
    )
    assert code2 == 0


def test_outputs_stable_across_runs(capsys, dyck_path):
    _, first, _ = run(capsys, "generate", "--grammar", dyck_path, "--mode", "in", "--max-len", "8")
    _, second, _ = run(capsys, "generate", "--grammar", dyck_path, "--mode", "in", "--max-len", "8")
    assert first == second


def test_main_calls_in_one_process_match_fresh_processes(capsys):
    # main() reuses one argument parser; a run of calls in one process,
    # an argparse error among them, prints what separate processes print
    src = os.path.dirname(os.path.dirname(sublang.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    calls = [
        ["classify", "--porcelain", "--input", "regex:a|ab*a"],
        ["classify", "--porcelain", "--k-max", "x", "--input", "regex:a"],
        ["verify", "--lemma", "l-abna"],
        ["classify", "--porcelain", "--input", "regex:a|ab*a"],
    ]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "sublang.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0]


# the CLI fuzz test's files: the valid lines of each format, and the
# tokens that replace some of them
FUZZ_LINES = {
    "dfa": (
        ["alphabet a b", "states 2", "start 0", "accept 1", "trans 0 a 1", "trans 0 b 0", "trans 1 a 1", "trans 1 b 0"],
        ["alphabet", "states", "start", "accept", "trans", "a", "b", "ab", "0", "1", "2", "-1", "x"],
    ),
    "slt": (
        ["slt k=2", "alphabet a b", "B ab aa", "I ab ba", "E ba", "F _ a"],
        ["slt", "k=1", "k=2", "k=x", "alphabet", "B", "I", "E", "F", "a", "b", "ab", "aab", "_"],
    ),
    "cg": (
        ["alphabet a b", "axiom ab", "pair", "select regex a b*", "select-alphabet a b", "family SLT2",
         "context a , b", "end", "pair", "select regex b*", "context b , _", "end"],
        ["alphabet", "axiom", "pair", "end", "select", "select-alphabet", "family", "context", "regex",
         "a*", "a", "b", ",", "_", "MON", "NC", "dfa", "slt", "in.dfa", "in.slt"],
    ),
}


@st.composite
def fuzz_file(draw, kind):
    """The format's valid lines; or those and maybe one repeated, each kept,
    dropped or given random tokens after its directive."""
    valid, tokens = FUZZ_LINES[kind]
    if draw(st.booleans()):
        return "\n".join(valid)
    lines = []
    for line in valid + draw(st.lists(st.sampled_from(valid), max_size=1)):
        fate = draw(st.sampled_from("kkkkdr"))
        if fate == "k":
            lines.append(line)
        elif fate == "r":
            lines.append(" ".join([line.split()[0], *draw(st.lists(st.sampled_from(tokens), max_size=3))]))
    return "\n".join(lines)


@st.composite
def fuzz_calls(draw):
    files = {kind: draw(fuzz_file(kind)) for kind in FUZZ_LINES}
    regex = draw(st.text("ab()|*_ ", max_size=8))
    alphabet = draw(st.sampled_from(["ab", "a b", "a,b", "abc", "b", "aa", ""]))
    max_len, k_max = str(draw(st.integers(-1, 8))), str(draw(st.integers(-1, 4)))
    # `@` stands for the folder of the files
    source = draw(st.sampled_from(["dfa:@/in.dfa", "slt:@/in.slt", f"regex:{regex}"]))
    argv = draw(
        st.sampled_from(
            [
                ["classify", "--input", source, "--alphabet", alphabet, "--k-max", k_max],
                ["classify", "--porcelain", "--input", source, "--alphabet", alphabet],
                ["enumerate", "--input", source, "--alphabet", alphabet, "--max-len", max_len],
                ["compare", "--left", source, "--right", "grammar-in:@/in.cg", "--max-len", max_len],
                ["generate", "--grammar", "@/in.cg", "--mode", draw(st.sampled_from(["ex", "in"])), "--max-len", max_len],
            ]
        )
    )
    return files, argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fuzz_calls())
def test_cli_fuzz_ends_in_an_exit_code_not_a_traceback(tmp_path_factory, call):
    files, argv = call
    folder = tmp_path_factory.mktemp("fuzz")
    for kind, text in files.items():
        (folder / f"in.{kind}").write_text(text, encoding="utf-8")
    argv = [arg.replace("@", str(folder)) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), argv
