import pytest

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


# a minimal 16-state DFA over abc whose transition monoid exceeds the cap
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


def test_classify_reports_the_monoid_cap(capsys, tmp_path):
    lines = ["alphabet a b c", "states 16", "start 0", "accept 2 4 5 6 9 10 13 14"]
    for q, row in enumerate(CAP_DFA_ROWS):
        lines.extend(f"trans {q} {a} {t}" for a, t in zip("abc", row))
    path = tmp_path / "cap.dfa"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", "--porcelain", "--input", f"dfa:{path}")
    assert code == 2
    assert out == ""
    assert err == "error: transition monoid too large for desk-scale analysis\n"


def test_verify_single_lemma(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "l-abna")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_rejects_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--lemma", "no-such-lemma")
    assert code == 2
    assert "error:" in err


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


def test_convert_out_file(capsys, tmp_path):
    out_path = tmp_path / "rep.slt"
    code, _, _ = run(
        capsys, "convert", "--definite", "a,ab", "b", "--alphabet", "ab",
        "--out", str(out_path),
    )
    assert code == 0
    rep = parse_slt_text(out_path.read_text(encoding="utf-8"), "file")
    assert rep.k == 3


def test_verify_porcelain(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "dyck", "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lemma=dyck check=")
    assert lines[-1] == "PASS"


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
