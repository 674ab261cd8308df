import pytest

from sublang.automata import Alphabet, are_equivalent
from sublang.cli import main
from sublang.grammars import Context, ContextualGrammar, LanguageHandle, SelectionPair
from sublang.formats import (
    FormatError,
    parse_dfa_text,
    parse_grammar_file,
    parse_grammar_text,
    parse_slt_text,
    render_dfa,
    render_grammar,
    render_slt,
)
from sublang.regexes import compile_regex
from sublang.slt import make_rep
from sublang.witnesses import ec35_grammar, ic32_grammar, ic33_grammars, ic35_table_dfa

AB = Alphabet.of("ab")

DFA_TEXT = """
# a*b over {a, b}
alphabet a b
states 3
start 0
accept 1
trans 0 a 0
trans 0 b 1
trans 1 a 2
trans 1 b 2
trans 2 a 2
trans 2 b 2
"""


def test_parse_dfa_text():
    d = parse_dfa_text(DFA_TEXT, "inline")
    assert are_equivalent(d, compile_regex("a*b", AB)).equal


def test_dfa_roundtrip():
    d = compile_regex("a|ab*a", AB)
    again = parse_dfa_text(render_dfa(d), "rt")
    assert again.n_states == d.n_states
    assert are_equivalent(again, d).equal


def test_dfa_missing_transition_names_state_and_symbol():
    text = DFA_TEXT.replace("trans 1 b 2\n", "")
    with pytest.raises(FormatError) as exc:
        parse_dfa_text(text, "broken")
    assert "state 1" in str(exc.value) and "'b'" in str(exc.value)


def test_dfa_line_numbers_in_errors():
    with pytest.raises(FormatError) as exc:
        parse_dfa_text("alphabet a\nstates 1\nstart 0\ntrans 0 z 0\n", "f")
    assert str(exc.value).startswith("f:4:")


def test_dfa_states_line_must_be_a_number(tmp_path, capsys):
    text = "alphabet a\nstates x\nstart 0\ntrans 0 a 0\n"
    with pytest.raises(FormatError) as exc:
        parse_dfa_text(text, "f")
    assert str(exc.value) == "f:2: expected a number of states, got 'x'"
    path = tmp_path / "bad.dfa"
    path.write_text(text, encoding="utf-8")
    assert main(["classify", "--input", f"dfa:{path}"]) == 2
    assert f"{path}:2: expected a number of states" in capsys.readouterr().err


@pytest.mark.parametrize("early", ["trans 5 a 0", "trans 0 a 5", "start 5", "accept 0 5"])
def test_dfa_state_ids_before_the_states_line_are_range_checked(early):
    assert parse_dfa_text("alphabet a\nstart 0\naccept 0\ntrans 0 a 0\nstates 1\n", "f").n_states == 1
    with pytest.raises(FormatError) as exc:
        parse_dfa_text(f"alphabet a\n{early}\nstates 1\n", "f")
    assert str(exc.value) == "f:2: state 5 out of range 0..0"


@pytest.mark.parametrize("line", ["alphabet a", "states 1", "start 0"])
def test_dfa_line_that_sets_one_value_appears_once(line):
    text = "alphabet a\nstates 1\nstart 0\naccept 0\ntrans 0 a 0\n"
    assert parse_dfa_text(text + "accept 0\n", "f").accepting == {0}  # accept adds to a set
    with pytest.raises(FormatError) as exc:
        parse_dfa_text(f"{text}{line}\n", "f")
    assert str(exc.value) == f"f:6: duplicate {line.split()[0]} line"


def test_slt_roundtrip():
    rep = make_rep(2, AB, ["ab", "aa"], ["bb"], ["ba"], ["", "a"])
    again = parse_slt_text(render_slt(rep), "rt")
    assert again == rep


def test_slt_parse_empty_word_token():
    rep = parse_slt_text("slt k=2\nalphabet a b\nB ab\nE ab\nF _\n", "inline")
    assert "" in rep.short_words


@pytest.mark.parametrize("line", ["slt k=2", "slt k=3", "alphabet a b"])
def test_slt_line_appears_once(line):
    with pytest.raises(FormatError) as exc:
        parse_slt_text(f"slt k=2\nalphabet a b\nB aa\n{line}\n", "f")
    assert str(exc.value) == f"f:4: duplicate {line.split()[0]} line"


def test_slt_length_k_word_in_f_is_invariant_error():
    with pytest.raises(FormatError):
        parse_slt_text("slt k=2\nalphabet a b\nB ab\nE ab\nF ab\n", "inline")


GRAMMAR_TEXT = """
# the one-pair insertion grammar
alphabet a b c d
axiom ab
pair
  select regex b b*
  select-alphabet b
  family SLT1
  context c , d
end
"""


def test_parse_grammar_text_matches_builder():
    g = parse_grammar_text(GRAMMAR_TEXT, "inline")
    assert len(g.pairs) == 1
    assert len(g.pairs[0].contexts) == 1
    assert g.axioms == ("ab",)
    ref = ic32_grammar()
    assert are_equivalent(g.pairs[0].selector.dfa, ref.pairs[0].selector.dfa).equal
    assert g.pairs[0].declared_family == "SLT1"


def test_parse_grammar_empty_context_sides():
    text = "alphabet a\naxiom _\npair\n select regex a*\n context _ , a\nend\n"
    g = parse_grammar_text(text, "inline")
    assert g.pairs[0].contexts[0].left == ""
    assert g.pairs[0].contexts[0].right == "a"
    assert g.axioms == ("",)


@pytest.mark.parametrize(
    "text, line",
    [
        (GRAMMAR_TEXT + "alphabet a b c d\n", "f:11: duplicate alphabet line"),
        (GRAMMAR_TEXT.replace("end", "  select regex b\nend"), "f:10: duplicate select line"),
        (GRAMMAR_TEXT.replace("end", "  select-alphabet b c\nend"), "f:10: duplicate select-alphabet line"),
        (GRAMMAR_TEXT.replace("end", "  family MON\nend"), "f:10: duplicate family line"),
    ],
    ids=["alphabet", "select", "select-alphabet", "family"],
)
def test_grammar_line_that_sets_one_value_appears_once(text, line):
    # axiom, pair and context lines add to a list
    again = "axiom cd\npair\n  select regex b\n  family MON\n  context c , d\n  context d , c\nend\n"
    g = parse_grammar_text(GRAMMAR_TEXT + again, "f")
    assert (g.axioms, len(g.pairs), len(g.pairs[1].contexts)) == (("ab", "cd"), 2, 2)
    with pytest.raises(FormatError) as exc:
        parse_grammar_text(text, "f")
    assert str(exc.value) == line


def test_parse_grammar_errors():
    with pytest.raises(FormatError):
        parse_grammar_text("axiom a\n", "f")  # axiom before alphabet
    with pytest.raises(FormatError):
        parse_grammar_text("alphabet a\npair\n select regex a*\nend\n", "f")  # no context
    with pytest.raises(FormatError):
        parse_grammar_text("alphabet a\npair\n context a , a\n", "f")  # unterminated


def test_grammar_roundtrip_regex_selectors(tmp_path):
    g = ec35_grammar()
    text = render_grammar(g)
    again = parse_grammar_text(text, "rt")
    assert again.alphabet == g.alphabet
    assert again.axioms == g.axioms
    assert len(again.pairs) == len(g.pairs)
    for p, q in zip(again.pairs, g.pairs):
        assert p.contexts == q.contexts
        assert are_equivalent(p.selector.dfa, q.selector.dfa).equal


def test_grammar_roundtrip_slt_selector_via_aux_files(tmp_path):
    slt_sourced, _ = ic33_grammars(2)
    pair = SelectionPair(LanguageHandle.from_dfa(ic35_table_dfa()), (Context("a", "b"),))
    dfa_sourced = ContextualGrammar(AB, (pair,), ("ab",))
    for name, g in (("slt", slt_sourced), ("dfa", dfa_sourced)):
        (tmp_path / name).mkdir()
        path = tmp_path / name / "g.cg"
        path.write_text(render_grammar(g, aux_dir=str(tmp_path / name)), encoding="utf-8")
        assert f"  select {name} selector0.{name}\n" in path.read_text(encoding="utf-8")
        again = parse_grammar_file(str(path))
        assert again.axioms == g.axioms
        assert are_equivalent(again.pairs[0].selector.dfa, g.pairs[0].selector.dfa).equal
        assert again.pairs[0].selector.alphabet == g.pairs[0].selector.alphabet


@pytest.mark.parametrize("kind", ["dfa", "slt"])
def test_select_alphabet_must_match_a_selector_file(tmp_path, capsys, kind):
    # both selector files are over `a b`: a*b as a DFA, a+b as window sets
    selector = render_dfa(compile_regex("a*b", AB)) if kind == "dfa" else render_slt(make_rep(1, AB, "a", "a", "b"))
    (tmp_path / f"sel.{kind}").write_text(selector, encoding="utf-8")
    text = f"alphabet a b c\naxiom b\npair\n  select {kind} sel.{kind}\n  select-alphabet {{}}\n  context c , c\nend\n"
    g = parse_grammar_text(text.format("a b"), "f", base_dir=str(tmp_path))
    assert g.pairs[0].selector.alphabet == AB
    for symbols in ("c", "b a"):
        with pytest.raises(FormatError) as exc:
            parse_grammar_text(text.format(symbols), "f", base_dir=str(tmp_path))
        assert str(exc.value) == f"f:3: select-alphabet {symbols} differs from the selector file's alphabet a b"
    path = tmp_path / "g.cg"
    path.write_text(text.format("c"), encoding="utf-8")
    assert main(["generate", "--grammar", str(path), "--mode", "in", "--max-len", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "select-alphabet c differs" in captured.err
