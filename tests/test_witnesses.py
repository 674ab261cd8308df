import pytest

from sublang import witnesses
from sublang.automata import InputError
from sublang.grammars import ContextualGrammar, LanguageHandle, validate_grammar
from sublang.witnesses import (
    WITNESSES,
    build_witness,
    default_witness_ids,
    dyck_words_upto,
    ic33_grammars,
    is_balanced,
    kk_core_words,
    kk_oracle_upto,
    oracle_words,
    parse_witness_id,
    verify_lemma,
)


def test_parse_witness_id():
    assert parse_witness_id("l-abna") == ("l-abna", None)
    assert parse_witness_id("kk(2)") == ("kk", 2)
    errors = {
        "kk": "witness 'kk' needs a parameter, e.g. kk(1)",
        "kk(0)": "parameter 0 for 'kk' outside supported range 1..4",
        "kk(9)": "parameter 9 for 'kk' outside supported range 1..4",
        "lk-fin(5)": "parameter 5 for 'lk-fin' outside supported range 1..4",
        "l-ic-33": "witness 'l-ic-33' needs a parameter, e.g. l-ic-33(2)",
        "l-ic-33(1)": "parameter 1 for 'l-ic-33' outside supported range 2..3",
        "l-abna(1)": "witness 'l-abna' takes no parameter",
        "nope": "unknown witness id 'nope'",
        "Bad Id!": "malformed witness id 'Bad Id!'",
    }
    for bad, message in errors.items():
        with pytest.raises(InputError) as exc:
            parse_witness_id(bad)
        assert str(exc.value) == message, bad
    # the id each parameterised witness's error hints at parses
    for name, witness in WITNESSES.items():
        if witness.params is not None:
            with pytest.raises(InputError) as exc:
                parse_witness_id(name)
            hint = str(exc.value).rsplit("e.g. ", 1)[1]
            assert parse_witness_id(hint) == (name, witness.params.start)


def test_witness_table_entries():
    for name, w in WITNESSES.items():
        if w.params is None:
            assert w.verify_all == (None,), name
        else:
            assert w.verify_all and set(w.verify_all) <= set(w.params), name
        built = build_witness(name if w.params is None else f"{name}({w.verify_all[0]})")
        if isinstance(built, ContextualGrammar):
            assert w.mode in ("ex", "in") and callable(getattr(witnesses, w.oracle)), name
        else:
            assert w.mode is None, name


def test_build_witness_shapes():
    handle = build_witness("l-abna")
    assert isinstance(handle, LanguageHandle)
    assert handle.bounded_words(3) == ["a", "aa", "aba"]

    dyck = build_witness("dyck")
    assert isinstance(dyck, ContextualGrammar)
    assert dyck.axioms == ("",)
    assert dyck.pairs[0].contexts == tuple([type(dyck.pairs[0].contexts[0])("c", "d")])

    kk1 = build_witness("kk(1)")
    assert kk1.axioms == ("aab", "caaabd")
    sel = kk1.pairs[0].selector
    assert sel.bounded_words(4) == ["", "b", "ab", "aab"]


def test_witness_grammars_validate_cleanly():
    for wid in ("l-ec-35", "l-ic-32", "l-ic-33(2)", "l-ic-34", "l-ic-35", "dyck", "kk(1)"):
        g = build_witness(wid)
        diags = validate_grammar(g)
        assert [d for d in diags if d.severity == "error"] == [], (wid, diags)


def test_dyck_oracle_is_stack_counter():
    words = dyck_words_upto(8)
    assert words[0] == ""
    assert all(is_balanced(w) for w in words)
    from conftest import all_words

    assert set(words) == {w for w in all_words("cd", 8) if is_balanced(w)}


def test_kk_core_examples():
    core = kk_core_words(1, 8)
    assert "aab" in core  # all block counts zero
    assert "caabd" in core  # one leading c
    assert "caaabd" in core  # wrapped copy around aab


def test_kk_oracle_spec_examples():
    oracle = set(kk_oracle_upto(1, 8))
    for w in ("aab", "caabd", "caaabd", "cdaab", "acdab"):
        assert w in oracle, w
    assert "ab" not in oracle  # too few a's
    assert "caaabdd" not in oracle  # unbalanced insertion


def test_ic33_two_grammars_same_axioms():
    g_slt, g_fin = ic33_grammars(2)
    assert g_slt.axioms == g_fin.axioms == ("aabbbbcc", "abbc")


def test_ic35_axiom_value():
    g = build_witness("l-ic-35")
    assert g.axioms == ("ababaababa",)


def test_oracle_words_dispatch():
    assert oracle_words("dyck", 4) == ["", "cd", "ccdd", "cdcd"]
    assert oracle_words("l-ic-32", 6) == ["ab", "acbd", "accbdd"]
    assert oracle_words("slt-hierarchy(2)", 7) == ["abb", "abbabb"]
    assert oracle_words("l-abna", 3) == ["a", "aa", "aba"]


def test_verify_lemma_examples():
    assert verify_lemma("l-abna").passed
    assert verify_lemma("slt-hierarchy(2)").passed
    report = verify_lemma("l-ic-33(2)", max_len=16)
    assert report.passed


def test_verify_lemma_out_of_scope_marked():
    report = verify_lemma("l-ec-35")
    scoped = [c for c in report.checks if c.status == "out-of-scope"]
    assert len(scoped) == 1
    assert "proof-level" in scoped[0].detail


def test_verify_lemma_rejects_oversized_bounds():
    with pytest.raises(InputError):
        verify_lemma("dyck", max_len=50)


def test_all_default_ids_verify():
    for wid in default_witness_ids():
        report = verify_lemma(wid)
        assert report.passed, report.render()


def test_grammar_ids_match_oracles_at_both_bounds():
    # exact set equality at the small and the standard bound
    from sublang.grammars import generate_bounded

    ids = ("l-ec-35", "l-ic-32", "l-ic-33(2)", "l-ic-33(3)", "l-ic-34", "l-ic-35", "dyck", "kk(1)", "kk(2)")
    for wid in ids:
        g = build_witness(wid)
        mode = "ex" if wid == "l-ec-35" else "in"
        for bound in (8, 12):
            assert generate_bounded(g, mode, bound) == oracle_words(wid, bound), (wid, bound)


def test_lemma_report_rendering():
    report = verify_lemma("dyck")
    lines = report.render()
    assert lines[0] == "dyck: PASS"
    porcelain = report.render_porcelain()
    assert all(line.startswith("lemma=dyck check=") for line in porcelain)
