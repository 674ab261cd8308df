import pytest

from conftest import all_words

from sublang import automata
from sublang.automata import Alphabet, InputError, are_equivalent, enumerate_upto
from sublang.regexes import compile_regex
from sublang.slt import (
    canonical_rep,
    default_k_max,
    infer_slt,
    is_slt_k,
    make_rep,
    slt_membership,
    slt_to_dfa,
)

AB = Alphabet.of("ab")
A = Alphabet.of("a")


def test_rep_invariants_enforced():
    with pytest.raises(InputError):
        make_rep(2, AB, prefixes=["a"])  # wrong window length
    with pytest.raises(InputError):
        make_rep(1, AB, short_words=["a"])  # short word not shorter than k
    with pytest.raises(InputError):
        make_rep(0, AB)


def test_membership_examples():
    rep = make_rep(1, AB, ["a"], ["b"], ["a"])
    assert slt_membership(rep, "abba")
    assert not slt_membership(rep, "ba")  # prefix b not allowed

    rep2 = make_rep(2, A, ["aa"], [], ["aa"])
    # length k+1: the interior index range is empty, so only ends matter
    assert slt_membership(rep2, "aaa")
    assert not slt_membership(rep2, "aaaa")


def test_membership_short_words_and_foreign_symbols():
    rep = make_rep(2, AB, short_words=["a"])
    assert slt_membership(rep, "a")
    assert not slt_membership(rep, "b")
    assert not slt_membership(rep, "ax")


def test_slt_to_dfa_examples():
    rep = make_rep(1, AB, ["a"], ["b"], ["a"])
    assert are_equivalent(slt_to_dfa(rep), compile_regex("a|ab*a", AB)).equal

    universe = make_rep(1, AB, AB.symbols, AB.symbols, AB.symbols, [""])
    assert are_equivalent(slt_to_dfa(universe), compile_regex("(a|b)*", AB)).equal

    only_f = make_rep(3, A, short_words=["aa"])
    assert enumerate_upto(slt_to_dfa(only_f), 5) == ["aa"]


def test_membership_agrees_with_dfa(corpus):
    # the two routes to window-set membership must agree word for word
    reps = [
        make_rep(1, AB, ["a"], ["b"], ["a"]),
        make_rep(2, AB, ["ab"], ["ba", "ab"], ["ab"], [""]),
        make_rep(2, AB, ["aa", "ab"], ["bb"], ["ba"], ["a"]),
        make_rep(3, AB, ["aba"], ["bab", "aba"], ["bab"], ["", "ab"]),
    ]
    for rep in reps:
        d = slt_to_dfa(rep)
        for w in all_words("ab", 8):
            assert d.accepts(w) == slt_membership(rep, w), (rep, w)


def test_is_slt_k_hierarchy_witness():
    d = compile_regex("ab(ab)*", AB)
    assert is_slt_k(d, 2)
    assert not is_slt_k(d, 1)


def test_is_slt_k_single_long_word():
    for k in (1, 2, 3, 4):
        d = compile_regex("a" * (k + 1), A)
        res = is_slt_k(d, k)
        assert not res
        assert res.witness == "a" * k  # the canonical candidate admits a^k


def test_is_slt_k_universe():
    d = compile_regex("(a|b)*", AB)
    res = is_slt_k(d, 1)
    assert res
    assert res.rep.sorted_fields() == (["a", "b"], ["a", "b"], ["a", "b"], [""])


def test_is_slt_k_soundness(corpus):
    for d in corpus:
        for k in (1, 2, 3):
            res = is_slt_k(d, k)
            if res:
                assert are_equivalent(slt_to_dfa(res.rep), d).equal


def test_width_hierarchy_not_monotone_under_literal_windows():
    # With interior windows strictly inside (positions 2..n-k), width
    # monotonicity fails: aa in L forces the window aa into both the
    # prefix and suffix sets at k=2, and then aaa -- which has no
    # interior window -- is accepted by every candidate even though it
    # is not in the language.  So a|ab*a is 1-testable but not
    # 2-testable under this reading.
    d = compile_regex("a|ab*a", AB)
    assert is_slt_k(d, 1)
    res = is_slt_k(d, 2)
    assert not res
    assert res.witness == "aaa"


def test_infer_slt_examples():
    res = infer_slt(compile_regex("a|ab*a", AB))
    assert res.found_k == 1

    res = infer_slt(compile_regex("aa", AB))
    assert res.found_k == 3
    assert res.rep.sorted_fields() == ([], [], [], ["aa"])

    res = infer_slt(compile_regex("a*ba*", AB), k_max=4)
    assert not res.found
    assert res.k_max == 4


def test_infer_slt_clamps_a_cap_past_the_window_space(monkeypatch):
    # |V|^3 = 27 fits a window space of 64 over abc, |V|^4 = 81 does not
    monkeypatch.setattr(automata, "MAX_WORD_SPACE", 1 << 6)
    d = compile_regex("(a|b|c)*a(a|b|c)*", Alphabet.of("abc"))
    res = infer_slt(d, k_max=13)
    assert not res.found
    assert res.k_max == 3
    assert res.per_k_witness == ("b", "bb", "bbb")


def test_canonical_rep_equals_factor_sets_plus_short_words():
    d = compile_regex("a|ab*a", AB)
    rep = canonical_rep(d, 2)
    assert rep.sorted_fields() == (["aa", "ab"], ["bb"], ["aa", "ba"], ["a"])


def test_default_k_max_small_automata():
    d = compile_regex("ab(ab)*", AB)
    assert 4 <= default_k_max(d) <= 17
    single = compile_regex("a*", A)
    assert default_k_max(single) == 2  # 1 state: n^2 + 1
