import itertools

import pytest

from conftest import all_words, brute_accepted

from sublang import automata
from sublang.automata import (
    Alphabet,
    Dfa,
    InputError,
    accept_distances,
    accepted_words,
    are_equivalent,
    complement,
    difference,
    enumerate_upto,
    factor_sets,
    find_pump,
    intersect,
    minimize,
    union,
    universe_dfa,
)
from sublang.grammars import Context, ContextualGrammar, LanguageHandle, SelectionPair, _step_plan, _successors
from sublang.regexes import compile_regex

AB = Alphabet.of("ab")


def test_alphabet_rejects_duplicates_and_long_symbols():
    with pytest.raises(InputError):
        Alphabet.of("aa")
    with pytest.raises(InputError):
        Alphabet.of(["ab"])


def test_alphabet_order_drives_word_sorting():
    # declaration order, not codepoint order
    ba = Alphabet.of("ba")
    assert ba.sort_words(["a", "b", "ab", "ba"]) == ["b", "a", "ba", "ab"]


@pytest.mark.parametrize("symbols", ["a", "ab", "abc", "ba"])
def test_words_of_length_lists_every_word_in_declaration_order(symbols):
    alphabet = Alphabet.of(symbols)
    for k in range(5):
        words = list(alphabet.words_of_length(k))
        assert words == alphabet.sort_words(words)
        assert len(set(words)) == len(symbols) ** k


def test_accepts_examples():
    d = compile_regex("a|ab*a", AB)
    assert d.accepts("abba")
    assert not d.accepts("ba")
    assert d.accepts("") == (d.start in d.accepting)


def test_accepts_foreign_symbol_is_false_not_error():
    d = compile_regex("a*", Alphabet.of("a"))
    assert not d.accepts("ax")
    assert not d.accepts("b")


def test_compile_a_or_abstar_a_language():
    d = compile_regex("a|ab*a", AB)
    expected = {"a"} | {"a" + "b" * n + "a" for n in range(5)}
    for w in all_words("ab", 6):
        assert d.accepts(w) == (w in expected)


def test_compile_empty_language():
    from sublang.regexes import Empty

    d = compile_regex(Empty(), AB)
    assert enumerate_upto(d, 5) == []


def test_compile_cd_star_bounded():
    d = compile_regex("(cd)*", Alphabet.of("cd"))
    # brute-force oracle over all words of length <= 4
    assert enumerate_upto(d, 4) == ["", "cd", "cdcd"]
    assert enumerate_upto(d, 4) == brute_accepted(d, 4)


def test_minimize_idempotent_and_canonical():
    d = compile_regex("a|ab*a", AB)
    again = minimize(d)
    assert again == d  # already minimal and canonically numbered
    assert minimize(again) == again


def test_minimize_merges_duplicate_sinks():
    # two separate accepting sinks with identical behavior
    trans = (
        (1, 2),
        (1, 1),
        (2, 2),
    )
    d = Dfa(AB, 3, 0, frozenset({1, 2}), trans)
    m = minimize(d)
    assert m.n_states == 2
    assert are_equivalent(m, d).equal


def test_minimize_state_count_of_lemma_language():
    # Myhill-Nerode classes: {λ}, {a}, {ab..b}, {aa, ab^n a}, junk.
    # Four live states plus the rejecting sink: five in a complete DFA.
    naive = compile_regex("a|ab*a", AB)
    assert naive.n_states == 5
    from sublang.automata import coaccessible_states, reachable_states

    live = reachable_states(naive) & coaccessible_states(naive)
    assert len(live) == 4


def test_bool_ops_against_brute_force():
    l1 = compile_regex("a*b", AB)
    l2 = compile_regex("(a|b)*b", AB)
    for w in all_words("ab", 5):
        assert intersect(l1, l2).accepts(w) == (l1.accepts(w) and l2.accepts(w))
        assert union(l1, l2).accepts(w) == (l1.accepts(w) or l2.accepts(w))
        assert difference(l2, l1).accepts(w) == (l2.accepts(w) and not l1.accepts(w))
        assert complement(l1).accepts(w) == (not l1.accepts(w))
    with pytest.raises(InputError):
        union(l1, compile_regex("a*", Alphabet.of("a")))


def test_complement_is_involution():
    d = compile_regex("a|ab*a", AB)
    assert are_equivalent(complement(complement(d)), d).equal


def test_intersect_a_star_b_star():
    d = intersect(compile_regex("a*", AB), compile_regex("b*", AB))
    assert enumerate_upto(d, 4) == [""]


def test_difference_of_universe_is_infinite():
    d = difference(universe_dfa(AB), compile_regex("a|ab*a", AB))
    pump = find_pump(d)
    assert pump is not None
    u, v, w = pump
    for i in range(4):
        assert d.accepts(u + v * i + w)


def test_are_equivalent_self_and_witness():
    l1 = compile_regex("a*b", AB)
    assert are_equivalent(l1, l1).equal
    res = are_equivalent(l1, compile_regex("(a|b)*b", AB))
    assert not res.equal
    assert res.witness == "bb"  # shortest, then lex-least in alphabet order


def test_are_equivalent_requires_same_alphabet():
    with pytest.raises(InputError):
        are_equivalent(compile_regex("a*", AB), compile_regex("a*", Alphabet.of("a")))


def test_enumerate_examples():
    assert enumerate_upto(compile_regex("a|ab*a", AB), 3) == ["a", "aa", "aba"]
    from sublang.regexes import Empty

    assert enumerate_upto(compile_regex(Empty(), AB), 5) == []
    assert enumerate_upto(compile_regex("a*", Alphabet.of("a")), 2) == ["", "a", "aa"]


def test_enumerate_matches_brute_force(corpus):
    for d in corpus:
        assert enumerate_upto(d, 8) == brute_accepted(d, 8)


def test_factor_sets_examples():
    d = compile_regex("a|ab*a", AB)
    assert factor_sets(d, 1) == (("a",), ("b",), ("a",))

    for k in (1, 2, 3):
        single = compile_regex("a" * (k + 1), Alphabet.of("a"))
        assert factor_sets(single, k) == (("a" * k,), (), ("a" * k,))

    from sublang.regexes import Empty

    assert factor_sets(compile_regex(Empty(), AB), 2) == ((), (), ())


def test_every_window_construction_refuses_the_same_window_space():
    """factor_sets, slt_to_dfa, is_slt_k and definite_to_slt share one
    check and one message; words_of_length keeps a message of its own."""
    from sublang.families import definite_to_slt
    from sublang.slt import is_slt_k, make_rep, slt_to_dfa

    message = r"^window space \|V\|\^19 too large$"
    d = compile_regex("a|ab*a", AB)
    for build in (
        lambda: factor_sets(d, 19),
        lambda: slt_to_dfa(make_rep(19, AB)),
        lambda: is_slt_k(d, 19),
        lambda: definite_to_slt({"a" * 18}, (), AB),
    ):
        with pytest.raises(InputError, match=message):
            build()
    with pytest.raises(InputError, match=r"^word space \|V\|\^19 too large to enumerate$"):
        next(AB.words_of_length(19))


def test_factor_sets_window_consistency(corpus):
    # every window of every accepted word must appear in the proper set
    for d in corpus:
        for k in (1, 2, 3):
            starts, interiors, ends = (set(s) for s in factor_sets(d, k))
            for w in enumerate_upto(d, 8):
                if len(w) < k:
                    continue
                assert w[:k] in starts
                assert w[len(w) - k :] in ends
                for j in range(1, len(w) - k):
                    assert w[j : j + k] in interiors


def test_selector_distances_on_a_long_chain():
    """The backward distance search is iterative: a 1,500-state chain is
    deeper than Python's recursion limit.  A word too short to reach
    acceptance offers no internal step, and one just long enough offers
    the step that selects all of it."""
    n = 1500
    trans = tuple((min(q + 1, n - 1),) for q in range(n))
    d = Dfa(Alphabet.of("a"), n, 0, frozenset({n - 2}), trans)
    sel = LanguageHandle.from_dfa(d)
    assert accept_distances(sel.dfa)[sel.dfa.start] == n - 2
    # the context's b's mark where a step puts them
    g = ContextualGrammar(AB, (SelectionPair(sel, (Context("b", "b"),)),), ("a" * 10,))
    plan = _step_plan(g)
    assert _successors(plan, "in", "a" * 10) == []
    assert _successors(plan, "in", "a" * (n - 2)) == ["b" + "a" * (n - 2) + "b"]


def test_accepted_words_stream_without_building_a_length_level():
    # (a|b|c)* has 3^40 words of length 40; the first ones come at once
    d = compile_regex("(a|b|c)*", Alphabet.of("abc"))
    first = list(itertools.islice(accepted_words(d, 40), 13))
    assert first == ["", "a", "b", "c", "aa", "ab", "ac", "ba", "bb", "bc", "ca", "cb", "cc"]
    with pytest.raises(InputError):
        next(accepted_words(d, -1))
    # a finite language ends the walk at its longest word, whatever the bound
    assert list(accepted_words(compile_regex("ab|b", AB), 10**9)) == ["b", "ab"]


def test_accepted_words_keep_a_polynomial_language_in_the_level_search(monkeypatch):
    # a*b*c* has (k+1)(k+2)/2 words of length k, so its levels stay small
    # in bytes and no length restarts a depth-first walk; (a|b)* doubles
    # per length and hands over to one walk per length at 14
    walks: list[int] = []
    walk = automata._walk
    monkeypatch.setattr(automata, "_walk", lambda frontier, length, *rest: walks.append(length) or walk(frontier, length, *rest))
    d = minimize(compile_regex("a*b*c*", Alphabet.of("abc")))
    assert sum(1 for _ in accepted_words(d, 120)) == 302621  # C(123, 3)
    assert walks == []
    assert sum(1 for _ in accepted_words(compile_regex("(a|b)*", AB), 16)) == 2**17 - 1
    assert walks == [14, 15, 16]

