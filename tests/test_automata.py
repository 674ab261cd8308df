import pytest

from conftest import all_words, brute_accepted

from sublang.automata import (
    Alphabet,
    Dfa,
    InputError,
    are_equivalent,
    bool_op,
    complement,
    difference,
    dfa_for_words,
    enumerate_upto,
    factor_sets,
    find_pump,
    intersect,
    longest_accepted_length,
    minimize,
    union,
    universe_dfa,
)
from sublang.grammars import LanguageHandle
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


def test_bool_op_dispatch_and_errors():
    l1 = compile_regex("a*", AB)
    with pytest.raises(InputError):
        bool_op("complement", l1, l1)
    with pytest.raises(InputError):
        bool_op("xor", l1, l1)
    with pytest.raises(InputError):
        bool_op("union", l1, None)
    with pytest.raises(InputError):
        union(l1, compile_regex("a*", Alphabet.of("a")))


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


def test_longest_accepted_length():
    assert longest_accepted_length(dfa_for_words(AB, ["ab", "b"])) == 2
    assert longest_accepted_length(compile_regex("a*", AB)) is None
    from sublang.regexes import Empty

    assert longest_accepted_length(compile_regex(Empty(), AB)) == -1


def test_longest_accepted_length_on_a_long_chain():
    """The walk is iterative: a 1,500-state chain is deeper than Python's
    recursion limit."""
    n = 1500
    trans = tuple((min(q + 1, n - 1),) for q in range(n))
    d = Dfa(Alphabet.of("a"), n, 0, frozenset({n - 2}), trans)
    assert longest_accepted_length(d) == n - 2
    assert LanguageHandle.from_dfa(d).max_word_len == n - 2


def test_dfa_for_words_roundtrip():
    words = ["", "ab", "ba", "aab"]
    d = dfa_for_words(AB, words)
    assert enumerate_upto(d, 4) == sorted(words, key=AB.word_key)
