import random

import pytest

import generation_reference
from conftest import random_regex_ast

from sublang import families
from sublang.automata import Alphabet, Dfa, InputError, accept_distances, are_equivalent, union
from sublang.families import classify
from sublang.grammars import (
    Context,
    ContextualGrammar,
    LanguageHandle,
    SelectionPair,
    StepCapExceeded,
    _step_plan,
    _successors,
    compare_bounded,
    external_successors,
    generate_bounded,
    internal_successors,
    validate_grammar,
)
from sublang.regexes import Empty, Union, compile_regex
from sublang.witnesses import dyck_grammar, ec35_grammar, ic32_grammar, ic34_grammar, kk_grammar

AB = Alphabet.of("ab")


def test_language_handle_rejects_foreign_symbols():
    h = LanguageHandle.from_regex("(a|b)*", AB)
    assert h.contains("ab")
    assert not h.contains("cb")


def test_external_successors_ec35():
    g = ec35_grammar()
    assert external_successors(g, "b") == {"ab", "ba", "cbc"}
    assert external_successors(g, "") == {"a"}  # both contexts collapse to one word
    assert external_successors(g, "cbc") == set()  # c is outside both selector alphabets


def test_internal_successors_examples():
    g32 = ic32_grammar()
    assert internal_successors(g32, "ab") == {"acbd"}
    assert internal_successors(g32, "a") == set()
    gd = dyck_grammar()
    assert internal_successors(gd, "") == {"cd"}
    assert internal_successors(gd, "cd") == {"ccdd", "cdcd"}


def test_an_empty_selector_offers_no_internal_step():
    # the random grammars of the property tests never draw an empty selector
    sel = LanguageHandle.from_regex(Empty(), AB)
    assert accept_distances(sel.dfa)[sel.dfa.start] is None
    g = ContextualGrammar(AB, (SelectionPair(sel, (Context("a", "b"),)),), ("ab",))
    for w in ("", "ab", "abba"):
        assert _successors(_step_plan(g), "in", w) == []
        assert list(generation_reference._internal_steps(g, w)) == []
    assert generate_bounded(g, "in", 6) == ["ab"]


def test_the_kernel_walks_the_selector_automaton_it_is_given():
    # a hand-built handle over a 4-cycle that is not minimal: odd numbers
    # of a's, as states 1 and 3 of 0 -> 1 -> 2 -> 3 -> 0; the plan's
    # distances are those of this automaton, so steps and checks are the
    # heap reference's
    cycle = Dfa(Alphabet.of("a"), 4, 0, frozenset({1, 3}), ((1,), (2,), (3,), (0,)))
    sel = LanguageHandle(cycle, cycle)
    g = ContextualGrammar(AB, (SelectionPair(sel, (Context("b", "b"),)),), ("aaaa",))
    for w in ("", "a", "aaaa", "aabaaa"):
        assert _successors(_step_plan(g), "in", w) == [y for y, _ in generation_reference._internal_steps(g, w)]
    want = generation_reference.generate_bounded(g, "in", 10, check_invariants=True)
    assert generate_bounded(g, "in", 10, check_invariants=True) == want
    assert "abaaab" in want


def test_generate_bounded_examples():
    assert generate_bounded(dyck_grammar(), "in", 4) == ["", "cd", "ccdd", "cdcd"]
    assert generate_bounded(ic32_grammar(), "in", 6) == ["ab", "acbd", "accbdd"]
    assert generate_bounded(ec35_grammar(), "ex", 3) == [
        "", "a", "b", "aa", "ab", "ba", "aaa", "aab", "aba", "baa", "cbc",
    ]


def test_generate_bounded_contains_small_axioms():
    g = ContextualGrammar(
        AB,
        (SelectionPair(LanguageHandle.from_regex("a*", Alphabet.of("a")), (Context("b", ""),)),),
        ("", "aaaa"),
    )
    out = generate_bounded(g, "ex", 2)
    assert "" in out  # reflexive closure keeps axioms within the bound
    assert "aaaa" not in out


def test_generate_bounded_mode_validation():
    # the successor kernel trusts its mode: this is the only mode check
    with pytest.raises(InputError) as exc:
        generate_bounded(dyck_grammar(), "xx", 4)
    assert str(exc.value) == "derivation mode must be one of ('ex', 'in'), got 'xx'"
    with pytest.raises(InputError):
        generate_bounded(dyck_grammar(), "in", -1)


def test_external_single_pair_closed_form():
    # one pair over the universe with a single context is u^n w v^n
    g = ContextualGrammar(
        AB,
        (SelectionPair(LanguageHandle.from_regex("(a|b)*", AB), (Context("a", "b"),)),),
        ("b",),
    )
    expected = sorted(
        ("a" * n + "b" + "b" * n for n in range(5) if 2 * n + 1 <= 9),
        key=AB.word_key,
    )
    assert generate_bounded(g, "ex", 9) == expected


def test_step_cap_error_carries_partial():
    with pytest.raises(StepCapExceeded) as exc:
        generate_bounded(dyck_grammar(), "in", 8, step_cap=3)
    partial = exc.value.partial
    assert "" in partial and "cd" in partial
    assert exc.value.expansions == 3
    assert str(exc.value) == "step cap exhausted after 3 expansions"


def test_empty_context_discarded_as_self_loop():
    g = ContextualGrammar(
        AB,
        (SelectionPair(LanguageHandle.from_regex("(a|b)*", AB), (Context("", ""),)),),
        ("a",),
    )
    assert external_successors(g, "a") == set()
    assert generate_bounded(g, "ex", 5) == ["a"]  # terminates despite the self-loop
    diags = validate_grammar(g)
    assert [d.severity for d in diags] == ["warning"]
    assert "self-loop" in diags[0].message


def test_generate_deterministic_across_runs():
    runs = {tuple(generate_bounded(dyck_grammar(), "in", 10)) for _ in range(5)}
    assert len(runs) == 1


def test_invariant_checks_pass_on_witnesses():
    generate_bounded(ic34_grammar(), "in", 10, check_invariants=True)
    generate_bounded(ec35_grammar(), "ex", 8, check_invariants=True)


def test_invariant_check_fails_a_built_step_on_a_rejected_subword(monkeypatch):
    # `ccdd` is selected only when `ccdd` itself is expanded, and every
    # step of that expansion has 6 letters: built at 6, where the check
    # fails it, and never built at 4, where nothing is checked
    contains = LanguageHandle.contains

    def rejecting(self, word):
        return word != "ccdd" and contains(self, word)

    monkeypatch.setattr(LanguageHandle, "contains", rejecting)
    for route in (generate_bounded, generation_reference.generate_bounded):
        with pytest.raises(AssertionError, match="destroyed the selected subword of 'ccdd'"):
            route(dyck_grammar(), "in", 6, check_invariants=True)
        assert route(dyck_grammar(), "in", 4, check_invariants=True) == ["", "cd", "ccdd", "cdcd"]


def test_invariant_check_decides_each_selected_subword_once(monkeypatch):
    # dyck, kk(1) and kk(2) at 12 are closures of `verify --lemma all`;
    # the heap route checks the steps within max_len, as the kernel does
    contains = LanguageHandle.contains
    calls: list[tuple[int, str]] = []

    def counting(self, word):
        calls.append((id(self), word))
        return contains(self, word)

    monkeypatch.setattr(LanguageHandle, "contains", counting)
    cases = ((ic34_grammar(), 9), (dyck_grammar(), 8), (kk_grammar(1), 10), (kk_grammar(1), 12), (kk_grammar(2), 12))
    for g, max_len in cases:
        want = generation_reference.generate_bounded(g, "in", max_len)
        calls.clear()
        assert generate_bounded(g, "in", max_len, check_invariants=True) == want
        ours = list(calls)
        calls.clear()
        generation_reference.generate_bounded(g, "in", max_len, check_invariants=True)
        assert len(ours) == len(set(ours))
        assert set(ours) == set(calls)  # the heap route decides the same subwords, with repeats
        assert len(calls) > len(ours)


def test_invariant_check_fails_the_first_word_that_selects_a_rejected_subword(monkeypatch):
    # selector {a, ab}, context (b, a): the closure of a starts a, baa,
    # babaa, bbaaa, and ab first occurs in babaa; its steps have 7
    # letters, so at 7 the check fails them and at 5 they are not built
    g = ContextualGrammar(AB, (SelectionPair(LanguageHandle.from_regex("a|ab", AB), (Context("b", "a"),)),), ("a",))
    contains = LanguageHandle.contains
    monkeypatch.setattr(LanguageHandle, "contains", lambda self, word: word != "ab" and contains(self, word))
    for route in (generate_bounded, generation_reference.generate_bounded):
        with pytest.raises(AssertionError, match="^inserted context destroyed the selected subword of 'babaa'$"):
            route(g, "in", 7, check_invariants=True)
        assert route(g, "in", 5, check_invariants=True) == ["a", "baa", "babaa", "bbaaa"]


def _finite_tail_grammar() -> ContextualGrammar:
    """Selector {b, ab, a^9 b} over ab with context (c, d): one selectable
    word is longer than 8, the others are within any bound of 2 or more."""
    sel = LanguageHandle.from_regex("b|ab|aaaaaaaaab", AB)
    return ContextualGrammar(Alphabet.of("abcd"), (SelectionPair(sel, (Context("c", "d"),)),), ("ab", "aaaaaaaaab"))


@pytest.mark.parametrize(
    "grammar, bad",
    [(kk_grammar(1), None), (kk_grammar(1), "aab"), (_finite_tail_grammar(), None), (_finite_tail_grammar(), "ab")],
    ids=["kk1", "kk1-rejects-aab", "tail", "tail-rejects-ab"],
)
def test_one_plan_at_two_bounds_decides_and_raises_as_fresh_plans(monkeypatch, grammar, bad):
    # one plan checks the closure's words at 12 and then at 8, also after
    # a caught error: each call gives a fresh plan's steps or error (its
    # room-filtered contexts and memo are shared across the bounds), and
    # the plan decides each subword a fresh plan decides, once
    words = {limit: generate_bounded(grammar, "in", limit) for limit in (12, 8)}
    contains = LanguageHandle.contains
    calls: list[tuple[int, str]] = []

    def counting(self, word):
        calls.append((id(self), word))
        return word != bad and contains(self, word)

    monkeypatch.setattr(LanguageHandle, "contains", counting)

    def outcome(plan, word, limit):
        calls.clear()
        try:
            result = _successors(plan, "in", word, limit, True)
        except AssertionError as exc:
            result = str(exc)
        return result, list(calls)

    plan = _step_plan(grammar)
    shared: list[tuple[int, str]] = []
    fresh: set[tuple[int, str]] = set()
    errors = 0
    for limit, layer in words.items():
        for w in layer:
            got, made = outcome(plan, w, limit)
            want, fresh_made = outcome(_step_plan(grammar), w, limit)
            assert got == want, (limit, w)
            errors += isinstance(got, str)
            shared += made
            fresh.update(fresh_made)
    assert len(shared) == len(set(shared))
    assert set(shared) == fresh
    assert (errors > 0) == (bad is not None)


@pytest.fixture()
def dyck_with_empty_context(monkeypatch):
    """dyck with a (_,_) context after (c,d), let through the plan."""
    g = dyck_grammar()
    pair = g.pairs[0]
    monkeypatch.setattr(Context, "is_empty", property(lambda self: False))
    return g._replace(pairs=(pair._replace(contexts=pair.contexts + (Context("", ""),)),))


def test_invariant_check_rejects_a_step_that_does_not_lengthen(dyck_with_empty_context):
    # an empty context let through the plan makes the self-loop '' -> ''
    g = dyck_with_empty_context
    assert generate_bounded(g, "in", 4) == ["", "cd", "ccdd", "cdcd"]
    for mode in ("in", "ex"):
        with pytest.raises(AssertionError, match="shortened '' to ''"):
            generate_bounded(g, mode, 4, check_invariants=True)


def test_invariant_check_fails_built_steps_in_context_order(dyck_with_empty_context, monkeypatch):
    # the step '' -> 'cd' comes before the self-loop of the empty context:
    # at 2 both are built, and the check of 'cd' on the selected subword
    # '' fails first; at 0 only the self-loop is built, and it fails the
    # lengthening check
    contains = LanguageHandle.contains
    monkeypatch.setattr(LanguageHandle, "contains", lambda self, word: word != "" and contains(self, word))
    for route in (generate_bounded, generation_reference.generate_bounded):
        with pytest.raises(AssertionError, match="^inserted context destroyed the selected subword of ''$"):
            route(dyck_with_empty_context, "in", 2, check_invariants=True)
    with pytest.raises(AssertionError, match="^derivation step shortened '' to ''$"):
        generate_bounded(dyck_with_empty_context, "in", 0, check_invariants=True)


def test_compare_bounded_a_star_vs_a_plus():
    a = Alphabet.of("a")
    left = compile_regex("a*", a)
    right = compile_regex("aa*", a)
    rep = compare_bounded(left, right, 5)
    assert not rep.equal
    assert rep.left_only == ("",)
    assert rep.right_only == ()
    rep0 = compare_bounded(left, left, 0)
    assert rep0.equal


def test_compare_bounded_grammar_vs_word_set():
    from sublang.witnesses import dyck_words_upto

    rep = compare_bounded((dyck_grammar(), "in"), dyck_words_upto(8), 8)
    assert rep.equal


def test_compare_bounded_alphabet_mismatch():
    with pytest.raises(InputError):
        compare_bounded(compile_regex("a*", Alphabet.of("a")), compile_regex("a*", AB), 4)


def test_validate_grammar_examples():
    diags = validate_grammar(ic32_grammar())
    assert diags == []

    bad_axiom = ContextualGrammar(
        AB,
        (SelectionPair(LanguageHandle.from_regex("a*", Alphabet.of("a")), (Context("a", ""),)),),
        ("ax",),
    )
    diags = validate_grammar(bad_axiom)
    assert any(d.severity == "error" and "axiom" in d.message for d in diags)

    wrong_family = ContextualGrammar(
        AB,
        (
            SelectionPair(
                LanguageHandle.from_regex("a*b(a|b)*", AB),
                (Context("a", ""),),
                declared_family="MON",
            ),
        ),
        ("b",),
    )
    diags = validate_grammar(wrong_family)
    assert any(d.severity == "error" and "MON" in d.message for d in diags)


def declared_family_diagnostics(selector: LanguageHandle, family: str) -> list[tuple[str, str]]:
    pair = SelectionPair(selector, (Context(selector.alphabet.symbols[0], ""),), family)
    g = ContextualGrammar(selector.alphabet, (pair,), ("",))
    return [(d.severity, d.message) for d in validate_grammar(g)]


def test_declared_family_diagnostics_read_the_report_verdicts():
    # (a|b)* = (a*b)*a* is union-free: the syntactic check settles nothing
    assert declared_family_diagnostics(LanguageHandle.from_regex("(a|b)*", AB), "UF") == [
        ("warning", "pair 0: declared family UF not confirmed: "
         "unknown [no union-free expression certificate; syntactic check only]")
    ]
    assert declared_family_diagnostics(LanguageHandle.from_regex("(a*b)*a*", AB), "uf") == []
    # definite with k = 7, past the default window cap of 6 over abc
    definite = LanguageHandle.from_regex("(a|b|c)*a" + "(a|b|c)" * 6, Alphabet.of("abc"))
    assert classify(definite.dfa).verdict("SLT").render() == "yes [k=7]"
    assert declared_family_diagnostics(definite, "SLT") == []
    assert declared_family_diagnostics(LanguageHandle.from_regex("(aa)*", AB), "SLT") == [
        ("error", "pair 0: selector fails the declared family SLT: no [not star-free]")
    ]
    assert declared_family_diagnostics(LanguageHandle.from_regex("(a|b)*b", AB), "SLT2") == []
    one_b = LanguageHandle.from_regex("a*ba*", AB)
    assert classify(one_b.dfa).verdict("SLT2").render() == "no [witness=aa]"
    assert declared_family_diagnostics(one_b, "SLT2") == [
        ("error", "pair 0: selector fails the declared family SLT2: no [witness=aa]")
    ]


def test_a_declared_family_past_a_limit_is_not_confirmed(monkeypatch):
    abc = Alphabet.of("abc")
    assert declared_family_diagnostics(LanguageHandle.from_regex("a*b", abc), "SLT20") == [
        ("warning", "pair 0: declared family SLT20 not confirmed: window space |V|^20 too large")
    ]
    # SLT reads NC, whose "yes" needs the whole monoid of this definite language
    monkeypatch.setattr(families, "_MONOID_CAP", 3)
    assert declared_family_diagnostics(LanguageHandle.from_regex("(a|b)*abb", AB), "SLT") == [
        ("warning", "pair 0: declared family SLT not confirmed: "
         "transition monoid too large for desk-scale analysis")
    ]


@pytest.mark.parametrize("family", ["SLT0", "SLT-1", "SLT01", "XYZ"])
def test_declared_family_unknown_tags(family):
    assert declared_family_diagnostics(LanguageHandle.from_regex("a*", AB), family) == [
        ("error", f"pair 0: unknown family tag {family!r}")
    ]


def test_validate_grammar_selector_alphabet_containment():
    g = ContextualGrammar(
        Alphabet.of("a"),
        (SelectionPair(LanguageHandle.from_regex("b*", Alphabet.of("b")), (Context("a", ""),)),),
        ("a",),
    )
    diags = validate_grammar(g)
    assert any("selector alphabet" in d.message for d in diags if d.severity == "error")


def test_adding_axioms_or_contexts_grows_output():
    base_sel = LanguageHandle.from_regex("a*b", AB)
    base = ContextualGrammar(AB, (SelectionPair(base_sel, (Context("a", ""),)),), ("b",))
    more_axioms = ContextualGrammar(AB, base.pairs, ("b", "bb"))
    more_contexts = ContextualGrammar(
        AB,
        (SelectionPair(base_sel, (Context("a", ""), Context("", "b"))),),
        ("b",),
    )
    for mode in ("ex", "in"):
        small = set(generate_bounded(base, mode, 7))
        assert small <= set(generate_bounded(more_axioms, mode, 7))
        assert small <= set(generate_bounded(more_contexts, mode, 7))


def test_selector_enlargement_grows_output():
    # bounded restatement of selection monotonicity on a small seeded batch
    rng = random.Random(99)
    for _ in range(8):
        base_ast = random_regex_ast(rng, 2)
        extra_ast = random_regex_ast(rng, 2)
        small = LanguageHandle.from_regex(base_ast, AB)
        big = LanguageHandle.from_regex(Union(base_ast, extra_ast), AB)
        assert are_equivalent(union(small.dfa, big.dfa), big.dfa)  # small <= big
        ctx = (Context("a", ""),)
        ax = ("b",)
        g_small = ContextualGrammar(AB, (SelectionPair(small, ctx),), ax)
        g_big = ContextualGrammar(AB, (SelectionPair(big, ctx),), ax)
        for mode in ("ex", "in"):
            assert set(generate_bounded(g_small, mode, 6)) <= set(
                generate_bounded(g_big, mode, 6)
            )
