"""Property-based cross-checks of the automata algebra and grammar generation
on random machines and grammars."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import classify_reference
import closure_reference
import generation_reference
import graph_reference
import slt_reference
from conftest import all_words, brute_accepted, random_regex_ast

from sublang import automata, families, slt
from sublang.automata import (
    Alphabet,
    Dfa,
    InputError,
    MAX_WORD_SPACE,
    accepted_words,
    are_equivalent,
    coaccessible_states,
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
from sublang.families import (
    FAMILY_BASE_ORDER,
    TransitionMonoid,
    _cover_to_dfa,
    _find_monotone_cover,
    _orientation_conflict,
    _power_cycle,
    classify,
    decide_family,
    is_circular,
    is_commutative,
    is_definite,
    is_orderable,
    is_suffix_closed,
    verify_order,
)
from sublang.grammars import (
    Context,
    ContextualGrammar,
    LanguageHandle,
    SelectionPair,
    StepCapExceeded,
    _step_plan,
    _successors,
    external_successors,
    generate_bounded,
    internal_successors,
    validate_grammar,
)
from sublang.regexes import Empty, RegexAst, compile_regex, to_nfa
from sublang.slt import canonical_rep, make_rep, slt_membership, slt_to_dfa
from sublang.witnesses import build_witness, default_witness_ids

AB = Alphabet.of("ab")

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def dfas(draw, max_states: int = 4, alphabet: Alphabet = AB):
    n = draw(st.integers(1, max_states))
    trans = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in alphabet.symbols) for _ in range(n)
    )
    accepting = frozenset(
        q for q in range(n) if draw(st.booleans())
    )
    start = draw(st.integers(0, n - 1))
    return Dfa(alphabet, n, start, accepting, trans)


@SETTINGS
@given(dfas())
def test_minimize_preserves_language_and_shrinks(d):
    m = minimize(d)
    assert m.n_states <= d.n_states
    assert are_equivalent(m, d).equal
    assert minimize(m) == m


@SETTINGS
@given(dfas())
def test_enumerate_equals_brute_force(d):
    assert enumerate_upto(d, 6) == brute_accepted(d, 6)


@SETTINGS
@given(dfas(), dfas())
def test_equivalence_agrees_with_bounded_enumeration(d1, d2):
    bound = d1.n_states * d2.n_states
    res = are_equivalent(d1, d2)
    assert res.equal == (enumerate_upto(d1, bound) == enumerate_upto(d2, bound))
    if not res.equal:
        assert d1.accepts(res.witness) != d2.accepts(res.witness)
        assert res.witness == next(w for w in all_words("ab", len(res.witness)) if d1.accepts(w) != d2.accepts(w))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(dfas(6), dfas(6, Alphabet.of("abc"))))
def test_closure_walks_agree_with_nfa_reference(d):
    """SUF, COMM and CIRC give the verdict, evidence and payload of the
    subset-construction routes they replaced, on raw and minimal DFAs."""
    for dfa in (d, minimize(d)):
        assert is_suffix_closed(dfa) == closure_reference.is_suffix_closed(dfa)
        assert is_commutative(dfa) == closure_reference.is_commutative(dfa)
        assert is_circular(dfa) == closure_reference.is_circular(dfa)


KERNEL_DFAS = st.one_of(*(dfas(7, Alphabet.of(symbols)) for symbols in ("a", "ab", "abc")))


@st.composite
def window_set_dfas(draw):
    """Minimal DFAs of window-set languages: k=2 over ab or abc, k=3 over ab
    (k=3 over abc gives more than 16 states).  Their cover searches fill
    pending queues up to the room left, so they reach every branch of the
    per-node label filter (a queue of room + 1 with and without a passing
    head, a queue of room, the narrowing to unused labels) and the
    position bound's prune, each hundreds of times or more over the
    cover-search properties below."""
    symbols, k = draw(st.sampled_from([("ab", 2), ("ab", 3), ("abc", 2)]))
    windows = ["".join(w) for w in itertools.product(symbols, repeat=k)]
    shorter = ["".join(w) for m in range(k) for w in itertools.product(symbols, repeat=m)]

    def subset(words):
        return draw(st.frozensets(st.sampled_from(words)))

    rep = make_rep(k, Alphabet.of(symbols), subset(windows), subset(windows), subset(windows), subset(shorter))
    return minimize(slt_to_dfa(rep))


def has_equal_neighbours(labels) -> bool:
    return any(x == y for x, y in zip(labels, labels[1:]))


def is_cover(dm, labels) -> bool:
    """Whether a chain labeled by dm's states uses every state and lifts
    each letter map to a monotone map on chain positions, checked directly:
    each letter's image labels match leftmost-greedy, left to right."""
    if set(labels) != set(range(dm.n_states)):
        return False
    for i in range(len(dm.alphabet)):
        pos = 0
        for z in labels:
            want = dm.transitions[z][i]
            while pos < len(labels) and labels[pos] != want:
                pos += 1
            if pos == len(labels):
                return False
    return True


def assert_cover(dm, labels):
    """`is_cover`, and `verify_order` and `are_equivalent` on the automaton
    the labeling realizes."""
    assert is_cover(dm, labels)
    cover = _cover_to_dfa(dm, labels)
    assert verify_order(cover, range(len(labels))) and are_equivalent(cover, dm).equal


def assert_prunes_keep_the_search(dm, length, budget, reference):
    """The package's search against `reference`, a search of the same
    depth-first order without the equal-neighbour prune.

    The package returns None or a cover (`assert_cover`) with no equal
    neighbours.  Where the reference ends with budget left, the package
    finds the reference's labels if those have no equal neighbours
    (spending no more), None if the reference finds None (spending no
    more), and otherwise None or a cover later in the same order.  Where
    the reference runs out, the package may finish either way."""
    got, want = [budget], [budget]
    labels = _find_monotone_cover(dm, length, got)
    ref = reference(dm, length, want)
    if labels is not None:
        assert len(labels) == length and not has_equal_neighbours(labels)
        assert_cover(dm, labels)
    if want[0] > 0:
        if ref is None or not has_equal_neighbours(ref):
            assert labels == ref
            assert got[0] >= want[0]
        else:
            assert labels is None or labels > ref
    return labels, got[0], ref, want[0]


def assert_cover_search_agrees(dm, budgets):
    n = dm.n_states
    conflict = _orientation_conflict(dm)
    for length in range(n, max(n, 2 * len(dm.alphabet) + 3) + 1):
        for budget in budgets:
            labels, got, ref, want = assert_prunes_keep_the_search(
                dm, length, budget, classify_reference.find_monotone_cover
            )
            # an orientation conflict rules out every order of the minimal
            # automaton, which is what a chain of length n is
            assert not (conflict and length == n and labels is not None)
    if conflict and n <= 9:
        # up to 9 states the search at length n ends well within 10**8
        # label trials, so it is complete there and must find nothing
        nodes = [10**8]
        assert _find_monotone_cover(dm, n, nodes) is None
        assert nodes[0] > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(KERNEL_DFAS)
def test_cover_search_agrees_with_reference(d):
    """The rescanning search, which has the position bound without the
    images of the unplaced labels and without the equal-neighbour prune,
    for every chain length ORD tries and budgets that run out at different
    depths (budgets 1, 2 and 7 run out inside one node's labels): the
    relation of `assert_prunes_keep_the_search` at every length, which at
    length n is the same labels and no more budget spent wherever the
    reference ends with budget left."""
    assert_cover_search_agrees(minimize(d), (1, 2, 7, 50, 500, 5000, 40000))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(window_set_dfas())
def test_cover_search_agrees_with_reference_on_window_sets(dm):
    """The same agreement on the inputs whose searches the per-node label
    filter prunes hardest.  Most of these searches end with budget left;
    budget 1000 runs out deep in a few of them."""
    assert dm.n_states <= 16
    assert_cover_search_agrees(dm, (1000, 5000, 40000))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(dfas(4, Alphabet.of("a")), dfas(4)))
def test_cover_search_finds_a_cover_exactly_when_one_exists(d):
    """An oracle that shares nothing with the search: every labeling of a
    chain of each length from n to 6 with no two equal neighbours, in
    lexicographic order, checked by `is_cover`.  With an unbounded budget
    the search returns the first of them that is a cover, or None when
    none is; so no prune cuts a subtree that holds a cover."""
    n = d.n_states
    for length in range(n, 7):
        chains = itertools.product(range(n), repeat=length)
        want = next((c for c in chains if not has_equal_neighbours(c) and is_cover(d, c)), None)
        assert _find_monotone_cover(d, length, [10**9]) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(KERNEL_DFAS.map(minimize), window_set_dfas()))
def test_position_bound_keeps_every_completed_search(dm):
    """Wherever the cover search without the position bound (and without
    the equal-neighbour prune) ends with budget left, the package returns
    the same labels (the first cover in the same depth-first order, or
    None) and spends no more trials whenever those labels have no equal
    neighbours: the bound prunes only subtrees that hold no cover."""
    for length in range(dm.n_states, max(dm.n_states, 2 * len(dm.alphabet) + 3) + 1):
        assert_prunes_keep_the_search(dm, length, 40000, classify_reference.cover_search_without_position_bound)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(KERNEL_DFAS.map(minimize), window_set_dfas()))
def test_dropping_an_equal_neighbour_keeps_a_cover(dm):
    """The lemma behind the equal-neighbour prune: dropping one position of
    an equal-neighbour pair from a cover leaves a cover one shorter.  The
    covers come from the reference search, which keeps equal neighbours,
    at every length up to one past the bound ORD tries, and hold hundreds
    of equal-neighbour pairs over these examples."""
    n = dm.n_states
    for length in range(n, max(n, 2 * len(dm.alphabet) + 3) + 2):
        labels = classify_reference.find_monotone_cover(dm, length, [2000])
        if labels is None:
            continue
        assert_cover(dm, labels)
        for p in range(length - 1):
            if labels[p] == labels[p + 1]:
                assert_cover(dm, labels[: p + 1] + labels[p + 2 :])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(KERNEL_DFAS, st.integers(1, 40))
def test_transition_monoid_agrees_with_reference(d, cap):
    """Same elements and words in the same breadth-first order, the same
    power cycles, and the same cap exit, on raw and minimal DFAs."""
    for dfa in (d, minimize(d)):
        elements, words = classify_reference.monoid_from_dfa(dfa)
        m = TransitionMonoid.from_dfa(dfa)
        assert [tuple(map(ord, t)) for t in m.elements] == elements
        assert m.words == words
        for t, ref in zip(m.elements, elements):
            powers, tail, period = _power_cycle(t)
            ref_powers, ref_tail, ref_period = classify_reference.power_cycle(ref)
            assert [tuple(map(ord, p)) for p in powers] == ref_powers
            assert (tail, period) == (ref_tail, ref_period)
        with mock.patch.object(families, "_MONOID_CAP", cap):
            if len(elements) > cap:
                with pytest.raises(InputError) as want:
                    classify_reference.monoid_from_dfa(dfa, cap)
                with pytest.raises(InputError) as got:
                    TransitionMonoid.from_dfa(dfa)
                assert str(got.value) == str(want.value)
            else:
                assert len(TransitionMonoid.from_dfa(dfa)) == len(elements)


EAGER_ROUTES = {
    "ORD": classify_reference.is_orderable,
    "NC": classify_reference.is_noncounting,
    "PS": classify_reference.is_power_separating,
}


def eager_verdict(tag, dfa, cap=classify_reference.MONOID_CAP):
    try:
        return EAGER_ROUTES[tag](dfa, cap)
    except InputError as exc:
        return exc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(*(dfas(8, Alphabet.of(symbols)) for symbols in ("a", "ab", "abc"))), st.integers(1, 60))
def test_witness_first_routes_agree_with_the_eager_routes(d, cap):
    """ORD, NC and PS on one lazily built monoid with a drawn cap, in report
    order, give the eager routes' whole verdicts wherever those finish.
    Where the eager route hits the cap, the lazy one raises the same error
    or gives the "no" of the eager route without that cap."""
    capped = {tag: eager_verdict(tag, d, cap) for tag in EAGER_ROUTES}
    uncapped = {tag: eager_verdict(tag, d) if isinstance(v, InputError) else v for tag, v in capped.items()}
    with mock.patch.object(families, "_MONOID_CAP", cap):
        for dfa in (d, minimize(d)):
            monoid = TransitionMonoid(minimize(dfa))
            for tag in ("ORD", "NC", "PS"):
                want = capped[tag]
                try:
                    got = decide_family(tag, dfa, monoid)
                except InputError as exc:
                    assert isinstance(want, InputError) and str(exc) == str(want)
                    continue
                if isinstance(want, InputError):
                    assert got.value == "no"
                assert got == uncapped[tag]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(window_set_dfas())
def test_ord_agrees_with_the_eager_route_on_window_sets(dm):
    """ORD gives the eager route's whole verdict (evidence and certificate
    included) wherever that route finishes, on the inputs whose covers
    need more states than the minimal automaton: about half of these
    examples end in a cover longer than n or in a bounded unknown, so
    the verdicts rest on the searches the equal-neighbour prune cuts."""
    want = classify_reference.is_orderable(dm)
    if not want.evidence.startswith("search budget exhausted"):
        assert is_orderable(dm) == want


@SETTINGS
@given(dfas())
def test_complement_involution(d):
    assert are_equivalent(complement(complement(d)), d).equal


@SETTINGS
@given(dfas(), dfas())
def test_de_morgan(d1, d2):
    lhs = complement(intersect(d1, d2))
    rhs = union(complement(d1), complement(d2))
    assert are_equivalent(lhs, rhs).equal
    assert are_equivalent(difference(d1, d2), intersect(d1, complement(d2))).equal


@st.composite
def window_reps(draw, symbols: str = "ab"):
    import itertools

    from sublang.slt import make_rep

    alpha = Alphabet.of(symbols)
    k = draw(st.integers(1, 3))
    windows = ["".join(t) for t in itertools.product(symbols, repeat=k)]
    shorts = [
        "".join(t)
        for n in range(k)
        for t in itertools.product(symbols, repeat=n)
    ]
    pick = lambda pool: frozenset(w for w in pool if draw(st.booleans()))
    return make_rep(k, alpha, pick(windows), pick(windows), pick(windows), pick(shorts))


@SETTINGS
@given(window_reps())
def test_random_rep_membership_agrees_with_compiled_dfa(rep):
    d = slt_to_dfa(rep)
    assert d == slt_reference.slt_to_dfa(rep)
    for w in brute_accepted(complement(d), 6) + enumerate_upto(d, 6):
        assert d.accepts(w) == slt_membership(rep, w), (rep, w)


@SETTINGS
@given(window_reps(symbols="abc"))
def test_random_rep_three_letters(rep):
    d = slt_to_dfa(rep)
    assert d == slt_reference.slt_to_dfa(rep)
    for w in enumerate_upto(d, 5):
        assert slt_membership(rep, w)
    for w in brute_accepted(complement(d), 4):
        assert not slt_membership(rep, w)


@SETTINGS
@given(dfas(max_states=3), st.integers(1, 3))
def test_canonical_rep_membership_routes_agree(d, k):
    rep = canonical_rep(d, k)
    compiled = slt_to_dfa(rep)
    for w in enumerate_upto(d, 6):
        # words of the language always pass their own canonical windows
        assert slt_membership(rep, w)
    for w in brute_accepted(complement(compiled), 6):
        assert not slt_membership(rep, w)
    for w in enumerate_upto(compiled, 6):
        assert slt_membership(rep, w)


UP_TO_9_STATES = st.one_of(*(dfas(9, Alphabet.of(symbols)) for symbols in ("a", "ab", "abc")))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(UP_TO_9_STATES, st.booleans(), st.integers(1, 6))
def test_slt_walk_agrees_with_construct_and_compare(d, minimal, k):
    """The witness-first walk gives the whole SltKResult (verdict,
    certificate, witness) of building the canonical window automaton and
    comparing it with the input, on raw and minimal DFAs (|V|^k <= 729)."""
    dfa = minimize(d) if minimal else d
    assert slt.is_slt_k(dfa, k) == slt_reference.is_slt_k(dfa, k)


@SETTINGS
@given(st.one_of(dfas(4), dfas(4, Alphabet.of("abc"))), st.sampled_from(("zero", "negative", "too wide")))
def test_slt_walk_raises_the_errors_of_construct_and_compare(d, case):
    v = len(d.alphabet)
    wide = next(k for k in itertools.count(1) if v**k > MAX_WORD_SPACE)
    k = {"zero": 0, "negative": -1, "too wide": wide}[case]
    with pytest.raises(InputError) as new:
        slt.is_slt_k(d, k)
    with pytest.raises(InputError) as old:
        slt_reference.is_slt_k(d, k)
    assert str(new.value) == str(old.value)


def witness_selectors():
    for wid in default_witness_ids():
        built = build_witness(wid)
        if isinstance(built, ContextualGrammar):
            yield from ((wid, pair.selector.dfa) for pair in built.pairs)
        else:
            yield wid, built.dfa


def test_slt_sweeps_of_witness_selectors_agree_with_construct_and_compare():
    for wid, d in witness_selectors():
        with mock.patch.object(slt, "is_slt_k", slt_reference.is_slt_k):
            expected = slt.infer_slt(d, 10)
        assert slt.infer_slt(d, 10) == expected, wid


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(*(dfas(12, Alphabet.of(symbols)) for symbols in ("a", "ab", "abc"))))
def test_hopcroft_minimize_agrees_with_moore(d):
    # a drawn start state leaves part of the states unreachable
    assert minimize(d) == slt_reference.minimize(d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(*(dfas(8, Alphabet.of(symbols)) for symbols in ("a", "ab", "abc"))))
def test_the_minimal_flag_tells_the_truth(d):
    """minimize returns a DFA marked minimal unchanged, so every DFA the
    program marks minimal must already be the minimal, canonically numbered
    DFA that the reference minimization builds."""
    m = minimize(d)
    for x in (m, complement(m), universe_dfa(d.alphabet)):
        assert x.minimal
        assert slt_reference.minimize(x) == x


def raw_window_automaton(rep):
    """The automaton `slt_to_dfa` builds before minimizing it."""
    raw = []
    with mock.patch.object(slt, "minimize", side_effect=lambda d: raw.append(d) or d):
        slt_to_dfa(rep)
    return raw[0]


@SETTINGS
@given(
    st.one_of(
        window_reps(),
        window_reps(symbols="abc"),
        st.builds(canonical_rep, dfas(6, Alphabet.of("abc")), st.integers(1, 4)),
    )
)
def test_hopcroft_minimize_agrees_with_moore_on_window_automata(rep):
    raw = raw_window_automaton(rep)
    assert minimize(raw) == slt_reference.minimize(raw)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(("a", "ab", "abc")).map(Alphabet.of), st.booleans(), st.data())
def test_accepted_words_agree_with_the_level_search(alphabet, minimal, data):
    """The walk yields the words of the former level-by-level search, in
    its (length, lex) order, at every bound, also when its own level
    search hands over to the per-length depth-first walk at any length."""
    d = data.draw(dfas(9, alphabet))
    if minimal:
        d = minimize(d)
    # 420 bytes hold at most 3 prefixes of up to 11 letters
    for cap in (automata._LEVEL_CAP, 0, 420):
        with mock.patch.object(automata, "_LEVEL_CAP", cap):
            for n in range(11 if len(alphabet) < 3 else 7):
                assert list(accepted_words(d, n)) == graph_reference.enumerate_upto(d, n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(("a", "ab", "abc")).map(Alphabet.of), st.booleans(), st.data())
def test_shared_graph_searches_agree_with_their_former_copies(alphabet, minimal, data):
    """The shared BFS numbering, cycle search, backward distance search and
    window rules give the automata, words, verdicts and window sets of the
    routines that each carried a search of their own, on raw and minimal
    DFAs of 1-9 states, and on finite languages.  Compared with `==`: equal
    frozensets may print in different orders."""
    d1, d2 = (data.draw(dfas(9, alphabet)) for _ in range(2))
    if minimal:
        d1, d2 = minimize(d1), minimize(d2)
    words = data.draw(st.lists(st.text("".join(alphabet), max_size=7), max_size=5))
    finite = compile_regex("|".join(w or "_" for w in words) if words else Empty(), alphabet)
    for d in (d1, d2, finite):
        assert coaccessible_states(d) == graph_reference.coaccessible_states(d)
        assert enumerate_upto(d, 7) == graph_reference.enumerate_upto(d, 7)
        assert find_pump(d) == graph_reference.find_pump(d)
        assert is_definite(d) == graph_reference.is_definite(d)
        for k in range(1, 7):
            if len(alphabet) ** k <= 243:
                assert factor_sets(d, k) == graph_reference.factor_sets(d, k)
    for op in ("intersect", "union", "difference"):
        assert getattr(automata, op)(d1, d2) == getattr(graph_reference, op)(d1, d2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(("a", "ab", "abc")), st.integers(0, 2**32 - 1))
def test_determinize_agrees_with_its_former_copy(symbols, seed):
    nfa = to_nfa(random_regex_ast(random.Random(seed), 4, symbols), Alphabet.of(symbols))
    assert nfa.determinize() == graph_reference.determinize(nfa)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(("ab", "ba", "abc", "cab")), st.lists(st.text("abc", max_size=6), max_size=12))
def test_sort_words_agrees_with_word_key(symbols, words):
    """The translate-table order is the `word_key` order, also for an
    alphabet declared out of codepoint order."""
    alpha = Alphabet.of(symbols)
    words = [w for w in words if alpha.covers(w)]
    assert alpha.sort_words(words) == sorted(words, key=alpha.word_key)
    table = alpha.order_table
    for u in words:
        for v in words:
            assert (u.translate(table) < v.translate(table)) == (alpha.word_key(u)[1] < alpha.word_key(v)[1])


@st.composite
def selectors(draw):
    """A selection language over a, ab or abc: a random DFA, or a random
    regex kept as the selector's source expression."""
    alphabet = Alphabet.of(draw(st.sampled_from(("a", "ab", "abc"))))
    if draw(st.booleans()):
        return LanguageHandle.from_dfa(draw(dfas(4, alphabet)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return LanguageHandle.from_regex(random_regex_ast(rng, 3, "".join(alphabet.symbols)), alphabet)


DECLARED_SEVERITIES = {"yes": [], "no": ["error"], "unknown": ["warning"]}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(selectors())
def test_declared_family_reads_the_report_verdict(sel):
    """A selector declaring a family gets no diagnostic on "yes", an error
    on "no" and a warning on "unknown" of decide_family, and that verdict's
    value is the one of the classify row with the same tag."""
    expr = sel.source if isinstance(sel.source, RegexAst) else None
    rows = dict(classify(sel.dfa, source_expr=expr).entries)
    for tag in (*FAMILY_BASE_ORDER, "SLT", "SLT1", "SLT2", "SLT3"):
        pair = SelectionPair(sel, (Context(sel.alphabet.symbols[0], ""),), tag)
        g = ContextualGrammar(sel.alphabet, (pair,), ("",))
        severities = [d.severity for d in validate_grammar(g)]
        verdict = decide_family(tag, sel.dfa, source_expr=sel.source)
        assert severities == DECLARED_SEVERITIES[verdict.value], tag
        if tag in rows:
            assert verdict.value == rows[tag].value, tag


@st.composite
def grammars(draw):
    """Small grammars over ab, declared `ab` or `ba`: 1-2 pairs selecting
    random regex languages, some over a one-letter sub-alphabet, with
    contexts of total length 0-2."""
    alphabet = draw(st.sampled_from((AB, Alphabet.of("ba"))))
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        symbols = draw(st.sampled_from(("ab", "ab", "a", "b")))
        rng = random.Random(draw(st.integers(0, 2**32)))
        selector = LanguageHandle.from_regex(random_regex_ast(rng, 3, symbols), Alphabet.of(symbols))
        contexts = []
        for _ in range(draw(st.integers(1, 3))):
            left = draw(st.text("ab", max_size=2))
            contexts.append(Context(left, draw(st.text("ab", max_size=2 - len(left)))))
        pairs.append(SelectionPair(selector, tuple(contexts)))
    axioms = draw(st.lists(st.text("ab", max_size=3), min_size=1, max_size=2))
    # external steps need a selected axiom: often add the first selector's least word
    selected = pairs[0].selector.bounded_words(3)
    if selected and draw(st.booleans()):
        axioms.append(selected[0])
    return ContextualGrammar(alphabet, tuple(pairs), tuple(axioms))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(grammars(), st.text("ab", max_size=3))
def test_invariant_check_agrees_with_heap_reference_under_a_faulty_selector(g, bad):
    """With the membership test rejecting one word, the checked closure
    gives the heap closure's words or its error message, in both modes at
    bounds 0-8; both check the steps within the bound, so a rejected
    word selected only by steps past it raises nothing."""
    contains = LanguageHandle.contains
    with mock.patch.object(LanguageHandle, "contains", lambda self, word: word != bad and contains(self, word)):
        for mode in ("ex", "in"):
            for max_len in range(9):
                outcomes = []
                for route in (generate_bounded, generation_reference.generate_bounded):
                    try:
                        outcomes.append(route(g, mode, max_len, check_invariants=True))
                    except AssertionError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(grammars())
def test_generation_agrees_with_heap_reference(g):
    """The length-layered closure gives the heap closure's output at every
    length up to 8, and its step-cap partials and successor sets at length
    8, in both modes; on every generated word the internal steps come in
    the reference's order."""
    for mode in ("ex", "in"):
        for max_len in range(9):
            words = generate_bounded(g, mode, max_len)
            assert words == generation_reference.generate_bounded(g, mode, max_len)
        assert generate_bounded(g, mode, max_len, check_invariants=True) == words
        for cap in range(6):
            try:
                want = generation_reference.generate_bounded(g, mode, max_len, step_cap=cap)
            except generation_reference.StepCapExceeded as exc:
                with pytest.raises(StepCapExceeded) as got:
                    generate_bounded(g, mode, max_len, step_cap=cap)
                assert got.value.partial == exc.partial
                assert got.value.expansions == cap
            else:
                assert generate_bounded(g, mode, max_len, step_cap=cap) == want
        successors = internal_successors if mode == "in" else external_successors
        ref_successors = getattr(generation_reference, successors.__name__)
        for w in words:
            assert successors(g, w) == ref_successors(g, w)
            steps = _successors(_step_plan(g), "in", w)
            assert steps == [y for y, _ in generation_reference._internal_steps(g, w)]
