"""Property-based cross-checks of the automata algebra on random machines."""

import pytest
from hypothesis import given, settings, strategies as st

import classify_reference
import closure_reference
from conftest import all_words, brute_accepted

from sublang.automata import (
    Alphabet,
    Dfa,
    InputError,
    are_equivalent,
    complement,
    difference,
    enumerate_upto,
    intersect,
    minimize,
    union,
)
from sublang.families import (
    TransitionMonoid,
    _find_monotone_cover,
    _power_cycle,
    is_circular,
    is_commutative,
    is_suffix_closed,
)
from sublang.slt import canonical_rep, slt_membership, slt_to_dfa

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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(KERNEL_DFAS)
def test_cover_search_agrees_with_reference(d):
    """Same labels and same remaining node budget as the rescanning search,
    for every chain length ORD tries and budgets that run out at
    different depths."""
    dm = minimize(d)
    n = dm.n_states
    for length in range(n, max(n, 2 * len(dm.alphabet) + 3) + 1):
        for budget in (50, 500, 5000, 40000):
            got, want = [budget], [budget]
            assert _find_monotone_cover(dm, length, got) == classify_reference.find_monotone_cover(dm, length, want)
            assert got == want


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
        if len(elements) > cap:
            with pytest.raises(InputError) as want:
                classify_reference.monoid_from_dfa(dfa, cap)
            with pytest.raises(InputError) as got:
                TransitionMonoid.from_dfa(dfa, cap)
            assert str(got.value) == str(want.value)
        else:
            assert len(TransitionMonoid.from_dfa(dfa, cap)) == len(elements)


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
    for w in brute_accepted(complement(d), 6) + enumerate_upto(d, 6):
        assert d.accepts(w) == slt_membership(rep, w), (rep, w)


@SETTINGS
@given(window_reps(symbols="abc"))
def test_random_rep_three_letters(rep):
    d = slt_to_dfa(rep)
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
