import itertools
import os
import random
import time

import pytest

from conftest import all_words, random_dfa

from sublang import automata, families

from sublang.automata import (
    Alphabet,
    Dfa,
    InputError,
    are_equivalent,
    clamp_window_width,
    complement,
    minimize,
)
from sublang.families import (
    _COVER_NODE_BUDGET,
    TransitionMonoid,
    Verdict,
    _find_monotone_cover,
    _orientation_conflict,
    classify,
    decide_family,
    definite_to_slt,
    implication_violations,
    is_circular,
    is_combinational,
    is_commutative,
    is_definite,
    is_finite,
    is_monoidal,
    is_nilpotent,
    is_noncounting,
    is_orderable,
    is_power_separating,
    is_suffix_closed,
    verify_order,
)
from sublang.formats import parse_slt_file
from sublang.regexes import compile_regex, parse_regex
from sublang.slt import slt_to_dfa
from sublang.witnesses import ic35_table_dfa

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def test_is_finite():
    assert is_finite(compile_regex("aa", Alphabet.of("a"))).value == "yes"
    v = is_finite(compile_regex("bb*", Alphabet.of("b")))
    assert v.value == "no"
    u, vv, w = v.payload
    assert len(vv) >= 1
    from sublang.regexes import Empty

    assert is_finite(compile_regex(Empty(), AB)).value == "yes"


def test_is_monoidal():
    # relative to the language's own alphabet
    assert is_monoidal(compile_regex("(a|b)*", AB)).value == "yes"
    assert is_monoidal(compile_regex("b*", Alphabet.of("b"))).value == "yes"
    assert is_monoidal(compile_regex("b*", AB)).value == "no"
    assert is_monoidal(compile_regex("a|ab*a", AB)).value == "no"


def test_is_nilpotent():
    assert is_nilpotent(compile_regex("a", Alphabet.of("a"))).value == "yes"
    assert is_nilpotent(complement(compile_regex("a", Alphabet.of("a")))).value == "yes"
    assert is_nilpotent(compile_regex("a|ab*a", AB)).value == "no"


def test_is_combinational():
    v = is_combinational(compile_regex("(a|b)*b", AB))
    assert v.value == "yes" and v.payload == ("b",)
    v = is_combinational(compile_regex("a*b", AB))
    assert v.value == "no" and v.payload == "bb"
    from sublang.regexes import Empty

    assert is_combinational(compile_regex(Empty(), AB)).value == "yes"


def test_is_definite():
    assert is_definite(compile_regex("a|ab*a", AB)).value == "no"
    assert is_definite(compile_regex("(a|b)*ab", AB)).value == "yes"
    assert is_definite(compile_regex("(a|b)*", AB)).value == "yes"


def test_definite_to_slt_spec_example():
    rep = definite_to_slt((), ("b",), AB)
    assert rep.k == 2
    p, i, e, f = rep.sorted_fields()
    assert p == i == ["aa", "ab", "ba", "bb"]
    assert e == ["ab", "bb"]
    assert f == ["b"]
    assert are_equivalent(slt_to_dfa(rep), compile_regex("(a|b)*b", AB)).equal


def test_definite_to_slt_start_words_only():
    rep = definite_to_slt(("",), (), AB)
    assert rep.k == 1
    p, i, e, f = rep.sorted_fields()
    assert p == i == ["a", "b"] and e == [] and f == [""]
    from sublang.regexes import Epsilon

    assert are_equivalent(slt_to_dfa(rep), compile_regex(Epsilon(), AB)).equal


def test_definite_to_slt_universe():
    rep = definite_to_slt((), ("",), AB)
    assert rep.sorted_fields() == (["a", "b"], ["a", "b"], ["a", "b"], [""])
    assert are_equivalent(slt_to_dfa(rep), compile_regex("(a|b)*", AB)).equal


def test_is_suffix_closed():
    sel = compile_regex("_|b|ab|aab", AB)
    assert is_suffix_closed(sel).value == "yes"
    # Suf({ab}) \ {ab} = {λ, b}; the witness is the length-lex least one
    v = is_suffix_closed(compile_regex("ab", AB))
    assert v.value == "no" and v.payload == ""
    v2 = is_suffix_closed(compile_regex("ab|b", AB))
    assert v2.value == "no" and v2.payload == ""
    assert is_suffix_closed(compile_regex("(a|b)*", AB)).value == "yes"
    # many start pairs share each word: "c" is reached first by a FIFO
    # queue of pairs, but "b" is the least rejected suffix
    d = Dfa(ABC, 3, 0, frozenset({0}), ((0, 1, 2), (2, 1, 0), (0, 0, 0)))
    assert is_suffix_closed(d).payload == "b"


def test_verify_order_published_table():
    table = ic35_table_dfa()
    assert verify_order(table, (0, 1, 2, 3))
    # reversing a total order preserves monotonicity of every map
    assert verify_order(table, (3, 2, 1, 0))
    # a genuinely non-monotone permutation fails on the b row
    assert not verify_order(table, (0, 2, 1, 3))
    with pytest.raises(InputError):
        verify_order(table, (0, 1, 2))
    single = compile_regex("a*", Alphabet.of("a"))
    assert verify_order(single, (0,))


def test_is_orderable_spec_examples():
    two_state = compile_regex("a*b(a|b)*", AB)
    v = is_orderable(two_state)
    assert v.value == "yes" and v.payload.dfa.n_states == 2

    v = is_orderable(ic35_table_dfa())
    assert v.value == "yes" and v.payload.dfa.n_states == 4

    assert is_orderable(compile_regex("(aa)*", Alphabet.of("a"))).value == "no"


def test_is_orderable_beyond_minimal_automaton():
    # The minimal automaton of a|ab*a admits no monotone order, but a
    # cover with a duplicated sink does; the language is ordered.
    d = compile_regex("a|ab*a", AB)
    v = is_orderable(d)
    assert v.value == "yes"
    cert = v.payload
    assert cert.dfa.n_states > minimize(d).n_states
    assert verify_order(cert.dfa, cert.order)
    assert are_equivalent(cert.dfa, d).equal


def test_cover_search_stops_once_the_budget_is_spent():
    """Every open node still charges its remaining labels, so the budget ends
    where trying each of them would leave it (-672,800, as before the search
    stopped early), but the search no longer runs those trials."""
    chain = one_letter_chain(1200)
    nodes = [_COVER_NODE_BUDGET]
    start = time.perf_counter()
    assert _find_monotone_cover(chain, 1200, nodes) is None
    assert time.perf_counter() - start < 0.5
    assert nodes == [-672_800]


def test_ord_on_the_prefix_suffix_sample_ends_with_budget_left(monkeypatch):
    """An orientation conflict settles length 8, and the position bound lets
    the search at length 9 end after an exact number of label trials; it
    ran out of its whole budget without the bound, spent 16,712 trials
    with the bound but without the equal-neighbour prune, and 12,752 with
    both but without the images of the unplaced labels in the bound."""
    path = os.path.join(os.path.dirname(__file__), "..", "samples", "prefix-suffix-abc.slt")
    dm = minimize(slt_to_dfa(parse_slt_file(path)))
    assert dm.n_states == 8 and _orientation_conflict(dm)
    searched = []

    def recording(dm, length, nodes):
        labels = _find_monotone_cover(dm, length, nodes)
        searched.append((length, labels, nodes[0]))
        return labels

    monkeypatch.setattr(families, "_find_monotone_cover", recording)
    assert is_orderable(dm) == Verdict(
        "unknown", bound=9, evidence="no ordered automaton with <= 9 states; minimal automaton unorderable"
    )
    assert searched == [(9, None, _COVER_NODE_BUDGET - 3_280)]


def test_is_orderable_certificates_verify(corpus):
    for d in corpus:
        v = is_orderable(d)
        if v.value == "yes":
            assert verify_order(v.payload.dfa, v.payload.order)
            assert are_equivalent(v.payload.dfa, d).equal


def test_orderable_no_confirmed_by_exhaustive_minimal_search(corpus):
    # an exact "no" must also rule out every order of the minimal automaton
    for d in corpus:
        v = is_orderable(d)
        dm = minimize(d)
        if v.value == "no" and dm.n_states <= 6:
            for perm in itertools.permutations(range(dm.n_states)):
                assert not verify_order(dm, perm)


def test_is_commutative():
    even_a = compile_regex("(b|ab*a)*", AB)  # even number of a's
    assert is_commutative(even_a).value == "yes"
    v = is_commutative(compile_regex("a|ab*a", AB))
    assert v.value == "no"
    src, wit = v.payload
    assert src == "aba" and wit == "baa"
    from sublang.regexes import Empty

    assert is_commutative(compile_regex(Empty(), AB)).value == "yes"


def test_is_circular():
    assert is_circular(compile_regex("a*", AB)).value == "yes"
    v = is_circular(compile_regex("ab(ab)*", AB))
    assert v.value == "no" and v.payload == ("ab", "ba")
    even_a = compile_regex("(b|ab*a)*", AB)
    assert is_circular(even_a).value == "yes"
    # two walks (one per rotated-out letter) meet on shared words
    d = Dfa(AB, 6, 0, frozenset({3, 5}), ((1, 2), (3, 4), (1, 3), (1, 1), (5, 5), (5, 3)))
    assert is_circular(d).payload == ("baa", "aab")


def test_closure_families_are_fast_on_a_large_dfa():
    """SUF, COMM and CIRC walk the DFA instead of determinizing a closure
    NFA, so a random 23-state three-letter DFA takes milliseconds (subset
    construction took seconds on it)."""
    rng = random.Random(0)
    n = 24
    trans = tuple(tuple(rng.randrange(n) for _ in "abc") for _ in range(n))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    d = minimize(Dfa(ABC, n, 0, accepting, trans))
    assert d.n_states >= 22
    t0 = time.perf_counter()
    verdicts = [is_suffix_closed(d), is_commutative(d), is_circular(d)]
    assert time.perf_counter() - t0 < 0.5
    assert [v.value for v in verdicts] == ["no", "no", "no"]


def test_is_noncounting():
    assert is_noncounting(compile_regex("(a|b)*", AB)).value == "yes"
    v = is_noncounting(compile_regex("(aa)*", Alphabet.of("a")))
    assert v.value == "no" and v.payload == ("a", 2)
    assert is_noncounting(compile_regex("a|ab*a", AB)).value == "yes"
    # transformations are strings of chr(state): one state, and states
    # beyond one byte
    assert is_noncounting(Dfa(AB, 1, 0, frozenset({0}), ((0, 0),))).evidence == (
        "aperiodic transition monoid (size 1)"
    )
    v = is_noncounting(one_letter_chain(300))
    assert v.value == "yes" and v.payload == 300
    v = is_noncounting(one_letter_cycle(300))
    assert v.value == "no" and v.evidence == "word a has eventual period 300"


def one_letter_chain(n: int) -> Dfa:
    """a^(n-2) over {a}: a chain of n states into a sink, minimal."""
    trans = tuple((min(q + 1, n - 1),) for q in range(n))
    return Dfa(Alphabet.of("a"), n, 0, frozenset({n - 2}), trans)


def one_letter_cycle(n: int) -> Dfa:
    """(a^n)* over {a}: a cycle of n states, minimal."""
    trans = tuple(((q + 1) % n,) for q in range(n))
    return Dfa(Alphabet.of("a"), n, 0, frozenset({0}), trans)


def brute_noncounting(d, k_cap=6, word_len=3) -> bool:
    # direct reading of the definition on short words
    syms = "".join(d.alphabet.symbols)
    words = all_words(syms, word_len)
    for k in range(1, k_cap + 1):
        if all(
            d.accepts(x + y * k + z) == d.accepts(x + y * (k + 1) + z)
            for x in words
            for y in words
            for z in words
        ):
            return True
    return False


def test_is_noncounting_agrees_with_brute_force(corpus):
    for d in corpus:
        assert (is_noncounting(d).value == "yes") == brute_noncounting(d), d


def test_is_power_separating():
    assert is_power_separating(compile_regex("(a|b)*", AB)).value == "yes"
    v = is_power_separating(compile_regex("(aa)*", Alphabet.of("a")))
    assert v.value == "no"
    assert v.payload[0] == "a"
    assert is_power_separating(compile_regex("a|ab*a", AB)).value == "yes"
    v = is_power_separating(one_letter_chain(300))
    assert v.value == "yes" and v.evidence.endswith("(monoid size 300)")
    v = is_power_separating(one_letter_cycle(300))
    assert v.value == "no" and v.evidence.endswith("(cycle start 1, period 300)")


def test_monoid_is_built_only_as_far_as_the_answer_needs(monkeypatch):
    # a counter at the first letter settles NC and PS below a cap of 2
    monkeypatch.setattr(families, "_MONOID_CAP", 2)
    cycle = one_letter_cycle(30)
    m = TransitionMonoid(cycle)
    assert is_noncounting(cycle, m).evidence == "word a has eventual period 30"
    assert is_power_separating(cycle, m).value == "no"
    assert m.words == ["", "a"]
    with pytest.raises(InputError, match="transition monoid too large"):
        len(m)
    with pytest.raises(InputError, match="transition monoid too large"):
        TransitionMonoid.from_dfa(cycle)
    # an aperiodic "yes" needs the whole monoid, so only it meets the cap
    chain = one_letter_chain(40)
    monkeypatch.setattr(families, "_MONOID_CAP", 39)
    m = TransitionMonoid(chain)
    with pytest.raises(InputError, match="transition monoid too large"):
        is_noncounting(chain, m)
    # a stopped search never reads as a closed monoid
    with pytest.raises(InputError, match="transition monoid too large"):
        len(m)
    with pytest.raises(InputError, match="transition monoid too large"):
        is_noncounting(chain, m)
    monkeypatch.setattr(families, "_MONOID_CAP", 40)
    m = TransitionMonoid(chain)
    assert is_noncounting(chain, m).payload == 40
    assert m.elements == TransitionMonoid.from_dfa(chain).elements


def test_monoid_len_reads_the_count_once_the_search_is_complete(monkeypatch):
    chain = one_letter_chain(40)
    monkeypatch.setattr(families, "_MONOID_CAP", 39)
    m = TransitionMonoid(chain)
    for _ in range(2):  # the cap holds for every call that needs element 40
        with pytest.raises(InputError, match="transition monoid too large"):
            len(m)
    assert len(m.elements) == 39
    monkeypatch.setattr(families, "_MONOID_CAP", 40)
    m = TransitionMonoid(chain)
    assert len(m) == 40

    def no_walk(self):
        raise AssertionError("len walked the monoid")

    monkeypatch.setattr(TransitionMonoid, "__iter__", no_walk)
    assert len(m) == 40
    assert len(m) == 40


def test_classify_walks_each_power_cycle_once(monkeypatch):
    # ORD, NC and PS read the power cycles of one shared monoid
    d = compile_regex("(a|b)*abb(a|b)*|ba*", AB)
    elements = TransitionMonoid.from_dfa(minimize(d)).elements
    walked = []
    power_cycle = families._power_cycle
    monkeypatch.setattr(families, "_power_cycle", lambda t: (walked.append(t), power_cycle(t))[1])
    report = classify(d)
    assert report.verdict("NC").value == report.verdict("PS").value == "yes"
    assert len(elements) > 10
    assert sorted(walked) == sorted(elements)


def test_orientation_conflict_settles_length_n():
    # n = 11 exceeds 2|V|+3 = 7, so length n is the only one searched and
    # the conflict makes the answer that of a complete search
    d = compile_regex("aababbb(b|a)b", AB)
    assert minimize(d).n_states == 11 and _orientation_conflict(minimize(d))
    assert is_orderable(d) == Verdict(
        "unknown", bound=11, evidence="no ordered automaton with <= 11 states; minimal automaton unorderable"
    )
    # no conflict where the minimal automaton has an order
    assert not _orientation_conflict(ic35_table_dfa())
    assert not _orientation_conflict(one_letter_chain(50))
    # a conflict at n leaves the longer chains to the search
    d = compile_regex("a|ab*a", AB)
    assert _orientation_conflict(minimize(d)) and is_orderable(d).value == "yes"


def test_ord_evidence_calls_the_minimal_automaton_unorderable_only_when_proved(monkeypatch):
    chain = one_letter_chain(50)
    assert is_orderable(chain).value == "yes"
    # the budget runs out at length n with no orientation conflict: the
    # identity order was never reached, so nothing is proved about it
    monkeypatch.setattr(families, "_COVER_NODE_BUDGET", 1000)
    assert is_orderable(chain) == Verdict("unknown", bound=50, evidence="search budget exhausted")


def test_a_definite_sweep_stops_at_the_widest_window(monkeypatch):
    # a definite language extends the sweep to n(n-1)/2 + 1 windows (79 for
    # 13 states), but no wider than the window space allows
    assert [clamp_window_width(Alphabet.of(s), 191) for s in ("a", "ab", "abc")] == [191, 18, 11]
    assert clamp_window_width(AB, 5) == 5
    monkeypatch.setattr(automata, "MAX_WORD_SPACE", 1 << 11)
    d = compile_regex("(a|b)*" + "a" * 12, AB)
    assert is_definite(d).value == "yes" and minimize(d).n_states == 13
    assert decide_family("SLT", d) == Verdict("unknown", bound=11)


def test_classify_lemma_language():
    report = classify(compile_regex("a|ab*a", AB), source_expr=parse_regex("a|ab*a"))
    assert report.verdict("SLT1").value == "yes"
    assert report.verdict("DEF").value == "no"
    assert report.verdict("SLT").value == "yes"
    assert report.verdict("UF").value == "unknown"
    assert implication_violations(report) == []


def test_classify_single_long_word():
    report = classify(compile_regex("aa", Alphabet.of("a")))
    assert report.verdict("FIN").value == "yes"
    assert report.verdict("SLT1").value == "no"
    assert report.verdict("SLT").value == "yes"  # found at k=3
    assert implication_violations(report) == []


def test_classify_hierarchy_witness_records_all_families():
    report = classify(compile_regex("ab(ab)*", AB))
    assert report.verdict("SLT1").value == "no"
    assert report.verdict("SLT2").value == "yes"
    assert report.verdict("NC").value == "yes"
    assert report.verdict("ORD").value in ("yes", "no", "unknown")
    assert implication_violations(report) == []


def test_classify_report_order_and_rendering():
    report = classify(compile_regex("(a|b)*", AB), source_expr=parse_regex("(a|b)*"))
    names = [name for name, _ in report.entries]
    assert names[:12] == [
        "FIN", "MON", "NIL", "COMB", "DEF", "SUF",
        "ORD", "COMM", "CIRC", "NC", "PS", "UF",
    ]
    assert names[12:] == ["SLT1", "SLT"]
    lines = report.render()
    assert lines[1].startswith("MON yes")
    assert any(line.startswith("SLT1 yes") for line in lines)
    porcelain = report.render_porcelain()
    assert porcelain[0].startswith("family=FIN verdict=")


def test_classify_uf_certificate():
    report = classify(compile_regex("ab*a", AB), source_expr=parse_regex("ab*a"))
    assert report.verdict("UF").value == "yes"


def test_classify_deterministic():
    d = compile_regex("a*ba*", AB)
    assert classify(d) == classify(d)


def test_classify_random_dfas_consistent():
    rng = random.Random(20240809)
    for _ in range(40):
        d = random_dfa(rng, max_states=4)
        report = classify(d)
        assert implication_violations(report) == [], report.render()


def test_every_no_has_evidence_and_certified_yes_has_payload(corpus):
    certified = {"ORD", "COMB"}  # plus every SLT row, checked below
    for d in corpus:
        report = classify(d)
        for name, verdict in report.entries:
            if verdict.value == "no":
                assert verdict.evidence, (name, d)
            if verdict.value == "yes" and (name in certified or name.startswith("SLT")):
                assert verdict.payload is not None, (name, d)


def test_no_witnesses_are_concrete(corpus):
    # spot-check that reported witness words really separate
    for d in corpus:
        mon = is_monoidal(d)
        if mon.value == "no":
            assert not d.accepts(mon.payload)
        comb = is_combinational(d)
        if comb.value == "no":
            w = comb.payload
            x = [a for a in d.alphabet if d.accepts(a)]
            in_candidate = bool(w) and w[-1] in x
            assert d.accepts(w) != in_candidate
        suf = is_suffix_closed(d)
        if suf.value == "no":
            y = suf.payload
            assert not d.accepts(y)
            prefixes = all_words("".join(d.alphabet.symbols), 6)
            assert any(d.accepts(x + y) for x in prefixes)
