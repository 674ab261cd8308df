"""Acceptance suite: one test per criterion, exact checks at desk scale.

Each test prints `ACCEPTANCE <n>: PASS ...` with its runtime; run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager

from conftest import random_regex_ast

from sublang.automata import (
    Alphabet,
    are_equivalent,
    union,
)
from sublang.families import classify, definite_to_slt, implication_violations, is_orderable, is_suffix_closed, verify_order
from sublang.grammars import (
    Context,
    ContextualGrammar,
    LanguageHandle,
    SelectionPair,
    generate_bounded,
)
from sublang.regexes import Concat, Epsilon, Star, Sym, Union, compile_regex
from sublang.slt import is_slt_k, make_rep, slt_to_dfa
from sublang.witnesses import (
    build_witness,
    dyck_grammar,
    dyck_words_upto,
    ec35_grammar,
    ec35_oracle,
    ic32_grammar,
    ic32_oracle,
    ic33_grammars,
    ic33_oracle,
    ic34_grammar,
    ic34_oracle,
    ic35_grammar,
    ic35_oracle,
    kk_grammar,
    kk_oracle_upto,
)

AB = Alphabet.of("ab")


@contextmanager
def criterion(num: int, budget_s: float, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, (
        f"criterion {num} exceeded its runtime budget: {elapsed:.2f}s >= {budget_s}s"
    )
    print(f"ACCEPTANCE {num}: PASS - {description} ({elapsed:.2f}s < {budget_s:g}s)")


def test_criterion_1_lemma_separation():
    with criterion(1, 1.0, "a|ab*a is window-1-testable with the printed sets but not definite"):
        d = compile_regex("a|ab*a", AB)
        report = classify(d)
        slt1 = report.verdict("SLT1")
        assert slt1.value == "yes"
        printed = make_rep(1, AB, ["a"], ["b"], ["a"])
        assert are_equivalent(slt_to_dfa(slt1.payload), slt_to_dfa(printed)).equal
        assert report.verdict("DEF").value == "no"


def test_criterion_2_hierarchy_witnesses():
    with criterion(2, 5.0, "block languages separate consecutive window widths"):
        for h in (1, 2, 3):
            block = "a" + "b" * h
            d = compile_regex(f"{block}({block})*", AB)
            assert is_slt_k(d, h + 1), h
            assert not is_slt_k(d, h), h


def test_criterion_3_finite_but_not_k_testable():
    with criterion(3, 5.0, "single words a^(k+1) are finite yet fail width k"):
        for k in (1, 2, 3, 4):
            d = compile_regex("a" * (k + 1), Alphabet.of("a"))
            report = classify(d, k_max=k)
            assert report.verdict("FIN").value == "yes"
            assert report.verdict(f"SLT{k}").value == "no"
            assert is_slt_k(d, k).witness == "a" * k


def _random_word(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randint(0, max_len)))


def _finite_union_ast(words):
    def word_ast(w):
        node = Epsilon() if not w else Sym(w[0])
        for c in w[1:]:
            node = Concat(node, Sym(c))
        return node

    items = [word_ast(w) for w in words]
    node = items[0]
    for item in items[1:]:
        node = Union(node, item)
    return node


def test_criterion_4_definite_construction_random():
    with criterion(4, 30.0, "window construction is exact on 50 random definite languages"):
        rng = random.Random(4242)
        universe = Star(Union(Sym("a"), Sym("b")))
        for _ in range(50):
            ds = {_random_word(rng, 3) for _ in range(rng.randint(0, 3))}
            de = {_random_word(rng, 3) for _ in range(rng.randint(0, 3))}
            rep = definite_to_slt(ds, de, AB)
            parts = []
            if ds:
                parts.append(_finite_union_ast(sorted(ds)))
            if de:
                parts.append(Concat(universe, _finite_union_ast(sorted(de))))
            if parts:
                ast = parts[0]
                for p in parts[1:]:
                    ast = Union(ast, p)
                reference = compile_regex(ast, AB)
            else:
                from sublang.regexes import Empty

                reference = compile_regex(Empty(), AB)
            assert are_equivalent(slt_to_dfa(rep), reference).equal, (ds, de)


def _witness_languages():
    handles = [
        build_witness(wid)
        for wid in (
            "l-abna",
            "mon-to-slt1",
            "comb-to-slt1",
            "def-to-slt",
            "slt-hierarchy(1)",
            "slt-hierarchy(2)",
            "slt-hierarchy(3)",
            "lk-fin(1)",
            "lk-fin(2)",
            "lk-fin(3)",
            "lk-fin(4)",
        )
    ]
    selector_grammars = [
        ec35_grammar(),
        ic32_grammar(),
        ic33_grammars(2)[0],
        ic34_grammar(),
        ic35_grammar(),
        dyck_grammar(),
        kk_grammar(1),
    ]
    dfas = [h.dfa for h in handles]
    for g in selector_grammars:
        dfas.extend(p.selector.dfa for p in g.pairs)
    return dfas


def test_criterion_5_implication_matrix():
    with criterion(5, 120.0, "no report violates the hierarchy on 300 random machines + witnesses"):
        rng = random.Random(20250809)
        machines = []
        while len(machines) < 300:
            n = rng.randint(1, 5)
            trans = tuple(tuple(rng.randrange(n) for _ in "ab") for _ in range(n))
            accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
            from sublang.automata import Dfa, minimize

            machines.append(minimize(Dfa(AB, n, rng.randrange(n), accepting, trans)))
        machines.extend(_witness_languages())
        for d in machines:
            report = classify(d)
            violations = implication_violations(report)
            assert violations == [], (violations, report.render())
            # definite languages must actually land inside the window family
            if report.verdict("DEF").value == "yes":
                assert report.verdict("SLT").value == "yes", report.render()
            # single-letter window languages must come out ordered
            if report.verdict("SLT1").value == "yes":
                assert report.verdict("ORD").value == "yes", report.render()


def test_criterion_6_external_witness():
    with criterion(6, 30.0, "external grammar equals its union oracle at length 12"):
        g = ec35_grammar()
        assert generate_bounded(g, "ex", 12, check_invariants=True) == ec35_oracle(12)
        for pair in g.pairs:
            verdict = is_orderable(pair.selector.dfa)
            assert verdict.value == "yes"
            cert = verdict.payload
            assert verify_order(cert.dfa, cert.order)
            assert are_equivalent(cert.dfa, pair.selector.dfa).equal


def test_criterion_7_internal_witnesses():
    with criterion(7, 120.0, "internal grammars equal their enumeration oracles"):
        assert generate_bounded(ic32_grammar(), "in", 12, check_invariants=True) == ic32_oracle(12)
        for n in (2, 3):
            g_slt, g_fin = ic33_grammars(n)
            out_slt = generate_bounded(g_slt, "in", 12, check_invariants=True)
            out_fin = generate_bounded(g_fin, "in", 12, check_invariants=True)
            assert out_slt == ic33_oracle(n, 12)
            assert out_slt == out_fin
        assert generate_bounded(ic34_grammar(), "in", 12, check_invariants=True) == ic34_oracle(12)
        assert generate_bounded(ic35_grammar(), "in", 14, check_invariants=True) == ic35_oracle(14)


def test_criterion_8_dyck():
    with criterion(8, 10.0, "bracket grammar equals the balance counter at length 12"):
        assert generate_bounded(dyck_grammar(), "in", 12, check_invariants=True) == dyck_words_upto(12)


def test_criterion_9_kk_construction():
    with criterion(9, 120.0, "insertion grammars equal the closure oracle at length 12"):
        for k in (1, 2):
            g = kk_grammar(k)
            assert generate_bounded(g, "in", 12, check_invariants=True) == kk_oracle_upto(k, 12)
            assert is_suffix_closed(g.pairs[0].selector.dfa).value == "yes"


def test_criterion_10_selector_monotonicity():
    with criterion(10, 60.0, "enlarged selectors generate supersets in both modes at length 8"):
        rng = random.Random(1071)
        done = 0
        while done < 50:
            base_ast = random_regex_ast(rng, 3)
            extra_ast = random_regex_ast(rng, 3)
            small = LanguageHandle.from_regex(base_ast, AB)
            big = LanguageHandle.from_regex(Union(base_ast, extra_ast), AB)
            assert are_equivalent(union(small.dfa, big.dfa), big.dfa)  # small <= big
            contexts = tuple(
                Context(_random_word(rng, 1), _random_word(rng, 1))
                for _ in range(rng.randint(1, 2))
            )
            axioms = tuple(_random_word(rng, 3) for _ in range(rng.randint(1, 2)))
            g_small = ContextualGrammar(AB, (SelectionPair(small, contexts),), axioms)
            g_big = ContextualGrammar(AB, (SelectionPair(big, contexts),), axioms)
            for mode in ("ex", "in"):
                got_small = set(generate_bounded(g_small, mode, 8))
                got_big = set(generate_bounded(g_big, mode, 8))
                assert got_small <= got_big, (mode, base_ast, extra_ast)
            done += 1


def test_criterion_11_engine_invariants_and_determinism():
    with criterion(11, 60.0, "expansion invariants hold and generation is bitwise stable"):
        runs = [
            (dyck_grammar(), "in", 12),
            (ic32_grammar(), "in", 12),
            (ic34_grammar(), "in", 12),
            (ic35_grammar(), "in", 14),
            (ec35_grammar(), "ex", 12),
            (kk_grammar(1), "in", 12),
        ]
        for g, mode, bound in runs:
            # check_invariants asserts length monotonicity and internal
            # re-applicability on every step the closure builds
            baseline = generate_bounded(g, mode, bound, check_invariants=True)
            rendered = "\n".join(baseline)
            for _ in range(4):
                again = "\n".join(generate_bounded(g, mode, bound))
                assert again == rendered
