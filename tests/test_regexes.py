import random

import pytest
from hypothesis import given, settings, strategies as st

import regex_reference
from conftest import all_words, ast_match, random_regex_ast

from sublang.automata import Alphabet, InputError
from sublang.regexes import (
    Concat,
    Epsilon,
    Star,
    Sym,
    Union,
    compile_regex,
    is_union_free,
    parse_regex,
    render_regex,
    symbols_of,
)

AB = Alphabet.of("ab")


def test_parse_precedence():
    # union binds loosest, star tightest
    ast = parse_regex("a|ab*a")
    assert ast == Union(Sym("a"), Concat(Concat(Sym("a"), Star(Sym("b"))), Sym("a")))


def test_parse_epsilon_and_whitespace():
    assert parse_regex("_") == Epsilon()
    assert parse_regex("b b*") == parse_regex("bb*")


def test_parse_errors():
    for bad in ("", "(", "a|", "*a", "a)"):
        with pytest.raises(InputError):
            parse_regex(bad)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return f"InputError: {exc}"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text("ab_|*() ", max_size=24),
        st.integers(0, 10**6).map(lambda seed: render_regex(random_regex_ast(random.Random(seed), depth=5))),
    )
)
def test_parser_agrees_with_recursive_reference(text):
    # same tree, or the same error message with the same position
    assert parse_outcome(parse_regex, text) == parse_outcome(regex_reference.parse_regex, text)


def test_render_roundtrip_fixed():
    for expr in ("a|ab*a", "(a|b)*b", "_|b|ab|aab", "((ab)*|b)a", "a**"):
        ast = parse_regex(expr)
        assert parse_regex(render_regex(ast)) == ast


def test_symbols_of_first_appearance():
    assert symbols_of(parse_regex("ba*b|c")) == ["b", "a", "c"]


def test_union_free_examples():
    assert is_union_free(parse_regex("ab*a"))
    assert not is_union_free(parse_regex("a|ab*a"))
    assert not is_union_free(parse_regex("((a|b)c)*"))


def test_compile_rejects_foreign_symbols():
    with pytest.raises(InputError):
        compile_regex("abc", AB)


def test_compile_agrees_with_independent_matcher():
    import random

    rng = random.Random(7)
    for _ in range(60):
        ast = random_regex_ast(rng, depth=3)
        d = compile_regex(ast, AB)
        for w in all_words("ab", 5):
            assert d.accepts(w) == ast_match(ast, w), (render_regex(ast), w)


def test_compiled_is_minimal():
    d = compile_regex("(a|b)*b", AB)
    assert d.minimal
    assert d.n_states == 2
