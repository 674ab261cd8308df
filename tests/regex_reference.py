"""The recursive-descent regex parser, kept as a differential oracle for
the explicit-stack `sublang.regexes.parse_regex`.  It uses four Python
frames per parenthesis, so it only serves shallow expressions."""

from __future__ import annotations

from sublang.automata import InputError
from sublang.regexes import _META, Concat, Epsilon, RegexAst, Star, Sym, Union


def parse_regex(text: str) -> RegexAst:
    """Recursive-descent parser for the surface syntax above."""
    src = [c for c in text if not c.isspace()]
    pos = 0

    def peek() -> str | None:
        return src[pos] if pos < len(src) else None

    def union_expr() -> RegexAst:
        nonlocal pos
        node = concat_expr()
        while peek() == "|":
            pos += 1
            node = Union(node, concat_expr())
        return node

    def concat_expr() -> RegexAst:
        nonlocal pos
        node = starred()
        while True:
            c = peek()
            if c is None or c in "|)":
                return node
            node = Concat(node, starred())

    def starred() -> RegexAst:
        nonlocal pos
        node = base()
        while peek() == "*":
            pos += 1
            node = Star(node)
        return node

    def base() -> RegexAst:
        nonlocal pos
        c = peek()
        if c is None:
            raise InputError(f"unexpected end of expression in {text!r}")
        if c == "(":
            pos += 1
            node = union_expr()
            if peek() != ")":
                raise InputError(f"unbalanced parenthesis in {text!r}")
            pos += 1
            return node
        if c == "_":
            pos += 1
            return Epsilon()
        if c in _META:
            raise InputError(f"unexpected {c!r} at position {pos} in {text!r}")
        pos += 1
        return Sym(c)

    if not src:
        raise InputError("empty regular expression")
    node = union_expr()
    if pos != len(src):
        raise InputError(f"trailing input at position {pos} in {text!r}")
    return node
