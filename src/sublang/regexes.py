"""Regular expression trees and their compilation to minimal DFAs.

Surface syntax: juxtaposition for product, `|` for union, postfix `*`,
parentheses, `_` for the empty word.  No character classes.  Whitespace
is ignored, so `b b*` reads as `bb*`.
"""

from __future__ import annotations

from .automata import Alphabet, Dfa, InputError, Nfa, Record, minimize


class RegexAst(Record):
    """Base class for expression nodes.

    Nodes of two types are unequal even when their fields are equal, so
    `Concat(a, b) != Union(a, b)`.
    """

    __slots__ = ()


class Empty(RegexAst):
    """The empty language (no surface syntax; API-level only)."""

    __slots__ = ()


class Epsilon(RegexAst):
    __slots__ = ()


class Sym(RegexAst):
    __slots__ = _fields = ("char",)


class _Binary(RegexAst):
    """A node with two operands; its subclasses differ only in type."""

    __slots__ = _fields = ("left", "right")


class Concat(_Binary):
    __slots__ = ()


class Union(_Binary):
    __slots__ = ()


class Star(RegexAst):
    __slots__ = _fields = ("inner",)


_META = set("|*()_")


def parse_regex(text: str) -> RegexAst:
    """Parser for the surface syntax above.

    Union is left-associative and binds loosest, then concatenation (also
    left-associative), then postfix star.  Each open parenthesis saves the
    enclosing group's partial union and product on an explicit stack, so
    nesting depth is not bounded by Python's recursion limit.
    """
    src = [c for c in text if not c.isspace()]
    if not src:
        raise InputError("empty regular expression")
    n = len(src)
    pos = 0
    groups: list[tuple[RegexAst | None, RegexAst | None]] = []
    alts: RegexAst | None = None  # union of the finished alternatives of the group
    seq: RegexAst | None = None  # product of the finished factors of the alternative
    while True:
        c = src[pos] if pos < n else None
        if c == "(":
            groups.append((alts, seq))
            alts = seq = None
            pos += 1
            continue
        if c is None:
            raise InputError(f"unexpected end of expression in {text!r}")
        if c in _META and c != "_":
            raise InputError(f"unexpected {c!r} at position {pos} in {text!r}")
        node: RegexAst = Epsilon() if c == "_" else Sym(c)
        pos += 1
        while True:
            while pos < n and src[pos] == "*":
                node = Star(node)
                pos += 1
            seq = node if seq is None else Concat(seq, node)
            c = src[pos] if pos < n else None
            if c is not None and c not in "|)":
                break  # the next factor of this alternative
            alts = seq if alts is None else Union(alts, seq)
            seq = None
            if c == "|":
                pos += 1
                break  # the first factor of the next alternative
            if not groups:
                if c is None:
                    return alts
                raise InputError(f"trailing input at position {pos} in {text!r}")
            if c is None:
                raise InputError(f"unbalanced parenthesis in {text!r}")
            # the group closes and is a factor of the enclosing alternative
            pos += 1
            node = alts
            alts, seq = groups.pop()


def _postorder(ast: RegexAst):
    """The nodes of the tree, children before parents and left before
    right.  The walk keeps its own stack, so deep trees do not recurse."""
    stack = [(ast, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, (Concat, Union)):
            children = (node.left, node.right)
        elif isinstance(node, Star):
            children = (node.inner,)
        else:
            children = ()
        if expanded or not children:
            yield node
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children))


def render_regex(ast: RegexAst) -> str:
    """Inverse of parse_regex for all nodes except Empty."""

    def wrap(part: tuple[str, int], ctx: int) -> str:
        # a part binds with its precedence; it needs parentheses in a
        # context that binds tighter
        text, prec = part
        return "(" + text + ")" if prec < ctx else text

    done: list[tuple[str, int]] = []  # (text, precedence) of finished subtrees
    for node in _postorder(ast):
        if isinstance(node, Empty):
            raise InputError("the empty language has no surface syntax")
        if isinstance(node, Epsilon):
            done.append(("_", 3))
        elif isinstance(node, Sym):
            done.append((node.char, 3))
        elif isinstance(node, Union):
            right, left = done.pop(), done.pop()
            done.append((left[0] + "|" + right[0], 0))
        elif isinstance(node, Concat):
            right, left = done.pop(), done.pop()
            done.append((wrap(left, 1) + wrap(right, 2), 1))
        elif isinstance(node, Star):
            done.append((wrap(done.pop(), 3) + "*", 2))
        else:  # pragma: no cover
            raise TypeError(node)
    return done.pop()[0]


def symbols_of(ast: RegexAst) -> list[str]:
    """Distinct symbols in first-appearance order."""
    out: list[str] = []
    for node in _postorder(ast):
        if isinstance(node, Sym) and node.char not in out:
            out.append(node.char)
    return out


def is_union_free(ast: RegexAst) -> bool:
    """True iff no union node occurs (a certificate on this expression only)."""
    return not any(isinstance(node, Union) for node in _postorder(ast))


def to_nfa(ast: RegexAst, alphabet: Alphabet) -> Nfa:
    """Thompson construction."""
    nfa = Nfa(alphabet)
    done: list[tuple[int, int]] = []  # (start, end) of finished subtrees
    for node in _postorder(ast):
        if isinstance(node, Empty):
            done.append((nfa.add_state(), nfa.add_state()))
        elif isinstance(node, (Epsilon, Sym)):
            label = None
            if isinstance(node, Sym):
                if node.char not in alphabet:
                    raise InputError(f"symbol {node.char!r} not in alphabet {''.join(alphabet.symbols)!r}")
                label = node.char
            s = nfa.add_state()
            t = nfa.add_state()
            nfa.add_edge(s, label, t)
            done.append((s, t))
        elif isinstance(node, Concat):
            (s2, t2), (s1, t1) = done.pop(), done.pop()
            nfa.add_edge(t1, None, s2)
            done.append((s1, t2))
        elif isinstance(node, Union):
            (s2, t2), (s1, t1) = done.pop(), done.pop()
            s = nfa.add_state()
            t = nfa.add_state()
            nfa.add_edge(s, None, s1)
            nfa.add_edge(s, None, s2)
            nfa.add_edge(t1, None, t)
            nfa.add_edge(t2, None, t)
            done.append((s, t))
        elif isinstance(node, Star):
            s1, t1 = done.pop()
            s = nfa.add_state()
            t = nfa.add_state()
            nfa.add_edge(s, None, s1)
            nfa.add_edge(s, None, t)
            nfa.add_edge(t1, None, s1)
            nfa.add_edge(t1, None, t)
            done.append((s, t))
        else:  # pragma: no cover
            raise TypeError(node)
    s, t = done.pop()
    nfa.starts.add(s)
    nfa.accepting.add(t)
    return nfa


def compile_regex(ast: RegexAst | str, alphabet: Alphabet | None = None) -> Dfa:
    """Minimal DFA of the denoted language.

    With no explicit alphabet, the symbols of the expression in
    first-appearance order are used.
    """
    if isinstance(ast, str):
        ast = parse_regex(ast)
    if alphabet is None:
        syms = symbols_of(ast)
        if not syms:
            raise InputError("cannot infer an alphabet from a symbol-free expression")
        alphabet = Alphabet.of(syms)
    return minimize(to_nfa(ast, alphabet).determinize())
