"""Contextual grammars with selection: external and internal derivation.

External derivation wraps a context around the whole word when the word
belongs to a pair's selection language; internal derivation wraps it
around any subword belonging to the selection language.  One successor
kernel builds the steps of a word within a length bound (and, if asked,
checks each step it builds) as a list of words, reading each pair
through a plan built once per call; generation is a closure over it by
length layers, because every kept step strictly lengthens the word, so a
length bound makes it exhaustive.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, NamedTuple

from .automata import (
    Alphabet,
    Dfa,
    InputError,
    Record,
    accept_distances,
    enumerate_upto,
    minimize,
    word_to_token,
)
from .families import UnknownFamilyTag, decide_family
from .regexes import RegexAst, compile_regex, parse_regex
from .slt import SltRep, slt_to_dfa


class LanguageHandle(NamedTuple):
    """A selection language over its own alphabet U, the alphabet of its DFA.

    Membership queries answer False for words outside U*, so selectors
    defined over a sub-alphabet simply reject foreign-symbol words.
    """

    dfa: Dfa
    source: object  # RegexAst | SltRep | Dfa, kept for rendering/validation

    @property
    def alphabet(self) -> Alphabet:
        return self.dfa.alphabet

    @classmethod
    def from_dfa(cls, d: Dfa) -> "LanguageHandle":
        return cls(minimize(d), d)

    @classmethod
    def from_regex(cls, expr: RegexAst | str, alphabet: Alphabet | None = None) -> "LanguageHandle":
        ast = parse_regex(expr) if isinstance(expr, str) else expr
        return cls(compile_regex(ast, alphabet), ast)

    @classmethod
    def from_slt(cls, rep: SltRep) -> "LanguageHandle":
        return cls(slt_to_dfa(rep), rep)

    def contains(self, word: str) -> bool:
        return self.dfa.accepts(word)

    def bounded_words(self, max_len: int) -> list[str]:
        return enumerate_upto(self.dfa, max_len)


class Context(Record):
    """The words a derivation step puts left and right of the selected word."""

    __slots__ = _fields = ("left", "right")

    @property
    def is_empty(self) -> bool:
        return not self.left and not self.right


class SelectionPair(NamedTuple):
    selector: LanguageHandle
    contexts: tuple[Context, ...]
    declared_family: str | None = None


class ContextualGrammar(NamedTuple):
    alphabet: Alphabet
    pairs: tuple[SelectionPair, ...]
    axioms: tuple[str, ...]


MODES = ("ex", "in")


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    message: str


# a declared family's diagnostic by its verdict; "yes" gives none
_DECLARED_FAMILY_DIAGNOSTICS = {
    "no": ("error", "selector fails the declared family {}: {}"),
    "unknown": ("warning", "declared family {} not confirmed: {}"),
}


def validate_grammar(g: ContextualGrammar) -> list[Diagnostic]:
    """Structural and declared-family checks; errors mean the grammar is invalid."""
    out: list[Diagnostic] = []
    if not g.alphabet.symbols:
        out.append(Diagnostic("error", "base alphabet is empty"))
    for w in g.axioms:
        if not g.alphabet.covers(w):
            message = f"axiom {word_to_token(w)!r} uses symbols outside the base alphabet"
            out.append(Diagnostic("error", message))
    if not g.pairs:
        out.append(Diagnostic("warning", "grammar has no selection pairs"))
    for idx, pair in enumerate(g.pairs):
        where = f"pair {idx}"
        if not pair.contexts:
            out.append(Diagnostic("error", f"{where}: context set is empty"))
        for ctx in pair.contexts:
            for side in (ctx.left, ctx.right):
                if not g.alphabet.covers(side):
                    out.append(
                        Diagnostic("error", f"{where}: context side {side!r} outside the base alphabet")
                    )
            if ctx.is_empty:
                out.append(
                    Diagnostic("warning", f"{where}: empty context (_,_) only yields self-loops")
                )
        for sym in pair.selector.alphabet:
            if sym not in g.alphabet:
                out.append(
                    Diagnostic(
                        "error",
                        f"{where}: selector alphabet symbol {sym!r} outside the base alphabet",
                    )
                )
        family = (pair.declared_family or "").upper()
        if not family:
            continue
        try:
            verdict = decide_family(family, pair.selector.dfa, source_expr=pair.selector.source)
        except UnknownFamilyTag as exc:
            out.append(Diagnostic("error", f"{where}: {exc}"))
            continue
        except InputError as exc:  # a limit of the decision, not a fault of the grammar
            value, detail = "unknown", str(exc)
        else:
            value, detail = verdict.value, verdict.render()
        if value in _DECLARED_FAMILY_DIAGNOSTICS:
            severity, text = _DECLARED_FAMILY_DIAGNOSTICS[value]
            out.append(Diagnostic(severity, f"{where}: " + text.format(family, detail)))
    return out


# ---------------------------------------------------------------------------
# derivation steps


def _step_plan(g: ContextualGrammar) -> list[tuple]:
    """What the successor kernel reads of each pair, as plain tuples.

    Per pair: the non-empty contexts as (left, right, len(left),
    len(left) + len(right)), each subset of them by room left under a
    length bound (None: all), the selector's membership test,
    transitions, distances to acceptance (computed here from the same
    automaton, so they cannot disagree with it), start and symbol index,
    and a membership memo keyed by the subword.  Empty contexts are
    dropped as self-loops, so every step strictly lengthens the word.
    """
    plan = []
    for pair in g.pairs:
        contexts = tuple(
            (c.left, c.right, len(c.left), len(c.left) + len(c.right)) for c in pair.contexts if not c.is_empty
        )
        sel = pair.selector
        dfa = sel.dfa
        plan.append((
            {None: contexts}, sel.contains, dfa.transitions, accept_distances(dfa), dfa.start,
            dfa.alphabet._index, {},  # type: ignore[attr-defined]
        ))
    return plan


def _successors(
    plan: list[tuple], mode: str, word: str, limit: int | None = None, check: bool = False
) -> list[str]:
    """Every one-step derivation of word within limit, in (pair, split, context) order.

    Given a limit, contexts that would make a step longer than it are
    dropped, and a pair with none left is not scanned.  With check on,
    every step built is checked in that order: it must lengthen word,
    and in internal mode its own slice at the shifted split must still
    be selected (decided once per pair and subword).
    """
    n = len(word)
    room = None if limit is None else limit - n
    out: list[str] = []
    for by_room, contains, trans, dist, start, index, selected in plan:
        contexts = by_room.get(room)
        if contexts is None:
            contexts = by_room[room] = tuple(c for c in by_room[None] if c[3] <= room)
        if not contexts:
            continue
        if mode == "ex":
            if contains(word):
                for left, right, _, _ in contexts:
                    y = left + word + right
                    if check and len(y) <= n:
                        raise AssertionError(f"derivation step shortened {word!r} to {y!r}")
                    out.append(y)
            continue
        # None marks a foreign symbol for this selector's alphabet
        codes = [index.get(c) for c in word]
        for i in range(n + 1):
            head = word[:i]
            q = start
            j = i
            while True:
                d = dist[q]
                if d is None or j + d > n:
                    break  # no selected subword from i ends within the word
                if d == 0:
                    mid = word[i:j]
                    tail = word[j:]
                    for left, right, shift, _ in contexts:
                        y = head + left + mid + right + tail
                        if check:
                            if len(y) <= n:
                                raise AssertionError(f"derivation step shortened {word!r} to {y!r}")
                            # re-applicability: after insertion the selected
                            # subword is intact, so the pair must still select it
                            inner = y[i + shift : j + shift]
                            ok = selected.get(inner)
                            if ok is None:
                                ok = selected[inner] = contains(inner)
                            if not ok:
                                raise AssertionError(f"inserted context destroyed the selected subword of {word!r}")
                        out.append(y)
                if j == n:
                    break
                s = codes[j]
                if s is None:
                    break
                q = trans[q][s]
                j += 1
    return out


def external_successors(g: ContextualGrammar, word: str) -> set[str]:
    return set(_successors(_step_plan(g), "ex", word))


def internal_successors(g: ContextualGrammar, word: str) -> set[str]:
    return set(_successors(_step_plan(g), "in", word))


class StepCapExceeded(RuntimeError):
    """Raised when generation exhausts its step cap; carries the partial set."""

    def __init__(self, partial: list[str], expansions: int):
        super().__init__(f"step cap exhausted after {expansions} expansions")
        self.partial = partial
        self.expansions = expansions


def generate_bounded(
    g: ContextualGrammar,
    mode: str,
    max_len: int,
    step_cap: int | None = None,
    check_invariants: bool = False,
) -> list[str]:
    """Exactly the generated words of length <= max_len, sorted (length, lex).

    Every kept step strictly lengthens the word, so the closure runs by
    length layers: a layer is complete once the shorter ones are expanded,
    is sorted once, and its words are expanded in order, each once.
    The kernel builds only the steps within max_len (it drops each
    context longer than the room left), so no step needs a length test
    here; check_invariants has it check each step it builds, and the
    membership of a selected subword is decided once per (pair, subword)
    in the call.
    """
    if max_len < 0:
        raise InputError("max_len must be >= 0")
    if step_cap is not None and step_cap < 0:
        raise InputError("step_cap must be >= 0")
    if mode not in MODES:
        raise InputError(f"derivation mode must be one of {MODES}, got {mode!r}")
    for w in g.axioms:
        if not g.alphabet.covers(w):
            raise InputError(f"axiom {w!r} uses symbols outside the base alphabet")

    table = g.alphabet.order_table
    seen = {w for w in g.axioms if len(w) <= max_len}
    layers: defaultdict[int, list[str]] = defaultdict(list)
    for w in seen:
        layers[len(w)].append(w)
    plan = _step_plan(g)
    out: list[str] = []
    expansions = 0
    while layers:
        layer = sorted(layers.pop(min(layers)), key=lambda w: w.translate(table))
        for w in layer:
            if step_cap is not None and expansions >= step_cap:
                raise StepCapExceeded(g.alphabet.sort_words(seen), expansions)
            expansions += 1
            for y in _successors(plan, mode, w, max_len, check_invariants):
                if y not in seen:
                    seen.add(y)
                    layers[len(y)].append(y)
        out.extend(layer)
    return out


# ---------------------------------------------------------------------------
# bounded comparison


class CompareReport(NamedTuple):
    max_len: int
    left_only: tuple[str, ...]
    right_only: tuple[str, ...]

    @property
    def equal(self) -> bool:
        return not self.left_only and not self.right_only

    def render(self) -> list[str]:
        if self.equal:
            return [f"equal up to length {self.max_len}"]
        out = [f"different up to length {self.max_len}"]
        out.extend(f"left only: {word_to_token(w)}" for w in self.left_only)
        out.extend(f"right only: {word_to_token(w)}" for w in self.right_only)
        return out


def _resolve_source(source: object) -> tuple[Alphabet | None, Callable[[int], list[str]]]:
    """The alphabet of a `compare_bounded` source (None for a word
    collection) and a call that lists its words of length <= max_len."""
    if isinstance(source, ContextualGrammar):
        raise InputError("a grammar source needs a mode: pass (grammar, 'ex'|'in')")
    if isinstance(source, LanguageHandle):
        return source.alphabet, source.bounded_words
    if isinstance(source, Dfa):
        return source.alphabet, lambda max_len: enumerate_upto(source, max_len)
    if isinstance(source, tuple) and len(source) == 2 and isinstance(source[0], ContextualGrammar):
        g, mode = source
        return g.alphabet, lambda max_len: generate_bounded(g, mode, max_len)
    # a record is a named tuple, not a word collection
    if isinstance(source, (set, frozenset, list, tuple)) and not hasattr(source, "_fields"):
        if all(isinstance(w, str) for w in source):
            words = sorted(set(source), key=lambda w: (len(w), w))
            return None, lambda max_len: [w for w in words if len(w) <= max_len]
    raise InputError(f"cannot enumerate a {type(source).__name__} source")


def compare_bounded(left: object, right: object, max_len: int) -> CompareReport:
    """Symmetric difference of the two bounded word sets; empty means equal.

    A source is a (grammar, mode) pair, a LanguageHandle, a Dfa or a
    collection of strings, listed deduplicated by length and code point.
    Two sources with alphabets must have the same one, checked before any
    word is listed; when only one has an alphabet, every word of the other
    must be over it."""
    la, left_words = _resolve_source(left)
    ra, right_words = _resolve_source(right)
    if la is not None and ra is not None and la.symbols != ra.symbols:
        raise InputError(
            f"alphabet mismatch: {''.join(la.symbols)!r} vs {''.join(ra.symbols)!r}"
        )
    lw = left_words(max_len)
    rw = right_words(max_len)
    alpha = la if la is not None else ra
    if alpha is not None:
        stray = next((w for w in (rw if la is not None else lw) if not alpha.covers(w)), None)
        if stray is not None:
            raise InputError(f"alphabet mismatch: {stray!r} is not a word over {''.join(alpha.symbols)!r}")
    lw, rw = set(lw), set(rw)
    sort = alpha.sort_words if alpha is not None else (lambda ws: sorted(ws, key=lambda w: (len(w), w)))
    return CompareReport(max_len, tuple(sort(lw - rw)), tuple(sort(rw - lw)))
