"""Contextual grammars with selection: external and internal derivation.

External derivation wraps a context around the whole word when the word
belongs to a pair's selection language; internal derivation wraps it
around any subword belonging to the selection language.  One successor
kernel builds (and, if asked, checks) the steps of a word as a list of
words, reading each pair through a plan built once per call; generation
is a closure over it by length layers, because every kept step strictly
lengthens the word, so a length bound makes it exhaustive.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, NamedTuple

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
    """A selection language over its own alphabet U.

    Membership queries answer False for words outside U*, so selectors
    defined over a sub-alphabet simply reject foreign-symbol words.
    `distances[q]` is the fewest steps from state q of `dfa` to
    acceptance, None where acceptance is out of reach.
    """

    alphabet: Alphabet
    dfa: Dfa
    source: object  # RegexAst | SltRep | Dfa, kept for rendering/validation
    distances: tuple[int | None, ...]

    @classmethod
    def from_dfa(cls, d: Dfa) -> "LanguageHandle":
        dm = minimize(d)
        return cls(dm.alphabet, dm, d, tuple(accept_distances(dm)))

    @classmethod
    def from_regex(cls, expr: RegexAst | str, alphabet: Alphabet | None = None) -> "LanguageHandle":
        ast = parse_regex(expr) if isinstance(expr, str) else expr
        dfa = compile_regex(ast, alphabet)
        return cls(dfa.alphabet, dfa, ast, tuple(accept_distances(dfa)))

    @classmethod
    def from_slt(cls, rep: SltRep) -> "LanguageHandle":
        dfa = slt_to_dfa(rep)
        return cls(rep.alphabet, dfa, rep, tuple(accept_distances(dfa)))

    def contains(self, word: str) -> bool:
        return self.dfa.accepts(word)

    def bounded_words(self, max_len: int) -> list[str]:
        return enumerate_upto(self.dfa, max_len)


class Context(Record):
    """The words a derivation step puts left and right of the selected word."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: str, right: str) -> None:
        self._set_fields(left, right)

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


def grammar_is_valid(diagnostics: Iterable[Diagnostic]) -> bool:
    return not any(d.severity == "error" for d in diagnostics)


# ---------------------------------------------------------------------------
# derivation steps


def _step_plan(g: ContextualGrammar) -> list[tuple]:
    """What the successor kernel reads of each pair, as plain tuples.

    Per pair: the non-empty contexts as (left, right, len(left)), each
    subset of them by room left under a length bound (None: all), the
    selector's membership test, transitions, distances, start and symbol
    index, and a membership memo keyed by the subword.  Empty contexts
    are dropped as self-loops, so every step strictly lengthens the word.
    """
    plan = []
    for pair in g.pairs:
        contexts = tuple((c.left, c.right, len(c.left)) for c in pair.contexts if not c.is_empty)
        sel = pair.selector
        dfa = sel.dfa
        plan.append((
            {None: contexts}, sel.contains, dfa.transitions, sel.distances, dfa.start,
            dfa.alphabet._index, {},  # type: ignore[attr-defined]
        ))
    return plan


def _successors(
    plan: list[tuple], mode: str, word: str, limit: int | None = None, check: bool = False
) -> list[str]:
    """Every one-step derivation of word, in (pair, split, context) order.

    Given a limit, contexts that would make a step longer than it are
    dropped, and a pair with none left is not scanned.  With check on,
    each step is checked as it is built: it must lengthen word, and in
    internal mode the step's own slice at the shifted split must still
    be selected (decided once per pair and subword).
    """
    n = len(word)
    room = None if limit is None else limit - n
    out: list[str] = []
    for by_room, contains, trans, dist, start, index, selected in plan:
        contexts = by_room.get(room)
        if contexts is None:
            contexts = by_room[room] = tuple(c for c in by_room[None] if len(c[0]) + len(c[1]) <= room)
        if not contexts:
            continue
        if mode == "ex":
            if contains(word):
                for left, right, _ in contexts:
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
                    for left, right, shift in contexts:
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
    check_invariants has the kernel check every step it builds, also
    those beyond max_len; the membership of a selected subword is decided
    once per (pair, subword) in the call.
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
    limit = None if check_invariants else max_len
    out: list[str] = []
    expansions = 0
    while layers:
        layer = sorted(layers.pop(min(layers)), key=lambda w: w.translate(table))
        for w in layer:
            if step_cap is not None and expansions >= step_cap:
                raise StepCapExceeded(g.alphabet.sort_words(seen), expansions)
            expansions += 1
            for y in _successors(plan, mode, w, limit, check_invariants):
                if len(y) <= max_len and y not in seen:
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


BoundedSource = object  # grammar+mode tuple, LanguageHandle, Dfa, or word collection


def bounded_words(source: BoundedSource, max_len: int) -> list[str]:
    """Words of length <= max_len from any comparable source, sorted."""
    if isinstance(source, tuple) and len(source) == 2 and isinstance(source[0], ContextualGrammar):
        return generate_bounded(source[0], source[1], max_len)
    if isinstance(source, ContextualGrammar):
        raise InputError("a grammar source needs a mode: pass (grammar, 'ex'|'in')")
    if isinstance(source, LanguageHandle):
        return source.bounded_words(max_len)
    if isinstance(source, Dfa):
        return enumerate_upto(source, max_len)
    if isinstance(source, (set, frozenset, list, tuple)) and not hasattr(source, "_fields"):
        # a record is a named tuple, not a word collection
        return sorted({w for w in source if len(w) <= max_len}, key=lambda w: (len(w), w))
    raise InputError(f"cannot enumerate a {type(source).__name__} source")


def _source_alphabet(source: BoundedSource) -> Alphabet | None:
    if isinstance(source, tuple) and source and isinstance(source[0], ContextualGrammar):
        return source[0].alphabet
    if isinstance(source, LanguageHandle):
        return source.alphabet
    if isinstance(source, Dfa):
        return source.alphabet
    return None


def compare_bounded(left: BoundedSource, right: BoundedSource, max_len: int) -> CompareReport:
    """Symmetric difference of the two bounded word sets; empty means equal.

    When only one source has an alphabet, every word of the other source
    must be over it."""
    la, ra = _source_alphabet(left), _source_alphabet(right)
    if la is not None and ra is not None and la.symbols != ra.symbols:
        raise InputError(
            f"alphabet mismatch: {''.join(la.symbols)!r} vs {''.join(ra.symbols)!r}"
        )
    lw = bounded_words(left, max_len)
    rw = bounded_words(right, max_len)
    alpha = la if la is not None else ra
    if alpha is not None:
        stray = next((w for w in (rw if la is not None else lw) if not alpha.covers(w)), None)
        if stray is not None:
            raise InputError(f"alphabet mismatch: {stray!r} is not a word over {''.join(alpha.symbols)!r}")
    lw, rw = set(lw), set(rw)
    sort = alpha.sort_words if alpha is not None else (lambda ws: sorted(ws, key=lambda w: (len(w), w)))
    return CompareReport(max_len, tuple(sort(lw - rw)), tuple(sort(rw - lw)))
