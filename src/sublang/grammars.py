"""Contextual grammars with selection: external and internal derivation.

External derivation wraps a context around the whole word when the word
belongs to a pair's selection language; internal derivation wraps it
around any subword belonging to the selection language.  Generation is a
breadth-first closure over non-shortening steps, so a length bound makes
it exhaustive.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

from .automata import (
    Alphabet,
    Dfa,
    InputError,
    enumerate_upto,
    longest_accepted_length,
    minimize,
)
from .families import FAMILY_PROCEDURES, decide_family, is_union_free_syntactic
from .regexes import RegexAst, compile_regex, parse_regex
from .slt import SltRep, infer_slt, is_slt_k, slt_to_dfa


@dataclass(frozen=True)
class LanguageHandle:
    """A selection language over its own alphabet U.

    Membership queries answer False for words outside U*, so selectors
    defined over a sub-alphabet simply reject foreign-symbol words.
    """

    alphabet: Alphabet
    dfa: Dfa
    source: object  # RegexAst | SltRep | Dfa, kept for rendering/validation
    max_word_len: int | None  # None = infinite, -1 = empty language

    @classmethod
    def from_dfa(cls, d: Dfa) -> "LanguageHandle":
        dm = d if d.minimal else minimize(d)
        return cls(dm.alphabet, dm, d, longest_accepted_length(dm))

    @classmethod
    def from_regex(cls, expr: RegexAst | str, alphabet: Alphabet | None = None) -> "LanguageHandle":
        ast = parse_regex(expr) if isinstance(expr, str) else expr
        dfa = compile_regex(ast, alphabet)
        return cls(dfa.alphabet, dfa, ast, longest_accepted_length(dfa))

    @classmethod
    def from_slt(cls, rep: SltRep) -> "LanguageHandle":
        dfa = slt_to_dfa(rep)
        return cls(rep.alphabet, dfa, rep, longest_accepted_length(dfa))

    def contains(self, word: str) -> bool:
        return self.dfa.accepts(word)

    def bounded_words(self, max_len: int) -> list[str]:
        return enumerate_upto(self.dfa, max_len)


@dataclass(frozen=True)
class Context:
    left: str
    right: str

    @property
    def is_empty(self) -> bool:
        return not self.left and not self.right


@dataclass(frozen=True)
class SelectionPair:
    selector: LanguageHandle
    contexts: tuple[Context, ...]
    declared_family: str | None = None


@dataclass(frozen=True)
class ContextualGrammar:
    alphabet: Alphabet
    pairs: tuple[SelectionPair, ...]
    axioms: tuple[str, ...]


MODES = ("ex", "in")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str


def validate_grammar(g: ContextualGrammar) -> list[Diagnostic]:
    """Structural and declared-family checks; errors mean the grammar is invalid."""
    out: list[Diagnostic] = []
    if not g.alphabet.symbols:
        out.append(Diagnostic("error", "base alphabet is empty"))
    for w in g.axioms:
        if not g.alphabet.covers(w):
            out.append(Diagnostic("error", f"axiom {w or '_'!r} uses symbols outside the base alphabet"))
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
        if pair.declared_family:
            diag = _check_declared_family(pair.selector, pair.declared_family)
            if diag:
                out.append(Diagnostic(diag[0], f"{where}: {diag[1]}"))
    return out


def grammar_is_valid(diagnostics: Iterable[Diagnostic]) -> bool:
    return not any(d.severity == "error" for d in diagnostics)


def _check_declared_family(handle: LanguageHandle, family: str) -> tuple[str, str] | None:
    d = handle.dfa
    family = family.upper()
    if family in FAMILY_PROCEDURES:
        verdict = decide_family(family, d)
        if verdict.value == "no":
            return ("error", f"selector fails the declared family {family}: {verdict.render()}")
        if verdict.value == "unknown":
            return ("warning", f"declared family {family} not confirmed: {verdict.render()}")
        return None
    if family.startswith("SLT") and family != "SLT":
        try:
            k = int(family[3:])
        except ValueError:
            return ("error", f"unknown family tag {family!r}")
        if not is_slt_k(d, k):
            return ("error", f"selector is not strictly locally {k}-testable")
        return None
    if family == "SLT":
        res = infer_slt(d)
        if not res.found:
            return (
                "warning",
                f"selector not confirmed strictly locally testable up to k={res.k_max}",
            )
        return None
    if family == "UF":
        if isinstance(handle.source, RegexAst):
            if is_union_free_syntactic(handle.source):
                return None
            return ("error", "selector expression contains a union")
        return ("warning", "union-freeness cannot be certified without an expression")
    return ("error", f"unknown family tag {family!r}")


# ---------------------------------------------------------------------------
# derivation steps


@dataclass(frozen=True)
class DerivationStep:
    pair_index: int
    context: Context
    split: tuple[int, int] | None  # internal: (i, j) bounds of the selected subword

    def apply(self, word: str) -> str:
        if self.split is None:
            return self.context.left + word + self.context.right
        i, j = self.split
        return word[:i] + self.context.left + word[i:j] + self.context.right + word[j:]


@dataclass(frozen=True)
class DerivationTrace:
    mode: str
    axiom: str
    steps: tuple[DerivationStep, ...]
    final: str

    def replay(self, g: ContextualGrammar) -> str:
        """Re-run the recorded steps, checking each selection along the way."""
        w = self.axiom
        for step in self.steps:
            pair = g.pairs[step.pair_index]
            selected = w if step.split is None else w[step.split[0] : step.split[1]]
            if not pair.selector.contains(selected):
                raise RuntimeError(f"trace step selects {selected!r} outside its selection language")
            if step.context not in pair.contexts:
                raise RuntimeError("trace step uses a context not in its pair")
            w = step.apply(w)
        if w != self.final:
            raise RuntimeError(f"trace replays to {w!r}, recorded final is {self.final!r}")
        return w


def _external_steps(g: ContextualGrammar, word: str) -> Iterator[tuple[str, DerivationStep]]:
    for p_idx, pair in enumerate(g.pairs):
        if pair.selector.contains(word):
            for ctx in pair.contexts:
                if ctx.is_empty:
                    continue  # self-loop, discarded without changing the language
                yield ctx.left + word + ctx.right, DerivationStep(p_idx, ctx, None)


def _internal_steps(g: ContextualGrammar, word: str) -> Iterator[tuple[str, DerivationStep]]:
    n = len(word)
    for p_idx, pair in enumerate(g.pairs):
        sel = pair.selector
        dfa = sel.dfa
        bound = sel.max_word_len
        sym_index = dfa.alphabet._index  # type: ignore[attr-defined]
        trans = dfa.transitions
        accepting = dfa.accepting
        contexts = [c for c in pair.contexts if not c.is_empty]
        if not contexts or bound == -1:
            continue
        for i in range(n + 1):
            q = dfa.start
            j = i
            while True:
                if q in accepting:
                    for ctx in contexts:
                        yield (
                            word[:i] + ctx.left + word[i:j] + ctx.right + word[j:],
                            DerivationStep(p_idx, ctx, (i, j)),
                        )
                if j >= n or (bound is not None and j - i >= bound):
                    break
                s = sym_index.get(word[j])
                if s is None:
                    break  # foreign symbol for this selector's alphabet
                q = trans[q][s]
                j += 1


def _steps(g: ContextualGrammar, mode: str, word: str) -> Iterator[tuple[str, DerivationStep]]:
    if mode == "ex":
        return _external_steps(g, word)
    if mode == "in":
        return _internal_steps(g, word)
    raise InputError(f"derivation mode must be one of {MODES}, got {mode!r}")


def external_successors(g: ContextualGrammar, word: str) -> set[str]:
    return {y for y, _ in _external_steps(g, word)}


def internal_successors(g: ContextualGrammar, word: str) -> set[str]:
    return {y for y, _ in _internal_steps(g, word)}


class StepCapExceeded(RuntimeError):
    """Raised when generation exhausts its step cap; carries the partial set."""

    def __init__(self, partial: list[str]):
        super().__init__(f"step cap exhausted after {len(partial)} expansions")
        self.partial = partial


def generate_bounded(
    g: ContextualGrammar,
    mode: str,
    max_len: int,
    step_cap: int | None = None,
    check_invariants: bool = False,
) -> list[str]:
    """Exactly the generated words of length <= max_len, sorted (length, lex).

    Sound because every derivation step is length-non-decreasing, so no
    word within the bound is ever reached only via a longer intermediate.
    Each word is expanded at most once.
    """
    if max_len < 0:
        raise InputError("max_len must be >= 0")
    if mode not in MODES:
        raise InputError(f"derivation mode must be one of {MODES}, got {mode!r}")
    for w in g.axioms:
        if not g.alphabet.covers(w):
            raise InputError(f"axiom {w!r} uses symbols outside the base alphabet")

    key = g.alphabet.word_key
    seen: set[str] = set()
    heap: list[tuple[tuple, str]] = []
    for w in g.axioms:
        if len(w) <= max_len and w not in seen:
            seen.add(w)
            heapq.heappush(heap, (key(w), w))
    expansions = 0
    while heap:
        _, w = heapq.heappop(heap)
        if step_cap is not None and expansions >= step_cap:
            raise StepCapExceeded(g.alphabet.sort_words(seen))
        expansions += 1
        for y, step in _steps(g, mode, w):
            if check_invariants:
                _check_expansion(g, mode, w, y, step)
            if len(y) <= max_len and y not in seen:
                seen.add(y)
                heapq.heappush(heap, (key(y), y))
    return g.alphabet.sort_words(seen)


def _check_expansion(g: ContextualGrammar, mode: str, w: str, y: str, step: DerivationStep) -> None:
    ctx = step.context
    if len(y) < len(w) or (len(ctx.left) + len(ctx.right) >= 1 and len(y) <= len(w)):
        raise AssertionError(f"derivation step shortened {w!r} to {y!r}")
    if mode == "in":
        # re-applicability: after insertion the selected subword is intact,
        # so the same pair must still offer a step on the result
        i, j = step.split  # type: ignore[misc]
        inner = y[i + len(ctx.left) : j + len(ctx.left)]
        if not g.pairs[step.pair_index].selector.contains(inner):
            raise AssertionError(f"inserted context destroyed the selected subword of {w!r}")


class NotDerivable(Exception):
    """Target not derivable within the given bound."""

    def __init__(self, target: str, max_len: int):
        super().__init__(f"{target or '_'!r} is not derivable within length {max_len}")
        self.target = target
        self.max_len = max_len


def derivation_trace(
    g: ContextualGrammar, mode: str, target: str, max_len: int | None = None
) -> DerivationTrace:
    """A shortest-step derivation of target from some axiom.

    Ties break canonically: first-found in (pair, split, context) order
    over a breadth-first search by step count.
    """
    bound = len(target) if max_len is None else max_len
    if len(target) > bound:
        raise InputError(f"target longer than max_len={bound}")
    if not g.alphabet.covers(target):
        raise NotDerivable(target, bound)
    # intermediates never exceed the target length
    limit = len(target)
    parents: dict[str, tuple[str, DerivationStep] | None] = {}
    frontier: list[str] = []
    for w in g.axioms:
        if len(w) <= limit and w not in parents:
            parents[w] = None
            frontier.append(w)
    while frontier:
        if target in parents:
            break
        nxt: list[str] = []
        for w in frontier:
            for y, step in _steps(g, mode, w):
                if len(y) <= limit and y not in parents:
                    parents[y] = (w, step)
                    nxt.append(y)
        frontier = nxt
    if target not in parents:
        raise NotDerivable(target, bound)
    steps: list[DerivationStep] = []
    cur = target
    while parents[cur] is not None:
        cur, step = parents[cur]  # type: ignore[misc]
        steps.append(step)
    trace = DerivationTrace(mode, cur, tuple(reversed(steps)), target)
    trace.replay(g)
    return trace


# ---------------------------------------------------------------------------
# bounded comparison


@dataclass(frozen=True)
class CompareReport:
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
        out.extend(f"left only: {w or '_'}" for w in self.left_only)
        out.extend(f"right only: {w or '_'}" for w in self.right_only)
        return out


BoundedSource = object  # grammar+mode tuple, LanguageHandle, Dfa, or word collection


def bounded_words(source: BoundedSource, max_len: int) -> list[str]:
    """Words of length <= max_len from any comparable source, sorted."""
    if isinstance(source, tuple) and len(source) == 2 and isinstance(source[0], ContextualGrammar):
        g, mode = source
        return generate_bounded(g, mode, max_len)
    if isinstance(source, ContextualGrammar):
        raise InputError("a grammar source needs a mode: pass (grammar, 'ex'|'in')")
    if isinstance(source, LanguageHandle):
        return source.bounded_words(max_len)
    if isinstance(source, Dfa):
        return enumerate_upto(source, max_len)
    if isinstance(source, (set, frozenset, list, tuple)):
        words = sorted(
            {w for w in source if len(w) <= max_len}, key=lambda w: (len(w), w)
        )
        return words
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
    """Symmetric difference of the two bounded word sets; empty means equal."""
    la, ra = _source_alphabet(left), _source_alphabet(right)
    if la is not None and ra is not None and la.symbols != ra.symbols:
        raise InputError(
            f"alphabet mismatch: {''.join(la.symbols)!r} vs {''.join(ra.symbols)!r}"
        )
    lw = set(bounded_words(left, max_len))
    rw = set(bounded_words(right, max_len))
    alpha = la or ra
    sort = alpha.sort_words if alpha else (lambda ws: sorted(ws, key=lambda w: (len(w), w)))
    return CompareReport(
        max_len,
        tuple(sort(lw - rw)),
        tuple(sort(rw - lw)),
    )
