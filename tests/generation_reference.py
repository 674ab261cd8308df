"""Reference route for grammar generation, kept as a differential oracle.

This is the heap-based closure: candidates come from one generator per
mode that yields each of them with its step, a `(pair_index, context,
split)` tuple; words are popped in (length, lex) order from a heap keyed
by `Alphabet.word_key`, and the result is sorted once more at the end.
The package generates by length layers over one successor kernel of its
own; output lists, step-cap partials and successor sets must agree
exactly.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from sublang.automata import InputError
from sublang.grammars import MODES, Context, ContextualGrammar

Step = tuple[int, Context, tuple[int, int] | None]  # pair_index, context, split


def _external_steps(g: ContextualGrammar, word: str) -> Iterator[tuple[str, Step]]:
    for p_idx, pair in enumerate(g.pairs):
        if pair.selector.contains(word):
            for ctx in pair.contexts:
                if ctx.is_empty:
                    continue  # self-loop, discarded without changing the language
                yield ctx.left + word + ctx.right, (p_idx, ctx, None)


def _internal_steps(g: ContextualGrammar, word: str) -> Iterator[tuple[str, Step]]:
    n = len(word)
    for p_idx, pair in enumerate(g.pairs):
        sel = pair.selector
        dfa = sel.dfa
        sym_index = dfa.alphabet._index  # type: ignore[attr-defined]
        trans = dfa.transitions
        accepting = dfa.accepting
        contexts = [c for c in pair.contexts if not c.is_empty]
        if not contexts:
            continue
        for i in range(n + 1):
            q = dfa.start
            j = i
            while True:
                if q in accepting:
                    for ctx in contexts:
                        yield (
                            word[:i] + ctx.left + word[i:j] + ctx.right + word[j:],
                            (p_idx, ctx, (i, j)),
                        )
                if j >= n:
                    break
                s = sym_index.get(word[j])
                if s is None:
                    break  # foreign symbol for this selector's alphabet
                q = trans[q][s]
                j += 1


def _steps(g: ContextualGrammar, mode: str, word: str) -> Iterator[tuple[str, Step]]:
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
    Each word is expanded at most once; check_invariants checks each step
    within the bound, the steps that the closure keeps.
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
            if check_invariants and len(y) <= max_len:
                _check_expansion(g, mode, w, y, step)
            if len(y) <= max_len and y not in seen:
                seen.add(y)
                heapq.heappush(heap, (key(y), y))
    return g.alphabet.sort_words(seen)


def _check_expansion(g: ContextualGrammar, mode: str, w: str, y: str, step: Step) -> None:
    p_idx, ctx, split = step
    if len(y) < len(w) or (len(ctx.left) + len(ctx.right) >= 1 and len(y) <= len(w)):
        raise AssertionError(f"derivation step shortened {w!r} to {y!r}")
    if mode == "in":
        # re-applicability: after insertion the selected subword is intact,
        # so the same pair must still offer a step on the result
        i, j = split  # type: ignore[misc]
        inner = y[i + len(ctx.left) : j + len(ctx.left)]
        if not g.pairs[p_idx].selector.contains(inner):
            raise AssertionError(f"inserted context destroyed the selected subword of {w!r}")

