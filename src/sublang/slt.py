"""Strictly locally k-testable representations and decision procedures.

A representation fixes a window length k, three sets of length-k windows
(allowed prefixes, allowed interior windows, allowed suffixes) and a
finite set of short words (length < k).  A word of length >= k belongs to
the language iff its k-prefix is an allowed prefix, its k-suffix an
allowed suffix, and every window with at least one symbol strictly before
and after it is an allowed interior window; shorter words belong iff they
are listed among the short words.
"""

from __future__ import annotations

from typing import NamedTuple

from .automata import (
    Alphabet,
    Dfa,
    InputError,
    LanguageWindows,
    Record,
    are_equivalent,
    check_window_space,
    clamp_window_width,
    enumerate_upto,
    explore,
    factor_sets,
    least_word,
    minimize,
)


class SltRep(Record):
    """Window-set representation of a strictly locally k-testable language."""

    __slots__ = _fields = ("k", "alphabet", "prefixes", "interiors", "suffixes", "short_words")

    def __init__(
        self,
        k: int,
        alphabet: Alphabet,
        prefixes: frozenset[str],
        interiors: frozenset[str],
        suffixes: frozenset[str],
        short_words: frozenset[str],
    ) -> None:
        if k < 1:
            raise InputError("window length k must be >= 1")
        for name, words in (("prefix", prefixes), ("interior", interiors), ("suffix", suffixes)):
            for w in words:
                if len(w) != k:
                    raise InputError(f"{name} window {w!r} must have length exactly {k}")
                if not alphabet.covers(w):
                    raise InputError(f"{name} window {w!r} not over the alphabet")
        for w in short_words:
            if len(w) >= k:
                raise InputError(f"short word {w!r} must be shorter than k={k}")
            if not alphabet.covers(w):
                raise InputError(f"short word {w!r} not over the alphabet")
        self._set_fields(k, alphabet, prefixes, interiors, suffixes, short_words)

    def sorted_fields(self) -> tuple[list[str], list[str], list[str], list[str]]:
        s = self.alphabet.sort_words
        return (
            s(self.prefixes),
            s(self.interiors),
            s(self.suffixes),
            s(self.short_words),
        )


def make_rep(
    k: int,
    alphabet: Alphabet,
    prefixes=(),
    interiors=(),
    suffixes=(),
    short_words=(),
) -> SltRep:
    return SltRep(
        k,
        alphabet,
        frozenset(prefixes),
        frozenset(interiors),
        frozenset(suffixes),
        frozenset(short_words),
    )


def slt_membership(rep: SltRep, word: str) -> bool:
    """Direct window test; words with foreign symbols are rejected."""
    if not rep.alphabet.covers(word):
        return False
    k = rep.k
    n = len(word)
    if n < k:
        return word in rep.short_words
    if word[:k] not in rep.prefixes or word[n - k :] not in rep.suffixes:
        return False
    # Interior windows start at positions 2..n-k (1-indexed); for
    # n in {k, k+1} there are none, exactly as the index range dictates.
    for j in range(1, n - k):
        if word[j : j + k] not in rep.interiors:
            return False
    return True


# Window-automaton nodes: (u, _SHORT) after a short word u (|u| < k);
# (w, _FIRST) after exactly k symbols, w being the prefix window; (w, _LATER)
# after more than k symbols, w being the last window; _DEAD once no
# extension can be accepted.  The start is ("", _SHORT).  `_window_moves`
# gives the moves and the acceptance test of the nodes, which `explore` and
# `least_word` walk as an implicit graph.
_SHORT, _FIRST, _LATER = 0, 1, 2
_DEAD = None


class _RepWindows:
    """The membership tests of `automata.LanguageWindows`, read off a
    window-set representation."""

    def __init__(self, rep: SltRep) -> None:
        self.short = rep.short_words.__contains__
        self.prefix = rep.prefixes.__contains__
        self.interior = rep.interiors.__contains__
        self.suffix = rep.suffixes.__contains__
        # a short word is live iff it begins a short word or a prefix window
        live = {w[:j] for w in rep.short_words | rep.prefixes for j in range(len(w) + 1)}
        self.live = live.__contains__


def _window_moves(k: int, alphabet: Alphabet, sets):
    """(step, accepts) of the window automaton whose windows `sets` tests:
    `step(node, i)` is the node that symbol i leads to, and `accepts(node)`
    whether the word read so far is in the language."""
    symbols = alphabet.symbols

    def step(node: tuple[str, int] | None, i: int) -> tuple[str, int] | None:
        if node is _DEAD:
            return _DEAD
        w, kind = node
        if kind == _SHORT:
            w += symbols[i]
            if len(w) < k:
                return (w, _SHORT) if sets.live(w) else _DEAD
            return (w, _FIRST) if sets.prefix(w) else _DEAD
        # the window w now has a symbol on each side, so it is interior
        if kind == _LATER and not sets.interior(w):
            return _DEAD
        return (w[1:] + symbols[i], _LATER)

    def accepts(node: tuple[str, int] | None) -> bool:
        if node is _DEAD:
            return False
        w, kind = node
        return sets.short(w) if kind == _SHORT else sets.suffix(w)

    return step, accepts


def slt_to_dfa(rep: SltRep) -> Dfa:
    """Minimal DFA accepting exactly the represented language.

    Sliding-window construction: `explore` numbers the window-automaton
    nodes reachable from ("", _SHORT), where a node is a short word, or the
    most recent window plus whether that window is still the word's own
    prefix.  Short words that begin no short word and no prefix window go
    straight to the dead node.
    """
    check_window_space(rep.alphabet, rep.k)
    step, accepts = _window_moves(rep.k, rep.alphabet, _RepWindows(rep))
    nodes, rows = explore(("", _SHORT), step, len(rep.alphabet))
    accepting = frozenset(j for j, node in enumerate(nodes) if accepts(node))
    return minimize(Dfa(rep.alphabet, len(nodes), 0, accepting, tuple(rows)))


def canonical_rep(d: Dfa, k: int) -> SltRep:
    """The forced window sets of L plus its actual short words.

    Any valid window-set representation must contain these sets, so this
    candidate represents L iff any representation does.
    """
    starts, interiors, ends = factor_sets(d, k)
    short = enumerate_upto(d, k - 1)
    return make_rep(k, d.alphabet, starts, interiors, ends, short)


class SltKResult(NamedTuple):
    is_slt_k: bool
    rep: SltRep | None  # exact representation on yes
    witness: str | None  # word separating L from the canonical candidate on no

    def __bool__(self) -> bool:
        return self.is_slt_k


def is_slt_k(d: Dfa, k: int) -> SltKResult:
    """Exact decision of strict local k-testability.

    L is k-testable iff it equals the language of its canonical window sets
    (`canonical_rep`).  One `least_word` walk over pairs (window-automaton
    node, state of d), from (("", _SHORT), start), compares the two, reading
    the window sets off d as it goes, so a "no" visits only the words up to
    its witness: the length-lex least word in the symmetric difference, as
    `are_equivalent` names it.
    Only a "yes" builds the canonical sets, and it checks them once more
    through `slt_to_dfa` and `are_equivalent`.
    """
    if k < 1:
        raise InputError("window length must be >= 1")
    check_window_space(d.alphabet, k)
    step, accepts = _window_moves(k, d.alphabet, LanguageWindows(d))
    trans, accepting = d.transitions, d.accepting
    witness = least_word(
        d.alphabet.symbols,
        [(("", _SHORT), d.start)],
        lambda pair, i: ((step(pair[0], i), trans[pair[1]][i]),),
        lambda pair: accepts(pair[0]) != (pair[1] in accepting),
    )
    if witness is not None:
        return SltKResult(False, None, witness)
    rep = canonical_rep(d, k)
    eq = are_equivalent(slt_to_dfa(rep), d)
    if not eq.equal:  # pragma: no cover - the walk compared the same languages
        raise RuntimeError(f"canonical window sets disagree with the walk at {eq.witness!r}")
    return SltKResult(True, rep, None)


class InferSltResult(NamedTuple):
    found_k: int | None
    rep: SltRep | None
    k_max: int  # bound actually searched
    per_k_witness: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.found_k is not None


# Default cap keeps |V|**k enumerable in well under a second.
_DEFAULT_WINDOW_BUDGET = 1 << 10


def default_k_max(d: Dfa) -> int:
    """min(n_min**2 + 1, largest k with |V|**k within the window budget)."""
    dm = minimize(d)
    bound = dm.n_states * dm.n_states + 1
    v = len(d.alphabet)
    if v >= 2:
        k = 1
        while v ** (k + 1) <= _DEFAULT_WINDOW_BUDGET:
            k += 1
        bound = min(bound, k)
    return max(1, bound)


def check_k_max(k_max: int | None) -> None:
    """Refuse a window-length cap below 1; None stands for the default cap."""
    if k_max is not None and k_max < 1:
        raise InputError("k_max must be >= 1")


def infer_slt(d: Dfa, k_max: int | None = None) -> InferSltResult:
    """Smallest k <= k_max admitting a representation, else a bounded negative.

    A cap past the window space (`check_window_space`) is lowered to the
    widest window length it allows, and the result reports the cap searched.
    """
    check_k_max(k_max)
    k_max = clamp_window_width(d.alphabet, default_k_max(d) if k_max is None else k_max)
    witnesses: list[str] = []
    for k in range(1, k_max + 1):
        res = is_slt_k(d, k)
        if res:
            return InferSltResult(k, res.rep, k_max, tuple(witnesses))
        witnesses.append(res.witness or "")
    return InferSltResult(None, None, k_max, tuple(witnesses))
