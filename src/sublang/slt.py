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
        super().__init__(k, alphabet, prefixes, interiors, suffixes, short_words)

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


# The window automaton of width k: a node is (key, n) after n letters, n
# counted up to k + 1, or _DEAD once no extension can be accepted.  The key
# stands for the short word read (n < k), the prefix window (n = k) or the
# last window (n = k + 1).  `_window_moves` gives the moves and the
# acceptance test of the nodes, which `explore` and `least_word` walk as an
# implicit graph.
_DEAD = None


class _RepWindows:
    """The window-automaton keys of a window-set representation: each short
    word or window is its own key, tested by membership in the sets."""

    def __init__(self, rep: SltRep) -> None:
        self.start = ""
        self._symbols = rep.alphabet.symbols
        self.short = rep.short_words.__contains__
        self.interior = rep.interiors.__contains__
        self.suffix = rep.suffixes.__contains__
        # a word is live iff it begins a short word or a prefix window
        self._live = {w[:j] for w in rep.short_words | rep.prefixes for j in range(len(w) + 1)}

    def extend(self, u: str, i: int, full: bool) -> str | None:
        u += self._symbols[i]
        return u if u in self._live else None

    def slide(self, w: str, i: int) -> str:
        return w[1:] + self._symbols[i]


def _window_moves(k: int, windows):
    """(start, step, accepts) of the window automaton of width k over
    `windows`, a `_RepWindows` or an `automata.LanguageWindows`.  `start`
    is the node of the empty word, `step(node, i)` the node that symbol i
    leads to, and `accepts(node)` whether the word read so far is in the
    language.  `windows` supplies the keys: `start`, the empty word's key;
    `extend(key, i, full)`, a short word's key after symbol i, or None if
    that word begins no word of the language (`full` when it fills the
    width); `slide(key, i)`, the next window's key; and the tests `short`,
    `interior` and `suffix` of a key."""
    extend, slide = windows.extend, windows.slide
    short, interior, suffix = windows.short, windows.interior, windows.suffix

    def step(node, i: int):
        if node is _DEAD:
            return _DEAD
        key, n = node
        if n < k:
            key = extend(key, i, n + 1 == k)
            return _DEAD if key is None else (key, n + 1)
        # past the prefix window, the window has a symbol on each side: it is interior
        if n > k and not interior(key):
            return _DEAD
        return (slide(key, i), k + 1)

    def accepts(node) -> bool:
        if node is _DEAD:
            return False
        key, n = node
        return short(key) if n < k else suffix(key)

    return (windows.start, 0), step, accepts


def slt_to_dfa(rep: SltRep) -> Dfa:
    """Minimal DFA accepting exactly the represented language.

    Sliding-window construction: `explore` numbers the window-automaton
    nodes reachable from the empty word's, where a node is a short word, or
    the most recent window plus whether that window is still the word's own
    prefix.  Short words that begin no short word and no prefix window go
    straight to the dead node.
    """
    check_window_space(rep.alphabet, rep.k)
    start, step, accepts = _window_moves(rep.k, _RepWindows(rep))
    nodes, rows = explore(start, step, len(rep.alphabet))
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
    node, state of d) compares the two, reading the window sets off d as it
    goes (`LanguageWindows.of(d)`, whose nodes are keyed by the images of
    reach+ and reach under the window's suffixes and shared by every k), so
    a "no" visits only the words up to its witness: the length-lex least
    word in the symmetric difference, as `are_equivalent` names it.  A walk
    that ends without one has proved that the canonical sets represent L,
    so a "yes" returns them as its certificate.
    """
    if k < 1:
        raise InputError("window length must be >= 1")
    check_window_space(d.alphabet, k)
    start, step, accepts = _window_moves(k, LanguageWindows.of(d))
    trans, accepting = d.transitions, d.accepting
    witness = least_word(
        d.alphabet.symbols,
        [(start, d.start)],
        lambda pair, i: ((step(pair[0], i), trans[pair[1]][i]),),
        lambda pair: accepts(pair[0]) != (pair[1] in accepting),
    )
    if witness is not None:
        return SltKResult(False, None, witness)
    return SltKResult(True, canonical_rep(d, k), None)


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

    One `is_slt_k` call per k, in turn.  The calls share d's one window
    analysis (`LanguageWindows.of`), so the chains that key the window
    nodes of width k are the tails of those of width k + 1 and each is
    built once for the whole sweep.  A cap past the window space
    (`check_window_space`) is lowered to the widest window length it
    allows, and the result reports the cap searched.
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
