"""Seeded input generators and independent reference acceptors.

Everything here is plain Python with no use of the program under test, so
the same seed gives byte-identical input files on every commit.  Each
reference acceptor decides membership directly from the generated input
(transition table, window sets, or an automaton built here), which is what the
output checks compare the program's certificates against.
"""

from __future__ import annotations

import itertools
import random

REGEX_DEPTH = 7
REGEX_LEAF_P = 0.3


def words_upto(alphabet: str, n: int) -> list[str]:
    return ["".join(p) for k in range(n + 1) for p in itertools.product(alphabet, repeat=k)]


# ---------------------------------------------------------------------------
# random minimal DFAs


def _is_minimal(trans: list[tuple[int, ...]], accepting: set[int]) -> bool:
    """All states reachable from 0 and pairwise distinguishable (Moore)."""
    n = len(trans)
    seen = {0}
    stack = [0]
    while stack:
        for t in trans[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    if len(seen) != n:
        return False
    cls = [1 if q in accepting else 0 for q in range(n)]
    while True:
        sigs: dict[tuple, int] = {}
        new = [sigs.setdefault((cls[q],) + tuple(cls[t] for t in trans[q]), len(sigs)) for q in range(n)]
        if len(sigs) == len(set(cls)):
            return len(sigs) == n
        cls = new


class TableDfa:
    """A generated DFA: the file text plus a direct table-walk acceptor."""

    def __init__(self, alphabet: str, trans: list[tuple[int, ...]], accepting: set[int]):
        self.alphabet = alphabet
        self.trans = trans
        self.accepting = accepting
        self._index = {a: i for i, a in enumerate(alphabet)}

    def accepts(self, word: str) -> bool:
        q = 0
        for c in word:
            q = self.trans[q][self._index[c]]
        return q in self.accepting

    def text(self) -> str:
        lines = [
            "alphabet " + " ".join(self.alphabet),
            f"states {len(self.trans)}",
            "start 0",
            "accept" + "".join(f" {q}" for q in sorted(self.accepting)),
        ]
        for q, row in enumerate(self.trans):
            lines.extend(f"trans {q} {a} {t}" for a, t in zip(self.alphabet, row))
        return "\n".join(lines) + "\n"


def random_minimal_dfa(rng: random.Random, n: int, alphabet: str) -> TableDfa:
    while True:
        trans = [tuple(rng.randrange(n) for _ in alphabet) for _ in range(n)]
        accepting = {q for q in range(n) if rng.random() < 0.5}
        if _is_minimal(trans, accepting):
            return TableDfa(alphabet, trans, accepting)


# ---------------------------------------------------------------------------
# random window-set files


class WindowSets:
    """A generated window-set representation and its direct window test."""

    def __init__(self, k: int, alphabet: str, prefixes, interiors, suffixes, short):
        self.k = k
        self.alphabet = alphabet
        self.prefixes = frozenset(prefixes)
        self.interiors = frozenset(interiors)
        self.suffixes = frozenset(suffixes)
        self.short = frozenset(short)

    def accepts(self, word: str) -> bool:
        k, n = self.k, len(word)
        if n < k:
            return word in self.short
        if word[:k] not in self.prefixes or word[n - k :] not in self.suffixes:
            return False
        # interior windows have at least one symbol strictly on each side
        return all(word[j : j + k] in self.interiors for j in range(1, n - k))

    def text(self) -> str:
        def tokens(words) -> str:
            return "".join(f" {w or '_'}" for w in sorted(words, key=lambda w: (len(w), w)))

        return (
            f"slt k={self.k}\nalphabet {' '.join(self.alphabet)}\n"
            f"B{tokens(self.prefixes)}\nI{tokens(self.interiors)}\n"
            f"E{tokens(self.suffixes)}\nF{tokens(self.short)}\n"
        )


def random_window_sets(rng: random.Random, k: int, alphabet: str) -> WindowSets:
    full = words_upto(alphabet, k)[-len(alphabet) ** k :]

    def pick(p: float) -> list[str]:
        return [w for w in full if rng.random() < p]

    short = [w for w in words_upto(alphabet, k - 1) if rng.random() < 0.4]
    return WindowSets(k, alphabet, pick(0.5), pick(0.7), pick(0.5), short)


# ---------------------------------------------------------------------------
# random regular expressions


def random_regex(rng: random.Random, alphabet: str, depth: int = REGEX_DEPTH) -> str:
    """Surface syntax of a random expression tree of depth at most `depth`."""
    if depth <= 1 or rng.random() < REGEX_LEAF_P:
        return rng.choice(alphabet) if rng.random() < 0.9 else "_"
    op = rng.random()
    left = random_regex(rng, alphabet, depth - 1)
    if op < 0.45:
        return left + random_regex(rng, alphabet, depth - 1)
    if op < 0.75:
        return f"({left}|{random_regex(rng, alphabet, depth - 1)})"
    return f"({left})*"


class RegexReference:
    """Membership through a Thompson automaton built here from the expression,
    independent of the program's parser and compiler, run as a lazily
    determinized state-set machine (no backtracking)."""

    def __init__(self, expr: str):
        self._eps: dict[int, list[int]] = {}
        self._sym: dict[tuple[int, str], list[int]] = {}
        self._n = 0
        self._src = expr.replace(" ", "")
        self._pos = 0
        begin, self._final = self._union()
        if self._pos != len(self._src):
            raise ValueError(f"trailing input in {expr!r}")
        self._start = self._closure({begin})
        self._steps: dict[tuple[frozenset[int], str], frozenset[int]] = {}

    def _state(self) -> int:
        self._n += 1
        return self._n - 1

    def _edge(self, p: int, q: int, sym: str | None = None) -> None:
        if sym is None:
            self._eps.setdefault(p, []).append(q)
        else:
            self._sym.setdefault((p, sym), []).append(q)

    def _peek(self) -> str | None:
        return self._src[self._pos] if self._pos < len(self._src) else None

    def _union(self) -> tuple[int, int]:
        s, t = self._concat()
        while self._peek() == "|":
            self._pos += 1
            s2, t2 = self._concat()
            s0, t0 = self._state(), self._state()
            for a, b in ((s0, s), (s0, s2), (t, t0), (t2, t0)):
                self._edge(a, b)
            s, t = s0, t0
        return s, t

    def _concat(self) -> tuple[int, int]:
        s, t = self._starred()
        while self._peek() not in (None, "|", ")"):
            s2, t2 = self._starred()
            self._edge(t, s2)
            t = t2
        return s, t

    def _starred(self) -> tuple[int, int]:
        s, t = self._atom()
        while self._peek() == "*":
            self._pos += 1
            s0, t0 = self._state(), self._state()
            for a, b in ((s0, s), (s0, t0), (t, s), (t, t0)):
                self._edge(a, b)
            s, t = s0, t0
        return s, t

    def _atom(self) -> tuple[int, int]:
        c = self._peek()
        if c is None or c in "|*)":
            raise ValueError(f"unexpected {c!r} in {self._src!r}")
        self._pos += 1
        if c == "(":
            s, t = self._union()
            if self._peek() != ")":
                raise ValueError(f"unbalanced parenthesis in {self._src!r}")
            self._pos += 1
            return s, t
        s, t = self._state(), self._state()
        self._edge(s, t, None if c == "_" else c)
        return s, t

    def _closure(self, states) -> frozenset[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            for q in self._eps.get(stack.pop(), ()):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return frozenset(seen)

    def accepts(self, word: str) -> bool:
        cur = self._start
        for c in word:
            key = (cur, c)
            nxt = self._steps.get(key)
            if nxt is None:
                nxt = self._closure(t for q in cur for t in self._sym.get((q, c), ()))
                self._steps[key] = nxt
            cur = nxt
        return self._final in cur
