"""Complete deterministic finite automata and the regular-language algebra.

Words are plain Python strings over single-character symbols; the empty
word is "".  All enumeration order is fixed by alphabet declaration order,
never by codepoint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

# Hard ceiling on |V|**k style window/word spaces; beyond this the exact
# set-based algorithms would stop being "desk scale".
MAX_WORD_SPACE = 1 << 18


class InputError(ValueError):
    """Bad user-supplied input (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of single-character symbols.

    Declaration order is the tie-break order for every enumeration and
    every lexicographic comparison in this package.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        for s in self.symbols:
            if len(s) != 1:
                raise InputError(f"alphabet symbols must be single characters, got {s!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError(f"duplicate alphabet symbols in {self.symbols!r}")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def of(cls, symbols: Iterable[str]) -> "Alphabet":
        return cls(tuple(symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, sym: str) -> bool:
        return sym in self._index  # type: ignore[attr-defined]

    def index(self, sym: str) -> int:
        try:
            return self._index[sym]  # type: ignore[attr-defined]
        except KeyError:
            raise InputError(f"symbol {sym!r} not in alphabet {''.join(self.symbols)!r}") from None

    def covers(self, word: str) -> bool:
        return all(c in self for c in word)

    def word_key(self, word: str) -> tuple[int, tuple[int, ...]]:
        """Sort key: length first, then lexicographic in declaration order."""
        idx = self._index  # type: ignore[attr-defined]
        return (len(word), tuple(idx[c] for c in word))

    def sort_words(self, words: Iterable[str]) -> list[str]:
        return sorted(words, key=self.word_key)

    def words_of_length(self, k: int) -> Iterator[str]:
        """All length-k words in lexicographic (declaration) order."""
        if k == 0:
            yield ""
            return
        if len(self.symbols) ** k > MAX_WORD_SPACE:
            raise InputError(f"word space |V|^{k} too large to enumerate")
        stack = [""]
        while stack:
            w = stack.pop()
            if len(w) == k:
                yield w
            else:
                stack.extend(w + s for s in reversed(self.symbols))

    def words_upto(self, n: int) -> Iterator[str]:
        for k in range(n + 1):
            yield from self.words_of_length(k)


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: the transition map is total on states x alphabet.

    States are 0..n_states-1.  `minimal` is set only by minimize(); a
    minimal Dfa has all states reachable and pairwise distinguishable.
    """

    alphabet: Alphabet
    n_states: int
    start: int
    accepting: frozenset[int]
    transitions: tuple[tuple[int, ...], ...]  # [state][symbol index] -> state
    minimal: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.n_states):
            raise InputError(f"start state {self.start} out of range")
        if len(self.transitions) != self.n_states:
            raise InputError("transition table must have one row per state")
        for q, row in enumerate(self.transitions):
            if len(row) != len(self.alphabet):
                raise InputError(f"state {q}: transition row must cover the whole alphabet")
            for t in row:
                if not (0 <= t < self.n_states):
                    raise InputError(f"transition target {t} out of range")
        if not all(0 <= q < self.n_states for q in self.accepting):
            raise InputError("accepting state out of range")

    def step(self, state: int, sym: str) -> int:
        return self.transitions[state][self.alphabet.index(sym)]

    def run(self, word: str) -> int | None:
        """Final state, or None if the word uses a foreign symbol."""
        q = self.start
        trans = self.transitions
        idx = self.alphabet._index  # type: ignore[attr-defined]
        for c in word:
            i = idx.get(c)
            if i is None:
                return None
            q = trans[q][i]
        return q

    def accepts(self, word: str) -> bool:
        """Standard run acceptance; foreign-symbol words are rejected."""
        q = self.run(word)
        return q is not None and q in self.accepting


def reachable_states(d: Dfa) -> set[int]:
    seen = {d.start}
    queue = deque([d.start])
    while queue:
        q = queue.popleft()
        for t in d.transitions[q]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def coaccessible_states(d: Dfa) -> set[int]:
    """States from which some accepting state is reachable."""
    rev: list[list[int]] = [[] for _ in range(d.n_states)]
    for q in range(d.n_states):
        for t in d.transitions[q]:
            rev[t].append(q)
    seen = set(d.accepting)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for p in rev[q]:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def is_empty_language(d: Dfa) -> bool:
    return not (reachable_states(d) & d.accepting)


def least_word(symbols, starts, succ, is_target) -> str | None:
    """Length-lex least word leading from some start node to a target node.

    The graph is implicit: `succ(node, i)` yields the nodes that `symbols[i]`
    leads to from `node`.  The frontier holds one group of newly reached
    nodes per word, in length-lex word order, so every node is first reached
    by its least word even when several nodes share one (a plain node queue
    loses that order as soon as there are several starts or branching
    moves).  None when no target is reachable.
    """
    seen = set(starts)
    if any(is_target(n) for n in seen):
        return ""
    frontier = [("", list(seen))]
    while frontier:
        nxt = []
        for word, nodes in frontier:
            for i, a in enumerate(symbols):
                group = []
                for n in nodes:
                    for t in succ(n, i):
                        if t not in seen:
                            if is_target(t):
                                return word + a
                            seen.add(t)
                            group.append(t)
                if group:
                    nxt.append((word + a, group))
        frontier = nxt
    return None


def _renumber(d: Dfa, minimal: bool = False) -> Dfa:
    """Canonical state numbering: BFS from the start in alphabet order."""
    order: dict[int, int] = {d.start: 0}
    queue = deque([d.start])
    while queue:
        q = queue.popleft()
        for t in d.transitions[q]:
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    n = len(order)
    trans = [[0] * len(d.alphabet) for _ in range(n)]
    for q, new_q in order.items():
        for i in range(len(d.alphabet)):
            trans[new_q][i] = order[d.transitions[q][i]]
    accepting = frozenset(order[q] for q in d.accepting if q in order)
    return Dfa(d.alphabet, n, 0, accepting, tuple(tuple(r) for r in trans), minimal)


def minimize(d: Dfa) -> Dfa:
    """Language-equivalent minimal complete DFA with canonical numbering.

    Idempotent: minimize(minimize(d)) == minimize(d) exactly.
    """
    reach = sorted(reachable_states(d))
    remap = {q: i for i, q in enumerate(reach)}
    trans = [[remap[d.transitions[q][i]] for i in range(len(d.alphabet))] for q in reach]
    acc = {remap[q] for q in d.accepting if q in remap}
    n = len(reach)

    # Moore partition refinement with hashed signatures.
    cls = [1 if q in acc else 0 for q in range(n)]
    n_sym = len(d.alphabet)
    while True:
        sigs: dict[tuple, int] = {}
        new_cls = [0] * n
        for q in range(n):
            sig = (cls[q],) + tuple(cls[trans[q][i]] for i in range(n_sym))
            new_cls[q] = sigs.setdefault(sig, len(sigs))
        if new_cls == cls:
            break
        cls = new_cls

    k = max(cls) + 1
    new_trans = [[0] * n_sym for _ in range(k)]
    for q in range(n):
        for i in range(n_sym):
            new_trans[cls[q]][i] = cls[trans[q][i]]
    merged = Dfa(
        d.alphabet,
        k,
        cls[remap[d.start]],
        frozenset(cls[q] for q in acc),
        tuple(tuple(r) for r in new_trans),
    )
    return _renumber(merged, minimal=True)


def _require_same_alphabet(l1: Dfa, l2: Dfa) -> None:
    if l1.alphabet.symbols != l2.alphabet.symbols:
        raise InputError(
            f"alphabet mismatch: {''.join(l1.alphabet.symbols)!r} vs {''.join(l2.alphabet.symbols)!r}"
        )


def complement(d: Dfa) -> Dfa:
    """Complement relative to V* over the automaton's own alphabet."""
    acc = frozenset(range(d.n_states)) - d.accepting
    return Dfa(d.alphabet, d.n_states, d.start, acc, d.transitions, d.minimal)


def _product(l1: Dfa, l2: Dfa, keep: "callable") -> Dfa:
    _require_same_alphabet(l1, l2)
    n_sym = len(l1.alphabet)
    index: dict[tuple[int, int], int] = {(l1.start, l2.start): 0}
    queue = deque([(l1.start, l2.start)])
    trans: list[list[int]] = []
    pairs: list[tuple[int, int]] = [(l1.start, l2.start)]
    while queue:
        p, q = queue.popleft()
        row = []
        for i in range(n_sym):
            t = (l1.transitions[p][i], l2.transitions[q][i])
            if t not in index:
                index[t] = len(index)
                pairs.append(t)
                queue.append(t)
            row.append(index[t])
        trans.append(row)
    accepting = frozenset(i for i, (p, q) in enumerate(pairs) if keep(p in l1.accepting, q in l2.accepting))
    return Dfa(l1.alphabet, len(pairs), 0, accepting, tuple(tuple(r) for r in trans))


def intersect(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a and b)


def union(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a or b)


def difference(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a and not b)


def bool_op(kind: str, l1: Dfa, l2: Dfa | None = None) -> Dfa:
    """Set-theoretic combination; complement is relative to V*."""
    if kind == "complement":
        if l2 is not None:
            raise InputError("complement takes a single operand")
        return complement(l1)
    if l2 is None:
        raise InputError(f"{kind} needs two operands")
    ops = {"intersect": intersect, "union": union, "difference": difference}
    if kind not in ops:
        raise InputError(f"unknown boolean operation {kind!r}")
    return ops[kind](l1, l2)


@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    witness: str | None  # length-lex minimal word in the symmetric difference

    def __bool__(self) -> bool:
        return self.equal


def are_equivalent(l1: Dfa, l2: Dfa) -> EquivalenceResult:
    """Language equality, with a shortest (then lex-least) witness on failure."""
    _require_same_alphabet(l1, l2)
    t1, t2 = l1.transitions, l2.transitions
    witness = least_word(
        l1.alphabet.symbols,
        [(l1.start, l2.start)],
        lambda pair, i: ((t1[pair[0]][i], t2[pair[1]][i]),),
        lambda pair: (pair[0] in l1.accepting) != (pair[1] in l2.accepting),
    )
    return EquivalenceResult(witness is None, witness)


def enumerate_upto(d: Dfa, n: int) -> list[str]:
    """All accepted words of length <= n, sorted (length, lex).

    Prefix search pruned by distance-to-acceptance, so the cost tracks the
    number of live prefixes rather than |V|**n.
    """
    if n < 0:
        raise InputError("length bound must be >= 0")
    # min #steps from each state to an accepting state (None = dead)
    dist: list[int | None] = [None] * d.n_states
    rev: list[list[int]] = [[] for _ in range(d.n_states)]
    for q in range(d.n_states):
        for t in d.transitions[q]:
            rev[t].append(q)
    queue = deque()
    for q in d.accepting:
        dist[q] = 0
        queue.append(q)
    while queue:
        q = queue.popleft()
        for p in rev[q]:
            if dist[p] is None:
                dist[p] = dist[q] + 1  # type: ignore[operator]
                queue.append(p)

    out: list[str] = []
    level: list[tuple[str, int]] = [("", d.start)]
    if dist[d.start] is None:
        return out
    for length in range(n + 1):
        for w, q in level:
            if q in d.accepting:
                out.append(w)
        if length == n:
            break
        nxt: list[tuple[str, int]] = []
        remaining = n - length - 1
        for w, q in level:
            for i, a in enumerate(d.alphabet):
                t = d.transitions[q][i]
                dt = dist[t]
                if dt is not None and dt <= remaining:
                    nxt.append((w + a, t))
        level = nxt
        if not level:
            break
    return out


def find_pump(d: Dfa) -> tuple[str, str, str] | None:
    """A decomposition (u, v, w) with u v^i w accepted for all i, if one exists.

    Exists iff the language is infinite, since only trim states can carry
    a productive cycle.
    """
    reach = reachable_states(d)
    coacc = coaccessible_states(d)
    trim = reach & coacc
    # Find a cycle inside the trim part via iterative DFS.
    color = {q: 0 for q in trim}  # 0 white, 1 on stack, 2 done
    edge_to: dict[int, tuple[int, str]] = {}
    cycle_entry: tuple[int, int, str] | None = None  # (from, to, symbol)
    for root in sorted(trim):
        if color[root] != 0:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack and cycle_entry is None:
            q, i = stack[-1]
            if i == len(d.alphabet):
                color[q] = 2
                stack.pop()
                continue
            stack[-1] = (q, i + 1)
            t = d.transitions[q][i]
            if t not in trim:
                continue
            a = d.alphabet.symbols[i]
            if color[t] == 0:
                color[t] = 1
                edge_to[t] = (q, a)
                stack.append((t, 0))
            elif color[t] == 1:
                cycle_entry = (q, t, a)
        if cycle_entry:
            break
    if cycle_entry is None:
        return None
    q_from, q_cycle, sym = cycle_entry
    # cycle word: path q_cycle ->* q_from, then sym back to q_cycle
    parts = [sym]
    cur = q_from
    while cur != q_cycle:
        cur, a = edge_to[cur]
        parts.append(a)
    v = "".join(reversed(parts))

    def step(q: int, i: int) -> tuple[int]:
        return (d.transitions[q][i],)

    u = least_word(d.alphabet.symbols, [d.start], step, lambda q: q == q_cycle)
    w = least_word(d.alphabet.symbols, [q_cycle], step, lambda q: q in d.accepting)
    assert u is not None and w is not None
    return (u, v, w)


def longest_accepted_length(d: Dfa) -> int | None:
    """Length of the longest accepted word; None if infinite, -1 if empty."""
    reach = reachable_states(d)
    coacc = coaccessible_states(d)
    trim = reach & coacc
    if d.start not in trim:
        return -1
    if find_pump(d) is not None:
        return None
    # The trim part is acyclic: longest path to acceptance, successors first.
    longest: dict[int, int] = {}
    stack = [d.start]
    while stack:
        q = stack[-1]
        if q in longest:
            stack.pop()
            continue
        succ = [t for t in d.transitions[q] if t in trim]
        todo = [t for t in succ if t not in longest]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        longest[q] = max((1 + longest[t] for t in succ), default=0)
    return longest[d.start]


def factor_sets(d: Dfa, k: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Canonical length-k window sets of the language, computed exactly.

    Returns (starts, interiors, ends):
      starts    = {p in V^k : p V* meets L}
      interiors = {w in V^k : V+ w V+ meets L}
      ends      = {s in V^k : V* s meets L}
    Interior means at least one symbol strictly before and after the
    window.  Computed by walking all windows with shared prefixes and
    testing emptiness against state sets, not by enumerating L.
    """
    if k < 1:
        raise InputError("window length must be >= 1")
    if len(d.alphabet) ** k > MAX_WORD_SPACE:
        raise InputError(f"window space |V|^{k} too large")
    reach = frozenset(reachable_states(d))
    coacc = frozenset(coaccessible_states(d))
    reach_plus = frozenset(d.transitions[q][i] for q in reach for i in range(len(d.alphabet)))
    coacc_plus = frozenset(
        q for q in range(d.n_states) if any(t in coacc for t in d.transitions[q])
    )
    acc = d.accepting

    starts: list[str] = []
    interiors: list[str] = []
    ends: list[str] = []

    # DFS over windows, threading (state from start, images of reach_plus,
    # images of reach) so shared prefixes are walked once.
    def rec(depth: int, w: str, q0: int, img_plus: frozenset[int], img_all: frozenset[int]) -> None:
        if depth == k:
            if q0 in coacc:
                starts.append(w)
            if img_plus & coacc_plus:
                interiors.append(w)
            if img_all & acc:
                ends.append(w)
            return
        for i, a in enumerate(d.alphabet):
            rec(
                depth + 1,
                w + a,
                d.transitions[q0][i],
                frozenset(d.transitions[q][i] for q in img_plus),
                frozenset(d.transitions[q][i] for q in img_all),
            )

    rec(0, "", d.start, reach_plus, reach)
    return tuple(starts), tuple(interiors), tuple(ends)


class Nfa:
    """Mutable NFA builder with epsilon moves; determinize() yields a Dfa.

    Used as scaffolding for regex compilation, finite word sets and the
    reference automaton of a definite language.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.n_states = 0
        self.starts: set[int] = set()
        self.accepting: set[int] = set()
        self.edges: dict[tuple[int, str | None], set[int]] = {}

    def add_state(self) -> int:
        self.n_states += 1
        return self.n_states - 1

    def add_edge(self, p: int, sym: str | None, q: int) -> None:
        if not (0 <= p < self.n_states and 0 <= q < self.n_states):
            raise InputError("NFA edge endpoint out of range")
        if sym is not None and sym not in self.alphabet:
            raise InputError(f"symbol {sym!r} not in alphabet")
        self.edges.setdefault((p, sym), set()).add(q)

    def _eps_closure(self, states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        queue = deque(seen)
        while queue:
            q = queue.popleft()
            for t in self.edges.get((q, None), ()):
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return frozenset(seen)

    def determinize(self) -> Dfa:
        """Subset construction; the result is complete (dead sink added)."""
        n_sym = len(self.alphabet)
        start = self._eps_closure(self.starts)
        index: dict[frozenset[int], int] = {start: 0}
        order: list[frozenset[int]] = [start]
        trans: list[list[int]] = []
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            row = []
            for i, a in enumerate(self.alphabet):
                nxt = self._eps_closure(
                    t for q in cur for t in self.edges.get((q, a), ())
                )
                if nxt not in index:
                    index[nxt] = len(index)
                    order.append(nxt)
                    queue.append(nxt)
                row.append(index[nxt])
            trans.append(row)
        accepting = frozenset(i for i, s in enumerate(order) if s & self.accepting)
        return Dfa(self.alphabet, len(order), 0, accepting, tuple(tuple(r) for r in trans))


def dfa_for_words(alphabet: Alphabet, words: Iterable[str]) -> Dfa:
    """Minimal DFA of a finite word set."""
    nfa = Nfa(alphabet)
    root = nfa.add_state()
    nfa.starts.add(root)
    for w in words:
        if not alphabet.covers(w):
            raise InputError(f"word {w!r} not over alphabet")
        cur = root
        for c in w:
            nxt = nfa.add_state()
            nfa.add_edge(cur, c, nxt)
            cur = nxt
        nfa.accepting.add(cur)
    return minimize(nfa.determinize())


def universe_dfa(alphabet: Alphabet) -> Dfa:
    """DFA of V* over the given alphabet."""
    return Dfa(alphabet, 1, 0, frozenset({0}), ((0,) * len(alphabet),), minimal=True)
