"""Complete deterministic finite automata and the regular-language algebra.

Words are plain Python strings over single-character symbols; the empty
word is "".  All enumeration order is fixed by alphabet declaration order,
never by codepoint.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Iterator, NamedTuple

# Hard ceiling on |V|**k style window/word spaces; beyond this the exact
# set-based algorithms would stop being "desk scale".
MAX_WORD_SPACE = 1 << 18


class InputError(ValueError):
    """Bad user-supplied input (maps to CLI exit code 2)."""


def check_window_space(alphabet: Alphabet, k: int) -> None:
    """Refuse a window length k whose |V|**k windows exceed MAX_WORD_SPACE."""
    if len(alphabet) ** k > MAX_WORD_SPACE:
        raise InputError(f"window space |V|^{k} too large")


def clamp_window_width(alphabet: Alphabet, k: int) -> int:
    """The least of k and the widest window length check_window_space allows."""
    if len(alphabet) < 2:
        return k  # one window of each length
    width = 0
    while width < k and len(alphabet) ** (width + 1) <= MAX_WORD_SPACE:
        width += 1
    return width


class Record:
    """Base of the package's immutable records with slots.

    A subclass names its value fields in `_fields`, in positional order,
    and declares them in `__slots__`.  `__init__` takes one value per
    field, positionally; a subclass that validates its values passes them
    on to it.  Records are equal when they have the same type and equal
    fields, so two types with equal fields stay unequal; the hash and the
    repr read the same fields, and assignment raises AttributeError.
    The package's other records are `typing.NamedTuple`s, which cost less
    to define; a Record reads its fields faster, which inner loops need,
    and equals no plain tuple, which the regex nodes need.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


EMPTY_TOKEN = "_"


def word_to_token(word: str) -> str:
    """The word as printed: `_` stands for the empty word."""
    return word if word else EMPTY_TOKEN


class Alphabet(Record):
    """Ordered set of single-character symbols.

    Declaration order is the tie-break order for every enumeration and
    every lexicographic comparison in this package.  `order_table` maps each
    symbol to chr(its index): `w.translate(order_table)` orders like `word_key`.
    `_index` and `order_table` derive from `symbols` and stay out of
    equality, hash and repr.
    """

    __slots__ = ("symbols", "_index", "order_table")
    _fields = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]) -> None:
        for s in symbols:
            if len(s) != 1:
                raise InputError(f"alphabet symbols must be single characters, got {s!r}")
        if len(set(symbols)) != len(symbols):
            raise InputError(f"duplicate alphabet symbols in {symbols!r}")
        super().__init__(symbols)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})
        object.__setattr__(self, "order_table", {ord(s): i for i, s in enumerate(symbols)})

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
        return sorted(words, key=lambda w: (len(w), w.translate(self.order_table)))

    def words_of_length(self, k: int) -> Iterator[str]:
        """All length-k words in lexicographic (declaration) order."""
        if len(self.symbols) ** k > MAX_WORD_SPACE:
            raise InputError(f"word space |V|^{k} too large to enumerate")
        yield from map("".join, itertools.product(self.symbols, repeat=k))

    def words_upto(self, n: int) -> Iterator[str]:
        for k in range(n + 1):
            yield from self.words_of_length(k)


class Dfa(Record):
    """Complete DFA: the transition map is total on states x alphabet.

    States are 0..n_states-1; `transitions[state][symbol index]` is the
    target state.  `minimal` promises that the DFA is minimal (all states
    reachable and pairwise distinguishable) and canonically numbered, so
    minimize() returns it unchanged.  `_windows` holds the DFA's
    `LanguageWindows` analysis once `LanguageWindows.of` has made it; like
    `Alphabet._index`, it stays out of equality, hash and repr.
    """

    _fields = ("alphabet", "n_states", "start", "accepting", "transitions", "minimal")
    __slots__ = (*_fields, "_windows")

    def __init__(
        self,
        alphabet: Alphabet,
        n_states: int,
        start: int,
        accepting: frozenset[int],
        transitions: tuple[tuple[int, ...], ...],
        minimal: bool = False,
    ) -> None:
        if not (0 <= start < n_states):
            raise InputError(f"start state {start} out of range")
        if len(transitions) != n_states:
            raise InputError("transition table must have one row per state")
        for q, row in enumerate(transitions):
            if len(row) != len(alphabet):
                raise InputError(f"state {q}: transition row must cover the whole alphabet")
            for t in row:
                if not (0 <= t < n_states):
                    raise InputError(f"transition target {t} out of range")
        if not all(0 <= q < n_states for q in accepting):
            raise InputError("accepting state out of range")
        super().__init__(alphabet, n_states, start, accepting, transitions, minimal)

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


def accept_distances(d: Dfa) -> list[int | None]:
    """The fewest steps from each state to an accepting state, or None for
    a state that reaches none: a breadth-first search backward from the
    accepting states over the reversed transitions."""
    rev: list[list[int]] = [[] for _ in range(d.n_states)]
    for q, row in enumerate(d.transitions):
        for t in row:
            rev[t].append(q)
    dist: list[int | None] = [None] * d.n_states
    queue = list(d.accepting)
    for q in queue:
        dist[q] = 0
    for q in queue:  # the queue grows behind this loop, level by level
        for p in rev[q]:
            if dist[p] is None:
                dist[p] = dist[q] + 1  # type: ignore[operator]
                queue.append(p)
    return dist


def coaccessible_states(d: Dfa) -> set[int]:
    """States from which some accepting state is reachable."""
    return {q for q, n in enumerate(accept_distances(d)) if n is not None}


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


def explore(start, succ, n_sym: int) -> tuple[list, list[tuple[int, ...]]]:
    """Number the nodes reachable from `start` in breadth-first discovery order.

    `succ(node, i)` is the node that symbol i leads to; each node's moves
    are taken in alphabet order.  Returns (nodes, rows): nodes[j] is the
    node numbered j (nodes[0] is `start`) and rows[j][i] the number of
    succ(nodes[j], i), so the rows form the transition table of the
    explored automaton.
    """
    index = {start: 0}
    nodes = [start]
    rows = []
    for node in nodes:  # nodes grows behind this loop: it is the BFS queue
        row = []
        for i in range(n_sym):
            t = succ(node, i)
            j = index.get(t)
            if j is None:
                j = index[t] = len(nodes)
                nodes.append(t)
            row.append(j)
        rows.append(tuple(row))
    return nodes, rows


def reachable_states(d: Dfa) -> set[int]:
    if d.minimal:  # every state of a minimal DFA is reachable
        return set(range(d.n_states))
    trans = d.transitions
    return set(explore(d.start, lambda q, i: trans[q][i], len(d.alphabet))[0])


def minimize(d: Dfa) -> Dfa:
    """Language-equivalent minimal complete DFA with canonical numbering.

    Hopcroft's partition refinement (1971) on the reachable part: a
    splitter (block, symbol) splits every block that its predecessors cut,
    and of the two halves of a split block only the smaller one need be
    queued as a new splitter, so the work is O(n |V| log n).  `explore`
    then numbers the blocks breadth-first from the start block, in alphabet
    order, which makes the result unique.
    Idempotent: minimize(minimize(d)) == minimize(d) exactly.
    """
    if d.minimal:
        return d
    n_sym = len(d.alphabet)
    old, trans = explore(d.start, lambda q, i: d.transitions[q][i], n_sym)
    acc = {j for j, q in enumerate(old) if q in d.accepting}
    n = len(old)

    # preds[i][q]: the states that symbol i takes to q
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n_sym)]
    for p in range(n):
        for i in range(n_sym):
            preds[i][trans[p][i]].append(p)
    blocks = [b for b in (set(acc), set(range(n)) - acc) if b]
    cls = [0] * n
    for b, members in enumerate(blocks):
        for q in members:
            cls[q] = b
    # with two blocks, splitting by one of them splits by the other too
    smaller = min(range(len(blocks)), key=lambda b: len(blocks[b]))
    work = [(smaller, i) for i in range(n_sym)] if len(blocks) == 2 else []
    pending = set(work)
    while work:
        splitter = work.pop()
        pending.discard(splitter)
        b, i = splitter
        hit: dict[int, list[int]] = {}
        for q in blocks[b]:
            for p in preds[i][q]:
                hit.setdefault(cls[p], []).append(p)
        for c, moved in hit.items():
            rest = blocks[c]
            if len(moved) == len(rest):
                continue
            new = len(blocks)
            rest.difference_update(moved)
            blocks.append(set(moved))
            for p in moved:
                cls[p] = new
            for j in range(n_sym):
                # a queued (c, j) now stands for the rest; else queue the smaller half
                if (c, j) not in pending and len(rest) < len(moved):
                    split = (c, j)
                else:
                    split = (new, j)
                pending.add(split)
                work.append(split)

    # the states of a block agree on every move, so any one stands for it
    rep = [next(iter(b)) for b in blocks]
    order, rows = explore(cls[0], lambda b, i: cls[trans[rep[b]][i]], n_sym)
    accepting = frozenset(j for j, b in enumerate(order) if rep[b] in acc)
    return Dfa(d.alphabet, len(order), 0, accepting, tuple(rows), minimal=True)


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
    t1, t2 = l1.transitions, l2.transitions
    pairs, rows = explore(
        (l1.start, l2.start), lambda pair, i: (t1[pair[0]][i], t2[pair[1]][i]), len(l1.alphabet)
    )
    accepting = frozenset(i for i, (p, q) in enumerate(pairs) if keep(p in l1.accepting, q in l2.accepting))
    return Dfa(l1.alphabet, len(pairs), 0, accepting, tuple(rows))


def intersect(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a and b)


def union(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a or b)


def difference(l1: Dfa, l2: Dfa) -> Dfa:
    return _product(l1, l2, lambda a, b: a and not b)


class EquivalenceResult(NamedTuple):
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
    """All accepted words of length <= n, sorted (length, lex)."""
    return list(accepted_words(d, n))


# about the most bytes one level of the level search may hold: a prefix
# costs its letters plus _PREFIX_BYTES for the tuple and string holding it
_LEVEL_CAP = 1 << 21
_PREFIX_BYTES = 128


def accepted_words(d: Dfa, n: int) -> Iterator[str]:
    """The accepted words of length <= n, one at a time in (length, lex) order.

    A level search goes first: it holds every prefix of one length that
    some word of at most the letters left leads to acceptance, in lex
    order, yields the accepted ones and extends them in alphabet order, so
    a sparse language costs one step per live prefix.  Once the next level
    would take more than `_LEVEL_CAP` bytes, the last level becomes the
    frontier of one depth-first walk per length (`_walk`).  The cap is on
    the level's memory, its letters plus a fixed charge per prefix, not on
    its count of prefixes: a language whose levels grow polynomially stays
    in the level search, where each length would otherwise walk every live
    prefix again, and an exponentially growing one still hands over at a
    short length.  Once no state accepts in exactly r letters, none does
    in more, so the walks end there.
    """
    if n < 0:
        raise InputError("length bound must be >= 0")
    moves = [list(zip(d.alphabet.symbols, row)) for row in d.transitions]
    # the fewest letters from each state to acceptance; n + 1 for none
    near = [n + 1 if r is None else r for r in accept_distances(d)]
    level = [("", d.start)] if near[d.start] <= n else []
    base = 0  # the length of the words of level
    while level:
        for w, q in level:
            if not near[q]:
                yield w
        if base == n:
            return
        room = n - base - 1
        budget = _LEVEL_CAP // (_PREFIX_BYTES + base + 1)  # the prefixes the next level may hold
        grown = ((w + a, t) for w, q in level for a, t in moves[q] if near[t] <= room)
        held = list(itertools.islice(grown, budget + 1))
        if len(held) > budget:
            break
        level = held
        base += 1
    if not level:  # no live prefix is left
        return
    # last symbol first, so the stack pops them in order
    pushes = [m[::-1] for m in moves]
    # ends[r][q]: some word of exactly r letters leads q to acceptance
    ends = [[not r for r in near]]
    for length in range(base + 1, n + 1):
        last = ends[-1]
        ends.append([any(last[t] for t in row) for row in d.transitions])
        if not any(ends[-1]):
            return
        yield from _walk(level, length, moves, pushes, ends)


def _walk(frontier: list, length: int, moves: list, pushes: list, ends: list) -> Iterator[str]:
    """The words of exactly `length` letters through the prefixes of
    `frontier` (all of one length, in lex order), by one depth-first walk.

    It takes symbols in alphabet order and extends a prefix only where
    some word of exactly the letters left leads its state to acceptance,
    so it holds one path of the walk with its siblings, not a whole length
    level.
    """
    live = ends[length - len(frontier[0][0])]
    stack = [(w, q) for w, q in reversed(frontier) if live[q]]
    while stack:
        w, q = stack.pop()
        left = length - len(w) - 1
        live = ends[left]
        if left:
            stack.extend([(w + a, t) for a, t in pushes[q] if live[t]])
        else:  # the last letter: its words come in symbol order
            for a, t in moves[q]:
                if live[t]:
                    yield w + a


def find_cycle(symbols, roots, succ) -> tuple[object, str] | None:
    """A cycle in the part of a graph reachable from `roots`, or None.

    `succ(node, i)` is the node that symbols[i] leads to, or None where the
    graph has no such move.  An iterative depth-first search starts from
    each root not yet visited, in the given order, and takes moves in
    alphabet order; the first move back to a node on its stack closes the
    cycle.  Returns (node, word): that node and the word that leads from it
    around the cycle back to it.
    """
    color: dict = {}  # 1 while a node is on the stack, 2 once it is done
    parent: dict = {}  # node -> (the node it was found from, the symbol)
    n_sym = len(symbols)
    for root in roots:
        if root in color:
            continue
        color[root] = 1
        stack = [(root, 0)]
        while stack:
            node, i = stack[-1]
            if i == n_sym:
                color[node] = 2
                stack.pop()
                continue
            stack[-1] = (node, i + 1)
            t = succ(node, i)
            if t is None:
                continue
            c = color.get(t)
            if c is None:
                color[t] = 1
                parent[t] = (node, symbols[i])
                stack.append((t, 0))
            elif c == 1:
                # the stack path t ->* node, then symbols[i] back to t
                parts = [symbols[i]]
                while node != t:
                    node, a = parent[node]
                    parts.append(a)
                return t, "".join(reversed(parts))
    return None


def find_pump(d: Dfa) -> tuple[str, str, str] | None:
    """A decomposition (u, v, w) with u v^i w accepted for all i, if one exists.

    Exists iff the language is infinite, since only trim states can carry
    a productive cycle.  The cycle is searched through trim states only,
    from each of them in order.
    """
    trim = reachable_states(d) & coaccessible_states(d)

    def trim_step(q: int, i: int) -> int | None:
        t = d.transitions[q][i]
        return t if t in trim else None

    cycle = find_cycle(d.alphabet.symbols, sorted(trim), trim_step)
    if cycle is None:
        return None
    q_cycle, v = cycle

    def step(q: int, i: int) -> tuple[int]:
        return (d.transitions[q][i],)

    u = least_word(d.alphabet.symbols, [d.start], step, lambda q: q == q_cycle)
    w = least_word(d.alphabet.symbols, [q_cycle], step, lambda q: q in d.accepting)
    assert u is not None and w is not None
    return (u, v, w)


class LanguageWindows:
    """The canonical window sets of L = L(d), at every width, and its short words.

    Four state sets of d decide them: reach (reachable states), coacc
    (states with a path to acceptance), reach+ = {d(q, a) : q in reach, a
    in V} (entered by a nonempty word) and coacc+ = {q : some d(q, a) in
    coacc} (left by a nonempty word toward acceptance).  A window w is
      - a prefix window (w V* meets L) iff d(s, w) is in coacc;
      - an interior window (V+ w V+ meets L) iff the image of reach+ under
        w meets coacc+;
      - a suffix window (V* w meets L) iff the image of reach under w
        meets the accepting states.
    A word u shorter than the width is a short word iff d accepts it.  A
    word u of at most the width is live (it begins a word of L) iff d(s, u)
    is in coacc; at exactly the width, that is the prefix-window rule.

    `prefix_state`, `interior_image` and `suffix_image` apply the three
    rules to the state or image a walk has already computed.

    The rest serves the window automaton of `slt._window_moves`, whose
    nodes carry keys of this analysis.  A window's key is its chain: the
    interned pair (image of reach+, image of reach) under the window,
    linked to the chain of the window minus its first letter, down to the
    chain of the empty window.  So a chain holds the images under every
    suffix of its window, and every later window's images are some of
    these under the letters read since: two windows with equal chains pass
    the same interior and suffix tests after every further word, and the
    walk meets them as one node.  A short word u's key is (d(s, u), chain
    of u).  `extend` and `slide` cost O(1) amortized, since each (chain,
    letter) and each (pair, letter) move is built once.  `of(d)` keeps one
    analysis per DFA, so every width and every call on d share its chains.
    """

    def __init__(self, d: Dfa) -> None:
        # d's parts, not d: `of` keeps the analysis on d, with no cycle
        self._trans = trans = d.transitions
        self._accepting = d.accepting
        self.reach = reach = reachable_states(d)
        self.coacc = coacc = coaccessible_states(d)
        self.reach_plus = {t for q in reach for t in trans[q]}
        self.coacc_plus = {q for q in range(d.n_states) if any(t in coacc for t in trans[q])}
        self._blank = [None] * len(d.alphabet)  # a new pair's or chain's moves
        # pairs by number: (image of reach+, image of reach), and their moves
        self._pair_index: dict[tuple[frozenset[int], frozenset[int]], int] = {}
        self._pair_images: list[tuple[frozenset[int], frozenset[int]]] = []
        self._pair_moves: list[list[int | None]] = []
        # chains by number: head pair, tail chain (None under the empty
        # window's), the window's interior and suffix tests, and its moves
        self._chain_index: dict[tuple[int, int | None], int] = {}
        self._heads: list[int] = []
        self._tails: list[int | None] = []
        self._interiors: list[bool] = []
        self._suffixes: list[bool] = []
        self._chain_moves: list[list[int | None]] = []
        # the tests of a window's key, its chain
        self.interior = self._interiors.__getitem__
        self.suffix = self._suffixes.__getitem__
        self._empty = self._chain(self._pair(frozenset(self.reach_plus), frozenset(reach)), None)
        self.start = (d.start, self._empty)

    @classmethod
    def of(cls, d: Dfa) -> "LanguageWindows":
        """The analysis of d, made on the first call and kept on d."""
        try:
            return d._windows  # type: ignore[attr-defined]
        except AttributeError:
            windows = cls(d)
            object.__setattr__(d, "_windows", windows)
            return windows

    def prefix_state(self, q: int) -> bool:
        return q in self.coacc

    def interior_image(self, image: set[int]) -> bool:
        return not image.isdisjoint(self.coacc_plus)

    def suffix_image(self, image: set[int]) -> bool:
        return not image.isdisjoint(self._accepting)

    def _pair(self, plus: frozenset[int], every: frozenset[int]) -> int:
        p = self._pair_index.get((plus, every))
        if p is None:
            p = self._pair_index[plus, every] = len(self._pair_images)
            self._pair_images.append((plus, every))
            self._pair_moves.append(self._blank[:])
        return p

    def _chain(self, head: int, tail: int | None) -> int:
        c = self._chain_index.get((head, tail))
        if c is None:
            c = self._chain_index[head, tail] = len(self._heads)
            plus, every = self._pair_images[head]
            self._heads.append(head)
            self._tails.append(tail)
            self._interiors.append(self.interior_image(plus))
            self._suffixes.append(self.suffix_image(every))
            self._chain_moves.append(self._blank[:])
        return c

    def _pair_move(self, p: int, i: int) -> int:
        t = self._pair_moves[p][i]
        if t is None:
            trans = self._trans
            plus, every = self._pair_images[p]
            t = self._pair_moves[p][i] = self._pair(
                frozenset([trans[q][i] for q in plus]), frozenset([trans[q][i] for q in every])
            )
        return t

    def _grow(self, c: int, i: int) -> int:
        """The chain of c's window followed by symbol i.  The chains down
        c's tail that have no move on i yet get one, from the bottom up."""
        moves, tails = self._chain_moves, self._tails
        path = []
        while c is not None and moves[c][i] is None:
            path.append(c)
            c = tails[c]
        t = self._empty if c is None else moves[c][i]
        for c in reversed(path):
            t = moves[c][i] = self._chain(self._pair_move(self._heads[c], i), t)
        return t  # type: ignore[return-value]

    def extend(self, key: tuple[int, int], i: int, full: bool) -> tuple[int, int] | int | None:
        """The key after symbol i of a live short word's key (q, chain):
        None if the longer word is not live, its chain if it fills the
        width, else its own (state, chain) key."""
        q = self._trans[key[0]][i]
        if q not in self.coacc:
            return None
        c = self._grow(key[1], i)
        return c if full else (q, c)

    def slide(self, c: int, i: int) -> int:
        """The chain of the window after symbol i: c's window minus its
        first letter, plus the symbol."""
        return self._grow(self._tails[c], i)

    def short(self, key: tuple[int, int]) -> bool:
        return key[0] in self._accepting


def factor_sets(d: Dfa, k: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The canonical length-k window sets of L(d), each in lexicographic order.

    Returns (starts, interiors, ends):
      starts    = {p in V^k : p V* meets L}
      interiors = {w in V^k : V+ w V+ meets L}
      ends      = {s in V^k : V* s meets L}
    Interior means at least one symbol strictly before and after the
    window.  Each window is decided by the rules of `LanguageWindows`, not
    by enumerating L.  One depth-first walk over all |V|**k windows carries
    the state reached from the start and the images of reach+ and reach
    under the current prefix, so windows walk their shared prefixes once.
    """
    if k < 1:
        raise InputError("window length must be >= 1")
    check_window_space(d.alphabet, k)
    lw = LanguageWindows.of(d)
    trans, symbols = d.transitions, d.alphabet.symbols
    starts: list[str] = []
    interiors: list[str] = []
    ends: list[str] = []
    stack = [("", d.start, lw.reach_plus, lw.reach)]
    while stack:
        w, q0, img_plus, img_all = stack.pop()
        if len(w) == k:
            if lw.prefix_state(q0):
                starts.append(w)
            if lw.interior_image(img_plus):
                interiors.append(w)
            if lw.suffix_image(img_all):
                ends.append(w)
            continue
        # pushed last symbol first, so windows pop in lexicographic order
        for i in reversed(range(len(symbols))):
            plus, every = {trans[q][i] for q in img_plus}, {trans[q][i] for q in img_all}
            stack.append((w + symbols[i], trans[q0][i], plus, every))
    return tuple(starts), tuple(interiors), tuple(ends)


class Nfa:
    """Mutable NFA builder with epsilon moves; determinize() yields a Dfa.

    Used as scaffolding for regex compilation and the reference automaton
    of a definite language.
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

    def add_word(self, p: int, word: str) -> int:
        """Add a path of fresh states spelling `word` from state p; return its end."""
        for c in word:
            q = self.add_state()
            self.add_edge(p, c, q)
            p = q
        return p

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
        symbols, edges = self.alphabet.symbols, self.edges
        order, rows = explore(
            self._eps_closure(self.starts),
            lambda cur, i: self._eps_closure(t for q in cur for t in edges.get((q, symbols[i]), ())),
            len(symbols),
        )
        accepting = frozenset(i for i, s in enumerate(order) if s & self.accepting)
        return Dfa(self.alphabet, len(order), 0, accepting, tuple(rows))


def universe_dfa(alphabet: Alphabet) -> Dfa:
    """DFA of V* over the given alphabet."""
    return Dfa(alphabet, 1, 0, frozenset({0}), ((0,) * len(alphabet),), minimal=True)
