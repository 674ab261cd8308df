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
    declares them in `__slots__` and sets them in its `__init__` with
    `_set_fields`.  Records are equal when they have the same type and
    equal fields, so two types with equal fields stay unequal; the hash and
    the repr read the same fields, and assignment raises AttributeError.
    The package's other records are `typing.NamedTuple`s, which cost less
    to define; a Record reads its fields faster, which inner loops need,
    and equals no plain tuple, which the regex nodes need.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set_fields(self, *values: object) -> None:
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
        self._set_fields(symbols)
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
    minimize() returns it unchanged.
    """

    __slots__ = _fields = ("alphabet", "n_states", "start", "accepting", "transitions", "minimal")

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
        self._set_fields(alphabet, n_states, start, accepting, transitions, minimal)

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


def accepted_words(d: Dfa, n: int) -> Iterator[str]:
    """The accepted words of length <= n, one at a time in (length, lex) order.

    One depth-first walk per length takes symbols in alphabet order and
    extends a prefix only where some word of exactly the letters left
    leads its state to acceptance, so every prefix it builds begins a
    word of that length, and it holds one path of the walk with its
    siblings, not a whole length level.  Once no state accepts in exactly
    r letters, none does in more, so the walk ends there.
    """
    if n < 0:
        raise InputError("length bound must be >= 0")
    moves = [list(zip(d.alphabet.symbols, row)) for row in d.transitions]
    # last symbol first, so the stack pops them in order
    pushes = [m[::-1] for m in moves]
    # ends[r][q]: some word of exactly r letters leads q to acceptance
    ends = [[q in d.accepting for q in range(d.n_states)]]
    if ends[0][d.start]:
        yield ""
    for length in range(1, n + 1):
        last = ends[-1]
        ends.append([any(last[t] for t in row) for row in d.transitions])
        if not any(ends[length]):
            return
        if not ends[length][d.start]:
            continue
        stack = [("", d.start)]
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
    """The canonical window sets of L = L(d), at any width, and its short words.

    Four state sets of d decide them: reach (reachable states), coacc
    (states with a path to acceptance), reach+ = {d(q, a) : q in reach, a
    in V} (entered by a nonempty word) and coacc+ = {q : some d(q, a) in
    coacc} (left by a nonempty word toward acceptance).  A window w is
      - a prefix window (w V* meets L) iff d(s, w) is in coacc;
      - an interior window (V+ w V+ meets L) iff the image of reach+ under
        w meets coacc+;
      - a suffix window (V* w meets L) iff the image of reach under w
        meets the accepting states.
    A word u shorter than the width is a short word iff d accepts it, and
    live (it begins a word of L) iff d(s, u) is in coacc.

    `prefix_state`, `interior_image` and `suffix_image` apply the three
    rules to the state or image a walk has already computed.  `prefix`,
    `interior`, `suffix`, `short` and `live` take the word itself and
    remember their answers; `short`, `live` and `prefix` expect to be asked
    about each proper prefix of a word before the word.
    """

    def __init__(self, d: Dfa) -> None:
        self._d = d
        self.reach = reach = reachable_states(d)
        self.coacc = coacc = coaccessible_states(d)
        self.reach_plus = {t for q in reach for t in d.transitions[q]}
        self.coacc_plus = {q for q in range(d.n_states) if any(t in coacc for t in d.transitions[q])}
        self._states = {"": d.start}  # d(s, u) of the words asked about
        self._interiors: dict[str, bool] = {}
        self._suffixes: dict[str, bool] = {}

    def prefix_state(self, q: int) -> bool:
        return q in self.coacc

    def interior_image(self, image: set[int]) -> bool:
        return not image.isdisjoint(self.coacc_plus)

    def suffix_image(self, image: set[int]) -> bool:
        return not image.isdisjoint(self._d.accepting)

    def _image(self, states: set[int], w: str) -> set[int]:
        trans = self._d.transitions
        index = self._d.alphabet.index
        for c in w:
            i = index(c)
            states = {trans[q][i] for q in states}
        return states

    def _state(self, u: str) -> int:
        q = self._states.get(u)
        if q is None:
            d = self._d
            q = self._states[u] = d.transitions[self._states[u[:-1]]][d.alphabet.index(u[-1])]
        return q

    def short(self, u: str) -> bool:
        return self._state(u) in self._d.accepting

    def live(self, u: str) -> bool:
        return self.prefix_state(self._state(u))

    prefix = live

    def interior(self, w: str) -> bool:
        hit = self._interiors.get(w)
        if hit is None:
            hit = self._interiors[w] = self.interior_image(self._image(self.reach_plus, w))
        return hit

    def suffix(self, w: str) -> bool:
        hit = self._suffixes.get(w)
        if hit is None:
            hit = self._suffixes[w] = self.suffix_image(self._image(self.reach, w))
        return hit


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
    lw = LanguageWindows(d)
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


def dfa_for_words(alphabet: Alphabet, words: Iterable[str]) -> Dfa:
    """Minimal DFA of a finite word set."""
    nfa = Nfa(alphabet)
    root = nfa.add_state()
    nfa.starts.add(root)
    for w in words:
        if not alphabet.covers(w):
            raise InputError(f"word {w!r} not over alphabet")
        nfa.accepting.add(nfa.add_word(root, w))
    return minimize(nfa.determinize())


def universe_dfa(alphabet: Alphabet) -> Dfa:
    """DFA of V* over the given alphabet."""
    return Dfa(alphabet, 1, 0, frozenset({0}), ((0,) * len(alphabet),), minimal=True)
