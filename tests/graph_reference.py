"""Reference graph searches kept as differential oracles for `sublang.automata`
and `sublang.families`.

Each routine below carries its own search: `_renumber`, `_product` and
`determinize` each number nodes with a breadth-first loop of their own,
`find_pump` and `is_definite` each run a colored depth-first search that
rebuilds a cycle word, `coaccessible_states` and `enumerate_upto` each run
a backward search over reversed edges, and `factor_sets` recurses over the
windows with its own reach, coacc, reach+ and coacc+.  The package shares
one implementation of each search; these copies check that every automaton,
word, verdict and window set stays the same.
"""

from __future__ import annotations

from collections import deque

from sublang.automata import (
    MAX_WORD_SPACE,
    Dfa,
    InputError,
    Nfa,
    _require_same_alphabet,
    least_word,
    minimize,
    reachable_states,
)
from sublang.families import Verdict, _no, _yes


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


def determinize(self: Nfa) -> Dfa:
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


def is_definite(d: Dfa) -> Verdict:
    """Acyclicity of the merge graph on state pairs of the minimal DFA.

    An edge {p,q} -> {p',q'} exists when some letter maps the pair to a
    still-distinct pair; a cycle yields arbitrarily long words under which
    two states stay distinguishable, i.e. membership that is not
    suffix-determined.
    """
    dm = d if d.minimal else minimize(d)
    n_sym = len(dm.alphabet)
    nodes = [(p, q) for p in range(dm.n_states) for q in range(p + 1, dm.n_states)]
    color = {node: 0 for node in nodes}
    parent_edge: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}

    def succ(node: tuple[int, int], i: int) -> tuple[int, int] | None:
        p, q = node
        tp, tq = dm.transitions[p][i], dm.transitions[q][i]
        if tp == tq:
            return None
        return (tp, tq) if tp < tq else (tq, tp)

    for root in nodes:
        if color[root] != 0:
            continue
        stack = [(root, 0)]
        color[root] = 1
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
            a = dm.alphabet.symbols[i]
            if color[t] == 0:
                color[t] = 1
                parent_edge[t] = (node, a)
                stack.append((t, 0))
            elif color[t] == 1:
                # back edge: reconstruct the pair cycle word
                parts = [a]
                cur = node
                while cur != t:
                    cur, b = parent_edge[cur]
                    parts.append(b)
                word = "".join(reversed(parts))
                return _no(
                    f"state pair {t} never merges on ({word})*",
                    payload=(t, word),
                )
    return _yes()
