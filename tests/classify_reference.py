"""Reference routes for classify's two hot kernels, kept as a differential oracle.

The ORD cover search below re-scans the labeled prefix for every pending
image label and counts distinct labels with a set, and the transition
monoid stores each transformation as a tuple composed element by
element.  The package runs the same searches with incremental
bookkeeping and `str.translate`; they must visit the same nodes in the
same order, so labels, remaining node budget, monoid elements, words and
cap exits all agree exactly.
"""

from collections import deque

from sublang.automata import Dfa, InputError


def find_monotone_cover(dm: Dfa, length: int, node_budget: list[int]):
    """Search a chain of `length` states labeled by dm's states such that
    every letter map lifts to a monotone map on chain positions.

    A chain labeling works iff, for every letter, the sequence of image
    labels embeds into the chain as a monotone (non-decreasing) position
    map; leftmost-greedy matching decides that and is restored on
    backtracking.  Returns the labeling or None.
    """
    n = dm.n_states
    n_sym = len(dm.alphabet)
    trans = dm.transitions
    labels: list[int] = []
    # per letter: (last matched position, pending unmatched image labels)
    pend: list[tuple[int, tuple[int, ...]]] = [(-1, ()) for _ in range(n_sym)]

    def collapsed_len(seq: tuple[int, ...]) -> int:
        count = 0
        prev = None
        for x in seq:
            if x != prev:
                count += 1
                prev = x
        return count

    def place(depth: int) -> bool:
        if node_budget[0] <= 0:
            return False
        if depth == length:
            return all(not p for _, p in pend) and len(set(labels)) == n
        missing = n - len(set(labels))
        if missing > length - depth:
            return False
        for z in range(n):
            node_budget[0] -= 1
            labels.append(z)
            saved = list(pend)
            ok = True
            for i in range(n_sym):
                last, queue = pend[i]
                queue = queue + (trans[z][i],)
                # leftmost-greedy matching of pending image labels into
                # the labeled prefix, resuming at `last`
                while queue:
                    want = queue[0]
                    pos = last if last >= 0 and labels[last] == want else -1
                    if pos < 0:
                        for p in range(last + 1, depth + 1):
                            if labels[p] == want:
                                pos = p
                                break
                    if pos < 0:
                        break
                    last = pos
                    queue = queue[1:]
                if collapsed_len(queue) > length - depth - 1:
                    ok = False
                    break
                pend[i] = (last, queue)
            if ok and place(depth + 1):
                return True
            labels.pop()
            pend[:] = saved
        return False

    if place(0):
        return tuple(labels)
    return None


MONOID_CAP = 1 << 15


def monoid_from_dfa(d: Dfa, cap: int = MONOID_CAP) -> tuple[list[tuple[int, ...]], list[str]]:
    """(elements, words) of the transition monoid, breadth first by letter."""
    n = d.n_states
    letter = [tuple(d.transitions[q][i] for q in range(n)) for i in range(len(d.alphabet))]
    ident = tuple(range(n))
    index = {ident: 0}
    elements = [ident]
    words = [""]
    queue = deque([0])
    while queue:
        e = queue.popleft()
        base = elements[e]
        for i, a in enumerate(d.alphabet):
            row = letter[i]
            t = tuple(row[base[q]] for q in range(n))
            if t not in index:
                if len(elements) >= cap:
                    raise InputError("transition monoid too large for desk-scale analysis")
                index[t] = len(elements)
                elements.append(t)
                words.append(words[e] + a)
                queue.append(index[t])
    return elements, words


def power_cycle(t: tuple[int, ...]) -> tuple[list[tuple[int, ...]], int, int]:
    """Powers t^1, t^2, ... until repetition; returns (powers, tail, period).

    powers[i] is t^(i+1); t^(tail+period) == t^(tail) with 1-based
    exponents, i.e. the cycle covers exponents tail..tail+period-1.
    """
    powers = [t]
    seen = {t: 1}
    cur = t
    while True:
        cur = tuple(t[q] for q in cur)
        exp = len(powers) + 1
        if cur in seen:
            tail = seen[cur]
            return powers, tail, exp - tail
        seen[cur] = exp
        powers.append(cur)
