"""Reference routes for classify's two hot kernels, kept as a differential oracle.

The ORD cover search below re-scans the labeled prefix for every pending
image label and counts distinct labels with a set, and the transition
monoid stores each transformation as a tuple composed element by
element.  The package runs the same searches with incremental
bookkeeping and `str.translate`.  The monoids must agree exactly:
elements, words and cap exits.  Both cover searches try labels in the
same depth-first order and charge each label trial one unit of node
budget.  This search prunes a child by a position bound computed with
sets: each pending label, and each label neither placed nor pending,
needs a later position.  The package's bound also counts the images of
the unplaced labels: those outside the pending queue, and, with an
empty queue, the placed ones left behind the greedy match.  Neither
bound cuts a subtree that holds a cover.  The package's search also never
places a label next to itself (a cover of the least length has no equal
neighbours) and settles the labels a node rules out, and those left once
the budget is spent, without running them, but charges each one as this
search does.  So wherever this search ends with budget left, the package
finds its labels whenever those have no equal neighbours (always so at
length n, where each label is used once) and spends no more budget.
`cover_search_without_position_bound` is the package's search from
before that bound (and before the equal-neighbour prune), kept verbatim
as the bound's own oracle.

`is_noncounting`, `is_power_separating` and `is_orderable` below are the
eager routes: they build the whole monoid before looking at it, and ORD
runs this file's chain search, with neither the orientation conflict
nor the equal-neighbour prune, from length n.  The package stops at the
first witness, settles length n by an orientation conflict first and
skips equal neighbours; wherever the eager route finishes, its verdicts
must be the same.
"""

from collections import deque

from sublang.automata import Dfa, InputError, are_equivalent, minimize
from sublang.families import (
    _COVER_NODE_BUDGET,
    OrderCertificate,
    Verdict,
    _cover_to_dfa,
    verify_order,
)


def find_monotone_cover(dm: Dfa, length: int, node_budget: list[int]):
    """Search a chain of `length` states labeled by dm's states such that
    every letter map lifts to a monotone map on chain positions.

    A chain labeling works iff, for every letter, the sequence of image
    labels embeds into the chain as a monotone (non-decreasing) position
    map; leftmost-greedy matching decides that and is restored on
    backtracking.  Returns the labeling or None.

    A child is pruned when some letter's pending labels plus the labels
    neither placed nor pending outnumber the positions left: each of them
    needs a later position of its own.
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
                # every pending label, and every label not yet placed and
                # not pending, needs a chain position after this one
                unplaced = set(range(n)) - set(labels)
                if collapsed_len(queue) + len(unplaced - set(queue)) > length - depth - 1:
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


# The package's cover search as it was before the position bound, kept
# verbatim as the oracle for that bound: wherever this search ends with
# budget left, the bounded one must find the same labels and spend no more.
def cover_search_without_position_bound(dm: Dfa, length: int, node_budget: list[int]):
    """Search a chain of `length` states labeled by dm's states such that
    every letter map lifts to a monotone map on chain positions.

    A chain labeling works iff, for every letter, the sequence of image
    labels embeds into the chain as a monotone (non-decreasing) position
    map; leftmost-greedy matching decides that and is restored on
    backtracking.  Returns the labeling or None.

    Per letter the search keeps `last`, the position the next image label
    is matched from, and the pending image labels not yet matched, with
    repeats collapsed (equal neighbours always match at one position), so
    the pending queue's length is the number of chain positions it still
    needs.  Invariant: the head of a non-empty pending queue occurs
    nowhere in labels[last:], so a new label z can only match that head,
    and only when z equals it.

    Appending z to a queue of length s therefore gives length
    s + (trans[z][i] != tail) - (z == head), which must not exceed `room`,
    the positions left after this one.  Each node first narrows the labels
    to those that can pass: at s == room + 1 only z == head, and only if
    trans[head][i] == tail; at s == room only z == head or a z with
    trans[z][i] == tail.  When exactly room + 1 labels are still unused,
    a used label leaves the child too few positions, and the child would
    prune it on entry.  The filter keeps every label that can pass (it
    may keep more; the room test below still decides), so it skips only
    trials that find nothing.

    The labels tried, their order and each decrement of `node_budget` are
    part of the output contract: a search that runs out of budget is
    reported as a bounded unknown, so a change to either changes verdicts.
    Every label still costs one unit, in increasing order: before trying
    z the node charges z and the skipped labels below it, and on failure
    it charges the rest.  Once the budget is spent every later trial
    would fail, so the node stops and charges the rest in bulk too.
    """
    n = dm.n_states
    n_sym = len(dm.alphabet)
    trans = dm.transitions
    every = (1 << n) - 1
    # pre[i][q]: bit set of the labels z with trans[z][i] == q
    pre = [[0] * n for _ in range(n_sym)]
    for z in range(n):
        for i, q in enumerate(trans[z]):
            pre[i][q] |= 1 << z
    labels: list[int] = []
    # per letter: (match-from position, pending image labels, collapsed)
    pend: list[tuple[int, tuple[int, ...]]] = [(0, ()) for _ in range(n_sym)]

    def place(depth: int, used: int) -> bool:
        # used: bit set of the labels in `labels`
        if node_budget[0] <= 0:
            return False
        if depth == length:
            return used == every and not any(queue for _, queue in pend)
        room = length - depth - 1
        missing = n - used.bit_count()
        if missing > room + 1:
            return False
        passing = every & ~used if missing == room + 1 else every
        for i in range(n_sym):
            queue = pend[i][1]
            if len(queue) == room + 1:
                head = queue[0]
                passing &= 1 << head if trans[head][i] == queue[-1] else 0
            elif queue and len(queue) == room:
                passing &= pre[i][queue[-1]] | 1 << queue[0]
        tried = 0
        while passing:
            bit = passing & -passing
            passing ^= bit
            z = bit.bit_length() - 1
            node_budget[0] -= z - tried + 1
            tried = z + 1
            if node_budget[0] <= 0:
                break
            labels.append(z)
            saved = pend[:]
            row = trans[z]
            ok = True
            for i in range(n_sym):
                last, queue = pend[i]
                x = row[i]
                if queue:
                    if queue[-1] != x:
                        queue += (x,)
                    # by the invariant, only the new label can match the head
                    if queue[0] == z:
                        last = depth
                        queue = queue[1:]
                else:
                    # leftmost-greedy: the first x at or after `last`
                    try:
                        last = labels.index(x, last)
                    except ValueError:
                        queue = (x,)
                if len(queue) > room:
                    ok = False
                    break
                pend[i] = (last, queue)
            if ok and place(depth + 1, used | bit):
                return True
            labels.pop()
            pend[:] = saved
        node_budget[0] -= n - tried
        return False

    if place(0, 0):
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


def _fmt(word: str) -> str:
    return word if word else "_"


def is_noncounting(d: Dfa, cap: int = MONOID_CAP) -> Verdict:
    """Aperiodicity of the transition monoid of the minimal automaton."""
    dm = d if d.minimal else minimize(d)
    elements, words = monoid_from_dfa(dm, cap)
    for t, word in zip(elements, words):
        _, _, period = power_cycle(t)
        if period > 1:
            return Verdict("no", evidence=f"word {_fmt(word)} has eventual period {period}", payload=(word, period))
    return Verdict("yes", evidence=f"aperiodic transition monoid (size {len(elements)})", payload=len(elements))


def is_power_separating(d: Dfa, cap: int = MONOID_CAP) -> Verdict:
    """Acceptance of x^n must become constant along each power cycle."""
    dm = d if d.minimal else minimize(d)
    elements, words = monoid_from_dfa(dm, cap)
    for t, word in zip(elements, words):
        powers, tail, period = power_cycle(t)
        verdicts = {powers[e - 1][dm.start] in dm.accepting for e in range(tail, tail + period)}
        if len(verdicts) > 1:
            return Verdict(
                "no",
                evidence=f"powers of {_fmt(word)} mix accept/reject on their cycle "
                f"(cycle start {tail}, period {period})",
                payload=(word, tail, period),
            )
    return Verdict("yes", evidence=f"every power sequence stabilizes acceptance (monoid size {len(elements)})")


def is_orderable(d: Dfa, cap: int = MONOID_CAP) -> Verdict:
    """Aperiodicity first, then the chain search at every length from n."""
    dm = d if d.minimal else minimize(d)
    nc = is_noncounting(dm, cap)
    if nc.value == "no":
        return Verdict(
            "no", evidence=f"not star-free ({nc.evidence}); ordered automata are aperiodic", payload=nc.payload
        )
    n = dm.n_states
    budget = max(n, 2 * len(dm.alphabet) + 3)
    nodes = [_COVER_NODE_BUDGET]
    unorderable = False
    for length in range(n, budget + 1):
        labels = find_monotone_cover(dm, length, nodes)
        if labels is None:
            if length == n:
                unorderable = nodes[0] > 0
            continue
        cover = _cover_to_dfa(dm, labels)
        order = tuple(range(len(labels)))
        assert verify_order(cover, order) and are_equivalent(cover, dm).equal
        if length == n:
            pretty = " <= ".join(f"q{z}" for z in labels)
            evidence = f"monotone order on the minimal automaton: {pretty}"
        else:
            evidence = f"ordered automaton with {length} states over {n} minimal classes"
        return Verdict("yes", evidence=evidence, payload=OrderCertificate(cover, order, labels))
    detail = "search budget exhausted" if nodes[0] <= 0 else f"no ordered automaton with <= {budget} states"
    if unorderable:
        detail += "; minimal automaton unorderable"
    return Verdict("unknown", bound=budget, evidence=detail)
