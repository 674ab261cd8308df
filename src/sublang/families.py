"""Decision procedures for the subregular language families.

Every verdict is relative to the language's own declared alphabet: b* is
monoidal over {b} but not over {a, b}.  Verdicts carry evidence: a
concrete witness for every "no", and a certificate (state order, window
representation, letter set, monoid data) for every "yes" where one
exists.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from .automata import (
    Alphabet,
    Dfa,
    InputError,
    are_equivalent,
    check_window_space,
    complement,
    find_cycle,
    find_pump,
    least_word,
    minimize,
    reachable_states,
    universe_dfa,
    word_to_token,
)
from .regexes import RegexAst, is_union_free, render_regex
from .slt import SltRep, check_k_max, default_k_max, infer_slt, is_slt_k, make_rep

# Family tag -> name of its decision procedure in this module, in report
# order.  The name is resolved when the family is decided, so a rebinding
# of the module-level function (a tracing wrapper, say) takes effect.
FAMILY_PROCEDURES = {
    "FIN": "is_finite",
    "MON": "is_monoidal",
    "NIL": "is_nilpotent",
    "COMB": "is_combinational",
    "DEF": "is_definite",
    "SUF": "is_suffix_closed",
    "ORD": "is_orderable",
    "COMM": "is_commutative",
    "CIRC": "is_circular",
    "NC": "is_noncounting",
    "PS": "is_power_separating",
}
_MONOID_FAMILIES = frozenset({"ORD", "NC", "PS"})
# UF is certified from a source expression alone, so it has no procedure
FAMILY_BASE_ORDER = (*FAMILY_PROCEDURES, "UF")


class Verdict(NamedTuple):
    value: str  # "yes" | "no" | "unknown"
    bound: int | None = None  # search bound for bounded unknowns
    evidence: str | None = None
    payload: object = None

    def __bool__(self) -> bool:
        return self.value == "yes"

    def render(self) -> str:
        if self.value == "unknown" and self.bound is not None:
            base = f"unknown_up_to({self.bound})"
        else:
            base = self.value
        if self.evidence:
            return f"{base} [{self.evidence}]"
        return base


def _yes(evidence: str | None = None, payload: object = None) -> Verdict:
    return Verdict("yes", evidence=evidence, payload=payload)


def _no(evidence: str | None = None, payload: object = None) -> Verdict:
    return Verdict("no", evidence=evidence, payload=payload)


# ---------------------------------------------------------------------------
# finite / monoidal / nilpotent / combinational


def is_finite(d: Dfa) -> Verdict:
    pump = find_pump(d)
    if pump is None:
        return _yes()
    u, v, w = pump
    return _no(f"pumpable: {word_to_token(u)}({v})*{word_to_token(w)}", payload=pump)


def is_monoidal(d: Dfa) -> Verdict:
    eq = are_equivalent(d, universe_dfa(d.alphabet))
    if eq.equal:
        return _yes()
    return _no(f"witness={word_to_token(eq.witness)}", payload=eq.witness)


def is_nilpotent(d: Dfa) -> Verdict:
    fin = is_finite(d)
    if fin:
        return _yes("finite")
    cofin = is_finite(complement(d))
    if cofin:
        return _yes("complement finite")
    return _no("language and complement both pump", payload=(fin.payload,))


def is_combinational(d: Dfa) -> Verdict:
    """L = V*X with X = L /\\ V; if L = V*X' at all then X' = L /\\ V."""
    letters = tuple(a for a in d.alphabet if d.accepts(a))
    n_sym = len(d.alphabet)
    in_x = [1 if a in letters else 0 for a in d.alphabet]
    trans = tuple(tuple(in_x[i] for i in range(n_sym)) for _ in range(2))
    candidate = Dfa(d.alphabet, 2, 0, frozenset({1}), trans)
    eq = are_equivalent(d, candidate)
    if eq.equal:
        return _yes(f"X={{{','.join(letters)}}}", payload=letters)
    return _no(f"witness={word_to_token(eq.witness)}", payload=eq.witness)


# ---------------------------------------------------------------------------
# definite and its window-set construction


def is_definite(d: Dfa) -> Verdict:
    """Acyclicity of the merge graph on state pairs of the minimal DFA.

    An edge {p,q} -> {p',q'} exists when some letter maps the pair to a
    still-distinct pair; a cycle yields arbitrarily long words under which
    two states stay distinguishable, i.e. membership that is not
    suffix-determined.
    """
    dm = minimize(d)
    trans = dm.transitions

    def succ(node: tuple[int, int], i: int) -> tuple[int, int] | None:
        p, q = node
        tp, tq = trans[p][i], trans[q][i]
        if tp == tq:
            return None
        return (tp, tq) if tp < tq else (tq, tp)

    pairs = [(p, q) for p in range(dm.n_states) for q in range(p + 1, dm.n_states)]
    cycle = find_cycle(dm.alphabet.symbols, pairs, succ)
    if cycle is None:
        return _yes()
    pair, word = cycle
    return _no(f"state pair {pair} never merges on ({word})*", payload=(pair, word))


def definite_to_slt(
    start_words: frozenset[str] | set[str] | tuple[str, ...],
    end_words: frozenset[str] | set[str] | tuple[str, ...],
    alphabet: Alphabet,
) -> SltRep:
    """Window representation of D_s u V*D_e with k = max word length + 1.

    Short words are the language's own words below k; prefixes and
    interiors are unconstrained; allowed suffixes are the length-k words
    ending in some word of D_e.  A word of length >= k is in
    D_s u V*D_e iff it ends in a word of D_e, and only its last window
    can hold that word, so the sets accept exactly D_s u V*D_e.
    """
    ds = frozenset(start_words)
    de = frozenset(end_words)
    for w in ds | de:
        if not alphabet.covers(w):
            raise InputError(f"word {w!r} not over alphabet")
    k = max((len(w) for w in ds | de), default=0) + 1
    check_window_space(alphabet, k)

    def in_lang(w: str) -> bool:
        return w in ds or any(w.endswith(e) for e in de)

    full = list(alphabet.words_of_length(k))
    short = [w for w in alphabet.words_upto(k - 1) if in_lang(w)]
    ends = [s for s in full if any(s.endswith(e) for e in de)]
    return make_rep(k, alphabet, full, full, ends, short)


# ---------------------------------------------------------------------------
# suffix-closed / commutative / circular: a walk on the DFA paired with
# itself finds the least word in the closure of L but not in L


def is_suffix_closed(d: Dfa) -> Verdict:
    """L is suffix-closed iff the language of every reachable state is
    contained in the language of the start state."""
    trans, acc = d.transitions, d.accepting
    witness = least_word(
        d.alphabet.symbols,
        [(q, d.start) for q in reachable_states(d)],
        lambda pair, i: ((trans[pair[0]][i], trans[pair[1]][i]),),
        lambda pair: pair[0] in acc and pair[1] not in acc,
    )
    if witness is None:
        return _yes()
    return _no(f"suffix {word_to_token(witness)} of an accepted word is rejected", payload=witness)


def is_commutative(d: Dfa) -> Verdict:
    """L is commutative iff u ba v is in L whenever u ab v is, for every
    ordered letter pair (a, b)."""
    trans, acc, symbols = d.transitions, d.accepting, d.alphabet.symbols
    for ia, ib in itertools.permutations(range(len(symbols)), 2):
        # node (phase, x, y): x runs the source word u ab v, y the word
        # u ba v; phase 0 is inside u, 1 between b and a, 2 inside v
        def succ(node: tuple[int, int, int], i: int) -> list[tuple[int, int, int]]:
            phase, x, y = node
            if phase == 0:
                out = [(0, trans[x][i], trans[y][i])]
                if i == ib:
                    out.append((1, trans[trans[x][ia]][ib], trans[y][i]))
                return out
            if phase == 1:
                return [(2, x, trans[y][i])] if i == ia else []
            return [(2, trans[x][i], trans[y][i])]

        witness = least_word(
            symbols,
            [(0, d.start, d.start)],
            succ,
            lambda node: node[0] == 2 and node[1] in acc and node[2] not in acc,
        )
        if witness is not None:
            a, b = symbols[ia], symbols[ib]
            # the leftmost `ba` -> `ab` swap of the witness that is accepted
            swaps = (
                witness[:j] + a + b + witness[j + 2 :]
                for j in range(len(witness) - 1)
                if witness[j : j + 2] == b + a
            )
            source = next(s for s in swaps if d.accepts(s))
            return _no(
                f"swap of {word_to_token(source)} gives {word_to_token(witness)} which is rejected",
                payload=(source, witness),
            )
    return _yes()


def is_circular(d: Dfa) -> Verdict:
    """L is circular iff v a is in L whenever a v is, for every letter a."""
    trans, acc, symbols = d.transitions, d.accepting, d.alphabet.symbols

    # node (i, x, y): x runs a_i v, y runs v; (None, None, y) has read the
    # rotated-out a_i as well, after a_i v was accepted
    def succ(node: tuple, j: int) -> list[tuple]:
        i, x, y = node
        if i is None:
            return []
        out = [(i, trans[x][j], trans[y][j])]
        if j == i and x in acc:
            out.append((None, None, trans[y][j]))
        return out

    witness = least_word(
        symbols,
        [(i, trans[d.start][i], d.start) for i in range(len(symbols))],
        succ,
        lambda node: node[0] is None and node[2] not in acc,
    )
    if witness is None:
        return _yes()
    source = witness[-1] + witness[:-1]
    return _no(
        f"rotation {word_to_token(witness)} of {word_to_token(source)} is rejected",
        payload=(source, witness),
    )


# ---------------------------------------------------------------------------
# ordered


def verify_order(d: Dfa, order: tuple[int, ...] | list[int]) -> bool:
    """Check that every letter's transition map is monotone w.r.t. order.

    `order` lists the states from smallest to largest.  Monotonicity on
    adjacent pairs extends to all pairs by transitivity.
    """
    seq = tuple(order)
    if sorted(seq) != list(range(d.n_states)):
        raise InputError("order must be a permutation of the automaton's states")
    rank = {q: i for i, q in enumerate(seq)}
    for i in range(len(seq) - 1):
        p, q = seq[i], seq[i + 1]
        for s in range(len(d.alphabet)):
            if rank[d.transitions[p][s]] > rank[d.transitions[q][s]]:
                return False
    return True


class OrderCertificate(NamedTuple):
    """An ordered automaton for the language, with its monotone state chain.

    `dfa`'s states are already numbered along the chain (order is the
    identity permutation) and `labels[i]` names the minimal-automaton
    class that state i simulates.  When len(labels) equals the number of
    minimal states, the chain is an order of the minimal automaton itself.
    """

    dfa: Dfa
    order: tuple[int, ...]
    labels: tuple[int, ...]


def _find_monotone_cover(dm: Dfa, length: int, node_budget: list[int]):
    """Search a chain of `length` states labeled by dm's states such that
    every letter map lifts to a monotone map on chain positions, and no
    two neighbours carry the same label.

    A chain labeling works iff, for every letter, the sequence of image
    labels embeds into the chain as a monotone (non-decreasing) position
    map; leftmost-greedy matching decides that and is restored on
    backtracking.  Returns the first such labeling in depth-first order,
    or None.

    Equal neighbours: a child whose label equals the one just placed is
    never entered.  Take a cover σ of length L with σ[p] == σ[p+1] and
    drop position p + 1.  Let g map the old positions onto the new ones
    (p + 1 to p, later ones down by one) and h embed the new chain into
    the old one; then g ∘ f_a ∘ h is monotone and respects labels for
    every letter map f_a, and every label is still used, so the shorter
    chain is a cover of length L - 1.  A cover of the least length
    therefore has no equal neighbours: the least length with such a cover
    is the least length with any cover, and there the first cover in
    depth-first order is the same with or without the prune.  At length n
    each label is used once, so the prune never fires there.

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
    a used label leaves the child too few positions, and the position
    bound would prune it.  The filter keeps every label that can pass (it
    may keep more; the position bound below still decides), so it skips
    only trials that find nothing.

    Position bound: a child is entered only if, for every letter, the
    positions after this one (`room`) fit what that letter still needs.
    Let `rest` be the labels not yet placed and `img` their images under
    the letter.  Every unplaced label needs a later position of its own,
    and so does every label in `img` that the letter map cannot send to
    a position already placed:
    - queue non-empty: len(queue) + |(rest | img) & ~waits| <= room, with
      `waits` the queue's labels as a bit set.  Queue labels need strictly
      increasing later positions (neighbours differ and the matching is
      monotone).  An unplaced label x will sit at a later position, whose
      image is matched at or after the queue's tail, so an image label
      outside the queue needs a position after every queue position, and
      an unplaced label outside the queue a later position that holds no
      queue label.  Distinct labels need distinct positions.
    - queue empty: |rest| + |ends| <= room, with `ends` the placed labels
      in `img` that occur at no position >= `last`.  The greedy match
      `last` is the least position that this position's image can take,
      so the image of every later position lies at or after it, and each
      label in `ends` needs one more, later, occurrence; `ends` holds no
      unplaced label.
    Cross-letter term: once z passes every letter, let `later` be `rest`
    together with, for every letter, `waits | img` if its queue is pending
    and `ends` if not.  Each label in `later` needs a position after this
    one: a queue label is matched nowhere up to here, and with a queue
    pending this position's image lies past it, so by monotonicity the
    image of every later position does too, which covers `img`.  A
    letter's queue positions hold only its `waits` labels, so for every
    letter len(queue) + |later & ~waits| <= room (|later| <= room when the
    queue is empty).  The per-letter bound takes the maximum over letters;
    this term counts the labels that all letters need together.  At length
    n it never prunes: the placed labels are distinct, so |rest| = room,
    and the per-letter bound has already pruned any child whose `later`
    holds a placed label; so it is checked only on longer chains.
    So the bound prunes only subtrees that hold no cover.  It also keeps
    every unused label within reach of the positions left, so a node
    (for any length >= n over a non-empty alphabet) needs no such check
    of its own.  `img` is carried per letter and loses δ(z, i) once no
    unplaced label maps there (`pre`).  `ends` is set to the placed labels in `img` other than z
    when the queue empties (then `last` is this position), grows by the
    labels whose last position (`lastpos`) falls before `last` when the
    greedy match moves it forward, and is kept within `img` minus z.  A
    trial therefore costs O(|V|) beyond the greedy scan.

    The labels tried, their order and each decrement of `node_budget` are
    part of the output contract: a search that runs out of budget is
    reported as a bounded unknown, so a change to either changes verdicts.
    Every label still costs one unit, in increasing order: before trying
    z the node charges z and the skipped labels below it, and on failure
    it charges the rest.  Once the budget is spent every later trial
    would fail, so the node stops and charges the rest in bulk too.  A
    pruned child, by the position bound or as an equal neighbour, costs
    nothing beyond its label's unit.  Both prunes cut only subtrees that
    hold no cover, or at the least length hold only covers with equal
    neighbours, so the search enters a subset of the nodes of the search
    without them, in the same order, and reaches each node having spent
    no more budget.  Its outcome differs from that search's only where
    that search runs out of budget (this one may finish instead) or finds
    a cover with equal neighbours (this one goes on to a later cover or
    None), which at the least length with a cover cannot happen.

    Recursion depth: `place` recurses once per position.  At length n
    the labels on a path are distinct, so reaching depth D charges at
    least 1 + 2 + ... + D = D(D+1)/2 units, which bounds D by 893 under
    the budget of 400,000; a longer chain is at most 2|V|+3 positions.
    Either stays below Python's default recursion limit of 1,000 for
    alphabets of up to a few hundred letters.
    """
    n = dm.n_states
    n_sym = len(dm.alphabet)
    trans = dm.transitions
    every = (1 << n) - 1
    # pre[i][q]: bit set of the labels z with trans[z][i] == q;
    # image[i]: bit set of the labels q with some trans[z][i] == q
    pre = [[0] * n for _ in range(n_sym)]
    image = [0] * n_sym
    for z in range(n):
        for i, q in enumerate(trans[z]):
            pre[i][q] |= 1 << z
            image[i] |= 1 << q
    cross = length > n  # the cross-letter term prunes only longer chains
    labels: list[int] = []
    # lastpos[z]: the last position of label z in `labels`
    lastpos = [-1] * n
    # per letter: (match-from position, pending image labels, collapsed,
    # their bit set, the images of the unplaced labels as a bit set, and
    # the placed ones among those with no position at or after `last`)
    pend: list[tuple[int, tuple[int, ...], int, int, int]] = [(0, (), 0, image[i], 0) for i in range(n_sym)]

    def place(depth: int, used: int) -> bool:
        # used: bit set of the labels in `labels`
        if node_budget[0] <= 0:
            return False
        if depth == length:
            return used == every and not any(entry[1] for entry in pend)
        room = length - depth - 1
        passing = every & ~used if n - used.bit_count() == room + 1 else every
        if labels:
            passing &= ~(1 << labels[-1])  # no two equal neighbours
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
            saved_lastpos = lastpos[z]
            lastpos[z] = depth
            row = trans[z]
            rest = every & ~(used | bit)
            unplaced = rest.bit_count()
            ok = True
            for i in range(n_sym):
                last, queue, waits, img, ends = pend[i]
                x = row[i]
                if not pre[i][x] & rest:  # no unplaced label maps to x
                    img &= ~(1 << x)
                if queue:
                    if queue[-1] != x:
                        queue += (x,)
                        waits |= 1 << x
                    # by the invariant, only the new label can match the head
                    if queue[0] == z:
                        last = depth
                        queue = queue[1:]
                        if z not in queue:
                            waits ^= bit
                        if not queue:
                            ends = used
                else:
                    # leftmost-greedy: the first x at or after `last`
                    try:
                        match = labels.index(x, last)
                    except ValueError:
                        queue = (x,)
                        waits = 1 << x
                    else:
                        for y in labels[last:match]:
                            if lastpos[y] < match:
                                ends |= 1 << y
                        last = match
                # position bound (see the docstring)
                if queue:
                    need = len(queue) + ((rest | img) & ~waits).bit_count()
                else:
                    ends &= img & ~bit
                    need = unplaced + ends.bit_count()
                if need > room:
                    ok = False
                    break
                pend[i] = (last, queue, waits, img, ends)
            if ok and cross:  # the cross-letter term
                later = rest
                for _, queue, waits, img, ends in pend:
                    later |= waits | img if queue else ends
                for _, queue, waits, _, _ in pend:
                    if len(queue) + (later & ~waits).bit_count() > room:
                        ok = False
                        break
            if ok and place(depth + 1, used | bit):
                return True
            labels.pop()
            lastpos[z] = saved_lastpos
            pend[:] = saved
        node_budget[0] -= n - tried
        return False

    if place(0, 0):
        return tuple(labels)
    return None


def _cover_to_dfa(dm: Dfa, labels: tuple[int, ...]) -> Dfa:
    """The ordered automaton realized by a chain labeling (greedy targets)."""
    n_sym = len(dm.alphabet)
    rows = []
    for i in range(n_sym):
        last = -1
        row = []
        for pos in range(len(labels)):
            want = dm.transitions[labels[pos]][i]
            if not (last >= 0 and labels[last] == want):
                nxt = next(p for p in range(last + 1, len(labels)) if labels[p] == want)
                last = nxt
            row.append(last)
        rows.append(row)
    trans = tuple(tuple(rows[i][pos] for i in range(n_sym)) for pos in range(len(labels)))
    start = labels.index(dm.start)
    accepting = frozenset(pos for pos, z in enumerate(labels) if z in dm.accepting)
    return Dfa(dm.alphabet, len(labels), start, accepting, trans)


def _orientation_conflict(dm: Dfa) -> bool:
    """Whether the pair orientations of dm force a contradiction, which
    proves that no total order of dm's states is monotone.

    For states p < q, let the orientation of the pair {p, q} say whether
    p comes before q.  An order in which p comes before q must put
    δ(p,a) before δ(q,a) whenever the two differ, so the orientation of
    {p, q} equals that of {δ(p,a), δ(q,a)}, flipped when δ(p,a) > δ(q,a).
    A union-find with parity over the pairs joins these equations; a pair
    forced to differ from itself is a conflict.  No conflict proves
    nothing, since transitivity is not checked.  Cost O(n²·|V|).
    """
    n = dm.n_states
    trans = dm.transitions
    # pair (p, q) with p < q has index base[q] + p
    base = [q * (q - 1) // 2 for q in range(n)]
    parent = list(range(n * (n - 1) // 2))
    flip = [0] * len(parent)  # orientation relative to the parent pair

    def find(x: int) -> tuple[int, int]:
        """Root of x and x's orientation relative to it; compresses the path."""
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        parity = 0
        for y in reversed(path):
            parity ^= flip[y]
            flip[y] = parity
            parent[y] = x
        return x, parity

    for q in range(1, n):
        row_q = trans[q]
        for p in range(q):
            pair = base[q] + p
            for a, b in zip(trans[p], row_q):
                if a == b:
                    continue
                image, turn = (base[b] + a, 0) if a < b else (base[a] + b, 1)
                root, parity = find(pair)
                image_root, image_parity = find(image)
                if root == image_root:
                    if parity ^ image_parity != turn:
                        return True
                else:
                    parent[root] = image_root
                    flip[root] = parity ^ image_parity ^ turn
    return False


_COVER_NODE_BUDGET = 400_000


def is_orderable(d: Dfa, monoid: TransitionMonoid | None = None) -> Verdict:
    """Is the language accepted by some DFA whose states carry a total
    order made monotone by every letter?

    The minimal automaton alone does not settle this: duplicating states
    (a sink placed at two chain positions, say) can make an order possible
    where the minimal automaton admits none.  The search therefore covers
    chains of up to max(n, 2|V|+3) states labeled by minimal-automaton
    classes; 2|V|+3 states always suffice for a language defined by
    single-letter window sets, which keeps the hierarchy's SLT1-to-ordered
    inclusion decidable here.  At length n, where a chain is an order of
    the minimal automaton itself, an orientation conflict settles the
    length first: it counts as searched in full and costs no budget.
    "No" is exact only via aperiodicity (ordered automata have aperiodic
    transition monoids); otherwise a failed search is reported as a
    bounded unknown, whose evidence calls the minimal automaton
    unorderable only when length n was searched in full.  The search's
    position bound, which counts the later positions that the pending
    image labels, the unplaced labels and the images of the unplaced
    labels still need, per letter and, on chains longer than n, for all
    letters together, and its equal-neighbour prune (see
    `_find_monotone_cover`) leave every verdict, evidence string and
    certificate that the search without them reaches with budget left as
    it was: neither cuts a subtree that holds a cover, and lengths are
    tried upwards, so the first length with a cover is the least one,
    whose covers have no equal neighbours.  Only a search that would run
    out of budget without them can finish instead, with a cover or with
    `no ordered automaton with <= bound states`.
    """
    dm = minimize(d)
    nc = is_noncounting(dm, monoid)
    if nc.value == "no":
        return _no(
            f"not star-free ({nc.evidence}); ordered automata are aperiodic",
            payload=nc.payload,
        )
    n = dm.n_states
    budget = max(n, 2 * len(dm.alphabet) + 3)
    nodes = [_COVER_NODE_BUDGET]
    first = n + 1 if _orientation_conflict(dm) else n
    unorderable = first > n
    for length in range(first, budget + 1):
        labels = _find_monotone_cover(dm, length, nodes)
        if labels is None:
            if length == n:
                unorderable = nodes[0] > 0  # ended with budget left: searched in full
            continue
        cover = _cover_to_dfa(dm, labels)
        order = tuple(range(len(labels)))
        if length == n:
            pretty = " <= ".join(f"q{z}" for z in labels)
            return _yes(
                f"monotone order on the minimal automaton: {pretty}",
                payload=OrderCertificate(cover, order, labels),
            )
        return _yes(
            f"ordered automaton with {length} states over {n} minimal classes",
            payload=OrderCertificate(cover, order, labels),
        )
    exhausted = nodes[0] <= 0
    detail = "search budget exhausted" if exhausted else f"no ordered automaton with <= {budget} states"
    if unorderable:
        detail += "; minimal automaton unorderable"
    return Verdict("unknown", bound=budget, evidence=detail)


# ---------------------------------------------------------------------------
# transition monoid: non-counting and power-separating

_MONOID_CAP = 1 << 15


class TransitionMonoid:
    """State transformations of a DFA, closed under composition.

    Each transformation is a string with one character per state:
    `elements[i][q]` is `chr` of the state reached from q by reading
    `words[i]`, so composing with a letter is one `str.translate`.
    Contains the identity (empty word); generator words are shortest-lex.

    The monoid is built lazily by one breadth-first search, a generator
    that pauses after each element it appends.  Iterating the monoid
    yields (transformation, word) pairs in that order and resumes the
    search only when the reader needs the next element, so a reader that
    stops at a witness never builds the rest.  BFS finds the elements in
    shortlex order of their least words, so the first element with a
    property is the same however far the search has run.  `len` and
    `from_dfa` need the whole monoid; once the search is complete, `len`
    reads the element count.  The cap is `_MONOID_CAP`, read when
    the monoid is read: a reader that needs element `_MONOID_CAP + 1`
    raises `InputError`, and so does every later reader that goes as far.
    """

    def __init__(self, d: Dfa) -> None:
        self.elements: list[str] = []
        self.words: list[str] = []
        # per element: None if its power cycle has period 1, else (tail, period, mixed)
        self.cycles: list[tuple[int, int, bool] | None] = []
        # the search holds these lists, not self, so the monoid forms no reference cycle
        self._search = _monoid_search(d, self.elements, self.words, self.cycles)

    @classmethod
    def from_dfa(cls, d: Dfa) -> "TransitionMonoid":
        m = cls(d)
        len(m)
        return m

    def _grow(self) -> bool:
        """Run the search to its next element; False once it is complete."""
        size = len(self.elements)
        if not next(self._search, False):
            return False
        if len(self.elements) == size:
            # the search pauses without appending only at the cap
            raise InputError("transition monoid too large for desk-scale analysis")
        return True

    def __iter__(self):
        i = 0
        while i < len(self.elements) or self._grow():
            yield self.elements[i], self.words[i]
            i += 1

    def __len__(self) -> int:
        while self._grow():
            pass
        return len(self.elements)

    def counters(self):
        """(word, tail, period, mixed) of each element whose power cycle
        has period > 1, in search order; `mixed` tells whether acceptance
        from the start state changes along the cycle.  It reads the monoid
        lazily like `__iter__`; the search walks each power cycle once."""
        for i, (_, word) in enumerate(self):
            cycle = self.cycles[i]
            if cycle is not None:
                yield (word, *cycle)


def _monoid_search(d: Dfa, elements: list[str], words: list[str], cycles: list):
    """The breadth-first search of TransitionMonoid: append each element,
    its word and its power-cycle summary, then pause (yield True); before
    element `_MONOID_CAP + 1` pause without appending."""
    letters = [
        (a, "".join(chr(row[i]) for row in d.transitions))
        for i, a in enumerate(d.alphabet.symbols)
    ]
    ident = "".join(map(chr, range(d.n_states)))
    seen = set()
    # first the identity (the empty word times itself), then element e times each letter
    base, prefix, rows = ident, "", [("", ident)]
    for e in itertools.count():
        for a, row in rows:
            t = base.translate(row)
            if t in seen:
                continue
            seen.add(t)
            while len(elements) >= _MONOID_CAP:
                yield True
            powers, tail, period = _power_cycle(t)
            mixed = period > 1 and len({ord(p[d.start]) in d.accepting for p in powers[tail - 1 :]}) > 1
            elements.append(t)
            words.append(prefix + a)
            cycles.append((tail, period, mixed) if period > 1 else None)
            yield True
        if e == len(elements):
            return
        base, prefix, rows = elements[e], words[e], letters


def _power_cycle(t: str) -> tuple[list[str], int, int]:
    """Powers t^1, t^2, ... until repetition; returns (powers, tail, period).

    powers[i] is t^(i+1); t^(tail+period) == t^(tail) with 1-based
    exponents, i.e. the cycle covers exponents tail..tail+period-1.
    """
    powers = [t]
    seen = {t: 1}
    cur = t
    while True:
        cur = cur.translate(t)
        exp = len(powers) + 1
        if cur in seen:
            tail = seen[cur]
            return powers, tail, exp - tail
        seen[cur] = exp
        powers.append(cur)


def is_noncounting(d: Dfa, monoid: TransitionMonoid | None = None) -> Verdict:
    """Aperiodicity of the transition monoid of the minimal automaton.

    "No" names the first counter in breadth-first order, the shortlex
    least word whose transformation has eventual period > 1, and builds
    the monoid only that far; "yes" needs the whole monoid and its size.
    """
    dm = minimize(d)
    m = monoid if monoid is not None else TransitionMonoid(dm)
    for word, _, period, _ in m.counters():
        return _no(
            f"word {word_to_token(word)} has eventual period {period}",
            payload=(word, period),
        )
    return _yes(f"aperiodic transition monoid (size {len(m)})", payload=len(m))


def is_power_separating(d: Dfa, monoid: TransitionMonoid | None = None) -> Verdict:
    """Acceptance of x^n must become constant along each power cycle.

    x^n membership depends only on the n-th power of x's transformation,
    and a uniform threshold exists because the monoid is finite.  "No"
    names the shortlex least word whose power cycle mixes acceptance and
    builds the monoid only that far; "yes" needs the whole monoid.
    """
    dm = minimize(d)
    m = monoid if monoid is not None else TransitionMonoid(dm)
    # a cycle of period 1 cannot mix, so only the counters need a look
    for word, tail, period, mixed in m.counters():
        if mixed:
            return _no(
                f"powers of {word_to_token(word)} mix accept/reject on their cycle "
                f"(cycle start {tail}, period {period})",
                payload=(word, tail, period),
            )
    return _yes(f"every power sequence stabilizes acceptance (monoid size {len(m)})")


# ---------------------------------------------------------------------------
# classification report


class UnknownFamilyTag(InputError):
    """A family tag that names no family."""


def _slt_width(tag: str) -> int | None:
    """The k of a tag SLT<k> with k >= 1, else None."""
    m = re.fullmatch(r"SLT([1-9][0-9]*)", tag)
    return int(m[1]) if m else None


def decide_family(
    tag: str, d: Dfa, monoid: TransitionMonoid | None = None, source_expr: object = None
) -> Verdict:
    """Verdict of the family `tag`, for any tag a report row or a declared
    family can name: a FAMILY_PROCEDURES tag, UF (certified only by a
    union-free regex `source_expr`), SLT<k>, or SLT, the report's overall
    row at the default window cap; any other tag raises UnknownFamilyTag.
    `monoid`, the transition monoid of the minimal automaton, is shared by
    the procedures that need it.  It is extended lazily, so each procedure
    builds only as much of it as its answer needs, and what one builds the
    next reuses."""
    if tag in FAMILY_PROCEDURES:
        procedure = globals()[FAMILY_PROCEDURES[tag]]
        return procedure(d, monoid) if tag in _MONOID_FAMILIES else procedure(d)
    if tag == "UF":
        if isinstance(source_expr, RegexAst) and is_union_free(source_expr):
            return _yes(f"union-free expression: {render_regex(source_expr)}")
        return Verdict("unknown", evidence="no union-free expression certificate; syntactic check only")
    if tag == "SLT":
        dm = minimize(d)
        return _slt_rows(dm, None, is_definite(dm), is_noncounting(dm, monoid))[-1][1]
    k = _slt_width(tag)
    if k is None:
        raise UnknownFamilyTag(f"unknown family tag {tag!r}")
    res = is_slt_k(d, k)
    return _slt_k_verdict(res.rep, res.witness)


class ClassificationReport(NamedTuple):
    alphabet: Alphabet
    entries: tuple[tuple[str, Verdict], ...]

    def verdict(self, family: str) -> Verdict:
        for name, v in self.entries:
            if name == family:
                return v
        raise KeyError(family)

    def render(self) -> list[str]:
        return [f"{name} {v.render()}" for name, v in self.entries]

    def render_porcelain(self) -> list[str]:
        out = []
        for name, v in self.entries:
            line = f"family={name} verdict={v.value}"
            if v.bound is not None:
                line += f" bound={v.bound}"
            if v.evidence:
                line += f" evidence={v.evidence!r}"
            out.append(line)
        return out


def classify(
    d: Dfa,
    k_max: int | None = None,
    source_expr: RegexAst | None = None,
) -> ClassificationReport:
    """Run every family decision procedure and assemble the fixed-order report.

    The report is a deterministic function of (d, k_max, source_expr).
    """
    check_k_max(k_max)
    dm = minimize(d)
    monoid = TransitionMonoid(dm)
    verdicts = {tag: decide_family(tag, dm, monoid, source_expr) for tag in FAMILY_BASE_ORDER}
    slt_rows = _slt_rows(dm, k_max, verdicts["DEF"], verdicts["NC"])
    return ClassificationReport(d.alphabet, (*verdicts.items(), *slt_rows))


def _slt_rows(
    dm: Dfa, k_max: int | None, def_verdict: Verdict, nc_verdict: Verdict
) -> list[tuple[str, Verdict]]:
    """The report's SLT<k> rows, then its overall SLT row."""
    if nc_verdict.value == "no":
        # SLT_k languages are star-free for every k, so this "no" is exact.
        v = _no("not star-free", payload=nc_verdict.payload)
        return [("SLT1", v), ("SLT", v)]
    if k_max is None:
        k_max = default_k_max(dm)
        if def_verdict.value == "yes":
            # a definite language is window-representable with
            # k <= (number of state pairs) + 1, so extend that far; the
            # sweep stops where the window space ends
            pairs = dm.n_states * (dm.n_states - 1) // 2
            k_max = max(k_max, pairs + 1)
    sweep = infer_slt(dm, k_max)
    rows = [(f"SLT{k}", _slt_k_verdict(None, w)) for k, w in enumerate(sweep.per_k_witness, 1)]
    if sweep.found_k is None:
        return [*rows, ("SLT", Verdict("unknown", bound=sweep.k_max))]
    found = (f"SLT{sweep.found_k}", _slt_k_verdict(sweep.rep, None))
    return [*rows, found, ("SLT", _yes(f"k={sweep.found_k}", payload=sweep.rep))]


def _slt_k_verdict(rep: SltRep | None, witness: str | None) -> Verdict:
    """An SLT<k> row: its window sets on "yes", the separating word on "no"."""
    if rep is None:
        return _no(f"witness={word_to_token(witness)}", payload=witness)
    p, i, s, f = (",".join(map(word_to_token, ws)) for ws in rep.sorted_fields())
    return _yes(f"k={rep.k} B={{{p}}} I={{{i}}} E={{{s}}} F={{{f}}}", payload=rep)


# Implications of the family hierarchy used as report self-checks:
# antecedent yes with consequent no is always a bug.
_IMPLICATIONS = (
    ("MON", "SLT1"),
    ("COMB", "SLT1"),
    ("MON", "NIL"),
    ("FIN", "NIL"),
    ("NIL", "DEF"),
    ("COMB", "DEF"),
    ("DEF", "SLT"),
    ("SLT1", "ORD"),
    ("ORD", "NC"),
    ("SLT", "NC"),
    ("NC", "PS"),
)


def implication_violations(report: ClassificationReport) -> list[str]:
    """Report entries contradicting the family hierarchy (empty = consistent)."""
    verdicts = dict(report.entries)
    out = []
    for a, b in _IMPLICATIONS:
        if a in verdicts and b in verdicts:
            if verdicts[a].value == "yes" and verdicts[b].value == "no":
                out.append(f"{a} yes but {b} no")
    # SLT_k yes must propagate upward to every larger k in the report
    # and to the SLT row itself.
    slt_ks = [(k, v) for name, v in report.entries if (k := _slt_width(name))]
    found = [k for k, v in slt_ks if v.value == "yes"]
    if found:
        k0 = min(found)
        for k, v in slt_ks:
            if k > k0 and v.value == "no":
                out.append(f"SLT{k0} yes but SLT{k} no")
        if verdicts["SLT"].value == "no":
            out.append(f"SLT{k0} yes but SLT no")
    return out
