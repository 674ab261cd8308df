"""Decision procedures for the subregular language families.

Every verdict is relative to the language's own declared alphabet: b* is
monoidal over {b} but not over {a, b}.  Verdicts carry evidence: a
concrete witness for every "no", and a certificate (state order, window
representation, letter set, monoid data) for every "yes" where one
exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import (
    Alphabet,
    Dfa,
    InputError,
    MAX_WORD_SPACE,
    Nfa,
    are_equivalent,
    complement,
    find_pump,
    least_word,
    minimize,
    reachable_states,
    universe_dfa,
)
from .regexes import RegexAst, is_union_free, render_regex
from .slt import SltRep, default_k_max, is_slt_k, make_rep, slt_to_dfa

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


@dataclass(frozen=True)
class Verdict:
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


def _fmt(word: str) -> str:
    return word if word else "_"


# ---------------------------------------------------------------------------
# finite / monoidal / nilpotent / combinational


def is_finite(d: Dfa) -> Verdict:
    pump = find_pump(d)
    if pump is None:
        return _yes()
    u, v, w = pump
    return _no(f"pumpable: {_fmt(u)}({v})*{_fmt(w)}", payload=pump)


def is_monoidal(d: Dfa) -> Verdict:
    eq = are_equivalent(d, universe_dfa(d.alphabet))
    if eq.equal:
        return _yes()
    return _no(f"witness={_fmt(eq.witness)}", payload=eq.witness)


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
    return _no(f"witness={_fmt(eq.witness)}", payload=eq.witness)


# ---------------------------------------------------------------------------
# definite and its window-set construction


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


def definite_to_slt(
    start_words: frozenset[str] | set[str] | tuple[str, ...],
    end_words: frozenset[str] | set[str] | tuple[str, ...],
    alphabet: Alphabet,
) -> SltRep:
    """Window representation of D_s u V*D_e with k = max word length + 1.

    Short words are the language's own words below k; prefixes and
    interiors are unconstrained; allowed suffixes are the length-k words
    ending in some word of D_e.  The result is checked internally to be
    language-equivalent to D_s u V*D_e.
    """
    ds = frozenset(start_words)
    de = frozenset(end_words)
    for w in ds | de:
        if not alphabet.covers(w):
            raise InputError(f"word {w!r} not over alphabet")
    k = max((len(w) for w in ds | de), default=0) + 1
    if len(alphabet) ** k > MAX_WORD_SPACE:
        raise InputError(f"window space |V|^{k} too large")

    def in_lang(w: str) -> bool:
        return w in ds or any(w.endswith(e) for e in de)

    full = list(alphabet.words_of_length(k))
    short = [w for w in alphabet.words_upto(k - 1) if in_lang(w)]
    ends = [s for s in full if any(s.endswith(e) for e in de)]
    rep = make_rep(k, alphabet, full, full, ends, short)

    # internal soundness check against an independent automaton
    ref = _definite_dfa(ds, de, alphabet)
    eq = are_equivalent(slt_to_dfa(rep), ref)
    if not eq.equal:  # pragma: no cover - construction is proven exact
        raise RuntimeError(f"window construction diverged at {eq.witness!r}")
    return rep


def _definite_dfa(ds: frozenset[str], de: frozenset[str], alphabet: Alphabet) -> Dfa:
    nfa = Nfa(alphabet)
    root = nfa.add_state()
    nfa.starts.add(root)
    loop = nfa.add_state()
    nfa.add_edge(root, None, loop)
    for a in alphabet:
        nfa.add_edge(loop, a, loop)
    for w in ds:
        cur = root
        for c in w:
            nxt = nfa.add_state()
            nfa.add_edge(cur, c, nxt)
            cur = nxt
        nfa.accepting.add(cur)
    for e in de:
        cur = loop
        for c in e:
            nxt = nfa.add_state()
            nfa.add_edge(cur, c, nxt)
            cur = nxt
        nfa.accepting.add(cur)
    return minimize(nfa.determinize())


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
    return _no(f"suffix {_fmt(witness)} of an accepted word is rejected", payload=witness)


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
                f"swap of {_fmt(source)} gives {_fmt(witness)} which is rejected",
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
        f"rotation {_fmt(witness)} of {_fmt(source)} is rejected",
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


@dataclass(frozen=True)
class OrderCertificate:
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

    The labels tried, their order and each decrement of `node_budget` are
    part of the output contract: a search that runs out of budget is
    reported as a bounded unknown, so a change to either changes verdicts.
    """
    n = dm.n_states
    n_sym = len(dm.alphabet)
    trans = dm.transitions
    labels: list[int] = []
    uses = [0] * n  # occurrences of each label in `labels`
    distinct = 0
    # per letter: (match-from position, pending image labels, collapsed)
    pend: list[tuple[int, tuple[int, ...]]] = [(0, ()) for _ in range(n_sym)]

    def place(depth: int) -> bool:
        nonlocal distinct
        if node_budget[0] <= 0:
            return False
        if depth == length:
            return distinct == n and not any(queue for _, queue in pend)
        if n - distinct > length - depth:
            return False
        room = length - depth - 1
        for z in range(n):
            node_budget[0] -= 1
            labels.append(z)
            uses[z] += 1
            if uses[z] == 1:
                distinct += 1
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
            if ok and place(depth + 1):
                return True
            labels.pop()
            uses[z] -= 1
            if uses[z] == 0:
                distinct -= 1
            pend[:] = saved
        return False

    if place(0):
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
    inclusion decidable here.  "No" is exact only via aperiodicity
    (ordered automata have aperiodic transition monoids); otherwise a
    failed search is reported as a bounded unknown.
    """
    dm = d if d.minimal else minimize(d)
    nc = is_noncounting(dm, monoid)
    if nc.value == "no":
        return _no(
            f"not star-free ({nc.evidence}); ordered automata are aperiodic",
            payload=nc.payload,
        )
    n = dm.n_states
    budget = max(n, 2 * len(dm.alphabet) + 3)
    nodes = [_COVER_NODE_BUDGET]
    for length in range(n, budget + 1):
        labels = _find_monotone_cover(dm, length, nodes)
        if labels is None:
            continue
        cover = _cover_to_dfa(dm, labels)
        order = tuple(range(len(labels)))
        if not verify_order(cover, order):  # pragma: no cover - construction is monotone
            raise RuntimeError("cover search produced a non-monotone automaton")
        eq = are_equivalent(cover, dm)
        if not eq.equal:  # pragma: no cover
            raise RuntimeError(f"cover search changed the language at {eq.witness!r}")
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
    return Verdict("unknown", bound=budget, evidence=f"{detail}; minimal automaton unorderable")


# ---------------------------------------------------------------------------
# transition monoid: non-counting and power-separating

_MONOID_CAP = 1 << 15


@dataclass
class TransitionMonoid:
    """State transformations of a DFA, closed under composition.

    Each transformation is a string with one character per state:
    `elements[i][q]` is `chr` of the state reached from q by reading
    `words[i]`, so composing with a letter is one `str.translate`.
    Contains the identity (empty word); generator words are shortest-lex.
    """

    dfa: Dfa
    elements: list[str]
    words: list[str]

    @classmethod
    def from_dfa(cls, d: Dfa, cap: int = _MONOID_CAP) -> "TransitionMonoid":
        n = d.n_states
        letters = [
            (a, "".join(chr(d.transitions[q][i]) for q in range(n)))
            for i, a in enumerate(d.alphabet.symbols)
        ]
        ident = "".join(map(chr, range(n)))
        seen = {ident}
        elements = [ident]
        words = [""]
        # breadth first: the loop reads `elements` while appending to it
        for e, base in enumerate(elements):
            for a, row in letters:
                t = base.translate(row)
                if t not in seen:
                    if len(elements) >= cap:
                        raise InputError("transition monoid too large for desk-scale analysis")
                    seen.add(t)
                    elements.append(t)
                    words.append(words[e] + a)
        return cls(d, elements, words)

    def __len__(self) -> int:
        return len(self.elements)


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
    """Aperiodicity of the transition monoid of the minimal automaton."""
    dm = d if d.minimal else minimize(d)
    m = monoid or TransitionMonoid.from_dfa(dm)
    for t, word in zip(m.elements, m.words):
        _, _, period = _power_cycle(t)
        if period > 1:
            return _no(
                f"word {_fmt(word)} has eventual period {period}",
                payload=(word, period),
            )
    return _yes(f"aperiodic transition monoid (size {len(m)})", payload=len(m))


def is_power_separating(d: Dfa, monoid: TransitionMonoid | None = None) -> Verdict:
    """Acceptance of x^n must become constant along each power cycle.

    x^n membership depends only on the n-th power of x's transformation,
    and a uniform threshold exists because the monoid is finite.
    """
    dm = d if d.minimal else minimize(d)
    m = monoid or TransitionMonoid.from_dfa(dm)
    for t, word in zip(m.elements, m.words):
        powers, tail, period = _power_cycle(t)
        verdicts = {
            ord(powers[e - 1][dm.start]) in dm.accepting for e in range(tail, tail + period)
        }
        if len(verdicts) > 1:
            return _no(
                f"powers of {_fmt(word)} mix accept/reject on their cycle "
                f"(cycle start {tail}, period {period})",
                payload=(word, tail, period),
            )
    return _yes(f"every power sequence stabilizes acceptance (monoid size {len(m)})")


def is_union_free_syntactic(ast: RegexAst) -> bool:
    """Certificate-level check on the given expression, not the language."""
    return is_union_free(ast)


# ---------------------------------------------------------------------------
# classification report


def decide_family(tag: str, d: Dfa, monoid: TransitionMonoid | None = None) -> Verdict:
    """Verdict of the family `tag`; `monoid`, the transition monoid of the
    minimal automaton, is shared by the procedures that need it."""
    procedure = globals()[FAMILY_PROCEDURES[tag]]
    if tag in _MONOID_FAMILIES:
        return procedure(d, monoid)
    return procedure(d)


@dataclass(frozen=True)
class ClassificationReport:
    alphabet: Alphabet
    entries: tuple[tuple[str, Verdict], ...]

    def verdict(self, family: str) -> Verdict:
        for name, v in self.entries:
            if name == family:
                return v
        raise KeyError(family)

    @property
    def families(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

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
    dm = minimize(d)
    monoid = TransitionMonoid.from_dfa(dm)

    verdicts = {tag: decide_family(tag, dm, monoid) for tag in FAMILY_PROCEDURES}
    if source_expr is not None and is_union_free_syntactic(source_expr):
        verdicts["UF"] = _yes(f"union-free expression: {render_regex(source_expr)}")
    else:
        verdicts["UF"] = Verdict(
            "unknown", evidence="no union-free expression certificate; syntactic check only"
        )

    slt_rows, slt_overall = _slt_verdicts(dm, k_max, verdicts["DEF"], verdicts["NC"])

    entries = [(name, verdicts[name]) for name in FAMILY_BASE_ORDER]
    entries.extend((f"SLT{k}", v) for k, v in slt_rows)
    entries.append(("SLT", slt_overall))
    return ClassificationReport(d.alphabet, tuple(entries))


def _slt_verdicts(
    dm: Dfa, k_max: int | None, def_verdict: Verdict, nc_verdict: Verdict
) -> tuple[list[tuple[int, Verdict]], Verdict]:
    if nc_verdict.value == "no":
        # SLT_k languages are star-free for every k, so this "no" is exact.
        v = _no("not star-free", payload=nc_verdict.payload)
        return [(1, v)], v
    if k_max is None:
        k_cap = default_k_max(dm)
        if def_verdict.value == "yes":
            # a definite language is window-representable with
            # k <= (number of state pairs) + 1, so extend far enough
            k_cap = max(k_cap, dm.n_states * (dm.n_states - 1) // 2 + 1)
    else:
        k_cap = k_max
    rows: list[tuple[int, Verdict]] = []
    for k in range(1, k_cap + 1):
        res = is_slt_k(dm, k)
        if res:
            rows.append((k, _yes(_render_rep(res.rep), payload=res.rep)))
            return rows, _yes(f"k={k}", payload=res.rep)
        rows.append((k, _no(f"witness={_fmt(res.witness)}", payload=res.witness)))
    return rows, Verdict("unknown", bound=k_cap)


def _render_rep(rep: SltRep | None) -> str:
    assert rep is not None
    p, i, s, f = rep.sorted_fields()

    def fs(ws: list[str]) -> str:
        return "{" + ",".join(_fmt(w) for w in ws) + "}"

    return f"k={rep.k} B={fs(p)} I={fs(i)} E={fs(s)} F={fs(f)}"


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
    slt_ks = [(int(name[3:]), v) for name, v in report.entries if name.startswith("SLT") and name != "SLT"]
    found = [k for k, v in slt_ks if v.value == "yes"]
    if found:
        k0 = min(found)
        for k, v in slt_ks:
            if k > k0 and v.value == "no":
                out.append(f"SLT{k0} yes but SLT{k} no")
        if verdicts["SLT"].value == "no":
            out.append(f"SLT{k0} yes but SLT no")
    return out
