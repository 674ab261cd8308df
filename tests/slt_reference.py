"""Reference routes kept as differential oracles for `sublang.slt` and
`sublang.automata.minimize`.

`is_slt_k` is the construct-then-compare decision: it builds the canonical
window sets of every width it is asked about, turns them into a DFA with
the full sliding-window construction (`slt_to_dfa`) and compares that DFA
with the input.  `minimize` is Moore's partition refinement with hashed
signatures.  The library now walks the window automaton lazily against the
input and minimizes by Hopcroft's refinement; these copies check that the
verdicts, witnesses, certificates and automata stay the same.
"""

from __future__ import annotations

from collections import deque

from graph_reference import _renumber

from sublang.automata import (
    Dfa,
    InputError,
    MAX_WORD_SPACE,
    are_equivalent,
    reachable_states,
)
from sublang.slt import SltKResult, SltRep, canonical_rep


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


def slt_to_dfa(rep: SltRep) -> Dfa:
    """Minimal DFA accepting exactly the represented language.

    Sliding-window construction: short words are tracked by a prefix trie;
    for long words the state carries the most recent window plus whether
    that window is still the word's own prefix.
    """
    alphabet = rep.alphabet
    n_sym = len(alphabet)
    if n_sym ** rep.k > MAX_WORD_SPACE:
        raise InputError(f"window space |V|^{rep.k} too large")
    k = rep.k

    index: dict[object, int] = {}
    trans: list[list[int]] = []
    accepting: set[int] = set()

    def state(desc: object, accept: bool) -> int:
        if desc not in index:
            index[desc] = len(index)
            trans.append([-1] * n_sym)
            if accept:
                accepting.add(index[desc])
        return index[desc]

    dead = state("dead", False)
    for i in range(n_sym):
        trans[dead][i] = dead
    start = state(("short", ""), "" in rep.short_words)
    queue = deque([("short", "")])
    seen = {("short", ""), "dead"}
    while queue:
        desc = queue.popleft()
        q = index[desc]
        kind = desc[0]
        for i, a in enumerate(alphabet):
            if kind == "short":
                w = desc[1] + a
                if len(w) < k:
                    nxt = ("short", w)
                    t = state(nxt, w in rep.short_words)
                elif w in rep.prefixes:
                    nxt = ("long", w, True)
                    t = state(nxt, w in rep.suffixes)
                else:
                    trans[q][i] = dead
                    continue
            else:
                _, window, is_prefix = desc
                if not is_prefix and window not in rep.interiors:
                    trans[q][i] = dead
                    continue
                w = window[1:] + a
                nxt = ("long", w, False)
                t = state(nxt, w in rep.suffixes)
            trans[q][i] = t
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    raw = Dfa(
        alphabet,
        len(trans),
        start,
        frozenset(accepting),
        tuple(tuple(r) for r in trans),
    )
    return minimize(raw)


def is_slt_k(d: Dfa, k: int) -> SltKResult:
    """Exact decision of strict local k-testability via the canonical sets."""
    rep = canonical_rep(d, k)
    eq = are_equivalent(slt_to_dfa(rep), d)
    if eq.equal:
        return SltKResult(True, rep, None)
    return SltKResult(False, None, eq.witness)
