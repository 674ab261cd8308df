"""Reference routes for the closure families, kept as a differential oracle.

Each procedure builds an NFA for the closure of L under one operation
(suffixes, one adjacent swap of a letter pair, one rotation), determinizes
it by subset construction, and reports the length-lex least word of
closure \\ L.  This is exponential in the worst case, which is why the
package decides these families by walks on the DFA instead; the verdicts,
evidence strings and payloads must agree exactly.
"""

import itertools
from collections import deque

from sublang.automata import Dfa, Nfa, difference, reachable_states
from sublang.families import Verdict


def _fmt(word: str) -> str:
    return word if word else "_"


def shortest_word(d: Dfa) -> str | None:
    """Length-lex minimal accepted word, or None for the empty language."""
    if d.start in d.accepting:
        return ""
    seen = {d.start}
    queue = deque([(d.start, "")])
    while queue:
        q, w = queue.popleft()
        for i, a in enumerate(d.alphabet):
            t = d.transitions[q][i]
            if t in seen:
                continue
            if t in d.accepting:
                return w + a
            seen.add(t)
            queue.append((t, w + a))
    return None


def _inclusion_witness(closure: Dfa, d: Dfa) -> str | None:
    """Shortest word in closure \\ L, or None when closure <= L."""
    return shortest_word(difference(closure, d))


def is_suffix_closed(d: Dfa) -> Verdict:
    nfa = Nfa(d.alphabet)
    for _ in range(d.n_states):
        nfa.add_state()
    for q in range(d.n_states):
        for i, a in enumerate(d.alphabet):
            nfa.add_edge(q, a, d.transitions[q][i])
    nfa.starts = set(reachable_states(d))
    nfa.accepting = set(d.accepting)
    witness = _inclusion_witness(nfa.determinize(), d)
    if witness is None:
        return Verdict("yes")
    return Verdict("no", evidence=f"suffix {_fmt(witness)} of an accepted word is rejected", payload=witness)


def is_commutative(d: Dfa) -> Verdict:
    """Closure under adjacent transpositions, one letter pair at a time."""
    for a, b in itertools.permutations(d.alphabet.symbols, 2):
        nfa = Nfa(d.alphabet)
        pre = [nfa.add_state() for _ in range(d.n_states)]
        post = [nfa.add_state() for _ in range(d.n_states)]
        mid = [nfa.add_state() for _ in range(d.n_states)]
        for q in range(d.n_states):
            for i, c in enumerate(d.alphabet):
                nfa.add_edge(pre[q], c, pre[d.transitions[q][i]])
                nfa.add_edge(post[q], c, post[d.transitions[q][i]])
            # guess: the original word read `a b` where this word shows `b a`
            target = d.transitions[d.transitions[q][d.alphabet.index(a)]][d.alphabet.index(b)]
            nfa.add_edge(pre[q], b, mid[target])
            nfa.add_edge(mid[target], a, post[target])
        nfa.starts = {pre[d.start]}
        nfa.accepting = {post[q] for q in d.accepting}
        witness = _inclusion_witness(nfa.determinize(), d)
        if witness is not None:
            source = _unswap(witness, a, b, d)
            return Verdict(
                "no",
                evidence=f"swap of {_fmt(source)} gives {_fmt(witness)} which is rejected",
                payload=(source, witness),
            )
    return Verdict("yes")


def _unswap(word: str, a: str, b: str, d: Dfa) -> str:
    for i in range(len(word) - 1):
        if word[i] == b and word[i + 1] == a:
            cand = word[:i] + a + b + word[i + 2 :]
            if d.accepts(cand):
                return cand
    return word


def is_circular(d: Dfa) -> Verdict:
    """Closure under single rotations a.v -> v.a."""
    nfa = Nfa(d.alphabet)
    end = nfa.add_state()
    nfa.accepting = {end}
    for a in d.alphabet:
        states = [nfa.add_state() for _ in range(d.n_states)]
        for q in range(d.n_states):
            for i, c in enumerate(d.alphabet):
                nfa.add_edge(states[q], c, states[d.transitions[q][i]])
            if q in d.accepting:
                nfa.add_edge(states[q], a, end)
        nfa.starts.add(states[d.transitions[d.start][d.alphabet.index(a)]])
    witness = _inclusion_witness(nfa.determinize(), d)
    if witness is None:
        return Verdict("yes")
    source = witness[-1] + witness[:-1]
    return Verdict(
        "no",
        evidence=f"rotation {_fmt(witness)} of {_fmt(source)} is rejected",
        payload=(source, witness),
    )
