"""Line-oriented text formats for automata, window representations, and grammars.

`#` starts a comment, `_` is the empty-word token in every format.
Every renderer produces text that re-parses to an equivalent object.
"""

from __future__ import annotations

import os

from .automata import EMPTY_TOKEN, Alphabet, Dfa, InputError, word_to_token
from .grammars import Context, ContextualGrammar, LanguageHandle, SelectionPair
from .regexes import RegexAst, parse_regex, render_regex, symbols_of
from .slt import SltRep, make_rep


class FormatError(InputError):
    """Malformed input file; message carries source name and line number."""


def word_from_token(token: str, alphabet: Alphabet, where: str) -> str:
    word = "" if token == EMPTY_TOKEN else token
    if not alphabet.covers(word):
        raise FormatError(f"{where}: word {token!r} not over alphabet {''.join(alphabet.symbols)!r}")
    return word


def _logical_lines(text: str, source: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split(), f"{source}:{lineno}"


def _once(kind: str, seen: set[str], where: str) -> None:
    """Note a line that sets one value; a second such line is an error."""
    if kind in seen:
        raise FormatError(f"{where}: duplicate {kind} line")
    seen.add(kind)


def _alphabet_from_tokens(tokens: list[str], where: str) -> Alphabet:
    symbols = [c for tok in tokens for c in tok]
    if not symbols:
        raise FormatError(f"{where}: alphabet line lists no symbols")
    try:
        return Alphabet.of(symbols)
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# DFA format


def parse_dfa_text(text: str, source: str = "<dfa>") -> Dfa:
    alphabet: Alphabet | None = None
    n_states: int | None = None
    start: int | None = None
    accepting: set[int] = set()
    trans: dict[tuple[int, str], int] = {}  # (state, sym) -> target
    ids: list[tuple[int, str]] = []  # every state id read, with its line; range-checked at the end
    seen: set[str] = set()

    def number(tok: str, where: str, what: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"{where}: expected {what}, got {tok!r}") from None

    def state_id(tok: str, where: str) -> int:
        q = number(tok, where, "a state number")
        ids.append((q, where))
        return q

    for _, tokens, where in _logical_lines(text, source):
        kind, rest = tokens[0], tokens[1:]
        if kind in ("alphabet", "states", "start"):
            _once(kind, seen, where)
        if kind == "alphabet":
            alphabet = _alphabet_from_tokens(rest, where)
        elif kind == "states":
            if len(rest) != 1:
                raise FormatError(f"{where}: states line takes one number")
            n_states = number(rest[0], where, "a number of states")
            if n_states < 1:
                raise FormatError(f"{where}: need at least one state")
        elif kind == "start":
            if len(rest) != 1:
                raise FormatError(f"{where}: start line takes one state")
            start = state_id(rest[0], where)
        elif kind == "accept":
            accepting.update(state_id(t, where) for t in rest)
        elif kind == "trans":
            if len(rest) != 3:
                raise FormatError(f"{where}: trans line needs `state symbol state`")
            if alphabet is None:
                raise FormatError(f"{where}: trans before alphabet line")
            p = state_id(rest[0], where)
            sym = rest[1]
            if sym not in alphabet:
                raise FormatError(f"{where}: symbol {sym!r} not in alphabet")
            q = state_id(rest[2], where)
            if (p, sym) in trans:
                raise FormatError(f"{where}: duplicate transition for (state {p}, {sym!r})")
            trans[(p, sym)] = q
        else:
            raise FormatError(f"{where}: unknown directive {kind!r}")

    if alphabet is None:
        raise FormatError(f"{source}: missing alphabet line")
    if n_states is None:
        raise FormatError(f"{source}: missing states line")
    for q, where in ids:
        if not (0 <= q < n_states):
            raise FormatError(f"{where}: state {q} out of range 0..{n_states - 1}")
    if start is None:
        raise FormatError(f"{source}: missing start line")
    rows = []
    for p in range(n_states):
        row = []
        for sym in alphabet:
            if (p, sym) not in trans:
                raise FormatError(f"{source}: missing transition for (state {p}, symbol {sym!r})")
            row.append(trans[(p, sym)])
        rows.append(tuple(row))
    return Dfa(alphabet, n_states, start, frozenset(accepting), tuple(rows))


def render_dfa(d: Dfa) -> str:
    lines = [
        "alphabet " + " ".join(d.alphabet.symbols),
        f"states {d.n_states}",
        f"start {d.start}",
        "accept" + "".join(f" {q}" for q in sorted(d.accepting)),
    ]
    for p in range(d.n_states):
        for i, sym in enumerate(d.alphabet):
            lines.append(f"trans {p} {sym} {d.transitions[p][i]}")
    return "\n".join(lines) + "\n"


def parse_dfa_file(path: str) -> Dfa:
    return parse_dfa_text(_read(path), path)


# ---------------------------------------------------------------------------
# SLT format


def parse_slt_text(text: str, source: str = "<slt>") -> SltRep:
    k: int | None = None
    alphabet: Alphabet | None = None
    sets: dict[str, list[str]] = {"B": [], "I": [], "E": [], "F": []}
    seen: set[str] = set()

    for _, tokens, where in _logical_lines(text, source):
        kind, rest = tokens[0], tokens[1:]
        _once(kind, seen, where)  # every line of the format sets one value
        if kind == "slt":
            if len(rest) != 1 or not rest[0].startswith("k="):
                raise FormatError(f"{where}: expected `slt k=<number>`")
            try:
                k = int(rest[0][2:])
            except ValueError:
                raise FormatError(f"{where}: bad window length in {rest[0]!r}") from None
        elif kind == "alphabet":
            alphabet = _alphabet_from_tokens(rest, where)
        elif kind in sets:
            if alphabet is None:
                raise FormatError(f"{where}: window line before alphabet line")
            sets[kind] = [word_from_token(t, alphabet, where) for t in rest]
        else:
            raise FormatError(f"{where}: unknown directive {kind!r}")

    if k is None:
        raise FormatError(f"{source}: missing `slt k=...` line")
    if alphabet is None:
        raise FormatError(f"{source}: missing alphabet line")
    try:
        return make_rep(k, alphabet, sets["B"], sets["I"], sets["E"], sets["F"])
    except InputError as exc:
        raise FormatError(f"{source}: {exc}") from None


def render_slt(rep: SltRep) -> str:
    prefixes, interiors, suffixes, short = rep.sorted_fields()
    lines = [f"slt k={rep.k}", "alphabet " + " ".join(rep.alphabet.symbols)]
    for tag, words in (("B", prefixes), ("I", interiors), ("E", suffixes), ("F", short)):
        lines.append(tag + "".join(f" {word_to_token(w)}" for w in words))
    return "\n".join(lines) + "\n"


def parse_slt_file(path: str) -> SltRep:
    return parse_slt_text(_read(path), path)


# ---------------------------------------------------------------------------
# grammar format


class _PairDraft:
    """The lines of a pair block read so far."""

    def __init__(self, where: str) -> None:
        self.where = where
        self.select: tuple[str, str] | None = None  # (kind, payload)
        self.select_alphabet: Alphabet | None = None
        self.family: str | None = None
        self.contexts: list[Context] = []
        self.seen: set[str] = set()  # its select, select-alphabet and family lines


def parse_grammar_text(
    text: str, source: str = "<grammar>", base_dir: str | None = None
) -> ContextualGrammar:
    alphabet: Alphabet | None = None
    axioms: list[str] = []
    pairs: list[SelectionPair] = []
    draft: _PairDraft | None = None
    seen: set[str] = set()

    def finish_pair(d: _PairDraft) -> SelectionPair:
        assert alphabet is not None
        if d.select is None:
            raise FormatError(f"{d.where}: pair has no select line")
        if not d.contexts:
            raise FormatError(f"{d.where}: pair has no context line")
        kind, payload = d.select
        if kind == "regex":
            ast = parse_regex(payload)
            if d.select_alphabet is not None:
                sel_alpha = d.select_alphabet
            else:
                used = set(symbols_of(ast))
                sel_alpha = Alphabet.of(s for s in alphabet.symbols if s in used)
                if used - set(sel_alpha.symbols):
                    raise FormatError(
                        f"{d.where}: selector symbols {sorted(used - set(sel_alpha.symbols))} "
                        "not in the base alphabet"
                    )
            handle = LanguageHandle.from_regex(ast, sel_alpha)
        elif kind == "dfa":
            handle = LanguageHandle.from_dfa(parse_dfa_file(_resolve(payload, base_dir)))
        elif kind == "slt":
            handle = LanguageHandle.from_slt(parse_slt_file(_resolve(payload, base_dir)))
        else:
            raise FormatError(f"{d.where}: unknown select kind {kind!r}")
        if d.select_alphabet not in (None, handle.alphabet):  # a selector file's own alphabet rules
            raise FormatError(
                f"{d.where}: select-alphabet {' '.join(d.select_alphabet.symbols)} differs from "
                f"the selector file's alphabet {' '.join(handle.alphabet.symbols)}"
            )
        return SelectionPair(handle, tuple(d.contexts), d.family)

    for _, tokens, where in _logical_lines(text, source):
        kind, rest = tokens[0], tokens[1:]
        if kind == "alphabet":
            _once(kind, seen, where)
            alphabet = _alphabet_from_tokens(rest, where)
        elif kind == "axiom":
            if alphabet is None:
                raise FormatError(f"{where}: axiom before alphabet line")
            if not rest:
                raise FormatError(f"{where}: axiom line lists no words")
            axioms.extend(word_from_token(t, alphabet, where) for t in rest)
        elif kind == "pair":
            if draft is not None:
                raise FormatError(f"{where}: nested pair (missing end?)")
            if alphabet is None:
                raise FormatError(f"{where}: pair before alphabet line")
            draft = _PairDraft(where)
        elif kind == "end":
            if draft is None:
                raise FormatError(f"{where}: end without pair")
            pairs.append(finish_pair(draft))
            draft = None
        elif kind == "select":
            if draft is None:
                raise FormatError(f"{where}: select outside a pair block")
            _once(kind, draft.seen, where)
            if not rest:
                raise FormatError(f"{where}: select needs a kind (regex|dfa|slt)")
            draft.select = (rest[0], " ".join(rest[1:]))
        elif kind == "select-alphabet":
            if draft is None:
                raise FormatError(f"{where}: select-alphabet outside a pair block")
            _once(kind, draft.seen, where)
            draft.select_alphabet = _alphabet_from_tokens(rest, where)
        elif kind == "family":
            if draft is None or len(rest) != 1:
                raise FormatError(f"{where}: family takes one tag inside a pair block")
            _once(kind, draft.seen, where)
            draft.family = rest[0]
        elif kind == "context":
            if draft is None:
                raise FormatError(f"{where}: context outside a pair block")
            assert alphabet is not None
            parts = [p.strip() for p in " ".join(rest).split(",")]
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise FormatError(f"{where}: context syntax is `context <left> , <right>`")
            draft.contexts.append(
                Context(
                    word_from_token(parts[0], alphabet, where),
                    word_from_token(parts[1], alphabet, where),
                )
            )
        else:
            raise FormatError(f"{where}: unknown directive {kind!r}")

    if draft is not None:
        raise FormatError(f"{source}: unterminated pair block (missing end)")
    if alphabet is None:
        raise FormatError(f"{source}: missing alphabet line")
    return ContextualGrammar(alphabet, tuple(pairs), tuple(axioms))


def parse_grammar_file(path: str) -> ContextualGrammar:
    return parse_grammar_text(_read(path), path, base_dir=os.path.dirname(os.path.abspath(path)))


def render_grammar(g: ContextualGrammar, aux_dir: str | None = None) -> str:
    """Grammar text; non-regex selectors are written to aux files in aux_dir."""
    lines = ["alphabet " + " ".join(g.alphabet.symbols)]
    if g.axioms:
        lines.append("axiom " + " ".join(word_to_token(w) for w in g.axioms))
    for idx, pair in enumerate(g.pairs):
        lines.append("pair")
        src = pair.selector.source
        if isinstance(src, RegexAst):
            lines.append(f"  select regex {render_regex(src)}")
        elif isinstance(src, SltRep):
            lines.append(f"  select slt {_write_aux(aux_dir, idx, 'slt', render_slt(src))}")
        elif isinstance(src, Dfa):
            lines.append(f"  select dfa {_write_aux(aux_dir, idx, 'dfa', render_dfa(src))}")
        else:  # pragma: no cover
            raise InputError(f"cannot render selector source {type(src).__name__}")
        lines.append("  select-alphabet " + " ".join(pair.selector.alphabet.symbols))
        if pair.declared_family:
            lines.append(f"  family {pair.declared_family}")
        for ctx in pair.contexts:
            lines.append(f"  context {word_to_token(ctx.left)} , {word_to_token(ctx.right)}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def _write_aux(aux_dir: str | None, idx: int, ext: str, content: str) -> str:
    if aux_dir is None:
        raise InputError("rendering a non-regex selector needs an aux directory")
    name = f"selector{idx}.{ext}"
    with open(os.path.join(aux_dir, name), "w", encoding="utf-8") as fh:
        fh.write(content)
    return name


def _resolve(path: str, base_dir: str | None) -> str:
    if base_dir and not os.path.isabs(path):
        return os.path.join(base_dir, path)
    return path


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
