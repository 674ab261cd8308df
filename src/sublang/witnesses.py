"""Executable encodings of the classic witness languages and grammars.

A witness is one entry of the table `WITNESSES` at the end of this module;
parsing an id, building it, its oracle and its lemma are lookups there.
verify_lemma replays a witness's machine-checkable claims: exact family
separations, bounded equality of grammar output against an independent
enumeration oracle, and certificate checks.  Oracles here are direct set
builders and counters, never the grammar engine itself.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .automata import Alphabet, Dfa, InputError, are_equivalent, word_to_token
from .families import (
    definite_to_slt,
    is_combinational,
    is_definite,
    is_finite,
    is_monoidal,
    is_orderable,
    is_suffix_closed,
    verify_order,
)
from .grammars import (
    Context,
    ContextualGrammar,
    LanguageHandle,
    SelectionPair,
    generate_bounded,
)
from .slt import SltRep, check_k_max, infer_slt, is_slt_k, make_rep, slt_to_dfa

MAX_DESK_LEN = 20
# parameter ranges that the public builder and oracle check as well
_IC33_SIZES = range(2, 4)
_KK_SIZES = range(1, 5)

_AB = Alphabet.of("ab")
_ABC = Alphabet.of("abc")
_ABCD = Alphabet.of("abcd")
_CD = Alphabet.of("cd")


def parse_witness_id(text: str) -> tuple[str, int | None]:
    m = re.fullmatch(r"([a-z0-9-]+)(?:\((\d+)\))?", text.strip())
    if not m:
        raise InputError(f"malformed witness id {text!r}")
    name, param = m.group(1), m.group(2)
    witness = WITNESSES.get(name)
    if witness is None:
        raise InputError(f"unknown witness id {text!r}")
    if witness.params is None:
        if param is not None:
            raise InputError(f"witness {name!r} takes no parameter")
        return name, None
    if param is None:
        raise InputError(f"witness {name!r} needs a parameter, e.g. {name}({witness.params.start})")
    value = int(param)
    if value not in witness.params:
        raise InputError(
            f"parameter {value} for {name!r} outside supported range "
            f"{witness.params.start}..{witness.params[-1]}"
        )
    return name, value


def _format_id(name: str, param: int | None) -> str:
    return name if param is None else f"{name}({param})"


def default_witness_ids() -> list[str]:
    """The ids `verify --lemma all` runs, in table order."""
    return [_format_id(name, p) for name, witness in WITNESSES.items() for p in witness.verify_all]


def build_witness(witness_id: str) -> LanguageHandle | ContextualGrammar:
    name, param = parse_witness_id(witness_id)
    return _apply(WITNESSES[name].build, param)


def oracle_words(witness_id: str, max_len: int) -> list[str]:
    """The id's direct-enumeration oracle, bounded by max_len."""
    name, param = parse_witness_id(witness_id)
    witness = WITNESSES[name]
    if witness.oracle is None:  # a language witness enumerates its own automaton
        return _apply(witness.build, param).bounded_words(max_len)
    return _oracle(witness, param, max_len)


def _oracle(witness: Witness, param: int | None, max_len: int) -> list[str]:
    # looked up at call time, so a rebound module attribute is the one called
    return _apply(globals()[witness.oracle], param, max_len)  # type: ignore[index]


def _apply(fn, param: int | None, *args):
    """fn(*args), or fn(param, *args) for a witness with a parameter."""
    return fn(*args) if param is None else fn(param, *args)


# ---------------------------------------------------------------------------
# builders


def _hierarchy_language(h: int) -> LanguageHandle:
    block = "a" + "b" * h
    return LanguageHandle.from_regex(f"{block}({block})*", _AB)


def ec35_grammar() -> ContextualGrammar:
    grow = LanguageHandle.from_regex("(a|b)*", _AB)
    wrap = LanguageHandle.from_regex("a*b(a|b)*", _AB)
    return ContextualGrammar(
        _ABC,
        (
            SelectionPair(grow, (Context("", "a"), Context("a", "")), "ORD"),
            SelectionPair(wrap, (Context("c", "c"),), "ORD"),
        ),
        ("", "b"),
    )


def ic32_grammar() -> ContextualGrammar:
    sel = LanguageHandle.from_regex("bb*", Alphabet.of("b"))
    return ContextualGrammar(
        _ABCD,
        (SelectionPair(sel, (Context("c", "d"),), "SLT1"),),
        ("ab",),
    )


def ic33_grammars(n: int) -> tuple[ContextualGrammar, ContextualGrammar]:
    """The window-set-selection grammar and the finite-selection grammar."""
    if n not in _IC33_SIZES:
        raise InputError(f"l-ic-33 parameter {n} out of range")
    axioms = ("a" * n + "b" * (2 * n) + "c" * n, "a" * (n - 1) + "b" * n + "c" * (n - 1))
    rep = make_rep(
        n,
        _ABC,
        prefixes=["a" * n],
        interiors=_ABC.words_of_length(n),
        suffixes=["c" * n],
        short_words=[],  # encoded as printed; the second axiom is never selected
    )
    slt_sel = LanguageHandle.from_slt(rep)
    fin_sel = LanguageHandle.from_regex("b" * (2 * n), Alphabet.of("b"))
    g_slt = ContextualGrammar(
        _ABC, (SelectionPair(slt_sel, (Context("a", "c"),), f"SLT{n}"),), axioms
    )
    g_fin = ContextualGrammar(
        _ABC, (SelectionPair(fin_sel, (Context("a", "c"),), "FIN"),), axioms
    )
    return g_slt, g_fin


def ic34_grammar() -> ContextualGrammar:
    sel_ac = LanguageHandle.from_slt(
        make_rep(1, _ABC, prefixes=["a"], interiors=["b"], suffixes=["c"])
    )
    sel_bd = LanguageHandle.from_slt(
        make_rep(1, Alphabet.of("bcd"), prefixes=["b"], interiors=["c"], suffixes=["d"])
    )
    return ContextualGrammar(
        _ABCD,
        (
            SelectionPair(sel_ac, (Context("a", "c"),), "SLT1"),
            SelectionPair(sel_bd, (Context("b", "d"),), "SLT1"),
        ),
        ("abcd",),
    )


def ic35_grammar() -> ContextualGrammar:
    sel = LanguageHandle.from_regex("a*ba*ba*", _AB)
    return ContextualGrammar(
        _AB,
        (SelectionPair(sel, (Context("a", "a"),), "ORD"),),
        ("ababaababa",),
    )


def ic35_table_dfa() -> Dfa:
    """The published 4-state automaton for the grammar's selection language."""
    return Dfa(
        _AB,
        4,
        0,
        frozenset({2}),
        (
            (0, 1),  # q0: a -> q0, b -> q1
            (1, 2),
            (2, 3),
            (3, 3),
        ),
    )


def dyck_grammar() -> ContextualGrammar:
    sel = LanguageHandle.from_regex("(c|d)*", _CD)
    return ContextualGrammar(_CD, (SelectionPair(sel, (Context("c", "d"),), "MON"),), ("",))


def kk_grammar(k: int) -> ContextualGrammar:
    words = ["_"] + ["a" * r + "b" for r in range(k + 2)]
    sel = LanguageHandle.from_regex("|".join(words), _AB)
    axioms = ("a" * (k + 1) + "b", "c" * k + "a" * (3 * k) + "b" + "d" * k)
    return ContextualGrammar(
        _ABCD, (SelectionPair(sel, (Context("c", "d"),), "SUF"),), axioms
    )


# ---------------------------------------------------------------------------
# independent enumeration oracles


def _check_desk_scale(max_len: int) -> None:
    if not (0 <= max_len <= MAX_DESK_LEN):
        raise InputError(f"max_len must be within 0..{MAX_DESK_LEN}")


def dyck_words_upto(max_len: int) -> list[str]:
    """Balanced words over (c, d): every prefix has #c >= #d, totals equal."""
    _check_desk_scale(max_len)
    out: list[str] = []

    def rec(cur: str, open_: int) -> None:
        if open_ == 0:
            out.append(cur)
        if len(cur) + open_ + 2 <= max_len:
            rec(cur + "c", open_ + 1)
        if open_ > 0 and len(cur) + open_ <= max_len:
            rec(cur + "d", open_ - 1)

    rec("", 0)
    return _CD.sort_words(out)


def is_balanced(word: str) -> bool:
    depth = 0
    for ch in word:
        if ch == "c":
            depth += 1
        elif ch == "d":
            depth -= 1
        else:
            return False
        if depth < 0:
            return False
    return depth == 0


def hierarchy_oracle(h: int, max_len: int) -> list[str]:
    _check_desk_scale(max_len)
    block = "a" + "b" * h
    out = []
    w = block
    while len(w) <= max_len:
        out.append(w)
        w += block
    return out


def ec35_oracle(max_len: int) -> list[str]:
    _check_desk_scale(max_len)
    words = {"a" * i for i in range(max_len + 1)}
    for i in range(max_len):
        for j in range(max_len - i):
            words.add("a" * i + "b" + "a" * j)
    for i in range(max_len - 2):
        for j in range(max_len - 2 - i):
            words.add("c" + "a" * i + "b" + "a" * j + "c")
    return _ABC.sort_words(w for w in words if len(w) <= max_len)


def ic32_oracle(max_len: int) -> list[str]:
    _check_desk_scale(max_len)
    out = []
    n = 0
    while 2 * n + 2 <= max_len:
        out.append("a" + "c" * n + "b" + "d" * n)
        n += 1
    return _ABCD.sort_words(out)


def ic33_oracle(n: int, max_len: int) -> list[str]:
    _check_desk_scale(max_len)
    words = []
    special = "a" * (n - 1) + "b" * n + "c" * (n - 1)
    if len(special) <= max_len:
        words.append(special)
    m = n
    while 2 * m + 2 * n <= max_len:
        words.append("a" * m + "b" * (2 * n) + "c" * m)
        m += 1
    return _ABC.sort_words(words)


def ic34_oracle(max_len: int) -> list[str]:
    _check_desk_scale(max_len)
    words = []
    for n in range(1, max_len):
        for m in range(1, max_len):
            if 2 * n + 2 * m <= max_len:
                words.append("a" * n + "b" * m + "c" * n + "d" * m)
    return _ABCD.sort_words(words)


def ic35_oracle(max_len: int) -> list[str]:
    _check_desk_scale(max_len)
    words = []
    for p1 in range(1, max_len):
        for p2 in range(1, max_len):
            for p3 in range(1, max_len):
                if 2 * (p1 + p2 + p3) + 4 <= max_len:
                    words.append(
                        "a" * p1 + "b" + "a" * p2 + "b" + "a" * (p3 + p1) + "b" + "a" * p2 + "b" + "a" * p3
                    )
    return _AB.sort_words(words)


def kk_core_words(k: int, max_len: int) -> list[str]:
    """The pre-insertion words: block-counted c/a/b/d forms plus the wrapped copies."""
    _check_desk_scale(max_len)
    words: list[str] = []

    def plain_upto(limit: int) -> list[str]:
        out: list[str] = []
        base = k + 2  # k+1 letters a plus the letter b
        max_total = (limit - base) // 2
        if max_total < 0:
            return out

        def rec(blocks: list[int], remaining: int, slots: int) -> None:
            if slots == 1:
                final = blocks + [remaining]
                parts = ["c" * m + "a" for m in final[:-1]]
                parts.append("c" * final[-1])
                out.append("".join(parts) + "b" + "d" * sum(final))
                return
            for m in range(remaining + 1):
                rec(blocks + [m], remaining - m, slots - 1)

        for total in range(max_total + 1):
            rec([], total, k + 2)
        return [w for w in out if len(w) <= limit]

    words.extend(plain_upto(max_len))
    wrap_extra = (3 * k - 1) + k  # c^k a^(2k-1) prefix and d^k suffix
    prefix = "c" * k + "a" * (2 * k - 1)
    suffix = "d" * k
    for w in plain_upto(max_len - wrap_extra):
        words.append(prefix + w + suffix)
    return _ABCD.sort_words(set(words))


def kk_oracle_upto(k: int, max_len: int) -> list[str]:
    """Closure of the core words under inserting `cd` at any position.

    Valid because every balanced word arises from the empty word by
    repeated single insertions, so inserting balanced words equals
    iterating single insertions.
    """
    if k not in _KK_SIZES:
        raise InputError(f"kk parameter {k} out of range")
    _check_desk_scale(max_len)
    seen = set(kk_core_words(k, max_len))
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            if len(w) + 2 > max_len:
                continue
            for i in range(len(w) + 1):
                y = w[:i] + "cd" + w[i:]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return _ABCD.sort_words(seen)


# ---------------------------------------------------------------------------
# lemma verification


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "out-of-scope"
    detail: str = ""

    def render(self) -> str:
        line = f"  {self.status.upper():12s} {self.name}"
        if self.detail:
            line += f": {self.detail}"
        return line


class LemmaReport(NamedTuple):
    witness_id: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def render(self) -> list[str]:
        head = f"{self.witness_id}: {'PASS' if self.passed else 'FAIL'}"
        return [head] + [c.render() for c in self.checks]

    def render_porcelain(self) -> list[str]:
        return [
            f"lemma={self.witness_id} check={c.name} status={c.status}"
            for c in self.checks
        ]


def verify_lemma(witness_id: str, max_len: int | None = None, k_max: int | None = None) -> LemmaReport:
    name, param = parse_witness_id(witness_id)
    witness = WITNESSES[name]
    if max_len is None:
        max_len = witness.max_len
    _check_desk_scale(max_len)
    check_k_max(k_max)
    checks = witness.check(_Replay(witness, param, max_len, k_max))
    return LemmaReport(_format_id(name, param), tuple(checks))


class _Replay(NamedTuple):
    """What a lemma check reads: the witness's table entry, parameter and bounds."""

    witness: Witness
    param: int | None
    max_len: int
    k_max: int | None

    def build(self):
        return _apply(self.witness.build, self.param)

    def generate(self, grammar: ContextualGrammar) -> list[str]:
        return generate_bounded(grammar, self.witness.mode, self.max_len, check_invariants=True)

    def oracle(self) -> list[str]:
        return _oracle(self.witness, self.param, self.max_len)


def _chk(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", detail)


def _scope(name: str) -> CheckResult:
    return CheckResult(name, "out-of-scope", "proof-level claim over all grammars")


def _generation_check(name: str, run: _Replay, g: ContextualGrammar) -> tuple[CheckResult, list[str]]:
    """The check that the grammar's bounded closure equals the oracle's words,
    with the closure."""
    generated = run.generate(g)
    return _chk(name, generated == run.oracle()), generated


def _printed_rep_check(name: str, dfa: Dfa, printed: SltRep, detail: str = "") -> CheckResult:
    """The language is window-testable at k, and the printed k-representation denotes it."""
    ok = bool(is_slt_k(dfa, printed.k)) and are_equivalent(slt_to_dfa(printed), dfa).equal
    return _chk(name, ok, detail)


def _sweep_check(selector: str, dfa: Dfa, k_max: int | None) -> CheckResult:
    """No window length up to the sweep's cap fits: a bounded negative."""
    sweep = infer_slt(dfa, k_max)
    name = f"{selector}-not-window-testable-up-to-{sweep.k_max}"
    return _chk(name, not sweep.found, "bounded verdict")


def _check_l_abna(run: _Replay) -> list[CheckResult]:
    dfa = run.build().dfa
    printed = make_rep(1, _AB, ["a"], ["b"], ["a"])
    return [
        _printed_rep_check("window-testable-at-1", dfa, printed, "representation ({a},{b},{a},{})"),
        _chk("not-definite", is_definite(dfa).value == "no"),
    ]


def _check_mon_to_slt1(run: _Replay) -> list[CheckResult]:
    dfa = run.build().dfa
    rep = definite_to_slt((), ("",), _AB)
    v = list(_AB.symbols)
    return [
        _chk("monoidal", is_monoidal(dfa).value == "yes"),
        _chk("window-rep-is-(V,V,V,{_})", rep.k == 1 and rep.sorted_fields() == (v, v, v, [""])),
        _chk("rep-equivalent-to-universe", are_equivalent(slt_to_dfa(rep), dfa).equal),
    ]


def _check_comb_to_slt1(run: _Replay) -> list[CheckResult]:
    dfa = run.build().dfa
    comb = is_combinational(dfa)
    rep = make_rep(1, _AB, _AB.symbols, _AB.symbols, comb.payload or ())
    return [
        _chk("combinational", comb.value == "yes" and comb.payload == ("b",), "X={b}"),
        _chk("window-rep-(V,V,X,{})-equivalent", are_equivalent(slt_to_dfa(rep), dfa).equal),
        _chk("window-testable-at-1", bool(is_slt_k(dfa, 1))),
    ]


def _check_def_to_slt(run: _Replay) -> list[CheckResult]:
    dfa = run.build().dfa
    rep = definite_to_slt(("a",), ("ab",), _AB)
    return [
        _chk("definite", is_definite(dfa).value == "yes"),
        _chk("construction-equivalent", are_equivalent(slt_to_dfa(rep), dfa).equal, f"k={rep.k}"),
    ]


def _check_slt_hierarchy(run: _Replay) -> list[CheckResult]:
    handle, h = run.build(), run.param
    low = is_slt_k(handle.dfa, h)
    return [
        _chk(f"window-testable-at-{h + 1}", bool(is_slt_k(handle.dfa, h + 1))),
        _chk(f"not-window-testable-at-{h}", not low, f"witness={word_to_token(low.witness)}"),
        _chk("matches-block-oracle", handle.bounded_words(run.max_len) == run.oracle()),
    ]


def _check_lk_fin(run: _Replay) -> list[CheckResult]:
    dfa, k = run.build().dfa, run.param
    res = is_slt_k(dfa, k)
    return [
        _chk("finite", is_finite(dfa).value == "yes"),
        _chk(
            f"not-window-testable-at-{k}",
            not res and res.witness == "a" * k,
            f"canonical candidate admits {word_to_token(res.witness)}",
        ),
    ]


def _check_l_ec_35(run: _Replay) -> list[CheckResult]:
    g = run.build()
    ord1 = is_orderable(g.pairs[1].selector.dfa)
    cert = ord1.payload
    return [
        _chk("selector-0-orderable", is_orderable(g.pairs[0].selector.dfa).value == "yes"),
        _chk(
            "selector-1-orderable-2-states",
            ord1.value == "yes" and cert.dfa.n_states == 2 and verify_order(cert.dfa, cert.order),
        ),
        _sweep_check("selector-1", g.pairs[1].selector.dfa, run.k_max),
        _generation_check("external-generation-matches-oracle", run, g)[0],
        _scope("not-EC(SLT)"),
    ]


def _check_l_ic_32(run: _Replay) -> list[CheckResult]:
    g = run.build()
    printed = make_rep(1, Alphabet.of("b"), ["b"], ["b"], ["b"])
    return [
        _printed_rep_check(
            "selector-window-testable-at-1",
            g.pairs[0].selector.dfa,
            printed,
            "representation ({b},{b},{b},{})",
        ),
        _generation_check("internal-generation-matches-oracle", run, g)[0],
        _scope("not-IC(COMB)"),
    ]


def _check_l_ic_33(run: _Replay) -> list[CheckResult]:
    n = run.param
    g_slt, g_fin = ic33_grammars(n)
    sel = g_slt.pairs[0].selector
    printed = make_rep(n, _ABC, ["a" * n], _ABC.words_of_length(n), ["c" * n])
    generation, out_slt = _generation_check("generation-matches-oracle", run, g_slt)
    return [
        _printed_rep_check(f"selector-window-testable-at-{n}", sel.dfa, printed),
        _chk("finite-selector-finite", is_finite(g_fin.pairs[0].selector.dfa).value == "yes"),
        _chk(
            "short-axiom-never-selected",
            not sel.contains(g_slt.axioms[1]),
            f"axiom {g_slt.axioms[1]}",
        ),
        generation,
        _chk("both-grammars-agree", out_slt == run.generate(g_fin)),
        _scope(f"not-IC(SLT{n - 1})"),
    ]


def _check_l_ic_34(run: _Replay) -> list[CheckResult]:
    g = run.build()
    return [
        _chk("selector-ac-window-testable-at-1", bool(is_slt_k(g.pairs[0].selector.dfa, 1))),
        _chk("selector-bd-window-testable-at-1", bool(is_slt_k(g.pairs[1].selector.dfa, 1))),
        _generation_check("internal-generation-matches-oracle", run, g)[0],
        _scope("not-IC(DEF)"),
    ]


def _check_l_ic_35(run: _Replay) -> list[CheckResult]:
    g = run.build()
    sel = g.pairs[0].selector
    table = ic35_table_dfa()
    generation = _generation_check("internal-generation-matches-oracle", run, g)[0]
    axiom = g.axioms[0]
    return [
        # read at the axiom's own length, so any --max-len decides it
        _chk("axiom-is-minimal-element", ic35_oracle(len(axiom)) == [axiom]),
        _chk("published-table-accepts-selector", are_equivalent(table, sel.dfa).equal),
        _chk("published-order-is-monotone", verify_order(table, (0, 1, 2, 3))),
        _chk("selector-orderable", is_orderable(sel.dfa).value == "yes"),
        _sweep_check("selector", sel.dfa, run.k_max),
        generation,
        _scope("not-IC(SLT)"),
    ]


def _check_dyck(run: _Replay) -> list[CheckResult]:
    g = run.build()
    generation, words = _generation_check("generation-matches-balance-counter", run, g)
    return [
        _chk("selector-monoidal", is_monoidal(g.pairs[0].selector.dfa).value == "yes"),
        generation,
        _chk("all-generated-words-balanced", all(is_balanced(w) for w in words)),
    ]


def _check_kk(run: _Replay) -> list[CheckResult]:
    g = run.build()
    sel = g.pairs[0].selector
    return [
        _chk("selector-suffix-closed", is_suffix_closed(sel.dfa).value == "yes"),
        _chk("selector-finite", is_finite(sel.dfa).value == "yes"),
        _generation_check("internal-generation-matches-oracle", run, g)[0],
        _scope(f"not-IC(SLT{run.param})"),
    ]


# ---------------------------------------------------------------------------
# the witness table


class Witness(NamedTuple):
    """One witness id: how to parse, build, enumerate and verify it."""

    build: Callable[..., LanguageHandle | ContextualGrammar]  # called with the parameter, if any
    check: Callable[[_Replay], list[CheckResult]]
    params: range | None = None  # supported parameters; None: the id takes none
    verify_all: tuple[int | None, ...] = (None,)  # what `verify --lemma all` runs
    oracle: str | None = None  # the name of an oracle function of this module
    mode: str | None = None  # derivation mode of a grammar witness
    max_len: int = 12  # default `verify` length


# in `verify --lemma all` order; every grammar witness has an oracle
WITNESSES: dict[str, Witness] = {
    "l-abna": Witness(lambda: LanguageHandle.from_regex("a|ab*a", _AB), _check_l_abna),
    "mon-to-slt1": Witness(lambda: LanguageHandle.from_regex("(a|b)*", _AB), _check_mon_to_slt1),
    "comb-to-slt1": Witness(lambda: LanguageHandle.from_regex("(a|b)*b", _AB), _check_comb_to_slt1),
    "def-to-slt": Witness(lambda: LanguageHandle.from_regex("a|(a|b)*ab", _AB), _check_def_to_slt),
    "slt-hierarchy": Witness(
        _hierarchy_language, _check_slt_hierarchy, range(1, 5), (1, 2, 3), "hierarchy_oracle"
    ),
    "lk-fin": Witness(
        lambda k: LanguageHandle.from_regex("a" * (k + 1), Alphabet.of("a")),
        _check_lk_fin,
        range(1, 5),
        (1, 2, 3, 4),
    ),
    "l-ec-35": Witness(ec35_grammar, _check_l_ec_35, oracle="ec35_oracle", mode="ex"),
    "l-ic-32": Witness(ic32_grammar, _check_l_ic_32, oracle="ic32_oracle", mode="in"),
    "l-ic-33": Witness(
        lambda n: ic33_grammars(n)[0], _check_l_ic_33, _IC33_SIZES, (2, 3), "ic33_oracle", "in"
    ),
    "l-ic-34": Witness(ic34_grammar, _check_l_ic_34, oracle="ic34_oracle", mode="in"),
    "l-ic-35": Witness(ic35_grammar, _check_l_ic_35, oracle="ic35_oracle", mode="in", max_len=14),
    "dyck": Witness(dyck_grammar, _check_dyck, oracle="dyck_words_upto", mode="in"),
    "kk": Witness(kk_grammar, _check_kk, _KK_SIZES, (1, 2), "kk_oracle_upto", "in"),
}
