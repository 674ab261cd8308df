"""Command-line interface.

Exit codes: 0 = success / all checks passed, 1 = a requested check
failed (difference found, lemma failed) or stdout was closed early,
2 = input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterable

from .automata import Alphabet, InputError, accepted_words, word_to_token
from .families import classify, definite_to_slt
from .formats import (
    parse_dfa_file,
    parse_grammar_file,
    parse_slt_file,
    render_slt,
)
from .grammars import (
    ContextualGrammar,
    StepCapExceeded,
    compare_bounded,
    generate_bounded,
)
from .regexes import compile_regex, parse_regex
from .slt import slt_to_dfa
from .witnesses import (
    build_witness,
    default_witness_ids,
    oracle_words,
    verify_lemma,
)


def _parse_alphabet(text: str | None) -> Alphabet | None:
    if text is None:
        return None
    symbols = [c for c in text if not c.isspace() and c != ","]
    return Alphabet.of(symbols)


def _language_input(spec: str, alphabet: Alphabet | None):
    """Resolve `kind:value` into (Dfa, source expression or None)."""
    kind, sep, value = spec.partition(":")
    if not sep:
        raise InputError(f"input must look like kind:value, got {spec!r}")
    if kind == "dfa":
        return parse_dfa_file(value), None
    if kind == "regex":
        ast = parse_regex(value)
        return compile_regex(ast, alphabet), ast
    if kind == "slt":
        return slt_to_dfa(parse_slt_file(value)), None
    if kind == "witness":
        built = build_witness(value)
        if isinstance(built, ContextualGrammar):
            raise InputError(
                f"witness {value!r} is a grammar; use witness-ex:/witness-in: with compare, "
                "or the generate command"
            )
        return built.dfa, None
    raise InputError(f"unknown input kind {kind!r} (expected dfa|regex|slt|witness)")


def _compare_source(spec: str, alphabet: Alphabet | None, max_len: int):
    kind, sep, value = spec.partition(":")
    if not sep:
        raise InputError(f"source must look like kind:value, got {spec!r}")
    if kind in ("grammar-ex", "grammar-in"):
        return (parse_grammar_file(value), kind.split("-")[-1])
    if kind in ("witness-ex", "witness-in"):
        built = build_witness(value)
        if not isinstance(built, ContextualGrammar):
            raise InputError(f"witness {value!r} is not a grammar")
        return (built, kind.split("-")[-1])
    if kind == "oracle":
        return oracle_words(value, max_len)
    dfa, _ = _language_input(spec, alphabet)
    return dfa


def _print_words(words: Iterable[str]) -> None:
    for w in words:
        print(word_to_token(w))


def _cmd_classify(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    dfa, ast = _language_input(args.input, alphabet)
    report = classify(dfa, k_max=args.k_max, source_expr=ast)
    lines = report.render_porcelain() if args.porcelain else report.render()
    for line in lines:
        print(line)
    return 0


def _cmd_generate(args) -> int:
    grammar = parse_grammar_file(args.grammar)
    try:
        words = generate_bounded(grammar, args.mode, args.max_len, step_cap=args.step_cap)
    except StepCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        _print_words(exc.partial)
        return 1
    _print_words(words)
    return 0


def _cmd_compare(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    left = _compare_source(args.left, alphabet, args.max_len)
    right = _compare_source(args.right, alphabet, args.max_len)
    report = compare_bounded(left, right, args.max_len)
    if args.porcelain:
        print(f"equal={'yes' if report.equal else 'no'} max_len={report.max_len}")
        for w in report.left_only:
            print(f"left_only={word_to_token(w)}")
        for w in report.right_only:
            print(f"right_only={word_to_token(w)}")
    else:
        for line in report.render():
            print(line)
    return 0 if report.equal else 1


def _parse_word_list(text: str) -> tuple[str, ...]:
    if text == "-":
        return ()
    words = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        words.append("" if token == "_" else token)
    return tuple(words)


def _cmd_convert(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    if alphabet is None:
        raise InputError("convert needs --alphabet")
    ds, de = (_parse_word_list(t) for t in args.definite)
    rep = definite_to_slt(ds, de, alphabet)
    text = render_slt(rep)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        print(text, end="")
    return 0


def _cmd_verify(args) -> int:
    ids = default_witness_ids() if args.lemma == "all" else [args.lemma]
    all_passed = True
    for wid in ids:
        report = verify_lemma(wid, max_len=args.max_len, k_max=args.k_max)
        all_passed = all_passed and report.passed
        lines = report.render_porcelain() if args.porcelain else report.render()
        for line in lines:
            print(line)
    print("PASS" if all_passed else "FAIL")
    return 0 if all_passed else 1


def _cmd_enumerate(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    dfa, _ = _language_input(args.input, alphabet)
    _print_words(accepted_words(dfa, args.max_len))  # printed as the walk finds them
    return 0


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublang",
        description="Subregular family classifiers and contextual grammar tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="family classification report for a language")
    p.add_argument("--input", required=True, help="dfa:PATH | regex:EXPR | slt:PATH | witness:ID")
    p.add_argument("--alphabet", help="symbols for regex inputs, e.g. 'a b' or ab")
    p.add_argument("--k-max", type=int, default=None, dest="k_max")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="bounded closure of a grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("--mode", required=True, choices=("ex", "in"))
    p.add_argument("--max-len", required=True, type=int, dest="max_len")
    p.add_argument("--step-cap", type=int, default=None, dest="step_cap")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compare", help="bounded comparison of two word sources")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--max-len", required=True, type=int, dest="max_len")
    p.add_argument("--alphabet")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("convert", help="definite word sets to a window representation")
    p.add_argument(
        "--definite",
        nargs=2,
        required=True,
        metavar=("DS", "DE"),
        help="comma-separated word lists; `_` is the empty word, `-` the empty list",
    )
    p.add_argument("--alphabet", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("verify", help="replay the checkable claims of a witness")
    p.add_argument("--lemma", required=True, help="a witness id or `all`")
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.add_argument("--k-max", type=int, default=None, dest="k_max")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="accepted words up to a length bound")
    p.add_argument("--input", required=True)
    p.add_argument("--alphabet")
    p.add_argument("--max-len", required=True, type=int, dest="max_len")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The `sublang` command: `main`, ending quietly with exit 1 when the
    reader closes stdout early (`sublang enumerate ... | head -1`)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # as the Python docs' note on SIGPIPE advises: point stdout at
        # devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
