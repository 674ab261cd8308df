import os

from sublang.automata import Alphabet, are_equivalent
from sublang.formats import parse_dfa_file, parse_grammar_file, parse_slt_file, render_grammar
from sublang.grammars import generate_bounded, validate_grammar
from sublang.regexes import compile_regex
from sublang.slt import slt_to_dfa
from sublang.witnesses import build_witness, dyck_words_upto, ic32_oracle

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def path(name):
    return os.path.join(SAMPLES, name)


def test_sample_grammars_parse_and_generate():
    dyck = parse_grammar_file(path("dyck.cg"))
    assert validate_grammar(dyck) == []
    assert generate_bounded(dyck, "in", 6) == dyck_words_upto(6)

    ins = parse_grammar_file(path("insertion.cg"))
    assert validate_grammar(ins) == []
    assert generate_bounded(ins, "in", 8) == ic32_oracle(8)


def test_witness_samples_are_the_rendered_witnesses():
    # the golden `generate` cases of these files replay the witness grammars
    for witness_id, name in (("kk(2)", "witness-kk2.cg"), ("dyck", "witness-dyck.cg")):
        with open(path(name), encoding="utf-8") as fh:
            assert fh.read() == render_grammar(build_witness(witness_id))


def test_sample_slt_file():
    rep = parse_slt_file(path("endswith-b.slt"))
    assert are_equivalent(slt_to_dfa(rep), compile_regex("(a|b)*b", Alphabet.of("ab"))).equal


def test_sample_three_letter_slt_file():
    rep = parse_slt_file(path("prefix-suffix-abc.slt"))
    regex = "cc|acc|ccc|(ac|ba|ca|cc)(a|b|c)*(b|c)c"
    assert are_equivalent(slt_to_dfa(rep), compile_regex(regex, Alphabet.of("abc"))).equal
    rep = parse_slt_file(path("ord-tail-abc.slt"))
    regex = "b|cb(a|b|c(a|b))*(c|_)"
    assert are_equivalent(slt_to_dfa(rep), compile_regex(regex, Alphabet.of("abc"))).equal


def test_sample_dfa_file():
    d = parse_dfa_file(path("two-blocks.dfa"))
    assert are_equivalent(d, compile_regex("a*ba*ba*", Alphabet.of("ab"))).equal
