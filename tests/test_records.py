"""The package's records: what they promise, and what importing them costs.

Records read in inner loops (`Alphabet`, `Dfa`, `Context`, `SltRep` and the
regex nodes) are classes with slots on `automata.Record`, built from one
positional value per field; the rest are `typing.NamedTuple`s.  Either way a
record is immutable, equal by value within its type and hashable, and its
validation messages are part of the CLI's output.
"""

import os
import subprocess
import sys

import pytest

import sublang
from sublang.automata import Alphabet, Dfa, InputError
from sublang.families import Verdict
from sublang.grammars import Context, ContextualGrammar, Diagnostic, LanguageHandle, compare_bounded
from sublang.regexes import Concat, Empty, Epsilon, Star, Sym, Union
from sublang.slt import make_rep

SRC = os.path.dirname(os.path.dirname(sublang.__file__))
AB = Alphabet.of("ab")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a cold `import sublang.cli` is the setup cost of every command
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import sublang.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"


def _dfa():
    return Dfa(AB, 2, 0, frozenset({1}), ((1, 0), (1, 1)))


def _pairs():
    # two separately built, equal values of each record type
    return [
        (Alphabet.of("ab"), Alphabet(("a", "b"))),
        (_dfa(), _dfa()),
        (Context("a", "b"), Context("a", "b")),
        (make_rep(1, AB, ["a"], ["b"], ["a"]), make_rep(1, AB, ["a"], ["b"], ["a"])),
        (Empty(), Empty()),
        (Epsilon(), Epsilon()),
        (Star(Concat(Sym("a"), Sym("b"))), Star(Concat(Sym("a"), Sym("b")))),
        (Verdict("no", evidence="witness=a"), Verdict("no", None, "witness=a")),
        (Diagnostic("error", "x"), Diagnostic("error", "x")),
    ]


@pytest.mark.parametrize("left, right", _pairs(), ids=lambda r: type(r).__name__)
def test_records_are_equal_by_value_with_equal_hashes(left, right):
    assert left is not right
    assert left == right
    assert not left != right
    assert hash(left) == hash(right)
    assert len({left, right}) == 1


def test_records_of_one_type_differ_by_their_fields():
    assert Dfa(AB, 2, 0, frozenset({1}), ((1, 0), (1, 1)), True) != _dfa()  # `minimal` counts
    assert Context("a", "b") != Context("b", "a")
    assert Sym("a") != Sym("b")
    assert Alphabet.of("ab") != Alphabet.of("ba")


def test_node_types_with_equal_fields_are_unequal():
    a, b = Sym("a"), Sym("b")
    assert Concat(a, b) != Union(a, b)
    assert Empty() != Epsilon()
    assert len({Concat(a, b), Union(a, b)}) == 2


@pytest.mark.parametrize(
    "record, field",
    [
        (_dfa(), "n_states"),
        (AB, "symbols"),
        (AB, "order_table"),
        (Verdict("yes"), "value"),
        (Sym("a"), "char"),
        (Concat(Sym("a"), Sym("b")), "left"),
        (Context("a", "b"), "left"),
        (make_rep(1, AB), "k"),
    ],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize(
    "build",
    [
        lambda: Context("a"),
        lambda: Sym(),
        lambda: Epsilon("a"),
        lambda: Concat(Sym("a")),
        lambda: Star(Sym("a"), Sym("b")),
    ],
    ids=["Context", "Sym", "Epsilon", "Concat", "Star"],
)
def test_records_refuse_the_wrong_number_of_fields(build):
    with pytest.raises(TypeError):
        build()


def test_alphabet_equality_ignores_its_order_table():
    plain, altered = Alphabet.of("ab"), Alphabet.of("ab")
    object.__setattr__(altered, "order_table", {})
    assert plain == altered
    assert hash(plain) == hash(altered)


def test_records_print_their_fields():
    assert repr(AB) == "Alphabet(symbols=('a', 'b'))"
    assert repr(Concat(Sym("a"), Empty())) == "Concat(left=Sym(char='a'), right=Empty())"
    assert repr(Context("a", "")) == "Context(left='a', right='')"
    assert repr(Verdict("yes")) == "Verdict(value='yes', bound=None, evidence=None, payload=None)"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Alphabet(("ab",)), "alphabet symbols must be single characters, got 'ab'"),
        (lambda: Alphabet(("a", "a")), "duplicate alphabet symbols in ('a', 'a')"),
        (lambda: Dfa(AB, 2, 2, frozenset(), ((0, 0), (1, 1))), "start state 2 out of range"),
        (lambda: Dfa(AB, 2, 0, frozenset(), ((0, 0),)), "transition table must have one row per state"),
        (lambda: Dfa(AB, 1, 0, frozenset(), ((0,),)), "state 0: transition row must cover the whole alphabet"),
        (lambda: Dfa(AB, 1, 0, frozenset(), ((0, 3),)), "transition target 3 out of range"),
        (lambda: Dfa(AB, 1, 0, frozenset({1}), ((0, 0),)), "accepting state out of range"),
        (lambda: make_rep(0, AB), "window length k must be >= 1"),
        (lambda: make_rep(2, AB, prefixes=["a"]), "prefix window 'a' must have length exactly 2"),
        (lambda: make_rep(1, AB, interiors=["c"]), "interior window 'c' not over the alphabet"),
        (lambda: make_rep(1, AB, short_words=["a"]), "short word 'a' must be shorter than k=1"),
        (lambda: make_rep(2, AB, short_words=["c"]), "short word 'c' not over the alphabet"),
    ],
)
def test_record_validation_messages(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


def test_bounded_sources_route_by_kind_not_by_tuple_shape():
    # a named-tuple record is a tuple, but not a word collection
    handle = LanguageHandle.from_regex("ab*")
    assert compare_bounded(handle, (), 2).left_only == ("a", "ab")
    assert compare_bounded(("b", "a", "ab", "a"), (), 1).left_only == ("a", "b")
    with pytest.raises(InputError, match="^cannot enumerate a Diagnostic source$"):
        compare_bounded(Diagnostic("error", "x"), (), 2)
    # a grammar source is a (grammar, mode) pair, and a collection holds strings
    grammar = ContextualGrammar(AB, (), ("a",))
    assert compare_bounded((grammar, "in"), ["a"], 2).equal
    with pytest.raises(InputError, match="^cannot enumerate a tuple source$"):
        compare_bounded((grammar, "in", "x"), ["a"], 2)
    with pytest.raises(InputError, match="^cannot enumerate a list source$"):
        compare_bounded(["a", 1], (), 2)
