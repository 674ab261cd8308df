"""Subregular language family toolkit with a contextual grammar engine."""

from .automata import (
    Alphabet,
    Dfa,
    EquivalenceResult,
    InputError,
    Nfa,
    accepted_words,
    are_equivalent,
    complement,
    difference,
    enumerate_upto,
    factor_sets,
    intersect,
    minimize,
    union,
)
from .families import (
    ClassificationReport,
    TransitionMonoid,
    Verdict,
    classify,
    definite_to_slt,
    implication_violations,
    is_circular,
    is_combinational,
    is_commutative,
    is_definite,
    is_finite,
    is_monoidal,
    is_nilpotent,
    is_noncounting,
    is_orderable,
    is_power_separating,
    is_suffix_closed,
    verify_order,
)
from .grammars import (
    CompareReport,
    Context,
    ContextualGrammar,
    Diagnostic,
    LanguageHandle,
    SelectionPair,
    StepCapExceeded,
    compare_bounded,
    external_successors,
    generate_bounded,
    internal_successors,
    validate_grammar,
)
from .regexes import RegexAst, compile_regex, parse_regex, render_regex
from .slt import (
    InferSltResult,
    SltKResult,
    SltRep,
    canonical_rep,
    infer_slt,
    is_slt_k,
    make_rep,
    slt_membership,
    slt_to_dfa,
)
from .witnesses import LemmaReport, build_witness, kk_oracle_upto, oracle_words, verify_lemma

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
