"""Generalized quantifiers over words: algebraic language backends,
a logic evaluator, leaf automata, and validated formula translations."""

from .algebra import (
    Cfg,
    Dfa,
    LanguageSpec,
    Magma,
    WordProblem,
    brute_force_bracketings,
    cfg_to_groupoid,
    check_associative,
    cyk_member,
    groupoid_reachable,
    is_neutral_letter_bounded,
    is_symmetric_bounded,
    language_member,
    monoid_word_eval,
    pad_language,
    regular_to_monoid,
    word_problem_member,
)
from .builtins import builtin_registry
from .errors import WordlogicError
from .formats import Toolbox, load_toolbox
from .leafauto import LeafAutomaton, leaf_count, leaf_string, leaffa_member
from .logic import (
    CONCATENATED,
    INTERLEAVED,
    ConstStructure,
    StringStructure,
    define_language,
    evaluate,
    fragment_check,
    induced_word,
    instance_rank,
    instance_unrank,
    structure_from_string,
)
from .sexpr import format_formula, parse_formula
from .translate import (
    TranslationReport,
    arity_collapse,
    check_equivalence,
    const_rewrite,
    const_unrewrite,
    exp_translate,
    exp_translate_rev,
    pad_translate,
    q1_to_q_star,
    q_star_to_q1,
    tally_member,
    tally_translate_bwd,
    tally_translate_fwd,
)

__version__ = "0.1.0"
