"""Generalized quantifiers over words: algebraic language backends,
a logic evaluator, leaf automata, and validated formula translations.

`import wordlogic` loads no submodule. A submodule is imported the first
time one of its names, or the submodule itself, is read from the package
(PEP 562), so loading a toolbox compiles neither the evaluator, the
s-expression syntax nor the translations.
"""

import sys

# submodule -> the names the package exports from it
_EXPORTS = {
    "algebra": (
        "Cfg", "Dfa", "LanguageSpec", "Magma", "WordProblem",
        "brute_force_bracketings", "cfg_to_groupoid", "check_associative",
        "cyk_member", "groupoid_reachable", "is_neutral_letter_bounded",
        "is_symmetric_bounded", "language_member", "monoid_word_eval",
        "pad_language", "regular_to_monoid", "word_problem_member",
    ),
    "builtins": ("builtin_registry",),
    "errors": ("WordlogicError",),
    "formats": ("Toolbox", "load_toolbox"),
    "leafauto": ("LeafAutomaton", "leaf_count", "leaf_string",
                 "leaffa_member"),
    "logic": (
        "CONCATENATED", "INTERLEAVED", "ConstStructure", "StringStructure",
        "define_language", "evaluate", "fragment_check", "induced_word",
        "instance_rank", "instance_unrank", "structure_from_string",
    ),
    "sexpr": ("format_formula", "parse_formula"),
    "translate": (
        "TranslationReport", "arity_collapse", "check_equivalence",
        "const_rewrite", "const_unrewrite", "exp_translate",
        "exp_translate_rev", "pad_translate", "q1_to_q_star", "q_star_to_q1",
        "tally_member", "tally_translate_bwd", "tally_translate_fwd",
    ),
}

# exported name -> its submodule; a submodule's name is its own
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that holds an exported name and bind the name
    here, so it is looked up once."""
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    # -X importtime reports __import__, not importlib.import_module
    __import__(qualified)
    value = sys.modules[qualified]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _ORIGIN.keys())
