"""Built-in language specs preregistered with every toolbox.

The binary alphabets are ordered (1, 0): the first alphabet letter is the
one a quantifier's first argument formula emits, which is what makes the
existential/universal/parity languages behave as their namesake quantifiers.
"""

from .algebra import Cfg, Dfa, LanguageSpec, Magma, WordProblem

Z2 = Magma(("0", "1"), ((0, 1), (1, 0)), 0, name="Z2")


def _lexists() -> LanguageSpec:
    # 0*1(0+1)*
    dfa = Dfa(("q0", "q1"), ("1", "0"), ((1, 0), (1, 1)), 0, frozenset({1}))
    return LanguageSpec("Lexists", ("1", "0"), dfa, declared_neutral="0")


def _lforall() -> LanguageSpec:
    # 1*
    dfa = Dfa(("q0", "dead"), ("1", "0"), ((0, 1), (1, 1)), 0, frozenset({0}))
    return LanguageSpec("Lforall", ("1", "0"), dfa, declared_neutral="1")


def mod_counting_language(p: int) -> LanguageSpec:
    """Words over (1,0) whose count of 1s is divisible by p.

    For p = 2 the body is the word problem of Z2, with 1 and 0 mapped onto
    its generator and identity; for other p it is a DFA counting mod p.
    """
    if p == 2:
        return LanguageSpec("Lmod2", ("1", "0"), WordProblem.of(Z2, {0}),
                            declared_neutral="0", letter_map={"1": 1, "0": 0})
    dfa = Dfa(tuple(f"r{i}" for i in range(p)), ("1", "0"),
              tuple(((i + 1) % p, i) for i in range(p)), 0, frozenset({0}))
    return LanguageSpec(f"Lmod{p}", ("1", "0"), dfa, declared_neutral="0")


def majority_grammar() -> Cfg:
    """CNF grammar for {w in {0,1}+ : more 1s than 0s}.

    E derives the nonempty equal-count words via the shortest-balanced-prefix
    decomposition; S peels one surplus 1 per step.
    """
    rules = [
        ("A1", "1"), ("A0", "0"),
        # E: 01 | 10 | 0E1 | 1E0 | 01E | 10E | 0E1E | 1E0E
        ("E", ("A0", "A1")), ("E", ("A1", "A0")),
        ("E", ("A0", "F1")), ("E", ("A1", "F0")),
        ("E", ("P01", "E")), ("E", ("P10", "E")),
        ("E", ("A0", "K1")), ("E", ("A1", "K0")),
        ("F1", ("E", "A1")), ("F0", ("E", "A0")),
        ("P01", ("A0", "A1")), ("P10", ("A1", "A0")),
        ("K1", ("E", "G1")), ("K0", ("E", "G0")),
        ("G1", ("A1", "E")), ("G0", ("A0", "E")),
        # S: 1 | 1S | 1E | E1 | E1S | E1E
        ("S", "1"),
        ("S", ("A1", "S")), ("S", ("A1", "E")), ("S", ("E", "A1")),
        ("S", ("E", "M1")), ("S", ("E", "G1")),
        ("M1", ("A1", "S")),
    ]
    nts = ("S", "E", "A1", "A0", "F1", "F0", "P01", "P10",
           "K1", "K0", "G1", "G0", "M1")
    return Cfg.from_rules(nts, ("1", "0"), rules, "S")


def _maj() -> LanguageSpec:
    return LanguageSpec("Maj", ("1", "0"), majority_grammar())


def builtin_registry() -> dict[str, LanguageSpec]:
    specs = [_lexists(), _lforall(), mod_counting_language(2), _maj()]
    return {s.name: s for s in specs}
