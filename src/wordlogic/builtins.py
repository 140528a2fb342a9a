"""Built-in language specs preregistered with every toolbox.

The binary alphabets are ordered (1, 0): the first alphabet letter is the
one a quantifier's first argument formula emits, which is what makes the
existential/universal/parity languages behave as their namesake quantifiers.
Lexists, Lforall and Lmod2 are regular; Maj is the one context-free language,
given by a CNF grammar of 4 nonterminals and 6 binary rules.
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
    """CNF grammar for {w in {0,1}+ : more 1s than 0s}: S -> 1 | SS | 0SS |
    S0S | SS0, with Z -> 0, P -> SS and Q -> ZS.

    Write e(w) = #1 - #0. Soundness: every production keeps e >= 1.
    Completeness, by induction on the length of w with e(w) >= 1:
    - e >= 2: cut w where the running excess first reaches 1; both parts
      have e >= 1, so SS.
    - e = 1 and w = 0x: e(x) = 2 cuts the same way, so 0SS; w = x0 gives SS0.
    - e = 1 otherwise: w = 1, or w starts and ends with 1, so the running
      excess is 1 after the first letter and 0 before the last. Cut at the
      first 0 that takes it from 1 to 0; both parts have e = 1, so S0S.
    """
    rules = [("S", "1"), ("Z", "0"), ("S", ("S", "S")), ("P", ("S", "S")),
             ("S", ("Z", "P")), ("S", ("P", "Z")),  # 0SS, SS0
             ("S", ("S", "Q")), ("Q", ("Z", "S"))]  # S0S
    return Cfg.from_rules(("S", "Z", "P", "Q"), ("1", "0"), rules, "S")


def _maj() -> LanguageSpec:
    return LanguageSpec("Maj", ("1", "0"), majority_grammar())


def builtin_registry() -> dict[str, LanguageSpec]:
    specs = [_lexists(), _lforall(), mod_counting_language(2), _maj()]
    return {s.name: s for s in specs}
