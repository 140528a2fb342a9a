import os

import pytest
from hypothesis import settings

from wordlogic.algebra import (
    Dfa,
    LanguageSpec,
    Magma,
    WordProblem,
    pad_language,
)
from wordlogic.builtins import Z2, builtin_registry

# Reproducible property tests: the same examples on every run, no timing
# flakes on a loaded host, and a bounded run time.
settings.register_profile("wordlogic", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("wordlogic")

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def g4():
    # non-associative four-element groupoid with identity e
    return Magma(
        ("e", "a", "b", "c"),
        ((0, 1, 2, 3),
         (1, 2, 3, 1),
         (2, 0, 1, 2),
         (3, 3, 2, 0)),
        0,
        name="G4",
    )


@pytest.fixture(scope="session")
def registry():
    reg = builtin_registry()
    reg["MajPad"] = pad_language(reg["Maj"], "#", name="MajPad")
    # odd number of ones; neutral letter 0
    odd = LanguageSpec("LmodOdd", ("1", "0"), WordProblem.of(Z2, {1}),
                       declared_neutral="0", letter_map={"1": 1, "0": 0})
    reg["LmodOdd"] = odd
    return reg


@pytest.fixture(scope="session")
def stopping():
    """Languages whose decided states are not one sink entered after the
    start, as Lexists' and Lforall's are: Lcycle, 0*1(0+1)*, whose two
    accepting states map to each other on every letter; Lzero over
    (1, z, 0), the monoid {e, a, a^2 = z} with zero z and 1 -> a, z -> z,
    0 -> e, accepting the words with at most one 1 and no z; and Lall,
    (1+0)*, which starts in its decided state."""
    cycle = Dfa(("q0", "q1", "q2"), ("1", "0"), ((1, 0), (2, 2), (1, 1)), 0,
                frozenset({1, 2}))
    zero = Magma(("e", "a", "z"), ((0, 1, 2), (1, 2, 2), (2, 2, 2)), 0,
                 name="Zero")
    return {"Lcycle": LanguageSpec("Lcycle", ("1", "0"), cycle),
            "Lzero": LanguageSpec("Lzero", ("1", "z", "0"),
                                  WordProblem.of(zero, {0, 1}),
                                  letter_map={"1": 1, "z": 2, "0": 0}),
            "Lall": LanguageSpec("Lall", ("1", "0"), Dfa(
                ("q",), ("1", "0"), ((0, 0),), 0, frozenset({0})))}
