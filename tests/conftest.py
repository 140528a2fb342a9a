import os

import pytest
from hypothesis import settings

from wordlogic.algebra import Magma, WordProblem, LanguageSpec, pad_language
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
