"""Seeded random generators for magmas and argument formulas.

Used by the property suites and the CLI oracle runner; everything is
driven by an explicit random.Random so runs reproduce exactly.
"""

from __future__ import annotations

import random

from .algebra import Magma
from .logic import (
    And,
    Eq,
    ExistsFO,
    FalseF,
    ForallFO,
    InRel,
    Letter,
    LindFO,
    LindSO,
    Lt,
    Not,
    Or,
    TrueF,
    Var,
)


def random_magma(rng: random.Random) -> Magma:
    """Random multiplication table with element 0 forced to be the identity."""
    g = rng.randint(2, 5)
    table = []
    for x in range(g):
        if x == 0:
            table.append(tuple(range(g)))
        else:
            row = [x if y == 0 else rng.randrange(g) for y in range(g)]
            table.append(tuple(row))
    elements = tuple(f"g{i}" for i in range(g))
    return Magma(elements, tuple(table), 0, name=f"rand{g}")


def random_fo_formula(rng: random.Random, fo_vars, so_vars, alphabet,
                      depth: int = 2):
    """Random formula over the given free first- and second-order variables."""
    so_vars = tuple(so_vars)
    alphabet = tuple(alphabet)

    def atom(fo):
        choices = ["true", "false"]
        if fo:
            if alphabet:
                choices += ["letter", "letter"]
            choices += ["eq", "lt"]
            if so_vars:
                choices += ["in", "in", "in"]
        pick = rng.choice(choices)
        if pick == "true":
            return TrueF()
        if pick == "false":
            return FalseF()
        if pick == "letter":
            return Letter(rng.choice(alphabet), Var(rng.choice(fo)))
        if pick == "eq":
            return Eq(Var(rng.choice(fo)), Var(rng.choice(fo)))
        if pick == "lt":
            return Lt(Var(rng.choice(fo)), Var(rng.choice(fo)))
        return InRel(rng.choice(so_vars), (Var(rng.choice(fo)),))

    def go(d, fo):
        if d == 0:
            return atom(fo)
        pick = rng.randrange(6)
        if pick == 0:
            return atom(fo)
        if pick == 1:
            return Not(go(d - 1, fo))
        if pick == 2:
            return And(go(d - 1, fo), go(d - 1, fo))
        if pick == 3:
            return Or(go(d - 1, fo), go(d - 1, fo))
        v = f"q{d}_{rng.randrange(100)}"
        cls = ExistsFO if pick == 4 else ForallFO
        return cls(v, go(d - 1, fo + (v,)))

    return go(depth, tuple(fo_vars))


def random_lindfo(rng: random.Random, lang: str, arg_count: int, alphabet,
                  k: int = 1, depth: int = 2) -> LindFO:
    vars_ = tuple(f"x{i}" for i in range(k))
    args = tuple(random_fo_formula(rng, vars_, (), alphabet, depth)
                 for _ in range(arg_count))
    return LindFO(lang, vars_, args)


def random_lindso(rng: random.Random, lang: str, arg_count: int, ordering,
                  alphabet, k: int = 1, depth: int = 2) -> LindSO:
    vars_ = tuple(f"X{i}" for i in range(k))
    args = tuple(random_fo_formula(rng, (), vars_, alphabet, depth)
                 for _ in range(arg_count))
    return LindSO(lang, ordering, 1, vars_, args)
