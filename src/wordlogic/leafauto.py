"""Finite leaf automata: computation trees, leaf strings, membership.

A leaf automaton reads a word; each transition fans a state out to an
ordered nonempty sequence of successors, so the computation is a tree.
The leaf string lists the value map over the leaves left to right, and
membership holds when that string lies in the chosen leaf language.

A regular or monoid leaf language only needs the leaf string's value in
a monoid, and the leaf string under a state is the concatenation of the
leaf strings under its successors. So membership for those languages
folds per-state values from the end of the word, in time linear in the
word, however many leaves the tree has. Grammar and non-associative
leaf languages test the materialized leaf string, spelled a level of the
tree at a time under a cap on its length.
"""

from __future__ import annotations

from . import algebra
from ._record import record
from .algebra import Dfa, LanguageSpec, WordProblem, language_member
from .errors import CapExceeded, InvariantViolation

DEFAULT_LEAF_CAP = 1 << 16  # the longest leaf string spelled out


@record(frozen=True)
class LeafAutomaton:
    """states, input alphabet, delta as tuple-of-tuples of successor tuples
    (delta[state][letter] is a nonempty tuple of state indices), start state,
    leaf alphabet, and beta mapping each state to a leaf letter."""

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    delta: tuple
    start: int
    leaf_alphabet: tuple[str, ...]
    beta: tuple[str, ...]

    def __post_init__(self):
        nq, na = len(self.states), len(self.input_alphabet)
        if len(self.delta) != nq:
            raise InvariantViolation("delta must have one row per state")
        for row in self.delta:
            if len(row) != na:
                raise InvariantViolation("delta row width must match the alphabet")
            for succ in row:
                if not succ:
                    raise InvariantViolation("successor sequences must be nonempty")
                for q in succ:
                    if not 0 <= q < nq:
                        raise InvariantViolation(f"successor state {q} out of range")
        if not 0 <= self.start < nq:
            raise InvariantViolation("start state out of range")
        if len(self.beta) != nq:
            raise InvariantViolation("beta must be total on states")
        for x in self.beta:
            if x not in self.leaf_alphabet:
                raise InvariantViolation(f"beta value {x!r} outside the leaf alphabet")

    def letter_index(self, a: str) -> int:
        try:
            return self.input_alphabet.index(a)
        except ValueError:
            raise InvariantViolation(
                f"letter {a!r} outside the input alphabet") from None


def _fold(M: LeafAutomaton, w: str, leaf_value, product):
    """Value of the leaf string under the start state.

    vals[s] is the value of the leaf string of the subtree that state s
    grows on the suffix read so far; a state's value is the product of
    its successors' values in order.
    """
    vals = [leaf_value[x] for x in M.beta]
    states = range(len(M.states))
    for a in reversed(w):
        ai = M.letter_index(a)
        vals = [product([vals[q] for q in M.delta[s][ai]]) for s in states]
    return vals[M.start]


def leaf_count(M: LeafAutomaton, w: str) -> int:
    """Leaves of the computation tree: the fold with every leaf worth 1;
    exact big integers."""
    return _fold(M, w, dict.fromkeys(M.leaf_alphabet, 1), sum)


def _check_cap(M: LeafAutomaton, w: str, cap: int) -> None:
    total = leaf_count(M, w)
    if total > cap:
        raise CapExceeded(
            f"leaf string for {w!r} has length {total}, cap is {cap}",
            required=total)


def leaf_string(M: LeafAutomaton, w: str, cap: int = DEFAULT_LEAF_CAP) -> str:
    """The concatenated beta values over the computation tree's leaves,
    spelled a level of the tree at a time: each letter replaces every
    state of the level by its successors in order. Successor tuples are
    nonempty, so no level is longer than the last, which the cap bounds."""
    _check_cap(M, w, cap)
    level = [M.start]
    for a in w:
        ai = M.letter_index(a)
        level = [q for s in level for q in M.delta[s][ai]]
    return "".join([M.beta[s] for s in level])


def _check_leaf_alphabet(M: LeafAutomaton, leaf_spec: LanguageSpec) -> None:
    for x in set(M.beta):
        if x not in leaf_spec.alphabet:
            raise InvariantViolation(
                f"beta value {x!r} outside the leaf language alphabet")


def _compose(maps):
    """State map of reading the maps' words in order: (u;v)[x] = v[u[x]]."""
    m = maps[0]
    for v in maps[1:]:
        m = tuple([v[x] for x in m])
    return m


def leaffa_member(M: LeafAutomaton, leaf_spec: LanguageSpec, w: str,
                  cap: int = DEFAULT_LEAF_CAP) -> bool:
    """w is accepted when the leaf string lies in leaf_spec.

    DFA leaf languages fold each leaf letter's state map, and associative
    word problems fold monoid elements, without building the leaf string;
    the cap bounds nothing for DFAs, and word problems still refuse a leaf
    string longer than the cap with CapExceeded. Grammar and
    non-associative leaf languages materialize the leaf string under the
    cap.
    """
    _check_leaf_alphabet(M, leaf_spec)
    body = leaf_spec.body
    if isinstance(body, Dfa):
        return _fold(M, w, body.letter_maps, _compose)[body.start] in body.finals
    if isinstance(body, WordProblem) and body.associative:
        _check_cap(M, w, cap)
        value = _fold(M, w, leaf_spec.letter_map,
                      lambda vals: algebra.monoid_word_eval(body, vals))
        return value in body.accept
    return language_member(leaf_spec, leaf_string(M, w, cap))


def leaffa_member_reference(M: LeafAutomaton, leaf_spec: LanguageSpec, w: str,
                            cap: int = DEFAULT_LEAF_CAP) -> bool:
    """Membership by materializing the leaf string under the cap for every
    leaf language; the oracle tests hold leaffa_member against."""
    _check_leaf_alphabet(M, leaf_spec)
    return language_member(leaf_spec, leaf_string(M, w, cap))
