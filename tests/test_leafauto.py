import random

import pytest
from hypothesis import given, strategies as st

from wordlogic.algebra import Dfa, LanguageSpec, Magma, WordProblem
from wordlogic.builtins import Z2, builtin_registry, mod_counting_language
from wordlogic.errors import CapExceeded, InvariantViolation, WordlogicError
from wordlogic.leafauto import (
    LeafAutomaton,
    leaf_count,
    leaf_string,
    leaffa_member,
    leaffa_member_reference,
)


def spawn():
    # p fans out to (p, q) on a; q stays q; beta labels p->0, q->1
    return LeafAutomaton(
        ("p", "q"), ("a",),
        (((0, 1),), ((1,),)),
        0, ("0", "1"), ("0", "1"))


def doubler():
    return LeafAutomaton(
        ("s",), ("a",),
        (((0, 0),),),
        0, ("1",), ("1",))


def test_validation():
    with pytest.raises(InvariantViolation):
        LeafAutomaton(("p",), ("a",), (), 0, ("0",), ("0",))
    with pytest.raises(InvariantViolation):
        LeafAutomaton(("p",), ("a",), ((( ),),), 0, ("0",), ("0",))
    with pytest.raises(InvariantViolation):
        LeafAutomaton(("p",), ("a",), (((1,),),), 0, ("0",), ("0",))
    with pytest.raises(InvariantViolation):
        LeafAutomaton(("p",), ("a",), (((0,),),), 2, ("0",), ("0",))
    with pytest.raises(InvariantViolation):
        LeafAutomaton(("p",), ("a",), (((0,),),), 0, ("0",), ("x",))


_MAJ = builtin_registry()["Maj"]

# (id, call, error class, message)
_REFUSALS = [
    ("delta-width", lambda: LeafAutomaton(
        ("p",), ("a",), (((0,), (0,)),), 0, ("0",), ("0",)),
     InvariantViolation, "delta row width must match the alphabet"),
    ("beta-length", lambda: LeafAutomaton(
        ("p",), ("a",), (((0,),),), 0, ("0",), ("0", "0")),
     InvariantViolation, "beta must be total on states"),
    ("count-letter", lambda: leaf_count(spawn(), "ab"),
     InvariantViolation, "letter 'b' outside the input alphabet"),
    ("string-letter", lambda: leaf_string(spawn(), "ab"),
     InvariantViolation, "letter 'b' outside the input alphabet"),
    ("member-letter", lambda: leaffa_member(spawn(), _MAJ, "ab"),
     InvariantViolation, "letter 'b' outside the input alphabet"),
]


@pytest.mark.parametrize("call,error,message", [r[1:] for r in _REFUSALS],
                         ids=[r[0] for r in _REFUSALS])
def test_refusals_are_typed(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_empty_word_single_leaf():
    M = spawn()
    assert leaf_count(M, "") == 1
    assert leaf_string(M, "") == "0"


def test_deterministic_is_single_leaf():
    M = LeafAutomaton(("u", "v"), ("a", "b"),
                      (((1,), (0,)), ((1,), (1,))),
                      0, ("0", "1"), ("0", "1"))
    for w in ["", "a", "ab", "ba", "abba"]:
        assert leaf_count(M, w) == 1
        assert len(leaf_string(M, w)) == 1


def test_doubling_counts():
    M = doubler()
    for n in range(0, 12):
        assert leaf_count(M, "a" * n) == 2 ** n
    assert leaf_string(M, "aaa") == "1" * 8


def test_spawn_leaf_strings():
    M = spawn()
    assert leaf_string(M, "a") == "01"
    assert leaf_string(M, "aa") == "011"
    assert leaf_string(M, "aaa") == "0111"
    assert leaf_count(M, "aaa") == 4


def brute_leaves(M, w, depth=0, state=None):
    if state is None:
        state = M.start
    if depth == len(w):
        return M.beta[state]
    ai = M.letter_index(w[depth])
    return "".join(brute_leaves(M, w, depth + 1, s)
                   for s in M.delta[state][ai])


def test_leaf_string_matches_recursive_oracle():
    rng = random.Random(17)
    for _ in range(60):
        nq = rng.randint(1, 4)
        na = rng.randint(1, 2)
        delta = tuple(
            tuple(tuple(rng.randrange(nq)
                        for _ in range(rng.randint(1, 3)))
                  for _ in range(na))
            for _ in range(nq))
        M = LeafAutomaton(tuple(f"q{i}" for i in range(nq)),
                          tuple("ab"[:na]),
                          delta, rng.randrange(nq),
                          ("0", "1"),
                          tuple(rng.choice("01") for _ in range(nq)))
        for _ in range(4):
            w = "".join(rng.choice("ab"[:na])
                        for _ in range(rng.randint(0, 8)))
            assert leaf_string(M, w) == brute_leaves(M, w)


def test_cap_reports_required_length():
    M = doubler()
    with pytest.raises(CapExceeded) as ei:
        leaf_string(M, "a" * 20, cap=1 << 16)
    assert ei.value.required == 1 << 20


def test_membership_streams_regular_specs():
    reg = builtin_registry()
    M = doubler()
    # leaf string 1^(2^n) always has a one; streamed, so a string four
    # times over the materialization cap still works
    assert leaffa_member(M, reg["Lexists"], "a" * 18)
    # even count of ones for n >= 1
    assert not leaffa_member(M, LanguageSpec(
        "odd", ("1", "0"), WordProblem.of(Z2, {1}),
        letter_map={"1": 1, "0": 0}), "a" * 3)


def test_membership_word_problem_uses_cap():
    reg = builtin_registry()
    M = doubler()
    spec = reg["Lmod2"]  # algebraic backend: leaf string is materialized
    assert leaffa_member(M, spec, "aaa")
    with pytest.raises(CapExceeded):
        leaffa_member(M, spec, "a" * 20, cap=1 << 10)


def test_membership_checks_leaf_alphabet():
    reg = builtin_registry()
    M = LeafAutomaton(("p",), ("a",), (((0,),),), 0, ("x",), ("x",))
    with pytest.raises(InvariantViolation):
        leaffa_member(M, reg["Lexists"], "a")


def test_spawn_with_parity_language():
    reg = builtin_registry()
    M = spawn()
    # leaf string 0 1^n: accepted iff n even
    for n in range(0, 8):
        assert leaffa_member(M, reg["Lmod2"], "a" * n) == (n % 2 == 0)


def last_leaf_one():
    # accepts leaf strings ending in 1
    dfa = Dfa(("seen1", "other"), ("1", "0"), ((0, 1), (0, 1)), 0,
              frozenset({0}))
    return LanguageSpec("LlastOne", ("1", "0"), dfa)


def first_leaf_one():
    # accepts leaf strings starting with 1; state 0 is an accepting sink,
    # so a run started there accepts everything
    dfa = Dfa(("yes", "start", "no"), ("1", "0"), ((0, 0), (0, 2), (2, 2)),
              1, frozenset({0}))
    return LanguageSpec("LfirstOne", ("1", "0"), dfa)


def right_zero():
    # x*y = y unless y is the identity e: the value of a word is its last
    # letter other than e, so the language "ends in x, ignoring e" is
    # associative but not commutative
    m = Magma(("e", "x", "y"), ((0, 1, 2), (1, 1, 2), (2, 1, 2)), 0,
              name="RZ")
    return LanguageSpec("LlastX", ("e", "x", "y"), WordProblem.of(m, {1}))


def g4_spec():
    m = Magma(("e", "a", "b", "c"),
              ((0, 1, 2, 3), (1, 2, 3, 1), (2, 0, 1, 2), (3, 3, 2, 0)), 0,
              name="G4")
    return LanguageSpec("LG4", ("e", "a", "b", "c"), WordProblem.of(m, {0, 2}))


def leaf_languages():
    reg = builtin_registry()
    specs = [reg["Lexists"], reg["Lforall"], reg["Lmod2"],
             mod_counting_language(3), reg["Maj"], g4_spec(),
             last_leaf_one(), first_leaf_one(), right_zero()]
    return {s.name: s for s in specs}


LEAF_LANGUAGES = leaf_languages()


def outcome(fn, *args):
    try:
        return fn(*args)
    except WordlogicError as e:
        return type(e)


@given(st.data(), st.sampled_from(sorted(LEAF_LANGUAGES)),
       st.sampled_from((32, 1 << 16)))
def test_leaffa_member_matches_reference(data, name, cap):
    spec = LEAF_LANGUAGES[name]
    if isinstance(spec.body, Dfa):
        # the fold ignores the cap for DFAs; the reference's default cap
        # holds every leaf string drawn here (at most 3^9 leaves)
        cap = 1 << 16
    elif not (isinstance(spec.body, WordProblem) and spec.body.associative):
        # both sides materialize; keep the interval DPs small
        cap = 256
    nq = data.draw(st.integers(1, 4))
    na = data.draw(st.integers(1, 2))
    state = st.integers(0, nq - 1)
    delta = tuple(
        tuple(tuple(data.draw(st.lists(state, min_size=1, max_size=3)))
              for _ in range(na))
        for _ in range(nq))
    beta = tuple(data.draw(st.sampled_from(spec.alphabet)) for _ in range(nq))
    M = LeafAutomaton(tuple(f"q{i}" for i in range(nq)), tuple("ab"[:na]),
                      delta, data.draw(state), spec.alphabet, beta)
    for w in data.draw(st.lists(st.text("ab"[:na], max_size=9),
                                min_size=1, max_size=3)):
        assert outcome(leaffa_member, M, spec, w, cap) == \
            outcome(leaffa_member_reference, M, spec, w, cap)


def test_long_word_anchors():
    # closed forms: the doubler on a^n has 2^n leaves, all 1; spawn on a^n
    # has the leaf string 0 1^n
    reg = builtin_registry()
    word = "a" * 1000
    assert leaffa_member(doubler(), reg["Lexists"], word)
    assert leaffa_member(doubler(), reg["Lforall"], word)
    # 2^1000 = 1 mod 3
    assert not leaffa_member(doubler(), mod_counting_language(3), word)
    assert leaffa_member(spawn(), reg["Lexists"], "a" * 500)
    assert leaffa_member(spawn(), last_leaf_one(), "a" * 500)
    assert not leaffa_member(spawn(), reg["Lexists"], "")
    assert not leaffa_member(spawn(), last_leaf_one(), "")
    assert not leaffa_member(spawn(), first_leaf_one(), "a" * 500)
    # word problems fold too, but keep refusing more leaves than the cap
    with pytest.raises(CapExceeded) as ei:
        leaffa_member(doubler(), reg["Lmod2"], "a" * 17)
    assert ei.value.required == 1 << 17
