import ast
import collections
import itertools
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from wordlogic import logic, sexpr
from wordlogic._record import fields, is_record
from wordlogic.algebra import Dfa, LanguageSpec, language_member
from wordlogic.errors import (
    ArityMismatch,
    EmptyDomain,
    InstanceCapExceeded,
    InvariantViolation,
    NestingCapExceeded,
    NonConstantSignature,
    RankOutOfRange,
    SortMismatch,
    UnboundVariable,
    UnknownFragment,
    UnknownLanguage,
    UnknownLetter,
    WordlogicError,
)
from wordlogic.formats import load_toolbox
from wordlogic.generate import random_fo_formula, random_lindfo, random_lindso
from wordlogic.logic import (
    CONCATENATED,
    INTERLEAVED,
    MAX,
    MIN,
    And,
    BitAtom,
    ConstStructure,
    ConstSym,
    Eq,
    ExistsFO,
    ExistsSO,
    FalseF,
    ForallFO,
    HighBit,
    InRel,
    Letter,
    LindFO,
    LindSO,
    Lt,
    LtLog,
    LtPowLog,
    Not,
    Or,
    PlusAtom,
    SetTimes,
    ShuffleBit,
    SizeBit,
    StringStructure,
    TimesAtom,
    TrueF,
    Var,
    define_language,
    eliminate_min_max,
    evaluate,
    evaluate_reference,
    fragment_check,
    free_variables,
    iff,
    implies,
    induced_word,
    instance_rank,
    instance_unrank,
    resolve_language,
    string_structures,
    structure_from_string,
    subsets,
)
from wordlogic.sexpr import format_formula, parse_formula
from wordlogic.translate import pad_translate, q_star_to_q1

AB = ("a", "b")


def S(w):
    return structure_from_string(AB, w)


def test_structure_validation():
    with pytest.raises(UnknownLetter):
        structure_from_string(AB, "abc")


def test_basic_fo_eval():
    st = S("ab")
    assert evaluate(st, Letter("a", MIN))
    assert evaluate(st, Letter("b", MAX))
    assert evaluate(st, ExistsFO("x", Letter("b", Var("x"))))
    assert not evaluate(st, ForallFO("x", Letter("a", Var("x"))))
    assert evaluate(st, Lt(MIN, MAX))
    assert not evaluate(st, Eq(MIN, MAX))


def _nest(wrap, depth):
    f = TrueF()
    for i in range(depth):
        f = wrap(i, f)
    return f


_TOO_DEEP = f"formula nests deeper than {logic.MAX_NESTING} levels"

# (id, call, error class, message); the nests are 400 levels deep, over
# MAX_NESTING, and the compiled plan refuses them before any reference walk
_REFUSALS = [
    ("duplicate-letters", lambda: StringStructure(("a", "a"), ()),
     InvariantViolation, "alphabet letters must be distinct"),
    ("constant-outside", lambda: ConstStructure.of(2, {"c": 2}),
     InvariantViolation, "constant c = 2 outside domain"),
    ("max-on-empty", lambda: evaluate(S(""), Lt(MAX, MIN)),
     EmptyDomain, "max over the empty structure"),
    # an atom checks its operands in field order
    ("shuffle-point-first", lambda: evaluate_reference(
        S("ab"), ShuffleBit("to_interleaved", 0, 1, Var("x"), ("A",))),
     UnboundVariable, "unbound variable 'x'"),
    ("shuffle-point-first-compiled", lambda: evaluate(
        S("ab"), ShuffleBit("to_interleaved", 0, 1, Var("x"), ("A",))),
     UnboundVariable, "unbound variable 'x'"),
    ("in-relation-first", lambda: evaluate_reference(
        S("ab"), InRel("A", (Var("x"),))),
     UnboundVariable, "unbound relation variable 'A'"),
    ("in-relation-first-compiled", lambda: evaluate(
        S("ab"), InRel("A", (Var("x"),))),
     UnboundVariable, "unbound relation variable 'A'"),
    ("induced-word-non-node", lambda: induced_word(S("a"), {}, TrueF()),
     InvariantViolation, "induced_word needs a generalized quantifier node"),
    ("plan-deep-not", lambda: evaluate(S("a"), _nest(
        lambda i, f: Not(f), 400)), NestingCapExceeded, _TOO_DEEP),
    ("plan-deep-exists", lambda: evaluate(S("a"), _nest(
        lambda i, f: ExistsFO(f"x{i}", f), 400)), NestingCapExceeded,
     _TOO_DEEP),
]


@pytest.mark.parametrize("call,error,message", [r[1:] for r in _REFUSALS],
                         ids=[r[0] for r in _REFUSALS])
def test_refusals_are_typed(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        evaluate(S("a"), Letter("a", Var("x")))


def test_empty_domain():
    empty = StringStructure(AB, ())
    with pytest.raises(EmptyDomain):
        evaluate(empty, ExistsFO("x", Letter("a", Var("x"))))
    with pytest.raises(EmptyDomain):
        evaluate(empty, Eq(MIN, MIN))


def test_existsso():
    st = S("aba")
    # some set equals the a-positions
    f = ExistsSO("X", ForallFO("x", iff(InRel("X", (Var("x"),)),
                                        Letter("a", Var("x")))))
    assert evaluate(st, f)


def test_instance_rank_worked_example():
    sets = (frozenset({(1,)}), frozenset())
    assert instance_rank(sets, 2, INTERLEAVED) == 2
    assert instance_rank(sets, 2, CONCATENATED) == 4
    assert instance_unrank(2, 2, 2, INTERLEAVED) == sets
    assert instance_unrank(4, 2, 2, CONCATENATED) == sets
    # a member outside the layout adds nothing
    assert instance_rank([frozenset({(0,), (9,)})], 3, CONCATENATED) == 4
    assert instance_rank([[[0], (1,)]], 3, CONCATENATED) == 2


def test_unknown_ordering_is_refused():
    for k in (1, 2):
        with pytest.raises(InvariantViolation, match="unknown ordering"):
            instance_unrank(0, 2, k, "diagonal")
        with pytest.raises(InvariantViolation, match="unknown ordering"):
            instance_rank((frozenset(),) * k, 2, "diagonal")


def test_instance_rank_bijection_small():
    for n, k, m in [(2, 2, 1), (3, 1, 1), (2, 1, 2), (2, 3, 1)]:
        bits = (n ** m) * k
        for ordering in (INTERLEAVED, CONCATENATED):
            seen = set()
            for r in range(1 << bits):
                sets = instance_unrank(r, n, k, ordering, m)
                assert instance_rank(sets, n, ordering, m) == r
                seen.add(sets)
            assert len(seen) == 1 << bits


def test_instance_rank_out_of_range():
    with pytest.raises(RankOutOfRange):
        instance_unrank(16, 2, 2, INTERLEAVED)
    with pytest.raises(RankOutOfRange):
        instance_unrank(-1, 2, 2, CONCATENATED)
    for bad in (1.0, "1", None):
        with pytest.raises(RankOutOfRange, match="is not an integer"):
            instance_unrank(bad, 2, 1, CONCATENATED)
    assert instance_unrank(True, 2, 1, CONCATENATED) == ({(1,)},)


def test_code_layout_memory_is_linear_in_the_bits():
    # the layout keeps each m-tuple's bit index, not its weight 1 << bit,
    # so a wide code does not hold memory quadratic in its bits
    tracemalloc.start()
    try:
        sets = instance_unrank(1, 20000, 1, CONCATENATED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sets == (frozenset({(19999,)}),)
    assert peak < 10_000_000
    assert instance_rank(sets, 20000, CONCATENATED) == 1


@given(n=st.integers(0, 3), m=st.integers(1, 2), k=st.integers(1, 3),
       ordering=st.sampled_from((INTERLEAVED, CONCATENATED)), data=st.data())
def test_instance_unrank_inverts_instance_rank(n, m, k, ordering, data):
    """Round trip, and every bit read as the orderings define it: bit j of
    variable i sits at j*k + i (interleaved) or i*n^m + j (concatenated),
    most significant first."""
    tuples = list(itertools.product(range(n), repeat=m))
    bits = len(tuples) * k
    r = data.draw(st.integers(0, (1 << bits) - 1))
    sets = instance_unrank(r, n, k, ordering, m)
    assert instance_rank(sets, n, ordering, m) == r
    assert len(sets) == k
    for i, s in enumerate(sets):
        assert type(s) is frozenset and s <= set(tuples)
        for j, t in enumerate(tuples):
            at = j * k + i if ordering == INTERLEAVED else i * len(tuples) + j
            assert (t in s) == bool(r >> (bits - 1 - at) & 1)
    for bad in (-1, 1 << bits):
        with pytest.raises(RankOutOfRange,
                           match=re.escape(f"rank {bad} outside [0, 2^{bits})")):
            instance_unrank(bad, n, k, ordering, m)


def test_subsets_follow_the_mask_definition():
    # the relations in instance order: position j at bit n-1-j of the rank
    assert list(subsets(2)) == [frozenset(), frozenset({(1,)}),
                                frozenset({(0,)}), frozenset({(0,), (1,)})]
    for n in range(11):
        assert list(subsets(n)) == [
            instance_unrank(r, n, 1, CONCATENATED)[0] for r in range(2**n)]


def _unrank_and_word_calls(monkeypatch, registry, text, word,
                           evaluators=(evaluate, evaluate_reference)):
    """For each evaluator in turn on word, how many calls it makes of the
    module globals instance_unrank and _induced."""
    calls = {"instance_unrank": 0, "_induced": 0}
    for name in calls:
        def counting(*args, name=name, real=getattr(logic, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(logic, name, counting)
    f = parse_formula(text)
    counts = []
    for ev in evaluators:
        calls.update(dict.fromkeys(calls, 0))
        ev(S(word), f, registry=registry)
        counts.append((calls["instance_unrank"], calls["_induced"]))
    return counts


_UNRANK_ROWS = [
    # Lmod2 has no decided state: evaluate spells the whole word from the
    # argument's masks over every instance at once, and unranks none
    ("(Qstar Lmod2 1 (X) (exists x (in X x)))", 4, 4, 0),
    # the words 01... and 001..., decided by their first 1
    ("(Qstar Lexists 2 (X) (exists x (in X x x)))", 2, 4, 2),
    ("(Q1 Lexists 1 (X Y) (exists x (and (in X x) (not (in Y x)))))", 3, 6,
     3),
    # the word 0^16 never enters Lexists' decided state
    ("(Qstar Lexists 1 (X) (exists x (and (in X x) (letter b x))))", 4, 4,
     16),
]


@pytest.mark.parametrize("text,n,bits,prefix", [
    pytest.param(*row, id=f"{row[0]}-{row[1]}-{row[2]}")
    for row in _UNRANK_ROWS])
def test_each_instance_is_one_unrank_call(monkeypatch, registry, text, n,
                                          bits, prefix):
    """A node's instances come from one call each of the module global
    instance_unrank, which the benchmark's tracer wraps to count them, and
    both evaluators build the same number of words, each in _induced.
    evaluate stops at the prefix that decides the word, the reference walk
    at none; a word evaluate spells from masks takes no call."""
    (fast, fast_words), (slow, slow_words) = _unrank_and_word_calls(
        monkeypatch, registry, text, "a" * n)
    assert (fast, slow) == (prefix, 1 << bits)
    assert fast_words == slow_words


def test_a_node_the_formula_never_reaches_builds_no_word(monkeypatch,
                                                         registry):
    # the or decides before the node is reached, so no word is built
    text = "(or (true) (Qstar Lexists 1 (X) (exists x (in X x))))"
    assert _unrank_and_word_calls(monkeypatch, registry, text, "aaaa") == [
        (0, 0), (0, 0)]


def test_set_codes():
    s = frozenset({(0,), (2,)})
    assert instance_rank((s,), 3, CONCATENATED) == 0b101


def _only(word, alphabet=("1", "0")):
    """The language over alphabet whose one member is word, as a DFA."""
    dead = len(word) + 1
    trans = [tuple(i + 1 if a == b else dead for b in alphabet)
             for i, a in enumerate(word)] + [(dead,) * len(alphabet)] * 2
    dfa = Dfa(tuple(map(str, range(dead + 1))), alphabet, tuple(trans), 0,
              frozenset({len(word)}))
    return {"Only": LanguageSpec("Only", alphabet, dfa)}


def _assert_word(st, node, assignment, expected, alphabet=("1", "0")):
    """induced_word is expected, and so evaluate and evaluate_reference
    decide the node by it."""
    registry = _only(expected, alphabet)
    assert induced_word(st, assignment, node, registry=registry) == expected
    assert evaluate(st, node, assignment, registry=registry)
    assert evaluate_reference(st, node, assignment, registry=registry)


# The instance order of quantifier nodes, built here by ranking or nested
# loops rather than by the ranges the evaluators share. One probe per
# variable and tuple (or position) reads one bit of every instance; together
# the probes pin each instance to its place in the word.
@pytest.mark.parametrize("ordering", [INTERLEAVED, CONCATENATED])
def test_lindso_word_follows_the_instance_rank(ordering):
    for n, m, k in itertools.product((1, 2, 3), (1, 2), (1, 2)):
        npos = n ** m
        if npos * k > 12:  # n = 3, m = 2, k = 2: 2^18 instances
            continue
        names = ("X", "Y")[:k]
        tuples = list(itertools.product(range(n), repeat=m))
        relations = [frozenset(c) for size in range(npos + 1)
                     for c in itertools.combinations(tuples, size)]
        probe = [f"p{j}" for j in range(m)]
        for i, t in itertools.product(range(k), tuples):
            word = [None] * (1 << (npos * k))
            for sets in itertools.product(relations, repeat=k):
                word[instance_rank(sets, n, ordering, m)] = \
                    "1" if t in sets[i] else "0"
            node = LindSO("Only", ordering, m, names,
                          (InRel(names[i], tuple(map(Var, probe))),))
            _assert_word(S("a" * n), node, dict(zip(probe, t)),
                         "".join(word))


def test_lindfo_word_follows_position_order():
    for n, k in itertools.product((1, 2, 3), (1, 2)):
        if k == 1:
            order = [(x,) for x in range(n)]
        else:
            order = [(x, y) for x in range(n) for y in range(n)]
        names = ("x", "y")[:k]
        for i, v in itertools.product(range(k), range(n)):
            word = "".join("1" if tup[i] == v else "0" for tup in order)
            node = LindFO("Only", names, (Eq(Var(names[i]), Var("p")),))
            _assert_word(S("a" * n), node, {"p": v}, word)


# The letter rule over three letters and two arguments, with the words
# written out: p where the first argument holds, q where only the second
# does, r where neither does. On "ab", the LindSO rank bits are, most
# significant first, X0 Y0 X1 Y1 (interleaved) or X0 X1 Y0 Y1
# (concatenated), where X0 says X holds position 0.
@pytest.mark.parametrize("node,word", [
    (LindFO("Only", ("x", "y"), (Lt(Var("x"), Var("y")),
                                 Letter("b", Var("y")))), "rprq"),
    (LindSO("Only", INTERLEAVED, 1, ("X", "Y"),
            (InRel("X", (MIN,)), InRel("Y", (MIN,)))), "rrrrqqqqpppppppp"),
    (LindSO("Only", CONCATENATED, 1, ("X", "Y"),
            (InRel("X", (MIN,)), InRel("Y", (MIN,)))), "rrqqrrqqpppppppp"),
], ids=["lindfo", "lindso-interleaved", "lindso-concatenated"])
def test_word_has_the_letter_of_the_first_argument_that_holds(node, word):
    _assert_word(S("ab"), node, {}, word, ("p", "q", "r"))


@pytest.mark.parametrize("run,want", [
    (evaluate, 3), (evaluate_reference, 3),
    (lambda st, f, registry: induced_word(
        st, {"y": 0}, f.body, registry=registry) == "111", 1),
], ids=["evaluate", "evaluate_reference", "induced_word"])
def test_every_word_is_built_by_induced(registry, monkeypatch, run, want):
    # one _induced call per evaluation of a quantifier node, in each
    # evaluator: here the node under forall y, at each of 3 positions
    calls = []
    real = logic._induced

    def recording(c, s, node, args, slots, stop=False):
        calls.append(node)
        return real(c, s, node, args, slots, stop)
    monkeypatch.setattr(logic, "_induced", recording)
    node = LindFO("Lexists", ("x",), (Not(Lt(Var("x"), Var("y"))),))
    f = ForallFO("y", node)
    assert run(S("aba"), f, registry=registry)
    assert calls == [node] * want


# evaluate stops a node's word at the first letter that enters a decided
# state of its language's fold; the reference walk and induced_word do not
_STOP_LANGS = ("Lexists", "Lforall", "Lcycle", "Lzero", "Lall", "Lmod2",
               "ends_a")


@pytest.fixture(scope="module")
def stop_registry(registry, stopping, data_dir):
    return {**registry, **stopping,
            "ends_a": load_toolbox([data_dir]).languages["ends_a"]}


def _stop_node(rng, reg, n, fo=(), so=(), nest=False, budget=1 << 12):
    """A random LindFO or LindSO node, k = 1-2, of at most budget
    instances over n elements, whose arguments also read the outer
    variables fo and so; with nest, it has at most 64 instances, and one
    argument holds a node of its own that reads this node's variables."""
    lang = rng.choice(_STOP_LANGS)
    level = "yx"[nest]
    shapes = [(kind, k) for kind in (LindFO, LindSO) for k in (1, 2)
              if (n ** k if kind is LindFO else 1 << n * k)
              <= (64 if nest else budget)]
    kind, k = rng.choice(shapes)
    if kind is LindFO:
        names = tuple(f"{level}{i}" for i in range(k))
        fo, count = fo + names, n ** k
    else:
        names = tuple(f"{level.upper()}{i}" for i in range(k))
        so, count = so + names, 1 << n * k
    args = [random_fo_formula(rng, fo, so, AB, depth=2)
            for _ in range(reg[lang].size - 1)]
    if nest:
        i = rng.randrange(len(args))
        junction = rng.choice((And, Or))
        args[i] = junction(args[i], _stop_node(rng, reg, n, fo, so,
                                               budget=budget // count))
    if kind is LindFO:
        return kind(lang, names, tuple(args))
    return kind(lang, rng.choice((INTERLEAVED, CONCATENATED)), 1, names,
                tuple(args))


def _first_decided(spec, word):
    """The least i such that word[:i] leads to a decided state of spec's
    fold, or None if no prefix does."""
    fold = spec.prefix_fold
    if fold is not None:
        maps, state, decided = fold
        for i, letter in enumerate(word):
            if state in decided:
                return i
            state = maps[letter][state]
        if state in decided:
            return len(word)
    return None


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       nest=st.booleans())
def test_evaluate_stops_each_word_at_its_decided_prefix(stop_registry, seed,
                                                        n, nest):
    rng = random.Random(seed)
    reg = stop_registry
    f = _stop_node(rng, reg, n, nest=nest)
    struct = S("".join(rng.choice(AB) for _ in range(n)))
    whole = {n ** k for k in (1, 2)} | {1 << n * k for k in (1, 2)}
    seen = []
    real = logic.language_member

    def member(spec, word):
        # each word evaluate builds, the nested nodes' too, ends at its
        # first decided state, or never enters one and is whole
        i = _first_decided(spec, word)
        assert i == len(word) or i is None and len(word) in whole
        seen.append((spec, word))
        return real(spec, word)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic, "language_member", member)
        verdict = evaluate(struct, f, registry=reg)
    full = induced_word(struct, {}, f, registry=reg)
    spec = reg[f.lang]
    # the node's own word, the last one built, is the whole word up to its
    # first decided state, and has the whole word's verdict
    assert seen[-1] == (spec, full[:_first_decided(spec, full)])
    assert verdict == evaluate_reference(struct, f, registry=reg) == \
        language_member(spec, full)


def test_lindfo_exists(registry):
    f = LindFO("Lexists", ("x",), (Letter("a", Var("x")),))
    assert evaluate(S("bab"), f, registry=registry)
    assert not evaluate(S("bbb"), f, registry=registry)
    assert induced_word(S("bab"), {}, f, registry=registry) == "010"


def test_lindfo_forall_parity(registry):
    fa = LindFO("Lforall", ("x",), (Letter("a", Var("x")),))
    assert evaluate(S("aaa"), fa, registry=registry)
    assert not evaluate(S("aab"), fa, registry=registry)
    pe = LindFO("Lmod2", ("x",), (Letter("a", Var("x")),))
    assert evaluate(S("abab"), pe, registry=registry)   # two a's, even
    assert not evaluate(S("abb"), pe, registry=registry)  # one a, odd


def test_lindfo_pair_variables(registry):
    # exists a pair x<y: word over pairs in lex tuple order
    f = LindFO("Lexists", ("x", "y"), (Lt(Var("x"), Var("y")),))
    assert evaluate(S("aa"), f, registry=registry)
    assert not evaluate(S("a"), f, registry=registry)
    assert induced_word(S("aa"), {}, f, registry=registry) == "0100"


def test_lindfo_arity_mismatch(registry):
    f = LindFO("Lexists", ("x",), (Letter("a", Var("x")), Letter("b", Var("x"))))
    with pytest.raises(ArityMismatch):
        evaluate(S("ab"), f, registry=registry)


def test_lindso_first_match_letter_rule(registry):
    # both args true -> first alphabet letter emitted
    f = LindSO("MajPad", CONCATENATED, 1, ("X",), (TrueishArg(), TrueishArg()))
    word = induced_word(S("a"), {}, f, registry=registry)
    assert word == "11"  # two instances, first arg wins both


def TrueishArg():
    from wordlogic.logic import TrueF
    return TrueF()


def test_lindso_qstar_maj(registry):
    f = LindSO("Maj", CONCATENATED, 1, ("X",),
               (ExistsFO("x", InRel("X", (Var("x"),))),))
    assert evaluate(S("aaa"), f, registry=registry)
    assert induced_word(S("aaa"), {}, f, registry=registry) == "01111111"


def test_lindso_q1_forall(registry):
    arg = implies(ExistsFO("x", InRel("X", (Var("x"),))),
                  ExistsFO("x", And(InRel("X", (Var("x"),)),
                                    Letter("a", Var("x")))))
    f = LindSO("Lforall", INTERLEAVED, 1, ("X",), (arg,))
    assert evaluate(S("aa"), f, registry=registry)
    assert not evaluate(S("ab"), f, registry=registry)


def test_lindso_instance_cap(registry):
    f = LindSO("Lexists", CONCATENATED, 1, ("X",),
               (ExistsFO("x", InRel("X", (Var("x"),))),))
    with pytest.raises(InstanceCapExceeded):
        evaluate(S("aaaa"), f, registry=registry, instance_cap=8)


def _induced(struct, f, **kw):
    return induced_word(struct, {}, f, **kw)


@pytest.mark.parametrize("evaluator", [evaluate, evaluate_reference, _induced])
def test_lindso_huge_arity_is_refused_before_the_power(registry, evaluator):
    # n^arity has trillions of bits here; only a refusal can be quick
    f = LindSO("Lexists", INTERLEAVED, 5 * 10 ** 12, ("X",), (TrueF(),))
    with pytest.raises(InstanceCapExceeded) as ei:
        evaluator(S("ab"), f, registry=registry)
    assert "2^(2^5000000000000*1) instances" in str(ei.value)
    # below the shortcut the exact bit count is still reported
    f = LindSO("Lexists", INTERLEAVED, 60, ("X",), (TrueF(),))
    with pytest.raises(InstanceCapExceeded) as ei:
        evaluator(S("ab"), f, registry=registry)
    assert ei.value.required == 2 ** 60
    # on one element the power is 1 whatever the arity
    f = LindSO("Lexists", INTERLEAVED, 61, ("X",), (TrueF(),))
    assert evaluator(S("a"), f, registry=registry)
    # but the code layout holds arity entries, and past the cap it is
    # refused before it is built
    f = LindSO("Lexists", INTERLEAVED, 5 * 10 ** 12, ("X",), (TrueF(),))
    with pytest.raises(InstanceCapExceeded) as ei:
        evaluator(S("a"), f, registry=registry)
    assert ei.value.required == 5 * 10 ** 12
    assert "1 tuples of arity 5000000000000 exceed the cap" in str(ei.value)
    f = LindSO("Lexists", INTERLEAVED, 9, ("X",), (TrueF(),))
    with pytest.raises(InstanceCapExceeded):
        evaluator(S("a"), f, registry=registry, instance_cap=8)
    assert evaluator(S("a"), f, registry=registry, instance_cap=9)


def test_unknown_language_has_one_message(registry):
    f = LindFO("NoSuch", ("x",), (TrueF(),))
    for call in (lambda: evaluate(S("a"), f, registry=registry),
                 lambda: evaluate_reference(S("a"), f, registry=registry),
                 lambda: resolve_language(None, "NoSuch")):
        with pytest.raises(UnknownLanguage) as ei:
            call()
        assert str(ei.value) == "language 'NoSuch' not registered"


def test_shuffle_bit_permutation(registry):
    for n, k in itertools.product((1, 2, 3), repeat=2):
        st = S("a" * n)
        names = ("A", "B", "C")[:k]
        for r in range(1 << (n * k)):
            inter = instance_unrank(r, n, k, INTERLEAVED)
            conc = instance_unrank(r, n, k, CONCATENATED)
            for i in range(k):
                for x in range(n):
                    env = dict(zip(names, conc), x=x)
                    f = ShuffleBit("to_concatenated", i, k, Var("x"), names)
                    assert evaluate(st, f, env) == ((x,) in inter[i])
                    env = dict(zip(names, inter), x=x)
                    f = ShuffleBit("to_interleaved", i, k, Var("x"), names)
                    assert evaluate(st, f, env) == ((x,) in conc[i])


@pytest.mark.parametrize("direction,index,width,msg", [
    ("to_both", 0, 2, "unknown shuffle direction 'to_both'"),
    ("to_interleaved", 0, 0, "shuffle width must be positive"),
    ("to_concatenated", 2, 2, r"shuffle index 2 outside \[0, 2\)"),
    ("to_concatenated", -1, 2, r"shuffle index -1 outside \[0, 2\)"),
    ("to_interleaved", 0, 3, "shuffle width 3 but 2 set variables"),
])
def test_shuffle_bit_validates_itself(direction, index, width, msg):
    with pytest.raises(InvariantViolation, match=msg):
        ShuffleBit(direction, index, width, Var("x"), ("A", "B"))


def test_define_language(registry):
    f = LindFO("Lexists", ("x",), (Letter("a", Var("x")),))
    assert define_language(f, AB, 2, registry=registry) == \
        ["a", "aa", "ab", "ba"]


def test_free_variables():
    f = ExistsFO("x", And(InRel("X", (Var("x"),)), Lt(Var("x"), Var("y"))))
    fo, so = free_variables(f)
    assert fo == {"y"} and so == {"X"}
    g = LindSO("Maj", CONCATENATED, 1, ("X",), (InRel("X", (Var("z"),)),))
    fo, so = free_variables(g)
    assert fo == {"z"} and so == set()


def _all_names_by_definition(f):
    """The free names of f and the value of every name field of every node."""
    names = set().union(*free_variables(f))
    for g in logic.walk_formulas(f):
        for fl in fields(type(g)):
            if fl.kind in ("PosName", "RelName"):
                names.add(getattr(g, fl.name))
            elif fl.kind in ("PosNames", "RelNames"):
                names.update(getattr(g, fl.name))
    return names


# relations that only set-times or shuffle-bit reads, and endpoint terms
_NAME_ROWS = [
    (SetTimes("X", "Y", "Z"), {"X", "Y", "Z"}),
    (ExistsSO("X", SetTimes("X", "Y", "X")), {"X", "Y"}),
    (ShuffleBit("to_interleaved", 0, 2, Var("p"), ("A", "B")),
     {"p", "A", "B"}),
    (LindSO("Lmod2", CONCATENATED, 1, ("X",), (
        ShuffleBit("to_concatenated", 1, 2, MIN, ("X", "W")),)), {"X", "W"}),
    (ForallFO("x", Lt(Var("x"), MAX)), {"x"}),
]


@pytest.mark.parametrize("f,names", _NAME_ROWS,
                         ids=[format_formula(f) for f, _ in _NAME_ROWS])
def test_all_names_of_fixed_formulas(f, names):
    assert logic.all_names(f) == _all_names_by_definition(f) == names


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(("fo", "lindfo", "lindso")))
def test_all_names_matches_its_definition(seed, kind):
    rng = random.Random(seed)
    if kind == "fo":
        f = random_fo_formula(rng, ("x", "y"), ("X", "Y"), AB, depth=3)
    elif kind == "lindfo":
        f = random_lindfo(rng, "Lmod2", rng.randint(1, 2), AB,
                          k=rng.randint(1, 2), depth=3)
    else:
        f = random_lindso(rng, "Lmod2", rng.randint(1, 2),
                          rng.choice((INTERLEAVED, CONCATENATED)), AB,
                          k=rng.randint(1, 2), depth=3)
    assert logic.all_names(f) == _all_names_by_definition(f)


def test_eliminate_min_max():
    f = And(Lt(MIN, Var("x")), ExistsFO("y", Eq(Var("y"), MAX)))
    g = eliminate_min_max(f)
    for w in ["a", "ab", "bba"]:
        st = S(w)
        for x in range(len(w)):
            assert evaluate(st, f, {"x": x}) == evaluate(st, g, {"x": x})


def test_eliminate_min_max_skips_names_the_formula_uses():
    # the formula binds _min0 and reads _min1u, the pin name of _min1
    f = ExistsFO("_min0", And(Lt(MIN, Var("_min0")),
                              Lt(Var("_min1u"), MAX)))
    g = eliminate_min_max(f)
    assert format_formula(g) == (
        "(exists _min0 (and (exists _min2 (and (not (exists _min2u "
        "(< _min2u _min2))) (< _min2 _min0))) (exists _max3 (and (not "
        "(exists _max3u (< _max3 _max3u))) (< _min1u _max3)))))")
    for w in ["a", "ab", "bba"]:
        for y in range(len(w)):
            env = {"_min1u": y}
            assert evaluate(S(w), f, env) == evaluate(S(w), g, env)


def test_fragment_check(registry):
    qfo = LindFO("Lexists", ("x",), (Letter("a", Var("x")),))
    assert fragment_check(qfo, "QL-FO")[0]
    assert fragment_check(qfo, "FO(QL)")[0]
    assert not fragment_check(qfo, "FO")[0]
    qso = LindSO("Maj", CONCATENATED, 1, ("X",),
                 (ExistsFO("x", InRel("X", (Var("x"),))),))
    assert fragment_check(qso, "Qstar-FO")[0]
    assert not fragment_check(qso, "Q1-FO")[0]
    assert fragment_check(qso, "SOM(Qstar)")[0]
    assert not fragment_check(qso, "SOM")[0]
    plain = ExistsFO("x", Letter("a", Var("x")))
    assert fragment_check(plain, "FO")[0]
    assert fragment_check(plain, "SOM")[0]
    with pytest.raises(UnknownFragment):
        fragment_check(plain, "nope")


def test_fragment_check_som_monadic_only():
    f = LindSO("Lexists", CONCATENATED, 2, ("X",),
               (ExistsFO("x", InRel("X", (Var("x"), Var("x")))),))
    ok, why = fragment_check(f, "SOM(Qstar)")
    assert not ok


# fragment_check's verdict on each formula for every fragment name, one
# column per name in _VERDICT_NAMES order: + accepts, - refuses. The
# verdicts are recorded, not derived, so changing one changes what a
# fragment means. Diagnostics are not pinned.
_VERDICT_NAMES = logic.FRAGMENTS + ("FO(+,x)", "Q_L-FO", "FO(Q_L)")
_VERDICTS = """
+++---++----+++++-+  (true)
+++---++----+++++-+  (false)
+++---++----+++++-+  (= x y)
+++---++----+++++-+  (< min max)
+++---++----+++++-+  (letter a x)
------------++++---  (in X x)
-------------------  (in X x y)
-+-----+-------++--  (plus x y z)
-+-----+-------++--  (times x y z)
-+-----+-------++--  (bit x y)
-+-----+-------++--  (msb-bit x y)
-+-----+-------++--  (size-bit x)
-+-----+-------++--  (lt-log x)
-+-----+-------++--  (lt-pow2 x)
---------------+---  (set-times X Y Z)
---------------+---  (shuffle-bit to_interleaved 0 2 x (A B))
+++---++----+++++-+  (= $c1 x)
+++---++----+++++-+  (not (letter a x))
+++---++----+++++-+  (and (letter a x) (< x y))
+++---++----+++++-+  (or (= x min) (letter b x))
++----++----+++++-+  (exists x (letter a x))
++----++----+++++-+  (forall x (or (letter a x) (letter b x)))
-+-----+-------++--  (exists x (and (letter a x) (bit x x)))
---------------+---  (forall x (shuffle-bit to_concatenated 1 2 x (X Y)))
------------++++---  (existsSO X (exists x (in X x)))
-------------------  (existsSO X (exists x (in X x x)))
---------------+---  (existsSO X (exists x (and (in X x) (lt-log x))))
---------------+---  (existsSO X (existsSO Y (set-times X Y X)))
---+++++---------++  (Q Lexists (x) (letter a x))
---+++++---------++  (Q Lexists (x) (not (= x $c1)))
----++++---------++  (Q Lexists (x) (exists y (< x y)))
-----+-+-----------  (Q Lexists (x) (plus x x x))
------++----------+  (Q Lexists (x) (Q Lforall (y) (< x y)))
-------------------  (Q Lexists (x) (set-times X Y Z))
-------------------  (Q Lexists (x) (in X x))
---+++++---------++  (Q Maj (x) (letter a x) (letter b x))
------++----------+  (exists x (Q Lexists (y) (< x y)))
----------++--++---  (Qstar Lexists 1 (X) (exists x (in X x)))
--------++---+-----  (Q1 Lexists 1 (X) (exists x (in X x)))
--------------++---  (Qstar Lexists 1 (X) (exists x (in Y x)))
--------------++---  (Qstar Lexists 1 (X) (in X min) (in Y min))
----------++-------  (Qstar Lexists 2 (X) (exists x (in X x x)))
--------++---------  (Q1 Lexists 3 (X) (in X x y z))
--------------++---  (Qstar Lexists 1 (X) (existsSO Y (in Y min)))
--------------++---  (Qstar Lexists 1 (X) (Qstar Lexists 1 (Y) (in Y min)))
----------++-------  (Qstar Lexists 1 (X) (Q Lexists (x) (in X x)))
-----------+---+---  (Qstar Lexists 1 (X) (and (in X min) (plus min min min)))
-----------+---+---  (Qstar Lexists 1 (X Y) (set-times X Y X))
---------------+---  (Qstar Lexists 1 (X Y) (set-times X Y Z))
---------+---------  (Q1 Lexists 1 (X Y) (shuffle-bit to_interleaved 0 2 min (X Y)))
-------------------  (Q1 Lexists 1 (X Y) (shuffle-bit to_interleaved 0 2 min (A B)))
----------++--++---  (Qstar Lexists 1 (X) (letter a min))
--------------++---  (existsSO X (Qstar Lexists 1 (Y) (in Y min)))
-------------+-----  (existsSO X (Q1 Lexists 1 (Y) (in X min)))
-------------------  (exists x (Qstar Lexists 2 (Y) (in Y x x)))
-------------------  (existsSO X (Qstar Lexists 1 (Y) (in X x y)))
---------------+---  (and (Qstar Lexists 1 (X) (in X min)) (exists x (plus x x x)))
-------------------  (or (Q1 Lexists 1 (X) (in X min)) (Qstar Lexists 1 (Y) (in Y max)))
---------------+---  (not (Qstar Lexists 1 (X) (msb-bit min max)))
"""


def test_fragment_verdict_table():
    rows = [line.split("  ", 1) for line in _VERDICTS.strip().splitlines()]
    assert len(rows) >= 40
    seen = set()
    for verdicts, text in rows:
        f = parse_formula(text)
        seen.update(type(g) for g in logic.walk_formulas(f))
        got = "".join("+" if fragment_check(f, name)[0] else "-"
                      for name in _VERDICT_NAMES)
        assert got == verdicts, text
    assert seen == _formula_classes()


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _named_classes(text):
    """The node classes named in text, as classes or class groups."""
    out = set()
    for name in re.findall(r"`(\w+)`", text):
        value = getattr(logic, name)
        out.update(value if isinstance(value, tuple) else (value,))
    return out


def _classes(cell):
    """The node classes a README cell allows: those it names, less those
    named after 'but not'."""
    keep, _, drop = cell.partition("but not")
    return frozenset(_named_classes(keep) - _named_classes(drop))


def test_readme_fragment_table_is_the_code_table():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Fragments"):text.index("## Install")]
    prose = " ".join(section.split())
    for group, members in re.findall(r"`([A-Z_]+)` \(((?:`\w+` ?)+)\)",
                                     prose):
        assert tuple(re.findall(r"`(\w+)`", members)) == tuple(
            cls.__name__ for cls in getattr(logic, group)), group
    listed = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("`"):
            continue
        names, outer, allowed, ordering, relations = cells
        row = (getattr(logic, outer.strip("`")) if outer else None,
               _classes(allowed), ordering or None, relations or None)
        for name in re.findall(r"`([^`]+)`", names):
            listed[name] = row
    assert listed == logic.FRAGMENT_TABLE


def test_settimes_atom():
    st = S("aaaa")
    env = {"X": frozenset({(1,)}), "Y": frozenset({(1,)}),
           "Z": frozenset({(3,)})}
    # codes over n=4: X=Y=0b0100=4, Z=0b0001=1; 4*4=16 != 1
    assert not evaluate(st, SetTimes("X", "Y", "Z"), env)
    env["Z"] = frozenset()
    # 16 overflows 4 bits; only exact equality counts
    assert not evaluate(st, SetTimes("X", "Y", "Z"), env)
    env = {"X": frozenset({(2,)}), "Y": frozenset({(2,)}),
           "Z": frozenset({(1,)})}
    # 2 * 2 = 4
    assert evaluate(st, SetTimes("X", "Y", "Z"), env)


def _atom_cases(n):
    """(atom, [(structure, assignment, verdict)]) for every atom class on
    n positions, under every assignment of its operands, the verdicts
    written out from the docstrings with Python integers. Relations range
    over every monadic subset, and binary ones over their products, for
    n <= 4."""
    x, y, z = Var("x"), Var("y"), Var("z")
    pos = range(n)
    m = len(f"{n:b}") - 1  # floor(log2 n)

    def digit(v, p):
        # digit p of v written msb first with m digits: the bit of weight
        # 2^(m - (p+1)); false when p walks off the m digits
        return p < m and v // 2 ** (m - (p + 1)) % 2 == 1

    for a in AB:
        yield Letter(a, x), [(S("".join(w)), {"x": i}, w[i] == a)
                             for w in itertools.product(AB, repeat=n)
                             for i in pos]
    st = S("a" * n)
    yield TrueF(), [(st, {}, True)]
    yield FalseF(), [(st, {}, False)]
    pairs = [{"x": i, "y": j} for i in pos for j in pos]
    for f, means in [(Eq(x, y), lambda i, j: i == j),
                     (Lt(x, y), lambda i, j: i < j),
                     (BitAtom(x, y), lambda i, j: i // 2 ** j % 2 == 1),
                     (HighBit(x, y), digit)]:
        yield f, [(st, e, means(e["x"], e["y"])) for e in pairs]
    triples = [{"x": i, "y": j, "z": k} for i in pos for j in pos for k in pos]
    yield PlusAtom(x, y, z), [(st, e, e["x"] + e["y"] == e["z"])
                              for e in triples]
    yield TimesAtom(x, y, z), [(st, e, e["x"] * e["y"] == e["z"])
                               for e in triples]
    for f, means in [(SizeBit(x), lambda i: digit(n, i)),
                     (LtLog(x), lambda i: i < m),
                     (LtPowLog(x), lambda i: i < 2 ** m)]:
        yield f, [(st, {"x": i}, means(i)) for i in pos]
    if n > 4:
        return
    sets = [frozenset((j,) for j in pos if r >> j & 1) for r in range(2 ** n)]
    yield InRel("X", (x,)), [(st, {"X": s, "x": i}, i in {j for (j,) in s})
                             for s in sets for i in pos]
    yield InRel("R", (x, y)), [
        (st, {"R": frozenset((i, j) for (i,) in s for (j,) in t), **e},
         (e["x"],) in s and (e["y"],) in t)
        for s in sets for t in sets for e in pairs]

    def code(s):
        # the n-digit msb-first binary number whose digit j says j in s
        return int("".join("1" if (j,) in s else "0" for j in pos), 2)
    yield SetTimes("X", "Y", "Z"), [
        (st, {"X": s, "Y": t, "Z": u}, code(s) * code(t) == code(u))
        for s in sets for t in sets for u in sets]
    for k in (1, 2):
        names = ("A", "B")[:k]

        def interleaved(i, j):  # flat code bit of variable i at position j
            return j * k + i

        def concatenated(i, j):
            return i * n + j
        for direction, given, read in [
                ("to_interleaved", interleaved, concatenated),
                ("to_concatenated", concatenated, interleaved)]:
            for index in range(k):
                # the sets, read in the given ordering, set the flat code
                # bits; the atom reads variable index in the other one
                yield ShuffleBit(direction, index, k, x, names), [
                    (st, {**dict(zip(names, sets_)), "x": i},
                     read(index, i) in {given(v, j) for v in range(k)
                                        for (j,) in sets_[v]})
                    for sets_ in itertools.product(sets, repeat=k)
                    for i in pos]


@pytest.mark.parametrize("n", range(1, 7))
def test_every_atom_means_its_definition(n):
    # both evaluators run one definition of the atoms, so their differential
    # cannot check it: pin it here
    for f, rows in _atom_cases(n):
        for struct, env, want in rows:
            for evaluator in (evaluate, evaluate_reference):
                assert evaluator(struct, f, env) == want, \
                    (evaluator.__name__, str(struct), format_formula(f), env)


def test_random_formulas_over_no_letters():
    # an empty alphabet offers no letter atom to draw from
    rng = random.Random(0)
    for _ in range(50):
        f = random_fo_formula(rng, ("x",), (), ())
        assert Letter not in {type(g) for g in logic.walk_formulas(f)}


@pytest.mark.parametrize("evaluator", [evaluate, evaluate_reference])
def test_letter_atom_on_constant_structure(evaluator):
    st = ConstStructure.of(2, {"c1": 0})
    with pytest.raises(NonConstantSignature):
        evaluator(st, Letter("a", MIN))


@pytest.mark.parametrize("evaluator", [evaluate, evaluate_reference])
def test_constant_on_string_structure(evaluator):
    with pytest.raises(UnboundVariable):
        evaluator(S("ab"), Lt(ConstSym("c1"), ConstSym("c2")))


# ---------------------------------------------------------------------------
# Compiled evaluation against the reference tree walk

LANGS = ("Lexists", "Lforall", "Lmod2", "Maj")


def _chain(rng):
    """exists w0 ... exists wL (and ... atom_i ... probe): atom_i fixes w_i
    from two of the w's, y, min and max, so solved values fall inside the
    domain, past it, or below 0, or it fixes nothing when it reads w_i twice
    or a name bound below w_i (a name may be bound twice). Each atom comes
    first or after a random conjunct, and probe reads a solved value."""
    names = tuple(rng.choice(("w0", "w1", "w2", "y"))
                  for _ in range(rng.randint(1, 3)))
    pool = [Var(w) for w in names] + [Var("y"), MIN, MAX]
    conjuncts = []
    for i, v in enumerate(names):
        if rng.random() < 0.5:
            free = ("y",) if rng.random() < 0.5 else ()
            conjuncts.append(random_fo_formula(rng, names[:i + 1] + free,
                                               (), AB, depth=1))
        p, q, V = rng.choice(pool), rng.choice(pool), Var(v)
        conjuncts.append(rng.choice((PlusAtom(p, q, V), PlusAtom(V, p, q),
                                     PlusAtom(p, V, q), TimesAtom(p, q, V),
                                     Eq(V, p), Eq(p, V))))
    if rng.random() < 0.5:
        conjuncts.append(random_fo_formula(rng, names + ("y",), ("Y",), AB,
                                           depth=rng.randint(0, 2)))
    w = Var(rng.choice(names))
    conjuncts.append(rng.choice((Letter("a", w), Letter("b", w),
                                 Eq(w, Var("y")), Lt(Var("y"), w),
                                 InRel("Y", (w,)))))
    body = conjuncts.pop()
    for c in reversed(conjuncts):
        body = And(c, body)
    for v in reversed(names):
        body = ExistsFO(v, body)
    wrap = rng.choice(("none", "none", "lindfo", "lindso"))
    if wrap == "lindfo":
        return LindFO(rng.choice(LANGS), ("y",), (body,))
    if wrap == "lindso":
        return LindSO(rng.choice(LANGS), rng.choice((INTERLEAVED, CONCATENATED)),
                      1, ("Y",), (body,))
    return body


_ARITH = (BitAtom, HighBit, SizeBit, LtLog, LtPowLog, SetTimes)
_ARITH_TERMS = (Var("x"), Var("y"), MIN, MAX)


def _arith_atoms(cls):
    """Every cls atom on x, y, min and max (SetTimes reads X, Y and X)."""
    if cls is SetTimes:
        return [SetTimes("X", "Y", "X")]
    return [cls(*ts) for ts in itertools.product(
        _ARITH_TERMS, repeat=sum(f.kind == "Term" for f in fields(cls)))]


def _so_arith(rng, cls):
    """existsSO X over a random formula and a cls atom, whose bit position
    may lie past the end of the bit string."""
    atom = rng.choice(_arith_atoms(cls))
    body = random_fo_formula(rng, ("x", "y"), ("X", "Y"), AB, depth=2)
    body = rng.choice((And, Or))(*rng.sample((atom, body), 2))
    return ExistsSO("X", rng.choice((ExistsFO, ForallFO))("x", body))


@st.composite
def _formulas(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("fo", "lindfo", "lindso", "so-arith",
                                 "chain", "chain", "chain")))
    if kind == "fo":
        return random_fo_formula(rng, ("y",), ("Y",), AB, depth=3)
    if kind == "so-arith":
        return _so_arith(rng, draw(st.sampled_from(_ARITH)))
    if kind == "lindfo":
        return random_lindfo(rng, draw(st.sampled_from(LANGS)), 1, AB,
                             k=draw(st.integers(1, 2)))
    if kind == "lindso":
        return random_lindso(rng, draw(st.sampled_from(LANGS)), 1,
                             draw(st.sampled_from((INTERLEAVED, CONCATENATED))),
                             AB, k=draw(st.integers(1, 2)))
    return _chain(rng)


def _outcome(evaluator, *args, **kwargs):
    try:
        return evaluator(*args, **kwargs)
    except WordlogicError as e:
        return type(e), str(e)


def _witness_atoms():
    """Every plus/times/= atom fixing v from two of x, y, min and max."""
    V = Var("v")
    sources = (Var("x"), Var("y"), MIN, MAX)
    for p, q in itertools.product(sources, repeat=2):
        yield from (PlusAtom(p, q, V), PlusAtom(V, p, q), PlusAtom(p, V, q),
                    TimesAtom(p, q, V))
    for p in sources:
        yield from (Eq(V, p), Eq(p, V))


@pytest.mark.parametrize("shape", ["first", "after-letter", "after-unsafe",
                                   "shadowed"])
@pytest.mark.parametrize("x_bound", [False, True])
def test_witness_atoms_match_reference(shape, x_bound):
    """Exhaustive small twin of the differential test below: each witness
    atom, with x free or bound outside v, on n = 0..4 under every x and y."""
    V = Var("v")
    for atom, probe in itertools.product(
            _witness_atoms(), (Letter("a", V), Lt(Var("y"), V))):
        body = And(atom, probe)
        if shape == "after-letter":
            body = And(Letter("b", V), body)
        elif shape == "after-unsafe":  # raises at v > 0: u is never bound
            body = And(Or(Eq(V, MIN), Letter("a", Var("u"))), body)
        elif shape == "shadowed":   # x in the atom is bound below v
            body = ExistsFO("x", body)
        f = ExistsFO("v", body)
        if x_bound:
            f = ExistsFO("x", And(Eq(Var("x"), Var("z")), f))
        for n in range(5):
            struct = S("abba"[:n])
            envs = [{}] + [{"z" if x_bound else "x": x, "y": y}
                           for x in range(n) for y in range(n)]
            for env in envs:
                assert _outcome(evaluate, struct, f, env) == \
                    _outcome(evaluate_reference, struct, f, env), (f, env)


def _solved(f):
    """Per existential variable of f, whether compiling f solves it."""
    out = {}
    real = logic._Plan.witness

    def witness(self, v, *args):
        solve = real(self, v, *args)
        out[v] = solve is not None
        return solve
    logic._Plan.witness = witness
    try:
        logic._Plan(f)
    finally:
        logic._Plan.witness = real
    return out


def _pad_links(f):
    """The variables of the exists q r s steps and size-chain links of a
    pad_translate target: three nested exists over
    (and (and (times ...) ...) ...)."""
    for g in logic.walk_formulas(f):
        nest, body = [], g
        while type(body) is ExistsFO and len(nest) < 3:
            nest.append(body.var)
            body = body.body
        if len(nest) == 3 and type(body) is And and type(body.left) is And \
                and type(body.left.left) is TimesAtom:
            yield from nest


def test_witnesses_are_solved():
    """Verdicts alone would not notice a lost solved form: every witness
    atom solves v from sources bound outside it, none that reads an x
    bound below v does, and every link of a padding chain is solved."""
    V = Var("v")
    atoms = list(_witness_atoms())
    probe = Letter("a", V)
    for atom in atoms:
        assert _solved(ExistsFO("v", And(atom, probe)))["v"], atom
    shadowed = [_solved(ExistsFO("v", ExistsFO("x", And(atom, probe))))["v"]
                for atom in atoms]
    assert shadowed == [Var("x") not in logic.terms(atom) for atom in atoms]
    assert (len(atoms), sum(shadowed)) == (72, 42)
    for k, links in ((2, 6), (3, 12)):
        arg = InRel("X", tuple(Var(v) for v in "xyz"[:k]))
        for v in reversed("xyz"[:k]):
            arg = ExistsFO(v, arg)
        target, _, _ = pad_translate(LindSO("Maj", CONCATENATED, k, ("X",),
                                            (arg,)), AB)
        solved = _solved(target)
        names = list(_pad_links(target))
        assert len(names) == links and all(solved[v] for v in names), \
            (k, solved)


@pytest.mark.parametrize("cls", _ARITH)
def test_arithmetic_atoms_match_reference(cls):
    """Exhaustive twin of the existsSO kind below: each cls atom under an
    existsSO and a forall, on n = 0..4, with y unbound or at every value."""
    for atom in _arith_atoms(cls):
        f = ExistsSO("X", ForallFO("x", Or(atom, InRel("X", (Var("x"),)))))
        for n in range(5):
            struct = S("abba"[:n])
            for env in [{}] + [{"y": y, "Y": frozenset({(y,)})}
                               for y in range(n)]:
                assert _outcome(evaluate, struct, f, env) == \
                    _outcome(evaluate_reference, struct, f, env), (f, env)


@given(f=_formulas(), data=st.data())
def test_evaluate_matches_reference(registry, f, data):
    """Same verdict or same error, in type and message, on n = 0..4, under
    every value of the free y and values of the wrong kind, with Y a
    relation, a value of the wrong kind or unbound, and with y unbound."""
    free_fo, _ = free_variables(f)
    for n in range(5):
        if data.draw(st.integers(0, 3)):
            struct = S("".join(data.draw(st.lists(st.sampled_from(AB),
                                                  min_size=n, max_size=n))))
        else:
            struct = ConstStructure.of(n, {})  # letter atoms raise here
        env = {}
        if data.draw(st.integers(0, 3)):
            members = [(j,) for j in range(n) if data.draw(st.booleans())]
            # a relation of the wrong kind, or with a member off the domain
            kind = data.draw(st.sampled_from((frozenset, set, list, "off")))
            env["Y"] = (frozenset(members + [(n,)]) if kind == "off"
                        else kind(members))
        # a position, or a value of the wrong kind
        ys = [*range(n), -1, n, True, 1.0] if "y" in free_fo else ()
        for env in [env] + [{**env, "y": y} for y in ys]:
            fast = _outcome(evaluate, struct, f, env, registry=registry)
            slow = _outcome(evaluate_reference, struct, f, env,
                            registry=registry)
            assert fast == slow, (struct, env)


@pytest.mark.parametrize("evaluator", [evaluate, evaluate_reference])
def test_quantifier_nodes_are_checked_before_a_short_circuit(evaluator):
    # at v = 0 the or reaches the unregistered node; solving v from
    # (= v x) without checking the node first would answer true
    f = parse_formula(
        "(exists v (and (or (= v x) (Q Nope (y) (true))) (= v x)))")
    with pytest.raises(UnknownLanguage, match="'Nope' not registered"):
        evaluator(S("abab"), f, {"x": 2})


def test_long_conjunction_falls_back_without_recursing():
    f = parse_formula("(and" + " (true)" * 2999 + " (letter a u))")
    with pytest.raises(UnboundVariable, match="unbound variable 'u'"):
        evaluate(S("ab"), f)
    with pytest.raises(NestingCapExceeded):
        evaluate_reference(S("ab"), f)


_x, _X = Var("x"), InRel("X", (Var("x"),))


@pytest.mark.parametrize("struct,f,env,error", [
    (S(""), ExistsFO("x", TrueF()), {}, EmptyDomain),
    (S(""), LindFO("Lexists", ("x",), (TrueF(),)), {}, EmptyDomain),
    (ConstStructure.of(0, {}), Eq(MIN, MIN), {}, EmptyDomain),
    (ConstStructure.of(2, {}), ForallFO("x", Letter("a", _x)), {},
     NonConstantSignature),
    # the reference raises at v = 0; solving v from (= v x) would not
    (ConstStructure.of(2, {}), parse_formula(
        "(exists v (and (or (= v x) (letter a v)) (= v x)))"), {"x": 1},
     NonConstantSignature),
    (ConstStructure.of(2, {"c": 1}), parse_formula(
        "(exists v (and (or (= v x) (< $d v)) (= v x)))"), {"x": 1},
     UnboundVariable),
    (S("ab"), Lt(_x, ConstSym("c")), {"x": 0}, UnboundVariable),
    (ConstStructure.of(2, {"c": 1}), Lt(ConstSym("c"), ConstSym("d")), {},
     UnboundVariable),
    (S("ab"), And(Letter("a", MIN), Letter("a", _x)), {}, UnboundVariable),
    (S("ab"), And(Eq(_x, MIN), _X), {"x": 0}, UnboundVariable),
    (S("ab"), ExistsFO("x", _X), {}, UnboundVariable),
    (S("ab"), LindSO("Lexists", INTERLEAVED, 3, ("X",), (_X,)), {},
     InstanceCapExceeded),
    (S("ab"), Letter("a", _x), {"x": 5}, SortMismatch),
    (S("ab"), Letter("a", _x), {"x": -1}, SortMismatch),
    (S("ab"), InRel("X", (MIN,)), {"X": [(0,)]}, SortMismatch),
])
def test_calls_that_miss_the_record_raise_the_reference_error(
        registry, struct, f, env, error):
    out = _outcome(evaluate, struct, f, env, registry=registry,
                   instance_cap=64)
    assert out == _outcome(evaluate_reference, struct, f, env,
                           registry=registry, instance_cap=64)
    assert out[0] is error


def _any_outcome(evaluator, *args):
    try:
        return evaluator(*args)
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("env", [{"x": -1}, {"x": 5}, {"x": True},
                                 {"x": 1.0}, {"x": 0, "X": {(0,)}},
                                 {"x": 0, "X": [(0,)]}, {"x": 1}])
def test_names_of_the_wrong_kind_fall_back(env):
    # the reference reads x at v = 0 before (= v x) can fix v; where that
    # read crashes, so must evaluate
    for text in ("(= x x)", "(< x max)", "(exists v (= v x))",
                 "(or (< max x) (in X x))",
                 "(exists v (and (or (= v x) (letter a x)) (= v x)))",
                 "(exists v (and (or (= v x) (in x x)) (= v x)))",
                 "(exists x (exists v (and (or (= v x) (in x x)) (= v x))))"):
        f = parse_formula(text)
        assert _any_outcome(evaluate, S("ab"), f, env) == \
            _any_outcome(evaluate_reference, S("ab"), f, env), (text, env)


def test_compiled_plan_runs_without_the_reference(registry, monkeypatch):
    # every atom reads bound slots, so nothing needs the reference code
    sentences = [parse_formula(text, registry) for text in (
        "(exists x (exists y (and (< x y) (letter a x) (letter b y))))",
        "(exists x (exists y (exists v (and (plus x y v) (letter b v)))))",
        "(forall x (or (letter a x) (not (exists y (< x y)))))",
        "(Q1 Lmod2 1 (X) (exists x (in X x)))",
        "(Qstar Maj 1 (X Y) (exists x (and (in X x) (in Y x))))",
        "(Q Lexists (x) (letter b x))",
        "(existsSO X (forall x (in X x)))")]
    cases = [(S(w), f) for w in ("a", "ab", "ba", "aab") for f in sentences]
    want = [evaluate_reference(st, f, registry=registry) for st, f in cases]
    assert True in want and False in want

    def fail(*args):
        raise AssertionError("the reference walk ran")
    monkeypatch.setattr(logic, "_eval", fail)
    assert [evaluate(st, f, registry=registry) for st, f in cases] == want


def test_the_plan_runs_on_what_the_walk_admits(monkeypatch):
    # the walk reads a relation held as a set, so the plan runs on it too
    f = parse_formula("(exists y (and (< x y) (in X y)))")
    env = {"x": 1, "X": {(2,)}}
    assert evaluate_reference(S("abab"), f, env)

    def fail(*args):
        raise AssertionError("the reference walk ran")
    monkeypatch.setattr(logic, "_eval", fail)
    assert evaluate(S("abab"), f, env)
    # the record reads the environment the walk builds, from any pairs
    assert evaluate(S("abab"), f, list(env.items()))


# ---------------------------------------------------------------------------
# Guarded blocks: one set test per instance, against the reference

def _set_tests(f):
    """How many blocks of f compile into a set test."""
    made = []
    real = logic._fill

    def fill(*args):
        made.append(args)
        return real(*args)
    logic._fill = fill
    try:
        logic._Plan(f)
    finally:
        logic._fill = real
    return len(made)


def _filler(rng, names, consts):
    """A leaf over the positions names, u, min, max and, when consts,
    the constant c; it reads letters only when not consts."""
    pool = [Var(v) for v in names] + [Var("u"), MIN, MAX]
    if consts:
        pool.append(ConstSym("c"))
    p, q = rng.choice(pool), rng.choice(pool)
    leaf = rng.choice((Lt(p, q), Eq(p, q), PlusAtom(p, q, rng.choice(pool)),
                       Lt(p, q) if consts else Letter(rng.choice(AB), p)))
    return Not(leaf) if rng.random() < 0.3 else leaf


# shape -> whether its block can be guarded
_BLOCK_SHAPES = {
    "guarded": True,
    "unread-between": True,  # a name bound between N and the block, unread
    "between": False,        # ... read by another leaf
    "sibling": False,        # another leaf reads a relation of N
    "shadowed": False,       # two quantifiers of the block bind one name
    "foreign-term": False,   # a term of the leaf is no variable of the block
    "too-wide": False,       # the leaf has more distinct terms than N's arity
}


def _block_case(rng, lang, ordering, m, k):
    """A LindSO node whose argument holds one block of the given shape, and
    the number of set tests it should compile into."""
    shape = rng.choice(sorted(_BLOCK_SHAPES))
    consts = rng.random() < 0.5
    q, junction = rng.choice(((ExistsFO, And), (ForallFO, Or)))
    names = rng.sample(("x", "y"), rng.randint(1, 2))
    if shape == "shadowed":
        names.insert(rng.randrange(len(names)), rng.choice(names))
    terms = [Var(rng.choice(names)) for _ in range(rng.randint(1, 3))]
    if shape == "too-wide":
        names = rng.sample(("x", "y", "z"), m + 1)
        terms = [Var(v) for v in names]
    if shape == "foreign-term":
        terms[rng.randrange(len(terms))] = rng.choice((MIN, MAX, Var("u")))
    leaf = InRel("X", tuple(terms))
    if rng.random() < 0.5:
        leaf = Not(leaf)
    inner = [leaf]
    if shape == "sibling":
        inner.append(InRel(rng.choice(("X", "Y")[:k]), (Var(names[-1]),)))
    if shape == "between":
        inner.append(Lt(Var("w"), Var(rng.choice(names))))
    body = None
    for depth in range(len(names) - 1, -1, -1):
        parts = inner if body is None else [body]
        inner = []
        if rng.random() < 0.6:
            parts.append(_filler(rng, names[:depth + 1], consts))
        rng.shuffle(parts)
        body = parts[0]
        for part in parts[1:]:
            body = junction(body, part)
        body = q(names[depth], body)
    if shape in ("between", "unread-between"):
        # w is bound by a quantifier of the other kind, so the block stops
        w = Lt(Var("w"), rng.choice((MAX, Var("u"))))
        body = (ForallFO("w", Or(w, body)) if q is ExistsFO
                else ExistsFO("w", And(w, body)))
    f = LindSO(lang, ordering, m, ("X", "Y")[:k], (body,))
    if rng.random() < 0.5:
        f = ExistsFO("u", And(_filler(rng, (), consts), f))
    return f, int(_BLOCK_SHAPES[shape]
                  and len({t.name for t in terms}) <= m)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 2),
       k=st.integers(1, 2), lang=st.sampled_from(LANGS),
       ordering=st.sampled_from((INTERLEAVED, CONCATENATED)))
def test_guarded_blocks_match_reference(registry, seed, m, k, lang, ordering):
    """Both block kinds and leaf polarities, repeated terms and a leaf arity
    other than N's, against shapes that must stay per instance; on string
    and constant structures of 1-4 elements. Nodes over 2^8 instances are
    refused by both evaluators alike."""
    rng = random.Random(seed)
    f, want = _block_case(rng, lang, ordering, m, k)
    assert _set_tests(f) == want, f
    for n in range(1, 5):
        word = "".join(rng.choice(AB) for _ in range(n))
        for struct in (S(word), ConstStructure.of(n, {"c": rng.randrange(n)})):
            env = {"u": rng.randrange(n)}
            assert _outcome(evaluate, struct, f, env, registry=registry,
                            instance_cap=1 << 8) == \
                _outcome(evaluate_reference, struct, f, env,
                         registry=registry, instance_cap=1 << 8), (struct, f)


def _long_word_templates():
    """The argument formulas of perfbench's long-words workload, read from
    its source."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "workloads.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TEMPLATES":
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("no TEMPLATES in perfbench/workloads.py")


@pytest.mark.parametrize("template", _long_word_templates())
def test_long_word_templates_are_set_tests(registry, monkeypatch, template):
    # the block's letter atom runs n times per evaluation, not once per
    # instance: in the fill of a node that steps (Lexists), and in the
    # mask loop of a node whose word is spelled from masks (Lmod2)
    calls = []
    real = logic._slot_atom

    def counting(f, idx):
        fn = real(f, idx)
        if type(f) is not Letter:
            return fn

        def letter(c, s):
            calls.append(f)
            return fn(c, s)
        return letter
    monkeypatch.setattr(logic, "_slot_atom", counting)
    struct = S("abbab")
    for quantifier, lang in itertools.product(("Qstar", "Q1"),
                                              ("Lmod2", "Lexists")):
        f = parse_formula(f"({quantifier} {lang} 1 (X) {template})",
                          registry)
        assert _set_tests(f) == 1
        # the reference builds letter closures too: run it before counting
        want = evaluate_reference(struct, f, registry=registry)
        calls.clear()
        assert evaluate(struct, f, registry=registry) == want
        assert len(calls) == struct.size


@pytest.mark.parametrize("text,want", [
    ("(existsSO X (exists x (in X x)))", [ExistsFO, ExistsSO]),
    ("(existsSO X (existsSO Y (forall x (or (in X x) (in Y x)))))",
     [ForallFO, ExistsSO, ExistsSO]),
])
def test_existsso_compiles_through_loop(monkeypatch, text, want):
    # existsSO is the existential loop over subsets: each node is one
    # _loop call of its own type, and the closures agree with the walk
    calls = []
    real = logic._loop

    def recording(ty, i, body, solve):
        calls.append(ty)
        return real(ty, i, body, solve)
    monkeypatch.setattr(logic, "_loop", recording)
    f = parse_formula(text)
    logic._Plan(f)
    assert calls == want
    for struct in string_structures(AB, 4, min_n=0):
        assert _outcome(evaluate, struct, f) == \
            _outcome(evaluate_reference, struct, f), struct.word


# ---------------------------------------------------------------------------
# Words spelled from masks, every instance at once, against the reference

# no language here has a decided state, so evaluate spells a node's word
# from its arguments' masks whenever they have them; ends_a is the one that
# does not commute
_MASK_LANGS = ("Lmod2", "LmodOdd", "Maj", "g4", "ends_a")


@pytest.fixture(scope="module")
def mask_registry(registry, data_dir):
    box = load_toolbox([data_dir]).languages
    return {**registry, "g4": box["g4"], "ends_a": box["ends_a"]}


def _mask_argument(rng, lang, ordering, m, k, fallback):
    """(an argument formula over the relations X0 and X1 of arity m, the
    first k of them bound by its node, whether its node can have masks);
    only with fallback may it read them in a way that has none."""
    rel = rng.choice(("X0", "X1")[:k])
    shape = rng.randrange(7 if fallback else 6)
    if shape == 0:
        return random_lindso(rng, lang, 1, ordering, AB, k).args[0], True
    if shape == 1:  # one of the guarded-block shapes, over X0 and X1
        f, _ = _block_case(rng, lang, ordering, m, k)
        body = (f if type(f) is LindSO else f.body.right).args[0]
        return logic.rewrite(body, lambda g, rw: InRel(
            {"X": "X0", "Y": "X1"}[g.rel], g.args)
            if type(g) is InRel else None), True
    if shape == 2:  # fixed terms
        return InRel(rel, tuple(rng.choice((MIN, MAX, ConstSym("c")))
                                for _ in range(m))), True
    if shape == 3:  # a nested node that reads the node's relation, or not
        reads = fallback and rng.random() < 0.5
        inner = InRel("Z", (Var("x"),))
        if reads:
            inner = And(inner, InRel(rel, (Var("x"),) * m))
        return LindSO("Lmod2", ordering, 1, ("Z",),
                      (ExistsFO("x", inner),)), not reads
    if shape == 6:
        return SetTimes(rel, rel, rel), False
    a, masked_a = _mask_argument(rng, lang, ordering, m, k, fallback)
    b, masked_b = _mask_argument(rng, lang, ordering, m, k, fallback)
    return rng.choice((And, Or))(Not(a), b), masked_a and masked_b


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 2),
       k=st.integers(1, 2), lang=st.sampled_from(_MASK_LANGS),
       ordering=st.sampled_from((INTERLEAVED, CONCATENATED)))
def test_words_spelled_from_masks_match_reference(mask_registry, seed, m, k,
                                                  lang, ordering):
    """evaluate and evaluate_reference agree, and a node evaluate decides
    from masks unranks no instance and has induced_word's word, on string
    and constant structures of 1-4 elements. Nodes over 2^8 instances are
    refused by both evaluators alike."""
    rng = random.Random(seed)
    reg = mask_registry
    fallback = rng.random() < 0.3
    args = [_mask_argument(rng, lang, ordering, m, k, fallback)
            for _ in range(reg[lang].size - 1)]
    node = LindSO(lang, ordering, m, ("X0", "X1")[:k],
                  tuple(a for a, _ in args))
    masked = all(masked for _, masked in args)
    for n in range(1, 5):
        word = "".join(rng.choice(AB) for _ in range(n))
        for struct in (S(word), ConstStructure.of(n, {"c": rng.randrange(n)})):
            env = {"u": rng.randrange(n)}
            seen, unranked = [], []
            real_member, real_unrank = logic.language_member, instance_unrank

            def member(spec, spelled):
                seen.append((spec, spelled))
                return real_member(spec, spelled)

            def unrank(*args):
                unranked.append(args)
                return real_unrank(*args)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(logic, "language_member", member)
                mp.setattr(logic, "instance_unrank", unrank)
                verdict = _outcome(evaluate, struct, node, env, registry=reg,
                                   instance_cap=1 << 8)
            assert verdict == _outcome(
                evaluate_reference, struct, node, env, registry=reg,
                instance_cap=1 << 8), (struct, node)
            if type(verdict) is bool:
                assert seen[-1] == (reg[lang], induced_word(
                    struct, env, node, registry=reg, instance_cap=1 << 8))
                # the walk answers a call the plan's record refuses
                ctx = logic._Ctx(struct, reg, 1 << 8)
                if masked and logic._plan(node).slots(ctx, env) is not None:
                    assert not unranked, (struct, node)


_FLOOR = "(Qstar {} 1 (X) (exists x (and (in X x) (letter a x))))"
_PAIR_FLOOR = "(Qstar Lmod2 1 (X Y) (exists x (and (in X x) (in Y x))))"


def _calls_and_verdict(monkeypatch, registry, text, word):
    """evaluate's calls of instance_unrank and _induced on word, and its
    verdict."""
    (calls,) = _unrank_and_word_calls(monkeypatch, registry, text, word,
                                      [evaluate])
    f = parse_formula(text, registry)
    return calls, evaluate(S(word), f, registry=registry)


@pytest.mark.parametrize("word", ["ab" * 10, "a" * 20, "bba"])
def test_floor_sentence_is_spelled_from_masks(monkeypatch, registry, word):
    # X meets the a-positions A at 2^n - 2^(n-|A|) of its 2^n values, and
    # Lmod2 accepts an even count
    n, a = len(word), word.count("a")
    even = (2 ** n - 2 ** (n - a)) % 2 == 0
    assert _calls_and_verdict(monkeypatch, registry, _FLOOR.format("Lmod2"),
                              word) == ((0, 1), even)


@pytest.mark.parametrize("n", [1, 3, 10])
def test_pair_floor_sentence_is_spelled_from_masks(monkeypatch, registry, n):
    # X and Y meet at 4^n - 3^n of their 4^n values
    assert _calls_and_verdict(monkeypatch, registry, _PAIR_FLOOR, "b" * n) == (
        (0, 1), (4 ** n - 3 ** n) % 2 == 0)


def test_a_language_with_decided_states_still_steps(monkeypatch, registry):
    # the empty set, then {19} (a b), then {18} (an a), which decides
    assert _calls_and_verdict(monkeypatch, registry, _FLOOR.format("Lexists"),
                              "ab" * 10) == ((3, 1), True)


def test_a_node_that_reads_its_set_through_existsso_steps(monkeypatch,
                                                         registry):
    text = ("(Qstar Lmod2 1 (X) (existsSO Y (exists x (and (in X x) "
            "(in Y x)))))")
    want = evaluate_reference(S("aba"), parse_formula(text, registry),
                              registry=registry)
    assert _calls_and_verdict(monkeypatch, registry, text, "aba") == (
        (8, 1), want)


# ---------------------------------------------------------------------------
# Node tables and the traversals built on them

def _formula_classes():
    """Every record class logic defines, less terms and structures."""
    skip = logic.TERM_CLASSES | {StringStructure, ConstStructure}
    return {c for c in vars(logic).values()
            if is_record(c) and c.__module__ == logic.__name__
            and c not in skip}


def _one_of_each():
    x, y = Var("x"), Var("y")
    atom = Lt(x, MAX)
    return [
        logic.TrueF(), logic.FalseF(), Eq(x, MIN), atom, Letter("a", x),
        InRel("X", (x, y)), PlusAtom(x, y, MAX), TimesAtom(MIN, x, y),
        logic.BitAtom(x, y), logic.HighBit(ConstSym("c"), x),
        logic.SizeBit(x), logic.LtLog(x), logic.LtPowLog(y),
        SetTimes("X", "Y", "Z"),
        ShuffleBit("to_interleaved", 1, 2, x, ("A", "B")),
        Not(atom), And(atom, Eq(x, y)), Or(Eq(x, y), atom),
        ExistsFO("x", atom), ForallFO("y", atom), ExistsSO("X", atom),
        LindFO("Lmod2", ("x", "y"), (atom, Not(atom))),
        LindSO("Maj", INTERLEAVED, 2, ("X",), (atom,)),
        LindSO("Lmod2", CONCATENATED, 1, ("X", "Y"), (atom,)),
    ]


_GROUPS = (("Formula", "Formulas"), ("Term", "Terms"),
           ("PosName", "PosNames"), ("RelName", "RelNames"))


def test_schema_gives_every_field_one_kind():
    samples = _one_of_each()
    classes = _formula_classes()
    assert len(classes) == 23 and classes == logic.FORMULA_CLASSES
    assert {c.__name__ for c in logic.TERM_CLASSES} == {
        "Var", "Min", "Max", "ConstSym"}
    assert {type(f) for f in samples} == classes
    for cls in classes | logic.TERM_CLASSES:
        kinds = [f.kind for f in fields(cls)]
        assert set(kinds) <= set(logic.KINDS), cls
        # one tuple field of a group, or only single ones
        for one, many in _GROUPS:
            assert kinds.count(many) == 0 or (
                kinds.count(many) == 1 and one not in kinds), cls
        # a node holds subformulas or terms, not both
        assert not ({"Formula", "Formulas"} & set(kinds)
                    and {"Term", "Terms"} & set(kinds)), cls
    for f in samples:
        kinds = {field.kind for field in fields(type(f))}
        if kinds & {"Formula", "Formulas"}:
            assert logic.children(f)
            assert logic.rebuild(f, logic.children(f)) == f
        else:
            assert logic.children(f) == ()
        if kinds & {"Term", "Terms"}:
            assert logic.terms(f)
            assert logic.with_terms(f, logic.terms(f)) == f
        else:
            assert logic.terms(f) == ()


def test_relation_names_are_the_relation_fields():
    got = {type(f): logic.relation_names(f) for f in _one_of_each()
           if logic.relation_names(f)}
    assert got == {InRel: ("X",), SetTimes: ("X", "Y", "Z"),
                   ShuffleBit: ("A", "B"), ExistsSO: ("X",),
                   LindSO: ("X", "Y")}


def test_every_head_round_trips():
    heads = collections.Counter(sexpr._SYNTAX.values())
    assert heads == {cls: 2 if cls is LindSO else 1
                     for cls in _formula_classes()}
    seen = set()
    for f in _one_of_each():
        text = format_formula(f)
        assert parse_formula(text) == f
        seen.add(text[1:].split(" ", 1)[0].rstrip(")"))
    assert seen == set(sexpr._SYNTAX)


# Constructions the field checks refuse; each was accepted before them
_MALFORMED = [
    'And(TrueF(), "x")',
    'Letter("a", 5)',
    'Eq(Var("x"), 3)',
    'ExistsFO("", TrueF())',
    'InRel("X", ())',
    'Var("min")',
    'Var("a b")',
    'LindSO("Lexists", "interleaved", 1, ("X",), ())',
    'LindFO("Lexists", ["x"], (TrueF(),))',
    'Not(Letter(5, Var("x")))',
    'LindSO("L", "interleaved", 10 ** 5000, ("X",), (TrueF(),))',
]


@pytest.mark.parametrize("text", _MALFORMED)
def test_malformed_construction_is_refused(text):
    with pytest.raises(InvariantViolation) as ei:
        eval(text, vars(logic))
    assert type(ei.value) is InvariantViolation


def test_refusal_names_the_field_and_its_kind():
    with pytest.raises(InvariantViolation) as ei:
        Var("min")
    assert str(ei.value) == "Var.name must be a variable, got 'min'"
    assert logic._INT_DIGITS == 4300  # Python's default limit
    with pytest.raises(InvariantViolation) as ei:
        LindSO("L", INTERLEAVED, -10 ** 4300, ("X",), (TrueF(),))
    assert str(ei.value) == ("LindSO.arity must be an integer of at most "
                             "4300 digits, got an unprintable int")
    # the longest integer str() prints is accepted, and prints
    f = LindSO("L", INTERLEAVED, 10 ** 4300 - 1, ("X",), (TrueF(),))
    assert parse_formula(format_formula(f)) == f


_NAMES = st.sampled_from(["x", "Y", "_z0", "x'", "1", "a-b", "\u00e9"])
_SYMBOLS = st.sampled_from(["a", "#", "min", "$c", "Lexists",
                            "to_interleaved", "to_concatenated",
                            INTERLEAVED, CONCATENATED])
_TERM_VALUES = st.one_of(st.just(MIN), st.just(MAX), _NAMES.map(Var),
                         _SYMBOLS.map(ConstSym))
# Wrong types, and names the reader cannot read back as the same kind
_WRONG = [None, 5, True, 2.5, (), Var("x"), TrueF(), TrueF]
_BAD_SYMBOLS = ["", " ", "a b", "x(", "x)", "x;", "\n"]
_BAD = {"Formula": _WRONG + ["x"], "Term": _WRONG + ["x"],
        "Symbol": _WRONG + _BAD_SYMBOLS, "int": _WRONG + ["1", 1.0, 10 ** 4300, -10 ** 4300],
        "PosName": _WRONG + _BAD_SYMBOLS + ["min", "max", "$c", "$"]}
_BAD["RelName"] = _BAD["PosName"]


def _good(kind, formulas):
    """Values of the kind."""
    return {
        "Formula": formulas,
        "Formulas": st.lists(formulas, min_size=1, max_size=2).map(tuple),
        "Term": _TERM_VALUES,
        "Terms": st.lists(_TERM_VALUES, min_size=1, max_size=3).map(tuple),
        "PosName": _NAMES, "RelName": _NAMES,
        "PosNames": st.lists(_NAMES, min_size=1, max_size=3,
                             unique=True).map(tuple),
        "RelNames": st.lists(_NAMES, min_size=1, max_size=3,
                             unique=True).map(tuple),
        "Symbol": _SYMBOLS,
        "int": st.integers(-1, 3),
    }[kind]


@st.composite
def _constructions(draw, classes, formulas):
    """(class, field values) for a class drawn from classes: values of the
    fields' kinds, or all but one. That one holds a wrong value: for a tuple
    field, a list in its place, an empty tuple or one with a wrong item."""
    cls = draw(st.sampled_from(sorted(classes, key=lambda c: c.__name__)))
    specs = fields(cls)
    values = [draw(_good(f.kind, formulas)) for f in specs]
    if specs and draw(st.booleans()):
        i = draw(st.integers(0, len(specs) - 1))
        kind = specs[i].kind
        if kind in _BAD:
            values[i] = draw(st.sampled_from(_BAD[kind]))
        else:
            item = draw(st.sampled_from(_BAD[kind[:-1]]))
            values[i] = draw(st.sampled_from([
                list(values[i]), (), values[i] + (item,), (item,)]))
    return cls, tuple(values)


def _built(case):
    cls, values = case
    try:
        return cls(*values)
    except InvariantViolation:
        return logic.TrueF()


_ACCEPTED = st.recursive(
    st.sampled_from(_one_of_each()),
    lambda inner: _constructions(logic.FORMULA_CLASSES, inner).map(_built),
    max_leaves=6)


@settings(max_examples=400)
@given(case=_constructions(logic.FORMULA_CLASSES | logic.TERM_CLASSES,
                           _ACCEPTED))
def test_constructors_raise_only_invariant_violations(case):
    cls, values = case
    try:
        f = cls(*values)
    except InvariantViolation as e:
        assert type(e) is InvariantViolation
        return
    if cls in logic.TERM_CLASSES:
        f = Eq(f, f)
    # every node a constructor accepts prints as text that reads back
    assert parse_formula(format_formula(f)) == f


def test_a_non_formula_root_is_refused():
    for root in ("x", Var("x"), None, (logic.TrueF(),)):
        for walk in (format_formula, free_variables, logic.check_nesting,
                     logic.all_names, eliminate_min_max, q_star_to_q1,
                     lambda f: logic.rewrite(f, lambda node, rw: None),
                     lambda f: list(logic.walk_formulas(f)),
                     lambda f: fragment_check(f, "FO"),
                     lambda f: evaluate(S("a"), f),
                     lambda f: evaluate_reference(S("a"), f)):
            with pytest.raises(InvariantViolation) as ei:
                walk(root)
            assert str(ei.value) == f"not a formula: {root!r}"


@given(f=_formulas())
def test_format_parse_round_trip(f):
    text = format_formula(f)
    assert parse_formula(text) == f
    assert format_formula(parse_formula(text)) == text


def test_rewrite_is_top_down_and_rebuilds_what_fn_leaves():
    f = And(Not(Lt(Var("x"), MAX)), ExistsFO("y", Eq(Var("y"), MIN)))
    seen = []

    def fn(node, rw):
        seen.append(type(node).__name__)
        if type(node) is Lt:
            return Eq(node.left, node.right)
        return None
    assert logic.rewrite(f, fn) == \
        And(Not(Eq(Var("x"), MAX)), ExistsFO("y", Eq(Var("y"), MIN)))
    assert seen == ["And", "Not", "Lt", "ExistsFO", "Eq"]
    assert [type(g).__name__ for g in logic.walk_formulas(f)] == seen


def test_eliminate_min_max_names_equal_endpoints_once():
    g = eliminate_min_max(Lt(MIN, MIN))
    # two names are drawn, the atom reads only the first
    assert g.var == "_min0" and g.body.right.var == "_min1"
    assert g.body.right.body.right == Lt(Var("_min0"), Var("_min0"))


DEEP = 10 ** 4


def _deep_not():
    f = logic.TrueF()
    for _ in range(DEEP):
        f = Not(f)
    return f


def _long_and():
    f = Eq(Var("x"), Var("x"))
    for _ in range(DEEP - 1):
        f = And(f, Lt(MIN, Var("y")))
    return f


@pytest.mark.parametrize("make", [_deep_not, _long_and])
def test_deep_formulas_walk_or_refuse(make):
    f = make()
    assert sum(1 for _ in logic.walk_formulas(f)) >= DEEP
    fo, so = free_variables(f)
    assert so == set() and fo == ({"x", "y"} if type(f) is And else set())
    ok, _ = fragment_check(f, "FO")
    assert ok
    for refuse in (logic.check_nesting, eliminate_min_max,
                   lambda g: logic.rewrite(g, lambda node, rw: None),
                   lambda g: evaluate_reference(S("a"), g, {"x": 0, "y": 0}),
                   lambda g: induced_word(S("a"), {},
                                          LindFO("Lexists", ("z",), (g,)))):
        with pytest.raises(NestingCapExceeded):
            refuse(f)

