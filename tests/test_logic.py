import collections
import dataclasses
import itertools
import os
import random
import re

import pytest
from hypothesis import given, strategies as st

from wordlogic import logic, sexpr
from wordlogic.errors import (
    ArityMismatch,
    EmptyDomain,
    InstanceCapExceeded,
    InvariantViolation,
    NestingCapExceeded,
    NonConstantSignature,
    RankOutOfRange,
    UnboundVariable,
    UnknownFragment,
    UnknownLanguage,
    UnknownLetter,
    WordlogicError,
)
from wordlogic.generate import random_fo_formula, random_lindfo, random_lindso
from wordlogic.logic import (
    CONCATENATED,
    INTERLEAVED,
    MAX,
    MIN,
    And,
    ConstStructure,
    ConstSym,
    Eq,
    ExistsFO,
    ExistsSO,
    ForallFO,
    InRel,
    Letter,
    LindFO,
    LindSO,
    Lt,
    Not,
    Or,
    PlusAtom,
    SetTimes,
    ShuffleBit,
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
    set_code_value,
    set_from_code_value,
    structure_from_string,
)
from wordlogic.sexpr import format_formula, parse_formula

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


def test_set_codes():
    s = frozenset({(0,), (2,)})
    assert set_code_value(s, 3) == 0b101
    assert set_from_code_value(0b101, 3) == s


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
    n, k = 3, 2
    st = S("a" * n)
    for r in range(1 << (n * k)):
        inter = instance_unrank(r, n, k, INTERLEAVED)
        conc = instance_unrank(r, n, k, CONCATENATED)
        for i in range(k):
            for x in range(n):
                env = {"A": conc[0], "B": conc[1], "x": x}
                f = ShuffleBit("to_concatenated", i, k, Var("x"), ("A", "B"))
                assert evaluate(st, f, env) == ((x,) in inter[i])
                env = {"A": inter[0], "B": inter[1], "x": x}
                f = ShuffleBit("to_interleaved", i, k, Var("x"), ("A", "B"))
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


def test_eliminate_min_max():
    f = And(Lt(MIN, Var("x")), ExistsFO("y", Eq(Var("y"), MAX)))
    g = eliminate_min_max(f)
    for w in ["a", "ab", "bba"]:
        st = S(w)
        for x in range(len(w)):
            assert evaluate(st, f, {"x": x}) == evaluate(st, g, {"x": x})


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
-+-----+-------++--  (shuffle-bit to_interleaved 0 2 x (A B))
+++---++----+++++-+  (= $c1 x)
+++---++----+++++-+  (not (letter a x))
+++---++----+++++-+  (and (letter a x) (< x y))
+++---++----+++++-+  (or (= x min) (letter b x))
++----++----+++++-+  (exists x (letter a x))
++----++----+++++-+  (forall x (or (letter a x) (letter b x)))
-+-----+-------++--  (exists x (and (letter a x) (bit x x)))
-+-----+-------++--  (forall x (shuffle-bit to_concatenated 1 2 x (X Y)))
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
---------+---------  (Q1 Lexists 1 (X Y) (shuffle-bit to_interleaved 0 2 min (X Y)))
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


@st.composite
def _formulas(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("fo", "lindfo", "lindso", "chain", "chain",
                                 "chain")))
    if kind == "fo":
        return random_fo_formula(rng, ("y",), ("Y",), AB, depth=3)
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
        return type(e)


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


@given(f=_formulas(), data=st.data())
def test_evaluate_matches_reference(registry, f, data):
    """Same verdict or same error type, on n = 0..4, under every value of
    the free y, and with y or Y left unbound."""
    free_fo, _ = free_variables(f)
    for n in range(5):
        if data.draw(st.integers(0, 3)):
            struct = S("".join(data.draw(st.lists(st.sampled_from(AB),
                                                  min_size=n, max_size=n))))
        else:
            struct = ConstStructure.of(n, {})  # letter atoms raise here
        env = {}
        if data.draw(st.integers(0, 3)):
            env["Y"] = frozenset((j,) for j in range(n)
                                 if data.draw(st.booleans()))
        ys = range(n) if "y" in free_fo else ()
        for env in [env] + [{**env, "y": y} for y in ys]:
            fast = _outcome(evaluate, struct, f, env, registry=registry)
            slow = _outcome(evaluate_reference, struct, f, env,
                            registry=registry)
            assert fast == slow, (struct, env)


# ---------------------------------------------------------------------------
# Node tables and the traversals built on them

def _formula_classes():
    """Every dataclass logic defines, less terms and structures."""
    skip = set(logic.Term.__args__) | {StringStructure, ConstStructure}
    return {c for c in vars(logic).values()
            if isinstance(c, type) and dataclasses.is_dataclass(c)
            and c.__module__ == logic.__name__ and c not in skip}


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


def test_node_tables_cover_every_formula_class():
    samples = _one_of_each()
    classes = _formula_classes()
    assert {type(f) for f in samples} == classes
    for cls in classes:
        places = [cls in logic.SUBFORMULA_FIELDS, cls in logic.TERM_FIELDS,
                  cls in logic.LEAF_FORMULAS]
        assert places.count(True) == 1, cls
    for f in samples:
        if type(f) in logic.SUBFORMULA_FIELDS:
            assert logic.rebuild(f, logic.children(f)) == f
        else:
            assert logic.children(f) == ()
        if type(f) in logic.TERM_FIELDS:
            assert logic.with_terms(f, logic.terms(f)) == f
        else:
            assert logic.terms(f) == ()


def test_syntax_table_covers_every_formula_class():
    heads = collections.Counter(cls for cls, _ in sexpr._SYNTAX.values())
    assert heads == {cls: 2 if cls is LindSO else 1
                     for cls in _formula_classes()}
    for f in _one_of_each():
        assert parse_formula(format_formula(f)) == f


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

