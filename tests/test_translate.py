import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from wordlogic.algebra import Dfa, LanguageSpec
from wordlogic.errors import (
    ExponentCapExceeded,
    FragmentViolation,
    InvariantViolation,
    NestedUnsupported,
    NestingCapExceeded,
    NoNeutralLetter,
    NonConstantSignature,
    NonMonadicNode,
    UnknownLetter,
)
from wordlogic.logic import (
    CONCATENATED,
    INTERLEAVED,
    MAX,
    MIN,
    And,
    BitAtom,
    ConstSym,
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
    PlusAtom,
    SetTimes,
    TrueF,
    Var,
    all_names,
    evaluate,
    instance_rank,
    instance_unrank,
    string_structures,
    structure_from_string,
    walk_formulas,
)
from wordlogic.sexpr import format_formula, parse_formula
from wordlogic.translate import (
    arity_collapse,
    check_equivalence,
    const_rewrite,
    const_string,
    const_structures,
    const_unrewrite,
    exp_structure,
    exp_translate,
    exp_translate_rev,
    pad_string,
    pad_translate,
    q1_to_q_star,
    q_star_to_q1,
    subset_alphabet,
    subset_letter,
    tally_member,
    tally_translate_bwd,
    tally_translate_fwd,
)

AB = ("a", "b")


def x_in(X):
    return ExistsFO("x", InRel(X, (Var("x"),)))


# ---------------------------------------------------------------------------
# Ordering swap

def test_ordering_swap_round_trip_structural():
    f = LindSO("Lmod2", CONCATENATED, 1, ("X",), (x_in("X"),))
    g = q_star_to_q1(f)
    assert g.ordering == INTERLEAVED
    assert q1_to_q_star(g) == f


def test_ordering_swap_witness_codes():
    # the swap realizes the code permutation: the concatenated reading of
    # rank 2 at n=2, k=2 is rank 4
    sets = instance_unrank(2, 2, 2, INTERLEAVED)
    assert instance_rank(sets, 2, CONCATENATED) == 4
    assert instance_unrank(4, 2, 2, CONCATENATED) == sets


def test_ordering_swap_equivalent(registry):
    arg = ExistsFO("x", And(InRel("X", (Var("x"),)),
                            Not(InRel("Y", (Var("x"),)))))
    for lang, vars_ in [("Lmod2", ("X", "Y")), ("Maj", ("X",))]:
        use = arg if len(vars_) == 2 else x_in("X")
        f = LindSO(lang, CONCATENATED, 1, vars_, (use,))
        rep = check_equivalence(f, q_star_to_q1(f),
                                string_structures(AB, 3), registry=registry)
        assert rep.verdict == "equivalent-on-range", rep.render()


def test_ordering_swap_open_formula(registry):
    # a free set variable stays untouched and the check runs pointwise
    f = LindSO("Lexists", INTERLEAVED, 1, ("X",),
               (ExistsFO("x", And(InRel("X", (Var("x"),)),
                                  InRel("Z", (Var("x"),)))),))
    rep = check_equivalence(f, q1_to_q_star(f), string_structures(AB, 3),
                            registry=registry)
    assert rep.verdict == "equivalent-on-range", rep.render()


def test_ordering_swap_rejects_nonmonadic():
    f = LindSO("Lexists", CONCATENATED, 2, ("X",),
               (ExistsFO("x", InRel("X", (Var("x"), Var("x")))),))
    with pytest.raises(NonMonadicNode):
        q_star_to_q1(f)


def test_ordering_swap_rejects_set_arithmetic():
    f = LindSO("Lexists", CONCATENATED, 1, ("X",),
               (SetTimes("X", "X", "X"),))
    with pytest.raises(NestedUnsupported):
        q_star_to_q1(f)


# ---------------------------------------------------------------------------
# Arity collapse

def test_arity_collapse_majpad(registry):
    args = (x_in("X"), x_in("Y"))
    f = LindSO("MajPad", CONCATENATED, 1, ("X", "Y"), args)
    g = arity_collapse(f, registry)
    assert g.arity == 2 and len(g.vars) == 1
    rep = check_equivalence(f, g, string_structures(AB, 3, min_n=2),
                            registry=registry)
    assert rep.verdict == "equivalent-on-range", rep.render()


def test_arity_collapse_single_variable(registry):
    f = LindSO("Lmod2", CONCATENATED, 1, ("X",), (x_in("X"),))
    g = arity_collapse(f, registry)
    assert g.arity == 2  # one tag bit even for k = 1
    rep = check_equivalence(f, g, string_structures(AB, 3, min_n=2),
                            registry=registry)
    assert rep.verdict == "equivalent-on-range", rep.render()


def test_arity_collapse_needs_neutral(registry):
    f = LindSO("Maj", CONCATENATED, 1, ("X",), (x_in("X"),))
    with pytest.raises(NoNeutralLetter):
        arity_collapse(f, registry)
    # Lforall declares a neutral letter, but not as the last alphabet letter
    g = LindSO("Lforall", CONCATENATED, 1, ("X",), (x_in("X"),))
    with pytest.raises(NoNeutralLetter):
        arity_collapse(g, registry)


def test_arity_collapse_needs_outer_node(registry):
    with pytest.raises(FragmentViolation):
        arity_collapse(ExistsFO("x", Letter("a", Var("x"))), registry)


# ---------------------------------------------------------------------------
# Padding

def test_pad_string():
    assert pad_string("ab", 2, "#") == "ab##"
    assert pad_string("abc", 2, "#") == "abc" + "#" * 6
    assert pad_string("a", 3, "#") == "a"


def test_pad_translate_equivalent(registry):
    arg = ExistsFO("x", ExistsFO("y", And(Lt(Var("x"), Var("y")),
                                          InRel("X", (Var("x"), Var("y"))))))
    f = LindSO("Maj", CONCATENATED, 2, ("X",), (arg,))
    g, chi, mapper = pad_translate(f, AB)
    rep = check_equivalence(f, g, string_structures(AB, 3), registry=registry,
                            mapper=mapper, mapper_desc="pad to n^2")
    assert rep.verdict == "equivalent-on-range", rep.render()


def test_pad_chi_characterizes_padded_strings(registry):
    f = LindSO("Maj", CONCATENATED, 2, ("X",),
               (InRel("X", (Var("x"), Var("x"))),))
    f = LindSO("Maj", CONCATENATED, 2, ("X",), (x_in("X"),))
    _, chi, mapper = pad_translate(f, AB)
    import itertools
    padded = {mapper(st).word for st in string_structures(AB, 2)}
    full = ("a", "b", "#")
    for length in range(1, 5):
        for w in itertools.product(full, repeat=length):
            from wordlogic.logic import StringStructure
            st = StringStructure(full, w)
            assert evaluate(st, chi, registry=registry) == \
                ("".join(w) in padded), w


def test_pad_translate_fragment_guard(registry):
    with pytest.raises(FragmentViolation):
        pad_translate(ExistsFO("x", Letter("a", Var("x"))), AB)


# ---------------------------------------------------------------------------
# Tally translations

def test_tally_member(registry):
    spec = registry["Lexists"]
    # binary expansion of n is 1w; membership asks w to contain a one
    assert not tally_member(spec, 1)
    assert not tally_member(spec, 2)   # w = "0"
    assert tally_member(spec, 3)       # w = "1"
    assert tally_member(spec, 5)       # w = "01"
    assert not tally_member(spec, 4)   # w = "00"


def test_tally_fwd_equivalent(registry):
    args = [
        ExistsFO("x", Letter("1", Var("x"))),
        ForallFO("x", Letter("0", Var("x"))),
    ]
    for arg in args:
        f = LindSO("Lmod2", CONCATENATED, 1, ("X",),
                   (And(x_in("X"), arg),))
        g, mapper = tally_translate_fwd(f, registry)
        rep = check_equivalence(f, g, string_structures(("1", "0"), 3),
                                registry=registry, mapper=mapper,
                                mapper_desc="w -> 1^int(1w, 2)")
        assert rep.verdict == "equivalent-on-range", rep.render()


def test_tally_fwd_rejects_nonbinary(registry):
    f = LindSO("Lmod2", CONCATENATED, 1, ("X",),
               (ExistsFO("x", Letter("a", Var("x"))),))
    with pytest.raises(FragmentViolation):
        tally_translate_fwd(f, registry)


def test_tally_bwd_equivalent(registry):
    ones = ("1",)
    formulas = [
        ExistsFO("x", ExistsFO("y", Lt(Var("x"), Var("y")))),
        ExistsFO("x", ExistsFO("y", PlusAtom(Var("x"), Var("x"), Var("y")))),
        LindFO("Lmod2", ("x",), (ExistsFO("y", Lt(Var("y"), Var("x"))),)),
    ]
    for f in formulas:
        g, mapper = tally_translate_bwd(f, registry)
        rep = check_equivalence(f, g, string_structures(ones, 12),
                                registry=registry, mapper=mapper,
                                mapper_desc="1^n -> bin(n)")
        assert rep.verdict == "equivalent-on-range", rep.render()


def test_tally_bwd_rejects_arithmetic_views(registry):
    f = ExistsFO("x", BitAtom(Var("x"), Var("x")))
    with pytest.raises(FragmentViolation):
        tally_translate_bwd(f, registry)


# ---------------------------------------------------------------------------
# Constant signatures

def test_const_string_letters():
    from wordlogic.logic import ConstStructure
    st = ConstStructure.of(3, {"c1": 0, "c2": 2})
    s = const_string(st, ("c1", "c2"))
    assert s.word == "s1s0s2"


def test_const_counterexample_prints_the_structure():
    from wordlogic.logic import ConstStructure
    rep = check_equivalence(parse_formula("(= $c min)"), parse_formula("(true)"),
                            const_structures(("c",), 2))
    assert rep.verdict_line() == "verdict: counterexample <n=2 c=1> {}"
    assert str(ConstStructure.of(3, {"d": 0, "c": 2})) == "<n=3 c=2,d=0>"


def test_const_rewrite_equivalent():
    names = ("c1", "c2")
    formulas = [
        Lt(ConstSym("c1"), ConstSym("c2")),
        Eq(ConstSym("c1"), ConstSym("c2")),
        ExistsFO("x", And(Lt(ConstSym("c1"), Var("x")),
                          Lt(Var("x"), ConstSym("c2")))),
    ]
    for f in formulas:
        g, mapper = const_rewrite(f, names)
        rep = check_equivalence(f, g, const_structures(names, 4),
                                mapper=mapper, mapper_desc="subset letters")
        assert rep.verdict == "equivalent-on-range", rep.render()


def test_const_round_trip_equivalent():
    names = ("c1", "c2")
    f = ExistsFO("x", And(Lt(ConstSym("c1"), Var("x")),
                          Eq(Var("x"), ConstSym("c2"))))
    g, _ = const_rewrite(f, names)
    back = const_unrewrite(g, names)
    rep = check_equivalence(f, back, const_structures(names, 4))
    assert rep.verdict == "equivalent-on-range", rep.render()


def test_const_rewrite_rejects_letters():
    with pytest.raises(NonConstantSignature):
        const_rewrite(Letter("a", ConstSym("c1")), ("c1",))
    with pytest.raises(NonConstantSignature):
        const_rewrite(Eq(ConstSym("zz"), MAX), ("c1",))


def test_const_unrewrite_rejects_foreign_letters():
    with pytest.raises(NonConstantSignature):
        const_unrewrite(Letter("a", Var("x")), ("c1",))


@settings(max_examples=200)
@given(st.integers(0, 3), st.one_of(
    st.text(min_size=1, max_size=5), st.text(max_size=4).map("s".__add__),
    st.integers(0, 20).map(subset_letter)))
def test_const_unrewrite_reads_exactly_the_subset_letters(s, letter):
    names = tuple(f"c{i}" for i in range(s))
    for m in range(1 << s):
        g = const_unrewrite(Letter(subset_letter(m), Var("x")), names)
        assert not any(type(h) is Letter for h in walk_formulas(g))
    try:
        f = Letter(letter, Var("x"))
    except InvariantViolation:  # no name the reader reads
        return
    try:
        const_unrewrite(f, names)
    except NonConstantSignature:
        assert letter not in subset_alphabet(s)
    else:
        assert letter in subset_alphabet(s)


# ---------------------------------------------------------------------------
# Exponential universe

def test_exp_structure_codes():
    from wordlogic.logic import structure_from_string
    st = structure_from_string(AB, "aab")
    big = exp_structure(st)
    assert big.size == 8
    assert big.const("c_a") == 0b110
    assert big.const("c_b") == 0b001


def test_exp_structure_cap():
    from wordlogic.logic import structure_from_string
    with pytest.raises(ExponentCapExceeded) as ei:
        exp_structure(structure_from_string(AB, "a" * 6))
    assert ei.value.required == 6


def test_exp_translate_equivalent(registry):
    formulas = [
        ExistsFO("x", Letter("a", Var("x"))),
        LindSO("Lmod2", CONCATENATED, 1, ("X",),
               (ExistsFO("x", And(InRel("X", (Var("x"),)),
                                  Letter("b", Var("x")))),)),
    ]
    for f in formulas:
        g, mapper = exp_translate(f, AB)
        rep = check_equivalence(f, g, string_structures(AB, 4),
                                registry=registry, mapper=mapper,
                                mapper_desc="w -> <2^n; characteristic codes>")
        assert rep.verdict == "equivalent-on-range", rep.render()


def test_exp_translate_rev_equivalent(registry):
    # c_a = max says every position carries the letter a
    f = Eq(ConstSym("c_a"), MAX)
    g = exp_translate_rev(f, AB)
    rep = check_equivalence(g, f, string_structures(AB, 4),
                            registry=registry, mapper=exp_structure,
                            mapper_desc="w -> <2^n; characteristic codes>")
    assert rep.verdict == "equivalent-on-range", rep.render()
    h = exp_translate_rev(LindFO("Lexists", ("x",),
                                 (Lt(ConstSym("c_b"), Var("x")),)), AB)
    rep = check_equivalence(h, LindFO("Lexists", ("x",),
                                      (Lt(ConstSym("c_b"), Var("x")),)),
                            string_structures(AB, 4), registry=registry,
                            mapper=exp_structure,
                            mapper_desc="w -> <2^n; characteristic codes>")
    assert rep.verdict == "equivalent-on-range", rep.render()


# op -> (rewrite to (target, mapper), the range `translate --op` checks)
_CHECKED = {
    "pad": (lambda f, reg: pad_translate(f, AB)[::2],
            lambda: string_structures(AB, 3)),
    "tally-fwd": (tally_translate_fwd,
                  lambda: string_structures(("1", "0"), 3)),
    "tally-bwd": (tally_translate_bwd, lambda: string_structures("1", 3)),
    "arity-collapse": (lambda f, reg: (arity_collapse(f, reg), None),
                       lambda: string_structures(AB, 3, min_n=2)),
    "const-rewrite": (lambda f, reg: const_rewrite(f, ("c1",)),
                      lambda: const_structures(("c1",), 3)),
    # checked as its forward twin exp is
    "exp-rev": (lambda f, reg: (exp_translate_rev(f, AB), exp_structure),
                lambda: string_structures(AB, 3)),
}


# (op, a source holding the first name op draws, the name drawn instead)
_CAPTURES = [
    ("pad", "(Qstar Lexists 2 (X) (forall _mp0 (or (in X _mp0 _mp0) "
            "(letter a _mp0))))", "_mp1"),
    ("tally-fwd", "(Qstar Lexists 1 (X) (exists _min0 (and (in X _min0) "
                  "(< min _min0))))", "_min1"),
    # _min0u is the pin name of _min0
    ("tally-fwd", "(Qstar Lexists 1 (X) (exists _min0u (and (in X _min0u) "
                  "(< min _min0u))))", "_min1"),
    ("tally-bwd", "(exists _z0 (exists y (plus _z0 _z0 y)))", "_z1"),
    ("arity-collapse", "(Qstar Lmod2 1 (X) (existsSO _R0 (exists x "
                       "(and (in X x) (in _R0 x)))))", "_R1"),
    ("const-rewrite", "(exists _y0 (< $c1 _y0))", "_y1"),
    # _z0 is drawn, then _u1 is skipped
    ("exp-rev", "(Q Lexists (_u1) (< $c_a _u1))", "_u2"),
]


@pytest.mark.parametrize("op, source, fresh", _CAPTURES, ids=[
    op + " " + re.search(r"_\w+", source).group()
    for op, source, _ in _CAPTURES])
def test_fresh_names_skip_the_source_names(registry, op, source, fresh):
    # the source binds the first name the rewrite would draw, around the
    # atoms it rewrites: reusing that name would capture them
    rewrite, structures = _CHECKED[op]
    f = parse_formula(source, registry)
    g, mapper = rewrite(f, registry)
    pair = (g, f) if op == "exp-rev" else (f, g)
    rep = check_equivalence(*pair, structures(), registry=registry,
                            mapper=mapper)
    assert rep.verdict == "equivalent-on-range", rep.render()
    assert fresh in all_names(g) and fresh not in all_names(f)


def test_exp_translate_rev_fragment_guard():
    with pytest.raises(FragmentViolation):
        exp_translate_rev(ExistsFO("x", Eq(Var("x"), MAX)), AB)


# ---------------------------------------------------------------------------
# Reports

def test_check_equivalence_counterexample(registry):
    f = ExistsFO("x", Letter("a", Var("x")))
    g = ForallFO("x", Letter("a", Var("x")))
    rep = check_equivalence(f, g, string_structures(AB, 2),
                            registry=registry)
    assert rep.verdict == "counterexample"
    assert rep.verdict_line().startswith("verdict: counterexample")
    assert "source:" in rep.render() and "verdict:" in rep.render()


def test_check_equivalence_rejects_open_with_mapper(registry):
    f = Letter("a", Var("x"))
    with pytest.raises(InvariantViolation):
        check_equivalence(f, f, string_structures(AB, 2),
                          registry=registry, mapper=lambda s: s)


# ---------------------------------------------------------------------------
# Depth and input guards

def test_pad_refuses_nested_generalized_quantifier():
    # the nested node would be left over the unpadded universe
    inner = LindFO("Lexists", ("y",), (InRel("X", (Var("y"), Var("y"))),))
    f = LindSO("Lexists", CONCATENATED, 2, ("X",), (inner,))
    with pytest.raises(FragmentViolation):
        pad_translate(f, AB)


def test_tally_fwd_mapper_refuses_foreign_letters(registry):
    f = LindSO("Lmod2", CONCATENATED, 1, ("X",), (x_in("X"),))
    _, mapper = tally_translate_fwd(f, registry)
    assert mapper(structure_from_string(("1", "0"), "10")).size == 6
    with pytest.raises(UnknownLetter):
        mapper(structure_from_string(AB, "ab"))


# declares 0 neutral, though it accepts the words of even length
_EVEN = LanguageSpec("Leven", ("1", "0"), Dfa(
    ("e", "o"), ("1", "0"), ((1, 1), (0, 0)), 0, frozenset({0})),
    declared_neutral="0")
# five letters, so the check stops short of the table cap; e is declared
# neutral, though a word ending in e is rejected
_ENDS_A = LanguageSpec("EndsA", tuple("abcde"), Dfa(
    ("p", "q"), tuple("abcde"), ((1, 0, 0, 0, 0),) * 2, 0, frozenset({1})),
    declared_neutral="e")
_SHUFFLED = "(Qstar Lmod2 1 (X) (shuffle-bit to_interleaved 0 1 min (X)))"
_BINARY = "(Qstar Lmod2 1 (X) (exists x (in X x x)))"

# (id, call on the registry, error class, message)
_REFUSALS = [
    ("arity-collapse-permutation",
     lambda reg: arity_collapse(parse_formula(_SHUFFLED), reg),
     NestedUnsupported, "bound variables feed a permutation atom"),
    ("swap-relation-arity", lambda reg: q_star_to_q1(parse_formula(_BINARY)),
     NonMonadicNode, "relation 'X' used with arity 2"),
    ("swap-incompatible-permutation",
     lambda reg: q_star_to_q1(parse_formula(_SHUFFLED)),
     NestedUnsupported, "bound variables feed an incompatible permutation atom"),
    ("arity-collapse-not-neutral", lambda reg: arity_collapse(
        LindSO("Leven", CONCATENATED, 1, ("X",), (x_in("X"),)),
        {"Leven": _EVEN}),
     NoNeutralLetter, "Leven: letter '0' fails the bounded neutrality check"),
    ("arity-collapse-relation-arity",
     lambda reg: arity_collapse(parse_formula(_BINARY), reg),
     InvariantViolation, "relation 'X' used with arity 2, expected 1"),
    ("pad-letter-in-alphabet", lambda reg: pad_translate(
        LindSO("Lmod2", CONCATENATED, 1, ("X",), (x_in("X"),)), ("a", "#")),
     InvariantViolation, "pad letter must be outside the base alphabet"),
    ("tally-fwd-fragment", lambda reg: tally_translate_fwd(
        parse_formula("(exists x (plus x x x))"), reg),
     FragmentViolation, "PlusAtom is not allowed in SOM(Qstar)"),
    ("tally-bwd-fragment", lambda reg: tally_translate_bwd(
        parse_formula("(existsSO X (exists x (in X x)))"), reg),
     FragmentViolation, "ExistsSO is not allowed in FO(QL)+arith"),
    ("tally-bwd-letter", lambda reg: tally_translate_bwd(
        parse_formula("(exists x (letter a x))"), reg),
     FragmentViolation, "letter 'a' outside the unary alphabet"),
    ("tally-bwd-term", lambda reg: tally_translate_bwd(
        parse_formula("(exists x (< $c x))"), reg),
     FragmentViolation, "unsupported term $c in (< $c x)"),
    ("tally-bwd-atom", lambda reg: tally_translate_bwd(
        parse_formula("(exists x (bit x x))"), reg),
     FragmentViolation, "(bit x x) has no counterpart here"),
    ("tally-bwd-not-neutral", lambda reg: tally_translate_bwd(
        LindFO("Leven", ("x",), (Eq(Var("x"), Var("x")),)),
        {"Leven": _EVEN}),
     NoNeutralLetter, "Leven: letter '0' fails the bounded neutrality check"),
    ("arity-collapse-not-neutral-five-letters", lambda reg: arity_collapse(
        LindSO("EndsA", CONCATENATED, 1, ("X",), (x_in("X"),) * 4),
        {"EndsA": _ENDS_A}),
     NoNeutralLetter, "EndsA: letter 'e' fails the bounded neutrality check"),
    ("exp-fragment", lambda reg: exp_translate(
        parse_formula("(exists x (plus x x x))"), AB),
     FragmentViolation, "PlusAtom is not allowed in SOM(Qstar)"),
    ("exp-letter", lambda reg: exp_translate(
        parse_formula("(exists x (letter c x))"), AB),
     FragmentViolation, "letter 'c' outside the alphabet ('a', 'b')"),
    ("exp-rev-constant", lambda reg: exp_translate_rev(
        parse_formula("(= $c_z max)"), AB),
     FragmentViolation, "unknown constant 'c_z'"),
    ("exp-rev-construct", lambda reg: exp_translate_rev(
        parse_formula("(letter a x)"), AB),
     FragmentViolation, "unsupported construct (letter a x)"),
    ("const-repeated-name", lambda reg: const_rewrite(
        parse_formula("(= $c $c)"), ("c", "c")),
     InvariantViolation, "duplicate constant name 'c'"),
    ("const-empty-name", lambda reg: const_rewrite(
        parse_formula("(= $c $d)"), ("c", "", "d")),
     InvariantViolation, "empty constant name"),
    ("const-unrewrite-repeated-name", lambda reg: const_unrewrite(
        parse_formula("(exists x (letter s1 x))"), ("c", "d", "c")),
     InvariantViolation, "duplicate constant name 'c'"),
    # a subset letter of s constants is s0 .. s(2^s - 1), printed as such
    ("const-unrewrite-superscript-digit", lambda reg: const_unrewrite(
        parse_formula("(letter s² x)"), ("c",)),
     NonConstantSignature, "letter 's²' is not a subset letter s0 .. s1"),
    ("const-unrewrite-past-the-constants", lambda reg: const_unrewrite(
        parse_formula("(letter s5 x)"), ("c",)),
     NonConstantSignature, "letter 's5' is not a subset letter s0 .. s1"),
    ("const-unrewrite-leading-zero", lambda reg: const_unrewrite(
        parse_formula("(letter s01 x)"), ("c", "d")),
     NonConstantSignature, "letter 's01' is not a subset letter s0 .. s3"),
    ("const-unrewrite-no-constants", lambda reg: const_unrewrite(
        parse_formula("(letter s1 x)"), ()),
     NonConstantSignature, "letter 's1' is not a subset letter s0 .. s0"),
    ("const-unrewrite-other-prefix", lambda reg: const_unrewrite(
        parse_formula("(letter t1 x)"), ("c",)),
     NonConstantSignature, "letter 't1' is not a subset letter s0 .. s1"),
]


@pytest.mark.parametrize("call,error,message", [r[1:] for r in _REFUSALS],
                         ids=[r[0] for r in _REFUSALS])
def test_refusals_are_typed(registry, call, error, message):
    with pytest.raises(error) as exc:
        call(registry)
    assert type(exc.value) is error and str(exc.value) == message


def test_exp_translate_rev_reads_min_and_the_connectives(registry):
    # min is the empty set; (= min $c_a) says no position carries an a
    f = Or(Not(Eq(MIN, ConstSym("c_a"))),
           And(TrueF(), Or(FalseF(), Lt(ConstSym("c_b"), MAX))))
    g = exp_translate_rev(f, AB)
    rep = check_equivalence(g, f, string_structures(AB, 4),
                            registry=registry, mapper=exp_structure,
                            mapper_desc="w -> <2^n; characteristic codes>")
    assert rep.verdict == "equivalent-on-range", rep.render()


# (id, rewrite of a sentence to the target it prints) for the golden below
_TARGETS = [
    ("pad-arity-1", lambda reg: pad_translate(parse_formula(
        "(Qstar Lmod2 1 (X) (exists x (and (in X x) (letter a x))))"),
        AB)[0]),
    ("pad-arity-2", lambda reg: pad_translate(parse_formula(
        "(Qstar Maj 2 (X) (exists x (forall y (or (in X x y) (< y x)))))"),
        AB)[0]),
    ("pad-arity-3", lambda reg: pad_translate(parse_formula(
        "(Qstar Lmod2 3 (X) (exists x (in X x max min)))"), AB)[0]),
    ("tally-fwd-existsSO", lambda reg: tally_translate_fwd(parse_formula(
        "(existsSO Y (Qstar Lmod2 1 (X) (forall x (or (in Y x) "
        "(and (in X x) (letter 0 x))))))"), reg)[0]),
    ("tally-fwd-two-variables", lambda reg: tally_translate_fwd(parse_formula(
        "(Qstar Lexists 1 (X Y) (exists x (and (in X x) "
        "(and (not (in Y x)) (letter 1 x)))))"), reg)[0]),
    ("exp-existsSO", lambda reg: exp_translate(parse_formula(
        "(existsSO Y (Qstar Lmod2 1 (X) (exists x (and (in X x) "
        "(or (in Y x) (letter b x))))))"), AB)[0]),
    ("tally-bwd", lambda reg: tally_translate_bwd(parse_formula(
        "(forall x (Q Lexists (y) (and (< y x) (plus y y x))))"), reg)[0]),
    ("exp-rev", lambda reg: exp_translate_rev(parse_formula(
        "(Q Lexists (x) (or (< $c_a x) (= x $c_b)))"), AB)),
    ("const-rewrite", lambda reg: const_rewrite(parse_formula(
        "(forall x (or (= x $c1) (< $c2 x)))"), ("c1", "c2"))[0]),
    ("const-unrewrite", lambda reg: const_unrewrite(parse_formula(
        "(exists x (and (letter s1 x) (not (letter s3 x))))"),
        ("c1", "c2"))),
    ("qstar-to-q1", lambda reg: q_star_to_q1(parse_formula(
        "(Qstar Lmod2 1 (X Y) (exists x (and (in X x) (not (in Y x)))))"))),
    ("q1-to-qstar", lambda reg: q1_to_q_star(parse_formula(
        "(Q1 Lmod2 1 (X Y) (exists x (and (in X x) (in Y x))))"))),
    ("arity-collapse", lambda reg: arity_collapse(parse_formula(
        "(Qstar Lmod2 1 (X Y) (exists x (and (in X x) (not (in Y x)))))"),
        reg)),
]


def test_printed_targets_match_golden(registry):
    # pins every fresh name and its order, which equivalence cannot see
    path = os.path.join(os.path.dirname(__file__), "data", "golden",
                        "translate_targets.txt")
    with open(path) as fh:
        want = fh.read()
    got = "".join(f"{name}: {format_formula(call(registry))}\n"
                  for name, call in _TARGETS)
    assert got == want


def _deep(kind):
    if kind == "not":
        f = Eq(Var("x"), MIN)
        for _ in range(10 ** 4):
            f = Not(f)
        return f
    f = TrueF()
    for _ in range(10 ** 4 - 1):
        f = And(f, Lt(MIN, Var("x")))
    return f


def _qstar(body):
    return LindSO("Lmod2", CONCATENATED, 1, ("X",), (And(x_in("X"), body),))


REWRITERS = {
    "qstar-to-q1": lambda f, reg: q_star_to_q1(_qstar(f)),
    "q1-to-qstar": lambda f, reg: q1_to_q_star(f),
    "arity-collapse": lambda f, reg: arity_collapse(_qstar(f), reg),
    "pad": lambda f, reg: pad_translate(_qstar(f), AB),
    "tally-fwd": lambda f, reg: tally_translate_fwd(_qstar(f), reg),
    "tally-bwd": lambda f, reg: tally_translate_bwd(f, reg),
    "const-rewrite": lambda f, reg: const_rewrite(f, ("c1",)),
    "const-unrewrite": lambda f, reg: const_unrewrite(f, ("c1",)),
    "exp": lambda f, reg: exp_translate(_qstar(f), AB),
    "exp-rev": lambda f, reg: exp_translate_rev(f, AB),
}


@pytest.mark.parametrize("kind", ["not", "and"])
@pytest.mark.parametrize("op", sorted(REWRITERS))
def test_rewriters_refuse_deep_formulas(registry, op, kind):
    # 10^4 levels pass every guard but depth; none may exhaust the stack
    with pytest.raises(NestingCapExceeded):
        REWRITERS[op](_deep(kind), registry)

