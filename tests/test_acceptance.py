"""Acceptance gate: one test (or test group) per release criterion.

Bulk sweeps use vectorized twins of the library algorithms so the full
ranges stay fast, and every sweep is anchored by spot checks that call
the real library entry points on sampled inputs.
"""

import itertools
import random

import numpy as np

from wordlogic.algebra import (
    Cfg,
    Dfa,
    brute_force_bracketings,
    cfg_to_groupoid,
    cyk_member,
    groupoid_reachable,
    language_member,
    regular_to_monoid,
    word_problem_member,
)
from wordlogic.builtins import Z2, majority_grammar
from wordlogic.generate import random_fo_formula, random_lindso, random_magma
from wordlogic.leafauto import LeafAutomaton, leaf_count, leaf_string, leaffa_member
from wordlogic.logic import (
    CONCATENATED,
    INTERLEAVED,
    MIN,
    And,
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
    StringStructure,
    TimesAtom,
    Var,
    evaluate,
    iff,
    implies,
    induced_word,
    instance_rank,
    instance_unrank,
    string_structures,
    structure_from_string,
)
from wordlogic.translate import (
    arity_collapse,
    check_equivalence,
    const_rewrite,
    const_structures,
    const_unrewrite,
    exp_structure,
    exp_translate,
    exp_translate_rev,
    pad_translate,
    q1_to_q_star,
    q_star_to_q1,
    tally_translate_bwd,
    tally_translate_fwd,
)

AB = ("a", "b")
BIN = ("1", "0")


def equivalent(f, g, structures, registry, **kw):
    rep = check_equivalence(f, g, structures, registry=registry, **kw)
    assert rep.verdict == "equivalent-on-range", rep.render()
    return rep


# ---------------------------------------------------------------------------
# 1. Reachable-products DP against exhaustive bracketing enumeration

def _vector_dp_masks(table, max_len):
    """Reach masks for every word of every length, by the same split
    recurrence as groupoid_reachable but across all words at once."""
    g = len(table)
    row_mask = [[0] * (1 << g) for _ in range(g)]
    for i in range(g):
        for m in range(1 << g):
            acc = 0
            for j in range(g):
                if (m >> j) & 1:
                    acc |= 1 << table[i][j]
            row_mask[i][m] = acc
    combine = np.zeros((1 << g, 1 << g), dtype=np.uint32)
    for m1 in range(1 << g):
        for i in range(g):
            if (m1 >> i) & 1:
                combine[m1] |= np.array(row_mask[i], dtype=np.uint32)
    R = {1: np.array([1 << i for i in range(g)], dtype=np.uint32)}
    for L in range(2, max_len + 1):
        acc = np.zeros(g ** L, dtype=np.uint32)
        for l in range(1, L):
            left = np.repeat(R[l], g ** (L - l))
            right = np.tile(R[L - l], g ** l)
            acc |= combine[left, right]
        R[L] = acc
    return R


def _vector_brute_masks(table, max_len):
    """Union over every bracketing shape of the shape's fold result,
    for every word at once; shape arrays are shared across words."""
    g = len(table)
    T = np.array(table, dtype=np.uint8)
    shapes = {1: [np.arange(g, dtype=np.uint8)]}
    acc_all = {1: np.array([1 << i for i in range(g)], dtype=np.uint32)}
    for L in range(2, max_len + 1):
        acc = np.zeros(g ** L, dtype=np.uint32)
        keep = []
        for l in range(1, L):
            for left in shapes[l]:
                for right in shapes[L - l]:
                    res = T[np.repeat(left, g ** (L - l)),
                            np.tile(right, g ** l)]
                    acc |= np.left_shift(np.uint32(1), res.astype(np.uint32))
                    if L < max_len:
                        keep.append(res)
        shapes[L] = keep
        acc_all[L] = acc
    return acc_all


def test_criterion_1_groupoid_dp_vs_bracketings(g4):
    rng = random.Random(101)
    magmas = [g4, Z2] + [random_magma(rng) for _ in range(10)]
    for m in magmas:
        g = m.size
        dp = _vector_dp_masks(m.table, 8)
        brute = _vector_brute_masks(m.table, 8)
        for L in range(1, 9):
            assert np.array_equal(dp[L], brute[L]), (m.name, L)
        # anchor the sweep: the library functions agree with the masks
        # on sampled words of every length
        for L in range(1, 9):
            for _ in range(3):
                word = tuple(rng.randrange(g) for _ in range(L))
                idx = 0
                for x in word:
                    idx = idx * g + x
                want = frozenset(i for i in range(g)
                                 if (int(dp[L][idx]) >> i) & 1)
                assert frozenset(groupoid_reachable(m, word)) == want
                assert frozenset(brute_force_bracketings(m, word)) == want


# ---------------------------------------------------------------------------
# 2. Grammar-to-groupoid construction

def _parens_cfg():
    # balanced nonempty parenthesis strings, CNF
    return Cfg.from_rules(
        ("S", "L", "R", "T", "U"), ("(", ")"),
        [("S", ("L", "R")), ("S", ("L", "T")), ("S", ("S", "S")),
         ("T", ("S", "R")), ("S", ("U", "U")),
         ("L", "("), ("R", ")")], "S")


def _parens_ok(w):
    depth = 0
    for c in w:
        depth += 1 if c == "(" else -1
        if depth < 0:
            return False
    return depth == 0 and len(w) > 0


def _anbn_cfg():
    return Cfg.from_rules(
        ("S", "A", "B", "T"), ("a", "b"),
        [("S", ("A", "T")), ("S", ("A", "B")), ("T", ("S", "B")),
         ("A", "a"), ("B", "b")], "S")


def test_criterion_2_cfg_groupoid():
    for cfg, alphabet, direct in [
        (_parens_cfg(), "()", _parens_ok),
        (_anbn_cfg(), "ab",
         lambda w: len(w) > 0 and "".join(w) ==
         "a" * (len(w) // 2) + "b" * (len(w) - len(w) // 2) and
         len(w) % 2 == 0),
        (majority_grammar(), "10", lambda w: 2 * w.count("1") > len(w)),
    ]:
        wp, hom = cfg_to_groupoid(cfg)
        for length in range(0, 11):
            for w in itertools.product(alphabet, repeat=length):
                want = cyk_member(cfg, w)
                assert want == direct(w), w
                assert word_problem_member(wp, [hom[a] for a in w]) == want, w


# ---------------------------------------------------------------------------
# 3. Transition-monoid construction

def _parity_dfa():
    return Dfa(("even", "odd"), BIN, ((1, 0), (0, 1)), 0, frozenset({0}))


def test_criterion_3_transition_monoids(registry, data_dir):
    import os

    from wordlogic.formats import parse_dfa
    with open(os.path.join(data_dir, "ends_a.dfa")) as fh:
        ends_a, _ = parse_dfa(fh.read())
    starts1 = Dfa(("s", "y", "n"), BIN, ((1, 2), (1, 1), (2, 2)), 0,
                  frozenset({1}))
    dfas = [registry["Lexists"].body, registry["Lforall"].body,
            _parity_dfa(), ends_a, starts1]
    for dfa in dfas:
        wp, hom = regular_to_monoid(dfa)
        assert wp.associative
        for length in range(0, 11):
            for w in itertools.product(dfa.alphabet, repeat=length):
                assert word_problem_member(wp, [hom[a] for a in w]) == \
                    dfa.run(w), w


# ---------------------------------------------------------------------------
# 4 and 5. Quantifier semantics against native quantifiers and the
# induced-word definition

def _suite(count=100):
    rng = random.Random(2024)
    return [random_fo_formula(rng, ("x",), (), AB, depth=2)
            for _ in range(count)]


def test_criterion_4_quantifiers_vs_native(registry):
    formulas = _suite()
    structures = list(string_structures(AB, 5))
    for arg in formulas:
        qe = LindFO("Lexists", ("x",), (arg,))
        qa = LindFO("Lforall", ("x",), (arg,))
        qp = LindFO("Lmod2", ("x",), (arg,))
        for st in structures:
            vals = [evaluate(st, arg, {"x": i}, registry=registry)
                    for i in range(st.size)]
            assert evaluate(st, qe, registry=registry) == any(vals)
            assert evaluate(st, qa, registry=registry) == all(vals)
            assert evaluate(st, qp, registry=registry) == \
                (sum(vals) % 2 == 0)


def test_criterion_5_induced_word_oracle(registry):
    formulas = _suite()
    structures = list(string_structures(AB, 5))
    for arg in formulas:
        for lang in ("Lexists", "Lforall", "Lmod2"):
            node = LindFO(lang, ("x",), (arg,))
            for st in structures:
                direct = evaluate(st, node, registry=registry)
                word = induced_word(st, {}, node, registry=registry)
                assert direct == language_member(registry[lang], word)


def test_criterion_5_rank_unrank_bijection():
    for n in range(1, 17):
        for k in range(1, 17):
            if n * k > 16:
                continue
            bits = n * k
            for ordering in (INTERLEAVED, CONCATENATED):
                for r in range(1 << bits):
                    sets = instance_unrank(r, n, k, ordering)
                    assert instance_rank(sets, n, ordering) == r
                # distinctness follows from rank inverting unrank on the
                # full range, since the domain sizes match exactly


# ---------------------------------------------------------------------------
# 6. Ordering swap on seeded random formulas

def test_criterion_6_ordering_swap_random(registry):
    rng = random.Random(77)
    structures = list(string_structures(AB, 3))
    for lang in ("Maj", "Lmod2", "Lexists"):
        for i in range(20):
            k = 1 + (i % 2)
            ordering = CONCATENATED if i % 4 < 2 else INTERLEAVED
            f = random_lindso(rng, lang, 1, ordering, AB, k=k)
            g = q_star_to_q1(f) if ordering == CONCATENATED else q1_to_q_star(f)
            equivalent(f, g, structures, registry)


# ---------------------------------------------------------------------------
# 7. Interleaved and concatenated codes agree on symmetric languages

def test_criterion_7_symmetric_orderings_agree(registry):
    rng = random.Random(78)
    structures = list(string_structures(AB, 3))
    for lang in ("Maj", "Lmod2"):
        for i in range(10):
            k = 1 + (i % 2)
            vars_ = tuple(f"X{j}" for j in range(k))
            arg = random_fo_formula(rng, (), vars_, AB, depth=2)
            f1 = LindSO(lang, INTERLEAVED, 1, vars_, (arg,))
            f2 = LindSO(lang, CONCATENATED, 1, vars_, (arg,))
            equivalent(f1, f2, structures, registry)


# ---------------------------------------------------------------------------
# 8. Arity collapse

def x_in(X):
    return ExistsFO("x", InRel(X, (Var("x"),)))


def _collapse_sentences():
    a_and = And(x_in("X"), ExistsFO("x", Letter("a", Var("x"))))
    sub = ExistsFO("x", And(InRel("X", (Var("x"),)),
                            Not(InRel("Y", (Var("x"),)))))
    first = InRel("X", (MIN,))
    return [
        LindSO("Lmod2", CONCATENATED, 1, ("X",), (x_in("X"),)),
        LindSO("Lmod2", CONCATENATED, 1, ("X",), (a_and,)),
        LindSO("Lmod2", CONCATENATED, 1, ("X", "Y"), (sub,)),
        LindSO("Lexists", CONCATENATED, 1, ("X",), (x_in("X"),)),
        LindSO("Lexists", CONCATENATED, 1, ("X", "Y"), (sub,)),
        LindSO("Lexists", CONCATENATED, 1, ("X",), (first,)),
        LindSO("LmodOdd", CONCATENATED, 1, ("X",), (x_in("X"),)),
        LindSO("LmodOdd", CONCATENATED, 1, ("X", "Y"), (sub,)),
        LindSO("MajPad", CONCATENATED, 1, ("X", "Y"),
               (x_in("X"), x_in("Y"))),
        LindSO("MajPad", CONCATENATED, 1, ("X",),
               (x_in("X"), Not(x_in("X")))),
    ]


def test_criterion_8_arity_collapse(registry):
    sentences = _collapse_sentences()
    assert len(sentences) >= 10
    for f in sentences:
        g = arity_collapse(f, registry)
        rep = equivalent(f, g, string_structures(AB, 3, min_n=2), registry,
                         notes=("domain size 1 outside validated range",))
        assert any("size 1" in note for note in rep.notes)


# ---------------------------------------------------------------------------
# 9. Padding translation, k = 2

def _pad_sentences():
    def rel(x, y):
        return InRel("X", (Var(x), Var(y)))

    diag = ExistsFO("x", rel("x", "x"))
    off = ExistsFO("x", ExistsFO("y", And(Lt(Var("x"), Var("y")),
                                          rel("x", "y"))))
    refl = ForallFO("x", rel("x", "x"))
    sym = ForallFO("x", ForallFO("y", implies(rel("x", "y"), rel("y", "x"))))
    lettered = ExistsFO("x", ExistsFO("y", And(rel("x", "y"),
                                               Letter("a", Var("x")))))
    out = []
    for lang in ("Maj", "Lmod2", "Lexists"):
        for arg in (diag, off, refl):
            out.append(LindSO(lang, CONCATENATED, 2, ("X",), (arg,)))
    out.append(LindSO("Lmod2", CONCATENATED, 2, ("X",), (sym,)))
    out.append(LindSO("Lexists", CONCATENATED, 2, ("X",), (lettered,)))
    return out


def test_criterion_9_pad_translate(registry):
    sentences = _pad_sentences()
    assert len(sentences) >= 10
    for f in sentences:
        g, chi, mapper = pad_translate(f, AB)
        equivalent(f, g, string_structures(AB, 3), registry,
                   mapper=mapper, mapper_desc="pad to length n^2")


def test_criterion_9_chi_rejects_nonpadded(registry):
    f = LindSO("Maj", CONCATENATED, 2, ("X",), (x_in("X"),))
    _, chi, mapper = pad_translate(f, AB)
    padded = {mapper(st).word for st in string_structures(AB, 3)}
    full = AB + ("#",)
    for length in range(1, 10):
        for w in itertools.product(full, repeat=length):
            st = StringStructure(full, w)
            assert evaluate(st, chi, registry=registry) == \
                ("".join(w) in padded), w


# ---------------------------------------------------------------------------
# 10. Tally translations and set arithmetic

def _tally_fwd_sentences():
    one = Letter("1", Var("x"))
    zero = Letter("0", Var("x"))
    xin = ExistsFO("x", And(InRel("X", (Var("x"),)), one))
    sub = ExistsFO("x", And(InRel("X", (Var("x"),)),
                            Not(InRel("Y", (Var("x"),)))))
    return [
        LindSO("Lmod2", CONCATENATED, 1, ("X",), (xin,)),
        LindSO("Lexists", CONCATENATED, 1, ("X",),
               (ForallFO("x", implies(InRel("X", (Var("x"),)), zero)),)),
        LindSO("Lexists", CONCATENATED, 1, ("X", "Y"), (sub,)),
        LindSO("Lmod2", CONCATENATED, 1, ("X",),
               (And(x_in("X"), ForallFO("x",
                    implies(InRel("X", (Var("x"),)), zero))),)),
        ExistsSO("Y", ForallFO("x", iff(InRel("Y", (Var("x"),)), one))),
        ExistsSO("Y", And(x_in("Y"), ForallFO(
            "x", implies(InRel("Y", (Var("x"),)), one)))),
        ExistsFO("x", one),
        ForallFO("x", Or(one, zero)),
        ExistsFO("x", ExistsFO("y", And(Lt(Var("x"), Var("y")),
                                        And(one, Letter("0", Var("y")))))),
        ForallFO("x", one),
    ]


def test_criterion_10_tally_forward(registry):
    sentences = _tally_fwd_sentences()
    assert len(sentences) >= 10
    for f in sentences:
        g, mapper = tally_translate_fwd(f, registry)
        equivalent(f, g, string_structures(BIN, 4), registry,
                   mapper=mapper, mapper_desc="w -> 1^n with bin(n) = 1w")


def _tally_bwd_sentences():
    x, y, z = Var("x"), Var("y"), Var("z")
    return [
        ExistsFO("x", ExistsFO("y", Lt(x, y))),
        ExistsFO("x", ForallFO("y", Not(Lt(x, y)))),
        ExistsFO("x", ExistsFO("y", PlusAtom(x, x, y))),
        ExistsFO("x", ExistsFO("z", And(PlusAtom(x, x, z), Lt(x, z)))),
        ExistsFO("x", ExistsFO("y", TimesAtom(x, y, x))),
        ExistsFO("x", ExistsFO("y", And(TimesAtom(x, x, y), Lt(x, y)))),
        ForallFO("x", Eq(x, x)),
        LindFO("Lmod2", ("x",), (ExistsFO("y", Lt(y, x)),)),
        LindFO("Lexists", ("x",), (PlusAtom(x, x, x),)),
        ExistsFO("x", Letter("1", x)),
    ]


def test_criterion_10_tally_backward(registry):
    unary = [StringStructure(("1",), ("1",) * n) for n in range(1, 17)]
    for f in _tally_bwd_sentences():
        g, mapper = tally_translate_bwd(f, registry)
        equivalent(f, g, unary, registry,
                   mapper=mapper, mapper_desc="1^n -> bin(n)")


def test_criterion_10_set_arithmetic_vs_integers(registry):
    # open arithmetic atoms translate to set formulas; compare against
    # integer arithmetic on the msb-first codes, exhaustively per width
    plus_f, _ = tally_translate_bwd(PlusAtom(Var("x"), Var("y"), Var("z")),
                                    registry)
    times_f, _ = tally_translate_bwd(TimesAtom(Var("x"), Var("y"), Var("z")),
                                     registry)
    lt_f, _ = tally_translate_bwd(Lt(Var("x"), Var("y")), registry)
    eq_f, _ = tally_translate_bwd(Eq(Var("x"), Var("y")), registry)
    for n in range(1, 5):
        st = StringStructure(BIN, ("1",) * n)
        subsets = [frozenset((j,) for j in range(n) if (m >> j) & 1)
                   for m in range(1 << n)]
        for sx in subsets:
            xv = sum(1 << (n - 1 - j) for (j,) in sx)
            for sy in subsets:
                yv = sum(1 << (n - 1 - j) for (j,) in sy)
                env = {"x": sx, "y": sy}
                assert evaluate(st, lt_f, env, registry=registry) == (xv < yv)
                assert evaluate(st, eq_f, env, registry=registry) == (xv == yv)
                for sz in subsets:
                    zv = sum(1 << (n - 1 - j) for (j,) in sz)
                    env["z"] = sz
                    assert evaluate(st, plus_f, env, registry=registry) == \
                        (xv + yv == zv)
                    assert evaluate(st, times_f, env, registry=registry) == \
                        (xv * yv == zv)


# ---------------------------------------------------------------------------
# 11. Constant-signature and exponential-universe translations

def test_criterion_11_const_rewrite(registry):
    from wordlogic.logic import ConstSym
    names = ("c1", "c2")
    formulas = [
        Lt(ConstSym("c1"), ConstSym("c2")),
        Eq(ConstSym("c1"), ConstSym("c2")),
        ExistsFO("x", And(Lt(ConstSym("c1"), Var("x")),
                          Lt(Var("x"), ConstSym("c2")))),
        ForallFO("x", Or(Lt(Var("x"), ConstSym("c2")),
                         Eq(Var("x"), ConstSym("c2")))),
    ]
    for f in formulas:
        g, mapper = const_rewrite(f, names)
        equivalent(f, g, const_structures(names, 5), registry,
                   mapper=mapper, mapper_desc="subset-letter string")
        back = const_unrewrite(g, names)
        equivalent(f, back, const_structures(names, 5), registry)
    # single-constant signature as well
    f = Eq(ConstSym("c1"), ConstSym("c1"))
    g, mapper = const_rewrite(f, ("c1",))
    equivalent(f, g, const_structures(("c1",), 5), registry,
               mapper=mapper, mapper_desc="subset-letter string")


def test_criterion_11_exp_translate(registry):
    from wordlogic.logic import ConstSym
    formulas = [
        ExistsFO("x", Letter("a", Var("x"))),
        ForallFO("x", Letter("a", Var("x"))),
        ExistsSO("Y", And(x_in("Y"), ForallFO(
            "x", implies(InRel("Y", (Var("x"),)), Letter("b", Var("x")))))),
        LindSO("Lmod2", CONCATENATED, 1, ("X",),
               (ExistsFO("x", And(InRel("X", (Var("x"),)),
                                  Letter("b", Var("x")))),)),
    ]
    for f in formulas:
        g, mapper = exp_translate(f, AB)
        equivalent(f, g, string_structures(AB, 4), registry,
                   mapper=mapper, mapper_desc="w -> exponential structure")
    # reverse: constant-only sentences back to second-order string sentences
    rev_sources = [
        Eq(ConstSym("c_a"), ConstSym("c_b")),
        Lt(ConstSym("c_b"), ConstSym("c_a")),
        LindFO("Lexists", ("x",), (Lt(ConstSym("c_b"), Var("x")),)),
    ]
    for f in rev_sources:
        g = exp_translate_rev(f, AB)
        equivalent(g, f, string_structures(AB, 4), registry,
                   mapper=exp_structure, mapper_desc="w -> exponential structure")


# ---------------------------------------------------------------------------
# 12. Leaf automata

def _doubler():
    return LeafAutomaton(("s",), ("a",), (((0, 0),),), 0, ("1",), ("1",))


def test_criterion_12_leaf_counts_and_streams(registry):
    rng = random.Random(55)
    for _ in range(40):
        nq = rng.randint(1, 3)
        delta = tuple(
            tuple(tuple(rng.randrange(nq) for _ in range(rng.randint(1, 2)))
                  for _ in range(2))
            for _ in range(nq))
        M = LeafAutomaton(tuple(f"q{i}" for i in range(nq)), AB, delta,
                          rng.randrange(nq), BIN,
                          tuple(rng.choice("10") for _ in range(nq)))
        for _ in range(5):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 7)))
            s = leaf_string(M, w)
            assert leaf_count(M, w) == len(s)
            # streamed membership equals membership of the materialized string
            assert leaffa_member(M, registry["Lexists"], w) == \
                language_member(registry["Lexists"], s)
    # exactly at the materialization bound
    M = _doubler()
    s = leaf_string(M, "a" * 16, cap=1 << 16)
    assert leaf_count(M, "a" * 16) == len(s) == 1 << 16
    assert leaffa_member(M, registry["Lexists"], "a" * 16)


def _curated_pairs():
    spawn = LeafAutomaton(("p", "q"), ("a",), (((0, 1),), ((1,),)),
                          0, BIN, ("0", "1"))
    contains = LeafAutomaton(("u", "v"), AB,
                             (((0, 1), (0,)), ((1,), (1,))),
                             0, BIN, ("0", "1"))
    all_a = LeafAutomaton(("ok", "bad"), AB, (((0,), (1,)), ((1,), (1,))),
                          0, BIN, ("1", "0"))
    singleton = ExistsFO("x", And(InRel("X", (Var("x"),)), ForallFO(
        "y", implies(InRel("X", (Var("y"),)), Eq(Var("y"), Var("x"))))))
    return [
        (spawn, "LmodOdd", ("a",),
         LindSO("LmodOdd", INTERLEAVED, 1, ("X",), (singleton,))),
        (contains, "Lexists", AB,
         LindSO("Lexists", INTERLEAVED, 1, ("X",),
                (ExistsFO("x", And(InRel("X", (Var("x"),)),
                                   Letter("a", Var("x")))),))),
        (all_a, "Lforall", AB,
         LindSO("Lforall", INTERLEAVED, 1, ("X",),
                (ForallFO("x", implies(InRel("X", (Var("x"),)),
                                       Letter("a", Var("x")))),))),
    ]


def test_criterion_12_automata_vs_sentences(registry):
    for M, leaf_lang, alphabet, sentence in _curated_pairs():
        for length in range(1, 7):
            for w in itertools.product(M.input_alphabet, repeat=length):
                word = "".join(w)
                st = structure_from_string(alphabet, word)
                assert leaffa_member(M, registry[leaf_lang], word) == \
                    evaluate(st, sentence, registry=registry), word


# ---------------------------------------------------------------------------
# 13. CLI coverage

def test_criterion_13_cli_golden(capsys, data_dir):
    import test_cli
    for name, (want_code, argv) in test_cli.cases(data_dir).items():
        code = test_cli.main(argv)
        out = capsys.readouterr().out
        assert code == want_code, name
        assert out == test_cli.golden(name), name


def test_criterion_13_corpus_round_trip(data_dir, registry):
    import os

    from wordlogic.sexpr import format_formula, parse_formula
    with open(os.path.join(data_dir, "formulas.txt")) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    assert len(lines) >= 25
    for line in lines:
        f = parse_formula(line, registry)
        assert parse_formula(format_formula(f), registry) == f
