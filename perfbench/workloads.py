"""The four benchmark workloads and the expectations their verdicts meet.

A workload turns a seed into an endless sequence of blocks. Every block holds
the same multiset of cost classes (language, size, command); the seed picks
the inputs inside each class and the order of the ops. So every block costs
about the same, a run's mix does not depend on where it stops, and the same
seed gives the same ops in the same order.

Every op carries a check against an expectation computed without the timed
call: from letter counts for symmetric languages, from a direct reading of
the induced word for the two context-free languages, from an independent
interval DP for the g4 groupoid, from golden files for CLI commands, and from
the construction for property checks. test_perfbench.py cross-checks these
against the library's brute-force twins at sizes where those run.

Sentences are paired only with structures of their own signature: a
constant-signature sentence is never evaluated on a string structure, where
``(< $c1 $c2)`` raises AttributeError (the mirror of the Letter atom on a
ConstStructure defect; both are left to the library's own robustness work).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable

from wordlogic import algebra, cli, generate, leafauto, logic, sexpr, translate
from wordlogic.leafauto import LeafAutomaton
from wordlogic.logic import StringStructure

AB = ("a", "b")
BIN = ("1", "0")


@dataclass(frozen=True)
class Op:
    kind: str                  # cost class, reported per span in the trace
    run: Callable              # registry -> result; the timed call
    check: Callable            # result -> bool, against a precomputed expectation


def _rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def _equals(expected):
    return lambda result: result == expected


# ---------------------------------------------------------------------------
# long-words: one Qstar/Q1 sentence on a structure of size n, inducing a word
# of 2^n letters. Instance rank r is the set {j : bit n-1-j of r}, so rank r
# and the bitmask of the set coincide.

# argument formula over X and the structure's letters -> predicate on
# (set mask, mask of a-positions, mask of b-positions, bit of position 0).
# Every template reads letters, so induced words differ between structures
# and the membership cache seldom absorbs the backend work.
TEMPLATES = {
    "(exists x (and (in X x) (letter a x)))": lambda m, a, b, top: m & a != 0,
    "(exists x (and (in X x) (letter b x)))": lambda m, a, b, top: m & b != 0,
    "(forall x (or (not (in X x)) (letter a x)))": lambda m, a, b, top: m & b == 0,
    "(forall x (or (not (in X x)) (letter b x)))": lambda m, a, b, top: m & a == 0,
    "(or (in X min) (exists x (and (in X x) (letter b x))))":
        lambda m, a, b, top: m & (top | b) != 0,
    "(and (in X max) (exists x (and (in X x) (letter a x))))":
        lambda m, a, b, top: m & 1 != 0 and m & a != 0,
    "(exists x (and (in X x) (and (letter a x) (not (= x min)))))":
        lambda m, a, b, top: m & a & ~top != 0,
}

SYMMETRIC = {
    # language -> verdict from (count of first letter, count of second)
    "Lexists": lambda c1, c0: c1 >= 1,
    "Lforall": lambda c1, c0: c0 == 0,
    "Lmod2": lambda c1, c0: c1 % 2 == 0,
    "LmodOdd": lambda c1, c0: c1 % 2 == 1,
    "Lmod3": lambda c1, c0: c1 % 3 == 0,
    "Maj": lambda c1, c0: c1 > c0,
}


def _anbn(w: str) -> bool:
    h = len(w) // 2
    return h > 0 and w == "a" * h + "b" * h


def _balanced(w: str) -> bool:
    depth = 0
    for ch in w:
        depth += 1 if ch == "(" else -1
        if depth < 0:
            return False
    return depth == 0 and len(w) > 0


CONTEXT_FREE = {"anbn": _anbn, "parens": _balanced}

LANG_KIND = {"Maj": "cfg", "anbn": "cfg", "parens": "cfg", "g4": "groupoid",
             "Lexists": "dfa", "Lforall": "dfa", "Lmod2": "monoid",
             "LmodOdd": "monoid"}

# (language, n, ops per block). Maj at n = 9 is the p90 class (6 of 42 ops)
# and nothing costs more. g4 stops at n = 6: at n = 7 its cost swings 5x
# with the word's content (0.24-1.36 s), which no run length here averages out.
LONG_SLOTS = [
    ("Maj", 9, 6),
    ("Maj", 8, 2), ("Maj", 7, 2), ("Maj", 6, 1),
    ("anbn", 10, 1), ("anbn", 9, 1), ("anbn", 8, 1),
    ("parens", 10, 1), ("parens", 9, 1), ("parens", 8, 1),
    ("g4", 6, 3), ("g4", 5, 2),
] + [(lang, n, 1) for lang in ("Lexists", "Lforall", "Lmod2", "LmodOdd")
     for n in (6, 7, 9, 10, 11)]

LONG_SLOTS_SMOKE = [("Maj", 4, 1), ("g4", 3, 1), ("anbn", 4, 1),
                    ("parens", 4, 1), ("Lexists", 3, 1), ("Lforall", 3, 1),
                    ("Lmod2", 3, 1), ("LmodOdd", 3, 1)]


def induced_letters(preds, alphabet, word: str):
    """The induced word of a monadic one-variable Q1/Qstar node, computed
    from the argument predicates by the first-match letter rule."""
    n = len(word)
    a = b = 0
    for j, ch in enumerate(word):
        bit = 1 << (n - 1 - j)
        if ch == "a":
            a |= bit
        else:
            b |= bit
    top = 1 << (n - 1)
    out = []
    for m in range(1 << n):
        for i, p in enumerate(preds):
            if p(m, a, b, top):
                out.append(alphabet[i])
                break
        else:
            out.append(alphabet[-1])
    return out


def mask_products(table):
    """prod[X][Y]: bitmask of x*y over x in bitmask X, y in bitmask Y."""
    g = len(table)
    prod = [[0] * (1 << g) for _ in range(1 << g)]
    for mx in range(1, 1 << g):
        for my in range(1, 1 << g):
            prod[mx][my] = prod[mx & (mx - 1)][my] | prod[mx & -mx][my & (my - 1)] \
                | 1 << table[(mx & -mx).bit_length() - 1][(my & -my).bit_length() - 1]
    return prod


def reachable_mask(prod, elems) -> int:
    """Bitmask of every value some bracketing of elems multiplies out to:
    an interval DP over element bitmasks, written independently of the
    library's groupoid_reachable."""
    n = len(elems)
    reach = [[0] * (n + 1) for _ in range(n)]
    for i, x in enumerate(elems):
        reach[i][i + 1] = 1 << x
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span
            row = reach[i]
            acc = 0
            for k in range(i + 1, j):
                acc |= prod[row[k]][reach[k][j]]
            row[j] = acc
    return reach[0][n]


def long_word_expectation(spec, letters, prod) -> bool:
    """Verdict on the induced word, decided without the library's backends."""
    alphabet = spec.alphabet
    lang = spec.name
    if lang == "g4":
        wp = spec.body
        elems = [spec.letter_map[x] for x in letters]
        return any(reachable_mask(prod, elems) >> x & 1 for x in wp.accept)
    if lang in CONTEXT_FREE:
        return CONTEXT_FREE[lang](letters)
    c1 = letters.count(alphabet[0])
    return SYMMETRIC[lang](c1, len(letters) - c1)


class LongWords:
    name = "long-words"
    trace_blocks = 2
    layers = ("logic.evaluate", "logic.unrank", "algebra.member", "algebra.dfa",
              "algebra.monoid", "algebra.groupoid", "algebra.cyk")

    def __init__(self, seed, box, data_dir, smoke=False):
        self.seed = seed
        self.reg = box.languages
        self.slots = LONG_SLOTS_SMOKE if smoke else LONG_SLOTS
        self.g4_products = mask_products(self.reg["g4"].body.magma.table)
        self.seen = set()   # induced words handed out; blocks are made in order

    def block(self, index):
        rng = _rng(self.name, self.seed, index)
        ops = []
        for lang, n, count in self.slots:
            for _ in range(count):
                ops.append(self._op(rng, lang, n))
        rng.shuffle(ops)
        return ops

    def _op(self, rng, lang, n):
        """One evaluate op whose induced word no earlier op of this workload
        induced (while fresh ones are easy to find), so the membership cache
        does not serve it."""
        spec = self.reg[lang]
        for _ in range(100):
            word = "".join(rng.choice(AB) for _ in range(n))
            args = rng.sample(sorted(TEMPLATES), spec.size - 1)
            letters = "".join(induced_letters([TEMPLATES[t] for t in args],
                                              spec.alphabet, word))
            if (lang, letters) not in self.seen:
                break
        self.seen.add((lang, letters))
        quant = rng.choice(("Qstar", "Q1"))
        f = sexpr.parse_formula(f"({quant} {lang} 1 (X) {' '.join(args)})", self.reg)
        st = StringStructure(AB, tuple(word))
        expected = long_word_expectation(spec, letters, self.g4_products)
        return Op(LANG_KIND[lang],
                  lambda reg: logic.evaluate(st, f, registry=reg),
                  _equals(expected))


# ---------------------------------------------------------------------------
# translate-check: the release-gate translation families. An op is one
# translation, or one sentence checked by check_equivalence on one structure.

SWAP_LANGS = ("Maj", "Lmod2", "Lexists")

COLLAPSE = (  # arity_collapse family; the MajPad sentences are measured by short-ops
    "(Qstar Lmod2 1 (X) (exists x (in X x)))",
    "(Qstar Lmod2 1 (X) (and (exists x (in X x)) (exists x (letter a x))))",
    "(Qstar Lmod2 1 (X Y) (exists x (and (in X x) (not (in Y x)))))",
    "(Qstar Lexists 1 (X) (exists x (in X x)))",
    "(Qstar Lexists 1 (X Y) (exists x (and (in X x) (not (in Y x)))))",
    "(Qstar Lexists 1 (X) (in X min))",
    "(Qstar LmodOdd 1 (X) (exists x (in X x)))",
    "(Qstar LmodOdd 1 (X Y) (exists x (and (in X x) (not (in Y x)))))",
)

_PAD_ARGS = (
    "(exists x (in X x x))",
    "(exists x (exists y (and (< x y) (in X x y))))",
    "(forall x (in X x x))",
)
# A block holds 11 ops that cost less than the n = 2 checks of P50_PAD
# (3.1-3.4 ms each), 19 such checks, and 15 ops that cost more, so the p50
# falls inside that class; the p90 falls inside the n = 3 checks of all
# nine PAD_N3 sentences (0.5-1.4 s each), which every block holds.
PAD_N2_PER_BLOCK = 19
COLLAPSE_CHECKS_PER_BLOCK = 2
PAD_N3 = tuple(f"(Qstar {lang} 2 (X) {arg})" for lang in SWAP_LANGS
               for arg in _PAD_ARGS)
# these two take 2-4 s per n = 3 structure, so they are checked at n = 2 only
PAD_N2_ONLY = (
    "(Qstar Lmod2 2 (X) (forall x (forall y (or (not (in X x y)) (in X y x)))))",
    "(Qstar Lexists 2 (X) (exists x (exists y (and (in X x y) (letter a x)))))",
)
P50_PAD = tuple(f"(Qstar {lang} 2 (X) {arg})" for lang, arg in (
    ("Maj", _PAD_ARGS[2]), ("Lmod2", _PAD_ARGS[0]), ("Lmod2", _PAD_ARGS[2]),
    ("Lexists", _PAD_ARGS[0]), ("Lexists", _PAD_ARGS[2])))

TALLY_FWD = (
    "(Qstar Lmod2 1 (X) (exists x (and (in X x) (letter 1 x))))",
    "(Qstar Lexists 1 (X) (forall x (or (not (in X x)) (letter 0 x))))",
    "(Qstar Lexists 1 (X Y) (exists x (and (in X x) (not (in Y x)))))",
    "(Qstar Lmod2 1 (X) (and (exists x (in X x)) "
    "(forall x (or (not (in X x)) (letter 0 x)))))",
    "(existsSO Y (forall x (and (or (not (in Y x)) (letter 1 x)) "
    "(or (not (letter 1 x)) (in Y x)))))",
    "(existsSO Y (and (exists x (in Y x)) "
    "(forall x (or (not (in Y x)) (letter 1 x)))))",
    "(exists x (letter 1 x))",
    "(forall x (or (letter 1 x) (letter 0 x)))",
    "(exists x (exists y (and (< x y) (and (letter 1 x) (letter 0 y)))))",
    "(forall x (letter 1 x))",
)

TALLY_BWD = (
    "(exists x (exists y (< x y)))",
    "(exists x (forall y (not (< x y))))",
    "(exists x (exists y (plus x x y)))",
    "(exists x (exists z (and (plus x x z) (< x z))))",
    "(exists x (exists y (times x y x)))",
    "(exists x (exists y (and (times x x y) (< x y))))",
    "(forall x (= x x))",
    "(Q Lmod2 (x) (exists y (< y x)))",
    "(Q Lexists (x) (plus x x x))",
    "(exists x (letter 1 x))",
)

CONST = (  # (sentence, constant names)
    ("(< $c1 $c2)", ("c1", "c2")),
    ("(= $c1 $c2)", ("c1", "c2")),
    ("(exists x (and (< $c1 x) (< x $c2)))", ("c1", "c2")),
    ("(forall x (or (< x $c2) (= x $c2)))", ("c1", "c2")),
    ("(= $c1 $c1)", ("c1",)),
)

EXP = (
    "(exists x (letter a x))",
    "(forall x (letter a x))",
    "(existsSO Y (and (exists x (in Y x)) "
    "(forall x (or (not (in Y x)) (letter b x)))))",
    "(Qstar Lmod2 1 (X) (exists x (and (in X x) (letter b x))))",
)

EXP_REV = ("(= $c_a $c_b)", "(< $c_b $c_a)", "(Q Lexists (x) (< $c_b x))")


def _closed(formula) -> bool:
    fo, so = logic.free_variables(formula)
    return not fo and not so


def _words(alphabet, n):
    return ["".join(w) for w in itertools.product(alphabet, repeat=n)]


class TranslateCheck:
    name = "translate-check"
    trace_blocks = 1
    layers = ("logic.evaluate", "logic.unrank", "algebra.member",
              "translate.rewrite", "translate.check", "algebra.property_check",
              "algebra.dfa", "algebra.monoid", "algebra.cyk")

    def __init__(self, seed, box, data_dir, smoke=False):
        self.seed = seed
        self.reg = box.languages
        self.smoke = smoke
        order = _rng(self.name, seed, -1)
        self.pad_n2_order = order.sample(P50_PAD, len(P50_PAD))
        self.pad_n2_words = order.sample(_words(AB, 2), 4)
        self.pad_n3_words = order.sample(_words(AB, 3), 8)

    def _parse(self, text):
        return sexpr.parse_formula(text, self.reg)

    def _check(self, kind, source, target, structures, mapper=None):
        """Op checking one sentence pair on the given structures."""
        def run(reg):
            return translate.check_equivalence(
                source, target, structures, registry=reg, mapper=mapper).verdict
        return Op(kind, run, _equals("equivalent-on-range"))

    def block(self, index):
        rng = _rng(self.name, self.seed, index)
        reg = self.reg
        n3 = 2 if self.smoke else 3
        ops = []

        # criterion 6: ordering swap on seeded random sentences, k = 1 and 2
        for k in (1, 2):
            lang = rng.choice(SWAP_LANGS)
            ordering = rng.choice((logic.CONCATENATED, logic.INTERLEAVED))
            f = generate.random_lindso(rng, lang, 1, ordering, AB, k=k)
            swap = "q_star_to_q1" if ordering == logic.CONCATENATED else "q1_to_q_star"
            if k == 1:
                ops.append(Op("swap", lambda reg, f=f, swap=swap:
                              getattr(translate, swap)(f), _closed))
            g = getattr(translate, swap)(f)
            st = StringStructure(AB, tuple(rng.choice(_words(AB, n3))))
            ops.append(self._check("swap-check", f, g, [st]))

        # criterion 8: arity collapse, validated from n = 2
        f = self._parse(rng.choice(COLLAPSE))
        ops.append(Op("collapse", lambda reg, f=f: translate.arity_collapse(f, reg),
                      _closed))
        for _ in range(COLLAPSE_CHECKS_PER_BLOCK):
            f = self._parse(rng.choice(COLLAPSE))
            g = translate.arity_collapse(f, reg)
            st = StringStructure(AB, tuple(rng.choice(_words(AB, n3))))
            ops.append(self._check("collapse-check", f, g, [st]))

        # criterion 9: padding to n^2; the n = 2 checks of P50_PAD are the
        # p50 class and the n = 3 checks the p90 class
        f = self._parse(rng.choice(PAD_N3 + PAD_N2_ONLY))
        ops.append(Op("pad", lambda reg, f=f: translate.pad_translate(f, AB),
                      lambda r: _closed(r[0]) and _closed(r[1])))
        # Sentences and words rotate through seeded orders, so that every
        # block holds the same mix of checks and only their order varies.
        for j in range(PAD_N2_PER_BLOCK):
            i = index * PAD_N2_PER_BLOCK + j
            f = self._parse(self.pad_n2_order[i % len(self.pad_n2_order)])
            g, _, mapper = translate.pad_translate(f, AB)
            word = self.pad_n2_words[i % len(self.pad_n2_words)]
            ops.append(self._check("pad-check", f, g,
                                   [StringStructure(AB, tuple(word))], mapper))
        for text in PAD_N2_ONLY:
            f = self._parse(text)
            g, _, mapper = translate.pad_translate(f, AB)
            st = StringStructure(AB, tuple(rng.choice(_words(AB, 2))))
            ops.append(self._check("pad-check", f, g, [st], mapper))
        for j, text in enumerate(PAD_N3):
            f = self._parse(text)
            g, _, mapper = translate.pad_translate(f, AB)
            word = self.pad_n3_words[(index * len(PAD_N3) + j) % len(self.pad_n3_words)]
            ops.append(self._check("pad-check-n3", f, g,
                                   [StringStructure(AB, tuple(word[:n3]))], mapper))

        # criterion 10: tally translations, forward on binary strings and
        # backward on unary strings
        f = self._parse(rng.choice(TALLY_FWD))
        ops.append(Op("tally", lambda reg, f=f: translate.tally_translate_fwd(f, reg),
                      lambda r: _closed(r[0])))
        g, mapper = translate.tally_translate_fwd(f, reg)
        st = StringStructure(BIN, tuple(rng.choice(_words(BIN, 2 if self.smoke else 4))))
        ops.append(self._check("tally-check", f, g, [st], mapper))
        f = self._parse(rng.choice(TALLY_BWD))
        ops.append(Op("tally", lambda reg, f=f: translate.tally_translate_bwd(f, reg),
                      lambda r: _closed(r[0])))
        g, mapper = translate.tally_translate_bwd(f, reg)
        st = StringStructure(("1",), ("1",) * rng.randint(1, 16))
        ops.append(self._check("tally-check", f, g, [st], mapper))

        # criterion 11: constant signatures (on constant structures) and the
        # exponential universe (string sentences on strings)
        text, names = rng.choice(CONST)
        f = self._parse(text)
        ops.append(Op("const", lambda reg, f=f, names=names:
                      translate.const_rewrite(f, names), lambda r: _closed(r[0])))
        g, mapper = translate.const_rewrite(f, names)
        st = rng.choice(list(translate.const_structures(names, 5)))
        if rng.random() < 0.5:
            ops.append(self._check("const-check", f, g, [st], mapper))
        else:
            back = translate.const_unrewrite(g, names)
            ops.append(self._check("const-check", f, back, [st]))
        st = StringStructure(AB, tuple(rng.choice(_words(AB, rng.randint(1, 4)))))
        if rng.random() < 0.5:
            f = self._parse(rng.choice(EXP))
            ops.append(Op("exp", lambda reg, f=f: translate.exp_translate(f, AB),
                          lambda r: _closed(r[0])))
            g, mapper = translate.exp_translate(f, AB)
            ops.append(self._check("exp-check", f, g, [st], mapper))
        else:
            f = self._parse(rng.choice(EXP_REV))
            ops.append(Op("exp", lambda reg, f=f: translate.exp_translate_rev(f, AB),
                          _closed))
            g = translate.exp_translate_rev(f, AB)
            ops.append(self._check("exp-check", g, f, [st], translate.exp_structure))

        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# leaf-trees: leaffa_member on the doubler, spawn, and seeded random leaf
# automata (as in the leaf-automaton release criterion).

DOUBLER = LeafAutomaton(("s",), ("a",), (((0, 0),),), 0, ("1",), ("1",))

STREAMED = ("Lexists", "Lforall", "Lmod3")   # DFA leaf languages
WORD_PROBLEM = ("Lmod2", "LmodOdd")          # materialized, <= 2^16 leaves

# (automaton, languages, word length or leaf band, ops per block). Inputs
# whose leaf string is materialized are drawn at random, so the membership
# cache does not serve a repeated leaf string; the narrow leaf bands keep
# each class's cost, which grows with the leaf count, about the same. The
# doubler on a^16 is the p90 class (5 of 25 ops); a^18 and Maj on 448-512
# leaves cost more.
LEAF_SLOTS = [
    ("doubler", ("Lexists",), 18, 1),
    ("random", ("Maj",), (448, 512), 1),
    ("doubler", STREAMED, 16, 5),
    ("doubler", STREAMED, 12, 1),
    ("doubler", STREAMED, 14, 1),
    ("spawn", STREAMED + WORD_PROBLEM + ("Maj",), None, 3),
    ("random", STREAMED, (3072, 4096), 6),
    ("random", WORD_PROBLEM, (3072, 4096), 5),
    ("random", ("Maj",), (64, 96), 2),
]

LEAF_SLOTS_SMOKE = [
    ("doubler", ("Lexists",), 8, 1),
    ("doubler", ("Maj",), 5, 1),
    ("spawn", ("Lmod2",), None, 1),
    ("random", STREAMED, (1 << 4, 1 << 6), 1),
    ("random", WORD_PROBLEM, (1 << 4, 1 << 6), 1),
    ("random", ("Maj",), (1 << 3, 1 << 5), 1),
]


def leaf_letter_counts(M: LeafAutomaton, w: str):
    """Per-letter leaf counts of the computation tree, folded from the end
    of the word like leaf_count."""
    k = len(M.leaf_alphabet)
    counts = [tuple(int(M.beta[q] == x) for x in M.leaf_alphabet)
              for q in range(len(M.states))]
    for ch in reversed(w):
        ai = M.input_alphabet.index(ch)
        counts = [tuple(sum(counts[q][i] for q in M.delta[s][ai]) for i in range(k))
                  for s in range(len(M.states))]
    return dict(zip(M.leaf_alphabet, counts[M.start]))


def leaf_expectation(M, lang, w) -> bool:
    counts = leaf_letter_counts(M, w)
    return SYMMETRIC[lang](counts.get("1", 0), counts.get("0", 0))


def random_leaf_automaton(rng) -> LeafAutomaton:
    nq = rng.randint(1, 3)
    delta = tuple(
        tuple(tuple(rng.randrange(nq) for _ in range(rng.randint(1, 2)))
              for _ in range(2))
        for _ in range(nq))
    return LeafAutomaton(tuple(f"q{i}" for i in range(nq)), AB, delta,
                         rng.randrange(nq), BIN,
                         tuple(rng.choice(BIN) for _ in range(nq)))


class LeafTrees:
    name = "leaf-trees"
    trace_blocks = 8
    layers = ("leafauto.member", "leafauto.materialize", "algebra.member",
              "algebra.monoid", "algebra.cyk")

    def __init__(self, seed, box, data_dir, smoke=False):
        self.seed = seed
        self.spawn = box.leaf_automata["spawn"]
        self.slots = LEAF_SLOTS_SMOKE if smoke else LEAF_SLOTS

    def block(self, index):
        rng = _rng(self.name, self.seed, index)
        ops = []
        for machine, langs, size, count in self.slots:
            for _ in range(count):
                lang = rng.choice(langs)
                if machine == "doubler":
                    M, w = DOUBLER, "a" * size
                elif machine == "spawn":
                    M, w = self.spawn, "a" * rng.randint(8, 18)
                else:
                    lo, hi = size
                    while True:
                        M = random_leaf_automaton(rng)
                        w = "".join(rng.choice(AB) for _ in range(rng.randint(8, 18)))
                        if lo <= leafauto.leaf_count(M, w) <= hi:
                            break
                ops.append(Op(f"leaf-{lang}",
                              lambda reg, M=M, lang=lang, w=w:
                              leafauto.leaffa_member(M, reg[lang], w),
                              _equals(leaf_expectation(M, lang, w))))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# short-ops: many small calls as a script or CLI user makes them.

GOLDEN = (  # name, exit status, argv ({data} is the test data directory)
    ("eval_true", 0, ["eval", "--alphabet", "a,b", "--structure", "ab",
                      "--formula", "(exists x (letter b x))"]),
    ("eval_false", 0, ["eval", "--alphabet", "a,b", "--structure", "aa",
                       "--formula", "(exists x (letter b x))"]),
    ("enumerate", 0, ["enumerate", "--alphabet", "a,b", "--max-n", "2",
                      "--formula", "(Q Lexists (x) (letter a x))"]),
    ("translate_swap", 0, ["translate", "--op", "qstar-to-q1", "--alphabet", "a,b",
                           "--max-n", "3", "--formula",
                           "(Qstar Lmod2 1 (X) (exists x (in X x)))"]),
    ("leaffa", 0, ["leaffa", "--toolbox", "{data}", "--automaton", "spawn",
                   "--language", "Lmod2", "--structure", "aa"]),
    ("algebra_check", 0, ["algebra-check", "--algebra", "{data}/g4.alg"]),
    ("equiv_ok", 0, ["equiv", "--alphabet", "a,b", "--max-n", "3",
                     "--formula", "(exists x (letter a x))",
                     "--formula2", "(not (forall x (letter b x)))"]),
    ("equiv_counterexample", 1, ["equiv", "--alphabet", "a,b", "--max-n", "2",
                                 "--formula", "(exists x (letter a x))",
                                 "--formula2", "(forall x (letter a x))"]),
    ("oracle_groupoid", 0, ["oracle", "groupoid-reachable", "--algebra",
                            "{data}/g4.alg", "--max-len", "4"]),
    ("oracle_lind", 0, ["oracle", "lind-eval", "--count", "5", "--max-n", "2",
                        "--seed", "3"]),
)

# (language, check, letter, length, expected): expected verdicts follow from
# the construction (MajPad pads Maj with a neutral '#'; e is g4's identity)
# or from a two-letter witness (Maj: 1 vs 10; anbn: ab vs ba; g4 as recorded).
PROPERTIES = (
    ("MajPad", "neutral", "#", 5, True),
    ("MajPad", "symmetric", None, 6, True),
    ("Maj", "symmetric", None, 7, True),
    ("Maj", "neutral", "0", 7, False),
    ("anbn", "symmetric", None, 7, False),
    ("anbn", "neutral", "a", 6, False),
    ("g4", "symmetric", None, 7, False),
)
# g4's neutral-letter sweep runs once per block: 5461 words overflow the
# membership cache, so it never becomes cheap.
G4_NEUTRAL = ("g4", "neutral", "e", 5, True)

# define_language sentences over {a, b} with L the seeded letter, and a
# direct predicate on the word; max_n per sentence
DEFINE = (
    ("(Q Lexists (x) (letter L x))", lambda w, L: L in w, 4),
    ("(Q Lforall (x) (letter L x))", lambda w, L: set(w) == {L}, 4),
    ("(Q Lmod2 (x) (letter L x))", lambda w, L: w.count(L) % 2 == 0, 4),
    ("(Q Maj (x) (letter L x))", lambda w, L: 2 * w.count(L) > len(w), 4),
    ("(Qstar Maj 1 (X) (exists x (and (in X x) (letter L x))))",
     lambda w, L: w.count(L) >= 2, 4),
    ("(exists x (and (letter L x) (exists y (and (< x y) (letter L y)))))",
     lambda w, L: w.count(L) >= 2, 4),
    ("(Q Lexists (x y) (and (< x y) (letter L x)))", lambda w, L: L in w[:-1], 4),
    ("(Q1 Lforall 1 (X) (forall x (or (not (in X x)) (letter L x))))",
     lambda w, L: set(w) == {L}, 3),
)

SUB_ROUNDS = 4   # CLI/property/define/round-trip rounds per block


def _golden_argv(argv, data_dir):
    return [a.replace("{data}", data_dir) for a in argv]


class ShortOps:
    name = "short-ops"
    trace_blocks = 16
    layers = ("sexpr.parse", "sexpr.format", "formats.load", "cli.main",
              "logic.evaluate", "algebra.member", "algebra.property_check",
              "algebra.cyk", "algebra.groupoid", "algebra.dfa", "algebra.monoid",
              "translate.check", "translate.rewrite", "leafauto.member")

    def __init__(self, seed, box, data_dir, smoke=False):
        self.seed = seed
        self.reg = box.languages
        self.smoke = smoke
        self.data_dir = data_dir
        with open(os.path.join(data_dir, "formulas.txt"), encoding="utf-8") as fh:
            self.corpus = [ln.strip() for ln in fh if ln.strip()]
        self.golden = {}
        for name, _, _ in GOLDEN:
            path = os.path.join(data_dir, "golden", name + ".txt")
            with open(path, encoding="utf-8") as fh:
                self.golden[name] = fh.read()

    def _cli(self, name, code, argv):
        argv = _golden_argv(argv, self.data_dir)

        def run(reg):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cli.main(argv)
            return status, out.getvalue()
        return Op("cli", run, _equals((code, self.golden[name])))

    def _property(self, lang, what, letter, length, expected):
        if self.smoke:
            length = min(length, 3)
        if what == "neutral":
            def run(reg):
                return algebra.is_neutral_letter_bounded(reg[lang], letter, length)
        else:
            def run(reg):
                return algebra.is_symmetric_bounded(reg[lang], length)
        return Op("property", run, _equals(expected))

    def _define(self, rng, text, pred, max_n):
        L = rng.choice(AB)
        f = sexpr.parse_formula(text.replace(" L ", f" {L} "), self.reg)
        if self.smoke:
            max_n = min(max_n, 2)
        expected = sorted(w for n in range(1, max_n + 1) for w in _words(AB, n)
                          if pred(w, L))
        return Op("define",
                  lambda reg: sorted(logic.define_language(f, AB, max_n, registry=reg)),
                  _equals(expected))

    def _round_trip_corpus(self, rng):
        line = rng.choice(self.corpus)
        expected = sexpr.parse_formula(line, self.reg)

        def run(reg):
            f = sexpr.parse_formula(line, reg)
            return sexpr.parse_formula(sexpr.format_formula(f), reg)
        return Op("sexpr", run, _equals(expected))

    def _round_trip_random(self, rng):
        pick = rng.randrange(3)
        if pick == 0:
            f = generate.random_fo_formula(rng, ("x", "y"), ("X",), AB, depth=4)
        elif pick == 1:
            f = generate.random_lindfo(rng, rng.choice(("Lexists", "Maj", "Lmod2")),
                                       1, AB, k=2, depth=3)
        else:
            f = generate.random_lindso(rng, rng.choice(("Lforall", "Maj")), 1,
                                       rng.choice((logic.CONCATENATED, logic.INTERLEAVED)),
                                       AB, k=2, depth=3)
        return Op("sexpr",
                  lambda reg: sexpr.parse_formula(sexpr.format_formula(f), reg),
                  _equals(f))

    def block(self, index):
        rng = _rng(self.name, self.seed, index)
        ops = [self._property(*G4_NEUTRAL)]
        for _ in range(1 if self.smoke else SUB_ROUNDS):
            ops += [self._cli(*g) for g in GOLDEN]
            ops += [self._property(*p) for p in PROPERTIES]
            ops += [self._define(rng, *d) for d in DEFINE]
            ops += [self._round_trip_corpus(rng) for _ in range(10)]
            ops += [self._round_trip_random(rng) for _ in range(10)]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (TranslateCheck, LongWords, LeafTrees, ShortOps)}
