import functools
import itertools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from wordlogic import algebra
from wordlogic.algebra import (
    BRACKETING_CAP,
    MEMBER_CACHE_CHARS,
    TABLE_CAP,
    _LANES_FROM,
    Cfg,
    Dfa,
    LanguageSpec,
    Magma,
    WordProblem,
    brute_force_bracketings,
    cfg_to_groupoid,
    check_associative,
    cyk_member,
    cyk_member_reference,
    groupoid_reachable,
    groupoid_reachable_reference,
    is_neutral_letter_bounded,
    is_neutral_letter_bounded_reference,
    is_symmetric_bounded,
    is_symmetric_bounded_reference,
    language_member,
    monoid_word_eval,
    pad_language,
    regular_to_monoid,
    word_problem_member,
)
from wordlogic.builtins import Z2, builtin_registry, majority_grammar
from wordlogic.errors import (
    CapExceeded,
    EmptyWord,
    InvariantViolation,
    LetterOutOfAlphabet,
    NotAssociative,
    NotCnf,
)
from wordlogic.formats import load_toolbox, parse_cfg


def test_magma_identity_law_enforced():
    with pytest.raises(InvariantViolation):
        Magma(("e", "a"), ((0, 1), (0, 0)), 0)


def test_magma_shape_checks():
    with pytest.raises(InvariantViolation):
        Magma(("e",), ((0, 0),), 0)
    with pytest.raises(InvariantViolation):
        Magma(("e", "e"), ((0, 1), (1, 0)), 0)


def test_g4_not_associative(g4):
    assert not check_associative(g4)


def test_z2_is_monoid():
    assert check_associative(Z2)


def test_groupoid_reachable_g4(g4):
    a = g4.elements.index("a")
    # a*a = b; (aa)a = ba = e wait: table row b col a
    reach3 = groupoid_reachable(g4, (a, a, a))
    assert reach3 == brute_force_bracketings(g4, (a, a, a))
    reach4 = groupoid_reachable(g4, (a, a, a, a))
    assert reach4 == brute_force_bracketings(g4, (a, a, a, a))


def test_brute_force_matches_dp_random():
    rng = random.Random(11)
    for _ in range(30):
        g = rng.randint(2, 4)
        table = [tuple(range(g))]
        for x in range(1, g):
            table.append(tuple(x if y == 0 else rng.randrange(g)
                               for y in range(g)))
        m = Magma(tuple(f"g{i}" for i in range(g)), tuple(table), 0)
        for _ in range(5):
            word = [rng.randrange(g) for _ in range(rng.randint(1, 7))]
            assert groupoid_reachable(m, word) == brute_force_bracketings(m, word)


def test_word_problem_associative_fold():
    wp = WordProblem.of(Z2, {0})
    assert wp.associative
    assert word_problem_member(wp, [1, 1])
    assert not word_problem_member(wp, [1, 0])
    assert word_problem_member(wp, [])  # identity in accept


def test_word_problem_empty_word_identity_convention(g4):
    wp_in = WordProblem.of(g4, {0})
    wp_out = WordProblem.of(g4, {1})
    assert word_problem_member(wp_in, [])
    assert not word_problem_member(wp_out, [])


def test_monoid_word_eval():
    wp = WordProblem.of(Z2, {0})
    assert monoid_word_eval(wp, [1, 1, 1]) == 1
    assert monoid_word_eval(wp, []) == 0


def test_cyk_against_grammar_oracle():
    # {a^n b^n}
    cfg = Cfg.from_rules(
        ("S", "A", "B", "T"), ("a", "b"),
        [("S", ("A", "T")), ("S", ("A", "B")), ("T", ("S", "B")),
         ("A", "a"), ("B", "b")], "S")
    for length in range(0, 9):
        for w in itertools.product("ab", repeat=length):
            want = length > 0 and length % 2 == 0 and \
                "".join(w) == "a" * (length // 2) + "b" * (length // 2)
            assert cyk_member(cfg, w) == want


def test_cfg_not_cnf_rejected():
    with pytest.raises(NotCnf):
        Cfg.from_rules(("S",), ("a",), [("S", ("S", "S", "S"))], "S")


def test_cfg_to_groupoid_matches_cyk():
    cfg = Cfg.from_rules(
        ("S", "A", "B", "T"), ("a", "b"),
        [("S", ("A", "T")), ("S", ("A", "B")), ("T", ("S", "B")),
         ("A", "a"), ("B", "b")], "S")
    wp, hom = cfg_to_groupoid(cfg)
    for length in range(0, 9):
        for w in itertools.product("ab", repeat=length):
            fast = word_problem_member(wp, [hom[a] for a in w])
            assert fast == cyk_member(cfg, w)


def test_majority_grammar_counts():
    cfg = majority_grammar()
    for length in range(0, 11):
        for w in itertools.product("10", repeat=length):
            want = w.count("1") > w.count("0")
            assert cyk_member(cfg, w) == want


def test_regular_to_monoid_matches_dfa():
    reg = builtin_registry()
    dfa = reg["Lexists"].body
    wp, hom = regular_to_monoid(dfa)
    assert wp.associative
    for length in range(0, 9):
        for w in itertools.product("10", repeat=length):
            assert word_problem_member(wp, [hom[a] for a in w]) == dfa.run(w)


def test_language_member_letter_validation():
    reg = builtin_registry()
    from wordlogic.errors import LetterOutOfAlphabet
    with pytest.raises(LetterOutOfAlphabet):
        language_member(reg["Lexists"], "1x0")


@pytest.mark.parametrize("call", [
    lambda reg, g4: reg["Lexists"].body.run("1c"),
    lambda reg, g4: monoid_word_eval(reg["Lmod2"].body, [1, -1]),
    lambda reg, g4: monoid_word_eval(reg["Lmod2"].body, [0, 7]),
    lambda reg, g4: monoid_word_eval(reg["Lmod2"].body, [0, "a"]),
    lambda reg, g4: word_problem_member(reg["Lmod2"].body, [0, 7]),
    lambda reg, g4: groupoid_reachable(g4, [9]),
    lambda reg, g4: groupoid_reachable(g4, [0, 9]),
    lambda reg, g4: groupoid_reachable(g4, [-1, 0]),
    lambda reg, g4: word_problem_member(WordProblem.of(g4, {0}), [0, 9]),
], ids=["dfa-letter", "monoid-negative", "monoid-past-end",
        "monoid-not-an-index", "monoid-member",
        "groupoid-one", "groupoid-past-end", "groupoid-negative",
        "groupoid-member"])
def test_letters_outside_the_body_are_refused(call, g4):
    with pytest.raises(LetterOutOfAlphabet):
        call(builtin_registry(), g4)


@st.composite
def dfas(draw):
    """Random total DFAs of one to four states over one to three letters."""
    q = draw(st.integers(1, 4))
    letters = tuple("abc"[:draw(st.integers(1, 3))])
    state = st.integers(0, q - 1)
    row = st.tuples(*[state] * len(letters))
    return Dfa(tuple(f"q{i}" for i in range(q)), letters,
               tuple(draw(st.lists(row, min_size=q, max_size=q))),
               draw(state), frozenset(draw(st.sets(state))))


@given(dfas(), st.data())
def test_dfa_run_and_monoid_fold_are_plain_loops(d, data):
    # Dfa.run and monoid_word_eval share one fold over per-state maps: each
    # must equal the loop over its own table, and refuse a foreign letter
    word = data.draw(st.lists(st.sampled_from(d.alphabet), max_size=64))
    state = d.start
    for a in word:
        state = d.trans[state][d.alphabet.index(a)]
    assert d.run(word) == (state in d.finals)
    for i, a in enumerate(d.alphabet):
        assert [d.letter_maps[a][s] for s in range(len(d.states))] == [
            row[i] for row in d.trans]
    wp, hom = regular_to_monoid(d)
    elems = [hom[a] for a in word]
    acc = wp.magma.identity
    for x in elems:
        acc = wp.magma.table[acc][x]
    assert monoid_word_eval(wp, elems) == acc
    assert (acc in wp.accept) == (state in d.finals)
    cut = data.draw(st.integers(0, len(word)))
    with pytest.raises(LetterOutOfAlphabet) as exc:
        d.run(word[:cut] + ["d"] + word[cut:])
    assert str(exc.value) == "letter 'd' not in the DFA's alphabet"
    g = wp.magma.size
    with pytest.raises(LetterOutOfAlphabet) as exc:
        monoid_word_eval(wp, elems[:cut] + [g] + elems[cut:])
    assert str(exc.value) == (
        f"element index {g} not in magma 'transition' of {g} elements")


_DFA_A = Dfa(("q",), ("a",), ((0,),), 0, frozenset({0}))
_CFG_A = Cfg(("S",), ("a",), (), ((0, "a"),), 0)


def _lexists():
    return builtin_registry()["Lexists"]


# (id, call on the G4 groupoid, error class, message)
_REFUSALS = [
    ("magma-entry", lambda g4: Magma(("e", "a"), ((0, 1), (1, 2)), 0, "m"),
     InvariantViolation, "magma 'm': table entry 2 out of range"),
    ("magma-identity", lambda g4: Magma(("e",), ((0,),), 1, "m"),
     InvariantViolation, "magma 'm': identity index out of range"),
    ("accept", lambda g4: WordProblem.of(Z2, {2}),
     InvariantViolation, "accept set contains out-of-range elements"),
    ("monoid-eval-groupoid",
     lambda g4: monoid_word_eval(WordProblem.of(g4, {0}), [0]),
     NotAssociative, "monoid_word_eval needs an associative word problem"),
    ("groupoid-empty", lambda g4: groupoid_reachable(g4, []),
     EmptyWord, "groupoid_reachable needs a nonempty word"),
    ("groupoid-reference-empty",
     lambda g4: groupoid_reachable_reference(g4, ()),
     EmptyWord, "groupoid_reachable needs a nonempty word"),
    ("bracketings-empty", lambda g4: brute_force_bracketings(g4, ""),
     EmptyWord, "brute_force_bracketings needs a nonempty word"),
    ("bracketings-cap",
     lambda g4: brute_force_bracketings(g4, [0] * (BRACKETING_CAP + 1)),
     CapExceeded, f"word length {BRACKETING_CAP + 1} exceeds bracketing "
                  f"cap {BRACKETING_CAP}"),
    ("dfa-not-total",
     lambda g4: Dfa(("q",), ("a", "b"), ((0,),), 0, frozenset()),
     InvariantViolation, "DFA transition table is not total"),
    ("dfa-target", lambda g4: Dfa(("q",), ("a",), ((1,),), 0, frozenset()),
     InvariantViolation, "DFA transition target out of range"),
    ("dfa-start", lambda g4: Dfa(("q",), ("a",), ((0,),), 1, frozenset()),
     InvariantViolation, "DFA start state out of range"),
    ("dfa-final", lambda g4: Dfa(("q",), ("a",), ((0,),), 0, frozenset({1})),
     InvariantViolation, "DFA final state out of range"),
    ("cfg-binary", lambda g4: Cfg(("S",), ("a",), ((0, 0, 1),), (), 0),
     NotCnf, "binary production index out of range"),
    ("cfg-lexical", lambda g4: Cfg(("S",), ("a",), (), ((1, "a"),), 0),
     NotCnf, "lexical production index out of range"),
    ("cfg-terminal", lambda g4: Cfg(("S",), ("a",), (), ((0, "b"),), 0),
     NotCnf, "lexical production uses unknown terminal 'b'"),
    ("cfg-start", lambda g4: Cfg(("S",), ("a",), (), ((0, "a"),), 1),
     InvariantViolation, "grammar start symbol out of range"),
    ("spec-duplicate", lambda g4: LanguageSpec("L", ("a", "a"), _DFA_A),
     InvariantViolation, "language 'L': duplicate letters"),
    ("spec-letter-length",
     lambda g4: LanguageSpec("L", ("a", "aa"),
                             Dfa(("q",), ("a", "aa"), ((0, 0),), 0, frozenset())),
     InvariantViolation, "language 'L': letter 'aa' is not one character"),
    ("spec-neutral",
     lambda g4: LanguageSpec("L", ("a",), _DFA_A, declared_neutral="b"),
     InvariantViolation, "language 'L': neutral letter not in alphabet"),
    ("spec-letter-map",
     lambda g4: LanguageSpec("L", ("a", "b"), WordProblem.of(Z2, {0}),
                             letter_map={"a": 0, "b": 0}),
     InvariantViolation,
     "language 'L': letters must map bijectively to elements"),
    ("spec-dfa-alphabet", lambda g4: LanguageSpec("L", ("a", "b"), _DFA_A),
     InvariantViolation, "language 'L': alphabet disagrees with DFA alphabet"),
    ("spec-cfg-terminals", lambda g4: LanguageSpec("L", ("b",), _CFG_A),
     InvariantViolation,
     "language 'L': alphabet disagrees with grammar terminals"),
    ("spec-body", lambda g4: LanguageSpec("L", ("a",), "a*"),
     InvariantViolation, "language 'L': unsupported body str"),
    ("neutral-letter",
     lambda g4: is_neutral_letter_bounded(_lexists(), "x", 3),
     LetterOutOfAlphabet, "'x' not in alphabet of 'Lexists'"),
    ("neutral-letter-reference",
     lambda g4: is_neutral_letter_bounded_reference(_lexists(), "x", 3),
     LetterOutOfAlphabet, "'x' not in alphabet of 'Lexists'"),
    ("member-first-foreign-letter",
     lambda g4: language_member(_lexists(), "1yx0"),
     LetterOutOfAlphabet, "letter 'y' not in alphabet of language 'Lexists'"),
    ("pad-letter", lambda g4: pad_language(_lexists(), "0"),
     InvariantViolation, "pad letter '0' already in alphabet"),
    ("pad-word-problem",
     lambda g4: pad_language(builtin_registry()["Lmod2"], "#"),
     InvariantViolation,
     "pad_language supports DFA and CNF grammar bodies only"),
]


@pytest.mark.parametrize("call,error,message", [r[1:] for r in _REFUSALS],
                         ids=[r[0] for r in _REFUSALS])
def test_refusals_are_typed(g4, call, error, message):
    with pytest.raises(error) as exc:
        call(g4)
    assert type(exc.value) is error and str(exc.value) == message


def test_neutral_letters():
    reg = builtin_registry()
    assert is_neutral_letter_bounded(reg["Lexists"], "0", 6)
    assert not is_neutral_letter_bounded(reg["Lexists"], "1", 6)
    assert is_neutral_letter_bounded(reg["Lforall"], "1", 6)
    assert is_neutral_letter_bounded(reg["Lmod2"], "0", 6)
    assert not is_neutral_letter_bounded(reg["Maj"], "1", 5)
    assert not is_neutral_letter_bounded(reg["Maj"], "0", 5)


def test_symmetry():
    reg = builtin_registry()
    assert is_symmetric_bounded(reg["Maj"], 7)
    assert is_symmetric_bounded(reg["Lmod2"], 7)
    assert is_symmetric_bounded(reg["Lexists"], 7)
    assert not is_symmetric_bounded(
        LanguageSpec("starts1", ("1", "0"),
                     Dfa(("s", "y", "n"), ("1", "0"),
                         ((1, 2), (1, 1), (2, 2)), 0, frozenset({1}))), 4)


def test_pad_language_membership():
    reg = builtin_registry()
    padded = pad_language(reg["Maj"], "#")
    assert padded.alphabet == ("1", "0", "#")
    assert padded.declared_neutral == "#"
    rng = random.Random(5)
    for _ in range(200):
        w = "".join(rng.choice("10#") for _ in range(rng.randint(0, 8)))
        stripped = w.replace("#", "")
        want = bool(stripped) and \
            stripped.count("1") > stripped.count("0")
        assert language_member(padded, w) == want, w


# ---------------------------------------------------------------------------
# The bit-parallel interval DP against the reference loops


def _load_cfg(data_dir, name):
    with open(os.path.join(data_dir, name), encoding="utf-8") as fh:
        return parse_cfg(fh.read(), name)[0]


def _parens_ok(w):
    depth = 0
    for c in w:
        depth += 1 if c == "(" else -1
        if depth < 0:
            return False
    return depth == 0 and len(w) > 0


@st.composite
def cnf_grammars(draw, max_nonterminals=5, terminals="abc"):
    """Random CNF grammars over `terminals`, with as few as no binary
    rules, possibly no lexical rule for the start symbol, and either value
    of the epsilon flag."""
    nn = draw(st.integers(1, max_nonterminals))
    nt = st.integers(0, nn - 1)
    binary = draw(st.lists(st.tuples(nt, nt, nt), max_size=10))
    lexical = draw(st.lists(st.tuples(nt, st.sampled_from(terminals)),
                            max_size=6))
    return Cfg(tuple(f"N{i}" for i in range(nn)), tuple(terminals),
               tuple(binary), tuple(lexical), draw(nt), draw(st.booleans()))


def _sample_word(g, rng, max_len, grow=0.8):
    """A word of L(g) from a random derivation that takes a binary rule
    with probability `grow` while the word stays within max_len letters,
    or None."""
    binary, lexical = {}, {}
    for a, b, c in g.binary:
        binary.setdefault(a, []).append((b, c))
    for a, t in g.lexical:
        lexical.setdefault(a, []).append(t)
    out, todo = [], [g.start]
    while todo:
        a = todo.pop()
        if a in binary and len(out) + len(todo) + 2 <= max_len and (
                a not in lexical or rng.random() < grow):
            b, c = rng.choice(binary[a])
            todo += [c, b]
        elif a in lexical:
            out.append(rng.choice(lexical[a]))
        else:
            return None
    return "".join(out)


@given(cnf_grammars(), st.randoms(use_true_random=False),
       st.lists(st.text("abcd", max_size=24), max_size=3))
def test_cyk_matches_reference(g, rng, words):
    # derived words and their one-letter edits sit on both sides of the
    # language; "d" is no terminal, and short random words are mostly
    # rejected, often by the early stop of sparse grammars
    for _ in range(4):
        w = _sample_word(g, rng, 24)
        if w is not None:
            i = rng.randrange(len(w))
            words += [w, w[:i] + rng.choice("abc") + w[i + 1:], w[:i] + w[i + 1:]]
    for w in words:
        assert cyk_member(g, w) == cyk_member_reference(g, w), w


def test_cyk_small_grammars():
    only_lex = Cfg(("S", "A"), ("a", "b"), ((1, 1, 1),), ((0, "a"), (1, "b")), 0)
    assert [cyk_member(only_lex, w) for w in ("", "a", "b", "aa", "bb")] == \
        [False, True, False, False, False]
    empty = Cfg(("S",), ("a",), (), (), 0, epsilon_in_language=True)
    assert [cyk_member(empty, w) for w in ("", "a", "aa")] == [True, False, False]
    # one left-hand side: its field fills the group up to the carry slot
    a_plus = Cfg.from_rules(("S", "T"), ("a", "b"),
                            [("S", ("S", "S")), ("S", ("T", "S")),
                             ("S", "a")], "S")
    for n in range(1, 12):
        for i in range(n):
            w = "a" * i + "b" + "a" * (n - i - 1)
            assert not cyk_member(a_plus, w), w
        assert cyk_member(a_plus, "a" * n)


def _random_magma(rng, g):
    table = [tuple(range(g))] + [
        tuple(x if y == 0 else rng.randrange(g) for y in range(g))
        for x in range(1, g)]
    return Magma(tuple(f"g{i}" for i in range(g)), tuple(table), 0)


@given(st.randoms(use_true_random=False), st.integers(1, 5),
       st.lists(st.integers(0, 4), min_size=1, max_size=16))
def test_groupoid_matches_reference(rng, g, word):
    m = _random_magma(rng, g)
    word = [x % g for x in word]
    want = groupoid_reachable_reference(m, word)
    assert groupoid_reachable(m, word) == want
    if len(word) <= 8:
        assert brute_force_bracketings(m, word) == want


@given(cnf_grammars(max_nonterminals=3),
       st.lists(st.text("abc", min_size=1, max_size=10), min_size=1, max_size=4))
def test_groupoid_on_cfg_groupoids(g, words):
    wp, hom = cfg_to_groupoid(g)
    assert word_problem_member(wp, []) == g.epsilon_in_language
    for w in words:
        elems = [hom[a] for a in w]
        reach = groupoid_reachable(wp.magma, elems)
        assert reach == groupoid_reachable_reference(wp.magma, elems), w
        assert bool(reach & wp.accept) == cyk_member_reference(g, w), w


def test_cfg_groupoid_of_parens_matches_reference(data_dir):
    # 17 elements, 289 rules: one bit group spans many machine words
    cfg = _load_cfg(data_dir, "parens.cfg")
    wp, hom = cfg_to_groupoid(cfg)
    rng = random.Random(8)
    for _ in range(40):
        w = _sample_word(cfg, rng, 12) if rng.random() < 0.5 else None
        w = w or "".join(rng.choice("()") for _ in range(rng.randint(1, 12)))
        elems = [hom[a] for a in w]
        reach = groupoid_reachable(wp.magma, elems)
        assert reach == groupoid_reachable_reference(wp.magma, elems), w
        assert bool(reach & wp.accept) == _parens_ok(w), w


# Long words: positions then span many machine words, so layout faults
# that short words hide show up here.

def test_majority_long_words():
    cfg = majority_grammar()
    rng = random.Random(12)
    for n in (200, 401, 600):
        for surplus in (-1, 0, 1, 2):
            ones = (n + surplus) // 2
            w = ["1"] * ones + ["0"] * (n - ones)
            rng.shuffle(w)
            assert cyk_member(cfg, w) == (w.count("1") > w.count("0")), (n, surplus)


def test_anbn_and_parens_long_words(data_dir):
    anbn = _load_cfg(data_dir, "anbn.cfg")
    a, b = "a" * 250, "b" * 250
    for w, want in [(a + b, True), (a + b[1:], False), ("b" + a[1:] + b, False),
                    (a[1:] + "b" + "a" + b[1:], False)]:
        assert cyk_member(anbn, w) == want
    parens = _load_cfg(data_dir, "parens.cfg")
    rng = random.Random(4)
    w = ""
    while len(w) < 500:
        w += "(" * rng.randint(1, 4)
        w += ")" * (w.count("(") - w.count(")") if rng.random() < 0.3
                    else rng.randint(0, w.count("(") - w.count(")")))
    w += ")" * (w.count("(") - w.count(")"))
    for v in (w, w[:-1], w[1:], w + w, w[:250] + ")" + w[250:] + "("):
        assert cyk_member(parens, v) == _parens_ok(v)


def test_groupoid_long_words_on_a_group():
    # in a group every bracketing gives the product, so the reachable set
    # is the fold: Z5 under addition, 300 letters
    z5 = Magma(tuple("01234"), tuple(tuple((x + y) % 5 for y in range(5))
                                      for x in range(5)), 0)
    rng = random.Random(6)
    word = [rng.randrange(5) for _ in range(300)]
    assert groupoid_reachable(z5, word) == frozenset({sum(word) % 5})


# Words past `_LANES_FROM` letters: from that span on, `_derive_top`
# decides the long operand pairs of `lanes` spans per big-integer op.

def test_lane_layouts(data_dir, g4):
    # (width, lanes): a pair is long when both operands head binary rules
    assert [(lay.width, lay.lanes) for lay in (
        majority_grammar()._layout, _load_cfg(data_dir, "parens.cfg")._layout,
        _load_cfg(data_dir, "anbn.cfg")._layout, g4._layout)] == \
        [(6, 3), (5, 5), (4, 1), (17, 1)]


@st.composite
def lane_grammars(draw, layout):
    """CNF grammars over "abc" with a `_derive_top` layout of one kind:
    "one lane" (every operand pair long), "lanes" (one or two long pairs
    among short ones) or "short" (no long pair). Heads N0.. each head a
    binary rule, the other symbols none; every rule has a head operand and
    every symbol a letter, so `_sample_word` with grow=1 fills max_len."""
    nh = draw(st.integers(2 if layout == "one lane" else 1, 3))
    ns = nh + draw(st.integers(1, 2))
    head = st.integers(0, nh - 1)
    pre = st.integers(nh, ns - 1)
    long_pair = st.tuples(head, head)
    short_pair = st.one_of(st.tuples(head, pre), st.tuples(pre, head))
    if layout == "one lane":
        pairs = draw(st.lists(long_pair, min_size=2, max_size=5, unique=True))
    elif layout == "lanes":
        pairs = (draw(st.lists(long_pair, min_size=1, max_size=2))
                 + draw(st.lists(short_pair, min_size=1, max_size=4)))
    else:
        pairs = draw(st.lists(short_pair, min_size=1, max_size=5))
    binary = [(draw(head), b, c) for b, c in pairs]
    binary += [(a, *pairs[a % len(pairs)]) for a in range(nh)]
    letter = st.sampled_from("abc")
    lexical = [(a, draw(letter)) for a in range(ns)] + draw(
        st.lists(st.tuples(st.integers(0, ns - 1), letter), max_size=2))
    return Cfg(tuple(f"N{i}" for i in range(ns)), ("a", "b", "c"),
               tuple(binary), tuple(lexical), draw(head))


@pytest.mark.parametrize("layout", ["one lane", "lanes", "short"])
@settings(max_examples=10)  # a reference check on 120 letters takes ~20 ms
@given(data=st.data())
def test_cyk_matches_reference_in_lanes(layout, data):
    g = data.draw(lane_grammars(layout))
    assert (g._layout.lanes > 1) == (layout == "lanes")
    rng = data.draw(st.randoms(use_true_random=False))
    n = data.draw(st.integers(_LANES_FROM + 8, 120))
    w = _sample_word(g, rng, n, grow=1)
    assert len(w) == n
    i = rng.randrange(n)
    for v in (w, w[:i] + rng.choice("abc") + w[i + 1:], w[:i] + w[i + 1:],
              w[:i] + rng.choice("abc") + w[i:]):
        assert cyk_member(g, v) == cyk_member_reference(g, v), v


@settings(max_examples=20)
@given(st.randoms(use_true_random=False), st.integers(1, 3),
       st.integers(_LANES_FROM + 4, 72))
def test_groupoid_matches_reference_in_lanes(rng, g, n):
    # every element x is the product e*x of the identity e, so a magma has
    # no short pair: one element gives 2 lanes, more give 1
    m = _random_magma(rng, g)
    assert m._layout.lanes == (2 if g == 1 else 1)
    word = [rng.randrange(g) for _ in range(n)]
    assert groupoid_reachable(m, word) == groupoid_reachable_reference(m, word)


@pytest.mark.parametrize("p", range(1, 9))
def test_every_split_length_decides(p):
    # S -> X Y, where X derives a^p alone and Y derives b+, splits every
    # span at exactly p letters, and S -> Y X at p letters from the end;
    # as p grows so do the lanes (2 to 5), so each kind of split, edge or
    # lane, is the only one that accepts some word
    rules = [("A", "a"), ("Y", "b"), ("Y", ("Y", "Y"))]
    x = "A"
    for k in range(2, p + 1):
        rules.append((f"X{k}", ("A", x)))
        x = f"X{k}"
    nts = ("S", "A", "Y") + tuple(f"X{k}" for k in range(2, p + 1))
    prefix = Cfg.from_rules(nts, "ab", rules + [("S", (x, "Y"))], "S")
    suffix = Cfg.from_rules(nts, "ab", rules + [("S", ("Y", x))], "S")
    for n in range(_LANES_FROM - 2, _LANES_FROM + 12):
        for a in (p - 1, p, p + 1):
            v = "a" * a + "b" * (n - a)
            assert cyk_member(prefix, v) == (a == p), v
            assert cyk_member(suffix, v[::-1]) == (a == p), v[::-1]


def test_wide_layout_starts_its_lanes_late():
    # S -> S S | N_i S | b over 45 letters N_i -> a: one long pair in a
    # group of 47 slots, so 47 lanes, whose runs start at span 94
    rules = [("S", "b"), ("S", ("S", "S"))]
    for i in range(45):
        rules += [(f"N{i}", "a"), ("S", (f"N{i}", "S"))]
    g = Cfg.from_rules(("S",) + tuple(f"N{i}" for i in range(45)), "ab",
                       rules, "S")
    assert (g._layout.lanes, g._layout.lanes_from) == (47, 94)
    rng = random.Random(5)
    for n in (60, 93, 94, 95, 141, 142, 200):
        w = "".join(rng.choice("ab") for _ in range(n))
        for v in (w[:-1] + "a", w[:-1] + "b"):
            assert cyk_member(g, v) == v.endswith("b"), v


def test_majority_around_the_first_lane_span():
    cfg = majority_grammar()
    lanes = cfg._layout.lanes
    rng = random.Random(27)
    for n in range(_LANES_FROM - 2, _LANES_FROM + 3 * lanes + 2):
        for excess in (-1, 0, 1, 2):
            ones = (n + excess) // 2
            w = ["1"] * ones + ["0"] * (n - ones)
            rng.shuffle(w)
            assert cyk_member(cfg, w) == (2 * w.count("1") > len(w)), (n, excess)


def test_parens_nested_and_concatenated(data_dir):
    parens = _load_cfg(data_dir, "parens.cfg")
    flat = "()" * 60
    for w in ("(" * 60 + ")" * 60, flat, "(" + flat + ")",
              "(" * 50 + flat + ")" * 50, "((()))" * 20 + "(" * 55 + ")" * 55,
              "(" + "()" * 30 + ")" + "(()(()))" * 15):
        assert len(w) >= 100 and _parens_ok(w)
        for v in (w, w[1:], w[:-1], w[:60] + w[61:], ")" + w[1:-1] + "(",
                  w + ")", w[:99] + "(" + w[99:]):
            assert cyk_member(parens, v) == _parens_ok(v), v


def test_anbn_around_the_lanes(data_dir):
    anbn = _load_cfg(data_dir, "anbn.cfg")

    def anbn_ok(v):
        k = len(v) // 2
        return k > 0 and v == "a" * k + "b" * k

    for k in range(30, 61):
        w = "a" * k + "b" * k
        edits = [w]
        for i in (0, k - 1, k, 2 * k - 1):  # both ends and the border
            edits += [w[:i] + "ba"[w[i] == "b"] + w[i + 1:], w[:i] + w[i + 1:],
                      w[:i] + "a" + w[i:]]
        for v in edits:
            assert cyk_member(anbn, v) == anbn_ok(v), (k, v)


def test_early_stop_inside_the_lanes(monkeypatch):
    # In 1^25 0^100 no operand derives more than 49 letters: 1^25 0^24 is
    # the longest part with more 1s than 0s, and no 0 is followed by a 1.
    # So the DP stops before span 99, in the lanes and short of 125.
    spans = []

    def splits(lb, rc, offsets, first, stop, span, acc=0):
        spans.append(span)
        return real(lb, rc, offsets, first, stop, span, acc)

    real = algebra._splits
    monkeypatch.setattr(algebra, "_splits", splits)
    cfg = majority_grammar()
    assert cfg._layout.lanes_from == _LANES_FROM
    assert not cyk_member(cfg, "1" * 25 + "0" * 100)
    in_lanes = [s for s in spans if s >= _LANES_FROM]
    assert (min(in_lanes), max(in_lanes)) == (_LANES_FROM, 98)


# ---------------------------------------------------------------------------
# The whole-language property checks against their reference loops


def _identity_magmas(g):
    """Every g-element multiplication table with identity 0."""
    free = [(x, y) for x in range(1, g) for y in range(1, g)]
    for values in itertools.product(range(g), repeat=len(free)):
        table = [list(range(g))] + [[x] + [0] * (g - 1) for x in range(1, g)]
        for (x, y), v in zip(free, values):
            table[x][y] = v
        yield Magma(tuple(f"g{i}" for i in range(g)),
                    tuple(map(tuple, table)), 0)


# associative -> every magma of one to three elements that is (or is not)
_MAGMAS = {flag: [m for g in (1, 2, 3) for m in _identity_magmas(g)
                  if check_associative(m) == flag] for flag in (True, False)}


def _random_word_problem(rng):
    """A word problem over a random magma of up to three elements,
    associative or not, whose letters map to elements in a random order."""
    m = rng.choice(_MAGMAS[rng.random() < 0.5])
    letters = tuple("xyz"[:m.size])
    accept = {x for x in range(m.size) if rng.random() < 0.5}
    return LanguageSpec("wp", letters, WordProblem.of(m, accept),
                        letter_map=dict(zip(letters, rng.sample(range(m.size),
                                                                m.size))))


def _random_dfa(rng, letters):
    """A DFA of two to four states, some but not all of them final; half the
    time one letter loops on every state, so that it is neutral."""
    q = rng.randint(2, 4)
    trans = [[rng.randrange(q) for _ in letters] for _ in range(q)]
    if rng.random() < 0.5:
        i = rng.randrange(len(letters))
        for s, row in enumerate(trans):
            row[i] = s
    return Dfa(tuple(f"q{i}" for i in range(q)), tuple(letters),
               tuple(map(tuple, trans)), rng.randrange(q),
               frozenset(rng.sample(range(q), rng.randint(1, q - 1))))


def _spec(body, letters, rng):
    """A spec over a random order of `letters`, so that spec rank order and
    body letter order differ."""
    return LanguageSpec("L", tuple(rng.sample(letters, len(letters))), body)


_rngs = st.randoms(use_true_random=False)

SPECS = {
    "cfg": st.builds(lambda g, rng: _spec(g, "abc", rng), cnf_grammars(), _rngs),
    "dfa": _rngs.map(lambda rng: _spec(_random_dfa(rng, "abc"), "abc", rng)),
    "word-problem": _rngs.map(_random_word_problem),
    "pad-dfa": _rngs.map(lambda rng: pad_language(
        _spec(_random_dfa(rng, "ab"), "ab", rng), "#")),
    "pad-cfg": st.builds(lambda g, rng: pad_language(_spec(g, "ab", rng), "#"),
                         cnf_grammars(terminals="ab"), _rngs),
}


def _first_refuted(reference, *args):
    """The least bound from 0 to 6 at which the reference check refutes, or
    7. Each check is monotone in its bound: once it refutes at one bound it
    refutes at every larger one."""
    if reference(*args, 6):
        return 7
    return next(n for n in range(7) if not reference(*args, n))


@pytest.mark.parametrize("kind", SPECS)
@settings(max_examples=30)  # a reference check on 3 letters takes ~0.1 s
@given(data=st.data())
def test_property_checks_match_references(kind, data):
    spec = data.draw(SPECS[kind])
    first = _first_refuted(is_symmetric_bounded_reference, spec)
    assert [is_symmetric_bounded(spec, n) for n in range(7)] == \
        [n < first for n in range(7)]
    for letter in spec.alphabet:
        first = _first_refuted(is_neutral_letter_bounded_reference, spec, letter)
        assert [is_neutral_letter_bounded(spec, letter, n) for n in range(7)] \
            == [n < first for n in range(7)], letter


@settings(max_examples=40)  # each example checks 5461 words
@given(st.one_of(cnf_grammars(), _rngs.map(lambda rng: _random_dfa(rng, "abc"))))
def test_pad_language_is_the_projection(body):
    # w is in the padded language iff w with its pads deleted is in the
    # original one; grammars come with either epsilon flag
    member = functools.cache(body.run if isinstance(body, Dfa) else
                             functools.partial(cyk_member_reference, body))
    padded = pad_language(LanguageSpec("L", tuple("abc"), body), "#")
    for n in range(7):
        for w in itertools.product("abc#", repeat=n):
            assert language_member(padded, w) == \
                member(tuple(x for x in w if x != "#")), w


def _property_registry(data_dir):
    reg = load_toolbox([data_dir]).languages
    reg["MajPad"] = pad_language(reg["Maj"], "#", name="MajPad")
    return reg


# the property checks the benchmark times, with their verdicts, and two
# that need a table level of 3^9 and 4^7 words
@pytest.mark.parametrize("lang,letter,length,want", [
    ("MajPad", "#", 5, True), ("MajPad", None, 6, True),
    ("Maj", None, 7, True), ("Maj", "0", 7, False),
    ("anbn", None, 7, False), ("anbn", "a", 6, False),
    ("g4", None, 7, False), ("g4", "e", 5, True),
    ("MajPad", "#", 8, True), ("g4", "e", 6, True),
])
def test_property_check_anchors(data_dir, lang, letter, length, want):
    spec = _property_registry(data_dir)[lang]
    if letter is None:
        assert is_symmetric_bounded(spec, length) == want
    else:
        assert is_neutral_letter_bounded(spec, letter, length) == want


def test_neutral_check_refutes_past_the_middle():
    # x resets a mod-3 counter of a's from 2 to 0 and is neutral elsewhere;
    # the first refutation comes at length 3 ("aa" x "a"), with every
    # refuting cut past the middle of the word and before its end
    spec = LanguageSpec("reset", ("a", "x"), Dfa(
        ("q0", "q1", "q2"), ("a", "x"), ((1, 0), (2, 1), (0, 0)), 0,
        frozenset({1})))
    for n in range(5):
        assert is_neutral_letter_bounded(spec, "x", n) == (n < 3) == \
            is_neutral_letter_bounded_reference(spec, "x", n)


def test_property_check_table_cap():
    # the cap bounds each table level: a refutation at a short length
    # still answers, and a check that would need a level of more than
    # TABLE_CAP words is refused
    reg = builtin_registry()
    assert not is_neutral_letter_bounded(reg["Maj"], "0", 40)
    with pytest.raises(CapExceeded) as exc:
        is_neutral_letter_bounded(reg["Lexists"], "0", 40)
    assert exc.value.required == 2 ** 21 > TABLE_CAP


def test_member_cache_is_bounded_by_characters(monkeypatch):
    runs = []
    run = Dfa.run
    monkeypatch.setattr(Dfa, "run",
                        lambda dfa, word: runs.append(word) or run(dfa, word))
    even_a = Dfa(("e", "o"), ("a", "b"), ((1, 0), (0, 1)), 0, frozenset({0}))
    spec = LanguageSpec("EvenA", ("a", "b"), even_a)
    length = MEMBER_CACHE_CHARS // 10
    for i in range(40):  # four budgets of distinct words
        word = "a" * i + "b" * (length - i)
        assert language_member(spec, word) == (i % 2 == 0)
        held = sum(map(len, spec._member_cache))
        assert word in spec._member_cache
        assert held == spec._member_chars <= MEMBER_CACHE_CHARS
    assert len(runs) == 40
    # a repeated short word is answered from the cache
    assert language_member(spec, "aba") and language_member(spec, "aba")
    assert runs[40:] == ["aba"]
