import dataclasses
import itertools
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from wordlogic.algebra import (
    Cfg,
    Dfa,
    cyk_member,
    language_member,
    pad_language,
)
from wordlogic.builtins import builtin_registry
from wordlogic.errors import (
    FormatError,
    InvariantViolation,
    UnknownLanguage,
    WordlogicError,
)
from wordlogic.formats import (
    _KEYS,
    Toolbox,
    algebra_language,
    load_toolbox,
    parse_algebra,
    parse_cfg,
    parse_dfa,
    parse_leaf_automaton,
    parse_signature,
)
from wordlogic.leafauto import LeafAutomaton, leaf_string

DATA = os.path.join(os.path.dirname(__file__), "data")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def read(data_dir, name):
    with open(os.path.join(data_dir, name)) as fh:
        return fh.read()


def test_parse_algebra_file(data_dir):
    magma, accept = parse_algebra(read(data_dir, "g4.alg"), "g4.alg")
    assert magma.elements == ("e", "a", "b", "c")
    assert magma.identity == 0
    assert accept == frozenset({0, 2})
    # aa = b per the table comment
    assert magma.table[1][1] == 2


def test_algebra_language_membership(data_dir):
    magma, accept = parse_algebra(read(data_dir, "g4.alg"))
    spec = algebra_language(magma, accept)
    # empty word folds to the identity, which is accepted
    assert language_member(spec, "")
    assert language_member(spec, "aa")


@pytest.mark.parametrize("text,msg", [
    ("identity: e\ntable:\ne", "missing 'elements:'"),
    ("elements: e a\ntable:\ne a\na e", "missing 'identity:'"),
    ("elements: e e\nidentity: e\ntable:\ne e\ne e", "duplicate element"),
    ("elements: e a\nidentity: e\ntable:\ne a", "1 rows, need 2"),
    ("elements: e a\nidentity: e\ntable:\ne a\na", "1 entries, need 2"),
    ("elements: e a\nidentity: e\ntable:\ne a\na x", "unknown element 'x'"),
    ("elements: e a\nidentity: z\ntable:\ne a\na e", "unknown identity"),
    ("elements: e a\nbogus: 1\ntable:\ne a\na e", "unknown key 'bogus'"),
])
def test_parse_algebra_errors(text, msg):
    with pytest.raises(FormatError) as ei:
        parse_algebra(text, "x.alg")
    assert msg in str(ei.value)


def test_format_error_carries_location():
    with pytest.raises(FormatError) as ei:
        parse_algebra("elements e a", "bad.alg")
    err = ei.value
    assert err.path == "bad.alg" and err.line == 1


def test_parse_dfa_file(data_dir):
    dfa, neutral = parse_dfa(read(data_dir, "ends_a.dfa"))
    assert neutral is None
    assert dfa.run("ba") and not dfa.run("ab") and not dfa.run("")


@pytest.mark.parametrize("text,msg", [
    ("states: q\nalphabet: a\nstart: q\ntrans: q a q", "missing 'finals:'"),
    ("states: q\nalphabet: a\nstart: q\nfinals: q", "missing transition"),
    ("states: q\nalphabet: a\nstart: q\nfinals: q\ntrans: q a q\n"
     "trans: q a q", "duplicate transition"),
    ("states: q\nalphabet: a\nstart: z\nfinals: q\ntrans: q a q",
     "unknown start"),
    ("states: q\nalphabet: a\nstart: q\nfinals: z\ntrans: q a q",
     "unknown final"),
    ("states: q\nalphabet: a\nstart: q\nfinals: q\ntrans: q b q",
     "unknown letter"),
    ("states: q\nalphabet: a\nstart: q\nfinals: q\ntrans: q a q\n"
     "neutral: b", "not in alphabet"),
])
def test_parse_dfa_errors(text, msg):
    with pytest.raises(FormatError) as ei:
        parse_dfa(text, "x.dfa")
    assert msg in str(ei.value)


def test_parse_cfg_file(data_dir):
    cfg, alphabet, neutral = parse_cfg(read(data_dir, "anbn.cfg"))
    assert alphabet == ("a", "b")
    assert neutral is None
    assert cyk_member(cfg, "aabb") and not cyk_member(cfg, "abab")
    assert not cyk_member(cfg, "")


def test_parse_cfg_epsilon_flag():
    cfg, _, _ = parse_cfg("start: S\nepsilon: true\nS -> 'a'")
    assert cyk_member(cfg, "") and cyk_member(cfg, "a")


@pytest.mark.parametrize("text,msg", [
    ("S -> 'a'", "missing 'start:'"),
    ("start: S", "no production"),
    ("start: S\nS -> A B C", "productions must be"),
    ("start: S\nalphabet: b\nS -> 'a'", "missing from alphabet"),
    ("start: S\nepsilon: maybe\nS -> 'a'", "must be true or false"),
    ("start: S\nneutral: z\nS -> 'a'", "not in alphabet"),
])
def test_parse_cfg_errors(text, msg):
    with pytest.raises(FormatError) as ei:
        parse_cfg(text, "x.cfg")
    assert msg in str(ei.value)


def test_parse_leaf_automaton_file(data_dir):
    M = parse_leaf_automaton(read(data_dir, "spawn.leaf"))
    assert leaf_string(M, "aa") == "011"


@pytest.mark.parametrize("text,msg", [
    ("states: p\ninput: a\nleaf: 0\nbeta: p 0\ndelta: p a -> p",
     "missing 'start:'"),
    ("states: p\ninput: a\nleaf: 0\nstart: p\ndelta: p a -> p",
     "missing beta"),
    ("states: p\ninput: a\nleaf: 0\nstart: p\nbeta: p 0",
     "missing delta"),
    ("states: p\ninput: a\nleaf: 0\nstart: p\nbeta: p 1\ndelta: p a -> p",
     "not in leaf alphabet"),
    ("states: p\ninput: a\nleaf: 0\nstart: p\nbeta: p 0\ndelta: p a -> z",
     "unknown successor"),
    ("states: p\ninput: a\nleaf: 0\nstart: p\nbeta: p 0\ndelta: p a",
     "expected 'delta:"),
])
def test_parse_leaf_automaton_errors(text, msg):
    with pytest.raises(FormatError) as ei:
        parse_leaf_automaton(text, "x.leaf")
    assert msg in str(ei.value)


def test_parse_signature(data_dir):
    assert parse_signature(read(data_dir, "sig2.sig")) == ("c1", "c2")
    with pytest.raises(FormatError):
        parse_signature("constants: c c", "x.sig")
    with pytest.raises(FormatError):
        parse_signature("", "x.sig")


def test_load_toolbox(data_dir):
    box = load_toolbox([data_dir])
    # builtins present
    assert "Maj" in box.languages and "Lexists" in box.languages
    # files registered under their stem names
    assert "g4" in box.algebras
    assert language_member(box.language("ends_a"), "ba")
    assert language_member(box.language("anbn"), "ab")
    assert "spawn" in box.leaf_automata
    assert box.signatures["sig2"] == ("c1", "c2")
    with pytest.raises(UnknownLanguage):
        box.language("nope")


def test_load_toolbox_empty_is_builtins_only():
    box = load_toolbox([])
    assert set(box.leaf_automata) == set()
    assert "Lmod2" in box.languages


def test_load_toolbox_duplicate_names(tmp_path, data_dir):
    src = read(data_dir, "ends_a.dfa")
    (tmp_path / "Maj.dfa").write_text(src)
    with pytest.raises(InvariantViolation):
        load_toolbox([str(tmp_path)])


@pytest.mark.parametrize("ext,first,second,msg", [
    ("alg", "g4.alg", "elements: e\nidentity: e\ntable:\ne\n",
     "duplicate algebra 'g'"),
    ("sig", "sig2.sig", "constants: c\n", "duplicate signature 'g'"),
])
def test_load_toolbox_refuses_a_stem_in_two_directories(
        tmp_path, data_dir, ext, first, second, msg):
    # a later file of the same stem must not replace the earlier one
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d, text in zip(dirs, (read(data_dir, first), second)):
        d.mkdir()
        (d / f"g.{ext}").write_text(text)
    with pytest.raises(InvariantViolation) as ei:
        load_toolbox([str(d) for d in dirs])
    assert str(ei.value) == msg


# Every loader error, pinned whole: the exception type, the full message with
# its `path:line:` prefix, and `.line`. One input at least per reachable
# error site.
_ALG = "elements: e a\nidentity: e\ntable:\ne a\na e\n"
_DFA = "states: q r\nalphabet: a b\nstart: q\nfinals: r\n"
_TRANS = "trans: q a r\ntrans: q b q\ntrans: r a r\ntrans: r b q\n"
_LEAF = "states: p q\ninput: a\nleaf: 0 1\nstart: p\n"
_BETA_DELTA = "beta: p 0\nbeta: q 1\ndelta: p a -> p q\ndelta: q a -> q\n"
_PARSERS = {"alg": parse_algebra, "dfa": parse_dfa, "cfg": parse_cfg,
            "leaf": parse_leaf_automaton, "sig": parse_signature}

LOADER_ERRORS = [
    ("alg", "elements e a",
     "x.alg:1: expected 'key: value', got 'elements e a'", 1),
    ("alg", "elements: e\ne\nidentity: e\ntable:\ne",
     "x.alg:2: expected 'key: value', got 'e'", 2),
    ("alg", "elements: e a\nidentity: e\ntable:\ne a\naccept: e\na e",
     "x.alg:6: expected 'key: value', got 'a e'", 6),
    ("alg", "elements: e a\nbogus: 1\ntable:\ne a\na e",
     "x.alg:2: unknown key 'bogus'", 2),
    ("alg", "identity: e\ntable:\ne", "x.alg: missing 'elements:' line", None),
    ("alg", "elements: e e\nidentity: e\ntable:\ne e\ne e",
     "x.alg: duplicate element names", None),
    ("alg", "elements: e a\nidentity: e\ntable:\ne a",
     "x.alg: table has 1 rows, need 2", None),
    ("alg", "elements: e a\nidentity: e\ntable:\ne a\na",
     "x.alg:5: table row has 1 entries, need 2", 5),
    ("alg", "elements: e a\nidentity: e\ntable:\ne a\na x",
     "x.alg:5: unknown element 'x'", 5),
    ("alg", "elements: e a\ntable:\ne a\na x",
     "x.alg:4: unknown element 'x'", 4),
    ("alg", "elements: e a\ntable:\ne a\na e",
     "x.alg: missing 'identity:' line", None),
    ("alg", "elements: e a\nidentity:\ntable:\ne a\na e",
     "x.alg: missing 'identity:' line", None),
    ("alg", "elements: e a\nidentity: z\ntable:\ne a\na e",
     "x.alg: unknown identity element 'z'", None),
    ("alg", "elements:\nidentity: e\ntable:",
     "x.alg: unknown identity element 'e'", None),
    ("alg", _ALG + "accept: e z", "x.alg: unknown accept element 'z'", None),
    ("dfa", _DFA + "trans q a r",
     "x.dfa:5: expected 'key: value', got 'trans q a r'", 5),
    ("dfa", _DFA + "final: r\n" + _TRANS, "x.dfa:5: unknown key 'final'", 5),
    ("dfa", "alphabet: a b\nstart: q\nfinals: r\n" + _TRANS,
     "x.dfa: missing 'states:' line", None),
    ("dfa", "states: q r\nstart: q\nfinals: r\n" + _TRANS,
     "x.dfa: missing 'alphabet:' line", None),
    ("dfa", "states: q r\nalphabet: a b\nfinals: r\n" + _TRANS,
     "x.dfa: missing 'start:' line", None),
    ("dfa", "states: q r\nalphabet: a b\nstart: q\n" + _TRANS,
     "x.dfa: missing 'finals:' line", None),
    ("dfa", _DFA + _TRANS + "trans: q a",
     "x.dfa:9: expected 'trans: q letter q2'", 9),
    ("dfa", _DFA + "trans: x a r\n" + _TRANS, "x.dfa:5: unknown state 'x'", 5),
    ("dfa", _DFA + _TRANS + "trans: q c r", "x.dfa:9: unknown letter 'c'", 9),
    ("dfa", _DFA + "trans: q a z\n" + _TRANS, "x.dfa:5: unknown state 'z'", 5),
    ("dfa", _DFA + _TRANS + "trans: r b r",
     "x.dfa:9: duplicate transition for (r, b)", 9),
    ("dfa", _DFA + "trans: q a r\ntrans: q b q\ntrans: r a r\n",
     "x.dfa: missing transition for (r, b)", None),
    ("dfa", "states: q q\nalphabet: a\nstart: q\nfinals: q\ntrans: q a q",
     "x.dfa: missing transition for (q, a)", None),
    ("dfa", "states: q r\nalphabet: a b\nstart: z\nfinals: r\n" + _TRANS,
     "x.dfa: unknown start state 'z'", None),
    ("dfa", "states: q r\nalphabet: a b\nstart: q\nfinals: r z\n" + _TRANS,
     "x.dfa: unknown final state 'z'", None),
    ("dfa", _DFA + _TRANS + "neutral: c",
     "x.dfa: neutral letter 'c' not in alphabet", None),
    ("cfg", "start: S\nS -> A B C",
     "x.cfg:2: productions must be `A -> B C` or `A -> 'x'`", 2),
    ("cfg", "start: S\nS -> A",
     "x.cfg:2: productions must be `A -> B C` or `A -> 'x'`", 2),
    ("cfg", "start: S\nS -> ''",
     "x.cfg:2: productions must be `A -> B C` or `A -> 'x'`", 2),
    ("cfg", "start: S\nepsilon: maybe\nS -> 'a'",
     "x.cfg:2: epsilon must be true or false", 2),
    ("cfg", "start: S\nS -> 'a'\nepsilon: yes\nS -> A B C",
     "x.cfg:3: epsilon must be true or false", 3),
    ("cfg", "start: S\nterminals: a\nS -> 'a'",
     "x.cfg:2: unknown key 'terminals'", 2),
    ("cfg", "start S\nS -> 'a'",
     "x.cfg:1: expected 'key: value', got 'start S'", 1),
    ("cfg", "S -> 'a'", "x.cfg: missing 'start:' line", None),
    ("cfg", "start: S", "x.cfg: start symbol 'S' has no production", None),
    ("cfg", "start: T\nS -> 'a'",
     "x.cfg: start symbol 'T' has no production", None),
    ("cfg", "start: S\nalphabet: b\nS -> 'a'",
     "x.cfg: terminal 'a' missing from alphabet", None),
    ("cfg", "start: S\nneutral: z\nS -> 'a'",
     "x.cfg: neutral letter 'z' not in alphabet", None),
    ("leaf", _LEAF + "bogus: 1\n" + _BETA_DELTA,
     "x.leaf:5: unknown key 'bogus'", 5),
    ("leaf", _LEAF + "beta p 0\n" + _BETA_DELTA,
     "x.leaf:5: expected 'key: value', got 'beta p 0'", 5),
    ("leaf", "input: a\nleaf: 0 1\nstart: p\n" + _BETA_DELTA,
     "x.leaf: missing 'states:' line", None),
    ("leaf", "states: p q\nleaf: 0 1\nstart: p\n" + _BETA_DELTA,
     "x.leaf: missing 'input:' line", None),
    ("leaf", "states: p q\ninput: a\nstart: p\n" + _BETA_DELTA,
     "x.leaf: missing 'leaf:' line", None),
    ("leaf", "states: p q\ninput: a\nleaf: 0 1\n" + _BETA_DELTA,
     "x.leaf: missing 'start:' line", None),
    ("leaf", _LEAF + "beta: p\n" + _BETA_DELTA,
     "x.leaf:5: expected 'beta: q x'", 5),
    ("leaf", _LEAF + "beta: z 0\n" + _BETA_DELTA,
     "x.leaf:5: unknown state 'z'", 5),
    ("leaf", _LEAF + "beta: q 2\n" + _BETA_DELTA,
     "x.leaf:5: leaf symbol '2' not in leaf alphabet", 5),
    ("leaf", _LEAF + "beta: p 0\ndelta: p a -> p q\ndelta: q a -> q\n",
     "x.leaf: missing beta for state 'q'", None),
    ("leaf", _LEAF + _BETA_DELTA + "delta: p a",
     "x.leaf:9: expected 'delta: q a -> q1 q2 ...'", 9),
    ("leaf", _LEAF + _BETA_DELTA + "delta: p -> q",
     "x.leaf:9: expected 'delta: q a -> q1 q2 ...'", 9),
    ("leaf", _LEAF + _BETA_DELTA + "delta: p a ->",
     "x.leaf:9: expected 'delta: q a -> q1 q2 ...'", 9),
    ("leaf", _LEAF + _BETA_DELTA + "delta: z a -> p",
     "x.leaf:9: unknown state 'z'", 9),
    ("leaf", _LEAF + _BETA_DELTA + "delta: p b -> p",
     "x.leaf:9: unknown input letter 'b'", 9),
    ("leaf", _LEAF + _BETA_DELTA + "delta: p a -> p z",
     "x.leaf:9: unknown successor 'z'", 9),
    ("leaf", _LEAF + "beta: p 0\nbeta: q 1\ndelta: p a -> p q\n",
     "x.leaf: missing delta for (q, a)", None),
    ("leaf", "states: p q\ninput: a\nleaf: 0 1\nstart: z\n" + _BETA_DELTA,
     "x.leaf: unknown start state 'z'", None),
    ("sig", "constants c1",
     "x.sig:1: expected 'key: value', got 'constants c1'", 1),
    ("sig", "constants: c1\nconst: c2", "x.sig:2: unknown key 'const'", 2),
    ("sig", "", "x.sig: missing 'constants:' line", None),
    ("sig", "# only a comment\n", "x.sig: missing 'constants:' line", None),
    ("sig", "constants: c c", "x.sig: duplicate constant names", None),
]


@pytest.mark.parametrize("kind,text,message,line", LOADER_ERRORS,
                         ids=[f"{k}-{m[m.index(' ') + 1:][:40]}"
                              for k, _, m, _ in LOADER_ERRORS])
def test_loader_error_table(kind, text, message, line):
    with pytest.raises(FormatError) as ei:
        _PARSERS[kind](text, f"x.{kind}")
    assert type(ei.value) is FormatError
    assert (str(ei.value), ei.value.line) == (message, line)


def test_load_toolbox_file_errors(tmp_path):
    missing = str(tmp_path / "nope.dfa")
    with pytest.raises(FormatError) as ei:
        load_toolbox([missing])
    assert type(ei.value) is FormatError
    assert str(ei.value) == (f"{missing}: [Errno 2] No such file or "
                             f"directory: {missing!r}")
    assert (ei.value.path, ei.value.line) == (missing, None)
    other = tmp_path / "notes.txt"
    other.write_text("constants: c\n")
    with pytest.raises(FormatError) as ei:
        load_toolbox([str(other)])
    assert type(ei.value) is FormatError
    assert str(ei.value) == f"{other}: unrecognized extension '.txt'"
    assert (ei.value.path, ei.value.line) == (str(other), None)


def test_data_files_parse_to_known_objects(data_dir, g4):
    def parse(parser, name):
        return parser(read(data_dir, name), os.path.join(data_dir, name))

    assert parse(parse_algebra, "g4.alg") == (
        dataclasses.replace(g4, name="g4"), frozenset({0, 2}))
    assert parse(parse_dfa, "ends_a.dfa") == (
        Dfa(("q0", "q1"), ("a", "b"), ((1, 0), (1, 0)), 0, frozenset({1})),
        None)
    anbn = Cfg.from_rules(("S", "A", "T", "B"), ("a", "b"), [
        ("S", ("A", "T")), ("S", ("A", "B")), ("T", ("S", "B")),
        ("A", "a"), ("B", "b")], "S")
    assert parse(parse_cfg, "anbn.cfg") == (anbn, ("a", "b"), None)
    parens = Cfg.from_rules(("S", "L", "T", "R"), ("(", ")"), [
        ("S", ("L", "T")), ("S", ("L", "R")), ("S", ("S", "S")),
        ("T", ("S", "R")), ("L", "("), ("R", ")")], "S")
    assert parse(parse_cfg, "parens.cfg") == (parens, ("(", ")"), None)
    assert parse(parse_leaf_automaton, "spawn.leaf") == LeafAutomaton(
        ("p", "q"), ("a",), (((0, 1),), ((1,),)), 0, ("0", "1"), ("0", "1"))
    assert parse(parse_signature, "sig2.sig") == ("c1", "c2")


# `#` starts a comment only as the first non-blank character of a line, so a
# language padded with the default pad letter `#` can be written as a file.
def _dfa_text(spec):
    d = spec.body
    return "\n".join([
        "# a DFA padded with #",
        f"states: {' '.join(d.states)}",
        f"alphabet: {' '.join(d.alphabet)}",
        f"start: {d.states[d.start]}",
        f"finals: {' '.join(d.states[q] for q in sorted(d.finals))}",
        f"neutral: {spec.declared_neutral}",
    ] + [f"trans: {d.states[q]} {a} {d.states[row[j]]}"
         for q, row in enumerate(d.trans) for j, a in enumerate(d.alphabet)])


def _cfg_text(spec):
    g = spec.body
    nts = g.nonterminals
    return "\n".join([
        "  # a grammar padded with #",
        f"start: {nts[g.start]}",
        f"alphabet: {' '.join(spec.alphabet)}",
        f"neutral: {spec.declared_neutral}",
        f"epsilon: {str(g.epsilon_in_language).lower()}",
    ] + [f"{nts[a]} -> {nts[b]} {nts[c]}" for a, b, c in g.binary]
      + [f"{nts[a]} -> '{t}'" for a, t in g.lexical])


@pytest.mark.parametrize("base,ext,write", [
    ("Maj", ".cfg", _cfg_text),
    ("Lexists", ".dfa", _dfa_text),
])
def test_hash_padded_language_round_trips_through_a_file(
        tmp_path, base, ext, write):
    spec = pad_language(builtin_registry()[base], "#", name="Padded")
    text = write(spec)
    assert "#" in text.split("\n", 1)[1]
    (tmp_path / ("Padded" + ext)).write_text(text)
    loaded = load_toolbox([str(tmp_path)]).language("Padded")
    assert loaded.alphabet == ("1", "0", "#")
    assert loaded.declared_neutral == "#"
    for n in range(7):
        for word in itertools.product(spec.alphabet, repeat=n):
            assert language_member(loaded, word) == \
                language_member(spec, word), word


def test_hash_is_data_after_the_line_start():
    dfa, neutral = parse_dfa("states: q\nalphabet: 1 0 #\nstart: q\n"
                             "finals: q\nneutral: #\n  # comment\n"
                             "trans: q 1 q\ntrans: q 0 q\ntrans: q # q")
    assert dfa.alphabet == ("1", "0", "#") and neutral == "#"
    cfg, alphabet, _ = parse_cfg("start: H\nH -> '#'")
    assert alphabet == ("#",) and cyk_member(cfg, "#")
    # what used to be a trailing comment is now data
    assert parse_signature("constants: c1 # c2") == ("c1", "#", "c2")


def test_readme_lists_every_format_key():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## File formats"):]
    rows = re.findall(r"^\| `(\.\w+)` \| (.*) \|$", section, re.M)
    listed = {ext: set(re.findall(r"`(\w+)`(\*?)", keys))
              for ext, keys in rows}
    declared = {ext: {(key, "") for key in one} | {(key, "*") for key in many}
                for ext, (one, many) in _KEYS.items()}
    assert listed == declared
    assert "first non-blank character is `#` is a comment" in \
        " ".join(section.split())


# Mutated data files: whatever a loader makes of them, it either returns or
# raises a WordlogicError.
_DATA_FILES = sorted(f for f in os.listdir(DATA)
                     if os.path.splitext(f)[1] in _KEYS)
_TOKENS = ["#", ":", "->", "'", "''", "'#'", "x", "q0", "a", "1", "true",
           "table:", "trans:", "-", "(", ""]


@st.composite
def _mutants(draw):
    name = draw(st.sampled_from(_DATA_FILES))
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    index = st.integers(0, 1 << 16)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "token", "char"]))
        if not lines:
            lines = [draw(st.sampled_from(_TOKENS))]
        i = draw(index) % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(index) % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            words = lines[i].split() or [""]
            words[draw(index) % len(words)] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(words)
        else:
            line = lines[i]
            at = draw(index) % (len(line) + 1)
            new = draw(st.sampled_from(["", " ", "#", ":", "'", ">", "x"]))
            lines[i] = line[:at] + new + line[at + draw(st.integers(0, 1)):]
    return os.path.splitext(name)[1], "\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=1000)
@given(_mutants())
def test_loaders_fail_only_with_typed_errors(fuzz_dir, mutant):
    ext, text = mutant
    for parse in (parse_algebra, parse_dfa, parse_cfg, parse_leaf_automaton,
                  parse_signature):
        try:
            parse(text, "m" + ext)
        except WordlogicError:
            pass
    for old in fuzz_dir.iterdir():
        old.unlink()
    (fuzz_dir / ("m" + ext)).write_text(text, encoding="utf-8")
    try:
        load_toolbox([str(fuzz_dir)])
    except WordlogicError:
        pass
