import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from wordlogic.builtins import builtin_registry
from wordlogic.errors import (
    ArityMismatch,
    FormulaSyntaxError,
    InvariantViolation,
    NestingCapExceeded,
    UnknownLanguage,
    WordlogicError,
)
from wordlogic.logic import (
    CONCATENATED,
    INTERLEAVED,
    MAX,
    MIN,
    And,
    ConstSym,
    ExistsFO,
    InRel,
    Letter,
    LindFO,
    LindSO,
    MAX_NESTING,
    Or,
    ShuffleBit,
    Var,
    evaluate,
    structure_from_string,
)
from wordlogic import sexpr
from wordlogic.sexpr import format_formula, parse_formula


def test_corpus_round_trip(data_dir):
    reg = builtin_registry()
    path = os.path.join(data_dir, "formulas.txt")
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    assert lines
    for line in lines:
        f = parse_formula(line, reg)
        printed = format_formula(f)
        assert parse_formula(printed, reg) == f


def test_terms():
    f = parse_formula("(= min max)")
    assert f.left is MIN and f.right is MAX
    f = parse_formula("(< $c1 x)")
    assert f.left == ConstSym("c1") and f.right == Var("x")


def test_variadic_and_or_left_assoc():
    f = parse_formula("(and (true) (false) (true))")
    assert f == And(And(parse_formula("(true)"), parse_formula("(false)")),
                    parse_formula("(true)"))
    g = parse_formula("(or (true) (false) (true))")
    assert isinstance(g, Or) and isinstance(g.left, Or)


def test_comments_and_whitespace():
    text = """
    ; leading comment
    (exists x  ; bind x
       (letter a x))
    """
    assert parse_formula(text) == ExistsFO("x", Letter("a", Var("x")))


def test_lindfo_and_lindso_orderings():
    reg = builtin_registry()
    f = parse_formula("(Q Lexists (x) (letter a x))", reg)
    assert f == LindFO("Lexists", ("x",), (Letter("a", Var("x")),))
    g = parse_formula("(Q1 Lexists 1 (X) (in X min))", reg)
    assert isinstance(g, LindSO) and g.ordering == INTERLEAVED
    h = parse_formula("(Qstar Lexists 1 (X) (in X min))", reg)
    assert h.ordering == CONCATENATED


def test_shuffle_bit_form():
    f = parse_formula("(shuffle-bit to_interleaved 0 2 x (A B))")
    assert f == ShuffleBit("to_interleaved", 0, 2, Var("x"), ("A", "B"))


def test_in_multiple_terms():
    f = parse_formula("(in X min x max)")
    assert f == InRel("X", (MIN, Var("x"), MAX))


def test_unknown_language():
    with pytest.raises(UnknownLanguage) as ei:
        parse_formula("(Q NoSuch (x) (true))", builtin_registry())
    assert "1:2" in str(ei.value)


def test_language_arity_checked():
    with pytest.raises(ArityMismatch) as ei:
        parse_formula("(Q Lexists (x) (true) (false))", builtin_registry())
    assert "got 2" in str(ei.value)


def test_parser_and_evaluator_give_one_arity_mismatch_text():
    text = "(Qstar Maj 1 (X) (true) (true))"
    with pytest.raises(ArityMismatch) as parsed:
        parse_formula(text, builtin_registry())
    with pytest.raises(ArityMismatch) as evaluated:
        evaluate(structure_from_string("ab", "ab"), parse_formula(text),
                 registry=builtin_registry())
    assert str(parsed.value) == "1:2: " + str(evaluated.value)
    assert str(evaluated.value) == "Maj takes 1 argument formulas, got 2"


def test_no_registry_skips_language_checks():
    parse_formula("(Q NoSuch (x) (true))")


@pytest.mark.parametrize("text,msg", [
    ("", "empty input"),
    ("(exists x (letter a x)", "unclosed '('"),
    ("(true) (false)", "trailing input"),
    ("(frob x)", "unknown operator"),
    ("x", "expected a formula"),
    ("(and (true))", "at least 2"),
    ("(= min)", "takes 2 operands"),
    ("(Q1 Lexists one (X) (true))", "arity must be an integer"),
    ("(exists (x) (true))", "expected a variable"),
    ("(exists () (true))", "1:9: expected a variable, got a list"),
    ("(in X ())", "1:7: expected a term, got a list"),
    ("(lt-pow2 ())", "1:10: expected a term, got a list"),
    ("(= $ x)", "empty constant name"),
    (")", "unexpected ')'"),
])
def test_syntax_errors(text, msg):
    with pytest.raises(FormulaSyntaxError) as ei:
        parse_formula(text)
    assert msg in str(ei.value)


def test_error_positions():
    with pytest.raises(FormulaSyntaxError) as ei:
        parse_formula("(and (true)\n  (frob))")
    err = ei.value
    assert err.line == 2 and err.column == 4


def test_format_refuses_deep_and_chains():
    # (and F1 ... Fk) parses as a chain of k-1 binary And nodes
    def conj(k):
        return parse_formula("(and" + " (true)" * k + ")")
    at_limit = conj(MAX_NESTING + 1)
    assert format_formula(at_limit) == "(and " * MAX_NESTING + "(true)" + \
        " (true))" * MAX_NESTING
    for k in (MAX_NESTING + 2, 3000):
        with pytest.raises(NestingCapExceeded):
            format_formula(conj(k))


_NEST = "(not " * (MAX_NESTING + 2) + "(true)" + ")" * (MAX_NESTING + 2)

# Malformed inputs with the exception type and line:col each raises (None:
# no position), at least one per head and per error path of the reader.
ERROR_TABLE = [
    ("", FormulaSyntaxError, None),
    ("; only a comment\n", FormulaSyntaxError, None),
    ("(exists x (letter a x)", FormulaSyntaxError, "1:1"),
    ("(and (true)\n (not (false)", FormulaSyntaxError, "2:2"),
    (")", FormulaSyntaxError, "1:1"),
    ("(true))", FormulaSyntaxError, "1:7"),
    ("(true) (false)", FormulaSyntaxError, "1:8"),
    ("x y", FormulaSyntaxError, "1:3"),
    (_NEST, NestingCapExceeded, "1:1506"),
    ("x", FormulaSyntaxError, "1:1"),
    ("(frob x)", FormulaSyntaxError, "1:2"),
    ("(EXISTS x (true))", FormulaSyntaxError, "1:2"),
    ("()", FormulaSyntaxError, "1:1"),
    ("((true))", FormulaSyntaxError, "1:1"),
    ("(not x)", FormulaSyntaxError, "1:6"),
    ("(true x)", FormulaSyntaxError, "1:2"),
    ("(false (true))", FormulaSyntaxError, "1:2"),
    ("(not)", FormulaSyntaxError, "1:2"),
    ("(and (true))", FormulaSyntaxError, "1:2"),
    ("(or)", FormulaSyntaxError, "1:2"),
    ("(= min)", FormulaSyntaxError, "1:2"),
    ("(< x (y))", FormulaSyntaxError, "1:7"),
    ("(letter (a) x)", FormulaSyntaxError, "1:10"),
    ("(letter a $)", FormulaSyntaxError, "1:11"),
    ("(in X)", FormulaSyntaxError, "1:2"),
    ("(in (X) x)", FormulaSyntaxError, "1:6"),
    ("(in X (y))", FormulaSyntaxError, "1:8"),
    ("(plus x y)", FormulaSyntaxError, "1:2"),
    ("(times x y z w)", FormulaSyntaxError, "1:2"),
    ("(bit x)", FormulaSyntaxError, "1:2"),
    ("(msb-bit x)", FormulaSyntaxError, "1:2"),
    ("(size-bit)", FormulaSyntaxError, "1:2"),
    ("(lt-log x y)", FormulaSyntaxError, "1:2"),
    ("(lt-pow2 ())", FormulaSyntaxError, "1:10"),
    ("(set-times X Y (Z))", FormulaSyntaxError, "1:17"),
    ("(set-times X Y)", FormulaSyntaxError, "1:2"),
    ("(shuffle-bit to_interleaved 0 2 x)", FormulaSyntaxError, "1:2"),
    ("(shuffle-bit to_interleaved zero 2 x (A B))", FormulaSyntaxError, "1:2"),
    ("(shuffle-bit to_interleaved 0 two x (A B))", FormulaSyntaxError, "1:2"),
    ("(shuffle-bit (dir) 0 2 x (A B))", FormulaSyntaxError, "1:15"),
    ("(shuffle-bit to_interleaved (0) 2 x (A B))", FormulaSyntaxError, "1:30"),
    ("(shuffle-bit to_interleaved 0 2 (x) (A B))", FormulaSyntaxError, "1:34"),
    ("(shuffle-bit to_interleaved 0 2 x A)", FormulaSyntaxError, "1:35"),
    ("(shuffle-bit to_interleaved 0 2 x ())", FormulaSyntaxError, "1:35"),
    ("(shuffle-bit to_interleaved 0 2 x (A (B)))", FormulaSyntaxError, "1:39"),
    ("(exists (x) (true))", FormulaSyntaxError, "1:10"),
    ("(exists () (true))", FormulaSyntaxError, "1:9"),
    ("(exists ((x)) (true))", FormulaSyntaxError, "1:9"),
    ("(forall x)", FormulaSyntaxError, "1:2"),
    ("(existsSO X (true) (true))", FormulaSyntaxError, "1:2"),
    ("(exists x y)", FormulaSyntaxError, "1:11"),
    ("(Q Lexists (x))", FormulaSyntaxError, "1:2"),
    ("(Q (Lexists) (x) (true))", FormulaSyntaxError, "1:5"),
    ("(Q Lexists x (true))", FormulaSyntaxError, "1:12"),
    ("(Q Lexists () (true))", FormulaSyntaxError, "1:12"),
    ("(Q NoSuch (x) (true))", UnknownLanguage, "1:2"),
    ("(Q Lexists (x) (true) (false))", ArityMismatch, "1:2"),
    ("(Q NoSuch (x) (frob))", FormulaSyntaxError, "1:16"),
    ("(Q Lexists (x) y)", FormulaSyntaxError, "1:16"),
    ("(Q1 Lexists 1 (X))", FormulaSyntaxError, "1:2"),
    ("(Q1 Lexists one (X) (true))", FormulaSyntaxError, "1:2"),
    ("(Q1 NoSuch 1 (X) (true))", UnknownLanguage, "1:2"),
    ("(Qstar Lexists 1 X (true))", FormulaSyntaxError, "1:18"),
    ("(Qstar Lexists (1) (X) (true))", FormulaSyntaxError, "1:17"),
    ("(Qstar Lmod2 1 (X))", FormulaSyntaxError, "1:2"),
    ("(Qstar Maj 1 (X) (true) (true))", ArityMismatch, "1:2"),
    ("(= $ x)", FormulaSyntaxError, "1:4"),
    ("(and (true)\n  (frob))", FormulaSyntaxError, "2:4"),
    ("(and\t(true)\t(frob))", FormulaSyntaxError, "1:14"),
    ("(and (true)\r\n (frob))", FormulaSyntaxError, "2:3"),
    ("; c\n(not x) ; tail", FormulaSyntaxError, "2:6"),
    ("(or (true) (= x)\n)", FormulaSyntaxError, "1:13"),
    ("(exists x (and (true) (or (false) (letter a))))",
     FormulaSyntaxError, "1:36"),
]


def _where(err):
    m = re.match(r"(\d+):(\d+): ", str(err))
    return f"{m[1]}:{m[2]}" if m else None


@pytest.mark.parametrize("text,exc,where", ERROR_TABLE,
                         ids=[t[:48] for t, _, _ in ERROR_TABLE])
def test_error_table(text, exc, where):
    with pytest.raises(WordlogicError) as ei:
        parse_formula(text, builtin_registry())
    err = ei.value
    assert type(err) is exc
    assert _where(err) == where
    if exc is FormulaSyntaxError and where is not None:
        assert f"{err.line}:{err.column}" == where


@pytest.mark.parametrize("text,msg", [
    ("(Q Lexists (x x) (true))", "1:2: quantifier variables must be distinct"),
    ("(Qstar Lexists 0 (X) (true))", "1:2: relation arity must be positive"),
    ("(and (true)\n (Q1 Lexists 1 (X X) (true)))", "2:3: quantifier variables"),
    ("(shuffle-bit to_both 0 2 x (A B))", "1:2: unknown shuffle direction"),
    ("(shuffle-bit to_interleaved 0 0 x (A))", "1:2: shuffle width must be"),
    ("(shuffle-bit to_interleaved 2 2 x (A B))", "1:2: shuffle index 2"),
    ("(shuffle-bit to_interleaved 0 3 x (A B))", "1:2: shuffle width 3 but 2"),
    # names that would read back as min, max or a constant
    ("(exists min (true))", "1:2: ExistsFO.var must be a variable, got"),
    ("(not (in $X x))", "1:7: InRel.rel must be a relation variable"),
    ("(Q Lexists (x max) (true))", "1:2: LindFO.vars must be a nonempty"),
])
def test_node_errors_carry_the_head_position(text, msg):
    with pytest.raises(InvariantViolation) as ei:
        parse_formula(text, builtin_registry())
    assert type(ei.value) is InvariantViolation
    assert str(ei.value).startswith(msg)


@pytest.mark.parametrize("text,msg", [
    ("(shuffle-bit to_interleaved zero 2 x (A B))",
     "1:2: shuffle-bit index must be an integer"),
    ("(shuffle-bit to_interleaved 0 two x (A B))",
     "1:2: shuffle-bit width must be an integer"),
    ("(Qstar Lexists one (X) (true))", "1:2: Qstar arity must be an integer"),
])
def test_integer_operands(text, msg):
    with pytest.raises(FormulaSyntaxError) as ei:
        parse_formula(text)
    assert str(ei.value) == msg


@pytest.mark.parametrize("opener", ["(not ", "(exists x ", "(Q Lexists (x) ",
                                    "(Qstar Lexists 1 (X) "])
def test_deepest_accepted_form_reads_and_prints(opener):
    text = opener * MAX_NESTING + "(true)" + ")" * MAX_NESTING
    assert format_formula(parse_formula(text)) == text


def _grammar_heads(text):
    return set(re.findall(r"\(([^\s()]+)", text))


def test_grammars_in_the_docs_list_every_head():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        readme = fh.read()
    block = readme.split("## Formula syntax", 1)[1].split("```")[1]
    assert set(sexpr._SYNTAX) <= _grammar_heads(block)
    assert set(sexpr._SYNTAX) <= _grammar_heads(sexpr.__doc__)


# Token soup and mutated corpus lines: whatever parse_formula makes of them,
# with or without a registry, it returns a formula or raises a
# WordlogicError.
with open(os.path.join(os.path.dirname(__file__), "data", "formulas.txt"),
          encoding="utf-8") as _fh:
    _CORPUS = [ln.strip() for ln in _fh if ln.strip()]
_WORDS = sorted(sexpr._SYNTAX) + [
    "x", "y", "X", "min", "max", "$c1", "a", "0", "1", "2", "-1",
    str(1 << 70), "Lexists", "Maj", "NoSuch", "to_interleaved",
    "to_concatenated"]
_SOUP = _WORDS + ["(", ")", "(", ")", "()", "$", ";", "\n", "\u00e9", "'",
                  ""]
_REGISTRY = builtin_registry()


@st.composite
def _mutated_line(draw):
    """A corpus line with one or two words swapped for others, brackets
    kept balanced, and sometimes one character-level edit on top."""
    words = re.findall(r"[()]|[^\s()]+", draw(st.sampled_from(_CORPUS)))
    spots = [i for i, w in enumerate(words) if w not in ("(", ")")]
    for _ in range(draw(st.integers(1, 2))):
        words[draw(st.sampled_from(spots))] = draw(st.sampled_from(_WORDS))
    line = " ".join(words)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 3))
        piece = draw(st.sampled_from(_SOUP + [" "]))
        line = line[:at] + piece + line[at + cut:]
    return line


_soup = st.lists(st.sampled_from(_SOUP), max_size=24).map(" ".join)


@settings(max_examples=500)
@given(_soup, _mutated_line(), st.booleans())
def test_parse_formula_fails_only_with_typed_errors(soup, line, with_registry):
    for text in (soup, line):
        try:
            parse_formula(text, _REGISTRY if with_registry else None)
        except WordlogicError:
            pass
