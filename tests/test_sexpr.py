import os

import pytest

from wordlogic.builtins import builtin_registry
from wordlogic.errors import (
    ArityMismatch,
    FormulaSyntaxError,
    NestingCapExceeded,
    UnknownLanguage,
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
)
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
