"""S-expression reader and printer for formulas.

Grammar (heads are case-sensitive):

    (exists x F)  (forall x F)  (existsSO X F)
    (and F F ...)  (or F F ...)  (not F)  (true)  (false)
    (= t t)  (< t t)  (letter a t)  (in X t ...)
    (plus t t t)  (times t t t)  (bit t t)
    (Q lang (x ...) F ...)
    (Q1 lang m (X ...) F ...)
    (Qstar lang m (X ...) F ...)

plus the arithmetic-view atoms used by translation outputs:

    (msb-bit t t)  (size-bit t)  (lt-log t)  (lt-pow2 t)
    (set-times X Y Z)
    (shuffle-bit dir i k t (X ...))

Terms are `min`, `max`, `$name` for a constant symbol, or a variable name.
One table, `_SYNTAX`, gives each of these 24 heads its node class. A
node's operands are its fields, of the kinds their annotations declare
(`logic.KINDS`), in field order; the reader and the printer both read
them, and each node's constructor checks what the reader built.
"""

from __future__ import annotations

import re

from ._record import fields
from .errors import (ArityMismatch, FormulaSyntaxError, InvariantViolation,
                     NestingCapExceeded, UnknownLanguage)
from .logic import (ATOM, CONCATENATED, INTERLEAVED, KINDS, MAX, MAX_NESTING,
                    MIN, And, BitAtom, ConstSym, Eq, ExistsFO, ExistsSO, FalseF,
                    ForallFO, HighBit, InRel, Letter, LindFO, LindSO, Lt,
                    LtLog, LtPowLog, Max, Min, Not, Or, PlusAtom, SetTimes,
                    ShuffleBit, SizeBit, TimesAtom, TrueF, Var, check_nesting,
                    quantifier_language)

# ---------------------------------------------------------------------------
# Syntax table

# head -> node class
_SYNTAX = {
    "true": TrueF, "false": FalseF, "not": Not, "and": And, "or": Or,
    "=": Eq, "<": Lt, "letter": Letter, "in": InRel, "plus": PlusAtom,
    "times": TimesAtom, "bit": BitAtom, "msb-bit": HighBit,
    "size-bit": SizeBit, "lt-log": LtLog, "lt-pow2": LtPowLog,
    "set-times": SetTimes, "shuffle-bit": ShuffleBit, "exists": ExistsFO,
    "forall": ForallFO, "existsSO": ExistsSO, "Q": LindFO, "Q1": LindSO,
    "Qstar": LindSO,
}


def _noun(f):
    """What error messages call the operand of field f."""
    if f.kind in ("Symbol", "int"):
        return "language name" if f.name == "lang" else f.name
    return KINDS[f.kind.rstrip("s")][1][2:]


# class -> (field name, kind, noun) of each operand: the class's fields in
# order, less the ordering of a LindSO, which its head gives
_OPERANDS = {cls: tuple((f.name, f.kind, _noun(f)) for f in fields(cls)
                        if f.name != "ordering")
             for cls in _SYNTAX.values()}
_HEADS = {cls: head for head, cls in _SYNTAX.items()}


# The rules the table leaves out:
# - and/or take two or more operands and read left-nested, (and A B C) as
#   And(And(A, B), C); they print binary.
_JUNCTIONS = ("and", "or")
# - Q1 and Qstar both build LindSO; the head supplies its ordering field.
_ORDERING = {"Q1": INTERLEAVED, "Qstar": CONCATENATED}
_SO_HEAD = {ordering: head for head, ordering in _ORDERING.items()}
# - min, max and $name are terms; any other atom is a variable (_term).

# ---------------------------------------------------------------------------
# Reader

# An atom, a paren, a newline (columns restart after it) or a comment
_TOKEN = re.compile(ATOM + r"|[()\n]|;[^\n]*")


class _List(list):
    """A parenthesized form; pos is the (line, col) of its '('."""

    __slots__ = ("pos",)


def _read(text):
    """The one form in text: a (text, line, col) atom or a _List of forms.

    One pass over the tokens, with the open forms on a stack. A '(' more
    than MAX_NESTING levels below the outermost one raises
    NestingCapExceeded, which bounds the recursion of _build.
    """
    forms = []  # the open forms
    tree = None
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line, line_start = line + 1, m.end()
            continue
        if tok[0] == ";":
            continue
        col = m.start() - line_start + 1
        if tree is not None:
            raise FormulaSyntaxError("trailing input after the formula",
                                     line, col)
        if tok == "(":
            if len(forms) > MAX_NESTING:
                raise NestingCapExceeded(
                    f"{line}:{col}: formula nests deeper than "
                    f"{MAX_NESTING} levels")
            item = _List()
            item.pos = (line, col)
            forms.append(item)
            continue
        if tok == ")":
            if not forms:
                raise FormulaSyntaxError("unexpected ')'", line, col)
            item = forms.pop()
        else:
            item = (tok, line, col)
        if forms:
            forms[-1].append(item)
        else:
            tree = item
    if forms:
        raise FormulaSyntaxError("unclosed '('", *forms[-1].pos)
    if tree is None:
        raise FormulaSyntaxError("empty input")
    return tree


def _fail(atom, msg):
    raise FormulaSyntaxError(msg, atom[1], atom[2])


def _head(form):
    if not form or type(form[0]) is not tuple:
        raise FormulaSyntaxError("expected a parenthesized form", *form.pos)
    return form[0]


def _atom(item, noun):
    """The text of an atom operand. A list in its place is reported at its
    head atom, or at its '(' when it has none."""
    if type(item) is _List:
        at = item[0][1:] if item and type(item[0]) is tuple else item.pos
        raise FormulaSyntaxError(f"expected a {noun}, got a list", *at)
    return item[0]


def _term(item):
    text = _atom(item, "term")
    if text == "min":
        return MIN
    if text == "max":
        return MAX
    if text[0] == "$":
        if len(text) == 1:
            _fail(item, "empty constant name after '$'")
        return ConstSym(text[1:])
    return Var(text)


def _names(item, noun):
    if type(item) is not _List:
        _fail(item, f"expected a parenthesized {noun} list")
    if not item:
        raise FormulaSyntaxError(f"empty {noun} list", *item.pos)
    return tuple([_atom(x, noun) for x in item])


def _build(form, registry):
    """The formula node of a form that _read returned."""
    if type(form) is tuple:
        _fail(form, "expected a formula, got an atom")
    head = _head(form)
    op, rest = head[0], form[1:]
    cls = _SYNTAX.get(op)
    if cls is None:
        _fail(head, f"unknown operator {op!r}")
    operands = _OPERANDS[cls]
    if op in _JUNCTIONS:
        if len(rest) < 2:
            _fail(head, f"{op} takes at least 2 operands, got {len(rest)}")
        out = _build(rest[0], registry)
        for item in rest[1:]:
            out = cls(out, _build(item, registry))
        return out
    k = len(operands)
    if k and operands[-1][1] in ("Formulas", "Terms"):  # takes the rest
        if len(rest) < k:
            _fail(head, f"{op} takes at least {k} operands, got {len(rest)}")
        rest = rest[:k - 1] + [rest[k - 1:]]
    elif len(rest) != k:
        _fail(head, f"{op} takes {k} operands, got {len(rest)}")
    values = []
    for (_, kind, noun), item in zip(operands, rest):
        if kind == "Formula":
            values.append(_build(item, registry))
        elif kind == "Term":
            values.append(_term(item))
        elif kind in ("PosName", "RelName", "Symbol"):
            values.append(_atom(item, noun))
        elif kind == "Formulas":
            values.append(tuple([_build(x, registry) for x in item]))
        elif kind == "Terms":
            values.append(tuple([_term(x) for x in item]))
        elif kind == "int":
            try:
                values.append(int(_atom(item, noun)))
            except ValueError:
                _fail(head, f"{op} {noun} must be an integer")
        else:  # a list of names
            values.append(_names(item, noun))
    if op in _ORDERING:
        values.insert(1, _ORDERING[op])
    try:
        if registry is not None and (cls is LindFO or cls is LindSO):
            quantifier_language(registry, values[0], len(values[-1]))
        return cls(*values)
    except UnknownLanguage as e:
        raise UnknownLanguage(f"{head[1]}:{head[2]}: {e}") from None
    except ArityMismatch as e:
        raise ArityMismatch(f"{head[1]}:{head[2]}: {e}") from None
    except InvariantViolation as e:
        raise InvariantViolation(f"{head[1]}:{head[2]}: {e}") from None


def parse_formula(text: str, registry=None):
    """Parse one formula; registry (if given) validates language references.

    Forms nested more than MAX_NESTING levels below the outermost one raise
    NestingCapExceeded, which keeps reading and building within Python's
    default recursion limit. A node that refuses its operands raises its
    InvariantViolation with the position of its head.
    """
    return _build(_read(text), registry)


# ---------------------------------------------------------------------------
# Printer

def format_term(t) -> str:
    """Render a term as the reader reads it."""
    ty = type(t)
    if ty is Min:
        return "min"
    if ty is Max:
        return "max"
    if ty is ConstSym:
        return "$" + t.name
    return t.name


def format_formula(f) -> str:
    """Render a formula as a parseable s-expression.

    Formulas nested more than MAX_NESTING levels deep raise
    NestingCapExceeded instead of exhausting Python's recursion limit; a
    root that is not a formula raises InvariantViolation.
    """
    check_nesting(f)
    return _format(f)


def _format(f) -> str:
    ty = type(f)
    out = [_SO_HEAD[f.ordering] if ty is LindSO else _HEADS[ty]]
    for name, kind, _ in _OPERANDS[ty]:
        out.append(_SHOW[kind](getattr(f, name)))
    return "(" + " ".join(out) + ")"


# kind -> how an operand of the kind prints
_SHOW = {"Symbol": str, "PosName": str, "RelName": str, "int": str,
         "PosNames": lambda names: "(" + " ".join(names) + ")",
         "Term": format_term,
         "Terms": lambda ts: " ".join(map(format_term, ts)),
         "Formula": _format, "Formulas": lambda fs: " ".join(map(_format, fs))}
_SHOW["RelNames"] = _SHOW["PosNames"]
