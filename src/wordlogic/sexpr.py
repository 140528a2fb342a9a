"""S-expression reader and printer for formulas.

Grammar (heads are case-sensitive):

    (exists x F)  (forall x F)  (existsSO X F)
    (and F F)  (or F F)  (not F)  (true)  (false)
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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    FormulaSyntaxError,
    NestingCapExceeded,
    UnknownLanguage,
)
from .logic import (
    CONCATENATED,
    INTERLEAVED,
    MAX,
    MAX_NESTING,
    MIN,
    And,
    BitAtom,
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
    Max,
    Min,
    Not,
    Or,
    PlusAtom,
    SetTimes,
    ShuffleBit,
    SizeBit,
    TimesAtom,
    TrueF,
    Var,
    check_nesting,
)


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


_PUNCT = "()"


def _tokenize(text: str):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in _PUNCT:
            toks.append(_Tok(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            toks.append(_Tok(text[i:j], line, col))
            col += j - i
            i = j
    return toks


class _Reader:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise FormulaSyntaxError("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text:
            raise FormulaSyntaxError(f"expected {text!r}, got {t.text!r}",
                                     line=t.line, column=t.col)
        return t

    def read(self, depth=0):
        t = self.next()
        if t.text == "(":
            if depth > MAX_NESTING:
                raise NestingCapExceeded(
                    f"{t.line}:{t.col}: formula nests deeper than "
                    f"{MAX_NESTING} levels")
            items = []
            while True:
                p = self.peek()
                if p is None:
                    raise FormulaSyntaxError("unclosed '('", line=t.line,
                                             column=t.col)
                if p.text == ")":
                    self.next()
                    return items
                items.append(self.read(depth + 1))
        if t.text == ")":
            raise FormulaSyntaxError("unexpected ')'", line=t.line, column=t.col)
        return t


def _fail(tok_or_node, msg):
    if isinstance(tok_or_node, _Tok):
        raise FormulaSyntaxError(msg, line=tok_or_node.line, column=tok_or_node.col)
    raise FormulaSyntaxError(msg)


def _head(node):
    if not isinstance(node, list) or not node or not isinstance(node[0], _Tok):
        _fail(node[0] if isinstance(node, list) and node else node,
              "expected a parenthesized form")
    return node[0]


def _atom(node, what="name"):
    if not isinstance(node, _Tok):
        _fail(_head(node), f"expected a {what}, got a list")
    return node


def _term(node):
    t = _atom(node, "term")
    if t.text == "min":
        return MIN
    if t.text == "max":
        return MAX
    if t.text.startswith("$"):
        if len(t.text) == 1:
            _fail(t, "empty constant name after '$'")
        return ConstSym(t.text[1:])
    return Var(t.text)


def _name_list(node, what):
    if not isinstance(node, list):
        _fail(node, f"expected a parenthesized {what} list")
    names = []
    for item in node:
        names.append(_atom(item, what).text)
    if not names:
        _fail(_Tok("()", 0, 0), f"empty {what} list")
    return tuple(names)


def _check_lang(registry, head, name, nargs):
    if registry is None:
        return
    if name not in registry:
        raise UnknownLanguage(
            f"{head.line}:{head.col}: language {name!r} not registered")
    spec = registry[name]
    if nargs != spec.size - 1:
        raise ArityMismatch(
            f"{head.line}:{head.col}: {name} takes {spec.size - 1} "
            f"argument formulas, got {nargs}")


def _build(node, registry):
    if isinstance(node, _Tok):
        _fail(node, "expected a formula, got an atom")
    h = _head(node)
    op, rest = h.text, node[1:]

    def need(k):
        if len(rest) != k:
            _fail(h, f"{op} takes {k} operands, got {len(rest)}")

    if op == "true":
        need(0)
        return TrueF()
    if op == "false":
        need(0)
        return FalseF()
    if op == "not":
        need(1)
        return Not(_build(rest[0], registry))
    if op in ("and", "or"):
        if len(rest) < 2:
            _fail(h, f"{op} takes at least 2 operands, got {len(rest)}")
        cls = And if op == "and" else Or
        out = _build(rest[0], registry)
        for r in rest[1:]:
            out = cls(out, _build(r, registry))
        return out
    if op == "=":
        need(2)
        return Eq(_term(rest[0]), _term(rest[1]))
    if op == "<":
        need(2)
        return Lt(_term(rest[0]), _term(rest[1]))
    if op == "letter":
        need(2)
        return Letter(_atom(rest[0], "letter").text, _term(rest[1]))
    if op == "in":
        if len(rest) < 2:
            _fail(h, "in takes a relation variable and at least one term")
        return InRel(_atom(rest[0], "relation variable").text,
                     tuple(_term(t) for t in rest[1:]))
    if op in ("plus", "times"):
        need(3)
        cls = PlusAtom if op == "plus" else TimesAtom
        return cls(_term(rest[0]), _term(rest[1]), _term(rest[2]))
    if op == "bit":
        need(2)
        return BitAtom(_term(rest[0]), _term(rest[1]))
    if op == "msb-bit":
        need(2)
        return HighBit(_term(rest[0]), _term(rest[1]))
    if op == "size-bit":
        need(1)
        return SizeBit(_term(rest[0]))
    if op == "lt-log":
        need(1)
        return LtLog(_term(rest[0]))
    if op == "lt-pow2":
        need(1)
        return LtPowLog(_term(rest[0]))
    if op == "set-times":
        need(3)
        return SetTimes(*(_atom(r, "relation variable").text for r in rest))
    if op == "shuffle-bit":
        need(5)
        direction = _atom(rest[0], "direction").text
        try:
            idx = int(_atom(rest[1], "index").text)
            width = int(_atom(rest[2], "width").text)
        except ValueError:
            _fail(h, "shuffle-bit index and width must be integers")
        return ShuffleBit(direction, idx, width, _term(rest[3]),
                          _name_list(rest[4], "relation variable"))
    if op in ("exists", "forall", "existsSO"):
        need(2)
        var = _atom(rest[0], "variable").text
        body = _build(rest[1], registry)
        cls = {"exists": ExistsFO, "forall": ForallFO, "existsSO": ExistsSO}[op]
        return cls(var, body)
    if op == "Q":
        if len(rest) < 3:
            _fail(h, "Q takes a language, a variable list, and argument formulas")
        lang = _atom(rest[0], "language name").text
        vars_ = _name_list(rest[1], "variable")
        args = tuple(_build(r, registry) for r in rest[2:])
        _check_lang(registry, h, lang, len(args))
        return LindFO(lang, vars_, args)
    if op in ("Q1", "Qstar"):
        if len(rest) < 4:
            _fail(h, f"{op} takes a language, an arity, a variable list, "
                     "and argument formulas")
        lang = _atom(rest[0], "language name").text
        try:
            arity = int(_atom(rest[1], "arity").text)
        except ValueError:
            _fail(h, f"{op} arity must be an integer")
        vars_ = _name_list(rest[2], "relation variable")
        args = tuple(_build(r, registry) for r in rest[3:])
        _check_lang(registry, h, lang, len(args))
        ordering = INTERLEAVED if op == "Q1" else CONCATENATED
        return LindSO(lang, ordering, arity, vars_, args)
    _fail(h, f"unknown operator {op!r}")


def parse_formula(text: str, registry=None):
    """Parse one formula; registry (if given) validates language references.

    Forms nested more than MAX_NESTING levels below the outermost one raise
    NestingCapExceeded, which keeps reading and building within Python's
    default recursion limit.
    """
    toks = _tokenize(text)
    if not toks:
        raise FormulaSyntaxError("empty input")
    reader = _Reader(toks)
    tree = reader.read()
    leftover = reader.peek()
    if leftover is not None:
        raise FormulaSyntaxError("trailing input after the formula",
                                 line=leftover.line, column=leftover.col)
    return _build(tree, registry)


# ---------------------------------------------------------------------------
# Printer

def _fmt_term(t):
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
    NestingCapExceeded instead of exhausting Python's recursion limit.
    """
    check_nesting(f)
    return _format(f)


def _format(f) -> str:
    ty = type(f)
    if ty is TrueF:
        return "(true)"
    if ty is FalseF:
        return "(false)"
    if ty is Not:
        return f"(not {_format(f.body)})"
    if ty in (And, Or):
        op = "and" if ty is And else "or"
        return f"({op} {_format(f.left)} {_format(f.right)})"
    if ty is Eq:
        return f"(= {_fmt_term(f.left)} {_fmt_term(f.right)})"
    if ty is Lt:
        return f"(< {_fmt_term(f.left)} {_fmt_term(f.right)})"
    if ty is Letter:
        return f"(letter {f.letter} {_fmt_term(f.term)})"
    if ty is InRel:
        args = " ".join(_fmt_term(t) for t in f.args)
        return f"(in {f.rel} {args})"
    if ty is PlusAtom:
        return f"(plus {_fmt_term(f.a)} {_fmt_term(f.b)} {_fmt_term(f.c)})"
    if ty is TimesAtom:
        return f"(times {_fmt_term(f.a)} {_fmt_term(f.b)} {_fmt_term(f.c)})"
    if ty is BitAtom:
        return f"(bit {_fmt_term(f.a)} {_fmt_term(f.j)})"
    if ty is HighBit:
        return f"(msb-bit {_fmt_term(f.value)} {_fmt_term(f.pos)})"
    if ty is SizeBit:
        return f"(size-bit {_fmt_term(f.pos)})"
    if ty is LtLog:
        return f"(lt-log {_fmt_term(f.term)})"
    if ty is LtPowLog:
        return f"(lt-pow2 {_fmt_term(f.term)})"
    if ty is SetTimes:
        return f"(set-times {f.x} {f.y} {f.z})"
    if ty is ShuffleBit:
        names = " ".join(f.set_vars)
        return (f"(shuffle-bit {f.direction} {f.index} {f.width} "
                f"{_fmt_term(f.point)} ({names}))")
    if ty is ExistsFO:
        return f"(exists {f.var} {_format(f.body)})"
    if ty is ForallFO:
        return f"(forall {f.var} {_format(f.body)})"
    if ty is ExistsSO:
        return f"(existsSO {f.var} {_format(f.body)})"
    if ty is LindFO:
        vs = " ".join(f.vars)
        args = " ".join(_format(a) for a in f.args)
        return f"(Q {f.lang} ({vs}) {args})"
    if ty is LindSO:
        op = "Q1" if f.ordering == INTERLEAVED else "Qstar"
        vs = " ".join(f.vars)
        args = " ".join(_format(a) for a in f.args)
        return f"({op} {f.lang} {f.arity} ({vs}) {args})"
    raise TypeError(f"not a formula: {f!r}")
