"""Line-oriented text formats for algebras, automata, grammars and leaf
automata, and the Toolbox of named languages and leaf automata that the
CLI reads.

One canonical format per object kind. All loaders validate structural
invariants at load time and report errors with file and line numbers.
"""

from __future__ import annotations

import os

from ._record import record
from .algebra import Cfg, Dfa, LanguageSpec, Magma, WordProblem, resolve_language
from .builtins import builtin_registry
from .errors import FormatError, InvariantViolation
from .leafauto import LeafAutomaton


def read_text(path) -> str:
    """The text of the UTF-8 file at path. A file that cannot be opened,
    read or decoded is a FormatError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(str(e), path=path) from None


def _words(value):
    return tuple(value.split())


def _flag(value):
    if value not in ("true", "false"):
        raise ValueError("must be true or false")
    return value == "true"


# Each format's keys and how a value is read: a key of the first dict keeps
# its last line's value, one of the second every line as (lineno, value).
_KEYS = {
    ".alg": ({"elements": _words, "identity": str, "table": str,
              "accept": _words}, {}),
    ".dfa": ({"states": _words, "alphabet": _words, "start": str,
              "finals": _words, "neutral": str}, {"trans": str.split}),
    ".cfg": ({"start": str, "epsilon": _flag, "alphabet": _words,
              "neutral": str}, {}),
    ".leaf": ({"states": _words, "input": _words, "leaf": _words,
               "start": str}, {"beta": str.split, "delta": str}),
}


class _Fields(dict):
    """The `key: value` lines of one file in the format `kind`.

    A line whose first non-blank character is `#` is a comment; `#` anywhere
    else is data. `other(self, line, key)` sees each other line first, with
    the last key read, and returns true for a line it takes (a table row, a
    production). A key with no line reads as an error. Errors carry the path
    and the line being read or handled under `each`.
    """

    __slots__ = ("path", "line")

    def __init__(self, text, path, kind, other=None):
        one, many = _KEYS[kind]
        for key in many:
            self[key] = []
        self.path = path
        key = None
        for self.line, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line[0] == "#" or (
                    other is not None and other(self, line, key)):
                continue
            key, colon, value = line.partition(":")
            if not colon:
                raise self.error(f"expected 'key: value', got {line!r}")
            key = key.strip()
            read = one.get(key)
            if read is not None:
                try:
                    self[key] = read(value.strip())
                except ValueError as e:  # a value `read` refuses
                    raise self.error(f"{key} {e}") from None
            elif key in many:
                self[key].append((self.line, many[key](value.strip())))
            else:
                raise self.error(f"unknown key {key!r}")
        self.line = None

    def error(self, message) -> FormatError:
        return FormatError(message, path=self.path, line=self.line)

    def __missing__(self, key):
        raise self.error(f"missing '{key}:' line")

    def each(self, lines):
        """The values of (lineno, value) pairs, each handled at its line."""
        for self.line, value in lines:
            yield value
        self.line = None

    def total(self, table, rows, cols, what):
        """`table` as tuples, once no cell of it is None."""
        for row, cells in zip(rows, table):
            if None in cells:
                col = cols[cells.index(None)]
                raise self.error(f"missing {what} for ({row}, {col})")
        return tuple(map(tuple, table))

    def neutral(self, alphabet):
        neutral = self.get("neutral")
        if neutral is not None and neutral not in alphabet:
            raise self.error(f"neutral letter {neutral!r} not in alphabet")
        return neutral


class _Names(dict):
    """The position of each of `names`, which must be distinct; a lookup of
    any other name is an unknown `what` of `fields`, or of another noun
    through `find`."""

    __slots__ = ("fields", "what")

    def __init__(self, fields, names, what):
        dict.__init__(self, zip(names, range(len(names))))
        if len(self) != len(names):
            raise fields.error(f"duplicate {what} names")
        self.fields, self.what = fields, what

    def __missing__(self, name, what=None):
        raise self.fields.error(f"unknown {what or self.what} {name!r}")

    def find(self, name, what):
        return self[name] if name in self else self.__missing__(name, what)


# ---------------------------------------------------------------------------
# Algebra files

def parse_algebra(text: str, path=None):
    """Magma with optional accept set; returns (Magma, accept or None)."""
    rows = []  # the colon-free lines after a `table:` line

    def row(f, line, key):
        if key == "table" and ":" not in line:
            rows.append((f.line, line.split()))
            return True

    f = _Fields(text, path, ".alg", row)
    elements = f["elements"]
    index = _Names(f, elements, "element")
    if len(rows) != len(elements):
        raise f.error(f"table has {len(rows)} rows, need {len(elements)}")
    table = []
    for parts in f.each(rows):
        if len(parts) != len(elements):
            raise f.error(
                f"table row has {len(parts)} entries, need {len(elements)}")
        table.append(tuple([index[e] for e in parts]))
    identity = f["identity"] or f.__missing__("identity")  # empty is missing
    identity = index.find(identity, "identity element")
    name = os.path.splitext(os.path.basename(path))[0] if path else "magma"
    magma = Magma(elements, tuple(table), identity, name=name)
    accept = f.get("accept")
    if accept is not None:
        accept = frozenset([index.find(e, "accept element") for e in accept])
    return magma, accept


def algebra_language(magma: Magma, accept, name=None) -> LanguageSpec:
    wp = WordProblem.of(magma, accept)
    return LanguageSpec(name or magma.name, magma.elements, wp)


# ---------------------------------------------------------------------------
# DFA files

def parse_dfa(text: str, path=None):
    """Returns (Dfa, declared_neutral or None)."""
    f = _Fields(text, path, ".dfa")
    states, alphabet, start, finals = map(
        f.__getitem__, ("states", "alphabet", "start", "finals"))
    sidx = _Names(f, states, "state")
    aidx = _Names(f, alphabet, "letter")
    table = [[None] * len(alphabet) for _ in states]
    for parts in f.each(f["trans"]):
        if len(parts) != 3:
            raise f.error("expected 'trans: q letter q2'")
        q, a, q2 = parts
        row, col, target = sidx[q], aidx[a], sidx[q2]
        if table[row][col] is not None:
            raise f.error(f"duplicate transition for ({q}, {a})")
        table[row][col] = target
    trans = f.total(table, states, alphabet, "transition")
    dfa = Dfa(states, alphabet, trans, sidx.find(start, "start state"),
              frozenset([sidx.find(q, "final state") for q in finals]))
    return dfa, f.neutral(alphabet)


# ---------------------------------------------------------------------------
# CFG files

def parse_cfg(text: str, path=None):
    """Returns (Cfg, declared_neutral or None).

    Productions: `A -> B C` (binary) or `A -> 'x'` (lexical, quoted letter).
    The order of the terminal alphabet, `Cfg.terminals`, comes from an
    optional `alphabet:` line, otherwise first-use order.
    """
    rules = []
    nts = {}  # nonterminals, and below terminals, in first-use order
    order = {}

    def production(f, line, key):
        if "->" not in line:
            return False
        lhs, _, rhs = line.partition("->")
        lhs = lhs.strip()
        parts = rhs.split()
        nts[lhs] = None
        if len(parts) == 2:
            nts[parts[0]] = nts[parts[1]] = None
            rules.append((lhs, tuple(parts)))
        elif len(parts) == 1 and len(parts[0]) >= 3 and \
                parts[0][0] == parts[0][-1] == "'":
            letter = parts[0][1:-1]
            order[letter] = None
            rules.append((lhs, letter))
        else:
            raise f.error("productions must be `A -> B C` or `A -> 'x'`")
        return True

    f = _Fields(text, path, ".cfg", production)
    start = f["start"]
    if start not in nts:
        raise f.error(f"start symbol {start!r} has no production")
    terminals = f.get("alphabet", tuple(order))
    _Names(f, terminals, "letter")
    for letter in order:
        if letter not in terminals:
            raise f.error(f"terminal {letter!r} missing from alphabet")
    cfg = Cfg.from_rules(tuple(nts), terminals, rules, start,
                         epsilon_in_language=f.get("epsilon", False))
    return cfg, f.neutral(terminals)


# ---------------------------------------------------------------------------
# Leaf automaton files

def parse_leaf_automaton(text: str, path=None) -> LeafAutomaton:
    f = _Fields(text, path, ".leaf")
    states, inp, leaf, start = map(
        f.__getitem__, ("states", "input", "leaf", "start"))
    sidx = _Names(f, states, "state")
    aidx = _Names(f, inp, "input letter")
    _Names(f, leaf, "leaf symbol")
    beta = [None] * len(states)
    for parts in f.each(f["beta"]):
        if len(parts) != 2:
            raise f.error("expected 'beta: q x'")
        q, x = parts
        row = sidx[q]
        if x not in leaf:
            raise f.error(f"leaf symbol {x!r} not in leaf alphabet")
        beta[row] = x
    if None in beta:
        raise f.error(f"missing beta for state {states[beta.index(None)]!r}")
    delta = [[None] * len(inp) for _ in states]
    for rest in f.each(f["delta"]):
        lhs, _, rhs = rest.partition("->")
        lhs, succ = lhs.split(), rhs.split()
        if len(lhs) != 2 or not succ:
            raise f.error("expected 'delta: q a -> q1 q2 ...'")
        row, col = sidx[lhs[0]], aidx[lhs[1]]
        delta[row][col] = tuple([sidx.find(s, "successor") for s in succ])
    return LeafAutomaton(states, inp, f.total(delta, states, inp, "delta"),
                         sidx.find(start, "start state"), leaf, tuple(beta))


# ---------------------------------------------------------------------------
# Toolbox

@record
class Toolbox:
    languages: dict
    leaf_automata: dict

    def language(self, name: str) -> LanguageSpec:
        return resolve_language(self.languages, name)


def load_toolbox(paths=()) -> Toolbox:
    """Scan the given files/directories; built-ins always pre-registered.
    An `.alg` file is parsed whole but makes a language only with an
    `accept:` line."""
    box = Toolbox(builtin_registry(), {})
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += [os.path.join(p, entry) for entry in sorted(os.listdir(p))
                      if os.path.splitext(entry)[1] in _KEYS]
        else:
            files.append(p)
    for path in files:
        name, ext = os.path.splitext(os.path.basename(path))
        text = read_text(path)
        if ext == ".alg":
            magma, accept = parse_algebra(text, path)
            if accept is not None:
                _add(box.languages, "language name", name,
                     algebra_language(magma, accept, name=name))
        elif ext == ".dfa":
            dfa, neutral = parse_dfa(text, path)
            _add(box.languages, "language name", name,
                 LanguageSpec(name, dfa.alphabet, dfa,
                              declared_neutral=neutral))
        elif ext == ".cfg":
            cfg, neutral = parse_cfg(text, path)
            _add(box.languages, "language name", name,
                 LanguageSpec(name, cfg.terminals, cfg,
                              declared_neutral=neutral))
        elif ext == ".leaf":
            _add(box.leaf_automata, "leaf automaton", name,
                 parse_leaf_automaton(text, path))
        else:
            raise FormatError(f"unrecognized extension {ext!r}", path=path)
    return box


def _add(table: dict, what: str, name: str, value):
    """table[name] = value, refusing a name the table already holds."""
    if name in table:
        raise InvariantViolation(f"duplicate {what} {name!r}")
    table[name] = value
