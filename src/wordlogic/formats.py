"""Line-oriented text formats for algebras, automata, grammars, and the
Toolbox that aggregates named objects for the CLI.

One canonical format per object kind. All loaders validate structural
invariants at load time and report errors with file and line numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .algebra import Cfg, Dfa, LanguageSpec, Magma, WordProblem, check_associative
from .builtins import builtin_registry
from .errors import FormatError, InvariantViolation
from .leafauto import LeafAutomaton


def _parse_lines(text: str, path):
    """Yield (lineno, line) for nonempty lines, comments and surrounding
    whitespace stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line


def _split_kv(line, lineno, path):
    if ":" not in line:
        raise FormatError(f"expected 'key: value', got {line!r}",
                          path=path, line=lineno)
    key, _, rest = line.partition(":")
    return key.strip(), rest.strip()


# ---------------------------------------------------------------------------
# Algebra files

def parse_algebra(text: str, path=None):
    """Magma with optional accept set; returns (Magma, accept or None)."""
    elements = None
    identity = None
    accept = None
    table_rows = []
    in_table = False
    for lineno, line in _parse_lines(text, path):
        if in_table and ":" not in line:
            table_rows.append((lineno, line.split()))
            continue
        in_table = False
        key, rest = _split_kv(line, lineno, path)
        if key == "elements":
            elements = tuple(rest.split())
        elif key == "identity":
            identity = rest or None
        elif key == "accept":
            accept = tuple(rest.split())
        elif key == "table":
            in_table = True
        else:
            raise FormatError(f"unknown key {key!r}", path=path, line=lineno)
    if elements is None:
        raise FormatError("missing 'elements:' line", path=path)
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise FormatError("duplicate element names", path=path)
    if len(table_rows) != len(elements):
        raise FormatError(
            f"table has {len(table_rows)} rows, need {len(elements)}",
            path=path)
    table = []
    for lineno, row in table_rows:
        if len(row) != len(elements):
            raise FormatError(
                f"table row has {len(row)} entries, need {len(elements)}",
                path=path, line=lineno)
        try:
            table.append(tuple(index[e] for e in row))
        except KeyError as e:
            raise FormatError(f"unknown element {e.args[0]!r}",
                              path=path, line=lineno) from None
    if identity is None:
        raise FormatError("missing 'identity:' line", path=path)
    if identity not in index:
        raise FormatError(f"unknown identity element {identity!r}", path=path)
    ident_idx = index[identity]
    name = os.path.splitext(os.path.basename(path))[0] if path else "magma"
    magma = Magma(elements, tuple(table), ident_idx, name=name)
    accept_idx = None
    if accept is not None:
        try:
            accept_idx = frozenset(index[e] for e in accept)
        except KeyError as e:
            raise FormatError(f"unknown accept element {e.args[0]!r}", path=path)
    return magma, accept_idx


def algebra_language(magma: Magma, accept, name=None,
                     declared_neutral=None) -> LanguageSpec:
    wp = WordProblem.of(magma, accept)
    return LanguageSpec(name or magma.name, magma.elements, wp,
                        declared_neutral=declared_neutral,
                        letter_map={e: i for i, e in enumerate(magma.elements)})


# ---------------------------------------------------------------------------
# DFA files

def parse_dfa(text: str, path=None):
    """Returns (Dfa, declared_neutral or None)."""
    states = alphabet = start = finals = None
    neutral = None
    trans_lines = []
    for lineno, line in _parse_lines(text, path):
        key, rest = _split_kv(line, lineno, path)
        if key == "states":
            states = tuple(rest.split())
        elif key == "alphabet":
            alphabet = tuple(rest.split())
        elif key == "start":
            start = rest
        elif key == "finals":
            finals = tuple(rest.split())
        elif key == "neutral":
            neutral = rest
        elif key == "trans":
            trans_lines.append((lineno, rest.split()))
        else:
            raise FormatError(f"unknown key {key!r}", path=path, line=lineno)
    for what, v in (("states", states), ("alphabet", alphabet),
                    ("start", start), ("finals", finals)):
        if v is None:
            raise FormatError(f"missing '{what}:' line", path=path)
    sidx = {s: i for i, s in enumerate(states)}
    aidx = {a: i for i, a in enumerate(alphabet)}
    table = [[None] * len(alphabet) for _ in states]
    for lineno, parts in trans_lines:
        if len(parts) != 3:
            raise FormatError("expected 'trans: q letter q2'",
                              path=path, line=lineno)
        q, a, q2 = parts
        for v, idx, what in ((q, sidx, "state"), (a, aidx, "letter"),
                             (q2, sidx, "state")):
            if v not in idx:
                raise FormatError(f"unknown {what} {v!r}", path=path, line=lineno)
        if table[sidx[q]][aidx[a]] is not None:
            raise FormatError(f"duplicate transition for ({q}, {a})",
                              path=path, line=lineno)
        table[sidx[q]][aidx[a]] = sidx[q2]
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            if cell is None:
                raise FormatError(
                    f"missing transition for ({states[i]}, {alphabet[j]})",
                    path=path)
    if start not in sidx:
        raise FormatError(f"unknown start state {start!r}", path=path)
    fset = set()
    for f in finals:
        if f not in sidx:
            raise FormatError(f"unknown final state {f!r}", path=path)
        fset.add(sidx[f])
    dfa = Dfa(states, alphabet, tuple(tuple(r) for r in table), sidx[start],
              frozenset(fset))
    if neutral is not None and neutral not in alphabet:
        raise FormatError(f"neutral letter {neutral!r} not in alphabet",
                          path=path)
    return dfa, neutral


# ---------------------------------------------------------------------------
# CFG files

def parse_cfg(text: str, path=None):
    """Returns (Cfg, alphabet, declared_neutral or None).

    Productions: `A -> B C` (binary) or `A -> 'x'` (lexical, quoted letter).
    The terminal alphabet order comes from an optional `alphabet:` line,
    otherwise first-use order.
    """
    start = None
    neutral = None
    alphabet = None
    epsilon = False
    rules = []
    order = []
    nts = []
    seen_nt = set()
    for lineno, line in _parse_lines(text, path):
        if "->" in line:
            lhs, _, rhs = line.partition("->")
            lhs = lhs.strip()
            parts = rhs.split()
            if lhs not in seen_nt:
                seen_nt.add(lhs)
                nts.append(lhs)
            if len(parts) == 1 and len(parts[0]) >= 3 and \
                    parts[0][0] == parts[0][-1] == "'":
                letter = parts[0][1:-1]
                if not letter:
                    raise FormatError("empty terminal", path=path, line=lineno)
                if letter not in order:
                    order.append(letter)
                rules.append((lhs, letter))
            elif len(parts) == 2:
                for nt in parts:
                    if nt not in seen_nt:
                        seen_nt.add(nt)
                        nts.append(nt)
                rules.append((lhs, (parts[0], parts[1])))
            else:
                raise FormatError(
                    "productions must be `A -> B C` or `A -> 'x'`",
                    path=path, line=lineno)
            continue
        key, rest = _split_kv(line, lineno, path)
        if key == "start":
            start = rest
        elif key == "epsilon":
            if rest not in ("true", "false"):
                raise FormatError("epsilon must be true or false",
                                  path=path, line=lineno)
            epsilon = rest == "true"
        elif key == "alphabet":
            alphabet = tuple(rest.split())
        elif key == "neutral":
            neutral = rest
        else:
            raise FormatError(f"unknown key {key!r}", path=path, line=lineno)
    if start is None:
        raise FormatError("missing 'start:' line", path=path)
    if start not in seen_nt:
        raise FormatError(f"start symbol {start!r} has no production", path=path)
    terminals = alphabet if alphabet is not None else tuple(order)
    for letter in order:
        if letter not in terminals:
            raise FormatError(f"terminal {letter!r} missing from alphabet",
                              path=path)
    try:
        cfg = Cfg.from_rules(tuple(nts), terminals, rules, start,
                             epsilon_in_language=epsilon)
    except InvariantViolation as e:
        raise FormatError(str(e), path=path) from None
    if neutral is not None and neutral not in terminals:
        raise FormatError(f"neutral letter {neutral!r} not in alphabet",
                          path=path)
    return cfg, terminals, neutral


# ---------------------------------------------------------------------------
# Leaf automaton files

def parse_leaf_automaton(text: str, path=None) -> LeafAutomaton:
    states = inp = leaf = start = None
    beta_lines = []
    delta_lines = []
    for lineno, line in _parse_lines(text, path):
        key, rest = _split_kv(line, lineno, path)
        if key == "states":
            states = tuple(rest.split())
        elif key == "input":
            inp = tuple(rest.split())
        elif key == "leaf":
            leaf = tuple(rest.split())
        elif key == "start":
            start = rest
        elif key == "beta":
            beta_lines.append((lineno, rest.split()))
        elif key == "delta":
            delta_lines.append((lineno, rest))
        else:
            raise FormatError(f"unknown key {key!r}", path=path, line=lineno)
    for what, v in (("states", states), ("input", inp), ("leaf", leaf),
                    ("start", start)):
        if v is None:
            raise FormatError(f"missing '{what}:' line", path=path)
    sidx = {s: i for i, s in enumerate(states)}
    aidx = {a: i for i, a in enumerate(inp)}
    beta = [None] * len(states)
    for lineno, parts in beta_lines:
        if len(parts) != 2:
            raise FormatError("expected 'beta: q x'", path=path, line=lineno)
        q, x = parts
        if q not in sidx:
            raise FormatError(f"unknown state {q!r}", path=path, line=lineno)
        if x not in leaf:
            raise FormatError(f"leaf symbol {x!r} not in leaf alphabet",
                              path=path, line=lineno)
        beta[sidx[q]] = x
    if any(b is None for b in beta):
        missing = states[beta.index(None)]
        raise FormatError(f"missing beta for state {missing!r}", path=path)
    delta = [[None] * len(inp) for _ in states]
    for lineno, rest in delta_lines:
        if "->" not in rest:
            raise FormatError("expected 'delta: q a -> q1 q2 ...'",
                              path=path, line=lineno)
        lhs, _, rhs = rest.partition("->")
        lhs_parts = lhs.split()
        succ = rhs.split()
        if len(lhs_parts) != 2 or not succ:
            raise FormatError("expected 'delta: q a -> q1 q2 ...'",
                              path=path, line=lineno)
        q, a = lhs_parts
        if q not in sidx:
            raise FormatError(f"unknown state {q!r}", path=path, line=lineno)
        if a not in aidx:
            raise FormatError(f"unknown input letter {a!r}",
                              path=path, line=lineno)
        try:
            delta[sidx[q]][aidx[a]] = tuple(sidx[s] for s in succ)
        except KeyError as e:
            raise FormatError(f"unknown successor {e.args[0]!r}",
                              path=path, line=lineno) from None
    for i, row in enumerate(delta):
        for j, cell in enumerate(row):
            if cell is None:
                raise FormatError(
                    f"missing delta for ({states[i]}, {inp[j]})", path=path)
    if start not in sidx:
        raise FormatError(f"unknown start state {start!r}", path=path)
    return LeafAutomaton(states, inp, tuple(tuple(r) for r in delta),
                         sidx[start], leaf, tuple(beta))


# ---------------------------------------------------------------------------
# Signature files

def parse_signature(text: str, path=None):
    """Constant signature: a `constants: c1 c2` line."""
    consts = None
    for lineno, line in _parse_lines(text, path):
        key, rest = _split_kv(line, lineno, path)
        if key == "constants":
            consts = tuple(rest.split())
        else:
            raise FormatError(f"unknown key {key!r}", path=path, line=lineno)
    if consts is None:
        raise FormatError("missing 'constants:' line", path=path)
    if len(set(consts)) != len(consts):
        raise FormatError("duplicate constant names", path=path)
    return consts


# ---------------------------------------------------------------------------
# Toolbox

@dataclass
class Toolbox:
    languages: dict = field(default_factory=dict)
    leaf_automata: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    signatures: dict = field(default_factory=dict)
    search_paths: tuple = ()

    def language(self, name: str) -> LanguageSpec:
        from .errors import UnknownLanguage
        try:
            return self.languages[name]
        except KeyError:
            raise UnknownLanguage(f"language {name!r} not registered") from None


_LOADERS = (".alg", ".dfa", ".cfg", ".leaf", ".sig")


def load_toolbox(paths=()) -> Toolbox:
    """Scan the given files/directories; built-ins always pre-registered."""
    box = Toolbox(languages=builtin_registry(), search_paths=tuple(paths))
    files = []
    for p in paths:
        if os.path.isdir(p):
            for entry in sorted(os.listdir(p)):
                if os.path.splitext(entry)[1] in _LOADERS:
                    files.append(os.path.join(p, entry))
        else:
            files.append(p)
    for path in files:
        name = os.path.splitext(os.path.basename(path))[0]
        ext = os.path.splitext(path)[1]
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise FormatError(str(e), path=path) from None
        if ext == ".alg":
            magma, accept = parse_algebra(text, path)
            box.algebras[name] = (magma, accept)
            if accept is not None:
                _register(box, algebra_language(magma, accept, name=name))
        elif ext == ".dfa":
            dfa, neutral = parse_dfa(text, path)
            _register(box, LanguageSpec(name, dfa.alphabet, dfa,
                                        declared_neutral=neutral))
        elif ext == ".cfg":
            cfg, alphabet, neutral = parse_cfg(text, path)
            _register(box, LanguageSpec(name, alphabet, cfg,
                                        declared_neutral=neutral))
        elif ext == ".leaf":
            if name in box.leaf_automata:
                raise InvariantViolation(f"duplicate leaf automaton {name!r}")
            box.leaf_automata[name] = parse_leaf_automaton(text, path)
        elif ext == ".sig":
            box.signatures[name] = parse_signature(text, path)
        else:
            raise FormatError(f"unrecognized extension {ext!r}", path=path)
    return box


def _register(box: Toolbox, spec: LanguageSpec):
    if spec.name in box.languages:
        raise InvariantViolation(f"duplicate language name {spec.name!r}")
    box.languages[spec.name] = spec
