"""Formula AST and exact evaluation over string and constant structures.

First-order generalized quantifier nodes build a word over the quantifier
language's alphabet, one letter per lexicographically ordered tuple of
domain elements; second-order monadic/m-ary nodes do the same over all
instances of their bound relation variables, ordered either by interleaved
or concatenated bit codes. Membership of the induced word decides the node.

`evaluate` compiles a formula once into closures over a slot array, in
which min, max and constants have slots of their own, and solves
existential witnesses that a plus, times or = atom fixes. In an argument
of a LindSO node, a block of quantifiers that reads the node's relations
through one (in R t...) leaf alone (a guarded block) becomes one set test
per instance, against a set of t-tuples computed before the node's
instance loop. It runs the closures only when the walk's own checks pass
for every free name, min, max, constant and quantifier node of the
formula, and the walk answers every other call. `evaluate_reference` is
that walk, and tests and oracles hold `evaluate` against it. Both run
exists, forall and existsSO through one loop, `_loop`; an existsSO is the
existential loop of exists, over relations instead of positions. What a
quantifier ranges over is defined once and both read it: `_node_range`
gives a quantifier node's language and instances in word order, `subsets`
the relations an existsSO tries, and `words` the words up to a length.
Both build a node's induced word in one function, `_induced`, and what an
atom means is defined once too, in `_slot_atom`, and both run it. The
compiled evaluator stops the word at the first letter that enters a
decided state of the language's fold (`LanguageSpec.prefix_fold`), from
which every continuation has the prefix's verdict, so it enumerates only
the instances up to that letter. Over a language with no decided state
it enumerates none when every argument of a LindSO node reads the node's
relations only through (in R t...), not, and, or, exists and forall:
each argument then also compiles into a mask closure, whose integer has
bit r set where the argument holds at the instance of rank r, and the
word is spelled from those masks at C level. The walk and `induced_word`
build the whole word, one instance at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys

from ._record import fields, record
from .algebra import language_member, resolve_language
from .errors import (
    ArityMismatch,
    EmptyDomain,
    InstanceCapExceeded,
    InvariantViolation,
    NestingCapExceeded,
    NonConstantSignature,
    RankOutOfRange,
    SortMismatch,
    UnboundVariable,
    UnknownFragment,
    UnknownLanguage,
    UnknownLetter,
)

INTERLEAVED = "interleaved"   # Q1 ordering: position-major bit codes
CONCATENATED = "concatenated"  # Q* ordering: variable-major bit codes

DEFAULT_INSTANCE_CAP = 1 << 24


# ---------------------------------------------------------------------------
# Field kinds
#
# Each field of a term or formula node is annotated with its kind, the
# nodes' one schema: each node's __init__ tests its fields' kinds, and the
# traversals below and the sexpr reader and printer read them. A name field
# of a node with subformulas binds the name in them; one of an atom reads it.

# What the sexpr reader reads as one atom, and as a variable: not as min,
# max or a constant. Identifiers, the usual names, skip the expressions.
ATOM = r"[^ \t\r\n();]+"
_NAME = ("type({0}) is str and ({0}.isidentifier() and {0} not in "
         "('min', 'max') or variable({0}) is not None)")

# str() prints integers of at most this many digits (0: any), as set when
# the module is imported; an int field holds no other, so every node prints
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# kind -> (test of a field's value {0}, what the field holds). Each of the
# first four kinds K has a kind K + s: a nonempty tuple of what K holds.
KINDS = {
    "Formula": ("type({0}) in formulas", "a formula"),
    "Term": ("type({0}) in terms", "a term"),
    "PosName": (_NAME, "a variable"),
    "RelName": (_NAME, "a relation variable"),
    "Symbol": ("type({0}) is str and ({0}.isidentifier() or "
               "symbol({0}) is not None)", "a name"),
    "int": ("type({0}) is int and -int_bound < {0} < int_bound",
            f"an integer of at most {_INT_DIGITS} digits" if _INT_DIGITS
            else "an integer"),
}
KINDS.update({kind + "s": ("type({0}) is tuple and {0} and all(["
                           + test.format("x") + " for x in {0}])",
                           f"a nonempty tuple of {what[2:]}s")
              for kind, (test, what) in list(KINDS.items())[:4]})


def _refuse(node, name, value, kind):
    try:
        got = repr(value)
    except ValueError:  # it holds an integer too long to print
        got = f"an unprintable {type(value).__name__}"
    raise InvariantViolation(f"{type(node).__name__}.{name} must be "
                             f"{KINDS[kind][1]}, got {got}")


# The term and formula node classes, filled in as they are defined
TERM_CLASSES, FORMULA_CLASSES = set(), set()
_CHECKS = {kind: test for kind, (test, _) in KINDS.items()}
_SCOPE = {"refuse": _refuse, "formulas": FORMULA_CLASSES,
          "int_bound": 10 ** _INT_DIGITS if _INT_DIGITS else math.inf,
          "terms": TERM_CLASSES, "symbol": re.compile(ATOM).fullmatch,
          "variable": re.compile(r"(?!(?:min|max)\Z|\$)" + ATOM).fullmatch}


def _formula(cls, classes=FORMULA_CLASSES):
    """Decorator of node classes: a frozen record whose __init__ tests each
    field against its kind, added to classes."""
    classes.add(cls)
    return record(cls, frozen=True, checks=_CHECKS, scope=_SCOPE)


_term = functools.partial(_formula, classes=TERM_CLASSES)


# ---------------------------------------------------------------------------
# Terms

@_term
class Var:
    name: PosName


@_term
class Min:
    pass


@_term
class Max:
    pass


@_term
class ConstSym:
    """Constant symbol of a constant signature (not a string letter)."""
    name: Symbol


MIN = Min()
MAX = Max()


# ---------------------------------------------------------------------------
# Formulas

@_formula
class TrueF:
    pass


@_formula
class FalseF:
    pass


@_formula
class Eq:
    left: Term
    right: Term


@_formula
class Lt:
    left: Term
    right: Term


@_formula
class Letter:
    letter: Symbol
    term: Term


@_formula
class InRel:
    rel: RelName
    args: Terms


@_formula
class PlusAtom:
    a: Term
    b: Term
    c: Term


@_formula
class TimesAtom:
    a: Term
    b: Term
    c: Term


@_formula
class BitAtom:
    """bit(a, j): the weight-2^j bit of a is 1."""
    a: Term
    j: Term


@_formula
class HighBit:
    """Bit of val(value) with weight 2^(floor(log2 N) - (val(pos)+1)).

    Reads val(value) as a floor(log2 N)-digit most-significant-first string,
    N the domain size. False when pos walks off that string.
    """
    value: Term
    pos: Term


@_formula
class SizeBit:
    """Bit of the domain size N itself at the same msb-relative position."""
    pos: Term


@_formula
class LtLog:
    """val(term) < floor(log2 N)."""
    term: Term


@_formula
class LtPowLog:
    """val(term) < 2^floor(log2 N)."""
    term: Term


@_formula
class SetTimes:
    """Product of set-coded integers: code(X) * code(Y) = code(Z).

    Monadic relation variables are read as most-significant-first bit
    strings over the domain.
    """
    x: RelName
    y: RelName
    z: RelName


@_formula
class ShuffleBit:
    """Membership in one component of the code permutation that aligns the
    interleaved and concatenated instance orderings (monadic case).

    direction 'to_interleaved': evaluated against sets listed in interleaved
    position, decodes the concatenated reading, and vice versa for
    'to_concatenated'.
    """
    direction: Symbol  # 'to_interleaved' | 'to_concatenated'
    index: int  # which original variable (0-based)
    width: int  # k, the number of bound variables
    point: Term
    set_vars: RelNames

    def __post_init__(self):
        if self.direction not in ("to_interleaved", "to_concatenated"):
            raise InvariantViolation(
                f"unknown shuffle direction {self.direction!r}")
        if self.width < 1:
            raise InvariantViolation("shuffle width must be positive")
        if not 0 <= self.index < self.width:
            raise InvariantViolation(
                f"shuffle index {self.index} outside [0, {self.width})")
        if len(self.set_vars) != self.width:
            raise InvariantViolation(
                f"shuffle width {self.width} but {len(self.set_vars)} "
                "set variables")


@_formula
class Not:
    body: Formula


@_formula
class And:
    left: Formula
    right: Formula


@_formula
class Or:
    left: Formula
    right: Formula


@_formula
class ExistsFO:
    var: PosName
    body: Formula


@_formula
class ForallFO:
    var: PosName
    body: Formula


@_formula
class ExistsSO:
    """Existential monadic second-order quantifier."""
    var: RelName
    body: Formula


@_formula
class LindFO:
    """First-order generalized quantifier node over a named language."""
    lang: Symbol
    vars: PosNames
    args: Formulas

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise InvariantViolation("quantifier variables must be distinct")


@_formula
class LindSO:
    """Second-order generalized quantifier node.

    `ordering` selects the instance serialization; `arity` is the common
    arity m of the bound relation variables.
    """
    lang: Symbol
    ordering: Symbol
    arity: int
    vars: RelNames
    args: Formulas

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise InvariantViolation("quantifier variables must be distinct")
        if self.ordering not in (INTERLEAVED, CONCATENATED):
            raise InvariantViolation(f"unknown ordering {self.ordering!r}")
        if self.arity < 1:
            raise InvariantViolation("relation arity must be positive")


def iff(a, b):
    return And(Or(Not(a), b), Or(Not(b), a))


def implies(a, b):
    return Or(Not(a), b)


def endpoint(t, u, last):
    """t is the last position when last, else the first: no position u
    lies after (before) t."""
    return Not(ExistsFO(u, Lt(t, Var(u)) if last else Lt(Var(u), t)))


# ---------------------------------------------------------------------------
# Structures

@record(frozen=True)
class StringStructure:
    """Word as a first-order structure: one letter predicate per position."""

    alphabet: tuple[str, ...]
    letters: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InvariantViolation("alphabet letters must be distinct")
        for a in self.letters:
            if a not in self.alphabet:
                raise UnknownLetter(f"letter {a!r} not in alphabet {self.alphabet}")

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def word(self) -> str:
        return "".join(self.letters)

    def __str__(self):
        return self.word or "<empty>"


def structure_from_string(alphabet, text: str) -> StringStructure:
    return StringStructure(tuple(alphabet), tuple(text))


@record(frozen=True)
class ConstStructure:
    """Structure of a pure constant signature with numeric built-ins."""

    size: int
    constants: tuple  # sorted (name, value) pairs

    def __post_init__(self):
        for name, v in self.constants:
            if not 0 <= v < self.size:
                raise InvariantViolation(f"constant {name} = {v} outside domain")

    @classmethod
    def of(cls, size: int, constants: dict) -> "ConstStructure":
        return cls(size, tuple(sorted(constants.items())))

    def const(self, name: str) -> int:
        for n, v in self.constants:
            if n == name:
                return v
        raise UnboundVariable(f"unknown constant {name!r}")

    def __str__(self):
        body = ",".join(f"{n}={v}" for n, v in self.constants)
        return f"<n={self.size} {body}>"


# ---------------------------------------------------------------------------
# Instance codes

# A code is decoded a byte at a time: per variable, each byte of the code
# has a table from the byte's value to the tuples its set bits add
_PIECE_BITS = 8
_PIECE_MASK = (1 << _PIECE_BITS) - 1


class _Piece(dict):
    """One variable's table for one byte of a code: maps the byte's value
    to the frozenset of tuples its set bits put in the variable's set.
    Entries are made on first use, so a wide code costs only the values
    its ranks hold."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        self.cells = cells  # per bit, lowest first: its tuple or None

    def __missing__(self, value: int) -> frozenset:
        entry = self[value] = frozenset(
            [t for q, t in enumerate(self.cells)
             if value >> q & 1 and t is not None])
        return entry


def _pieces(column) -> tuple:
    """(first table, later tables) of one variable: the tables of the bytes
    of a code, lowest first, where the bit of weight 2^b puts column[b] in
    the variable's set, or nothing if column[b] is None. A code has at least
    one byte, so the empty code decodes to the empty set."""
    first, *later = [_Piece(column[b:b + _PIECE_BITS])
                     for b in range(0, max(len(column), 1), _PIECE_BITS)]
    return first, later


def _decode(pieces, rank: int) -> tuple:
    """The k frozensets a rank codes: per variable the union of what each
    byte of the rank adds."""
    sets = []
    for first, later in pieces:
        s = first[rank & _PIECE_MASK]
        code = rank
        for table in later:
            code >>= _PIECE_BITS
            s = s | table[code & _PIECE_MASK]
        sets.append(s)
    return tuple(sets)


@functools.lru_cache(maxsize=16)
def _code_layout(n: int, k: int, ordering: str, m: int):
    """(2^bits, per variable the byte tables of a code and the bit index
    of each m-tuple).

    A code is read most significant bit first; bit j of variable i sits at
    j*k + i (interleaved) or i*n^m + j (concatenated), over the m-tuples in
    lexicographic order. For one variable the two orderings give the same
    code and share one layout. Built once per shape: every rank of a
    quantifier node reuses it.
    """
    if ordering not in (INTERLEAVED, CONCATENATED):
        raise InvariantViolation(f"unknown ordering {ordering!r}")
    if k == 1 and ordering == INTERLEAVED:
        return _code_layout(n, k, CONCATENATED, m)
    tuples = tuple(itertools.product(range(n), repeat=m))
    npos = len(tuples)
    if ordering == INTERLEAVED:
        parts = [slice(i, None, k) for i in range(k)]
    else:
        parts = [slice(i * npos, (i + 1) * npos) for i in range(k)]
    total_bits = npos * k
    pieces, bits = [], []
    for part in parts:
        bits.append(dict(zip(tuples, [
            total_bits - 1 - at for at in range(total_bits)[part]])))
        column = [None] * total_bits
        column[part] = tuples
        column.reverse()
        pieces.append(_pieces(column))
    return 1 << total_bits, pieces, bits


def instance_rank(sets, n: int, ordering: str, m: int = 1) -> int:
    """Rank of a k-tuple of m-ary relations under the given ordering.

    Each relation is coded by the bit string over lexicographically ordered
    m-tuples; codes are read most significant bit first. A member that is
    no m-tuple over n positions adds nothing.
    """
    rank = 0
    for s, bits in zip(sets, _code_layout(n, len(sets), ordering, m)[2]):
        for t in s:
            try:
                if t in bits:
                    rank |= 1 << bits[t]
            except TypeError:  # unhashable, so no m-tuple either
                pass
    return rank


def instance_unrank(rank: int, n: int, k: int, ordering: str, m: int = 1):
    """Inverse of instance_rank; returns a k-tuple of frozensets of tuples."""
    limit, pieces, _ = _code_layout(n, k, ordering, m)
    if type(rank) is not int:  # such as a bool
        try:
            rank = operator.index(rank)
        except TypeError:
            raise RankOutOfRange(
                f"rank {rank!r} is not an integer in "
                f"[0, 2^{limit.bit_length() - 1})") from None
    if not 0 <= rank < limit:
        raise RankOutOfRange(
            f"rank {rank} outside [0, 2^{limit.bit_length() - 1})")
    return _decode(pieces, rank)


# A mask over the instances of a code: bit r says something of rank r.
# The cache keeps every mask of one code of DEFAULT_INSTANCE_CAP instances,
# 24 of at most 2 MiB; layouts of one code width share them.
@functools.lru_cache(maxsize=24)
def _code_mask(width: int, b: int) -> int:
    """The mask over the 2^width ranks of a code whose bit r is bit b of r:
    2^b zeros and then 2^b ones, repeated, written a byte at a time."""
    if b < 3:
        unit = (b"\xaa", b"\xcc", b"\xf0")[b]
    else:
        unit = bytes(1 << b - 3) + b"\xff" * (1 << b - 3)
    size = 1 << width
    reps = max(size >> 3, 1) // len(unit)
    return int.from_bytes(unit * reps, "little") & ((1 << size) - 1)


class _Masks(dict):
    """One relation variable of a code read at every rank at once: maps a
    tuple to the mask of the ranks that put it in the relation, 0 for a
    tuple the code has no bit for. Entries are made on first use."""

    __slots__ = ("bits", "width")

    def __init__(self, bits, width):
        self.bits = bits  # the layout's bit index of each tuple
        self.width = width

    def __missing__(self, t) -> int:
        b = self.bits.get(t)
        mask = self[t] = 0 if b is None else _code_mask(self.width, b)
        return mask


def _spell(masks, whole, alphabet) -> str:
    """The word, one letter per bit of the full mask whole, whose letter at
    rank r is alphabet[i] for the first mask i with bit r set, else the
    alphabet's last letter. Each letter's exclusive mask,
    masks[i] & ~(masks[0] | ... | masks[i-1]), adds digit i + 1 at its
    ranks to one byte per rank, and the bytes are read as letters, all at
    C level; so at most 255 masks, and none is read once every rank has a
    letter."""
    limit = whole.bit_length()
    seen = digits = 0
    for d, mask in enumerate(masks, 1):
        ranks = format(mask & ~seen, f"0{limit}b").encode()
        digits += int.from_bytes(
            ranks.translate(bytes.maketrans(b"01", bytes((0, d)))), "big")
        seen |= mask
        if seen == whole:
            break
    letters = dict(enumerate(alphabet[:-1], 1))
    letters[0] = alphabet[-1]
    return digits.to_bytes(limit, "little").decode("latin-1").translate(
        letters)


# ---------------------------------------------------------------------------
# Evaluation: pieces shared by the compiled and the reference evaluator

class _NoLetters:
    """The letters of a constant structure: reading one is a signature error."""

    def __getitem__(self, pos):
        raise NonConstantSignature("letter atom evaluated on a constant structure")


_NO_LETTERS = _NoLetters()


class _Ctx:
    __slots__ = ("struct", "registry", "cap", "n", "letters")

    def __init__(self, struct, registry, cap):
        self.struct = struct
        self.registry = registry or {}
        self.cap = cap
        self.n = struct.size
        self.letters = (struct.letters if isinstance(struct, StringStructure)
                        else _NO_LETTERS)


def _position(ctx, env, name):
    """The position the name holds in env."""
    try:
        v = env[name]
    except KeyError:
        raise UnboundVariable(f"unbound variable {name!r}") from None
    if type(v) is not int:
        raise SortMismatch(
            f"{name!r} holds a value of type {type(v).__name__}, "
            "not a position")
    if not 0 <= v < ctx.n:
        raise SortMismatch(f"position {name!r} = {v} outside [0, {ctx.n})")
    return v


def _term_value(ctx, env, t):
    if type(t) is Var:
        return _position(ctx, env, t.name)
    if type(t) is Min:
        if ctx.n == 0:
            raise EmptyDomain("min over the empty structure")
        return 0
    if type(t) is Max:
        if ctx.n == 0:
            raise EmptyDomain("max over the empty structure")
        return ctx.n - 1
    # a ConstSym: the constructors admit no other term
    if not isinstance(ctx.struct, ConstStructure):
        raise UnboundVariable(
            f"constant ${t.name} evaluated on a string structure")
    return ctx.struct.const(t.name)


def _relation(env, name):
    """The relation the name holds in env."""
    try:
        v = env[name]
    except KeyError:
        raise UnboundVariable(f"unbound relation variable {name!r}") from None
    if not isinstance(v, (set, frozenset)):
        raise SortMismatch(
            f"{name!r} holds a value of type {type(v).__name__}, "
            "not a relation")
    return v


def _instance_bits(ctx, node: LindSO) -> int:
    """Bits of an instance code of the node; 2^bits must be within the cap.
    The code layout, n^arity tuples of arity entries, is built in memory,
    so its size must be within the cap and DEFAULT_INSTANCE_CAP both. Past
    arity 60 on two or more elements, n^arity alone is over 60 bits, so
    such a node is refused before that power is built."""
    k = len(node.vars)
    if ctx.n > 1 and k and node.arity > 60:
        raise InstanceCapExceeded(
            f"2^({ctx.n}^{node.arity}*{k}) instances exceed the cap {ctx.cap}")
    tuples = ctx.n ** node.arity
    bits = tuples * k
    if bits > 60 or (1 << bits) > ctx.cap:
        raise InstanceCapExceeded(
            f"2^{bits} instances exceed the cap {ctx.cap}", required=bits
        )
    cap = min(ctx.cap, DEFAULT_INSTANCE_CAP)
    if tuples * node.arity > cap:
        raise InstanceCapExceeded(
            f"{tuples} tuples of arity {node.arity} exceed the cap {cap}",
            required=tuples * node.arity)
    return bits


def subsets(n: int):
    """Every monadic relation over n positions, lazily, in instance order:
    for r = 0 .. 2^n - 1, instance_unrank(r, n, 1, CONCATENATED)[0], read
    from the same byte tables (position j is bit n-1-j of r)."""
    limit, pieces, _ = _code_layout(n, 1, CONCATENATED, 1)
    return (_decode(pieces, r)[0] for r in range(limit))


def quantifier_language(registry, name: str, nargs: int):
    """The registered language `name` (registry may be None) of a quantifier
    node with nargs argument formulas, which is one per letter but the last."""
    spec = resolve_language(registry, name)
    if nargs != spec.size - 1:
        raise ArityMismatch(
            f"{name} takes {spec.size - 1} argument formulas, got {nargs}")
    return spec


def _node_range(ctx, node):
    """(language, instances) of a LindFO or LindSO node, after the checks
    each evaluation of the node makes before it builds a word. The
    instances are the value tuples its vars range over, lazily, in the
    order of its induced word: position tuples lexicographically, or
    relation tuples by instance rank."""
    spec = quantifier_language(ctx.registry, node.lang, len(node.args))
    n, k = ctx.n, len(node.vars)
    if n == 0:
        raise EmptyDomain("generalized quantifier over the empty structure")
    if type(node) is LindFO:
        return spec, itertools.product(range(n), repeat=k)
    bits = _instance_bits(ctx, node)
    repeat = itertools.repeat
    # one call per instance of the module's instance_unrank, read here from
    # the globals: perfbench/spans.py wraps it to count instances
    return spec, map(instance_unrank, range(1 << bits), repeat(n),
                     repeat(k), repeat(node.ordering), repeat(node.arity))


def _induced(c, s, node, args, slots, fast=None):
    """(language, induced word) of a quantifier node, in both evaluators:
    per instance, bound into s at slots, the letter of the first argument
    closure that holds, else the alphabet's last letter. The compiled
    evaluator passes its slot list and slots, and as fast the node's
    guarded-block fills, its arguments' mask closures (or None) and the
    slot of its full mask; the reference walk passes a copy of its
    environment and the node's names.

    With masks and a language with no decided state, no instance is
    enumerated and no fill runs: s holds each relation of the node as
    _Masks, and the word is spelled from the masks its arguments give at
    every instance at once. Else, with fast, the fills run before the
    instance loop, and with a language whose fold has decided states
    (`LanguageSpec.prefix_fold`) the word ends at the first letter that
    enters one (it is empty if the start state is one), and so has the
    whole word's verdict."""
    spec, instances = _node_range(c, node)
    fills, masks, full = fast or ((), None, None)
    fold = spec.prefix_fold if fast else None
    if masks is not None and fold is None:
        limit, _, bits = _code_layout(c.n, len(slots), node.ordering,
                                      node.arity)
        width = limit.bit_length() - 1
        for i, tuples in zip(slots, bits):
            s[i] = _Masks(tuples, width)
        whole = s[full] = (1 << limit) - 1
        return spec, _spell((mask(c, s) for mask in masks), whole,
                            spec.alphabet)
    if fold:
        maps, state, decided = fold
        if state in decided:
            return spec, ""
    for fill in fills:
        fill(c, s)
    rules = tuple(zip(args, spec.alphabet))
    last = spec.alphabet[-1]
    out = []
    for values in instances:
        for i, v in zip(slots, values):
            s[i] = v
        for arg, letter in rules:
            if arg(c, s):
                break
        else:
            letter = last
        out.append(letter)
        if fold:
            state = maps[letter][state]
            if state in decided:
                break
    return spec, "".join(out)


def _floor_log2(n: int) -> int:
    return n.bit_length() - 1


def _spine(f, ty):
    """Operands of the maximal ty (And or Or) spine at f, left to right."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if type(g) is ty:
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# Reference evaluation: a direct tree walk over a name -> value environment.
# Tests and oracles compare the compiled evaluator against it.

def _walks(node):
    """The argument formulas of a quantifier node as closures over an
    environment, for _induced."""
    return [lambda c, env, a=a: _eval(c, env, a) for a in node.args]


def _eval(ctx, env, f) -> bool:
    ty = type(f)
    if ty is Not:
        return not _eval(ctx, env, f.body)
    if ty is And or ty is Or:
        decisive = ty is Or  # an operand with this value decides the junction
        for g in _spine(f, ty):
            if bool(_eval(ctx, env, g)) is decisive:
                return decisive
        return not decisive
    if ty is ExistsFO or ty is ForallFO or ty is ExistsSO:
        if ctx.n == 0:
            raise EmptyDomain("quantifier over the empty structure")
        body = f.body  # the loop binds f.var in one copy of env
        return _loop(ty, f.var, lambda c, e: _eval(c, e, body), None)(
            ctx, dict(env))
    if ty is LindFO or ty is LindSO:
        return language_member(*_induced(ctx, dict(env), f, _walks(f),
                                         f.vars))
    # an atom: its operands checked in field order, then listed as
    # _Plan.atom gives them slots (relations, then terms) for _slot_atom
    if ty is ShuffleBit:  # the one atom whose term comes first
        point = _term_value(ctx, env, f.point)
        values = [_relation(env, name) for name in f.set_vars]
        values.append(point)
    else:
        values = [_relation(env, name) for name in relation_names(f)]
        values += [_term_value(ctx, env, t) for t in terms(f)]
    return _slot_atom(f, range(len(values)))(ctx, values)


def evaluate_reference(struct, formula, assignment=None, *, registry=None,
                       instance_cap=DEFAULT_INSTANCE_CAP) -> bool:
    """Tarskian truth by a direct tree walk; the oracle for `evaluate`.

    Formulas that check_nesting refuses raise NestingCapExceeded."""
    check_nesting(formula)
    ctx = _Ctx(struct, registry, instance_cap)
    return _eval(ctx, dict(assignment or {}), formula)


# ---------------------------------------------------------------------------
# Compiled evaluation
#
# A formula compiles once into closures fn(ctx, slots) -> bool and into a
# record of what a call must supply so that no node of it can raise: its
# free names, read as positions or as relations, whether it reads letters,
# its min, max and constant terms and its quantifier nodes. evaluate runs
# the closures only when the walk's own checks (_position, _relation,
# _term_value, _node_range) pass for every one of them; the reference walk
# answers every other call, so an error is always the reference's own.
#
# Every binder, every free name, min, max and every constant owns one index
# of the list `slots`, fixed at compile time. So a binding is one list store
# instead of an environment copy, every atom reads its values straight from
# slots, through the one definition of the atoms that the reference walk
# runs too (_slot_atom), and an And/Or spine is one n-ary node. A quantifier
# node's word comes from the reference's word builder too (_induced), which
# binds each instance into the node's slots and stops at the word's decided
# prefix, or, for a language with no decided state, spells the word from
# the node's mask closures.
#
# First-order quantifiers compile a block at a time: the maximal nest of
# exists and and nodes (an exists block) or of forall and or nodes (a forall
# block) entered at a quantifier; its leaves are the nodes where the nest
# stops. An existential whose block fixes its variable by a plus, times or =
# leaf over values bound outside it is solved instead of looped over; the
# forms each such atom is solved in are declared in _SOLVED, and
# _Plan.witness reads them. In an argument of a LindSO node N, a block is
# guarded by a relation R of N when one leaf, (in R t...) or
# (not (in R t...)) with every t a variable of the block above it, reads
# what N or the binders between N and the block bind, and no other leaf
# does. Such a block compiles into one set test per instance: before N's
# instance loop, N's closure evaluates the block once per value of the t's,
# with that leaf replaced by the unit of the junction, and stores the
# t-tuples where it holds (exists) or fails (forall); see _Plan.block.
# An existsSO compiles alone, into the loop of an unsolved exists that
# ranges over subsets instead of positions; see _loop.
#
# An argument of a LindSO node N compiles in the same walk into a mask
# closure too (_Plan.argument), which gives an integer whose bit r says
# whether the argument holds at N's instance of rank r. N's relations are
# then held in their slots as _Masks, so (in R t...) is the mask of its
# tuple's code bit, not, and, or are ^ full, & and |, and a block's loops
# or and and the n masks of their body (_loop with full), solved
# witnesses included. A part that reads none of N's relations runs once,
# as full or 0; one that reads them any other way leaves N with no mask
# closures, and N always builds its word by the instance loop.

# Compiled levels (And/Or spines count once). Deeper formulas are refused,
# so compiling and running stay within Python's default recursion limit.
MAX_NESTING = 300
_PLAN_CACHE_SIZE = 8
_FO, _SO = "fo", "so"
# The forms in which an atom fixes a variable, tried in order: (field
# holding the solved variable, operator over the operand fields, or None
# for a copy of the one operand, operand fields...)
_SOLVED = {
    PlusAtom: (("c", operator.add, "a", "b"), ("a", operator.sub, "c", "b"),
               ("b", operator.sub, "c", "a")),
    TimesAtom: (("c", operator.mul, "a", "b"),),
    Eq: (("left", None, "right"), ("right", None, "left")),
}

# id(formula) -> (formula, _Plan), oldest first
_plans: dict = {}


def _true(c, s):
    return True


def _false(c, s):
    return False


def _junction(parts, ty):
    """n-ary And or Or over compiled operands, left to right, less those
    that are its unit."""
    unit = _true if ty is And else _false
    parts = [p for p in parts if p is not unit]
    if len(parts) < 2:
        return parts[0] if parts else unit
    if len(parts) == 2:
        a, b = parts
        if ty is And:
            return lambda c, s: a(c, s) and b(c, s)
        return lambda c, s: a(c, s) or b(c, s)
    parts = tuple(parts)
    decisive = ty is Or  # an operand with this value decides the junction

    def junction(c, s):
        for p in parts:
            if bool(p(c, s)) is decisive:
                return decisive
        return not decisive
    return junction


def _fold_masks(conj, whole, masks):
    """& (conj) or | of the masks, an iterator, over the full mask whole:
    it stops at the first result that no later mask can change."""
    acc, stop = (whole, 0) if conj else (0, whole)
    for mask in masks:
        acc = acc & mask if conj else acc | mask
        if acc == stop:
            break
    return acc


def _mask_junction(parts, ty, full):
    """And or Or over mask closures, with the full mask in slot full; None
    when some part has no mask closure."""
    if None in parts:
        return None
    conj = ty is And
    return lambda c, s: _fold_masks(conj, s[full], (p(c, s) for p in parts))


def _msb_digit(v, p, n):
    """Digit p, most significant first, of v written with floor(log2 n)
    binary digits; false when p walks off them."""
    m = _floor_log2(n)
    return p < m and bool((v >> (m - 1 - p)) & 1)


def _slot_atom(f, idx):
    """What the atom f means, in both evaluators: its closure over the
    slots idx that hold its relations and then its terms. The compiled
    evaluator passes the slots of its plan, the reference walk the list of
    operand values it has just checked."""
    ty = type(f)
    if ty is InRel:
        r, *args = idx
        if len(args) == 1:
            (a,) = args
            return lambda c, s: (s[a],) in s[r]
        return lambda c, s: tuple([s[i] for i in args]) in s[r]
    if ty is Letter:
        (p,) = idx
        letter = f.letter
        return lambda c, s: c.letters[s[p]] == letter
    if ty is Eq:
        a, b = idx
        return lambda c, s: s[a] == s[b]
    if ty is Lt:
        a, b = idx
        return lambda c, s: s[a] < s[b]
    if ty is TrueF:
        return _true
    if ty is FalseF:
        return _false
    if ty is BitAtom:
        a, j = idx
        return lambda c, s: bool((s[a] >> s[j]) & 1)
    if ty is HighBit:
        a, p = idx
        return lambda c, s: _msb_digit(s[a], s[p], c.n)
    if ty is SizeBit:
        (p,) = idx
        return lambda c, s: _msb_digit(c.n, s[p], c.n)
    if ty is LtLog:
        (a,) = idx
        return lambda c, s: s[a] < _floor_log2(c.n)
    if ty is LtPowLog:
        (a,) = idx
        return lambda c, s: s[a] < (1 << _floor_log2(c.n))
    if ty is ShuffleBit:
        # the sets are listed in one instance ordering; position x of set
        # index in the other ordering is flat bit p of the instance code
        *sets, x = idx
        k, index = f.width, f.index
        if f.direction == "to_interleaved":
            def to_interleaved(c, s):
                p = index * c.n + s[x]
                return (p // k,) in s[sets[p % k]]
            return to_interleaved

        def to_concatenated(c, s):
            p = s[x] * k + index
            return (p % c.n,) in s[sets[p // c.n]]
        return to_concatenated
    a, b, d = idx
    if ty is SetTimes:
        return lambda c, s: (instance_rank((s[a],), c.n, CONCATENATED)
                             * instance_rank((s[b],), c.n, CONCATENATED)
                             == instance_rank((s[d],), c.n, CONCATENATED))
    if ty is PlusAtom:
        return lambda c, s: s[a] + s[b] == s[d]
    return lambda c, s: s[a] * s[b] == s[d]


def _mask_atom(idx):
    """(in R t...) over the slots idx of _slot_atom, R a relation of the
    LindSO node whose masks are made, held in its slot as _Masks: the mask
    of the instances whose R holds the terms' tuple."""
    r, *args = idx
    if len(args) == 1:
        (a,) = args
        return lambda c, s: s[r][(s[a],)]
    return lambda c, s: s[r][tuple([s[i] for i in args])]


def _loop(ty, i, body, solve, full=None):
    """Closure of a quantifier of type ty binding i, a slot of the compiled
    evaluator or a name of the reference walk's environment: a forall or
    exists over the positions, or an existsSO over the relations subsets
    gives; an existential with a solver tries only the solved value. With
    full, the slot of a LindSO node's full mask, body and the closure give
    masks over the node's instances: a forall ands the n masks and an
    exists ors them (see _fold_masks), and a solved exists gives the
    solved value's mask or 0."""
    if full is not None and solve is None:
        def values(c, s):
            for v in range(c.n):
                s[i] = v
                yield body(c, s)
        conj = ty is ForallFO
        return lambda c, s: _fold_masks(conj, s[full], values(c, s))
    if ty is ForallFO:
        def forall(c, s):
            for v in range(c.n):
                s[i] = v
                if not body(c, s):
                    return False
            return True
        return forall

    if solve is None:
        domain = subsets if ty is ExistsSO else range

        def exists(c, s):
            for v in domain(c.n):
                s[i] = v
                if body(c, s):
                    return True
            return False
        return exists

    def exists_solved(c, s):
        w = solve(c, s)
        if 0 <= w < c.n:
            s[i] = w
            return body(c, s)
        return False
    return exists_solved


def _fill(k, body, free, reads, want):
    """Closure storing in slot k the tuple of the values in slots reads at
    every assignment of positions to slots free where body is want."""
    def fill(c, s):
        hits = []
        for vals in itertools.product(range(c.n), repeat=len(free)):
            for i, v in zip(free, vals):
                s[i] = v
            if bool(body(c, s)) is want:
                hits.append(tuple([s[i] for i in reads]))
        s[k] = frozenset(hits)
    return fill


def _set_test(ty, positive, r, k):
    """Closure deciding a guarded block of type ty over the relation in
    slot r and the fill in slot k: the tuples where the rest of an exists
    block holds, or where the rest of a forall block fails."""
    if ty is ExistsFO:
        if positive:
            return lambda c, s: not s[r].isdisjoint(s[k])
        return lambda c, s: not s[k] <= s[r]
    if positive:
        return lambda c, s: s[k] <= s[r]
    return lambda c, s: s[r].isdisjoint(s[k])


class _Plan:
    """A compiled formula fn and its record. free maps each free name to
    its slot and kind (_FO if read as a position, _SO as a relation), and
    fixed each min, max and constant term to its slot. sound is false when
    no call can meet the record: the formula reads a name in two kinds, or
    in another kind than its binder gives."""

    def __init__(self, formula):
        _check_root(formula)
        self.nslots = 0
        self.free = {}  # free name -> (slot, kind)
        self.fixed = {}  # min, max or constant term -> slot
        self.sound = True
        self.letters = False
        self.nodes = []
        self.reads = []  # every slot a name was resolved to, in order
        # the innermost LindSO whose argument is being compiled: its first
        # slot, its relation slots, its arity, its fills and the slot of
        # its full mask
        self.node = None
        self.fn = self.compile(formula, {}, 0)

    def slots(self, ctx, env):
        """The slot list fn runs on, its free names, min, max and constants
        read by the walk's own readers; None when a check of the walk fails
        on any of them or on any quantifier node, even one a short circuit
        would skip."""
        if (not self.sound or ctx.n == 0
                or self.letters and ctx.letters is _NO_LETTERS):
            return None
        slots = [None] * self.nslots
        try:
            for t, i in self.fixed.items():
                slots[i] = _term_value(ctx, env, t)
            for name, (i, kind) in self.free.items():
                slots[i] = (_position(ctx, env, name) if kind == _FO
                            else _relation(env, name))
            for node in self.nodes:
                _node_range(ctx, node)
        except (UnboundVariable, SortMismatch, UnknownLanguage,
                ArityMismatch, InstanceCapExceeded):
            return None
        return slots

    def new_slot(self) -> int:
        self.nslots += 1
        return self.nslots - 1

    def resolve(self, name, scope, kind) -> int:
        """Slot of a name read as kind: its innermost binder's, else its
        free slot."""
        hit = scope.get(name) or self.free.get(name)
        if hit is None:
            hit = self.free[name] = (self.new_slot(), kind)
        slot, bound = hit
        if bound != kind:
            self.sound = False
        self.reads.append(slot)
        return slot

    def term(self, t, scope):
        """Slot of a term: its variable's, or the one min, max or the
        constant fills."""
        if type(t) is Var:
            return self.resolve(t.name, scope, _FO)
        slot = self.fixed.get(t)
        if slot is None:
            slot = self.fixed[t] = self.new_slot()
        return slot

    def compile(self, f, scope, depth):
        if depth > MAX_NESTING:
            raise NestingCapExceeded(
                f"formula nests deeper than {MAX_NESTING} levels")
        ty = type(f)
        if ty is And or ty is Or:
            parts = []
            for g in _spine(f, ty):
                parts.append(self.compile(g, scope, depth + 1))
            return _junction(parts, ty)
        if ty is Not:
            body = self.compile(f.body, scope, depth + 1)
            return lambda c, s: not body(c, s)
        if ty is ExistsFO or ty is ForallFO:
            return self.block(f, scope, depth, False)[0]
        if ty is ExistsSO:
            i = self.new_slot()
            body = self.compile(f.body, {**scope, f.var: (i, _SO)}, depth + 1)
            return _loop(ExistsSO, i, body, None)
        if ty is LindFO or ty is LindSO:
            return self.lindstrom(f, scope, depth)
        return self.atom(f, scope)

    def block(self, f, scope, depth, masks):
        """(closure, mask closure or None) of the block entered at the
        quantifier f; with masks, f is in an argument of the innermost
        LindSO N, and the mask closure is the block's over N's instances.

        One walk down the nest gives each quantifier its slot and builds
        its loop, and its mask loop, and compiles each leaf, noting whether
        the leaf reads a slot bound by N or between N and f. If exactly one
        leaf does and guard accepts it, the closure is a set test instead,
        and N's closure fills its slot.
        """
        ty = type(f)
        spine = And if ty is ExistsFO else Or
        unit = _true if ty is ExistsFO else _false
        node = self.node
        forbidden = None if node is None else {
            i for i, _ in scope.values() if i >= node[0]}
        full = node[4] if masks else None
        binders = {}  # var -> (slot, solver)
        names = []  # the var of each quantifier
        leaves = []  # per leaf: (node, closure, block names above it,
        #              whether it reads a forbidden slot)
        above = []

        def walk(g, scope, depth):
            if depth > MAX_NESTING:
                raise NestingCapExceeded(
                    f"formula nests deeper than {MAX_NESTING} levels")
            if type(g) is ty:
                i, start = self.new_slot(), len(leaves)
                names.append(g.var)
                above.append(g.var)
                body, mask = walk(g.body, {**scope, g.var: (i, _FO)},
                                  depth + 1)
                above.pop()
                solve = None
                if ty is ExistsFO:
                    solve = self.witness(g.var, scope, leaves[start:],
                                         len(above))
                binders[g.var] = (i, solve)
                return (_loop(ty, i, body, solve),
                        mask and _loop(ty, i, mask, solve, full))
            if type(g) is spine:
                fns, mks = zip(*[walk(h, scope, depth + 1)
                                 for h in _spine(g, spine)])
                return _junction(fns, spine), _mask_junction(mks, spine, full)
            mark = len(self.reads)
            fn, mask = (self.argument(g, scope, depth) if masks
                        else (self.compile(g, scope, depth), None))
            leaves.append((g, fn, tuple(above), forbidden is not None
                           and not forbidden.isdisjoint(self.reads[mark:])))
            return fn, mask

        loops, mask = walk(f, scope, depth)
        hits = [leaf for leaf in leaves if leaf[3]]
        guard = None
        if len(hits) == 1 and len(binders) == len(names):
            guard = self.guard(hits[0], scope, node, binders)
        if guard is None:
            return loops, mask
        positive, r, drop, reads = guard
        at = iter(leaves)

        def rest(g):
            """The block without the guard leaf and the binders of its
            terms, over the closures walk made."""
            if type(g) is ty:
                body = rest(g.body)
                if g.var in drop:
                    return body
                i, solve = binders[g.var]
                return _loop(ty, i, body, solve)
            if type(g) is spine:
                return _junction(list(map(rest, _spine(g, spine))), spine)
            leaf = next(at)
            return unit if leaf is hits[0] else leaf[1]

        k = self.new_slot()
        node[3].append(_fill(k, rest(f), tuple(drop.values()), reads,
                             ty is ExistsFO))
        return _set_test(ty, positive, r, k), mask

    def guard(self, leaf, scope, node, binders):
        """(positive, relation slot, slots of the leaf's distinct terms by
        name, slots of its terms) when the leaf, the one that reads what N
        or the binders between N and the block bind, makes the block
        guarded; else None.

        The leaf must be (in R t...) or its negation, R a relation of N
        and every t a variable bound in the block above the leaf, with at
        most N's arity distinct ones, so a fill holds at most n^arity
        tuples. The block's variables have distinct names, so each t names
        one quantifier.
        """
        g, _, above, _ = leaf
        _, relations, arity, _, _ = node
        positive = type(g) is not Not
        atom = g if positive else g.body
        if type(atom) is not InRel:
            return None
        rel = scope.get(atom.rel)
        if rel is None or rel[0] not in relations:
            return None
        if not all(type(t) is Var and t.name in above for t in atom.args):
            return None
        drop = {t.name: binders[t.name][0] for t in atom.args}
        if len(drop) > arity:
            return None
        return positive, rel[0], drop, tuple(drop[t.name] for t in atom.args)

    def witness(self, v, outer, leaves, level):
        """Solver of the first leaf below `exists v` (leaves, at the given
        level of its block) that fixes v from values bound outside it, or
        None. Leaves below a deeper binder of v are skipped. A leaf's first
        form in _SOLVED whose solved field is v decides it: an operand that
        is v or is bound below v leaves v unfixed by that leaf.

        No leaf raises when the plan runs, so the body is false at every
        value of v but the solved one, which alone decides the quantifier;
        a solved value outside the domain makes it false.
        """
        target = Var(v)
        for g, _, above, _ in leaves:
            inner = above[level + 1:]
            if v in inner:
                continue
            for solved, op, *names in _SOLVED.get(type(g), ()):
                if getattr(g, solved) != target:
                    continue
                operands = [getattr(g, x) for x in names]
                if any(type(t) is Var and (t.name == v or t.name in inner)
                       for t in operands):
                    break
                reads = [self.term(t, outer) for t in operands]
                if op is None:
                    (i,) = reads
                    return lambda c, s: s[i]
                i, j = reads
                return lambda c, s: op(s[i], s[j])
        return None

    def lindstrom(self, f, scope, depth):
        """Closure of the quantifier node f, which builds its word with
        _induced. A LindSO node compiles each argument with argument, so
        it also has mask closures when every argument has one, and it has
        at most 255 arguments; _induced spells the word from them when the
        language has no decided state, and runs the node's fills and the
        instance loop otherwise."""
        self.nodes.append(f)
        kind = _SO if type(f) is LindSO else _FO
        inner = dict(scope)
        slots = []
        for name in f.vars:
            slots.append(self.new_slot())
            inner[name] = (slots[-1], kind)
        outer, fills, masks, full = self.node, [], None, None
        if type(f) is LindSO:
            full = self.new_slot()
            self.node = (slots[0], frozenset(slots), f.arity, fills, full)
            args, masks = zip(*[self.argument(a, inner, depth + 1)
                                for a in f.args])
            # a letter's digit in _spell is one byte
            if None in masks or len(masks) > 255:
                masks = None
        else:
            args = [self.compile(a, inner, depth + 1) for a in f.args]
        self.node = outer
        fast = (fills, masks, full)

        def quantifier(c, s):
            return language_member(*_induced(c, s, f, args, slots, fast))
        return quantifier

    def argument(self, f, scope, depth):
        """(closure, mask closure or None) of f in an argument of the
        innermost LindSO N. The mask closure gives the mask of N's
        instances at which f holds, with N's relations held as _Masks. A
        part of f that reads none of N's relations is run once, as the full
        mask or 0; one that reads them through anything but (in R t...),
        not, and, or, exists and forall (such as a nested existsSO or
        quantifier node, set-times or shuffle-bit) leaves f with no mask
        closure."""
        if depth > MAX_NESTING:
            raise NestingCapExceeded(
                f"formula nests deeper than {MAX_NESTING} levels")
        _, relations, _, _, full = self.node
        mark = len(self.reads)
        ty = type(f)
        if ty is And or ty is Or:
            fns, masks = zip(*[self.argument(g, scope, depth + 1)
                               for g in _spine(f, ty)])
            fn, mask = _junction(fns, ty), _mask_junction(masks, ty, full)
        elif ty is Not:
            body, inverse = self.argument(f.body, scope, depth + 1)
            fn = lambda c, s: not body(c, s)
            mask = inverse and (lambda c, s: inverse(c, s) ^ s[full])
        elif ty is ExistsFO or ty is ForallFO:
            fn, mask = self.block(f, scope, depth, True)
        elif ty is InRel:
            idx = self.operands(f, scope)
            fn, mask = _slot_atom(f, idx), _mask_atom(idx)
        else:
            fn, mask = self.compile(f, scope, depth), None
        if relations.isdisjoint(self.reads[mark:]):
            mask = lambda c, s: s[full] if fn(c, s) else 0
        return fn, mask

    def operands(self, f, scope):
        """The slots of the atom f's relations and then of its terms."""
        idx = [self.resolve(name, scope, _SO) for name in relation_names(f)]
        idx += [self.term(t, scope) for t in terms(f)]
        self.letters = self.letters or type(f) is Letter
        return idx

    def atom(self, f, scope):
        return _slot_atom(f, self.operands(f, scope))


def _plan(formula) -> _Plan:
    """The compiled form of formula, memoised for the last few formulas."""
    hit = _plans.get(id(formula))
    if hit is not None and hit[0] is formula:
        return hit[1]
    plan = _Plan(formula)
    _plans[id(formula)] = (formula, plan)
    if len(_plans) > _PLAN_CACHE_SIZE:
        del _plans[next(iter(_plans))]
    return plan


def evaluate(struct, formula, assignment=None, *, registry=None,
             instance_cap=DEFAULT_INSTANCE_CAP) -> bool:
    """Tarskian truth of `formula` in `struct` under `assignment`.

    Runs the compiled form of the formula when the walk's own checks pass
    for every free name, min, max, constant and quantifier node in it, and
    the reference walk otherwise. So it
    gives evaluate_reference's verdict, or raises its error in type and
    message, except on formulas nested deeper than MAX_NESTING levels,
    which raise NestingCapExceeded: here an And/Or chain counts as one
    level, there each And/Or counts. The compiled form decides a
    quantifier node by the prefix of its word up to the first letter
    that enters a decided state of the language's fold, which has the
    whole word's verdict. A LindSO node whose language has no decided
    state, and whose arguments read its relations only through
    (in R t...), not, and, or, exists and forall, has its whole word
    spelled from masks over all its instances at once, with none
    enumerated. The compiled form runs only where nothing in it can
    raise, so the instances it skips hide no error.
    """
    plan = _plan(formula)
    ctx = _Ctx(struct, registry, instance_cap)
    env = dict(assignment or {})  # the environment the walk reads
    slots = plan.slots(ctx, env)
    if slots is None:
        return _eval(ctx, env, formula)
    return plan.fn(ctx, slots)


def induced_word(struct, assignment, node, *, registry=None,
                 instance_cap=DEFAULT_INSTANCE_CAP) -> str:
    """The exact word a generalized quantifier node tests for membership:
    every instance's letter, also past a prefix that decides it."""
    check_nesting(node)
    ctx = _Ctx(struct, registry, instance_cap)
    if type(node) not in (LindFO, LindSO):
        raise InvariantViolation("induced_word needs a generalized quantifier node")
    return _induced(ctx, dict(assignment or {}), node, _walks(node),
                    node.vars)[1]


def words(alphabet, max_n: int, min_n: int):
    """Every word over alphabet of min_n to max_n letters, as a tuple of
    letters: shorter words first, words of one length in alphabet order."""
    for length in range(min_n, max_n + 1):
        yield from itertools.product(alphabet, repeat=length)


def string_structures(alphabet, max_n: int, min_n: int = 1):
    """The words of words(alphabet, max_n, min_n) as structures."""
    alphabet = tuple(alphabet)
    return (StringStructure(alphabet, w)
            for w in words(alphabet, max_n, min_n))


def define_language(sentence, alphabet, max_n: int, *, registry=None,
                    instance_cap=DEFAULT_INSTANCE_CAP):
    """All nonempty strings of length <= max_n satisfying the sentence."""
    return [st.word for st in string_structures(alphabet, max_n)
            if evaluate(st, sentence, registry=registry,
                        instance_cap=instance_cap)]


# ---------------------------------------------------------------------------
# Traversal
#
# From the kinds of its fields, per node class: the fields that hold
# subformulas, those that hold terms, and those that hold variable names.
# Every walker and rewriter reads them, so a node class is described once.

def _accessors(cls, kind):
    """(get, put) for the fields of cls of the kind or of kind + s, None if
    it has none: get(node) is the tuple of their values, with the items of
    a kind + s field in its place, and put(node, values) a copy of node
    holding values there. A class has one kind + s field or only ones of
    the kind."""
    group = [f for f in fields(cls) if f.kind in (kind, kind + "s")]
    if not group:
        return None
    names = [f.name for f in group]
    spread = group[0].kind != kind
    if spread or len(names) > 1:
        get = operator.attrgetter(*names)
    else:
        first = operator.attrgetter(names[0])

        def get(node):
            return (first(node),)

    def put(node, values):
        kw = {f.name: getattr(node, f.name) for f in fields(cls)}
        kw.update(zip(names, [tuple(values)] if spread else values))
        return cls(**kw)
    return get, put


_SUBFORMULAS = {cls: acc for cls in FORMULA_CLASSES
                if (acc := _accessors(cls, "Formula"))}
_TERMS = {cls: acc for cls in FORMULA_CLASSES
          if (acc := _accessors(cls, "Term"))}
# class -> get of the position names and of the relation names it holds
_POSITIONS, _RELATIONS = ({cls: acc[0] for cls in FORMULA_CLASSES
                           if (acc := _accessors(cls, kind))}
                          for kind in ("PosName", "RelName"))


def children(f) -> tuple:
    """The direct subformulas of f, left to right."""
    acc = _SUBFORMULAS.get(type(f))
    return acc[0](f) if acc is not None else ()


def rebuild(f, kids):
    """f with its direct subformulas replaced by kids, in children order."""
    return _SUBFORMULAS[type(f)][1](f, kids)


def terms(f) -> tuple:
    """The terms of the atom f, left to right; () for any other node."""
    acc = _TERMS.get(type(f))
    return acc[0](f) if acc is not None else ()


def with_terms(f, new_terms):
    """The atom f with its terms replaced by new_terms, in terms order."""
    return _TERMS[type(f)][1](f, new_terms)


def relation_names(f) -> tuple:
    """The relation variable names f holds, left to right: those it binds
    if it has subformulas, those it reads if it is an atom."""
    get = _RELATIONS.get(type(f))
    return () if get is None else get(f)


def walk_formulas(node):
    """Yield every subformula, root first, left to right. Raises
    InvariantViolation when node is no formula."""
    _check_root(node)
    stack = [node]
    while stack:
        g = stack.pop()
        yield g
        acc = _SUBFORMULAS.get(type(g))
        if acc is not None:
            stack.extend(reversed(acc[0](g)))


def rewrite(f, fn):
    """Rewrite f top-down. fn(node, rw) returns node's replacement, calling
    rw on whichever subformulas it keeps, or None to rebuild node from rw of
    each child (node itself when rw changed none of them).

    Parents are handled before their children, so names fn draws at a node
    come before those drawn below it. Raises NestingCapExceeded when f nests
    deeper than MAX_NESTING levels (see check_nesting).
    """
    check_nesting(f)

    def rw(g):
        out = fn(g, rw)
        if out is not None:
            return out
        acc = _SUBFORMULAS.get(type(g))
        if acc is None:
            return g
        get, put = acc
        kids = get(g)
        new = tuple(map(rw, kids))
        return g if all(map(operator.is_, new, kids)) else put(g, new)
    return rw(f)


def _check_root(f) -> None:
    """Raise InvariantViolation unless f, a root, is a formula node."""
    if type(f) not in FORMULA_CLASSES:
        raise InvariantViolation(f"not a formula: {f!r}")


def check_nesting(f) -> None:
    """Raise NestingCapExceeded when a node of the formula f lies more than
    MAX_NESTING levels below the root (every And/Or counts, unlike in
    compiled levels), and InvariantViolation when f is no formula. Walks
    level by level without recursion, so it measures any depth; a formula
    it passes keeps the recursive walkers within Python's default limit."""
    _check_root(f)
    level = [f]
    for _ in range(MAX_NESTING + 1):
        below = []
        for node in level:
            acc = _SUBFORMULAS.get(type(node))
            if acc is not None:
                below.extend(acc[0](node))
        if not below:
            return
        level = below
    raise NestingCapExceeded(f"formula nests deeper than {MAX_NESTING} levels")


# ---------------------------------------------------------------------------
# Variable bookkeeping

def free_variables(f):
    """(free first-order names, free second-order names)."""
    _check_root(f)
    fo: set = set()
    so: set = set()
    none = frozenset()
    stack = [(f, none, none)]
    while stack:
        g, bound_fo, bound_so = stack.pop()
        ty = type(g)
        acc = _SUBFORMULAS.get(ty)
        if acc is not None:  # g binds its names in its subformulas
            if ty in _POSITIONS:
                bound_fo = bound_fo.union(_POSITIONS[ty](g))
            if ty in _RELATIONS:
                bound_so = bound_so.union(_RELATIONS[ty](g))
            for sub in acc[0](g):
                stack.append((sub, bound_fo, bound_so))
            continue
        for t in terms(g):
            if type(t) is Var and t.name not in bound_fo:
                fo.add(t.name)
        so.update(name for name in relation_names(g) if name not in bound_so)
    return fo, so


def all_names(f) -> set:
    """Every variable name occurring anywhere in the formula: the names
    every node holds and those of its Var terms."""
    names = set()
    for sub in walk_formulas(f):
        for table in (_POSITIONS, _RELATIONS):
            if type(sub) in table:
                names.update(table[type(sub)](sub))
        names.update(t.name for t in terms(sub) if type(t) is Var)
    return names


class Gensym:
    """Fresh names: gensym(base) is _<base><k> for the next k of a count
    shared by every base, skipping the names in used and those it drew."""

    def __init__(self, used):
        self.used = set(used)
        self.n = 0

    def __call__(self, base):
        while True:
            name = f"_{base}{self.n}"
            self.n += 1
            if name not in self.used:
                self.used.add(name)
                return name


def eliminate_min_max(f):
    """Replace min/max terms by quantified variables pinned by order atoms.

    Used by translations whose target domain moves the endpoints. Every
    min or max term draws a fresh name, _min<k> or _max<k>, whose name and
    pin name <name>u the formula does not use, and equal endpoints of one
    atom all take the first name drawn for them.
    """
    used = all_names(f)
    fresh = Gensym(used | {v[:-1] for v in used if v.endswith("u")})

    def fn(node, rw):
        old = terms(node)
        new = {}
        wrappers = []
        for t in old:
            if type(t) is Min or type(t) is Max:
                which = "min" if type(t) is Min else "max"
                v = fresh(which)
                new.setdefault(t, Var(v))
                wrappers.append((v, which))
        if not wrappers:
            return None
        out = with_terms(node, [new.get(t, t) for t in old])
        for v, which in reversed(wrappers):
            pin = endpoint(Var(v), v + "u", which == "max")
            out = ExistsFO(v, And(pin, out))
        return out

    return rewrite(f, fn)


# ---------------------------------------------------------------------------
# Fragments
#
# FRAGMENT_TABLE maps each fragment name, aliases included, to a row
# (outer, allowed, ordering, relations): the outermost node required
# (LindFO, LindSO or None), the node classes allowed below it (in the whole
# formula when there is none), the ordering every LindSO must use (or None),
# and the side rule for relation atoms: "monadic" (every InRel and LindSO is
# monadic) or "outer" (no relation variable is free: the outermost node's
# are the only ones a formula reads).

CONNECTIVES = (TrueF, FalseF, Not, And, Or)
ORDER_ATOMS = (Eq, Lt, Letter)
ARITH_ATOMS = (PlusAtom, TimesAtom, BitAtom, HighBit, SizeBit, LtLog,
               LtPowLog, SetTimes, ShuffleBit)
FO_BINDERS = (ExistsFO, ForallFO)

_QFREE = frozenset(CONNECTIVES + ORDER_ATOMS)
_FIRST_ORDER = _QFREE.union(FO_BINDERS)
_FO_ARITH = _FIRST_ORDER.union(ARITH_ATOMS) - {SetTimes, ShuffleBit}
_SO_ARGS = _FIRST_ORDER | {LindFO, InRel}
_SO_ARGS_ARITH = _SO_ARGS.union(ARITH_ATOMS)
_SOM = _FIRST_ORDER | {ExistsSO, InRel}
_SOMQ = _SOM | {LindSO}
_SOMQ_ARITH = _SOMQ.union(ARITH_ATOMS)

FRAGMENT_TABLE = {
    "FO": (None, _FIRST_ORDER, None, None),
    "FO+arith": (None, _FO_ARITH, None, None),
    "qfree-no-arith": (None, _QFREE, None, None),
    "Q-qfree-no-arith": (LindFO, _QFREE, None, None),
    "QL-FO": (LindFO, _FIRST_ORDER, None, None),
    "QL-FO+arith": (LindFO, _FO_ARITH, None, None),
    "FO(QL)": (None, _FIRST_ORDER | {LindFO}, None, None),
    "FO(QL)+arith": (None, _FO_ARITH | {LindFO}, None, None),
    "Q1-FO": (LindSO, _SO_ARGS, INTERLEAVED, "outer"),
    "Q1-FO+arith": (LindSO, _SO_ARGS_ARITH, INTERLEAVED, "outer"),
    "Qstar-FO": (LindSO, _SO_ARGS, CONCATENATED, "outer"),
    "Qstar-FO+arith": (LindSO, _SO_ARGS_ARITH, CONCATENATED, "outer"),
    "SOM": (None, _SOM, None, "monadic"),
    "SOM(Q1)": (None, _SOMQ, INTERLEAVED, "monadic"),
    "SOM(Qstar)": (None, _SOMQ, CONCATENATED, "monadic"),
    "SOM(Qstar)+arith": (None, _SOMQ_ARITH, CONCATENATED, "monadic"),
}
FRAGMENTS = tuple(FRAGMENT_TABLE)
FRAGMENT_TABLE["FO(+,x)"] = FRAGMENT_TABLE["FO+arith"]
FRAGMENT_TABLE["Q_L-FO"] = FRAGMENT_TABLE["QL-FO"]
FRAGMENT_TABLE["FO(Q_L)"] = FRAGMENT_TABLE["FO(QL)"]


def fragment_check(formula, fragment: str):
    """Shape test for the named fragment; returns (ok, diagnostic).

    Walks the formula once, root first, and reports the first node that
    the fragment's row in FRAGMENT_TABLE refuses; the "outer" rule is
    checked after the walk. Raises InvariantViolation when formula is no
    formula node."""
    _check_root(formula)
    try:
        outer, allowed, ordering, relations = FRAGMENT_TABLE[fragment]
    except KeyError:
        raise UnknownFragment(f"unknown fragment {fragment!r}") from None
    if outer is not None and type(formula) is not outer:
        return False, f"outermost node is not {outer.__name__}"
    for node in walk_formulas(formula):
        ty = type(node)
        if ty not in allowed and (outer is None or node is not formula):
            return False, f"{ty.__name__} is not allowed in {fragment}"
        if ty is LindSO:
            if ordering not in (None, node.ordering):
                return False, f"LindSO uses the {node.ordering} ordering"
            if relations == "monadic" and node.arity != 1:
                return False, f"LindSO of arity {node.arity} is not monadic"
        elif ty is InRel and relations == "monadic" and len(node.args) != 1:
            return False, f"non-monadic relation atom on {node.rel!r}"
    if relations == "outer":
        foreign = free_variables(formula)[1]
        if foreign:
            return False, f"reads foreign relation variable {min(foreign)!r}"
    return True, "ok"
