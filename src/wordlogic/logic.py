"""Formula AST and exact evaluation over string and constant structures.

First-order generalized quantifier nodes build a word over the quantifier
language's alphabet, one letter per lexicographically ordered tuple of
domain elements; second-order monadic/m-ary nodes do the same over all
instances of their bound relation variables, ordered either by interleaved
or concatenated bit codes. Membership of the induced word decides the node.

`evaluate` compiles a formula once into closures over a slot array and
solves existential witnesses that a plus, times or = atom fixes;
`evaluate_reference` is the direct tree walk that tests and oracles hold it
against.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, fields

from .algebra import LanguageSpec, language_member
from .errors import (
    ArityMismatch,
    EmptyDomain,
    InstanceCapExceeded,
    InvariantViolation,
    NestingCapExceeded,
    NonConstantSignature,
    RankOutOfRange,
    UnboundVariable,
    UnknownFragment,
    UnknownLanguage,
    UnknownLetter,
)

INTERLEAVED = "interleaved"   # Q1 ordering: position-major bit codes
CONCATENATED = "concatenated"  # Q* ordering: variable-major bit codes

DEFAULT_INSTANCE_CAP = 1 << 24


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Min:
    pass


@dataclass(frozen=True)
class Max:
    pass


@dataclass(frozen=True)
class ConstSym:
    """Constant symbol of a constant signature (not a string letter)."""
    name: str


MIN = Min()
MAX = Max()

Term = Var | Min | Max | ConstSym


# ---------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Lt:
    left: Term
    right: Term


@dataclass(frozen=True)
class Letter:
    letter: str
    term: Term


@dataclass(frozen=True)
class InRel:
    rel: str
    args: tuple


@dataclass(frozen=True)
class PlusAtom:
    a: Term
    b: Term
    c: Term


@dataclass(frozen=True)
class TimesAtom:
    a: Term
    b: Term
    c: Term


@dataclass(frozen=True)
class BitAtom:
    """bit(a, j): the weight-2^j bit of a is 1."""
    a: Term
    j: Term


@dataclass(frozen=True)
class HighBit:
    """Bit of val(value) with weight 2^(floor(log2 N) - (val(pos)+1)).

    Reads val(value) as a floor(log2 N)-digit most-significant-first string,
    N the domain size. False when pos walks off that string.
    """
    value: Term
    pos: Term


@dataclass(frozen=True)
class SizeBit:
    """Bit of the domain size N itself at the same msb-relative position."""
    pos: Term


@dataclass(frozen=True)
class LtLog:
    """val(term) < floor(log2 N)."""
    term: Term


@dataclass(frozen=True)
class LtPowLog:
    """val(term) < 2^floor(log2 N)."""
    term: Term


@dataclass(frozen=True)
class SetTimes:
    """Product of set-coded integers: code(X) * code(Y) = code(Z).

    Monadic relation variables are read as most-significant-first bit
    strings over the domain.
    """
    x: str
    y: str
    z: str


@dataclass(frozen=True)
class ShuffleBit:
    """Membership in one component of the code permutation that aligns the
    interleaved and concatenated instance orderings (monadic case).

    direction 'to_interleaved': evaluated against sets listed in interleaved
    position, decodes the concatenated reading, and vice versa for
    'to_concatenated'.
    """
    direction: str  # 'to_interleaved' | 'to_concatenated'
    index: int      # which original variable (0-based)
    width: int      # k, the number of bound variables
    point: Term
    set_vars: tuple

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


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class ExistsFO:
    var: str
    body: object


@dataclass(frozen=True)
class ForallFO:
    var: str
    body: object


@dataclass(frozen=True)
class ExistsSO:
    """Existential monadic second-order quantifier."""
    var: str
    body: object


@dataclass(frozen=True)
class LindFO:
    """First-order generalized quantifier node over a named language."""
    lang: str
    vars: tuple
    args: tuple

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars) or not self.vars:
            raise InvariantViolation("quantifier variables must be distinct")


@dataclass(frozen=True)
class LindSO:
    """Second-order generalized quantifier node.

    `ordering` selects the instance serialization; `arity` is the common
    arity m of the bound relation variables.
    """
    lang: str
    ordering: str
    arity: int
    vars: tuple
    args: tuple

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars) or not self.vars:
            raise InvariantViolation("quantifier variables must be distinct")
        if self.ordering not in (INTERLEAVED, CONCATENATED):
            raise InvariantViolation(f"unknown ordering {self.ordering!r}")
        if self.arity < 1:
            raise InvariantViolation("relation arity must be positive")


def iff(a, b):
    return And(Or(Not(a), b), Or(Not(b), a))


def implies(a, b):
    return Or(Not(a), b)


# ---------------------------------------------------------------------------
# Structures

@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

@functools.lru_cache(maxsize=16)
def _code_layout(n: int, k: int, ordering: str, m: int):
    """(total bits, per variable the (bit shift, m-tuple) of each code bit).

    Built once per shape: every rank of a quantifier node reuses it.
    """
    tuples = tuple(itertools.product(range(n), repeat=m))
    npos = len(tuples)
    total_bits = npos * k
    if ordering == INTERLEAVED:
        def bit(i, j):
            return j * k + i
    elif ordering == CONCATENATED:
        def bit(i, j):
            return i * npos + j
    else:
        raise InvariantViolation(f"unknown ordering {ordering!r}")
    layout = tuple(tuple((total_bits - 1 - bit(i, j), t)
                         for j, t in enumerate(tuples))
                   for i in range(k))
    return total_bits, layout


def instance_rank(sets, n: int, ordering: str, m: int = 1) -> int:
    """Rank of a k-tuple of m-ary relations under the given ordering.

    Each relation is coded by the bit string over lexicographically ordered
    m-tuples; codes are read most significant bit first.
    """
    _, layout = _code_layout(n, len(sets), ordering, m)
    rank = 0
    for s, bits in zip(sets, layout):
        for shift, t in bits:
            if t in s:
                rank |= 1 << shift
    return rank


def instance_unrank(rank: int, n: int, k: int, ordering: str, m: int = 1):
    """Inverse of instance_rank; returns a k-tuple of frozensets of tuples."""
    total_bits, layout = _code_layout(n, k, ordering, m)
    if not 0 <= rank < (1 << total_bits):
        raise RankOutOfRange(f"rank {rank} outside [0, 2^{total_bits})")
    return tuple(frozenset([t for shift, t in bits if (rank >> shift) & 1])
                 for bits in layout)


def set_code_value(s, n: int) -> int:
    """Monadic relation read as an n-digit msb-first binary number."""
    v = 0
    for j in range(n):
        if (j,) in s:
            v |= 1 << (n - 1 - j)
    return v


def set_from_code_value(v: int, n: int) -> frozenset:
    return frozenset((j,) for j in range(n) if (v >> (n - 1 - j)) & 1)


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


def _term_value(ctx, env, t):
    if type(t) is Var:
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariable(f"unbound variable {t.name!r}") from None
    if type(t) is Min:
        if ctx.n == 0:
            raise EmptyDomain("min over the empty structure")
        return 0
    if type(t) is Max:
        if ctx.n == 0:
            raise EmptyDomain("max over the empty structure")
        return ctx.n - 1
    if type(t) is ConstSym:
        if not isinstance(ctx.struct, ConstStructure):
            raise UnboundVariable(
                f"constant ${t.name} evaluated on a string structure")
        return ctx.struct.const(t.name)
    raise InvariantViolation(f"not a term: {t!r}")


def resolve_language(registry, name: str) -> LanguageSpec:
    """The language `name` of a registry, which may be None."""
    try:
        return registry[name]
    except (KeyError, TypeError):
        raise UnknownLanguage(f"language {name!r} not registered") from None


def _node_spec(ctx, node) -> LanguageSpec:
    """The language of a quantifier node, after the checks each evaluation
    of the node makes before it builds a word."""
    spec = resolve_language(ctx.registry, node.lang)
    if len(node.args) != spec.size - 1:
        raise ArityMismatch(
            f"{node.lang} takes {spec.size - 1} arguments, got {len(node.args)}"
        )
    if ctx.n == 0:
        raise EmptyDomain("generalized quantifier over the empty structure")
    return spec


def _instance_bits(ctx, node: LindSO) -> int:
    """Bits of an instance code of the node; 2^bits must be within the cap,
    and so must the size of its code layout, n^arity tuples of arity entries.
    Past arity 60 on two or more elements, n^arity alone is over 60 bits, so
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
    if tuples * node.arity > ctx.cap:
        raise InstanceCapExceeded(
            f"{tuples} tuples of arity {node.arity} exceed the cap {ctx.cap}",
            required=tuples * node.arity)
    return bits


def _floor_log2(n: int) -> int:
    return n.bit_length() - 1


# ---------------------------------------------------------------------------
# Reference evaluation: a direct tree walk over a name -> value environment.
# Tests and oracles compare the compiled evaluator against it.

def _letter_for(ctx, env, node, values, spec):
    """First-match letter rule: argument formulas tried left to right."""
    for idx, arg in enumerate(node.args):
        sub = dict(env)
        sub.update(values)
        if _eval(ctx, sub, arg):
            return spec.alphabet[idx]
    return spec.alphabet[-1]


def _lindfo_word(ctx, env, node):
    spec = _node_spec(ctx, node)
    k = len(node.vars)
    letters = []
    for tup in itertools.product(range(ctx.n), repeat=k):
        values = dict(zip(node.vars, tup))
        letters.append(_letter_for(ctx, env, node, values, spec))
    return spec, "".join(letters)


def _lindso_word(ctx, env, node):
    spec = _node_spec(ctx, node)
    bits = _instance_bits(ctx, node)
    k = len(node.vars)
    letters = []
    for rank in range(1 << bits):
        sets = instance_unrank(rank, ctx.n, k, node.ordering, node.arity)
        values = dict(zip(node.vars, sets))
        letters.append(_letter_for(ctx, env, node, values, spec))
    return spec, "".join(letters)


def _eval(ctx, env, f) -> bool:
    ty = type(f)
    if ty is TrueF:
        return True
    if ty is FalseF:
        return False
    if ty is Eq:
        return _term_value(ctx, env, f.left) == _term_value(ctx, env, f.right)
    if ty is Lt:
        return _term_value(ctx, env, f.left) < _term_value(ctx, env, f.right)
    if ty is Letter:
        pos = _term_value(ctx, env, f.term)
        return ctx.letters[pos] == f.letter
    if ty is InRel:
        try:
            s = env[f.rel]
        except KeyError:
            raise UnboundVariable(f"unbound relation variable {f.rel!r}") from None
        return tuple(_term_value(ctx, env, t) for t in f.args) in s
    if ty is PlusAtom:
        return (_term_value(ctx, env, f.a) + _term_value(ctx, env, f.b)
                == _term_value(ctx, env, f.c))
    if ty is TimesAtom:
        return (_term_value(ctx, env, f.a) * _term_value(ctx, env, f.b)
                == _term_value(ctx, env, f.c))
    if ty is BitAtom:
        a = _term_value(ctx, env, f.a)
        j = _term_value(ctx, env, f.j)
        return bool((a >> j) & 1)
    if ty is HighBit:
        m = _floor_log2(ctx.n)
        v = _term_value(ctx, env, f.value)
        p = _term_value(ctx, env, f.pos)
        if p >= m:
            return False
        return bool((v >> (m - 1 - p)) & 1)
    if ty is SizeBit:
        m = _floor_log2(ctx.n)
        p = _term_value(ctx, env, f.pos)
        if p >= m:
            return False
        return bool((ctx.n >> (m - 1 - p)) & 1)
    if ty is LtLog:
        return _term_value(ctx, env, f.term) < _floor_log2(ctx.n)
    if ty is LtPowLog:
        return _term_value(ctx, env, f.term) < (1 << _floor_log2(ctx.n))
    if ty is SetTimes:
        try:
            xv = set_code_value(env[f.x], ctx.n)
            yv = set_code_value(env[f.y], ctx.n)
            zv = set_code_value(env[f.z], ctx.n)
        except KeyError as e:
            raise UnboundVariable(f"unbound relation variable {e.args[0]!r}") from None
        return xv * yv == zv
    if ty is ShuffleBit:
        return _eval_shuffle(ctx, env, f)
    if ty is Not:
        return not _eval(ctx, env, f.body)
    if ty is And:
        return _eval(ctx, env, f.left) and _eval(ctx, env, f.right)
    if ty is Or:
        return _eval(ctx, env, f.left) or _eval(ctx, env, f.right)
    if ty is ExistsFO or ty is ForallFO:
        if ctx.n == 0:
            raise EmptyDomain("quantifier over the empty structure")
        want = ty is ExistsFO
        for v in range(ctx.n):
            env2 = dict(env)
            env2[f.var] = v
            if _eval(ctx, env2, f.body) == want:
                return want
        return not want
    if ty is ExistsSO:
        if ctx.n == 0:
            raise EmptyDomain("quantifier over the empty structure")
        for mask in range(1 << ctx.n):
            env2 = dict(env)
            env2[f.var] = frozenset((j,) for j in range(ctx.n) if (mask >> j) & 1)
            if _eval(ctx, env2, f.body):
                return True
        return False
    if ty is LindFO:
        spec, word = _lindfo_word(ctx, env, f)
        return language_member(spec, word)
    if ty is LindSO:
        spec, word = _lindso_word(ctx, env, f)
        return language_member(spec, word)
    raise InvariantViolation(f"not a formula: {f!r}")


def _eval_shuffle(ctx, env, f: ShuffleBit) -> bool:
    n = ctx.n
    k = f.width
    x = _term_value(ctx, env, f.point)
    sets = []
    for v in f.set_vars:
        try:
            sets.append(env[v])
        except KeyError:
            raise UnboundVariable(f"unbound relation variable {v!r}") from None
    if n == 1:
        return (x,) in sets[f.index]
    if f.direction == "to_interleaved":
        # sets follow the interleaved enumeration; recover the concatenated
        # reading of flat bit position index*n + x
        p = f.index * n + x
        return (p // k,) in sets[p % k]
    # to_concatenated: the inverse permutation
    p = x * k + f.index
    return (p % n,) in sets[p // n]


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
# A formula compiles once into closures fn(ctx, slots) -> bool. Every binder
# owns one index of the list `slots`, fixed at compile time; a free name gets
# an index that evaluate fills from the assignment or leaves _UNBOUND. So a
# binding is one list store instead of an environment copy, and an And/Or
# spine is one n-ary node. Atoms the slots cannot serve run the reference
# code on an environment of just the names they read.
#
# An existential whose body fixes its variable by a plus, times or = atom
# over values bound outside it is solved instead of looped over; see
# _Compiler.witness for when that agrees with the reference's loop.

# Compiled levels (And/Or spines count once). Deeper formulas are refused,
# so compiling and running stay within Python's default recursion limit.
MAX_NESTING = 300
_PLAN_CACHE_SIZE = 8
_FO, _SO, _FREE = "fo", "so", "free"
_UNBOUND = object()
# Atoms read straight from slots when all their names are bound; on bound
# positions none of them can raise. Other atoms, and these with a free name
# or a min, max or constant term, run the reference code.
_SLOT_ATOMS = (Eq, Lt, PlusAtom, TimesAtom, Letter, InRel)
_REFERENCE_ATOMS = (BitAtom, HighBit, SizeBit, LtLog, LtPowLog, SetTimes,
                    ShuffleBit)

# id(formula) -> (formula, (fn, slot count, ((free name, slot), ...))),
# oldest first
_plans: dict = {}


def _true(c, s):
    return True


def _false(c, s):
    return False


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


def _junction(parts, ty):
    """n-ary And or Or over compiled operands, left to right."""
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


def _reader(x):
    """Reader closure of a compiled term (a bound slot or a reader)."""
    if type(x) is int:
        return lambda c, s: s[x]
    return x


def _word(c, s, spec, args, slots, values):
    """Induced word: per tuple of values bound to slots, the letter of the
    first argument that holds, else the alphabet's last letter."""
    rules = tuple(zip(args, spec.alphabet))
    last = spec.alphabet[-1]
    out = []
    for vals in values:
        for i, v in zip(slots, vals):
            s[i] = v
        for arg, letter in rules:
            if arg(c, s):
                out.append(letter)
                break
        else:
            out.append(last)
    return "".join(out)


def _slot_atom(f, idx):
    """Closure of an atom whose relation and terms are the bound variables
    in slots idx (relation first)."""
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
    a, b, d = idx
    if ty is PlusAtom:
        return lambda c, s: s[a] + s[b] == s[d]
    return lambda c, s: s[a] * s[b] == s[d]


def _solver(op, reads):
    """Closure computing op over the read values; None when a free read
    holds no integer."""
    if all(type(r) is int for r in reads):
        if op is None:
            (i,) = reads
            return lambda c, s: s[i]
        i, j = reads
        return lambda c, s: op(s[i], s[j])
    if op is None:
        return _reader(reads[0])
    a, b = map(_reader, reads)

    def solve(c, s):
        x, y = a(c, s), b(c, s)
        if x is None or y is None:
            return None
        return op(x, y)
    return solve


def _cannot_raise(f, fo, so):
    """(ok, reads_letters). ok: f evaluates without raising on a nonempty
    structure with letters, names in fo bound to positions and names in so to
    relations. reads_letters: f has a Letter atom."""
    reads_letters = False
    stack = [(f, fo, so)]
    while stack:
        g, fo, so = stack.pop()
        ty = type(g)
        if ty in _SLOT_ATOMS:
            if ty is InRel and g.rel not in so:
                return False, False
            for t in terms(g):
                if not (type(t) in (Min, Max) or
                        (type(t) is Var and t.name in fo)):
                    return False, False
            reads_letters = reads_letters or ty is Letter
            continue
        if ty is ExistsFO or ty is ForallFO:
            fo, so = fo | {g.var}, so - {g.var}
        elif ty is ExistsSO:
            fo, so = fo - {g.var}, so | {g.var}
        elif ty not in (Not, And, Or, TrueF, FalseF):
            return False, False
        for sub in children(g):
            stack.append((sub, fo, so))
    return True, reads_letters


class _Compiler:
    def __init__(self):
        self.nslots = 0
        self.free = {}  # free name -> slot

    def new_slot(self) -> int:
        self.nslots += 1
        return self.nslots - 1

    def resolve(self, name, scope):
        """(slot, kind) of a name: its innermost binder, else a free slot."""
        hit = scope.get(name)
        if hit is not None:
            return hit
        if name not in self.free:
            self.free[name] = self.new_slot()
        return self.free[name], _FREE

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
            return self.fo_quantifier(f, scope, depth)
        if ty is ExistsSO:
            return self.so_exists(f, scope, depth)
        if ty is LindFO or ty is LindSO:
            return self.lindstrom(f, scope, depth)
        return self.atom(f, scope)

    def fo_quantifier(self, f, scope, depth):
        i = self.new_slot()
        body = self.compile(f.body, {**scope, f.var: (i, _FO)}, depth + 1)

        if type(f) is ForallFO:
            def forall(c, s):
                n = c.n
                if n == 0:
                    raise EmptyDomain("quantifier over the empty structure")
                for v in range(n):
                    s[i] = v
                    if not body(c, s):
                        return False
                return True
            return forall

        def exists(c, s):
            n = c.n
            if n == 0:
                raise EmptyDomain("quantifier over the empty structure")
            for v in range(n):
                s[i] = v
                if body(c, s):
                    return True
            return False

        found = self.witness(f, scope)
        if found is None:
            return exists
        solve, reads_letters = found

        def exists_solved(c, s):
            n = c.n
            if n == 0:
                raise EmptyDomain("quantifier over the empty structure")
            if reads_letters and c.letters is _NO_LETTERS:
                return exists(c, s)
            w = solve(c, s)
            if w is None:
                return exists(c, s)
            if 0 <= w < n:
                s[i] = w
                return body(c, s)
            return False
        return exists_solved

    def witness(self, f, scope):
        """(solver, reads_letters) for the first conjunct of the body of
        `exists v B` (f) that fixes v from values bound outside f, or None.

        The walk goes down B through And and nested exists. Each conjunct
        evaluated before the fixing atom must be unable to raise. Then the
        body is false, with no error, at every value of v but the solved
        one, which alone decides the reference's loop; a solved value outside
        the domain makes the quantifier false. reads_letters marks a Letter
        among those conjuncts: on a constant structure the loop runs instead.
        """
        v = f.var
        fo = {name for name, (_, kind) in scope.items() if kind == _FO}
        fo.add(v)
        so = {name for name, (_, kind) in scope.items() if kind == _SO} - fo
        reads_letters = False
        stack = [(f.body, frozenset())]  # (conjunct, names bound below f)
        while stack:
            g, inner = stack.pop()
            ty = type(g)
            if ty is And:
                stack.append((g.right, inner))
                stack.append((g.left, inner))
            elif ty is ExistsFO and g.var != v:
                stack.append((g.body, inner | {g.var}))
            else:
                solve = self.solver(g, v, scope, inner)
                if solve is not None:
                    return solve, reads_letters
                ok, letters = _cannot_raise(g, fo | inner, so - inner)
                if not ok:
                    return None
                reads_letters = reads_letters or letters
        return None

    def solver(self, g, v, scope, inner):
        """Closure computing v from the atom g, if g fixes it, else None."""
        ty = type(g)
        if ty is PlusAtom:
            forms = ((g.c, operator.add, g.a, g.b),
                     (g.a, operator.sub, g.c, g.b),
                     (g.b, operator.sub, g.c, g.a))
        elif ty is TimesAtom:
            forms = ((g.c, operator.mul, g.a, g.b),)
        elif ty is Eq:
            forms = ((g.left, None, g.right, None),
                     (g.right, None, g.left, None))
        else:
            return None
        target = Var(v)
        for t, op, p, q in forms:
            if t != target:
                continue
            reads = [self.source(x, v, scope, inner)
                     for x in ((p,) if op is None else (p, q))]
            if None in reads:
                return None
            return _solver(op, reads)
        return None

    def source(self, t, v, scope, inner):
        """Operand of a solved witness: a position bound outside the
        quantifier on v, as a slot or a reader (None for a free name that
        holds no integer); None if t is no such operand."""
        if type(t) is Min:
            return lambda c, s: 0
        if type(t) is Max:
            return lambda c, s: c.n - 1
        if type(t) is not Var or t.name == v or t.name in inner:
            return None
        i, kind = self.resolve(t.name, scope)
        if kind == _FO:
            return i
        if kind == _FREE:
            return lambda c, s: s[i] if type(s[i]) is int else None
        return None

    def so_exists(self, f, scope, depth):
        i = self.new_slot()
        body = self.compile(f.body, {**scope, f.var: (i, _SO)}, depth + 1)

        def exists_so(c, s):
            n = c.n
            if n == 0:
                raise EmptyDomain("quantifier over the empty structure")
            for mask in range(1 << n):
                s[i] = frozenset((j,) for j in range(n) if (mask >> j) & 1)
                if body(c, s):
                    return True
            return False
        return exists_so

    def lindstrom(self, f, scope, depth):
        kind = _SO if type(f) is LindSO else _FO
        inner = dict(scope)
        slots = []
        for name in f.vars:
            slots.append(self.new_slot())
            inner[name] = (slots[-1], kind)
        args = []
        for a in f.args:
            args.append(self.compile(a, inner, depth + 1))
        k = len(slots)

        if kind == _FO:
            def lindfo(c, s):
                spec = _node_spec(c, f)
                tuples = itertools.product(range(c.n), repeat=k)
                return language_member(spec, _word(c, s, spec, args, slots,
                                                   tuples))
            return lindfo

        def lindso(c, s):
            spec = _node_spec(c, f)
            bits = _instance_bits(c, f)
            n = c.n
            instances = (instance_unrank(rank, n, k, f.ordering, f.arity)
                         for rank in range(1 << bits))
            return language_member(spec, _word(c, s, spec, args, slots,
                                               instances))
        return lindso

    def atom(self, f, scope):
        ty = type(f)
        if ty is TrueF:
            return _true
        if ty is FalseF:
            return _false
        if ty in _SLOT_ATOMS:
            ts = terms(f)
            if all(type(t) is Var for t in ts):
                names = [f.rel] if ty is InRel else []
                hits = [scope.get(name)
                        for name in names + [t.name for t in ts]]
                if None not in hits:
                    return _slot_atom(f, [i for i, _ in hits])
            return self.by_reference(f, scope)
        if ty in _REFERENCE_ATOMS:
            return self.by_reference(f, scope)

        def not_a_formula(c, s):
            raise InvariantViolation(f"not a formula: {f!r}")
        return not_a_formula

    def by_reference(self, f, scope):
        fo, so = free_variables(f)
        reads = tuple((name, self.resolve(name, scope)[0]) for name in fo | so)

        def reference_atom(c, s):
            env = {}
            for name, i in reads:
                v = s[i]
                if v is not _UNBOUND:
                    env[name] = v
            return _eval(c, env, f)
        return reference_atom


def _plan(formula):
    """(fn, slot count, free names with their slots) of the compiled form
    of formula, memoised for the last few formulas."""
    hit = _plans.get(id(formula))
    if hit is not None and hit[0] is formula:
        return hit[1]
    comp = _Compiler()
    fn = comp.compile(formula, {}, 0)
    plan = fn, comp.nslots, tuple(comp.free.items())
    _plans[id(formula)] = (formula, plan)
    if len(_plans) > _PLAN_CACHE_SIZE:
        del _plans[next(iter(_plans))]
    return plan


def evaluate(struct, formula, assignment=None, *, registry=None,
             instance_cap=DEFAULT_INSTANCE_CAP) -> bool:
    """Tarskian truth of `formula` in `struct` under `assignment`.

    Runs the compiled form of the formula. It gives evaluate_reference's
    verdict, or raises the same error type, except on formulas nested
    deeper than MAX_NESTING levels, which raise NestingCapExceeded: here an
    And/Or chain counts as one level, there each And/Or counts.
    """
    fn, nslots, free = _plan(formula)
    slots = [_UNBOUND] * nslots
    if assignment:
        for name, i in free:
            slots[i] = assignment.get(name, _UNBOUND)
    return fn(_Ctx(struct, registry, instance_cap), slots)


def induced_word(struct, assignment, node, *, registry=None,
                 instance_cap=DEFAULT_INSTANCE_CAP) -> str:
    """The exact word a generalized quantifier node tests for membership."""
    check_nesting(node)
    ctx = _Ctx(struct, registry, instance_cap)
    env = dict(assignment or {})
    if isinstance(node, LindFO):
        _, word = _lindfo_word(ctx, env, node)
    elif isinstance(node, LindSO):
        _, word = _lindso_word(ctx, env, node)
    else:
        raise InvariantViolation("induced_word needs a generalized quantifier node")
    return word


def define_language(sentence, alphabet, max_n: int, *, registry=None,
                    instance_cap=DEFAULT_INSTANCE_CAP):
    """All nonempty strings of length <= max_n satisfying the sentence."""
    out = []
    for length in range(1, max_n + 1):
        for w in itertools.product(alphabet, repeat=length):
            struct = StringStructure(tuple(alphabet), w)
            if evaluate(struct, sentence, registry=registry,
                        instance_cap=instance_cap):
                out.append("".join(w))
    return out


# ---------------------------------------------------------------------------
# Traversal
#
# Two tables name, per node class, the fields that hold subformulas and the
# fields that hold terms; a field called args holds a tuple of them. Every
# walker and rewriter reads them, so a node class is described once.

SUBFORMULA_FIELDS = {
    Not: ("body",), And: ("left", "right"), Or: ("left", "right"),
    ExistsFO: ("body",), ForallFO: ("body",), ExistsSO: ("body",),
    LindFO: ("args",), LindSO: ("args",),
}
TERM_FIELDS = {
    Eq: ("left", "right"), Lt: ("left", "right"), Letter: ("term",),
    InRel: ("args",), PlusAtom: ("a", "b", "c"), TimesAtom: ("a", "b", "c"),
    BitAtom: ("a", "j"), HighBit: ("value", "pos"), SizeBit: ("pos",),
    LtLog: ("term",), LtPowLog: ("term",), ShuffleBit: ("point",),
}
# Formula classes with neither subformulas nor terms
LEAF_FORMULAS = (TrueF, FalseF, SetTimes)


def _accessors(cls, names):
    """(get, put) for the fields `names` of cls: get(node) is the tuple of
    their values, put(node, values) a copy of node holding values there."""
    spread = names == ("args",)
    if spread:
        get = operator.attrgetter("args")
    elif len(names) == 1:
        one = operator.attrgetter(names[0])

        def get(node):
            return (one(node),)
    else:
        get = operator.attrgetter(*names)
    keep = [f.name for f in fields(cls) if f.name not in names]

    def put(node, values):
        kw = {name: getattr(node, name) for name in keep}
        if spread:
            kw["args"] = tuple(values)
        else:
            kw.update(zip(names, values))
        return cls(**kw)
    return get, put


_SUBFORMULAS = {cls: _accessors(cls, names)
                for cls, names in SUBFORMULA_FIELDS.items()}
_TERMS = {cls: _accessors(cls, names) for cls, names in TERM_FIELDS.items()}


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


def walk_formulas(node):
    """Yield every subformula, root first, left to right."""
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


def check_nesting(f) -> None:
    """Raise NestingCapExceeded when a node of the formula tree lies more
    than MAX_NESTING levels below the root (every And/Or counts, unlike in
    compiled levels). Walks level by level without recursion, so it
    measures any depth; a formula it passes keeps the recursive walkers
    within Python's default recursion limit."""
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
    fo: set = set()
    so: set = set()
    none = frozenset()
    stack = [(f, none, none)]
    while stack:
        g, bound_fo, bound_so = stack.pop()
        ty = type(g)
        acc = _SUBFORMULAS.get(ty)
        if acc is not None:
            if ty is ExistsFO or ty is ForallFO:
                bound_fo = bound_fo | {g.var}
            elif ty is ExistsSO:
                bound_so = bound_so | {g.var}
            elif ty is LindFO:
                bound_fo = bound_fo.union(g.vars)
            elif ty is LindSO:
                bound_so = bound_so.union(g.vars)
            for sub in acc[0](g):
                stack.append((sub, bound_fo, bound_so))
            continue
        acc = _TERMS.get(ty)
        if acc is not None:
            for t in acc[0](g):
                if type(t) is Var and t.name not in bound_fo:
                    fo.add(t.name)
        if ty is InRel:
            rels = (g.rel,)
        elif ty is SetTimes:
            rels = (g.x, g.y, g.z)
        elif ty is ShuffleBit:
            rels = g.set_vars
        elif acc is not None or ty is TrueF or ty is FalseF:
            continue
        else:
            raise InvariantViolation(f"not a formula: {g!r}")
        for name in rels:
            if name not in bound_so:
                so.add(name)
    return fo, so


def eliminate_min_max(f, counter=None):
    """Replace min/max terms by quantified variables pinned by order atoms.

    Used by translations whose target domain moves the endpoints. Every
    min or max term draws a fresh name, and equal endpoints of one atom all
    take the first name drawn for them.
    """
    if counter is None:
        counter = itertools.count()

    def fn(node, rw):
        old = terms(node)
        new = {}
        wrappers = []
        for t in old:
            if type(t) is Min or type(t) is Max:
                which = "min" if type(t) is Min else "max"
                v = f"_{which}{next(counter)}"
                new.setdefault(t, Var(v))
                wrappers.append((v, which))
        if not wrappers:
            return None
        out = with_terms(node, [new.get(t, t) for t in old])
        for v, which in reversed(wrappers):
            if which == "max":
                pin = Not(ExistsFO(v + "u", Lt(Var(v), Var(v + "u"))))
            else:
                pin = Not(ExistsFO(v + "u", Lt(Var(v + "u"), Var(v))))
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
# monadic) or "outer" (an InRel reads only the outermost node's variables).

CONNECTIVES = (TrueF, FalseF, Not, And, Or)
ORDER_ATOMS = (Eq, Lt, Letter)
ARITH_ATOMS = (PlusAtom, TimesAtom, BitAtom, HighBit, SizeBit, LtLog,
               LtPowLog, SetTimes, ShuffleBit)
FO_BINDERS = (ExistsFO, ForallFO)

_QFREE = frozenset(CONNECTIVES + ORDER_ATOMS)
_FO = _QFREE.union(FO_BINDERS)
_FO_ARITH = _FO.union(ARITH_ATOMS) - {SetTimes}
_SO_ARGS = _FO | {LindFO, InRel}
_SO_ARGS_ARITH = _SO_ARGS.union(ARITH_ATOMS)
_SOM = _FO | {ExistsSO, InRel}
_SOMQ = _SOM | {LindSO}
_SOMQ_ARITH = _SOMQ.union(ARITH_ATOMS)

FRAGMENT_TABLE = {
    "FO": (None, _FO, None, None),
    "FO+arith": (None, _FO_ARITH, None, None),
    "qfree-no-arith": (None, _QFREE, None, None),
    "Q-qfree-no-arith": (LindFO, _QFREE, None, None),
    "QL-FO": (LindFO, _FO, None, None),
    "QL-FO+arith": (LindFO, _FO_ARITH, None, None),
    "FO(QL)": (None, _FO | {LindFO}, None, None),
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
    the fragment's row in FRAGMENT_TABLE refuses."""
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
        elif ty is InRel:
            if relations == "monadic" and len(node.args) != 1:
                return False, f"non-monadic relation atom on {node.rel!r}"
            if relations == "outer" and node.rel not in formula.vars:
                return False, f"relation atom on foreign variable {node.rel!r}"
    return True, "ok"
