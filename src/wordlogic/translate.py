"""Constructive formula translations, each with a semantic-equivalence check.

Every operation here rewrites formulas between fragments or signatures and
comes with an explicit structure mapper where the universe changes. The
`check_equivalence` validator exhaustively tests the contract on a finite
range of structures and assignments and packages the outcome in a
TranslationReport.
"""

from __future__ import annotations

import functools
import itertools
import math

from ._record import record
from .algebra import (TABLE_CAP, LanguageSpec, is_neutral_letter_bounded,
                      language_member)
from .errors import (
    FragmentViolation,
    InvariantViolation,
    NestedUnsupported,
    NoNeutralLetter,
    NonConstantSignature,
    NonMonadicNode,
    ExponentCapExceeded,
    UnknownLetter,
)
from .logic import (
    CONCATENATED,
    DEFAULT_INSTANCE_CAP,
    INTERLEAVED,
    And,
    BitAtom,
    ConstStructure,
    ConstSym,
    Eq,
    ExistsFO,
    ExistsSO,
    FalseF,
    ForallFO,
    Gensym,
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
    StringStructure,
    TimesAtom,
    TrueF,
    Var,
    all_names,
    children,
    eliminate_min_max,
    endpoint,
    evaluate,
    fragment_check,
    free_variables,
    iff,
    implies,
    instance_rank,
    rebuild,
    relation_names,
    resolve_language,
    rewrite,
    subsets,
    terms,
    walk_formulas,
    with_terms,
)
from .sexpr import format_formula, format_term

# ---------------------------------------------------------------------------
# Shared helpers

def _require_fragment(formula, name):
    ok, why = fragment_check(formula, name)
    if not ok:
        raise FragmentViolation(why)


def _relativize(g, rw, guard):
    """g, an exists or a forall, with its variable ranging over the
    positions where guard(variable name) holds; None for any other node."""
    if type(g) is ExistsFO:
        return ExistsFO(g.var, And(guard(g.var), rw(g.body)))
    if type(g) is ForallFO:
        return ForallFO(g.var, implies(guard(g.var), rw(g.body)))
    return None


def _as_numbers(formula, letter, bounded):
    """Monadic second-order formula to a first-order one over positions
    below log2 of the size, reading a set as the number whose bit x, most
    significant first, says whether x is in it; letter(atom) rewrites a
    letter atom. With bounded, every set is below 2^floor(log2 size)."""
    def sets(names, body):
        if not bounded:
            return body
        return And(functools.reduce(And, (LtPowLog(Var(v)) for v in names)),
                   body)

    def fn(g, rw):
        ty = type(g)
        if ty is Letter:
            return letter(g)
        if ty is InRel:
            return HighBit(Var(g.rel), g.args[0])
        if ty is ExistsSO:
            return ExistsFO(g.var, sets((g.var,), rw(g.body)))
        if ty is LindSO:
            return LindFO(g.lang, g.vars,
                          tuple(sets(g.vars, rw(a)) for a in g.args))
        return _relativize(g, rw, lambda v: LtLog(Var(v)))
    return rewrite(eliminate_min_max(formula), fn)


def _set_eq(gensym, ma, mb):
    """The sets whose membership formulas are ma and mb are equal."""
    z = gensym("z")
    return ForallFO(z, iff(ma(z), mb(z)))


def _set_lt(gensym, ma, mb):
    """The set ma codes a smaller number than mb (sets read most
    significant bit first)."""
    z, u = gensym("z"), gensym("u")
    return ExistsFO(z, And(Not(ma(z)), And(mb(z), ForallFO(
        u, implies(Lt(Var(u), Var(z)), iff(ma(u), mb(u)))))))


def _as_sets(formula, gensym, mem, atom, bound=None):
    """The reverse of `_as_numbers`: numbers read as sets, with mem(term,
    atom) a term's membership formula and atom(node) rewriting any other
    node. Each set satisfies bound(name), if given, drawn before the body."""
    def fn(g, rw):
        ty = type(g)
        if ty is Eq or ty is Lt:
            return (_set_eq if ty is Eq else _set_lt)(
                gensym, mem(g.left, g), mem(g.right, g))
        if ty not in (ExistsFO, ForallFO, LindFO):
            return atom(g)
        chi = bound and functools.reduce(
            And, map(bound, g.vars if ty is LindFO else (g.var,)))
        within = functools.partial(And, chi) if bound else (lambda b: b)
        if ty is ExistsFO:
            return ExistsSO(g.var, within(rw(g.body)))
        if ty is ForallFO:
            return Not(ExistsSO(g.var, within(Not(rw(g.body)))))
        return LindSO(g.lang, CONCATENATED, 1, g.vars,
                      tuple(within(rw(a)) for a in g.args))
    return rewrite(formula, fn)


# words up to this length are checked for the declared neutral letter
NEUTRAL_CHECK_LEN = 8


def _require_neutral_last(spec: LanguageSpec):
    """The language declares a neutral letter, as its last letter, and the
    letter passes the bounded neutrality check."""
    if spec.declared_neutral is None:
        raise NoNeutralLetter(f"{spec.name} has no declared neutral letter")
    if spec.declared_neutral != spec.alphabet[-1]:
        raise NoNeutralLetter(
            f"{spec.name}: neutral letter {spec.declared_neutral!r} must be "
            f"the last alphabet letter")
    # the longest length up to it whose words one letter longer, all
    # size^(length+1) of them, fit the table cap
    length = next((n for n in range(NEUTRAL_CHECK_LEN, 0, -1)
                   if spec.size ** (n + 1) <= TABLE_CAP), 0)
    if not is_neutral_letter_bounded(spec, spec.declared_neutral, length):
        raise NoNeutralLetter(
            f"{spec.name}: letter {spec.declared_neutral!r} fails the "
            f"bounded neutrality check")


# ---------------------------------------------------------------------------
# Ordering swap (interleaved <-> concatenated, monadic)

_INVERSE_DIR = {"to_interleaved": "to_concatenated",
                "to_concatenated": "to_interleaved"}


def _subst_rel_refs(g, bound, replace, permuted=None):
    """Rewrite the atoms that read the relation names in bound, which stop
    counting under a binder of the same name: InRel atoms become
    replace(atom), ShuffleBit atoms permuted(atom). A SetTimes atom on
    them, or a ShuffleBit atom when permuted is None, raises
    NestedUnsupported."""
    def fn(node, rw):
        names = bound.intersection(relation_names(node))
        if not names:
            return None
        if children(node):  # a binder of names
            return rebuild(node, tuple(
                _subst_rel_refs(a, bound - names, replace, permuted)
                for a in children(node)))
        if type(node) is InRel:
            return replace(node)
        if type(node) is SetTimes:
            raise NestedUnsupported(
                "bound variables feed a set-arithmetic atom")
        if permuted is None:
            raise NestedUnsupported("bound variables feed a permutation atom")
        return permuted(node)
    return rewrite(g, fn)


def _swap_node(node: LindSO, target_ordering):
    """node with the target ordering: references to its variables go
    through the code permutation atom, and an already-permuted reference
    in the opposite direction collapses back to a plain membership atom."""
    if node.arity != 1:
        raise NonMonadicNode(
            "ordering swap is defined for monadic quantifiers only")
    k = len(node.vars)
    direction = ("to_interleaved" if target_ordering == INTERLEAVED
                 else "to_concatenated")

    def replace(g):
        if len(g.args) != 1:
            raise NonMonadicNode(
                f"relation {g.rel!r} used with arity {len(g.args)}")
        return ShuffleBit(direction, node.vars.index(g.rel), k, g.args[0],
                          node.vars)

    def permuted(g):
        if (g.set_vars == node.vars and g.width == k
                and g.direction == _INVERSE_DIR[direction]):
            return InRel(node.vars[g.index], (g.point,))
        raise NestedUnsupported(
            "bound variables feed an incompatible permutation atom")

    bound = set(node.vars)
    args = tuple(_subst_rel_refs(a, bound, replace, permuted)
                 for a in node.args)
    return LindSO(node.lang, target_ordering, node.arity, node.vars, args)


def _swap_orderings(formula, source, target):
    def fn(g, rw):
        if type(g) is LindSO and g.ordering == source:
            return _swap_node(rebuild(g, tuple(map(rw, g.args))), target)
        return None
    return rewrite(formula, fn)


def q_star_to_q1(formula):
    """Rewrite every concatenated-ordering quantifier node to interleaved."""
    return _swap_orderings(formula, CONCATENATED, INTERLEAVED)


def q1_to_q_star(formula):
    """Rewrite every interleaved-ordering quantifier node to concatenated."""
    return _swap_orderings(formula, INTERLEAVED, CONCATENATED)


# ---------------------------------------------------------------------------
# Arity collapse

def arity_collapse(formula, registry):
    """Collapse a single outer concatenated quantifier binding k m-ary
    variables into one binding a single higher-arity variable.

    Index tags become binary prefixes over the elements 0 and 1; ill-formed
    code relations make every argument false, so the language's neutral
    letter (required to be last) absorbs them. Valid on domains of size 2
    and up.
    """
    if not (isinstance(formula, LindSO) and formula.ordering == CONCATENATED):
        raise FragmentViolation(
            "expected a single outer concatenated-ordering quantifier node")
    spec = resolve_language(registry, formula.lang)
    _require_neutral_last(spec)
    k = len(formula.vars)
    m = formula.arity
    tag_bits = max(1, math.ceil(math.log2(k))) if k > 1 else 1
    gensym = Gensym(all_names(formula))
    rel = gensym("R")
    z0, z1 = gensym("z"), gensym("z")

    def tag_terms(i):
        return tuple(Var(z1) if (i >> (tag_bits - 1 - b)) & 1 else Var(z0)
                     for b in range(tag_bits))

    u = gensym("u")
    is_zero = endpoint(Var(z0), u, False)
    is_one = And(Lt(Var(z0), Var(z1)),
                 Not(ExistsFO(u, And(Lt(Var(z0), Var(u)),
                                     Lt(Var(u), Var(z1))))))
    wvars = tuple(gensym("w") for _ in range(tag_bits + m))
    tag_match = functools.reduce(Or, (
        functools.reduce(And, (Eq(Var(w), t)
                               for w, t in zip(wvars, tag_terms(i))))
        for i in range(k)))
    well_formed = implies(InRel(rel, tuple(Var(w) for w in wvars)), tag_match)
    for w in reversed(wvars):
        well_formed = ForallFO(w, well_formed)

    def replace(g):
        if len(g.args) != m:
            raise InvariantViolation(
                f"relation {g.rel!r} used with arity {len(g.args)}, "
                f"expected {m}")
        return InRel(rel, tag_terms(formula.vars.index(g.rel)) + tuple(g.args))

    new_args = []
    for a in formula.args:
        body = And(well_formed, _subst_rel_refs(a, set(formula.vars), replace))
        wrapped = ExistsFO(z0, And(is_zero, ExistsFO(z1, And(is_one, body))))
        new_args.append(wrapped)
    return LindSO(formula.lang, CONCATENATED, m + tag_bits, (rel,),
                  tuple(new_args))


# ---------------------------------------------------------------------------
# Padding translation

PAD_LETTER = "#"


def pad_string(w: str, k: int, pad: str) -> str:
    return w + pad * (len(w) ** k - len(w))


def _horner(gensym, mp, digits, tail, bases):
    """Exists-chain reading the terms digits, most significant first, as a
    number in base mp+1; tail sees the term holding it. Each step names
    acc*mp, acc*(mp+1) and that plus the next digit after bases."""
    acc, steps = digits[0], []
    for d in digits[1:]:
        p, s, nxt = map(gensym, bases)
        steps.append((p, s, nxt, And(TimesAtom(acc, Var(mp), Var(p)),
                                     And(PlusAtom(Var(p), acc, Var(s)),
                                         PlusAtom(Var(s), d, Var(nxt))))))
        acc = Var(nxt)
    out = tail(acc)
    for p, s, nxt, step in reversed(steps):
        out = ExistsFO(p, ExistsFO(s, ExistsFO(nxt, And(step, out))))
    return out


def pad_translate(formula, alphabet):
    """Turn a sentence with one outer concatenated quantifier over k-ary
    relations into one over unary relations on the universe padded with
    `PAD_LETTER` to n^k positions.

    Returns (translated sentence, shape sentence chi, structure mapper);
    the translated sentence already conjoins chi.
    """
    _require_fragment(formula, "Qstar-FO")
    if PAD_LETTER in alphabet:
        raise InvariantViolation("pad letter must be outside the base alphabet")
    padded_alphabet = tuple(alphabet) + (PAD_LETTER,)
    k = formula.arity
    src = eliminate_min_max(formula)
    gensym = Gensym(all_names(src))
    mp = gensym("mp")

    def last_nonpad(v):
        u = gensym("u")
        return And(Not(Letter(PAD_LETTER, Var(v))),
                   Not(ExistsFO(u, And(Lt(Var(v), Var(u)),
                                       Not(Letter(PAD_LETTER, Var(u)))))))

    def le_mp(x):
        return Or(Lt(Var(x), Var(mp)), Eq(Var(x), Var(mp)))

    def fn(g, rw):
        ty = type(g)
        if ty is InRel and g.rel in src.vars:
            # (t1 .. tk) is position t1..tk in base mp+1
            return _horner(gensym, mp, g.args, lambda t: InRel(g.rel, (t,)),
                           "qrs")
        if ty is LindFO:
            raise FragmentViolation(
                "padding does not translate a nested generalized quantifier")
        return _relativize(g, rw, le_mp)

    new_node = LindSO(src.lang, CONCATENATED, 1, src.vars,
                      tuple(rewrite(a, fn) for a in src.args))
    phi_star = ExistsFO(mp, And(last_nonpad(mp), new_node))

    # chi: pads form a suffix and the length is (last nonpad + 1)^k
    up, vp = gensym("u"), gensym("v")
    suffix = ForallFO(up, ForallFO(vp, implies(
        And(Letter(PAD_LETTER, Var(up)), Lt(Var(up), Var(vp))),
        Letter(PAD_LETTER, Var(vp)))))
    mp2 = gensym("mp")
    # (mp+1)^k - 1 is the k-digit number whose digits are all mp
    size = ExistsFO(mp2, And(last_nonpad(mp2), _horner(
        gensym, mp2, (Var(mp2),) * k,
        lambda t: endpoint(t, gensym("u"), True), "trc")))
    chi = And(suffix, size)

    def mapper(st: StringStructure) -> StringStructure:
        n = st.size
        return StringStructure(padded_alphabet,
                               st.letters + (PAD_LETTER,) * (n ** k - n))

    return And(phi_star, chi), chi, mapper


# ---------------------------------------------------------------------------
# Tally languages

def tally_member(spec: LanguageSpec, n: int) -> bool:
    """1^n lies in the tally language of spec: the binary expansion of n
    is 1w for some nonempty w in the language."""
    if n < 2:
        return False
    return language_member(spec, format(n, "b")[1:])


# ---------------------------------------------------------------------------
# Tally translations (binary strings <-> unary strings with arithmetic)

def tally_translate_fwd(formula, registry):
    """Monadic second-order sentence over binary strings to a first-order
    arithmetic sentence over unary strings: the word becomes the low bits
    of the domain size, sets become integers read bitwise."""
    _require_fragment(formula, "SOM(Qstar)")
    for sub in walk_formulas(formula):
        if isinstance(sub, LindSO):
            _require_neutral_last(resolve_language(registry, sub.lang))
        if isinstance(sub, Letter) and sub.letter not in ("1", "0"):
            raise FragmentViolation(
                f"letter {sub.letter!r} outside the binary alphabet")

    def bit(g):
        return SizeBit(g.term) if g.letter == "1" else Not(SizeBit(g.term))

    def mapper(st: StringStructure) -> StringStructure:
        for a in st.letters:
            if a not in ("1", "0"):
                raise UnknownLetter(
                    f"letter {a!r} outside the binary alphabet (1, 0)")
        n = int("1" + st.word, 2)
        return StringStructure(("1",), ("1",) * n)

    # a size N holds more numbers than the sets of floor(log2 N) positions
    return _as_numbers(formula, bit, True), mapper


def tally_translate_bwd(formula, registry):
    """First-order arithmetic sentence over unary strings to a monadic
    second-order sentence over the binary expansion of the size."""
    _require_fragment(formula, "FO(QL)+arith")
    for sub in walk_formulas(formula):
        if isinstance(sub, (BitAtom, HighBit, SizeBit, LtLog, LtPowLog)):
            raise FragmentViolation(
                f"{format_formula(sub)} has no counterpart here")
        if isinstance(sub, LindFO):
            _require_neutral_last(resolve_language(registry, sub.lang))
        if isinstance(sub, Letter) and sub.letter != "1":
            raise FragmentViolation(
                f"letter {sub.letter!r} outside the unary alphabet")
    src = eliminate_min_max(formula)
    gensym = Gensym(all_names(src))

    def vname(t, g):
        if type(t) is not Var:
            raise FragmentViolation(f"unsupported term {format_term(t)} in "
                                    f"{format_formula(g)}")
        return t.name

    def mem(name):
        return lambda z: InRel(name, (Var(z),))

    def delta(name):
        # the code of a bound set must stay below the structure's size,
        # whose code is exactly the set of 1-positions
        return _set_lt(gensym, mem(name), lambda z: Letter("1", Var(z)))

    def xor(a, b):
        return Not(iff(a, b))

    def set_plus(xn, yn, zn):
        p, q, r = gensym("p"), gensym("q"), gensym("r")
        x, y, z = mem(xn), mem(yn), mem(zn)

        def carry_into(pos_strict):
            inner = ForallFO(r, implies(
                And(pos_strict(Var(r)), Lt(Var(r), Var(q))),
                Or(x(r), y(r))))
            return ExistsFO(q, And(pos_strict(Var(q)),
                                   And(x(q), And(y(q), inner))))

        bit_ok = ForallFO(p, iff(z(p), xor(xor(x(p), y(p)),
                                           carry_into(lambda t: Lt(Var(p), t)))))
        no_overflow = Not(carry_into(lambda t: TrueF()))
        return And(bit_ok, no_overflow)

    def atom(g):
        ty = type(g)
        if ty is Letter:
            return TrueF()
        if ty is PlusAtom:
            return set_plus(vname(g.a, g), vname(g.b, g), vname(g.c, g))
        if ty is TimesAtom:
            return SetTimes(vname(g.a, g), vname(g.b, g), vname(g.c, g))

    def mapper(st: StringStructure) -> StringStructure:
        return StringStructure(("1", "0"), tuple(format(st.size, "b")))

    return _as_sets(src, gensym, lambda t, g: mem(vname(t, g)), atom,
                    delta), mapper


# ---------------------------------------------------------------------------
# Constant signatures as strings

def subset_letter(mask: int) -> str:
    return f"s{mask}"


def subset_alphabet(s: int):
    return tuple(subset_letter(mask) for mask in range(1 << s))


def const_string(struct: ConstStructure, const_names) -> StringStructure:
    names = tuple(const_names)
    letters = []
    for b in range(struct.size):
        mask = 0
        for i, c in enumerate(names):
            if struct.const(c) == b:
                mask |= 1 << i
        letters.append(subset_letter(mask))
    return StringStructure(subset_alphabet(len(names)), tuple(letters))


def _const_index(const_names) -> dict:
    """Each constant name to its bit in a subset letter, in order; an empty
    or repeated name is refused."""
    index = {}
    for c in const_names:
        if not c:
            raise InvariantViolation("empty constant name")
        if c in index:
            raise InvariantViolation(f"duplicate constant name {c!r}")
        index[c] = len(index)
    return index


def const_rewrite(formula, const_names):
    """Formula over a pure constant signature to one over strings whose
    letters name the subset of constants sitting at each position.

    Returns (formula, mapper)."""
    index = _const_index(const_names)
    names = tuple(index)
    for sub in walk_formulas(formula):
        if isinstance(sub, Letter):
            raise NonConstantSignature("letter atoms in a constant signature")
        for t in terms(sub):
            if type(t) is ConstSym and t.name not in index:
                raise NonConstantSignature(f"unknown constant {t.name!r}")
    gensym = Gensym(all_names(formula))

    def holds_at(cname, y):
        i = index[cname]
        return functools.reduce(Or, (Letter(subset_letter(mask), Var(y))
                                     for mask in range(1 << len(names))
                                     if (mask >> i) & 1))

    def fn(g, rw):
        old = terms(g)
        fresh = {t: gensym("y") for t in dict.fromkeys(old)
                 if type(t) is ConstSym}
        if not fresh:
            return None
        out = with_terms(g, [Var(fresh[t]) if t in fresh else t for t in old])
        for t, y in reversed(fresh.items()):
            out = ExistsFO(y, And(holds_at(t.name, y), out))
        return out

    return rewrite(formula, fn), lambda st: const_string(st, names)


def const_unrewrite(formula, const_names):
    """Inverse direction: subset-letter atoms back to constant equalities."""
    index = _const_index(const_names)
    limit = 1 << len(index)

    def fn(g, rw):
        if type(g) is Letter:
            # must equal subset_letter(mask), as int() also reads '01'
            digits = g.letter[1:]
            mask = (int(digits) if digits.isdecimal()
                    and len(digits) <= len(str(limit)) else limit)
            if mask >= limit or g.letter != subset_letter(mask):
                raise NonConstantSignature(
                    f"letter {g.letter!r} is not a subset letter s0 .. s{limit - 1}")
            atoms = [Eq(ConstSym(c), g.term) if (mask >> i) & 1
                     else Not(Eq(ConstSym(c), g.term))
                     for c, i in index.items()]
            return functools.reduce(And, atoms) if atoms else TrueF()
        return None

    return rewrite(formula, fn)


# ---------------------------------------------------------------------------
# Exponential-universe translation

# the longest string exp_structure turns into a 2^n-element structure
EXP_CAP = 5


def const_name_for(letter: str) -> str:
    return f"c_{letter}"


def exp_structure(st: StringStructure) -> ConstStructure:
    """String of length n as a constant structure on 2^n elements: each
    letter's position set becomes an integer read most significant first."""
    n = st.size
    if n > EXP_CAP:
        raise ExponentCapExceeded(
            f"universe 2^{n} exceeds the exponent cap {EXP_CAP}", required=n)
    return ConstStructure.of(1 << n, {
        const_name_for(a): instance_rank(
            ({(j,) for j, x in enumerate(st.letters) if x == a},),
            n, CONCATENATED)
        for a in st.alphabet})


def exp_translate(formula, alphabet):
    """Monadic second-order sentence over strings to a first-order
    arithmetic sentence over the exponential constant structure."""
    _require_fragment(formula, "SOM(Qstar)")
    alphabet = tuple(alphabet)
    for sub in walk_formulas(formula):
        if isinstance(sub, Letter) and sub.letter not in alphabet:
            raise FragmentViolation(
                f"letter {sub.letter!r} outside the alphabet {alphabet}")
    # 2^n elements hold exactly the numbers of n bits: no set needs a bound
    return _as_numbers(formula, lambda g: HighBit(
        ConstSym(const_name_for(g.letter)), g.term), False), exp_structure


def exp_translate_rev(formula, alphabet):
    """First-order arithmetic-free sentence over the exponential constant
    structure back to a monadic second-order sentence over strings."""
    okq, _ = fragment_check(formula, "Q-qfree-no-arith")
    okf, _ = fragment_check(formula, "qfree-no-arith")
    if not (okq or okf):
        raise FragmentViolation(
            "expected a quantifier-free formula, optionally under one outer "
            "generalized quantifier, without arithmetic")
    alphabet = tuple(alphabet)
    letter_of = {const_name_for(a): a for a in alphabet}
    gensym = Gensym(all_names(formula))

    def mem(t, g):
        ty = type(t)
        if ty is Min:
            return lambda z: FalseF()
        if ty is Max:
            return lambda z: TrueF()
        if ty is ConstSym:
            if t.name not in letter_of:
                raise FragmentViolation(f"unknown constant {t.name!r}")
            return lambda z: Letter(letter_of[t.name], Var(z))
        return lambda z: InRel(t.name, (Var(z),))

    def atom(g):
        if type(g) not in (Not, And, Or, TrueF, FalseF):
            raise FragmentViolation(f"unsupported construct {format_formula(g)}")

    return _as_sets(formula, gensym, mem, atom)


# ---------------------------------------------------------------------------
# Equivalence validation

@record(frozen=True)
class TranslationReport:
    source: object
    target: object
    mapper_desc: str
    max_n: int
    verdict: str  # 'equivalent-on-range' | 'counterexample'
    counterexample: tuple | None = None  # (structure repr, assignment repr)
    notes: tuple = ()

    def verdict_line(self) -> str:
        if self.verdict == "equivalent-on-range":
            return "verdict: equivalent"
        st, asg = self.counterexample
        return f"verdict: counterexample {st} {asg}"

    def render(self) -> str:
        lines = [
            f"source: {format_formula(self.source)}",
            f"target: {format_formula(self.target)}",
            f"mapper: {self.mapper_desc}",
            f"range: n <= {self.max_n}",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(self.verdict_line())
        return "\n".join(lines)


def const_structures(const_names, max_n: int):
    names = tuple(const_names)
    for n in range(1, max_n + 1):
        for vals in itertools.product(range(n), repeat=len(names)):
            yield ConstStructure.of(n, dict(zip(names, vals)))


def _assignments(fo_vars, so_vars, n):
    names = sorted(fo_vars) + sorted(so_vars)
    space = [range(n)] * len(fo_vars) + [tuple(subsets(n))] * len(so_vars)
    for values in itertools.product(*space):
        yield dict(zip(names, values))


def _fmt_assignment(env):
    if not env:
        return "{}"
    parts = []
    for k in sorted(env):
        v = env[k]
        if isinstance(v, frozenset):
            v = "{" + ",".join(str(t[0]) for t in sorted(v)) + "}"
        parts.append(f"{k}={v}")
    return "{" + ",".join(parts) + "}"


def check_equivalence(source, target, structures, *, registry=None,
                      mapper=None, mapper_desc="identity",
                      instance_cap=DEFAULT_INSTANCE_CAP, notes=()):
    """Exhaustively compare truth of source and target over the structures.

    With a mapper, both formulas must be sentences: source is evaluated on
    each structure, target on its image. Without one, open formulas are
    compared pointwise over all assignments to their free variables
    (second-order variables monadic)."""
    fo_s, so_s = free_variables(source)
    fo_t, so_t = free_variables(target)
    open_vars = fo_s | fo_t, so_s | so_t
    if mapper is not None and (open_vars[0] or open_vars[1]):
        raise InvariantViolation(
            "mapped equivalence checks require closed formulas")
    max_n = 0
    for st in structures:
        max_n = max(max_n, st.size)
        tgt = mapper(st) if mapper is not None else st
        if mapper is None and (open_vars[0] or open_vars[1]):
            envs = _assignments(open_vars[0], open_vars[1], st.size)
        else:
            envs = [{}]
        for env in envs:
            a = evaluate(st, source, env, registry=registry,
                         instance_cap=instance_cap)
            b = evaluate(tgt, target, env, registry=registry,
                         instance_cap=instance_cap)
            if a != b:
                return TranslationReport(
                    source, target, mapper_desc, max_n, "counterexample",
                    (str(st), _fmt_assignment(env)), tuple(notes))
    return TranslationReport(source, target, mapper_desc, max_n,
                             "equivalent-on-range", None, tuple(notes))
