"""Finite magmas, word problems, and their language carriers.

A language used by a generalized quantifier is carried by one of three
bodies: a DFA, a CNF grammar, or a word problem over a finite
multiplication table. `LanguageSpec` wraps a body together with an ordered
alphabet, and `language_member` dispatches membership to the right
algorithm.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, reduce
from operator import and_, lshift, not_, or_, rshift

from ._record import record
from .errors import (
    EmptyWord,
    CapExceeded,
    InvariantViolation,
    LetterOutOfAlphabet,
    NotAssociative,
    NotCnf,
    UnknownLanguage,
)

BRACKETING_CAP = 12
# A language's membership cache is cleared once it holds more words than
# this, and before its words would hold more characters than this
MEMBER_CACHE_WORDS = 4096
MEMBER_CACHE_CHARS = 1 << 18
# largest number of words of one length a bounded property check tabulates
TABLE_CAP = 1 << 20


@record(frozen=True)
class Magma:
    """Finite multiplication table with an identity element.

    `table[x][y]` is the index of x*y (row operand on the left).
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    name: str = ""

    def __post_init__(self):
        g = len(self.elements)
        if len(set(self.elements)) != g or g == 0:
            raise InvariantViolation(f"magma {self.name!r}: element names not distinct")
        if len(self.table) != g or any(len(row) != g for row in self.table):
            raise InvariantViolation(f"magma {self.name!r}: table is not {g}x{g}")
        for row in self.table:
            for v in row:
                if not 0 <= v < g:
                    raise InvariantViolation(
                        f"magma {self.name!r}: table entry {v} out of range"
                    )
        e = self.identity
        if not 0 <= e < g:
            raise InvariantViolation(f"magma {self.name!r}: identity index out of range")
        for x in range(g):
            if self.table[e][x] != x or self.table[x][e] != x:
                raise InvariantViolation(
                    f"magma {self.name!r}: identity law fails at {self.elements[x]}"
                )

    @property
    def size(self):
        return len(self.elements)

    @cached_property
    def _rows(self) -> tuple:
        """The table's rows as maps from an element's index to the product,
        so that a fold refuses any other letter."""
        return tuple(dict(enumerate(row)) for row in self.table)

    @cached_property
    def _rules(self) -> list:
        """The table as binary rules `x*y -> x y`."""
        g = range(len(self.elements))
        return [(self.table[x][y], x, y) for x in g for y in g]

    @cached_property
    def _layout(self) -> "_RuleLayout":
        return _RuleLayout(self._rules, [(x, x) for x in range(self.size)])


def check_associative(m: Magma) -> bool:
    """Exhaustive O(g^3) associativity test."""
    t = m.table
    rng = range(m.size)
    return all(
        t[t[x][y]][z] == t[x][t[y][z]] for x in rng for y in rng for z in rng
    )


@record(frozen=True)
class WordProblem:
    """Accepting subset of a magma, defining the language W(accept, magma)."""

    magma: Magma
    accept: frozenset[int]

    def __post_init__(self):
        if any(not 0 <= x < self.magma.size for x in self.accept):
            raise InvariantViolation("accept set contains out-of-range elements")

    @cached_property
    def associative(self) -> bool:
        return check_associative(self.magma)

    @classmethod
    def of(cls, magma: Magma, accept) -> "WordProblem":
        return cls(magma, frozenset(accept))


def monoid_word_eval(wp: WordProblem, word) -> int:
    """Left fold of the table over `word`, starting at the identity."""
    if not wp.associative:
        raise NotAssociative("monoid_word_eval needs an associative word problem")
    m = wp.magma
    return _run(m._rows, m.identity, word, lambda x: _outside(m, x))


def _run(rows, start, word, outside):
    """Left fold of `word` from `start`, where `rows[s][a]` is the successor
    of s under letter a; a letter no row maps raises LetterOutOfAlphabet
    with the message `outside(letter)`."""
    state = start
    for a in word:
        try:
            state = rows[state][a]
        except (KeyError, TypeError):
            raise LetterOutOfAlphabet(outside(a)) from None
    return state


def _outside(m: Magma, x) -> str:
    return (f"element index {x!r} not in magma {m.name!r} of "
            f"{len(m.elements)} elements")


def groupoid_reachable(m: Magma, word) -> frozenset[int]:
    """All elements some bracketing of `word` multiplies out to.

    Runs the bit-parallel interval DP (`_derive_top`) over the rules
    `x*y -> x y` of the table.
    """
    word = tuple(word)
    outside = set(word) - set(range(m.size))
    if outside:
        raise LetterOutOfAlphabet(_outside(m, outside.pop()))
    if not word:
        raise EmptyWord("groupoid_reachable needs a nonempty word")
    return frozenset(_bits(_derives(m._layout, word)))


def groupoid_reachable_reference(m: Magma, word) -> frozenset[int]:
    """Oracle for `groupoid_reachable`: interval DP over subword spans with
    one element bitmask per span."""
    word = tuple(word)
    if not word:
        raise EmptyWord("groupoid_reachable needs a nonempty word")
    n = len(word)
    table = m.table
    # reach[i][j] = bitmask of elements reachable from word[i..j] inclusive
    reach = [[0] * n for _ in range(n)]
    for i, x in enumerate(word):
        reach[i][i] = 1 << x
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            acc = 0
            for k in range(i, j):
                left = reach[i][k]
                right = reach[k + 1][j]
                for x in _bits(left):
                    row = table[x]
                    for y in _bits(right):
                        acc |= 1 << row[y]
            reach[i][j] = acc
    return frozenset(_bits(reach[0][n - 1]))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_force_bracketings(m: Magma, word) -> frozenset[int]:
    """Independent oracle: evaluate every full binary bracketing of `word`."""
    word = tuple(word)
    if not word:
        raise EmptyWord("brute_force_bracketings needs a nonempty word")
    if len(word) > BRACKETING_CAP:
        raise CapExceeded(f"word length {len(word)} exceeds bracketing cap "
                          f"{BRACKETING_CAP}", required=len(word))
    table = m.table

    def values(lo: int, hi: int):
        if hi - lo == 1:
            yield word[lo]
            return
        for mid in range(lo + 1, hi):
            for lv in values(lo, mid):
                row = table[lv]
                for rv in values(mid, hi):
                    yield row[rv]

    return frozenset(values(0, len(word)))


def word_problem_member(wp: WordProblem, word) -> bool:
    word = tuple(word)
    if not word:
        return wp.magma.identity in wp.accept
    if wp.associative:
        return monoid_word_eval(wp, word) in wp.accept
    return bool(groupoid_reachable(wp.magma, word) & wp.accept)


# ---------------------------------------------------------------------------
# DFAs and CNF grammars


@record(frozen=True)
class Dfa:
    """Total deterministic automaton; `trans[q][a]` is the successor state."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    trans: tuple[tuple[int, ...], ...]
    start: int
    finals: frozenset[int]

    def __post_init__(self):
        q = len(self.states)
        if len(self.trans) != q or any(len(row) != len(self.alphabet) for row in self.trans):
            raise InvariantViolation("DFA transition table is not total")
        if any(not 0 <= t < q for row in self.trans for t in row):
            raise InvariantViolation("DFA transition target out of range")
        if not 0 <= self.start < q:
            raise InvariantViolation("DFA start state out of range")
        if any(not 0 <= f < q for f in self.finals):
            raise InvariantViolation("DFA final state out of range")

    @cached_property
    def _rows(self) -> tuple:
        """Per state, a map from each letter to the successor."""
        return tuple(dict(zip(self.alphabet, row)) for row in self.trans)

    @cached_property
    def letter_maps(self) -> dict:
        """Per letter, its state map: `letter_maps[a][s]` is the successor
        of state s under a."""
        return {a: tuple(row[a] for row in self._rows) for a in self.alphabet}

    def run(self, word) -> bool:
        return _run(self._rows, self.start, word, lambda a: (
            f"letter {a!r} not in the DFA's alphabet")) in self.finals


@record(frozen=True)
class Cfg:
    """Chomsky-normal-form grammar.

    `binary` holds productions A -> B C as index triples; `lexical` holds
    A -> a pairs. Membership of the empty word is carried by the flag, never
    by a production.
    """

    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    binary: tuple[tuple[int, int, int], ...]
    lexical: tuple[tuple[int, str], ...]
    start: int
    epsilon_in_language: bool = False

    def __post_init__(self):
        nn = len(self.nonterminals)
        for a, b, c in self.binary:
            if not (0 <= a < nn and 0 <= b < nn and 0 <= c < nn):
                raise NotCnf("binary production index out of range")
        for a, t in self.lexical:
            if not 0 <= a < nn:
                raise NotCnf("lexical production index out of range")
            if t not in self.terminals:
                raise NotCnf(f"lexical production uses unknown terminal {t!r}")
        if not 0 <= self.start < nn:
            raise InvariantViolation("grammar start symbol out of range")

    @classmethod
    def from_rules(cls, nonterminals, terminals, rules, start, epsilon_in_language=False):
        """Build from (lhs, rhs) pairs; rhs is a terminal string or a NT pair."""
        nts = tuple(nonterminals)
        idx = {a: i for i, a in enumerate(nts)}
        binary = []
        lexical = []
        for lhs, rhs in rules:
            if isinstance(rhs, str):
                lexical.append((idx[lhs], rhs))
            elif len(rhs) == 2:
                binary.append((idx[lhs], idx[rhs[0]], idx[rhs[1]]))
            else:
                raise NotCnf(f"production {lhs} -> {rhs!r} is not CNF")
        return cls(nts, tuple(terminals), tuple(binary), tuple(lexical),
                   idx[start], epsilon_in_language)

    @cached_property
    def _layout(self) -> "_RuleLayout":
        return _RuleLayout(self.binary, self.lexical)


def cyk_member(g: Cfg, word) -> bool:
    """CNF membership by the bit-parallel interval DP (`_derive_top`)."""
    word = tuple(word)
    if not word:
        return g.epsilon_in_language
    return bool(_derives(g._layout, word) >> g.start & 1)


def cyk_member_reference(g: Cfg, word) -> bool:
    """Oracle for `cyk_member`: CNF interval dynamic programming, one bitmask
    of start positions per nonterminal and span length."""
    word = tuple(word)
    n = len(word)
    if n == 0:
        return g.epsilon_in_language
    nn = len(g.nonterminals)
    lex = {}
    for a, t in g.lexical:
        lex.setdefault(t, []).append(a)
    row1 = [0] * nn
    for i, t in enumerate(word):
        for a in lex.get(t, ()):
            row1[a] |= 1 << i
    rows = [None, row1]
    for span in range(2, n + 1):
        row = [0] * nn
        for l1 in range(1, span):
            left = rows[l1]
            right = rows[span - l1]
            for a, b, c in g.binary:
                row[a] |= left[b] & (right[c] >> l1)
        rows.append(row)
    return bool(rows[n][g.start] & 1)


# ---------------------------------------------------------------------------
# Bit-parallel interval DP shared by CYK and groupoid membership


class _RuleLayout:
    """Bit layout of binary rules `lhs -> left right` for `_derive_top`.

    Word position i owns the bit group [i*width, (i+1)*width). Each
    distinct operand pair (left, right) has one slot in every group, and
    the top slot is a spare that takes carries. `slots[a]` holds the pairs
    of a's rules; `lex` maps a letter to the left-operand slots,
    right-operand slots and symbol set it derives.

    A pair is long when both operands head binary rules, so both can
    derive words of two or more letters; otherwise it is short, and one
    operand derives single letters only. The `long` long pairs take the
    lowest slots, `lanes = width // max(long, 1)` copies of them (empty
    if long = 0) fit in a group, and with one lane `_derive_top` runs none.
    A run of lanes reads the left parts of `run_from` .. l-2 letters of
    span l, which is none when long = 0.
    """

    def __init__(self, rules, lexical):
        heads = {a for a, b, c in rules}
        pairs = dict.fromkeys((b, c) for a, b, c in rules)
        longs = [p for p in pairs if p[0] in heads and p[1] in heads]
        order = dict.fromkeys(longs + [*pairs])
        pair_slot = {p: s for s, p in enumerate(order)}
        left, right, self.slots = {}, {}, {}
        for a, b, c in rules:
            s = pair_slot[b, c]
            left[b] = left.get(b, 0) | 1 << s
            right[c] = right.get(c, 0) | 1 << s
            self.slots[a] = self.slots.get(a, 0) | 1 << s
        self.width = len(pair_slot) + 1
        self.long = len(longs)
        self.lanes = self.width // max(self.long, 1)
        # times a group's long slots: a copy of them in every lane
        self.spread = sum(1 << t * self.long for t in range(self.lanes))
        # the first span `_derive_top` decides in lanes (0: none); after
        # span l it drops lb[l - lanes], and the edge splits read lb[1] ..
        # lb[lanes - 1] to the end, so lanes start at span 2*lanes or later
        self.lanes_from = (max(_LANES_FROM, 2 * self.lanes)
                           if self.lanes > 1 else 0)
        # the edge splits read left parts of 1 .. lanes-1 letters, and the
        # run the rest, where only a long pair finds anything
        self.run_from = self.lanes if self.long else _NO_RUN
        # (pair slots, left slots, right slots) of every lhs that occurs
        # as an operand
        self._children = [(pairs, left.get(a, 0), right.get(a, 0))
                          for a, pairs in self.slots.items()
                          if a in left or a in right]
        self.lex = {}
        for a, t in lexical:
            lb, rc, syms = self.lex.get(t, _NO_LEX)
            self.lex[t] = (lb | left.get(a, 0), rc | right.get(a, 0),
                           syms | 1 << a)
        self._masks = {}

    def masks(self, n: int):
        """(one bit per group, all pair slots set in every group, per-child
        masks), each replicated over n groups."""
        masks = self._masks.get(n)
        if masks is None:
            if len(self._masks) >= 32:
                self._masks.clear()
            w = self.width
            rep = ((1 << n * w) - 1) // ((1 << w) - 1)
            masks = self._masks[n] = (rep, ((1 << (w - 1)) - 1) * rep, [
                (pairs * rep, lb * rep, rc * rep)
                for pairs, lb, rc in self._children])
        return masks


_NO_LEX = (0, 0, 0)
_NO_RUN = 1 << 62  # a left part longer than any word: a run reads none
# The shortest span `_derive_top` decides in lanes (a wide layout starts
# later). Setting up the lanes costs about `lanes` ops per shorter span,
# which the first lane spans do not win back: started at span 2*lanes,
# Maj words of 6-32 letters run up to 1.5x slower
_LANES_FROM = 40


def _derives(layout: _RuleLayout, word) -> int:
    """Mask of the symbols that derive all of `word` (nonempty)."""
    if len(word) == 1:
        return layout.lex.get(word[0], _NO_LEX)[2]
    top = _derive_top(layout, word)
    return sum(1 << a for a, pairs in layout.slots.items() if top & pairs)


def _rule_product(rules):
    """x*y over symbol masks: the mask of every a with a rule `a -> b c`
    where b is in x and c is in y."""
    return lambda x, y: sum({1 << a for a, b, c in rules
                             if x >> b & 1 and y >> c & 1})


def _splits(lb, rc, offsets, first, stop, span, acc=0):
    """acc OR the pair slots that derive a span of `span` letters by a
    split whose left part has first .. stop-1 letters."""
    return reduce(or_, map(and_, lb[first:stop],
                           map(rshift, rc[span - first:span - stop:-1],
                               offsets[first:stop])), acc)


def _derive_top(layout: _RuleLayout, word) -> int:
    """Pair slots that derive all of `word` (len >= 2), in group 0.

    lb[m] / rc[m] set bit i*width + slot(p) when the left / right operand
    of pair p derives word[i:i+m]. Span l ORs, over every split l1, lb[l1]
    with rc[l - l1] moved l1 groups down: l - 1 big-integer ops.

    From span `layout.lanes_from` on, spans come in runs of `lanes`, and
    one op per split decides the long pairs of a whole run l .. l+lanes-1:
    lbr[m] holds lb[m]'s long slots in every lane and rcs[m] holds those
    of rc[m + t] in lane t, so lane t of lbr[l1] & rcs[l - l1] >> l1 groups
    is split l1 of span l + t. That covers the left parts of lanes .. l-2
    letters, whose operands are final. Span l + t adds its other splits,
    left parts of 1 .. lanes-1 and l-1 .. l+t-1 letters, on the full
    vectors; these are the only splits a short pair can use, and with no
    long pair (anbn) the only ones that find anything, so there the run
    reads no split (`layout.run_from`). A word of n letters costs about
    n^2/(2*lanes) ops, plus about 1.5*lanes per span.
    """
    n = len(word)
    w = layout.width
    top = w - 1
    rep, low, children = layout.masks(n)
    begin = layout.lanes_from or n + 1
    lex = layout.lex
    lb1 = rc1 = 0
    for t in reversed(word):
        lbt, rct, _ = lex.get(t, _NO_LEX)
        lb1 = lb1 << w | lbt
        rc1 = rc1 << w | rct
    lb, rc = [0, lb1], [0, rc1]
    offsets = range(0, n * w, w)
    last = 1 if lb1 | rc1 else 0  # longest span some operand derives
    for l in range(2, n + 1):
        # A derivation longer than 2*last has a node whose span lies in
        # last+1 .. 2*last (follow the longer child down from the root),
        # and that node is an operand: once those spans are empty, stop.
        if l > 2 * last:
            return 0
        if l < begin:
            acc = _splits(lb, rc, offsets, 1, l, l)
        else:
            if l == begin:
                lanes, k, spread = layout.lanes, layout.long, layout.spread
                longs = ((1 << k) - 1) * rep
                lower = longs * (spread >> k)  # every lane but the last
                lbr = [(x & longs) * spread for x in lb]
                rcs = [x & longs for x in rc[:l - lanes + 1]]
                for t in range(1, lanes):
                    rcs = list(map(or_, rcs, map(
                        lshift, map(and_, rc[t:], itertools.repeat(longs)),
                        itertools.repeat(t * k))))
            lane = (l - begin) % lanes
            if not lane:
                run = _splits(lbr, rcs, offsets, layout.run_from, l - 1, l)
            acc = _splits(lb, rc, offsets, 1, lanes, l, _splits(
                lb, rc, offsets, l - lane - 1, l, l, run >> lane * k & longs))
        if l == n:
            return acc
        lbl = rcl = 0
        for pairs, lbm, rcm in children:
            hit = acc & pairs
            if hit:
                # a nonzero group of hit carries into the spare top slot;
                # spread that bit over the group, then keep operand slots
                d = (hit + low) >> top & rep
                d = (d << w) - d
                lbl |= d & lbm
                rcl |= d & rcm
        lb.append(lbl)
        rc.append(rcl)
        if l >= begin:
            # lanes move down one lane, and rc[l] enters the last one
            lbr.append((lbl & longs) * spread)
            rcs.append(rcs[-1] >> k & lower | (rcl & longs) << k * (lanes - 1))
            # the edge splits read neither of these again
            lb[l - lanes] = rc[l - lanes + 1] = None
        if lbl | rcl:
            last = l


def cfg_to_groupoid(g: Cfg):
    """Powerset-of-nonterminals groupoid with a fresh adjoined identity.

    Returns (WordProblem, homomorphism letter -> element index). For every
    word w: w in L(g) iff h(w) is in the word problem.
    """
    nn = len(g.nonterminals)
    nmasks = 1 << nn
    # element 0 is the adjoined identity; element i+1 carries subset mask i
    size = nmasks + 1
    product = _rule_product(g.binary)
    table = [tuple(range(size))] + [
        (x,) + tuple(product(x - 1, y - 1) + 1 for y in range(1, size))
        for x in range(1, size)]
    elements = ("I",) + tuple(
        "{" + ",".join(nt for i, nt in enumerate(g.nonterminals)
                       if m >> i & 1) + "}" for m in range(nmasks))
    magma = Magma(elements, tuple(table), 0, name="powerset")
    # only the empty word evaluates to the identity: every letter, and so
    # every product, is an element of 1 or more
    accept = {0} if g.epsilon_in_language else set()
    accept.update(m + 1 for m in range(nmasks) if m >> g.start & 1)
    lex = g._layout.lex
    return (WordProblem.of(magma, accept),
            {t: lex.get(t, _NO_LEX)[2] + 1 for t in g.terminals})


def regular_to_monoid(d: Dfa):
    """Transition-monoid construction.

    Elements are the state transformations generated by the letters, closed
    under composition, with the identity transformation adjoined. Returns
    (an associative WordProblem, homomorphism letter -> element index).
    """
    q = len(d.states)
    ident = tuple(range(q))
    elems = {ident}
    frontier = [ident]
    gen_list = list(d.letter_maps.values())
    while frontier:
        nxt = []
        for f in frontier:
            for gtr in gen_list:
                composed = tuple(gtr[f[s]] for s in range(q))
                if composed not in elems:
                    elems.add(composed)
                    nxt.append(composed)
        frontier = nxt
    ordered = [ident] + sorted(elems - {ident})
    index = {f: i for i, f in enumerate(ordered)}
    table = tuple(
        tuple(index[tuple(gf[ff[s]] for s in range(q))] for gf in ordered)
        for ff in ordered
    )

    def tname(f):
        return "id" if f == ident else "[" + " ".join(str(x) for x in f) + "]"

    magma = Magma(tuple(tname(f) for f in ordered), table, 0, name="transition")
    accept = frozenset(i for f, i in index.items() if f[d.start] in d.finals)
    wp = WordProblem(magma, accept)
    hom = {a: index[tr] for a, tr in d.letter_maps.items()}
    return wp, hom


# ---------------------------------------------------------------------------
# Language specs


@record
class LanguageSpec:
    """Named language with an explicit, ordered alphabet.

    For a WordProblem body, `letter_map` sends alphabet letters bijectively
    to magma element indices (defaults to positional).
    """

    name: str
    alphabet: tuple[str, ...]
    body: object
    declared_neutral: str | None = None
    letter_map: dict | None = None

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        # language_member's cache of verdicts, no field: it stays out of
        # equality and repr, and no caller sets it
        self._member_cache = {}
        self._member_chars = 0
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InvariantViolation(f"language {self.name!r}: duplicate letters")
        for a in self.alphabet:
            if type(a) is not str or len(a) != 1:
                raise InvariantViolation(
                    f"language {self.name!r}: letter {a!r} is not one character"
                )
        if self.declared_neutral is not None and self.declared_neutral not in self.alphabet:
            raise InvariantViolation(
                f"language {self.name!r}: neutral letter not in alphabet"
            )
        body = self.body
        if isinstance(body, WordProblem):
            if self.letter_map is None:
                self.letter_map = {a: i for i, a in enumerate(self.alphabet)}
            if sorted(self.letter_map.values()) != list(range(body.magma.size)) or set(
                self.letter_map
            ) != set(self.alphabet):
                raise InvariantViolation(
                    f"language {self.name!r}: letters must map bijectively to elements"
                )
        elif isinstance(body, Dfa):
            if set(self.alphabet) != set(body.alphabet):
                raise InvariantViolation(
                    f"language {self.name!r}: alphabet disagrees with DFA alphabet"
                )
        elif isinstance(body, Cfg):
            if set(self.alphabet) != set(body.terminals):
                raise InvariantViolation(
                    f"language {self.name!r}: alphabet disagrees with grammar terminals"
                )
        else:
            raise InvariantViolation(
                f"language {self.name!r}: unsupported body {type(body).__name__}"
            )

    @property
    def size(self) -> int:
        return len(self.alphabet)

    @cached_property
    def prefix_fold(self):
        """(per letter its state map, start state, decided states) of the
        left fold that decides the body, or None for a grammar, a
        non-associative word problem, or a fold with no decided state. A
        state is decided when every state it reaches has its finality, so
        a word whose prefix enters one has that prefix's verdict."""
        body = self.body
        if isinstance(body, Dfa):
            maps, start, finals = body.letter_maps, body.start, body.finals
            states = range(len(body.states))
        elif isinstance(body, WordProblem) and body.associative:
            m = body.magma  # right multiplication by the letter's element
            maps = {a: tuple(row[x] for row in m.table)
                    for a, x in self.letter_map.items()}
            start, finals, states = m.identity, body.accept, range(m.size)
        else:
            return None
        # the greatest set of states whose successors are in it and share
        # their finality
        decided, keep = None, frozenset(states)
        while keep != decided:
            decided = keep
            keep = frozenset(s for s in decided if all(
                step[s] in decided and (step[s] in finals) == (s in finals)
                for step in maps.values()))
        return (maps, start, decided) if decided else None


def resolve_language(registry, name: str) -> LanguageSpec:
    """The language `name` of a registry, which may be None."""
    try:
        return registry[name]
    except (KeyError, TypeError):
        raise UnknownLanguage(f"language {name!r} not registered") from None


def language_member(spec: LanguageSpec, word) -> bool:
    """Membership of `word` (an iterable of letters) in the named language."""
    word = "".join(word)
    # the cache holds only words whose letters passed the test below
    cached = spec._member_cache.get(word)
    if cached is not None:
        return cached
    if not set(word).issubset(spec.alphabet):
        a = next(a for a in word if a not in spec.alphabet)
        raise LetterOutOfAlphabet(
            f"letter {a!r} not in alphabet of language {spec.name!r}")
    body = spec.body
    if isinstance(body, Dfa):
        result = body.run(word)
    elif isinstance(body, Cfg):
        result = cyk_member(body, word)
    else:
        result = word_problem_member(body, [spec.letter_map[a] for a in word])
    if (len(spec._member_cache) > MEMBER_CACHE_WORDS
            or spec._member_chars + len(word) > MEMBER_CACHE_CHARS):
        spec._member_cache.clear()
        spec._member_chars = 0
    spec._member_cache[word] = result
    spec._member_chars += len(word)
    return result


def is_neutral_letter_bounded(spec: LanguageSpec, letter: str, max_len: int) -> bool:
    """Bounded test of `uv in L iff u letter v in L` for |uv| <= max_len,
    sound for refutation.

    Compares the verdict tables of lengths l and l + 1 slice by slice: the
    padded words with the letter at cut c and prefix rank q form one run of
    ranks at level l + 1, and so do their unpadded twins at level l; those
    with suffix rank r form one stride of ranks on both levels. Level
    l + 1 is built only when l is reached, so a refutation at a short
    length stays cheap.
    """
    if letter not in spec.alphabet:
        raise LetterOutOfAlphabet(f"{letter!r} not in alphabet of {spec.name!r}")
    k = spec.size
    c = spec.alphabet.index(letter)
    levels = _verdict_levels(spec)
    ok = next(levels)
    for length in range(max_len + 1):
        padded = next(levels)
        p = k ** length  # words of the suffix after the cut
        for cut in range(length + 1):
            n = k ** cut  # words of the prefix before the cut
            if n <= p:  # one run of suffixes per prefix
                for q in range(n):
                    lo = (q * k + c) * p
                    if padded[lo:lo + p] != ok[q * p:(q + 1) * p]:
                        return False
            else:  # one stride of prefixes per suffix
                for r in range(p):
                    if padded[c * p + r::k * p] != ok[r::p]:
                        return False
            p //= k
        ok = padded
    return True


def is_neutral_letter_bounded_reference(spec: LanguageSpec, letter: str,
                                        max_len: int) -> bool:
    """Oracle for `is_neutral_letter_bounded`: one `language_member` call
    per word and padded word."""
    if letter not in spec.alphabet:
        raise LetterOutOfAlphabet(f"{letter!r} not in alphabet of {spec.name!r}")
    for length in range(0, max_len + 1):
        for w in itertools.product(spec.alphabet, repeat=length):
            base = language_member(spec, w)
            for cut in range(length + 1):
                padded = w[:cut] + (letter,) + w[cut:]
                if language_member(spec, padded) != base:
                    return False
    return True


def is_symmetric_bounded(spec: LanguageSpec, max_len: int) -> bool:
    """True iff membership depends only on letter counts, up to `max_len`.

    Each rank of a level carries a letter-count code (letter i counts
    (max_len + 1)^i); a level is symmetric iff no code is both accepted and
    rejected.
    """
    weights = [(max_len + 1) ** i for i in range(spec.size)]
    levels = _verdict_levels(spec)
    next(levels)
    codes = [0]
    for _ in range(max_len):
        ok = next(levels)
        codes = [code + w for code in codes for w in weights]
        accepted = set(itertools.compress(codes, ok))
        if not accepted.isdisjoint(itertools.compress(codes, map(not_, ok))):
            return False
    return True


def is_symmetric_bounded_reference(spec: LanguageSpec, max_len: int) -> bool:
    """Oracle for `is_symmetric_bounded`: one `language_member` call per
    word."""
    for length in range(1, max_len + 1):
        seen = {}
        for w in itertools.product(spec.alphabet, repeat=length):
            counts = tuple(sorted((a, w.count(a)) for a in spec.alphabet))
            value = language_member(spec, w)
            if seen.setdefault(counts, value) != value:
                return False
    return True


def _verdict_levels(spec: LanguageSpec):
    """Yield, for length 0, 1, 2, ..., the membership verdict of every word
    of that length, indexed by its base-k rank (first letter most
    significant, letters in `spec.alphabet` order).

    A level is built when it is asked for, and a level of more than
    `TABLE_CAP` words raises `CapExceeded` instead.
    """
    body = spec.body
    letters = spec.alphabet
    if isinstance(body, Cfg):
        yield from _mask_levels(
            body._layout, letters, body.epsilon_in_language, 1 << body.start,
            _rule_product(body.binary))
        return
    if isinstance(body, Dfa):
        rows, start, accept = body._rows, body.start, body.finals
    else:
        m = body.magma
        letters = [spec.letter_map[x] for x in letters]
        rows, start, accept = m._rows, m.identity, body.accept
        if not body.associative:
            yield from _mask_levels(
                m._layout, letters, start in accept,
                sum(1 << x for x in accept), _rule_product(m._rules))
            return
    # one fold step per letter: the successors of state s in letter order
    succ = [[row[x] for x in letters] for row in rows]
    final = [s in accept for s in range(len(rows))]
    row = [start]
    for length in itertools.count(1):
        yield list(map(final.__getitem__, row))
        _check_table_cap(len(letters), length)
        row = list(itertools.chain.from_iterable(map(succ.__getitem__, row)))


def _mask_levels(layout: _RuleLayout, letters, empty: bool, accept: int,
                 combine):
    """`_verdict_levels` for a mask body: a letter's mask is the symbols
    `layout` derives it from, a longer word's mask is the OR, over split
    points, of `combine(mask[u], mask[v])`, and the word is accepted iff
    its mask meets `accept`."""
    combine = cache(combine)  # for this call only
    k = len(letters)
    yield [empty]
    rows = [None]
    row = [layout.lex.get(x, _NO_LEX)[2] for x in letters]
    for length in itertools.count(1):
        rows.append(row)
        verdict = {m: bool(m & accept) for m in set(row)}
        yield list(map(verdict.__getitem__, row))
        _check_table_cap(k, length + 1)
        row = None
        for split in range(1, length + 1):
            left, right = rows[split], rows[length + 1 - split]
            distinct = set(right)
            segments = {}
            for x in set(left):
                values = {y: combine(x, y) for y in distinct}
                segments[x] = list(map(values.__getitem__, right))
            part = list(itertools.chain.from_iterable(
                map(segments.__getitem__, left)))
            row = part if row is None else list(map(or_, row, part))


def _check_table_cap(k: int, length: int) -> None:
    if k ** length > TABLE_CAP:
        raise CapExceeded(
            f"{k ** length} words of length {length} exceed the table cap "
            f"{TABLE_CAP}", required=k ** length)


def pad_language(spec: LanguageSpec, pad_letter: str, name: str | None = None) -> LanguageSpec:
    """Extend a language with a fresh neutral letter (appended last).

    The result accepts w iff deleting every `pad_letter` from w leaves a
    member of the original language.
    """
    if pad_letter in spec.alphabet:
        raise InvariantViolation(f"pad letter {pad_letter!r} already in alphabet")
    name = name or spec.name + "_pad"
    alphabet = spec.alphabet + (pad_letter,)
    body = spec.body
    if isinstance(body, Dfa):
        pad_trans = tuple(row + (q,) for q, row in enumerate(body.trans))
        new = Dfa(body.states, body.alphabet + (pad_letter,), pad_trans,
                  body.start, body.finals)
        return LanguageSpec(name, alphabet, new, declared_neutral=pad_letter)
    if isinstance(body, Cfg):
        return LanguageSpec(name, alphabet, _pad_cfg(body, pad_letter),
                            declared_neutral=pad_letter)
    raise InvariantViolation("pad_language supports DFA and CNF grammar bodies only")


def _pad_cfg(g: Cfg, pad: str) -> Cfg:
    # A fresh P derives pad+, and every nonterminal with a lexical rule
    # takes pads on either side (X -> X P | P X): each letter's preterminal
    # absorbs the pads next to it. Words of pads alone project to the empty
    # word; when that is a member they hang off a fresh start, since the old
    # start may occur on a right-hand side.
    p = len(g.nonterminals)
    nts = g.nonterminals + ("_P",)
    binary = [*g.binary, (p, p, p)]
    lexical = [*g.lexical, (p, pad)]
    for x in sorted({a for a, _ in g.lexical}):
        binary += [(x, x, p), (x, p, x)]
    start = g.start
    if g.epsilon_in_language:
        start = len(nts)
        nts += ("_S",)
        binary += [(start, b, c) for a, b, c in binary if a == g.start]
        binary.append((start, p, p))
        lexical += [(start, t) for a, t in lexical if a == g.start]
        lexical.append((start, pad))
    return Cfg(nts, g.terminals + (pad,), tuple(binary), tuple(lexical),
               start, g.epsilon_in_language)
