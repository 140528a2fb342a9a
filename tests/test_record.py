"""Record classes against dataclass twins.

For each record class a twin is built with `dataclasses.make_dataclass`
from the same fields, defaults and options, and the same methods. The twin
is what `@dataclass` makes of the class, so equal repr text, equality,
hash values, constructor signatures and frozen errors on every sample show
that `_record.record` gives the behaviour the classes had as dataclasses.
"""

import dataclasses
import functools
import inspect
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from wordlogic import algebra, formats, leafauto, logic, translate
from wordlogic._record import MISSING, fields, is_record, record
from wordlogic.builtins import builtin_registry
from wordlogic.generate import random_fo_formula, random_lindso
from wordlogic.sexpr import parse_formula

MODULES = (logic, algebra, leafauto, formats, translate)
RECORDS = {c for m in MODULES for c in vars(m).values()
           if is_record(c) and c.__module__ == m.__name__}
# what `record` puts on a class, and what every class has anyway
GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
             "__delattr__", "__record_fields__", "__dict__", "__weakref__",
             "__annotations__"}
DATA = os.path.join(os.path.dirname(__file__), "data")


def _frozen(cls):
    return "__setattr__" in vars(cls)


@functools.cache
def twin(cls):
    """The dataclass that `@dataclass(frozen=...)` makes of cls."""
    specs = []
    for f in fields(cls):
        options = {} if f.default is MISSING else {"default": f.default}
        specs.append((f.name, object, dataclasses.field(**options)))
    namespace = {k: v for k, v in vars(cls).items() if k not in GENERATED}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace,
                                      frozen=_frozen(cls))


def to_twin(r):
    """The twin of record r, holding r's field values. Nested records stay
    records: each is held against its own twin, and repr, == and hash read
    a field's value only through that value's own repr, == and hash."""
    return twin(type(r))(**{f.name: getattr(r, f.name)
                            for f in fields(type(r))})


def reachable(value, out):
    """Append value and every record inside it to out, outermost first."""
    if is_record(type(value)):
        out.append(value)
        for f in fields(type(value)):
            reachable(getattr(value, f.name), out)
    elif isinstance(value, (tuple, list)):
        for v in value:
            reachable(v, out)
    elif isinstance(value, dict):
        for v in value.values():
            reachable(v, out)
    return out


def _samples():
    """At least one instance of every record class, from the builtins, the
    data files, the formula corpus and a translation check."""
    roots = [builtin_registry(), formats.load_toolbox([DATA]),
             formats.Toolbox({}, {}, {}, {}),
             logic.structure_from_string("ab", "abba"),
             logic.structure_from_string("ab", ""),
             logic.ConstStructure.of(3, {"c1": 0, "c2": 2})]
    with open(os.path.join(DATA, "formulas.txt"), encoding="utf-8") as fh:
        roots += [parse_formula(ln, roots[0]) for ln in fh if ln.strip()]
    f = parse_formula("(exists x (letter a x))")
    g = parse_formula("(forall x (letter a x))")
    structures = list(logic.string_structures("ab", 2))
    roots += [translate.check_equivalence(f, f, structures),
              translate.check_equivalence(f, g, structures, notes=("n",))]
    return reachable(roots, [])


SAMPLES = _samples()


def test_every_record_class_is_sampled():
    assert len(RECORDS) == 37
    assert {type(r) for r in SAMPLES} == RECORDS


@pytest.mark.parametrize("cls", sorted(RECORDS, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_constructor_signature_matches_the_dataclass(cls):
    ours = inspect.signature(cls).parameters
    theirs = inspect.signature(twin(cls)).parameters
    assert list(ours) == list(theirs)
    for f in fields(cls):
        assert ours[f.name].default == theirs[f.name].default


def _check(records):
    """repr, ==, hash and frozen errors of records against their twins."""
    twins = [to_twin(r) for r in records]
    for r, t in zip(records, twins):
        assert repr(r) == repr(t)
        assert (r == t) is False and (r != t) is True
        if _frozen(type(r)):
            assert hash(r) == hash(t)
            for f in fields(type(r)):
                for target in (r, t):
                    with pytest.raises(AttributeError) as ei:
                        setattr(target, f.name, None)
                    assert str(ei.value) == \
                        f"cannot assign to field {f.name!r}"
                    with pytest.raises(AttributeError) as ei:
                        delattr(target, f.name)
                    assert str(ei.value) == f"cannot delete field {f.name!r}"
        else:
            with pytest.raises(TypeError):
                hash(r)
            with pytest.raises(TypeError):
                hash(t)
    for (r1, t1) in zip(records, twins):
        for (r2, t2) in zip(records, twins):
            if type(r1) is type(r2):
                assert (r1 == r2) == (t1 == t2)
                assert (r1 != r2) == (t1 != t2)


def test_samples_match_their_twins():
    _check(SAMPLES)


def _random_formula(seed, so):
    rng = random.Random(seed)
    if so:
        return random_lindso(
            rng, "Lmod2", rng.randint(1, 2),
            rng.choice((logic.INTERLEAVED, logic.CONCATENATED)), "ab",
            k=rng.randint(1, 2))
    return random_fo_formula(rng, ("y",), ("Y",), "ab", depth=3)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), other=st.integers(0, 2 ** 32 - 1),
       so=st.booleans())
def test_random_formulas_match_their_twins(seed, other, so):
    # two draws from one seed make equal trees of distinct objects, so ==
    # compares fields, not identity; a draw from another seed rarely equals
    _check(reachable([_random_formula(seed, so), _random_formula(seed, so),
                      _random_formula(other, so)], []))


def test_a_field_without_a_default_may_not_follow_one_with_one():
    class Bad:
        a: int = 0
        b: int

    with pytest.raises(TypeError) as ei:
        record(Bad)
    assert str(ei.value) == "non-default field 'b' follows a default"
    with pytest.raises(TypeError):  # as dataclass refuses it
        dataclasses.dataclass(Bad)


def test_uncompared_and_cached_values_stay_out_of_equality():
    reg = builtin_registry()
    spec = reg["Maj"]
    other = algebra.LanguageSpec(spec.name, spec.alphabet, spec.body,
                                 spec.declared_neutral, spec.letter_map)
    assert algebra.language_member(spec, "11")  # fills the member cache
    assert spec._member_cache and not other._member_cache
    assert spec == other and "_member_cache" not in repr(spec)
    grammar = spec.body
    fresh = algebra.Cfg(grammar.nonterminals, grammar.terminals,
                        grammar.binary, grammar.lexical, grammar.start,
                        grammar.epsilon_in_language)
    assert grammar._layout is not None and "_layout" in vars(grammar)
    assert "_layout" not in vars(fresh)
    assert grammar == fresh and hash(grammar) == hash(fresh)
    assert repr(grammar) == repr(fresh) == repr(to_twin(fresh))
