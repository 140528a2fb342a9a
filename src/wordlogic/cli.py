"""Command-line interface.

Subcommands: eval, enumerate, translate, leaffa, algebra-check, equiv,
oracle. Exit status 0 on success/agreement, 1 on a counterexample or
disagreement, 2 on usage or format errors.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys

# monoid_word_eval and leaf_string stay: perfbench/spans.py wraps them here
from .algebra import (
    brute_force_bracketings,
    check_associative,
    cfg_to_groupoid,
    cyk_member,
    cyk_member_reference,
    groupoid_reachable,
    language_member,
    monoid_word_eval,
    regular_to_monoid,
    word_problem_member,
)
from .errors import WordlogicError
from .formats import (
    load_toolbox,
    parse_algebra,
    parse_cfg,
    parse_dfa,
    parse_leaf_automaton,
)
from .generate import random_lindfo
from .leafauto import leaffa_member, leaf_string
from .logic import (
    DEFAULT_INSTANCE_CAP,
    StringStructure,
    check_nesting,
    define_language,
    evaluate,
    free_variables,
    induced_word,
    walk_formulas,
    LindFO,
    LindSO,
)
from .sexpr import format_formula, parse_formula
from .translate import (
    arity_collapse,
    check_equivalence,
    const_rewrite,
    const_unrewrite,
    const_structures,
    exp_translate,
    exp_translate_rev,
    pad_translate,
    q1_to_q_star,
    q_star_to_q1,
    string_structures,
    tally_translate_bwd,
    tally_translate_fwd,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


def _alphabet(text: str):
    if "," in text:
        return tuple(a for a in text.split(",") if a)
    return tuple(text)


def _add_common(p):
    p.add_argument("--toolbox", action="append", default=[],
                   help="file or directory of language/automaton definitions")
    p.add_argument("--instance-cap", type=int, default=DEFAULT_INSTANCE_CAP)


def _read_formula(args, box):
    if getattr(args, "formula_file", None):
        with open(args.formula_file, encoding="utf-8") as fh:
            text = fh.read()
    elif getattr(args, "formula", None):
        text = args.formula
    else:
        raise WordlogicError("one of --formula/--formula-file is required")
    return parse_formula(text, box.languages)


def _structure(args):
    if args.structure is None:
        raise WordlogicError("--structure is required")
    return StringStructure(_alphabet(args.alphabet), tuple(args.structure))


def cmd_eval(args):
    box = load_toolbox(args.toolbox)
    f = _read_formula(args, box)
    st = _structure(args)
    value = evaluate(st, f, registry=box.languages,
                     instance_cap=args.instance_cap)
    print("true" if value else "false")
    return EXIT_OK


def cmd_enumerate(args):
    box = load_toolbox(args.toolbox)
    f = _read_formula(args, box)
    words = define_language(f, _alphabet(args.alphabet), args.max_n,
                            registry=box.languages,
                            instance_cap=args.instance_cap)
    for w in sorted(words, key=lambda w: (len(w), w)):
        print(w)
    return EXIT_OK


_TRANSLATE_OPS = ("qstar-to-q1", "q1-to-qstar", "arity-collapse", "pad",
                  "tally-fwd", "tally-bwd", "const-rewrite",
                  "const-unrewrite", "exp", "exp-rev")


def cmd_translate(args):
    box = load_toolbox(args.toolbox)
    f = _read_formula(args, box)
    check_nesting(f)
    reg = box.languages
    # the tally translation reads binary strings only
    alphabet = _alphabet(args.alphabet or
                         ("1,0" if args.op == "tally-fwd" else "a,b"))
    consts = tuple(args.constants.split(",")) if args.constants else ()
    mapper = None
    mapper_desc = "identity"
    notes = ()
    min_n = 1
    structures = None
    if args.op == "qstar-to-q1":
        out = q_star_to_q1(f)
    elif args.op == "q1-to-qstar":
        out = q1_to_q_star(f)
    elif args.op == "arity-collapse":
        out = arity_collapse(f, reg)
        min_n = 2
        notes = ("domain size 1 outside validated range",)
    elif args.op == "pad":
        out, _, mapper = pad_translate(f, alphabet)
        mapper_desc = "pad to length n^k"
    elif args.op == "tally-fwd":
        out, mapper = tally_translate_fwd(f, reg)
        mapper_desc = "w -> 1^n with bin(n) = 1w"
    elif args.op == "tally-bwd":
        out, mapper = tally_translate_bwd(f, reg)
        mapper_desc = "1^n -> bin(n)"
        structures = [StringStructure(("1",), ("1",) * n)
                      for n in range(1, args.max_n + 1)]
    elif args.op == "const-rewrite":
        out, mapper = const_rewrite(f, consts)
        mapper_desc = "constants -> subset-letter string"
        structures = const_structures(consts, args.max_n)
    elif args.op == "const-unrewrite":
        out = const_unrewrite(f, consts)
        structures = []
    elif args.op == "exp":
        out, mapper = exp_translate(f, alphabet)
        mapper_desc = "string -> constant structure on 2^n points"
    elif args.op == "exp-rev":
        out = exp_translate_rev(f, alphabet)
        structures = []
    else:
        raise WordlogicError(f"unknown translation {args.op!r}")
    target = format_formula(out)
    if structures is None:
        structures = string_structures(alphabet, args.max_n, min_n)
    if args.op in ("exp-rev", "const-unrewrite"):
        # reverse directions are validated by their forward twins
        print(target)
        return EXIT_OK
    # check before printing, so a failed check leaves no half report
    report = check_equivalence(f, out, structures, registry=reg,
                               mapper=mapper, mapper_desc=mapper_desc,
                               instance_cap=args.instance_cap, notes=notes)
    print(target)
    print(report.render())
    return EXIT_OK if report.verdict == "equivalent-on-range" \
        else EXIT_COUNTEREXAMPLE


def cmd_leaffa(args):
    box = load_toolbox(args.toolbox)
    if args.automaton in box.leaf_automata:
        M = box.leaf_automata[args.automaton]
    else:
        with open(args.automaton, encoding="utf-8") as fh:
            M = parse_leaf_automaton(fh.read(), args.automaton)
    spec = box.language(args.language)
    value = leaffa_member(M, spec, args.structure or "", cap=args.leaf_cap)
    print("true" if value else "false")
    return EXIT_OK


def cmd_algebra_check(args):
    with open(args.algebra, encoding="utf-8") as fh:
        magma, accept = parse_algebra(fh.read(), args.algebra)
    assoc = check_associative(magma)
    print(f"elements: {len(magma.elements)}")
    print(f"identity: {magma.elements[magma.identity]}")
    print(f"associative: {'true' if assoc else 'false'}")
    if accept is not None:
        names = sorted(magma.elements[i] for i in accept)
        print(f"accept: {' '.join(names)}")
    return EXIT_OK


def cmd_equiv(args):
    box = load_toolbox(args.toolbox)
    f = parse_formula(args.formula, box.languages)
    g = parse_formula(args.formula2, box.languages)
    report = check_equivalence(
        f, g, string_structures(_alphabet(args.alphabet), args.max_n),
        registry=box.languages, instance_cap=args.instance_cap)
    print(report.verdict_line())
    return EXIT_OK if report.verdict == "equivalent-on-range" \
        else EXIT_COUNTEREXAMPLE


def _oracle_groupoid(args):
    with open(args.algebra, encoding="utf-8") as fh:
        magma, _ = parse_algebra(fh.read(), args.algebra)
    g = magma.size
    for length in range(1, args.max_len + 1):
        for word in itertools.product(range(g), repeat=length):
            fast = groupoid_reachable(magma, word)
            slow = brute_force_bracketings(magma, word)
            if fast != slow:
                text = " ".join(magma.elements[i] for i in word)
                print(f"disagree {text}")
                return EXIT_COUNTEREXAMPLE
    print("agree")
    return EXIT_OK


def _oracle_cfg(args):
    with open(args.grammar, encoding="utf-8") as fh:
        cfg, alphabet, _ = parse_cfg(fh.read(), args.grammar)
    wp, hom = cfg_to_groupoid(cfg)
    for length in range(0, args.max_len + 1):
        for word in itertools.product(alphabet, repeat=length):
            slow = cyk_member_reference(cfg, word)
            via_groupoid = word_problem_member(wp, [hom[a] for a in word])
            if via_groupoid != slow or cyk_member(cfg, word) != slow:
                print(f"disagree {''.join(word)}")
                return EXIT_COUNTEREXAMPLE
    print("agree")
    return EXIT_OK


def _oracle_dfa(args):
    with open(args.dfa, encoding="utf-8") as fh:
        dfa, _ = parse_dfa(fh.read(), args.dfa)
    wp, hom = regular_to_monoid(dfa)
    for length in range(0, args.max_len + 1):
        for word in itertools.product(dfa.alphabet, repeat=length):
            fast = word_problem_member(wp, [hom[a] for a in word])
            slow = dfa.run(word)
            if fast != slow:
                print(f"disagree {''.join(word)}")
                return EXIT_COUNTEREXAMPLE
    print("agree")
    return EXIT_OK


def _oracle_lind(args):
    box = load_toolbox(args.toolbox)
    reg = box.languages
    alphabet = _alphabet(args.alphabet)
    if args.formula:
        formulas = [parse_formula(args.formula, reg)]
    else:
        rng = random.Random(args.seed)
        formulas = [random_lindfo(rng, "Lexists", 1, alphabet)
                    for _ in range(args.count)]
    for f in formulas:
        for st in string_structures(alphabet, args.max_n):
            for node in walk_formulas(f):
                if not isinstance(node, (LindFO, LindSO)):
                    continue
                fo, so = free_variables(node)
                if fo or so:
                    continue
                fast = evaluate(st, node, registry=reg,
                                instance_cap=args.instance_cap)
                word = induced_word(st, {}, node, registry=reg,
                                    instance_cap=args.instance_cap)
                slow = language_member(reg[node.lang], word)
                if fast != slow:
                    print(f"disagree {st} {format_formula(node)}")
                    return EXIT_COUNTEREXAMPLE
    print("agree")
    return EXIT_OK


def cmd_oracle(args):
    if args.what == "groupoid-reachable":
        return _oracle_groupoid(args)
    if args.what == "cfg-groupoid":
        return _oracle_cfg(args)
    if args.what == "dfa-monoid":
        return _oracle_dfa(args)
    if args.what == "lind-eval":
        return _oracle_lind(args)
    raise WordlogicError(f"unknown oracle {args.what!r}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="wordlogic",
        description="generalized-quantifier logic over words: evaluation, "
                    "enumeration, translation, and oracle checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a sentence on one structure")
    _add_common(p)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--formula")
    p.add_argument("--formula-file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("enumerate",
                       help="list all satisfying strings up to a length")
    _add_common(p)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--formula")
    p.add_argument("--formula-file")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("translate",
                       help="apply a formula translation and validate it")
    _add_common(p)
    p.add_argument("--op", required=True, choices=_TRANSLATE_OPS)
    p.add_argument("--alphabet")
    p.add_argument("--constants")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--formula")
    p.add_argument("--formula-file")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("leaffa",
                       help="leaf-automaton membership against a language")
    _add_common(p)
    p.add_argument("--automaton", required=True,
                   help="toolbox name or file path")
    p.add_argument("--language", required=True)
    p.add_argument("--structure", default="")
    p.add_argument("--leaf-cap", type=int, default=1 << 16)
    p.set_defaults(fn=cmd_leaffa)

    p = sub.add_parser("algebra-check",
                       help="load an algebra file and report its properties")
    p.add_argument("--algebra", required=True)
    p.set_defaults(fn=cmd_algebra_check)

    p = sub.add_parser("equiv",
                       help="exhaustively compare two sentences")
    _add_common(p)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--formula", required=True)
    p.add_argument("--formula2", required=True)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("oracle",
                       help="compare a fast path against its brute-force twin")
    _add_common(p)
    p.add_argument("what", choices=("groupoid-reachable", "cfg-groupoid",
                                    "dfa-monoid", "lind-eval"))
    p.add_argument("--algebra")
    p.add_argument("--grammar")
    p.add_argument("--dfa")
    p.add_argument("--formula")
    p.add_argument("--alphabet", default="a,b")
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (WordlogicError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
