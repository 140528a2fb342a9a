"""Command-line interface.

Subcommands: eval, enumerate, translate, leaffa, algebra-check, equiv,
oracle. Exit status 0 on success/agreement, 1 on a counterexample or
disagreement, 2 on usage or format errors.
"""

from __future__ import annotations

import argparse
import functools
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
from .errors import EmptyRange, WordlogicError
from .formats import (
    load_toolbox,
    parse_algebra,
    parse_cfg,
    parse_dfa,
    parse_leaf_automaton,
    read_text,
)
from .generate import random_lindfo
from .leafauto import DEFAULT_LEAF_CAP, leaffa_member, leaf_string
from .logic import (
    DEFAULT_INSTANCE_CAP,
    StringStructure,
    check_nesting,
    define_language,
    evaluate,
    free_variables,
    induced_word,
    string_structures,
    walk_formulas,
    words,
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


def _nonempty(cases, flags):
    """cases, refused with EmptyRange when the range flags leave none: a
    check over nothing would report agreement it never tested."""
    cases = iter(cases)
    for first in cases:
        return itertools.chain((first,), cases)
    raise EmptyRange(f"nothing to check under {flags}")


def _check(f, g, structures, args, **options):
    """(report, exit status) of check_equivalence(f, g) on structures, a
    range that --max-n must leave nonempty, under --instance-cap."""
    structures = _nonempty(structures, f"--max-n {args.max_n}")
    report = check_equivalence(f, g, structures,
                               instance_cap=args.instance_cap, **options)
    return report, (EXIT_OK if report.verdict == "equivalent-on-range"
                    else EXIT_COUNTEREXAMPLE)


def _read_formula(args, box):
    if args.formula_file:
        text = read_text(args.formula_file)
    elif args.formula:
        text = args.formula
    else:
        raise WordlogicError("one of --formula/--formula-file is required")
    return parse_formula(text, box.languages)


def cmd_eval(args):
    box = load_toolbox(args.toolbox)
    f = _read_formula(args, box)
    st = StringStructure(_alphabet(args.alphabet), tuple(args.structure))
    value = evaluate(st, f, registry=box.languages,
                     instance_cap=args.instance_cap)
    print("true" if value else "false")
    return EXIT_OK


def cmd_enumerate(args):
    box = load_toolbox(args.toolbox)
    f = _read_formula(args, box)
    members = define_language(f, _alphabet(args.alphabet), args.max_n,
                              registry=box.languages,
                              instance_cap=args.instance_cap)
    for w in sorted(members, key=lambda w: (len(w), w)):
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
    # reverse directions are validated by their forward twins
    if args.op == "exp-rev":
        print(format_formula(exp_translate_rev(f, alphabet)))
        return EXIT_OK
    if args.op == "const-unrewrite":
        print(format_formula(const_unrewrite(f, consts)))
        return EXIT_OK
    structures = string_structures(alphabet, args.max_n)
    mapper, mapper_desc, notes = None, "identity", ()
    if args.op == "qstar-to-q1":
        out = q_star_to_q1(f)
    elif args.op == "q1-to-qstar":
        out = q1_to_q_star(f)
    elif args.op == "arity-collapse":
        out = arity_collapse(f, reg)
        structures = string_structures(alphabet, args.max_n, 2)
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
        structures = string_structures("1", args.max_n)
    elif args.op == "const-rewrite":
        out, mapper = const_rewrite(f, consts)
        mapper_desc = "constants -> subset-letter string"
        structures = const_structures(consts, args.max_n)
    elif args.op == "exp":
        out, mapper = exp_translate(f, alphabet)
        mapper_desc = "string -> constant structure on 2^n points"
    target = format_formula(out)
    # check before printing, so a failed check leaves no half report
    report, status = _check(f, out, structures, args, registry=reg,
                            mapper=mapper, mapper_desc=mapper_desc,
                            notes=notes)
    print(target)
    print(report.render())
    return status


def cmd_leaffa(args):
    box = load_toolbox(args.toolbox)
    if args.automaton in box.leaf_automata:
        M = box.leaf_automata[args.automaton]
    else:
        M = parse_leaf_automaton(read_text(args.automaton), args.automaton)
    spec = box.language(args.language)
    value = leaffa_member(M, spec, args.structure or "", cap=args.leaf_cap)
    print("true" if value else "false")
    return EXIT_OK


def cmd_algebra_check(args):
    magma, accept = parse_algebra(read_text(args.algebra), args.algebra)
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
    report, status = _check(
        f, g, string_structures(_alphabet(args.alphabet), args.max_n), args,
        registry=box.languages)
    print(report.verdict_line())
    return status


def _agree(cases, same, show, flags):
    """Exit status of an oracle: prints `disagree` and show(case) for the
    first case where same(case) is false, else `agree`. No case at all is
    an EmptyRange naming the range flags."""
    for case in _nonempty(cases, flags):
        if not same(case):
            print(f"disagree {show(case)}")
            return EXIT_COUNTEREXAMPLE
    print("agree")
    return EXIT_OK


def _oracle_groupoid(args):
    magma, _ = parse_algebra(read_text(args.algebra), args.algebra)
    return _agree(
        words(range(magma.size), args.max_len, 1),
        lambda w: (groupoid_reachable(magma, w)
                   == brute_force_bracketings(magma, w)),
        lambda w: " ".join(magma.elements[i] for i in w),
        f"--max-len {args.max_len}")


def _oracle_cfg(args):
    cfg, _ = parse_cfg(read_text(args.grammar), args.grammar)
    wp, hom = cfg_to_groupoid(cfg)

    def same(word):
        slow = cyk_member_reference(cfg, word)
        return (word_problem_member(wp, [hom[a] for a in word]) == slow
                and cyk_member(cfg, word) == slow)
    return _agree(words(cfg.terminals, args.max_len, 0), same, "".join,
                  f"--max-len {args.max_len}")


def _oracle_dfa(args):
    dfa, _ = parse_dfa(read_text(args.dfa), args.dfa)
    wp, hom = regular_to_monoid(dfa)
    return _agree(
        words(dfa.alphabet, args.max_len, 0),
        lambda w: word_problem_member(wp, [hom[a] for a in w]) == dfa.run(w),
        "".join, f"--max-len {args.max_len}")


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
    cap = args.instance_cap

    def same(case):
        st, node = case
        fast = evaluate(st, node, registry=reg, instance_cap=cap)
        word = induced_word(st, {}, node, registry=reg, instance_cap=cap)
        return fast == language_member(reg[node.lang], word)
    # every closed quantifier node of every formula, on every structure
    nodes = [[node for node in walk_formulas(f)
              if isinstance(node, (LindFO, LindSO))
              and not any(free_variables(node))] for f in formulas]
    cases = ((st, node) for closed in nodes
             for st in string_structures(alphabet, args.max_n)
             for node in closed)
    if not alphabet:
        flags = f"--alphabet {args.alphabet}"
    elif args.formula:
        flags = f"--max-n {args.max_n}" if nodes[0] else "--formula"
    else:
        flags = f"--count {args.count} with --max-n {args.max_n}"
    return _agree(cases, same,
                  lambda case: f"{case[0]} {format_formula(case[1])}", flags)


# oracle -> (runner, the file flag it needs, if any)
_ORACLES = {
    "groupoid-reachable": (_oracle_groupoid, "algebra"),
    "cfg-groupoid": (_oracle_cfg, "grammar"),
    "dfa-monoid": (_oracle_dfa, "dfa"),
    "lind-eval": (_oracle_lind, None),
}


def cmd_oracle(args):
    run, flag = _ORACLES[args.what]
    if flag is not None and getattr(args, flag) is None:
        raise WordlogicError(f"oracle {args.what} needs --{flag}")
    return run(args)


@functools.cache
def build_parser():
    """The argument parser, built by the first call and shared after it."""
    ap = argparse.ArgumentParser(
        prog="wordlogic",
        description="generalized-quantifier logic over words: evaluation, "
                    "enumeration, translation, and oracle checks")
    sub = ap.add_subparsers(dest="command", required=True)
    # the flags shared by several subcommands, each declared once
    box = argparse.ArgumentParser(add_help=False)
    box.add_argument(
        "--toolbox", action="append", default=[],
        help="file or directory of language/automaton definitions")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--instance-cap", type=int, default=DEFAULT_INSTANCE_CAP)
    formula = argparse.ArgumentParser(add_help=False)
    formula.add_argument("--formula")
    formula.add_argument("--formula-file")

    p = sub.add_parser("eval", parents=[box, cap, formula],
                       help="evaluate a sentence on one structure")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--structure", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("enumerate", parents=[box, cap, formula],
                       help="list all satisfying strings up to a length")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("translate", parents=[box, cap, formula],
                       help="apply a formula translation and validate it")
    p.add_argument("--op", required=True, choices=_TRANSLATE_OPS)
    p.add_argument("--alphabet")
    p.add_argument("--constants")
    p.add_argument("--max-n", type=int, default=3)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("leaffa", parents=[box],
                       help="leaf-automaton membership against a language")
    p.add_argument("--automaton", required=True,
                   help="toolbox name or file path")
    p.add_argument("--language", required=True)
    p.add_argument("--structure", default="")
    p.add_argument("--leaf-cap", type=int, default=DEFAULT_LEAF_CAP)
    p.set_defaults(fn=cmd_leaffa)

    p = sub.add_parser("algebra-check",
                       help="load an algebra file and report its properties")
    p.add_argument("--algebra", required=True)
    p.set_defaults(fn=cmd_algebra_check)

    p = sub.add_parser("equiv", parents=[box, cap],
                       help="exhaustively compare two sentences")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--formula", required=True)
    p.add_argument("--formula2", required=True)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("oracle", parents=[box, cap],
                       help="compare a fast path against its brute-force twin")
    p.add_argument("what", choices=tuple(_ORACLES))
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
