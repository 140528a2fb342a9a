import argparse
import os

import pytest

from wordlogic import cli
from wordlogic.cli import EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_USAGE, main
from wordlogic.logic import MAX_NESTING
from wordlogic.sexpr import parse_formula

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    with open(os.path.join(GOLDEN, name + ".txt")) as fh:
        return fh.read()


def cases(data_dir):
    return {
        "eval_true": (EXIT_OK, [
            "eval", "--alphabet", "a,b", "--structure", "ab",
            "--formula", "(exists x (letter b x))"]),
        "eval_false": (EXIT_OK, [
            "eval", "--alphabet", "a,b", "--structure", "aa",
            "--formula", "(exists x (letter b x))"]),
        "enumerate": (EXIT_OK, [
            "enumerate", "--alphabet", "a,b", "--max-n", "2",
            "--formula", "(Q Lexists (x) (letter a x))"]),
        "translate_swap": (EXIT_OK, [
            "translate", "--op", "qstar-to-q1", "--alphabet", "a,b",
            "--max-n", "3",
            "--formula", "(Qstar Lmod2 1 (X) (exists x (in X x)))"]),
        "leaffa": (EXIT_OK, [
            "leaffa", "--toolbox", data_dir, "--automaton", "spawn",
            "--language", "Lmod2", "--structure", "aa"]),
        "algebra_check": (EXIT_OK, [
            "algebra-check", "--algebra", os.path.join(data_dir, "g4.alg")]),
        "equiv_ok": (EXIT_OK, [
            "equiv", "--alphabet", "a,b", "--max-n", "3",
            "--formula", "(exists x (letter a x))",
            "--formula2", "(not (forall x (letter b x)))"]),
        "equiv_counterexample": (EXIT_COUNTEREXAMPLE, [
            "equiv", "--alphabet", "a,b", "--max-n", "2",
            "--formula", "(exists x (letter a x))",
            "--formula2", "(forall x (letter a x))"]),
        "oracle_groupoid": (EXIT_OK, [
            "oracle", "groupoid-reachable",
            "--algebra", os.path.join(data_dir, "g4.alg"),
            "--max-len", "4"]),
        "oracle_lind": (EXIT_OK, [
            "oracle", "lind-eval", "--count", "5", "--max-n", "2",
            "--seed", "3"]),
        "translate_pad": (EXIT_OK, [
            "translate", "--op", "pad", "--max-n", "2",
            "--formula", "(Qstar Lmod2 2 (X) (exists x (in X x x)))"]),
        "translate_collapse": (EXIT_OK, [
            "translate", "--op", "arity-collapse", "--max-n", "2",
            "--formula",
            "(Qstar Lmod2 1 (X Y) (exists x (and (in X x) (not (in Y x)))))"]),
        "translate_tally_fwd": (EXIT_OK, [
            "translate", "--op", "tally-fwd", "--alphabet", "1,0",
            "--max-n", "3", "--formula",
            "(Qstar Lmod2 1 (X) (exists x (and (in X x) (letter 1 x))))"]),
        "translate_tally_bwd": (EXIT_OK, [
            "translate", "--op", "tally-bwd", "--max-n", "6",
            "--formula", "(Q Lmod2 (x) (exists y (< y x)))"]),
        "translate_const": (EXIT_OK, [
            "translate", "--op", "const-rewrite", "--constants", "c1,c2",
            "--max-n", "3",
            "--formula", "(exists x (and (< $c1 x) (< x $c2)))"]),
        "translate_exp": (EXIT_OK, [
            "translate", "--op", "exp", "--max-n", "3", "--formula",
            "(Qstar Lmod2 1 (X) (exists x (and (in X x) "
            "(or (letter b x) (< x max)))))"]),
    }


@pytest.mark.parametrize("name", [
    "eval_true", "eval_false", "enumerate", "translate_swap", "leaffa",
    "algebra_check", "equiv_ok", "equiv_counterexample", "oracle_groupoid",
    "oracle_lind"])
def test_golden(capsys, data_dir, name):
    want_code, argv = cases(data_dir)[name]
    code, out, err = run(capsys, argv)
    assert code == want_code
    assert out == golden(name)
    assert err == ""


@pytest.mark.parametrize("name", [
    "translate_pad", "translate_collapse", "translate_tally_fwd",
    "translate_tally_bwd", "translate_const", "translate_exp"])
def test_translation_golden(capsys, data_dir, name):
    # pins the printed target, including every fresh name, of each rewriter
    want_code, argv = cases(data_dir)[name]
    code, out, err = run(capsys, argv)
    assert code == want_code
    assert out == golden(name)
    assert err == ""


def test_formula_file_input(capsys, tmp_path):
    path = tmp_path / "f.sexpr"
    path.write_text("; a comment\n(exists x (letter a x))\n")
    code, out, _ = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "ba",
        "--formula-file", str(path)])
    assert code == EXIT_OK and out == "true\n"


def test_oracle_cfg_and_dfa(capsys, data_dir):
    code, out, _ = run(capsys, [
        "oracle", "cfg-groupoid",
        "--grammar", os.path.join(data_dir, "anbn.cfg"), "--max-len", "6"])
    assert code == EXIT_OK and out == "agree\n"
    code, out, _ = run(capsys, [
        "oracle", "dfa-monoid",
        "--dfa", os.path.join(data_dir, "ends_a.dfa"), "--max-len", "6"])
    assert code == EXIT_OK and out == "agree\n"


def test_oracle_cfg_groupoid_with_the_empty_word(capsys, tmp_path):
    # the grammar groupoid accepts its identity, the value of the empty
    # word alone, exactly when the grammar derives the empty word
    path = tmp_path / "g.cfg"
    path.write_text("start: S\nepsilon: true\nS -> A B\nA -> 'a'\n"
                    "B -> 'b'\n")
    code, out, _ = run(capsys, [
        "oracle", "cfg-groupoid", "--grammar", str(path), "--max-len", "3"])
    assert (code, out) == (EXIT_OK, "agree\n")


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "groupoid-reachable", "--max-len", "3"], "--algebra"),
    (["oracle", "cfg-groupoid", "--max-len", "3"], "--grammar"),
    (["oracle", "dfa-monoid", "--max-len", "3"], "--dfa"),
])
def test_oracle_without_its_file_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: oracle {argv[1]} needs {flag}\n"


def test_oracle_reports_the_first_disagreement(capsys, data_dir,
                                               monkeypatch):
    monkeypatch.setattr(cli, "groupoid_reachable", lambda m, w: frozenset())
    code, out, err = run(capsys, [
        "oracle", "groupoid-reachable",
        "--algebra", os.path.join(data_dir, "g4.alg"), "--max-len", "3"])
    assert (code, out, err) == (EXIT_COUNTEREXAMPLE, "disagree e\n", "")


@pytest.mark.parametrize("structure,want", [
    ("ba", (EXIT_OK, "true\n", "")),
    ("aa", (EXIT_OK, "false\n", "")),
    ("abc", (EXIT_USAGE, "", "error: letter 'c' not in alphabet ('a', 'b')\n")),
])
def test_alphabet_without_commas_is_one_letter_a_character(capsys, structure,
                                                           want):
    assert run(capsys, [
        "eval", "--alphabet", "ab", "--structure", structure,
        "--formula", "(exists x (letter b x))"]) == want


def test_missing_formula_is_usage_error(capsys):
    code, out, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "ab"])
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_syntax_error_reports_position(capsys):
    code, _, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "ab",
        "--formula", "(exists x (letter a x)"])
    assert code == EXIT_USAGE
    assert "error:" in err and "unclosed" in err


def test_unknown_language_is_usage_error(capsys):
    code, _, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "ab",
        "--formula", "(Q NoSuch (x) (true))"])
    assert code == EXIT_USAGE and "not registered" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, [
        "algebra-check", "--algebra", "/nonexistent/x.alg"])
    assert code == EXIT_USAGE and err.startswith("error:")


def test_format_error_carries_path(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("elements e a\n")
    code, _, err = run(capsys, ["algebra-check", "--algebra", str(bad)])
    assert code == EXIT_USAGE and "bad.alg" in err


# each file flag -> argv reading {file}, or the directory {dir} holding it
_FILE_FLAGS = {
    "--formula-file": ["eval", "--alphabet", "a,b", "--structure", "ab",
                       "--formula-file", "{file}"],
    "--toolbox file": ["eval", "--alphabet", "a,b", "--structure", "ab",
                       "--formula", "(true)", "--toolbox", "{file}"],
    "--toolbox directory": ["eval", "--alphabet", "a,b", "--structure", "ab",
                            "--formula", "(true)", "--toolbox", "{dir}"],
    "leaffa --automaton": ["leaffa", "--automaton", "{file}",
                           "--language", "Lmod2"],
    "algebra-check --algebra": ["algebra-check", "--algebra", "{file}"],
    "oracle --algebra": ["oracle", "groupoid-reachable", "--algebra",
                         "{file}"],
    "oracle --grammar": ["oracle", "cfg-groupoid", "--grammar", "{file}"],
    "oracle --dfa": ["oracle", "dfa-monoid", "--dfa", "{file}"],
}


@pytest.mark.parametrize("flag", list(_FILE_FLAGS))
def test_file_not_utf8_is_usage_error(capsys, tmp_path, flag):
    bad = tmp_path / "bad.dfa"
    bad.write_bytes(b"\xff\xfe(true)\n")
    argv = [a.format(file=bad, dir=tmp_path) for a in _FILE_FLAGS[flag]]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: {bad}: 'utf-8' codec can't decode byte 0xff in "
                   f"position 0: invalid start byte\n")
    assert "Traceback" not in err


def test_translate_with_toolbox_language(capsys, tmp_path):
    # collapse against a language loaded from a toolbox directory
    (tmp_path / "ones.dfa").write_text(
        "states: q0 q1\nalphabet: 1 0\nstart: q0\nfinals: q1\n"
        "trans: q0 1 q1\ntrans: q0 0 q0\ntrans: q1 1 q1\ntrans: q1 0 q1\n"
        "neutral: 0\n")
    code, out, _ = run(capsys, [
        "translate", "--op", "arity-collapse", "--toolbox", str(tmp_path),
        "--alphabet", "a,b", "--max-n", "2",
        "--formula", "(Qstar ones 1 (X) (exists x (in X x)))"])
    # "0" really is neutral for this language, so this validates cleanly
    assert code == EXIT_OK and "verdict: equivalent" in out


def test_translate_counterexample_exits_one(capsys, monkeypatch):
    # a translation whose target differs from its source: the check finds
    # the difference, and the report says where
    monkeypatch.setattr(cli, "q_star_to_q1",
                        lambda f: parse_formula("(exists x (letter a x))"))
    code, out, err = run(capsys, [
        "translate", "--op", "qstar-to-q1", "--max-n", "2",
        "--formula", "(Qstar Lexists 1 (X) (in X min))"])
    assert (code, err) == (EXIT_COUNTEREXAMPLE, "")
    lines = out.splitlines()
    assert lines[0] == "(exists x (letter a x))"
    assert lines[1] == "source: (Qstar Lexists 1 (X) (in X min))"
    assert lines[2] == "target: " + lines[0]
    assert lines[-1] == "verdict: counterexample b {}"


def test_tally_translation_refuses_a_false_neutral_letter(capsys, tmp_path):
    # 0 is declared neutral but is not: a word ending in 0 is rejected.
    # The tally translations check the declaration, as arity-collapse does
    (tmp_path / "Ends1.dfa").write_text(
        "states: q0 q1\nalphabet: 1 0\nstart: q0\nfinals: q1\n"
        "trans: q0 1 q1\ntrans: q0 0 q0\ntrans: q1 1 q1\ntrans: q1 0 q0\n"
        "neutral: 0\n")
    code, out, err = run(capsys, [
        "translate", "--op", "tally-fwd", "--toolbox", str(tmp_path),
        "--max-n", "3", "--formula", "(Qstar Ends1 1 (X) (in X min))"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: Ends1: letter '0' fails the bounded neutrality check\n"


def test_neutral_check_fits_five_letters(capsys, tmp_path):
    # words of length 9 over five letters exceed the table cap, so the
    # neutrality check stops at length 7 instead of refusing the language
    (tmp_path / "HasA.dfa").write_text(
        "states: p q\nalphabet: a b c d e\nstart: p\nfinals: q\n"
        + "".join(f"trans: p {x} {'q' if x == 'a' else 'p'}\n"
                  for x in "abcde")
        + "".join(f"trans: q {x} q\n" for x in "abcde") + "neutral: e\n")
    code, out, err = run(capsys, [
        "translate", "--op", "arity-collapse", "--toolbox", str(tmp_path),
        "--max-n", "2", "--formula",
        "(Qstar HasA 1 (X Y) (in X min) (in Y max) (false) (true))"])
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1] == "verdict: equivalent"


# a language file whose letters are not single characters
_LONG_LETTERS = {
    ".dfa alphabet": ("lastaa.dfa", "states: p q\nalphabet: a aa\nstart: p\n"
                      "finals: q\ntrans: p a p\ntrans: p aa q\n"
                      "trans: q a p\ntrans: q aa q\n", "'aa'"),
    ".cfg terminal": ("two.cfg", "start: S\nS -> 'ab'\n", "'ab'"),
    ".alg elements": ("z2.alg", "elements: id g\nidentity: id\ntable:\n"
                      "id g\ng id\naccept: g\n", "'id'"),
}


@pytest.mark.parametrize("kind", list(_LONG_LETTERS))
def test_language_letters_longer_than_one_character_are_refused(
        capsys, tmp_path, kind):
    # an induced word is read a character at a time, so a longer letter
    # would give wrong verdicts
    name, text, letter = _LONG_LETTERS[kind]
    (tmp_path / name).write_text(text)
    code, out, err = run(capsys, [
        "eval", "--toolbox", str(tmp_path / name), "--alphabet", "a,b",
        "--structure", "ba", "--formula", "(Q lastaa (x) (letter b x))"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert f"letter {letter} is not one character" in err


def test_algebra_check_accepts_element_names_of_any_length(capsys, tmp_path):
    name, text, _ = _LONG_LETTERS[".alg elements"]
    (tmp_path / name).write_text(text)
    assert run(capsys, ["algebra-check", "--algebra", str(tmp_path / name)]) \
        == (EXIT_OK, "elements: 2\nidentity: id\nassociative: true\n"
                     "accept: g\n", "")


def test_repeated_main_calls_share_no_state(capsys, tmp_path):
    # main reuses one parser: no call may see another's options
    (tmp_path / "ones.dfa").write_text(
        "states: q0 q1\nalphabet: 1 0\nstart: q0\nfinals: q1\n"
        "trans: q0 1 q1\ntrans: q0 0 q0\ntrans: q1 1 q1\ntrans: q1 0 q1\n")
    ones = ["eval", "--alphabet", "a,b", "--structure", "ab",
            "--formula", "(Q ones (x) (letter b x))"]
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for _ in range(2):
        assert run(capsys, ones[:1] + ["--toolbox", str(tmp_path)] + ones[1:]) \
            == (EXIT_OK, "true\n", "")
        code, out, err = run(capsys, ones)
        assert code == EXIT_USAGE and out == "" and "ones" in err
        with pytest.raises(SystemExit) as exc:
            main(ones + ["--bogus"])
        assert exc.value.code == EXIT_USAGE
        assert "--bogus" in capsys.readouterr().err
        assert run(capsys, cases(str(tmp_path))["eval_true"][1]) \
            == (EXIT_OK, golden("eval_true"), "")
        with pytest.raises(SystemExit):
            main(["--help"])
        assert capsys.readouterr().out == usage


def test_leaffa_takes_no_instance_cap(capsys, data_dir):
    # leaffa bounds its work by --leaf-cap alone
    with pytest.raises(SystemExit) as exc:
        main(["leaffa", "--toolbox", data_dir, "--automaton", "spawn",
              "--language", "Lmod2", "--structure", "aa",
              "--instance-cap", "5"])
    assert exc.value.code == EXIT_USAGE
    assert "--instance-cap" in capsys.readouterr().err


_BOX = {"toolbox": (("--toolbox",), [], False, None)}
_CAP = {"instance_cap": (("--instance-cap",), 16777216, False, None)}
_FORMULA = {"formula": (("--formula",), None, False, None),
            "formula_file": (("--formula-file",), None, False, None)}
_OPS = ("qstar-to-q1", "q1-to-qstar", "arity-collapse", "pad", "tally-fwd",
        "tally-bwd", "const-rewrite", "const-unrewrite", "exp", "exp-rev")
# subcommand -> dest -> (option strings, default, required, choices)
_PARSER = {
    "eval": {**_BOX, **_CAP, **_FORMULA,
             "alphabet": (("--alphabet",), None, True, None),
             "structure": (("--structure",), None, True, None)},
    "enumerate": {**_BOX, **_CAP, **_FORMULA,
                  "alphabet": (("--alphabet",), None, True, None),
                  "max_n": (("--max-n",), 4, False, None)},
    "translate": {**_BOX, **_CAP, **_FORMULA,
                  "op": (("--op",), None, True, _OPS),
                  "alphabet": (("--alphabet",), None, False, None),
                  "constants": (("--constants",), None, False, None),
                  "max_n": (("--max-n",), 3, False, None)},
    "leaffa": {**_BOX,
               "automaton": (("--automaton",), None, True, None),
               "language": (("--language",), None, True, None),
               "structure": (("--structure",), "", False, None),
               "leaf_cap": (("--leaf-cap",), 65536, False, None)},
    "algebra-check": {"algebra": (("--algebra",), None, True, None)},
    "equiv": {**_BOX, **_CAP,
              "alphabet": (("--alphabet",), None, True, None),
              "max_n": (("--max-n",), 3, False, None),
              "formula": (("--formula",), None, True, None),
              "formula2": (("--formula2",), None, True, None)},
    "oracle": {**_BOX, **_CAP,
               "what": ((), None, True, ("groupoid-reachable", "cfg-groupoid",
                                         "dfa-monoid", "lind-eval")),
               "algebra": (("--algebra",), None, False, None),
               "grammar": (("--grammar",), None, False, None),
               "dfa": (("--dfa",), None, False, None),
               "formula": (("--formula",), None, False, None),
               "alphabet": (("--alphabet",), "a,b", False, None),
               "max_len": (("--max-len",), 6, False, None),
               "max_n": (("--max-n",), 3, False, None),
               "count": (("--count",), 20, False, None),
               "seed": (("--seed",), 0, False, None)},
}


def test_parser_options_snapshot():
    # every subcommand's flags and defaults, in no particular order
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {a.dest: (tuple(a.option_strings), a.default, a.required,
                           a.choices and tuple(a.choices))
                  for a in p._actions
                  if not isinstance(a, argparse._HelpAction)}
           for name, p in sub.choices.items()}
    assert got == _PARSER


def test_eval_long_conjunction(capsys):
    # the parser nests (and ...) 3000 levels deep; evaluation flattens it
    code, out, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "ab",
        "--formula", "(and" + " (true)" * 3000 + ")"])
    assert (code, out, err) == (EXIT_OK, "true\n", "")


def test_translate_long_conjunction_is_usage_error(capsys):
    # translation and printing recurse once per binary And level
    code, out, err = run(capsys, [
        "translate", "--op", "qstar-to-q1", "--alphabet", "a,b",
        "--max-n", "1", "--formula", "(and" + " (true)" * 3000 + ")"])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "nests deeper" in err


def test_eval_too_deep_is_usage_error(capsys):
    depth = MAX_NESTING + 1
    code, out, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "ab",
        "--formula", "(not " * depth + "(true)" + ")" * depth])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "nests deeper" in err


def test_eval_deep_formula_is_refused_by_the_parser(capsys):
    # deep enough that a recursive reader would exhaust the Python stack
    depth = 1500
    code, out, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "ab",
        "--formula", "(not " * depth + "(true)" + ")" * depth])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "nests deeper" in err


def test_leaffa_long_word_folds(capsys, tmp_path):
    # the doubler has 2^1000 leaves on a^1000: a DFA leaf language folds
    # them, a word problem still refuses more leaves than --leaf-cap
    path = tmp_path / "doubler.leaf"
    path.write_text("states: s\ninput: a\nleaf: 1\nstart: s\nbeta: s 1\n"
                    "delta: s a -> s s\n")
    argv = ["leaffa", "--automaton", str(path), "--structure", "a" * 1000]
    assert run(capsys, argv + ["--language", "Lexists"]) == (EXIT_OK, "true\n", "")
    code, out, err = run(capsys, argv + ["--language", "Lmod2"])
    assert code == EXIT_USAGE and out == "" and err.startswith("error:")


def test_equiv_long_conjunction(capsys):
    # free_variables walks the 3000-level chain without recursion
    code, out, err = run(capsys, [
        "equiv", "--alphabet", "a,b", "--max-n", "1", "--formula", "(true)",
        "--formula2", "(and" + " (true)" * 3000 + ")"])
    assert (code, out, err) == (EXIT_OK, "verdict: equivalent\n", "")


def test_translate_tally_fwd_reads_binary_strings(capsys):
    argv = ["translate", "--op", "tally-fwd", "--max-n", "2", "--formula",
            "(Qstar Lmod2 1 (X) (exists x (and (in X x) (letter 1 x))))"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK and err == ""
    assert out.endswith("verdict: equivalent\n")
    code, out, err = run(capsys, argv + ["--alphabet", "a,b"])
    assert code == EXIT_USAGE and err.startswith("error:")
    assert "binary alphabet" in err


def test_translate_pad_nested_quantifier_is_usage_error(capsys):
    code, out, err = run(capsys, [
        "translate", "--op", "pad", "--max-n", "2", "--formula",
        "(Qstar Lexists 2 (X) (Q Lexists (y) (in X y y)))"])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "nested" in err


@pytest.mark.parametrize("formula", [
    # an index past the width
    "(existsSO A (existsSO B (exists x "
    "(shuffle-bit to_interleaved 5 2 x (A B)))))",
    # a width the set list disagrees with
    "(existsSO A (shuffle-bit to_interleaved 0 3 min (A)))",
])
def test_eval_bad_shuffle_bit_is_usage_error(capsys, formula):
    code, out, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "a", "--formula", formula])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("formula", [
    "(exists x (in x x))",                      # a position read as a relation
    "(existsSO X (letter a X))",                # a relation read as a position
    "(existsSO X (exists y (plus X y y)))",
])
def test_eval_name_of_the_wrong_kind_is_usage_error(capsys, formula):
    code, out, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "ab", "--formula", formula])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_translate_failed_check_prints_no_target(capsys):
    code, out, err = run(capsys, [
        "translate", "--op", "exp", "--max-n", "6",
        "--formula", "(exists x (letter a x))"])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "exponent cap" in err


def test_eval_huge_arity_is_usage_error(capsys):
    code, out, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "ab",
        "--formula", "(Q1 Lexists 5000000000000 (X) (true))"])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "instances exceed the cap" in err


def test_eval_huge_arity_on_one_element_is_usage_error(capsys):
    code, out, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "a",
        "--formula", "(Q1 Lexists 5000000000000 (X) (true))"])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "tuples of arity 5000000000000 exceed the cap" in err


def test_eval_huge_arity_under_a_huge_cap_is_usage_error(capsys):
    # the code layout is built in memory, so the default cap bounds it
    # whatever --instance-cap says
    code, out, err = run(capsys, [
        "eval", "--alphabet", "a,b", "--structure", "a",
        "--instance-cap", "1000000000000000000000",
        "--formula", "(Q1 Lexists 5000000000000 (X) (true))"])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "tuples of arity 5000000000000 exceed the cap 16777216" in err


@pytest.mark.parametrize("op", ["exp", "pad", "tally-fwd"])
def test_translate_min_max_names_skip_the_formula_names(capsys, op):
    # the formula binds _min0, the first name drawn for its min
    code, out, err = run(capsys, [
        "translate", "--op", op, "--max-n", "3", "--formula",
        "(Qstar Lexists 1 (X) (exists _min0 (and (in X _min0) "
        "(< min _min0))))"])
    assert (code, err) == (EXIT_OK, "")
    assert "_min1" in out and out.endswith("verdict: equivalent\n")


def test_translate_swap_keeps_a_shadowing_existsso(capsys):
    code, out, err = run(capsys, [
        "translate", "--op", "qstar-to-q1", "--max-n", "3", "--formula",
        "(Qstar Lmod2 1 (X Y) (or (in Y min) "
        "(existsSO X (exists x (and (in X x) (letter a x))))))"])
    assert (code, err) == (EXIT_OK, "")
    # Y's atom is permuted; X's is not, since existsSO X rebinds it
    assert out.splitlines()[0] == (
        "(Q1 Lmod2 1 (X Y) (or (shuffle-bit to_interleaved 1 2 min (X Y)) "
        "(existsSO X (exists x (and (in X x) (letter a x))))))")
    assert out.endswith("verdict: equivalent\n")


def test_equiv_counterexample_prints_the_assignment(capsys):
    code, out, err = run(capsys, [
        "equiv", "--alphabet", "a,b", "--max-n", "1",
        "--formula", "(and (in Y min) (letter b min))", "--formula2", "(false)"])
    assert (code, out, err) == (
        EXIT_COUNTEREXAMPLE, "verdict: counterexample b {Y={0}}\n", "")


@pytest.mark.parametrize("argv,want", [
    (["--op", "q1-to-qstar", "--max-n", "3",
      "--formula", "(Q1 Lmod2 1 (X) (exists x (in X x)))"],
     "(Qstar Lmod2 1 (X) (exists x (shuffle-bit to_concatenated 0 1 x (X))))\n"
     "source: (Q1 Lmod2 1 (X) (exists x (in X x)))\n"
     "target: (Qstar Lmod2 1 (X) (exists x (shuffle-bit to_concatenated 0 1 x "
     "(X))))\nmapper: identity\nrange: n <= 3\nverdict: equivalent\n"),
    (["--op", "const-unrewrite", "--constants", "c1,c2",
      "--formula", "(exists x (and (letter s1 x) (forall y (< y x))))"],
     "(exists x (and (and (= $c1 x) (not (= $c2 x))) (forall y (< y x))))\n"),
    (["--op", "exp-rev", "--formula", "(Q Lexists (x) (< $c_a x))"],
     "(Qstar Lexists 1 (x) (exists _z0 (and (not (letter a _z0)) (and "
     "(in x _z0) (forall _u1 (or (not (< _u1 _z0)) (and (or (not "
     "(letter a _u1)) (in x _u1)) (or (not (in x _u1)) "
     "(letter a _u1)))))))))\n"),
])
def test_translate_ops_without_a_golden(capsys, argv, want):
    assert run(capsys, ["translate"] + argv) == (EXIT_OK, want, "")


@pytest.mark.parametrize("consts,message", [
    ("c,c", "duplicate constant name 'c'"),
    ("c,,d", "empty constant name"),
])
def test_translate_const_names_are_checked(capsys, consts, message):
    # a repeated name would check structures twice, an empty one admit a
    # constant no formula can name
    assert run(capsys, [
        "translate", "--op", "const-rewrite", "--constants", consts,
        "--max-n", "2", "--formula", "(= $c $c)"]) == \
        (EXIT_USAGE, "", f"error: {message}\n")


def test_const_unrewrite_refuses_a_letter_that_is_no_subset_letter(capsys):
    code, out, err = run(capsys, [
        "translate", "--op", "const-unrewrite", "--constants", "c",
        "--formula", "(letter s² x)"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_pad_maps_multi_character_letters(capsys):
    code, out, err = run(capsys, [
        "translate", "--op", "pad", "--alphabet", "ab,cd", "--max-n", "2",
        "--formula", "(Qstar Lmod2 2 (X) (exists x (and (in X x x) "
        "(letter ab x))))"])
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith("verdict: equivalent\n")


_EMPTY_RANGES = [
    (["equiv", "--alphabet", "a,b", "--max-n", "0", "--formula", "(true)",
      "--formula2", "(false)"], "--max-n 0"),
    (["equiv", "--alphabet", "a,b", "--max-n", "-3", "--formula", "(true)",
      "--formula2", "(false)"], "--max-n -3"),
    (["translate", "--op", "qstar-to-q1", "--max-n", "0",
      "--formula", "(Qstar Lmod2 1 (X) (exists x (in X x)))"], "--max-n 0"),
    # arity collapse is checked from n = 2 on
    (["translate", "--op", "arity-collapse", "--max-n", "1", "--formula",
      "(Qstar Lmod2 1 (X Y) (exists x (and (in X x) (in Y x))))"],
     "--max-n 1"),
    (["translate", "--op", "tally-bwd", "--max-n", "0",
      "--formula", "(Q Lmod2 (x) (exists y (< y x)))"], "--max-n 0"),
    (["translate", "--op", "const-rewrite", "--constants", "c1",
      "--max-n", "0", "--formula", "(exists x (< $c1 x))"], "--max-n 0"),
    (["oracle", "groupoid-reachable", "--algebra", "{data}/g4.alg",
      "--max-len", "0"], "--max-len 0"),
    (["oracle", "cfg-groupoid", "--grammar", "{data}/anbn.cfg",
      "--max-len", "-1"], "--max-len -1"),
    (["oracle", "dfa-monoid", "--dfa", "{data}/ends_a.dfa",
      "--max-len", "-1"], "--max-len -1"),
    (["oracle", "lind-eval", "--count", "0"], "--count 0 with --max-n 3"),
    (["oracle", "lind-eval", "--max-n", "0"], "--count 20 with --max-n 0"),
    (["oracle", "lind-eval", "--max-n", "0",
      "--formula", "(Q Lexists (x) (letter a x))"], "--max-n 0"),
    # no letter, so no structure: random formulas offer no letter atom
    (["oracle", "lind-eval", "--count", "2", "--alphabet", ","],
     "--alphabet ,"),
    # no closed quantifier node, whatever the range
    (["oracle", "lind-eval", "--formula", "(exists x (letter a x))"],
     "--formula"),
]


@pytest.mark.parametrize("argv, flags", _EMPTY_RANGES, ids=[
    f"{argv[0]} {argv[2] if argv[1] == '--op' else argv[1]} {flags}"
    for argv, flags in _EMPTY_RANGES])
def test_range_with_nothing_to_check_is_usage_error(capsys, data_dir, argv,
                                                    flags):
    # a verdict over no structure or word would report what it never tested
    argv = [a.replace("{data}", data_dir) for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: nothing to check under {flags}\n"
