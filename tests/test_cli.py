import os

import pytest

from wordlogic.cli import EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_USAGE, main
from wordlogic.logic import MAX_NESTING

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
