"""The benchmark's own test.

Smoke mode runs each workload at tiny size, untraced and traced, and checks
that every metric named in BENCHMARK.json is reported with its unit. The
other tests cross-check the expectations the benchmark judges verdicts by
against the library's brute-force twins, at sizes where those run.

    python3 -m pytest perfbench/test_perfbench.py
"""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wordlogic import algebra, leafauto, logic, sexpr  # noqa: E402


@pytest.fixture(scope="module")
def box():
    return run.set_up()


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_code():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    bench = _bench()
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_exits_nonzero_outside_a_checkout(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-words", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert out.stdout == ""


def test_blocks_repeat_per_seed(box):
    reg = run.set_up().languages
    for cls in workloads.WORKLOADS.values():
        a = cls(3, box, run.DATA, smoke=True).block(0)
        b = cls(3, box, run.DATA, smoke=True).block(0)
        assert [op.kind for op in a] == [op.kind for op in b]
        # each op of the second copy meets the first copy's expectation
        assert all(x.check(y.run(reg)) for x, y in zip(a, b)), cls.name


def test_g4_expectation_matches_bracketings(box):
    spec = box.languages["g4"]
    magma = spec.body.magma
    prod = workloads.mask_products(magma.table)
    rng = random.Random(4)
    for length in range(1, 129):
        for _ in range(3 if length <= algebra.BRACKETING_CAP else 1):
            elems = [rng.randrange(magma.size) for _ in range(length)]
            got = workloads.reachable_mask(prod, elems)
            if length <= 9:
                brute = algebra.brute_force_bracketings(magma, elems)
                assert got == sum(1 << x for x in brute), elems
            if length <= 48 or length % 16 == 0:
                fast = algebra.groupoid_reachable(magma, elems)
                assert got == sum(1 << x for x in fast), elems


@pytest.mark.parametrize("lang", sorted(workloads.CONTEXT_FREE))
def test_context_free_readings_match_the_grammar(box, lang):
    spec = box.languages[lang]
    wp, hom = algebra.cfg_to_groupoid(spec.body)
    direct = workloads.CONTEXT_FREE[lang]
    for length in range(0, 9):
        for w in itertools.product(spec.alphabet, repeat=length):
            want = direct("".join(w))
            assert algebra.word_problem_member(wp, [hom[a] for a in w]) == want, w
            assert algebra.cyk_member(spec.body, w) == want, w


def test_induced_letters_match_the_library(box):
    reg = box.languages
    rng = random.Random(5)
    for template, pred in workloads.TEMPLATES.items():
        for lang in ("Maj", "parens", "g4"):
            for quant in ("Qstar", "Q1"):
                args = " ".join([template] * (reg[lang].size - 1))
                node = sexpr.parse_formula(f"({quant} {lang} 1 (X) {args})", reg)
                for n in range(1, 6):
                    word = "".join(rng.choice("ab") for _ in range(n))
                    st = logic.StringStructure(workloads.AB, tuple(word))
                    want = logic.induced_word(st, {}, node, registry=reg)
                    got = workloads.induced_letters([pred], reg[lang].alphabet, word)
                    assert "".join(got) == want, (template, word)


def test_leaf_letter_counts_match_leaf_strings():
    rng = random.Random(9)
    for _ in range(200):
        M = workloads.random_leaf_automaton(rng)
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
        s = leafauto.leaf_string(M, w)
        counts = workloads.leaf_letter_counts(M, w)
        assert counts == {x: s.count(x) for x in M.leaf_alphabet}
