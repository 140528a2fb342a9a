"""Span recorder for the traced benchmark run.

The tracer wraps wordlogic's public entry points from outside, at each place
a calling module looks the function up (``logic.language_member``,
``translate.evaluate``, ``Dfa.run``, ...), so no library code changes. Every
call becomes a span (name, start, end, parent) kept in memory; per-layer
metrics are computed from the spans after the run. A call made while a span
of the same name is open (recursion, or one rewrite calling another) is
passed through unrecorded, so counts and times are of outermost calls only.
"""

from __future__ import annotations

import time
from collections import Counter

from wordlogic import algebra, cli, formats, leafauto, logic, sexpr, translate

REWRITES = ("q_star_to_q1", "q1_to_q_star", "arity_collapse", "pad_translate",
            "tally_translate_fwd", "tally_translate_bwd", "const_rewrite",
            "const_unrewrite", "exp_translate", "exp_translate_rev")

BACKENDS = ("dfa", "monoid", "groupoid", "cyk")

# Ops whose language is carried by a grammar or a non-associative groupoid;
# the share of their time spent in those two backends is reported.
HEAVY_BACKEND_KINDS = ("cfg", "groupoid")


def _count_induced(counts, args, result):
    n = len(args[1])
    counts["logic.induced_letters"] += n
    counts["logic.induced_max_len"] = max(counts["logic.induced_max_len"], n)


def _count_letters(backend):
    key = f"algebra.{backend}_letters"

    def count(counts, args, result):
        counts[key] += len(args[1])
    return count


def _count_target_nodes(counts, args, result):
    target = result[0] if isinstance(result, tuple) else result
    counts["translate.target_nodes"] += sum(1 for _ in logic.walk_formulas(target))


def _count_leaves(counts, args, result):
    counts["leafauto.leaves"] += leafauto.leaf_count(args[0], args[2])


def entry_points():
    """(span name, [(owner, attribute)], count hook) for every wrapped call."""
    return [
        ("logic.evaluate", [(logic, "evaluate"), (translate, "evaluate"),
                            (cli, "evaluate")], None),
        ("logic.unrank", [(logic, "instance_unrank")], None),
        ("algebra.member", [(logic, "language_member")], _count_induced),
        ("algebra.member", [(algebra, "language_member"),
                            (translate, "language_member"),
                            (leafauto, "language_member"),
                            (cli, "language_member")], None),
        ("algebra.dfa", [(algebra.Dfa, "run")], _count_letters("dfa")),
        ("algebra.monoid", [(algebra, "monoid_word_eval"),
                            (cli, "monoid_word_eval")], _count_letters("monoid")),
        ("algebra.groupoid", [(algebra, "groupoid_reachable"),
                              (cli, "groupoid_reachable")],
         _count_letters("groupoid")),
        ("algebra.cyk", [(algebra, "cyk_member"), (cli, "cyk_member")],
         _count_letters("cyk")),
        ("algebra.property_check", [(algebra, "is_neutral_letter_bounded"),
                                    (algebra, "is_symmetric_bounded"),
                                    (translate, "is_neutral_letter_bounded")],
         None),
        ("translate.rewrite", [(mod, name) for mod in (translate, cli)
                               for name in REWRITES], _count_target_nodes),
        ("translate.check", [(translate, "check_equivalence"),
                             (cli, "check_equivalence")], None),
        ("leafauto.member", [(leafauto, "leaffa_member"),
                             (cli, "leaffa_member")], _count_leaves),
        ("leafauto.materialize", [(leafauto, "leaf_string"),
                                  (cli, "leaf_string")], None),
        ("sexpr.parse", [(sexpr, "parse_formula"), (cli, "parse_formula")], None),
        ("sexpr.format", [(sexpr, "format_formula"), (cli, "format_formula")],
         None),
        ("formats.load", [(formats, "load_toolbox"), (cli, "load_toolbox")], None),
        ("cli.main", [(cli, "main")], None),
    ]


# name -> unit, in report order
PER_LAYER = {
    "logic.evaluate_calls": "count",
    "logic.evaluate_s": "s",
    "logic.eval_self_s": "s",
    "logic.eval_self_share": "ratio",
    "logic.instances": "count",
    "logic.unrank_s": "s",
    "logic.induced_letters": "count",
    "logic.induced_max_len": "count",
    "algebra.member_calls": "count",
    "algebra.member_s": "s",
    "algebra.member_backend_calls": "count",
    "algebra.member_cache_hit_ratio": "ratio",
    **{f"algebra.{b}_{what}": unit for b in BACKENDS
       for what, unit in (("calls", "count"), ("s", "s"), ("letters", "count"))},
    "algebra.backend_share_cfg_groupoid_ops": "ratio",
    "algebra.property_check_s": "s",
    "translate.rewrite_s": "s",
    "translate.target_nodes": "count",
    "translate.check_s": "s",
    "leafauto.member_calls": "count",
    "leafauto.member_s": "s",
    "leafauto.materialize_s": "s",
    "leafauto.leaves": "count",
    "sexpr.parse_calls": "count",
    "sexpr.parse_s": "s",
    "sexpr.format_s": "s",
    "formats.load_s": "s",
    "cli.main_calls": "count",
    "cli.main_s": "s",
    "trace.ops": "count",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.op_kinds: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name; returns (span index, result)."""
        if self._open[name]:
            return -1, fn(*args, **kwargs)
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._open[name] += 1
        self.starts.append(time.perf_counter())
        try:
            return idx, fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()

    def run_op(self, kind, fn, *args):
        """Root span for one benchmark op."""
        idx = len(self.names)
        self.op_kinds[idx] = kind
        return self.call("op", fn, *args)[1]

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx, result = self.call(name, fn, *args, **kwargs)
            if count is not None and idx >= 0:
                count(self.counts, args, result)
            return result
        return traced

    def __enter__(self):
        for name, targets, count in entry_points():
            for owner, attr in targets:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def calls(self) -> Counter:
        return Counter(self.names)

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metrics (name -> value) from the recorded spans."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += dur[i]
                root[i] = root[p]
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, name in enumerate(self.names):
            total[name] += dur[i]
            self_time[name] += dur[i] - child_time[i]
            calls[name] += 1
        backend_names = {f"algebra.{b}" for b in BACKENDS}
        backend_under_member = sum(
            1 for i, name in enumerate(self.names)
            if name in backend_names and self.parents[i] >= 0
            and self.names[self.parents[i]] == "algebra.member")
        heavy_ops = {i for i, kind in self.op_kinds.items()
                     if kind in HEAVY_BACKEND_KINDS}
        heavy_op_s = sum(dur[i] for i in heavy_ops)
        heavy_backend_s = sum(
            dur[i] for i, name in enumerate(self.names)
            if name in ("algebra.cyk", "algebra.groupoid") and root[i] in heavy_ops)
        member_calls = calls["algebra.member"]

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        out = {
            "logic.evaluate_calls": calls["logic.evaluate"],
            "logic.evaluate_s": total["logic.evaluate"],
            "logic.eval_self_s": self_time["logic.evaluate"],
            "logic.eval_self_share": ratio(self_time["logic.evaluate"], total["op"]),
            "logic.instances": calls["logic.unrank"],
            "logic.unrank_s": total["logic.unrank"],
            "logic.induced_letters": c["logic.induced_letters"],
            "logic.induced_max_len": c["logic.induced_max_len"],
            "algebra.member_calls": member_calls,
            "algebra.member_s": total["algebra.member"],
            "algebra.member_backend_calls": backend_under_member,
            "algebra.member_cache_hit_ratio":
                1.0 - ratio(backend_under_member, member_calls) if member_calls else 0.0,
        }
        for b in BACKENDS:
            out[f"algebra.{b}_calls"] = calls[f"algebra.{b}"]
            out[f"algebra.{b}_s"] = total[f"algebra.{b}"]
            out[f"algebra.{b}_letters"] = c[f"algebra.{b}_letters"]
        out.update({
            "algebra.backend_share_cfg_groupoid_ops": ratio(heavy_backend_s, heavy_op_s),
            "algebra.property_check_s": total["algebra.property_check"],
            "translate.rewrite_s": total["translate.rewrite"],
            "translate.target_nodes": c["translate.target_nodes"],
            "translate.check_s": total["translate.check"],
            "leafauto.member_calls": calls["leafauto.member"],
            "leafauto.member_s": total["leafauto.member"],
            "leafauto.materialize_s": total["leafauto.materialize"],
            "leafauto.leaves": c["leafauto.leaves"],
            "sexpr.parse_calls": calls["sexpr.parse"],
            "sexpr.parse_s": total["sexpr.parse"],
            "sexpr.format_s": total["sexpr.format"],
            "formats.load_s": total["formats.load"],
            "cli.main_calls": calls["cli.main"],
            "cli.main_s": total["cli.main"],
            "trace.ops": calls["op"],
            "trace.op_s": total["op"],
            "trace.overhead_ratio": overhead_ratio,
        })
        return out
