"""wordlogic benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: translate-check, long-words, leaf-trees, short-ops (see
perfbench/README.md). The seed fixes every input and the op order.

--trace 0 runs whole blocks of ops until S seconds have passed and at least
100 ops are done, and reports the end-to-end metrics. --trace 1 runs the
workload's fixed number of blocks twice, untraced and then traced, each on a
fresh registry, and reports the per-layer metrics from the traced pass.

Every op's verdict is checked; a wrong verdict or an exception counts as a
failed op and the run continues. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "tests", "data")

SETUP_PROBES = 5
MIN_OPS = 100
HARD_STOP_S = 150.0

# Host speed on a shared machine drifts by +-20% over seconds. A fixed
# pure-Python probe runs between ops (after any op over PROBE_AFTER_S, and at
# least every PROBE_GAP_S); each op's time is scaled by REF_PROBE_S over the
# median of the four probes around it, i.e. reported at the speed of a host
# where the probe takes REF_PROBE_S.
REF_PROBE_S = 0.002
PROBE_AFTER_S = 0.02
PROBE_GAP_S = 0.1

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def use_checkout():
    """Put the checkout's src/ first on the path, or exit if it is missing."""
    missing = [p for p in (os.path.join(SRC, "wordlogic", "__init__.py"), DATA)
               if not os.path.exists(p)]
    if missing:
        sys.exit("perfbench: not a wordlogic checkout; missing " + ", ".join(missing))
    sys.path.insert(0, SRC)


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(15000):
        table[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def set_up():
    """What a user pays before the first op: import wordlogic, load the
    toolbox, and build the language registry."""
    from wordlogic import algebra, builtins, formats
    box = formats.load_toolbox([DATA])
    reg = box.languages
    reg["MajPad"] = algebra.pad_language(reg["Maj"], "#", name="MajPad")
    reg["LmodOdd"] = algebra.LanguageSpec(
        "LmodOdd", ("1", "0"), algebra.WordProblem.of(builtins.Z2, {1}),
        declared_neutral="0", letter_map={"1": 1, "0": 0})
    reg["Lmod3"] = builtins.mod_counting_language(3)
    return box


def setup_seconds() -> float:
    """Median set-up time over fresh interpreters, each timed from before
    `import wordlogic` to a built registry and scaled to reference speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe"],
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_op(op, reg, call=None):
    """Run one op; returns (ok, seconds). Exceptions count as failures."""
    t0 = time.perf_counter()
    try:
        result = call(op.kind, op.run, reg) if call else op.run(reg)
    except Exception:  # a raising op is a failed op; the run goes on
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return False, elapsed
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(op.check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return ok, elapsed


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_blocks(blocks, reg, call=None, stop=lambda spent, ops: False):
    """Run blocks of ops until stop(seconds spent, ops run) holds after a
    block. Returns (op times at reference speed, op wall times, failed ops,
    blocks run, probe times)."""
    raw = []        # op wall times
    before = []     # index of the probe taken just before each op
    probes = [probe()]
    failed = 0
    count = 0
    start = last_probe = time.perf_counter()
    for block in blocks:
        for op in block:
            ok, elapsed = run_op(op, reg, call)
            raw.append(elapsed)
            before.append(len(probes) - 1)
            failed += not ok
            if elapsed > PROBE_AFTER_S or time.perf_counter() - last_probe > PROBE_GAP_S:
                probes.append(probe())
                last_probe = time.perf_counter()
        count += 1
        if stop(time.perf_counter() - start, len(raw)):
            break
    probes.append(probe())
    lat = [t * REF_PROBE_S / statistics.median(probes[max(0, i - 1):i + 3])
           for t, i in zip(raw, before)]
    return lat, raw, failed, count, probes


def end_to_end(workload, seconds, smoke):
    reg = set_up().languages

    def stop(spent, ops):
        return smoke or spent >= HARD_STOP_S or (spent >= seconds and ops >= MIN_OPS)

    lat, raw, failed, blocks, probes = run_blocks(
        (workload.block(i) for i in itertools.count()), reg, stop=stop)
    lat.sort()
    attempted = len(lat)
    metrics = {
        "ops_per_s": attempted / sum(lat),
        "op_p50_ms": 1000 * percentile(lat, 0.5),
        "op_p90_ms": 1000 * percentile(lat, 0.9),
        "setup_s": setup_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = {
        "failed_ratio": (failed / attempted, "ratio"),
        "wall_ops_per_s": (attempted / sum(raw), "1/s"),
        "host_speed": (REF_PROBE_S / statistics.median(probes), "ratio"),
        "blocks": (blocks, "count"),
    }
    return attempted, failed, metrics, END_TO_END, notes


def traced(workload, smoke):
    import spans

    blocks = [workload.block(i) for i in range(1 if smoke else workload.trace_blocks)]
    untraced = run_blocks(blocks, set_up().languages)[0]
    reg = set_up().languages
    with spans.Tracer() as tracer:
        lat, _, failed, _, _ = run_blocks(blocks, reg, tracer.run_op)
    calls = tracer.calls()
    silent = [name for name in workload.layers if not calls[name]]
    if silent:
        sys.exit(f"perfbench: {workload.name} reached no call of "
                 f"{', '.join(silent)}; a wrapped entry point has moved")
    metrics = tracer.metrics(sum(lat) / sum(untraced))
    notes = {"untraced_op_s": (sum(untraced), "s")}
    return len(lat), failed, metrics, spans.PER_LAYER, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="one tiny block per pass, for the benchmark's own test")
    args = ap.parse_args(argv)

    use_checkout()
    box = set_up()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, box, DATA, args.smoke)
    if args.trace:
        attempted, failed, metrics, units, notes = traced(workload, args.smoke)
    else:
        attempted, failed, metrics, units, notes = end_to_end(
            workload, args.seconds, args.smoke)

    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {units[name]}")
    for name, (value, unit) in notes.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup-probe"]:
        speed = statistics.median(probe() for _ in range(3))
        t0 = time.perf_counter()
        use_checkout()
        set_up()
        print((time.perf_counter() - t0) * REF_PROBE_S / speed)
    else:
        sys.exit(main())
