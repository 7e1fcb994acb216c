"""dgdm benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --deadline 1.0 --workload suite --seed 42 \
        --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.
The run sets up (import of dgdm plus input generation) 31 times and
reports the median, runs the workload's once-per-run operations, then
passes over the inputs until --seconds have gone by.  Throughout, the
host's speed is sampled (speed.py) and every time metric is in seconds
at the reference speed; time metrics are built from each operation's
median time over the passes.  It checks every output against the
workload's gates, prints one line per metric and, as the last line, one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run alternates a plain pass and a traced pass over the same inputs and
reports per-layer metrics (per traced pass) plus the tracing overhead;
spans are written to perfbench/out/.  Exit status: 0 when every gate
held, 1 when one failed, 2 when the program cannot be found or loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import ERROR, GUARD, MISS, OK, WRONG, WORKLOADS  # noqa: E402

SETUP_REPEATS = 31

CHECKS = (
    "flatness_counterexample", "filtration_splitting", "disks_acyclic",
    "pushout_product_cokernel", "trivial_pp_weq", "monoid_axiom_pushout",
    "properness_random", "hac3_flatness", "hac4_base_change",
    "cmon_under_roundtrip", "simpl_tens_iso", "monad_laws",
    "limit_colimit_weq", "graded_filtration_weq", "kunneth_mapcone",
    "sullivan_pushout_universal", "hac1_arrows", "cofibrant_retract",
)
CALLS_AND_S = (
    "groebner.buchberger", "groebner.syzygies", "groebner.normal_form",
    "groebner.normal_form_with_cofactors",
    "rational_linalg.echelon_insert", "rational_linalg.echelon_reduce",
    "rational_linalg.nullspace",
    "slices.bounded_acyclicity", "slices.slice_witness",
    "complexes.homology", "complexes.is_weak_equivalence", "complexes.kernel_generators",
    "obasis.diff_key", "dga.basis_keys", "amod.diff_key", "amod.basis_keys",
)
S_ONLY = (
    "model.pushout", "model.attach_cells",
    "obasis.truncated_acyclicity", "obasis.is_bounded_weq", "dga.algebra_bounded_weq",
    "amod.tensor_bounded_weq", "amod.base_change_bounded_weq", "amod.amodule_bounded_weq",
) + tuple(f"verify.check.{c}" for c in CHECKS)
LAYERS = ("weyl", "groebner", "rational_linalg", "slices", "complexes", "model",
          "obasis", "dga", "amod", "verify")


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of the samples (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup(workload, repeats=SETUP_REPEATS) -> list:
    """Import dgdm afresh and generate the inputs, `repeats` times; the
    interval of each set-up."""
    intervals = []
    for _ in range(repeats):
        for name in [n for n in sys.modules if n == "dgdm" or n.startswith("dgdm.")]:
            del sys.modules[name]
        gc.collect()  # free the previous copy now, so peak_rss_mb does not grow with repeats
        mark = workload.speed.mark()
        importlib.import_module("dgdm")
        importlib.import_module("dgdm.cli")
        workload.setup()
        intervals.append(workload.speed.since(mark))
    return intervals


def keep_going(start: float, walls, seconds: float) -> bool:
    """Start another pass only if it is expected to end within half a
    pass of the measuring time."""
    return time.perf_counter() - start + 0.5 * statistics.median(walls) < seconds


def measure(workload, seconds: float):
    """The workload's once-per-run operations, then passes until the
    time is used up."""
    start = time.perf_counter()
    once = workload.run_once()
    passes = []
    while not passes or keep_going(start, [p.wall for p in passes], seconds):
        passes.append(workload.run_pass(len(passes)))
    return once, passes


def measure_traced(workload, seconds: float, tracer: tracing.Tracer):
    """Pairs of (plain pass j, traced pass j) until the time is used up."""
    plain, traced = [], []
    before = tracing.bindings()
    start = time.perf_counter()
    while not plain or keep_going(start, [a.wall + b.wall for a, b in zip(plain, traced)],
                                  seconds):
        j = len(plain)
        plain.append(workload.run_pass(j))
        patch = tracing.install(tracer)
        try:
            traced.append(workload.run_pass(j))
        finally:
            patch.restore()
        if tracing.bindings() != before:
            workload.problems.append("tracing left a dgdm binding patched")
    return plain, traced


def op_medians(passes, seconds):
    """Each operation's median time over the passes (every pass runs the
    same operations), its times given by `seconds(op)`."""
    times = defaultdict(list)
    for p in passes:
        for op in p.ops:
            times[op.name].append(seconds(op))
    return [statistics.median(ts) for ts in times.values()]


def done_ratio(ops) -> float:
    """Share of the distinct operations that completed correctly on every
    attempt."""
    done = defaultdict(lambda: True)
    for op in ops:
        done[op.name] &= op.status == OK
    return sum(done.values()) / len(done)


def end_to_end(once, passes, setup_times, speed):
    per_op = op_medians(passes, lambda op: speed.scaled(op.interval))
    return {
        "wall_s": (sum(per_op), "s"),
        "op_p50_s": (quantile(per_op, 0.5), "s"),
        "op_p90_s": (quantile(per_op, 0.9), "s"),
        "done_ratio": (done_ratio(once + [op for p in passes for op in p.ops]), "ratio"),
        "setup_s": (statistics.median(speed.scaled(i) for i in setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: tracing.Tracer, plain, traced, speed):
    n = len(traced)
    calls, total_s = tracer.calls, tracer.total_s
    out = {
        "weyl.mono_mul.calls": (calls["weyl.mono_mul"] / n, "count"),
        "weyl.mul.calls": (calls["weyl.mul"] / n, "count"),
        "weyl.mul.s": (total_s["weyl.mul"] / n, "s"),
    }
    for name in CALLS_AND_S:
        out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.s"] = (total_s[name] / n, "s")
    for name in S_ONLY:
        out[f"{name}.s"] = (total_s[name] / n, "s")
    evals, distinct = calls["slices.diff"], calls["slices.diff_distinct"]
    out.update({
        "groebner.basis_size": (tracer.maxima["groebner.basis_size"], "count"),
        "groebner.max_coeff_bits": (tracer.maxima["groebner.max_coeff_bits"], "bits"),
        "groebner.guard_aborts": (calls["groebner.guard_aborts"] / n, "count"),
        "rational_linalg.eliminations": (calls["rational_linalg.eliminations"] / n, "count"),
        "slices.diff_evals": (evals / n, "count"),
        "slices.diff_distinct": (distinct / n, "count"),
        "slices.diff_useful_ratio": (distinct / evals if evals else 0.0, "ratio"),
        "slices.diff.s": (total_s["slices.diff"] / n, "s"),
        "slices.basis_keys": (calls["slices.basis_keys"] / n, "count"),
        "slices.basis.s": (total_s["slices.basis"] / n, "s"),
    })
    # the operations' raw time: like the self times, it has the probe time in it
    traced_s = sum(op.interval.end - op.interval.start for p in traced for op in p.ops)
    by_layer = tracer.module_self_s()
    for layer in LAYERS:
        out[f"share.{layer}"] = (by_layer.get(layer, 0.0) / traced_s, "ratio")
    out["trace.overhead_s"] = (statistics.median(speed.scaled(p.interval) for p in traced)
                               - statistics.median(speed.scaled(p.interval) for p in plain), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, required=True,
                        help="per-rung deadline of groebner_ladder, in seconds")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cheap operations per pass and 3 set-ups, for the tests")
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                        help="pinned output digests (JSON)")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dgdm", "__init__.py")):
        print(f"error: no dgdm package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(args.pins) as fh:
        pins = json.load(fh)

    workload = WORKLOADS[args.workload](args.seed, args.size == "tiny", pins, args.deadline)
    with Speed() as speed:
        workload.speed = speed
        try:
            setup_times = setup(workload, 3 if args.size == "tiny" else SETUP_REPEATS)
        except ImportError as exc:
            print(f"error: cannot load dgdm: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = measure_traced(workload, args.seconds, tracer)
        else:
            once, passes = measure(workload, args.seconds)

    if args.trace:
        once, passes = [], plain + traced
        metrics = per_layer(tracer, plain, traced, speed)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        workload.notes.append(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = end_to_end(once, passes, setup_times, speed)
    workload.finish()

    ops = once + [op for p in passes for op in p.ops]
    failed = sum(op.status in (ERROR, GUARD, WRONG) for op in ops)
    not_done = sum(op.status != OK for op in ops)
    correct = not workload.problems and not any(op.status in (ERROR, WRONG) for op in ops)

    slowness = [speed.slowness(p.interval.start, p.interval.end) for p in passes]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len({op.name for p in passes for op in p.ops})} operations, "
          f"{len(once)} operations run once, "
          f"setup {len(setup_times)}x median {statistics.median(i.seconds for i in setup_times):.4f} s raw")
    print(f"unscaled: sum of per-operation medians "
          f"{sum(op_medians(passes, lambda op: op.seconds)):.4f} s; host slowness per pass "
          f"(1 = reference speed) median {statistics.median(slowness):.3f}, "
          f"range {min(slowness):.3f}-{max(slowness):.3f}; {len(speed.took)} speed samples")
    print(f"fail_ratio {not_done}/{len(ops)} = {not_done / len(ops):.4f} "
          f"(failed {failed}, deadline misses {sum(op.status == MISS for op in ops)})")
    for line in workload.notes + workload.problems:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
