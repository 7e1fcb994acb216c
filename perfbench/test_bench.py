"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench -q

They run the command from BENCHMARK.json with --size tiny and check that
every metric is printed with its unit, that tracing restores every dgdm
binding it patched, that a wrong pinned digest fails the run, that
bounded_deep runs its calls on fresh copies of the inputs, and that the
speed sampler takes its probe time out and leaves no timer armed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOAD_NAMES = sorted(WORKLOADS)


def bench(workload, *extra, trace=0, seed=3, cwd=ROOT):
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench(workload, trace=trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if trace:
        layer = result["metrics"]
        if workload == "bounded_deep":
            assert layer["groebner.buchberger.calls"]["value"] == 0
            assert layer["slices.bounded_acyclicity.calls"]["value"] > 0
        if workload == "groebner_ladder":
            assert layer["slices.bounded_acyclicity.calls"]["value"] == 0
            assert layer["groebner.syzygies.calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tracing_restores_every_binding(workload):
    w = WORKLOADS[workload](3, True, {}, 1.0)
    run.setup(w, 1)
    before = tracing.bindings()
    patch = tracing.install(tracing.Tracer())
    try:
        assert tracing.bindings() != before  # the patch did rebind something
    finally:
        patch.restore()
    assert tracing.bindings() == before
    tracer = tracing.Tracer()
    run.measure_traced(w, 0.1, tracer)
    assert tracing.bindings() == before
    assert not w.problems
    assert tracer.spans


@pytest.mark.parametrize("workload, section, key", [
    ("suite", "suite", "f:42"),
    ("groebner_ladder", "groebner_ladder", "0"),
])
def test_wrong_pinned_digest_fails(tmp_path, workload, section, key):
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    assert key in pins[section]
    pins[section][key] = "0" * 64
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    proc = bench(workload, "--pins", str(path))
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_without_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, p), tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("suite", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_bounded_deep_calls_start_cold():
    w = WORKLOADS["bounded_deep"](3, True, {}, 1.0)
    run.setup(w, 1)
    caches = [getattr(obj, name) for _, _, _, args in w.calls for obj in args
              for name in ("_dv_cache", "_qv_cache", "_datom_cache") if hasattr(obj, name)]
    before = [len(c) for c in caches]
    w.run_pass(0)
    assert caches and [len(c) for c in caches] == before  # the calls ran on copies


def test_speed_sampler():
    before = signal.getsignal(signal.SIGPROF)
    with speed.Speed() as sampler:
        mark = sampler.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        interval = sampler.since(mark)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    inside = [t for a, t in zip(sampler.at, sampler.took) if interval.start <= a <= interval.end]
    assert len(inside) >= 5  # one sample per 5 ms of CPU time
    # a sample can fall between the two clock reads of since(): one probe of slack
    assert interval.seconds == pytest.approx(interval.end - interval.start - sum(inside), abs=1e-3)
    assert sampler.slowness(interval.start, interval.end) > 0
