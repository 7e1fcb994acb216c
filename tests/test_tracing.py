"""The tracer of the benchmark harness rebinds dgdm functions and methods
by name; it must put every binding back, or `--trace 1` changes the code
it measures, and its per-layer counters must still see what they name."""

import copy
import importlib
import os
import sys

from test_slices import _bounded_entry_points, _logged_walk

from dgdm import amod, slices

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# the modules `tracing.install` patches
PATCHED = ("amod", "complexes", "dga", "groebner", "model", "obasis",
           "rational_linalg", "slices", "verify", "weyl")


def _tracing():
    for name in PATCHED:
        importlib.import_module(f"dgdm.{name}")
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing


def test_tracer_restores_every_binding():
    tracing = _tracing()
    before = tracing.bindings()
    patch = tracing.install(tracing.Tracer())
    try:
        assert tracing.bindings() != before  # the patch did rebind something
    finally:
        patch.restore()
    assert tracing.bindings() == before


def test_traced_counters_see_the_enumerators_and_the_walk(monkeypatch):
    # one cold A-module check: the enumerators the tracer patches by name
    # are still called, and `slices.basis_keys` counts the (key, weight)
    # pairs the walk lists, each listing in full
    tracing = _tracing()
    check, args = _bounded_entry_points()[5]
    assert check is amod.amodule_bounded_weq
    log = []
    with monkeypatch.context() as m:
        m.setattr(slices, "bounded_acyclicity", _logged_walk(slices.bounded_acyclicity, log))
        res = check(*copy.deepcopy(args))
    listed = sum(len(entry[3]) for entry in log if entry[0] == "basis")
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    try:
        assert check(*copy.deepcopy(args)) == res
    finally:
        patch.restore()
    assert tracer.calls["dga.basis_keys"] > 0 and tracer.calls["amod.basis_keys"] > 0, tracer.calls
    assert tracer.calls["slices.basis_keys"] == listed > 0
