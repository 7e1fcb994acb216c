"""The tracer of the benchmark harness rebinds dgdm functions and methods
by name; it must put every binding back, or `--trace 1` changes the code
it measures."""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# the modules `tracing.install` patches
PATCHED = ("amod", "complexes", "dga", "groebner", "model", "obasis",
           "rational_linalg", "slices", "verify", "weyl")


def test_tracer_restores_every_binding():
    for name in PATCHED:
        importlib.import_module(f"dgdm.{name}")
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    before = tracing.bindings()
    patch = tracing.install(tracing.Tracer())
    try:
        assert tracing.bindings() != before  # the patch did rebind something
    finally:
        patch.restore()
    assert tracing.bindings() == before
