"""Per-layer tracing of dgdm from outside the package.

Tracing works by rebinding public functions and methods of the loaded
`dgdm` modules to thin wrappers, and putting every original back
afterwards.  Modules import names directly (`from .weyl import mono_mul`
in groebner, `from .slices import bounded_weq` in dga and amod), so a
function is replaced under every module-level name that refers to it,
not only in the module that defines it.

Three kinds of wrapper, chosen by how often the wrapped call runs:

  span     records (name, start, end, parent) in memory and aggregates
           calls, inclusive and self time;
  timed    aggregates calls, inclusive and self time, records no span
           (hot callees such as `WeylElement.__mul__` or `Echelon.reduce`);
  counted  increments a counter only (`mono_mul`, `vec_add`).

Self time of a span or timed call is its duration minus the time of the
span and timed calls made inside it, so self times add up to the traced
time without double counting.  Counted calls are not timed: their time
is part of the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

perf_counter = time.perf_counter


class Tracer:
    """In-memory spans, counters and per-name time totals."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, int] = defaultdict(int)
        # one frame per open span/timed call: [time covered by children, span index]
        self.stack: List[list] = []

    def wrap(self, name: str, fn: Callable, record: bool = True) -> Callable:
        """A span (record=True) or timed (record=False) wrapper around fn."""
        stack, spans = self.stack, self.spans
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if record:
                index = len(spans)
                spans.append(None)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans[index] = (name, start, end, parent)

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def materialize(self, name: str, fn: Callable) -> Callable:
        """Timed wrapper for a generator function: it is consumed inside
        the wrapper, so its time is the time to produce all its items."""
        return self.wrap(name, lambda *args, **kwargs: iter(list(fn(*args, **kwargs))),
                         record=False)

    def note_max(self, name: str, value: int):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def module_self_s(self) -> Dict[str, float]:
        """Self time summed by layer (the first component of each name)."""
        out: Dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def write_spans(self, path: str):
        """Dump the spans as JSON lines: name, start, end, parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")


class Patcher:
    """Rebinds objects in the loaded dgdm modules and restores them."""

    def __init__(self):
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if m is not None and (n == "dgdm" or n.startswith("dgdm."))]
        self.saved: List[Tuple[object, str, object]] = []

    def function(self, orig: Callable, replacement: Callable):
        """Replace every module-level name bound to orig."""
        found = False
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self.saved.append((mod, key, orig))
                    setattr(mod, key, replacement)
                    found = True
        if not found:
            raise LookupError(f"no module-level binding of {orig!r}")

    def attribute(self, owner, key: str, replacement):
        self.saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, replacement)

    def item(self, mapping: dict, key, replacement):
        self.saved.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def restore(self):
        while self.saved:
            owner, key, orig = self.saved.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)


def bindings() -> Dict[tuple, object]:
    """Every function, class and method bound in the loaded dgdm modules
    and classes, plus the check catalog, keyed by where it is bound."""
    out: Dict[tuple, object] = {}
    for mod in Patcher().modules:
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if attr != "__slotnames__":  # copyreg's cache, set by copy.deepcopy
                        out[(mod.__name__, key, attr)] = member
    verify = sys.modules.get("dgdm.verify")
    if verify is not None:
        for name, entry in verify.CATALOG.items():
            out[("dgdm.verify", "CATALOG", name)] = entry
    return out


def _groebner(tracer: Tracer, guard_error, fn, read_basis: bool = False):
    """Count each degree-guard abort once, however many groebner calls it
    unwinds; with read_basis, note the size and the largest coefficient
    (numerator or denominator bits) of the returned basis."""

    def wrapper(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except guard_error as exc:
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                tracer.calls["groebner.guard_aborts"] += 1
            raise
        if read_basis:
            tracer.note_max("groebner.basis_size", len(result.generators))
            tracer.note_max("groebner.max_coeff_bits", max(
                (max(c.numerator.bit_length(), c.denominator.bit_length())
                 for g in result.generators for coord in g.coords
                 for c in coord.terms.values()), default=0))
        return result

    return wrapper


def _slice_entry(tracer: Tracer, fn):
    """Wrap the basis/differential callbacks handed to a slices entry point.

    The outermost call gets fresh callbacks that count evaluations,
    distinct differential keys (per outermost call), enumerated basis keys and
    the time spent in each; nested calls reuse them.
    """

    def wrapper(basis_of, diff_of, *args, **kwargs):
        if not getattr(diff_of, "_bench_wrapped", False):
            seen = set()
            calls = tracer.calls
            orig_basis, orig_diff = basis_of, diff_of

            def diff(key):
                if key not in seen:
                    seen.add(key)
                    calls["slices.diff_distinct"] += 1
                return orig_diff(key)

            def basis(p, w):
                keys = list(orig_basis(p, w))
                calls["slices.basis_keys"] += len(keys)
                return keys

            diff_of = tracer.wrap("slices.diff", diff, record=False)
            basis_of = tracer.wrap("slices.basis", basis, record=False)
            diff_of._bench_wrapped = True
        return fn(basis_of, diff_of, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> Patcher:
    """Patch the loaded dgdm modules for tracing; call .restore() after."""
    from dgdm import amod, complexes, dga, groebner, model, obasis
    from dgdm import rational_linalg, slices, verify, weyl

    p = Patcher()
    guard = groebner.DegreeGuardExceeded

    p.function(weyl.mono_mul, tracer.count("weyl.mono_mul", weyl.mono_mul))
    p.attribute(weyl.WeylElement, "__mul__",
                tracer.wrap("weyl.mul", weyl.WeylElement.__mul__, record=False))

    for name in ("buchberger", "syzygies", "normal_form", "normal_form_with_cofactors"):
        fn = getattr(groebner, name)
        p.function(fn, tracer.wrap(f"groebner.{name}",
                                   _groebner(tracer, guard, fn, read_basis=name == "buchberger")))

    ech = rational_linalg.Echelon
    p.attribute(ech, "insert", tracer.wrap("rational_linalg.echelon_insert", ech.insert, record=False))
    p.attribute(ech, "reduce", tracer.wrap("rational_linalg.echelon_reduce", ech.reduce, record=False))
    p.function(rational_linalg.nullspace, tracer.wrap(
        "rational_linalg.nullspace", rational_linalg.nullspace, record=False))
    p.function(rational_linalg.vec_add, tracer.count("rational_linalg.eliminations",
                                                     rational_linalg.vec_add))

    for name in ("bounded_acyclicity", "slice_witness"):
        fn = getattr(slices, name)
        p.function(fn, _slice_entry(tracer, tracer.wrap(f"slices.{name}", fn)))

    for name in ("homology", "is_weak_equivalence", "kernel_generators"):
        fn = getattr(complexes, name)
        p.function(fn, tracer.wrap(f"complexes.{name}", fn))
    for name in ("pushout", "attach_cells"):
        fn = getattr(model, name)
        p.function(fn, tracer.wrap(f"model.{name}", fn))

    p.attribute(obasis.OBasisComplex, "diff_key",
                tracer.wrap("obasis.diff_key", obasis.OBasisComplex.diff_key, record=False))
    p.attribute(dga.SullivanAlgebra, "basis_keys",
                tracer.materialize("dga.basis_keys", dga.SullivanAlgebra.basis_keys))
    for cls in (amod.AModule, amod.TensorOverA, amod.BaseChangeModule):
        p.attribute(cls, "diff_key", tracer.wrap("amod.diff_key", cls.diff_key, record=False))
        p.attribute(cls, "basis_keys", tracer.materialize("amod.basis_keys", cls.basis_keys))

    for mod, name in ((obasis, "truncated_acyclicity"), (obasis, "is_bounded_weq"),
                      (dga, "algebra_bounded_weq"), (amod, "tensor_bounded_weq"),
                      (amod, "base_change_bounded_weq"), (amod, "amodule_bounded_weq")):
        fn = getattr(mod, name)
        p.function(fn, tracer.wrap(f"{mod.__name__.split('.')[-1]}.{name}", fn))

    for name, (fn, params) in list(verify.CATALOG.items()):
        wrapped = tracer.wrap(f"verify.check.{name}", fn)
        p.function(fn, wrapped)
        p.item(verify.CATALOG, name, (wrapped, params))
    return p
