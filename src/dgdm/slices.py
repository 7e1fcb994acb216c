"""Generic bounded exactness checking on weight-sliced complexes.

Any complex whose degree-p piece carries a countable k-basis with a
weight function making slices finite-dimensional can be checked here:
the caller supplies a basis enumerator and a differential on basis
keys.  Keys must be hashable and mutually sortable within one check.

The contract of a check at level N (margin 2): every cycle assembled
from basis keys of weight <= N-2 must be an exact boundary of an
element of weight <= N.  A bounded-pass verdict means the check held
at levels N and N+1 on the stated degrees; it is never an unconditional
claim about the full complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from .rational_linalg import Echelon, apply_linear, nullspace

BasisFn = Callable[[int, int], Iterable[Hashable]]  # (degree, max weight) -> keys
DiffFn = Callable[[Hashable], Dict[Hashable, Fraction]]


@dataclass
class TruncationResult:
    """Outcome of a bounded exactness or weak-equivalence check."""

    verdict: str  # "bounded-pass" | "fail"
    levels: Tuple[int, ...]
    witness: Optional[Dict] = None
    degrees_checked: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict == "bounded-pass"


def slice_witness(
    basis_of: BasisFn,
    diff_of: DiffFn,
    degrees: Iterable[int],
    level: int,
) -> Optional[Dict]:
    """One level of the check; a witness cycle or None if exact on the slice."""
    for p in degrees:
        low = list(basis_of(p, level - 2))
        if not low:
            continue
        cycles = nullspace([(key, diff_of(key)) for key in low])
        if not cycles:
            continue
        ech = Echelon()
        for key in basis_of(p + 1, level):
            img = diff_of(key)
            if img:
                ech.insert(img)
        for z in cycles:
            if not ech.in_span(z):
                return {"degree": p, "cycle": z, "level": level}
    return None


def bounded_acyclicity(
    basis_of: BasisFn,
    diff_of: DiffFn,
    degrees: Iterable[int],
    n: int,
) -> TruncationResult:
    """Margin-2 exactness at levels n and n+1 over the given degrees."""
    if n < 2:
        raise ValueError("truncation too small: need N >= 2")
    degrees = tuple(degrees)
    for level in (n, n + 1):
        witness = slice_witness(basis_of, diff_of, degrees, level)
        if witness is not None:
            return TruncationResult("fail", (n, n + 1), witness, degrees)
    return TruncationResult("bounded-pass", (n, n + 1), None, degrees)


def dsquare_witness(
    basis_of: BasisFn,
    diff_of: DiffFn,
    degrees: Iterable[int],
    max_weight: int,
) -> Optional[Hashable]:
    """The first basis key of weight <= max_weight with d(d(key)) != 0, or None."""
    for p in degrees:
        for key in basis_of(p, max_weight):
            if apply_linear(diff_of, diff_of(key)):
                return key
    return None


def cone_adapters(
    src_basis: BasisFn,
    src_diff: DiffFn,
    tgt_basis: BasisFn,
    tgt_diff: DiffFn,
    map_fn: DiffFn,
) -> Tuple[BasisFn, DiffFn]:
    """Basis and differential of the mapping cone of a sliced chain map.

    Cone keys are ("s", k) for source keys k (degree raised by one) and
    ("t", k) for target keys; d(c, c') = (-dc, f(c) + dc').
    """

    def basis(p: int, w: int):
        for k in src_basis(p - 1, w):
            yield ("s", k)
        for k in tgt_basis(p, w):
            yield ("t", k)

    def diff(key):
        # the "s" and "t" blocks never share a key, so nothing accumulates
        tag, k = key
        if tag == "t":
            return {("t", k2): c for k2, c in tgt_diff(k).items() if c}
        out = {("s", k2): -c for k2, c in src_diff(k).items() if c}
        out.update((("t", k2), c) for k2, c in map_fn(k).items() if c)
        return out

    return basis, diff


def bounded_weq(
    src_basis: BasisFn,
    src_diff: DiffFn,
    tgt_basis: BasisFn,
    tgt_diff: DiffFn,
    map_fn: DiffFn,
    degrees: Iterable[int],
    n: int,
) -> TruncationResult:
    """Bounded weak-equivalence check through cone acyclicity."""
    basis, diff = cone_adapters(src_basis, src_diff, tgt_basis, tgt_diff, map_fn)
    return bounded_acyclicity(basis, diff, degrees, n)
