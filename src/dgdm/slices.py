"""Generic bounded exactness checking on weight-sliced objects.

A sliced object is a complex whose degree-p piece has a countable
k-basis, sliced finite-dimensionally by a weight.  It answers
`basis_keys(p, w)`, the (key, weight) pairs of degree p and weight <= w
(nested in w; keys are hashable and differ across degrees),
`diff_key(key)` and `top_degree(window)`.  `sliced_acyclicity` checks an
object and `bounded_weq` a map on its cone, each over `walked_degrees`:
0 up to the largest top degree of its objects, the one range of a check.

The walk runs on int keys its caller numbers: `basis_of` pairs key
numbers with weights, `diff_of(i)` returns a dict over numbers, which
the walk reads once and never writes, and `key_of(i)` gives a witness
its caller's key.  `numbered` numbers an object's own keys as it first
meets them; `bounded_weq` numbers the two sides of a mapping cone apart.
The numbering moves echelon rows, never spans, band counts or nullspace
bases, so no verdict or witness depends on it.

The contract of a check at level N (margin 2): every cycle assembled
from basis keys of weight <= N-2 must be an exact boundary of an
element of weight <= N.  A bounded-pass verdict means the check held
at levels N and N+1 on the stated degrees; it is never an unconditional
claim about the full complex.

`bounded_acyclicity` walks the degrees once, checking level N and then
level N+1 at each degree, and evaluates each differential at most once.
A level passes by counting: its cycles have dimension z = keys - rank
of their images (one echelon, extended at level N+1).  Boundaries enter
a second echelon by level block (weight <= N-1, then N, then N+1 at
level N+1), tagged by band, cut from the weights of the degree's one
listing of candidates: 2 on weight <= N-2, 1 on N-1, 0 elsewhere.  Rows
pivot on their least (band, number), so those in band >= b span the
boundaries of band >= b, and the level passes once they number z, often
before its later keys are evaluated.  The count needs d∘d = 0, so each
counted row is checked to be a cycle on cached images; after one that
is not, the degree inserts every boundary and decides by membership.
Only a level left short lists its cycles, with `nullspace`, and returns
the first outside the span: the witness of a level-major walk, the
first level-N failure in degree order, else the first level-(N+1) one.
The next degree's candidates are carried over with their weights and
the differentials the boundary echelon evaluated.

A basis enumerator may replay stored pairs, as `SullivanAlgebra` and
`AModule` do per instance, if it lists them in the order of a fresh
enumeration: nullspace bases and witnesses do not depend on what was
enumerated before.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from .rational_linalg import Echelon, Vec, apply_linear, nullspace

BasisFn = Callable[[int, int], Iterable[Tuple[Hashable, int]]]  # (degree, max weight) -> (key, weight)
DiffFn = Callable[[Hashable], Dict[Hashable, Fraction]]
KeyFn = Callable[[int], Hashable]  # key number -> the caller's key


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


class _KeyNumbers(dict):
    """Keys numbered on first lookup, the i-th as `sides * i + side`, so
    numberings on distinct sides never meet; `order[i]` is the i-th key."""

    def __init__(self, side: int = 0, sides: int = 1):
        self.order, self.side, self.sides = [], side, sides

    def __missing__(self, key):
        i = self[key] = self.sides * len(self.order) + self.side
        self.order.append(key)
        return i


def numbered(basis_of: BasisFn, diff_of: DiffFn) -> Tuple[BasisFn, DiffFn, KeyFn]:
    """The walk's callbacks for a complex on keys of its own."""
    numbers = _KeyNumbers()
    number, order = numbers.__getitem__, numbers.order

    def diff(i: int):
        img = diff_of(order[i])
        return {number(k): c for k, c in img.items()} if img else {}

    return lambda p, w: ((number(k), wt) for k, wt in basis_of(p, w)), diff, order.__getitem__


def slice_witness(
    basis_of: BasisFn,
    diff_of: DiffFn,
    p: int,
    n: int,
    upper: bool,
    carried: Tuple[Dict[int, int], Dict[int, Vec]],
    carry: bool,
    key_of: KeyFn,
) -> Tuple[Optional[Dict], Optional[Dict], Tuple[Dict[int, int], Dict[int, Vec]]]:
    """Degree p of the walk: level n, then level n+1 if `upper` is set.

    On key numbers: when the step at p-1 built a boundary echelon,
    `carried` holds the pairs of `basis_of(p, n - 1)`, number to weight
    in that order, and the differentials of those that step evaluated;
    otherwise both dicts are empty.  Returns the level-n and the
    level-(n+1) witness on the caller's keys (each None if the slice is
    exact or was not checked) and, if `carry` is set and a boundary was
    built, what goes to degree p+1.
    """
    listed, diffs = carried
    # one listing: 2 on weight <= n - 2, 1 on weight n - 1 if level n+1 is checked, else 0
    band = {i: 2 if wt <= n - 2 else int(upper)
            for i, wt in listed.items() or basis_of(p, n - 1 if upper else n - 2)}
    low = [i for i, b in band.items() if b == 2]
    high = list(band) if upper else []

    def image(i):
        img = diffs.get(i)
        if img is None:
            img = diffs[i] = diff_of(i)
        return img

    def tagged(vec):
        return {(band.get(i, 0), i): c for i, c in vec.items()}

    def is_cycle(row):
        if len(row) == 1:
            ((_, i),) = row
            return not image(i)
        return not apply_linear(lambda ti: image(ti[1]), row)

    images = Echelon()  # of the cycle candidates: z = keys - rank
    ech: Optional[Echelon] = None
    rows = [0, 0, 0]  # rows of ech by the band of their pivot
    counting = True  # every row counted so far is a cycle (d∘d = 0 there)
    held = set()  # numbers of degree-(p+1) keys whose boundary ech holds
    nxt, nxt_diffs = {}, {}  # to degree p+1: the pairs of basis_of(p + 1, n - 1), their images

    def witness(keys, level, b):
        nonlocal ech, counting
        for img in (image(i) for i in keys if band[i] == b):
            if img:
                images.insert(img)
        z = len(keys) - images.rank()
        if not z:
            return None
        if ech is None:
            ech = Echelon()
            if carry:
                nxt.update(basis_of(p + 1, n - 1))
        elif b == 1 and counting:  # the band-1 rows of level n were not checked there
            counting = all(is_cycle(r) for q, r in ech.rows.items() if q[0] == 1)
        if counting and sum(rows[b:]) >= z:
            return None
        for w in range(n - 1, level + 1):  # boundaries by level block
            for i, _ in nxt.items() if w == n - 1 and carry else basis_of(p + 1, w):
                if i in held:
                    continue
                held.add(i)
                img = diff_of(i)
                if i in nxt:
                    nxt_diffs[i] = img
                q = ech.insert(tagged(img)) if img else None
                if q is None:
                    continue
                rows[q[0]] += 1
                if counting and q[0] >= b:
                    counting = is_cycle(ech.rows[q])
                    if counting and sum(rows[b:]) >= z:
                        return None
        # every boundary of the level is in: the first cycle outside their span
        for cycle in nullspace([(i, image(i)) for i in keys]):
            if ech.reduce(tagged(cycle)):
                return {"degree": p, "cycle": {key_of(i): c for i, c in cycle.items()}, "level": level}
        return None

    found = witness(low, n, 2) if low else None
    if found is not None:
        return found, None, ({}, {})
    return None, witness(high, n + 1, 1) if high else None, (nxt, nxt_diffs)


def bounded_acyclicity(
    basis_of: BasisFn,
    diff_of: DiffFn,
    key_of: KeyFn,
    degrees: Iterable[int],
    n: int,
) -> TruncationResult:
    """Margin-2 exactness at levels n and n+1 over the given degrees."""
    if n < 2:
        raise ValueError("truncation too small: need N >= 2")
    degrees = tuple(degrees)
    upper = None  # the first level-(n+1) failure
    carried: Tuple[Dict[int, int], Dict[int, Vec]] = ({}, {})
    for i, p in enumerate(degrees):
        carry = i + 1 < len(degrees) and degrees[i + 1] == p + 1
        low, high, carried = slice_witness(
            basis_of, diff_of, p, n, upper is None, carried, carry, key_of)
        if low is not None:
            return TruncationResult("fail", (n, n + 1), low, degrees)
        if upper is None:
            upper = high
    return TruncationResult("bounded-pass" if upper is None else "fail", (n, n + 1), upper, degrees)


def dsquare_witness(
    basis_of: BasisFn,
    diff_of: DiffFn,
    degrees: Iterable[int],
    max_weight: int,
) -> Optional[Hashable]:
    """The first basis key of weight <= max_weight with d(d(key)) != 0, or None."""
    for p in degrees:
        for key, _ in basis_of(p, max_weight):
            if apply_linear(diff_of, diff_of(key)):
                return key
    return None


def walked_degrees(window: Optional[int], *objects) -> range:
    """Degrees 0 up to the largest top degree the objects report for the window."""
    return range(0, max(obj.top_degree(window) for obj in objects) + 1)


def sliced_acyclicity(obj, window: Optional[int], n: int) -> TruncationResult:
    """Margin-2 exactness of a sliced object at levels n and n+1."""
    return bounded_acyclicity(*numbered(obj.basis_keys, obj.diff_key), walked_degrees(window, obj), n)


def bounded_weq(src, tgt, map_fn: DiffFn, window: Optional[int], n: int) -> TruncationResult:
    """Bounded weak-equivalence check of map_fn: src -> tgt through cone acyclicity.

    The cone has keys ("s", k) for source keys k (degree raised by one)
    and ("t", k) for target keys, d(c, c') = (-dc, f(c) + dc'), and a
    witness on them.  The walk numbers source key i as 2i and target key
    j as 2j+1, so the blocks of an image never meet; the differentials
    and map_fn hold no zero coefficient, so none is filtered.
    """
    src_basis, src_diff, tgt_basis, tgt_diff = src.basis_keys, src.diff_key, tgt.basis_keys, tgt.diff_key
    snums, tnums = _KeyNumbers(0, 2), _KeyNumbers(1, 2)
    snum, tnum, s_order, t_order = snums.__getitem__, tnums.__getitem__, snums.order, tnums.order

    def basis(p: int, w: int):
        # lazy: a walk that stops inside the source block lists no target key
        for k, wt in src_basis(p - 1, w):
            yield snum(k), wt
        for k, wt in tgt_basis(p, w):
            yield tnum(k), wt

    def diff(i: int):
        if i & 1:
            img = tgt_diff(t_order[i >> 1])
            return {tnum(k): c for k, c in img.items()} if img else {}
        k = s_order[i >> 1]
        img, f_img = src_diff(k), map_fn(k)
        out = {snum(k): -c for k, c in img.items()} if img else {}
        for k, c in f_img.items():
            out[tnum(k)] = c
        return out

    def key_of(i: int):
        return ("t", t_order[i >> 1]) if i & 1 else ("s", s_order[i >> 1])

    # looked up in the module at call time, so a patched walk sees every cone
    return bounded_acyclicity(basis, diff, key_of, walked_degrees(window, src, tgt), n)
