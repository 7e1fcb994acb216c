"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping hashable, sortable column keys to nonzero
rationals: `Fraction`s, or `int`s where a kernel keeps integral values.
This module holds the one sparse-vector kernel every other module uses:
`add_term` adds into one coordinate, `vec_add` adds a scaled vector in
place, and `apply_linear` extends a map on keys linearly; all three drop
zero coefficients; `cleared` makes a rational vector an int one.
`add_term` and `vec_add` also serve vectors whose coefficients are other
ring elements with `+`, `*` and a falsy zero, such as the rows over D of
`groebner`.  On top of the kernel sits a fraction-free echelon form
with a deterministic pivot rule (smallest column key), which is enough
for span membership and nullspace computation.  Its rows hold `int`s;
kernel vectors leave as `Fraction`s.  Most vectors the slice checks
insert have one term {k: c}; such an insert runs no elimination unless
a row of several terms pivots at k: it stores the unit row {k: 1}, or
finds k spanned by the row {k: 1}.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, Dict, Hashable, List, Optional, Tuple

Vec = Dict[Hashable, Fraction]

_ONE = Fraction(1)  # immutable, so kernel vectors can share it


def integral(c):
    """c as an int when its value is integral, else c itself."""
    return c.numerator if c.denominator == 1 else c


def add_term(store: Vec, key: Hashable, c: Fraction):
    """store[key] += c in place, dropping the key when the sum is zero;
    a new key takes c as it is, so an int stays an int."""
    old = store.get(key)
    s = c if old is None else old + c
    if s:
        store[key] = s
    else:
        store.pop(key, None)


def vec_add(target: Vec, src: Vec, scale=None):
    """target += scale*src in place, with zero coefficients dropped.

    scale multiplies each coefficient on the left, which matters where
    coefficients do not commute (rows over D); None adds src as it is.
    """
    for k, c in src.items():
        if scale is not None:
            c = scale * c
        old = target.get(k)
        s = c if old is None else old + c
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def cleared(vec: Vec, den: Optional[int] = None) -> Dict[Hashable, int]:
    """den*vec as a new int vector, den by default the lcm of the
    denominators of vec's coefficients (ints or `Fraction`s)."""
    den = den or lcm(*(c.denominator for c in vec.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in vec.items()}


def apply_linear(key_map: Callable[[Hashable], Vec], vec: Vec) -> Vec:
    """The linear extension of key_map evaluated on vec."""
    out: Vec = {}
    for key, c in vec.items():
        for k2, c2 in key_map(key).items():
            old = out.get(k2)
            s = c * c2 if old is None else old + c * c2
            if s:
                out[k2] = s
            else:
                out.pop(k2, None)
    return out


class Echelon:
    """Incremental fraction-free row echelon form with sparse integer rows.

    Each row is a primitive integer vector: its content is removed and
    its pivot, the smallest column key, has a positive coefficient, so
    column blocks can be prioritized by key design (used for nullspace
    tags below).  A vector entering `reduce` has its denominators cleared
    once; each step then cancels a pivot column by cross-multiplication,
    vec <- a*vec - c*row with gcd(a, c) divided out (Bareiss 1968), so
    no `Fraction` is built inside the elimination.
    """

    def __init__(self):
        self.rows: Dict[Hashable, Dict[Hashable, int]] = {}  # pivot key -> primitive row

    def reduce(self, vec: Vec) -> Dict[Hashable, int]:
        """A positive integer multiple of the residue of vec, as a new int
        vector with every pivot column cleared; empty iff vec is in the span."""
        vec = dict(vec) if all(type(c) is int for c in vec.values()) else cleared(vec)  # ints: no lcm
        rows = self.rows
        heap = [k for k in vec if k in rows]  # candidate pivots, smallest first
        heapify(heap)
        while heap:
            piv = heappop(heap)
            c = vec.get(piv)
            if c is None:  # cancelled, or a repeated push
                continue
            row = rows[piv]
            a = row[piv]
            g = gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                for k in vec:
                    vec[k] *= a
            for k, r in row.items():
                old = vec.get(k)
                if old is None:
                    vec[k] = -c * r
                    if k in rows:
                        heappush(heap, k)
                else:
                    s = old - c * r
                    if s:
                        vec[k] = s
                    else:
                        del vec[k]
        return vec

    def insert(self, vec: Vec) -> Optional[Hashable]:
        """Reduce vec and add it to the basis; returns its pivot (None if 0).

        A one-term vector {k: c} is stored as {k: 1} when no row pivots at
        k and is spanned when that row is {k: 1}; only against a longer
        row is it reduced.  Rows and pivots are those `reduce` would give.
        """
        if len(vec) == 1:
            (k,) = vec
            row = self.rows.get(k)
            if row is None:
                self.rows[k] = {k: 1}
                return k
            if len(row) == 1:
                return None
        red = self.reduce(vec)
        if not red:
            return None
        piv = min(red)
        self._add_row(piv, red)
        return piv

    def _add_row(self, piv: Hashable, red: Dict[Hashable, int]):
        """Store a reduced int vector with pivot piv as a primitive row."""
        g = gcd(*red.values())
        if red[piv] < 0:
            g = -g
        self.rows[piv] = red if g == 1 else {k: c // g for k, c in red.items()}

    def rank(self) -> int:
        return len(self.rows)


def nullspace(images: List[Tuple[Hashable, Vec]]) -> List[Vec]:
    """Kernel of the linear map sending domain key dk to its image vector.

    `images` lists (domain key, image vector) pairs.  Returns a basis of
    the kernel as dicts of `Fraction`s over domain keys.  Each image is
    echelonized augmented with a tag column for its domain key; tag
    columns sort after all image columns, so a residue pivoted in the tag
    block has zero image part and, divided by its own tag coefficient, is
    a kernel vector.  Every other residue becomes a row of the echelon.
    """
    ech = Echelon()
    kernel: List[Vec] = []
    for dk, img in images:
        if not img:  # the fresh tag column is all there is to reduce
            kernel.append({dk: _ONE})
            continue
        vec = {(0, k): c for k, c in img.items()}
        vec[(1, dk)] = 1
        red = ech.reduce(vec)
        piv = min(red)  # red is nonzero for distinct domain keys: the tag column is fresh
        if piv[0] == 0:
            ech._add_row(piv, red)
            continue
        t = red[(1, dk)]
        kernel.append({k[1]: _ONE if c == t else Fraction(c, t) for k, c in red.items()})
    return kernel
