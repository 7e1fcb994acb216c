"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping hashable, sortable column keys to nonzero
rationals: `Fraction`s, or `int`s where a kernel keeps integral values.
This module holds the one sparse-vector kernel every other module uses:
`add_term` adds into one coordinate, `vec_add` adds a scaled vector in
place, and `apply_linear` extends a map on keys linearly; all three drop
zero coefficients.  On top of the kernel sits an incremental echelon
form with a deterministic pivot rule (smallest column key), which is
enough for span membership, solving, and nullspace computation.  Every
division is exact, so echelon rows, kernel vectors and solutions hold
`Fraction`s.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Tuple

Vec = Dict[Hashable, Fraction]

_ONE = Fraction(1)


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


def vec_add(target: Vec, src: Vec, scale: Fraction = Fraction(1)):
    """target += scale*src in place, with zero coefficients dropped."""
    for k, c in src.items():
        old = target.get(k)
        s = scale * c if old is None else old + scale * c
        if s:
            target[k] = s
        else:
            target.pop(k, None)


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
    """Incremental row echelon form over Q with sparse rows.

    Rows are normalized to pivot coefficient 1; each inserted row is
    forward-reduced against the existing pivots.  The pivot of a row is
    its smallest column key, so column blocks can be prioritized by key
    design (used for nullspace tags below).
    """

    def __init__(self):
        self.rows: Dict[Hashable, Vec] = {}  # pivot key -> normalized row

    def reduce(self, vec: Vec) -> Vec:
        vec = dict(vec)
        while True:
            hit = None
            for k in vec:
                if k in self.rows:
                    if hit is None or k < hit:
                        hit = k
            if hit is None:
                return vec
            vec_add(vec, self.rows[hit], -vec[hit])

    def insert(self, vec: Vec) -> Optional[Hashable]:
        """Reduce vec and add it to the basis; returns its pivot (None if 0)."""
        red = self.reduce(vec)
        if not red:
            return None
        piv = min(red)
        inv = _ONE / red[piv]
        self.rows[piv] = {k: c * inv for k, c in red.items()}
        return piv

    def in_span(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def rank(self) -> int:
        return len(self.rows)


def nullspace(images: List[Tuple[Hashable, Vec]]) -> List[Vec]:
    """Kernel of the linear map sending domain key dk to its image vector.

    `images` lists (domain key, image vector) pairs.  Returns a basis of
    the kernel as dicts over domain keys.  Works by echelonizing the
    image vectors augmented with domain tags; tag columns sort after all
    image columns, so rows pivoted in the tag block have zero image part.
    """
    ech = Echelon()
    kernel: List[Vec] = []
    for dk, img in images:
        vec: Vec = {(0, k): c for k, c in img.items()}
        vec[(1, dk)] = Fraction(1)
        red = ech.reduce(vec)
        if not red:
            # cannot happen: the tag column is fresh
            raise AssertionError("augmented vector reduced to zero")
        piv = min(red)
        if piv[0] == 1:  # image part eliminated -> kernel element
            kernel.append({k[1]: c for k, c in red.items()})
            continue
        inv = _ONE / red[piv]
        ech.rows[piv] = {k: c * inv for k, c in red.items()}
    return kernel


def solve(generators: List[Tuple[Hashable, Vec]], target: Vec) -> Optional[Vec]:
    """Express target as a Q-linear combination of the generator vectors.

    Returns {generator key: coefficient} or None when target is not in
    the span.  Tag bookkeeping mirrors `nullspace`.
    """
    ech = Echelon()
    for gk, gvec in generators:
        vec: Vec = {(0, k): c for k, c in gvec.items()}
        vec[(1, gk)] = Fraction(1)
        red = ech.reduce(vec)
        if not red:
            continue
        piv = min(red)
        if piv[0] == 1:
            # generator dependent on earlier ones; nothing new to solve with
            continue
        inv = _ONE / red[piv]
        ech.rows[piv] = {k: c * inv for k, c in red.items()}
    query: Vec = {(0, k): c for k, c in target.items()}
    red = ech.reduce(query)
    if any(k[0] == 0 for k in red):
        return None
    return {k[1]: -c for k, c in red.items()}
