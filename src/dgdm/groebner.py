"""Left Groebner bases for submodules of free modules over the Weyl algebra.

All submodules are left submodules of D^r.  An element of D^r is a
`FreeModuleElement`: its rank, its nvars and a dict from column to
nonzero WeylElement, so D^0 is an ordinary module; a `Matrix` is a tuple
of such rows and its column count, and `as_matrix` turns dense nested
lists into one, checking their shape.  The dense view, zeros included,
is `FreeModuleElement.coords`, which documents and reports print.

A module monomial is a
triple (position, a, b); the admissible order is degree-reverse-lex on
the 2n exponents (x block before d block) with position over term, so it
refines total (x,d)-degree and the commutator corrections of the Weyl
relations strictly drop below leading terms.  Consequently leading
monomials multiply as in the commutative case, Buchberger's algorithm
applies verbatim, and termination follows from Dickson's lemma.

One Buchberger loop serves every job.  It keeps rows monic and drops the
S-pairs that the chain criterion shows redundant.  Kernels (syzygies) are
computed by the module elimination trick: run the loop in D^(s+r) on the
tagged rows (row_i | e_i), with the image block dominating the tag block
in the position order, and read off the basis elements supported in the
tags.  Lifts over the input generators (`express_in_inputs`) use the same
tagged rows, as Singular's `lift` does: a row of that basis is image | c
with image = sum_j c_j*inputs[j], so reducing v | 0 by the rows that
lead in the image block leaves 0 | -u with v = sum_j u_j*inputs[j].

Kernels whose coefficients swell take a modular path.  `syzygies` starts
the Q loop; once a new row's leading coefficient passes _SWELL_BITS bits,
it runs the same loop again on int coefficients mod a large prime,
reconstructs the rationals (Wang; CRT over more primes of _PRIMES when
one is not enough) and accepts the rows only if four exact checks over Q
hold: every row (v | c) multiplies back, v = sum_j c_j*row_j, in
integers; every tagged input reduces to 0 by the rows; so does every
S-pair that `_update_pairs` keeps; and the rows are monic and reduced.
The reduced Groebner basis is unique, so such rows are the Q loop's.  If
no prime passes, the Q loop runs to the end.  `buchberger` and the lift
stay on the Q loop: their rows are not the full basis of a tagged
module, so these checks do not prove them right.
"""

from __future__ import annotations

import contextvars
import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .rational_linalg import add_term, vec_add
from .weyl import Monomial, NvarsMismatch, WeylElement, mono_mul

# module monomial: (position, x-exponents, d-exponents)
ModMonomial = Tuple[int, Tuple[int, ...], Tuple[int, ...]]
VecT = Dict[ModMonomial, Fraction]

DEFAULT_DEGREE_GUARD = 40
# `syzygies` leaves the Q loop for the modular path when a new row's
# leading coefficient has a numerator or denominator above this many bits
_SWELL_BITS = 64
# the primes of the modular path, tried in order and combined by CRT
_PRIMES = (2**255 - 19, 2**521 - 1, 2**607 - 1)
_GUARD = contextvars.ContextVar("degree_guard", default=DEFAULT_DEGREE_GUARD)


@contextmanager
def degree_guard(n: int):
    """Cap the total degree of Groebner computations at n inside the block.

    The previous cap comes back on exit, also when the block raises.
    """
    if n < 1:
        raise ValueError("degree guard must be positive")
    token = _GUARD.set(n)
    try:
        yield
    finally:
        _GUARD.reset(token)


def get_degree_guard() -> int:
    return _GUARD.get()


class DegreeGuardExceeded(RuntimeError):
    """A Groebner computation exceeded the configured total-degree cap."""


def _key(m: ModMonomial):
    """Sort key of the module order, reversed: the larger of two module
    monomials has the smaller key, so a min-heap pops the leading term."""
    pos, a, b = m
    e = a + b
    return (pos, -sum(e), e[::-1])


def _divides(m1: ModMonomial, m2: ModMonomial) -> bool:
    """m1 divides m2: same position, componentwise <= exponents."""
    return (
        m1[0] == m2[0]
        and all(x <= y for x, y in zip(m1[1], m2[1]))
        and all(x <= y for x, y in zip(m1[2], m2[2]))
    )


class FreeModuleElement:
    """An element of D^rank: its nonzero coordinates by column.

    `entries` maps a column to a nonzero WeylElement over nvars, and rank 0
    (the zero module) is an ordinary rank.  The constructor takes the dense
    coordinate list (nvars is needed only when it is empty) and checks it;
    `coords`, and iteration, give that dense view back.
    """

    __slots__ = ("rank", "nvars", "entries")

    def __init__(self, coords: Sequence[WeylElement], nvars: Optional[int] = None):
        coords = tuple(coords)
        if nvars is None:
            if not coords:
                raise ValueError("an element of rank 0 needs its nvars")
            nvars = coords[0].nvars
        if any(c.nvars != nvars for c in coords):
            raise NvarsMismatch("coordinates over different Weyl algebras")
        self.rank = len(coords)
        self.nvars = nvars
        self.entries = {j: c for j, c in enumerate(coords) if c}

    @classmethod
    def sparse(cls, rank: int, nvars: int, entries: Dict[int, WeylElement]) -> "FreeModuleElement":
        """The element with these nonzero coordinates, taken as they are."""
        v = cls.__new__(cls)
        v.rank, v.nvars, v.entries = rank, nvars, entries
        return v

    @classmethod
    def zero(cls, rank: int, nvars: int) -> "FreeModuleElement":
        return cls.sparse(rank, nvars, {})

    @classmethod
    def unit(cls, rank: int, nvars: int, i: int) -> "FreeModuleElement":
        if not 0 <= i < rank:
            raise IndexError(f"unit {i} outside rank {rank}")
        return cls.sparse(rank, nvars, {i: WeylElement.one(nvars)})

    @property
    def coords(self) -> Tuple[WeylElement, ...]:
        zero = WeylElement.zero(self.nvars)
        return tuple(self.entries.get(j, zero) for j in range(self.rank))

    def __iter__(self):
        return iter(self.coords)

    def items(self) -> List[Tuple[int, WeylElement]]:
        """The nonzero coordinates as (column, entry), columns ascending."""
        return sorted(self.entries.items())

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        return self._plus(other)

    def __sub__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        return self._plus(other, -1)

    def _plus(self, other: "FreeModuleElement", scale=None) -> "FreeModuleElement":
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")
        if self.nvars != other.nvars:
            raise NvarsMismatch(f"nvars mismatch: {self.nvars} != {other.nvars}")
        out = dict(self.entries)
        vec_add(out, other.entries, scale)
        return FreeModuleElement.sparse(self.rank, self.nvars, out)

    def __neg__(self):
        return self.scale(-1)

    def left_mul(self, p) -> "FreeModuleElement":
        """p*self: p a WeylElement or a rational, multiplying on the left."""
        out: Dict[int, WeylElement] = {}
        vec_add(out, self.entries, p)
        return FreeModuleElement.sparse(self.rank, self.nvars, out)

    scale = left_mul

    def __eq__(self, other):
        return (
            isinstance(other, FreeModuleElement)
            and self.rank == other.rank
            and self.nvars == other.nvars
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rank, self.nvars, frozenset(self.entries.items())))

    def __repr__(self):
        return "FreeModuleElement([" + ", ".join(c.to_string() for c in self.coords) + "])"


@dataclass(frozen=True)
class Matrix:
    """A D-matrix: a tuple of rows in D^cols and the column count, which a
    matrix without rows keeps too.  Row i is the image of the i-th unit
    vector of the source, and iteration walks the rows."""

    rows: Tuple[FreeModuleElement, ...]
    cols: int

    def __iter__(self):
        return iter(self.rows)


def as_matrix(m, nvars: int, nrows: Optional[int] = None, ncols: Optional[int] = None) -> Matrix:
    """m as a D-matrix over nvars variables with nrows rows and ncols columns.

    m is a Matrix or dense nested rows of WeylElements; a count left None is
    read off m.  Raises ValueError when m does not have that shape.
    """
    if isinstance(m, Matrix):
        rows, cols = m.rows, m.cols
        if any(r.nvars != nvars or r.rank != cols for r in rows):
            raise ValueError("matrix row over the wrong Weyl algebra or of the wrong rank")
    else:
        dense = [tuple(row) for row in m]
        cols = ncols
        if cols is None:
            if not dense:
                raise ValueError("column count unknown for a matrix without rows")
            cols = len(dense[0])
        if any(len(row) != cols for row in dense):
            raise ValueError(f"matrix has a row of length other than {cols}")
        rows = tuple(FreeModuleElement(row, nvars) for row in dense)
    if nrows is not None and len(rows) != nrows:
        raise ValueError(f"matrix has {len(rows)} rows, expected {nrows}")
    if ncols is not None and cols != ncols:
        raise ValueError(f"matrix has {cols} columns, expected {ncols}")
    return Matrix(rows, cols)


def _to_vec(v: FreeModuleElement) -> VecT:
    return {(pos, a, b): coef for pos, c in v.items() for (a, b), coef in c.terms.items()}


def _from_vec(vec: VecT, rank: int, nvars: int) -> FreeModuleElement:
    per: Dict[int, Dict[Monomial, Fraction]] = {}
    for (pos, a, b), coef in vec.items():
        per.setdefault(pos, {})[(a, b)] = coef
    return FreeModuleElement.sparse(rank, nvars, {pos: WeylElement(nvars, t) for pos, t in per.items()})


def _lm(vec: VecT) -> ModMonomial:
    return min(vec, key=_key)


def _left_mono_mul(a: Tuple[int, ...], b: Tuple[int, ...], vec: VecT) -> VecT:
    """Left-multiply a module vector by the ring monomial x^a d^b.

    Without d's the product only shifts x exponents, and by 1 it is vec
    itself, so callers must not change the result.
    """
    if not any(b):
        if not any(a):
            return vec
        return {(pos, tuple(map(add, a, c)), d): coef for (pos, c, d), coef in vec.items()}
    out: VecT = {}
    for (pos, c, d), coef in vec.items():
        for (na, nb), k in mono_mul((a, b), (c, d)).items():
            add_term(out, (pos, na, nb), coef if k == 1 else coef * k)
    return out


class _Row:
    """A working basis row: vector and leading monomial."""

    __slots__ = ("vec", "lm")

    def __init__(self, vec: VecT):
        self.vec = vec
        self.lm = _lm(vec)


def _reduce(vec: VecT, rows: List[_Row], guard: int, p: int = 0) -> VecT:
    """Full left normal form of vec against monic rows: the remainder.

    With p > 0 the coefficients are ints mod p.  The work vector then
    holds them unreduced, and a term is reduced mod p when it is popped.
    """
    result: VecT = {}
    work = dict(vec)
    # the terms of work, largest first; a popped term that has since
    # cancelled is no longer in work and is skipped
    heap = [_guarded_entry(m, guard) for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        if p:
            # a multiple of p left behind by cancelling m is zero
            c %= p
            if not c:
                continue
        for row in rows:
            if _divides(row.lm, m):
                break
        else:
            del work[m]
            result[m] = c
            continue
        lm_r = row.lm
        qa = tuple(x - y for x, y in zip(m[1], lm_r[1]))
        qb = tuple(x - y for x, y in zip(m[2], lm_r[2]))
        for k, v in _left_mono_mul(qa, qb, row.vec).items():
            old = work.get(k)
            if old is None:
                work[k] = -c * v
                heapq.heappush(heap, _guarded_entry(k, guard))
            else:
                s = old - c * v
                if s:
                    work[k] = s
                else:
                    del work[k]
    return result


def _guarded_entry(m: ModMonomial, guard: int):
    """The heap entry of a term entering a reduction, checked against the guard."""
    hk = _key(m)
    if -hk[1] > guard:
        raise DegreeGuardExceeded(f"reduction exceeded total degree {guard}")
    return hk, m


class LiftBasis:
    """The inputs of a submodule of D^rank, zero ones included, and the
    lift basis over them that the first `express_in_inputs` builds."""

    def __init__(self, rank: int, nvars: int, inputs: List[FreeModuleElement]):
        self.rank = rank
        self.nvars = nvars
        self.inputs = inputs
        self._lift_rows: Optional[List[_Row]] = None


class GrobnerBasis(LiftBasis):
    """An inter-reduced monic left Groebner basis of a submodule of D^rank.

    `inputs` are the generators it was computed from, zero ones included:
    `express_in_inputs` writes members as left combinations of them.
    """

    def __init__(
        self,
        rank: int,
        nvars: int,
        generators: List[FreeModuleElement],
        inputs: List[FreeModuleElement],
    ):
        super().__init__(rank, nvars, inputs)
        self.generators = generators
        self._rows = [_Row(_to_vec(g)) for g in generators]

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"GrobnerBasis(rank={self.rank}, {len(self.generators)} generators)"


def buchberger(
    gens: Sequence[FreeModuleElement],
    rank: Optional[int] = None,
    nvars: Optional[int] = None,
) -> GrobnerBasis:
    """Compute the left Groebner basis of the submodule generated by gens.

    For an empty generator list, rank and nvars must be supplied.  Pair
    selection follows the normal strategy (lowest lcm degree first); the
    result is inter-reduced, monic, and sorted by decreasing leading
    monomial for reproducibility.
    """
    base = lift_basis(gens, rank, nvars)  # the argument checks
    rank, nvars, gens = base.rank, base.nvars, base.inputs
    rows = _groebner_rows([_to_vec(g) for g in gens], _GUARD.get())
    generators = [_from_vec(r.vec, rank, nvars) for r in rows]
    return GrobnerBasis(rank, nvars, generators, gens)


def lift_basis(
    gens: Sequence[FreeModuleElement],
    rank: Optional[int] = None,
    nvars: Optional[int] = None,
) -> LiftBasis:
    """The inputs of `express_in_inputs` without the plain Groebner basis.

    Takes the arguments of `buchberger`, for callers that only write
    members as combinations of gens, and checks them the same way.
    """
    gens = list(gens)
    if not gens:
        if rank is None or nvars is None:
            raise ValueError("empty generator list needs explicit rank and nvars")
        return LiftBasis(rank, nvars, [])
    rank = gens[0].rank
    nvars = gens[0].nvars
    for g in gens:
        if g.rank != rank:
            raise ValueError("generators of different rank")
        if g.nvars != nvars:
            raise NvarsMismatch("generators over different Weyl algebras")
    return LiftBasis(rank, nvars, gens)


def _groebner_rows(
    vecs: List[VecT], guard: int, cut: Optional[int] = None, p: int = 0, watch: bool = False
) -> List[_Row]:
    """The Buchberger loop on input vectors over one Weyl algebra.

    Returns the inter-reduced monic basis rows sorted by decreasing leading
    monomial.  Rows are made monic as they enter, and pairs are pruned by
    the Gebauer-Moeller criteria (`_update_pairs`).  With a cut-off, a new
    row whose leading monomial has position >= cut is discarded: on tagged
    rows it is a syzygy, which a lift does not need, and keeping them can
    make the loop blow up.  Discarding them leaves the positions below the
    cut of every other row as they are, because a reduction treats every
    term there before any term at or above the cut.

    With p > 0 the loop runs on int coefficients mod the prime p.  With
    watch, the Q loop raises `_CoefficientSwell` on a new row whose leading
    coefficient passes _SWELL_BITS.
    """
    rows: List[_Row] = []
    live: List[int] = []  # the rows that form pairs and enter the final basis
    pairs: List[Tuple[int, int, int]] = []  # heap of (lcm degree, j, i), j < i

    def add_row(red: VecT):
        lm = _lm(red)
        if cut is None or lm[0] < cut:
            lc = red[lm]
            if p:
                inv = pow(lc, -1, p)
                rows.append(_Row({m: c * inv % p for m, c in red.items()}))
            else:
                if watch and max(lc.numerator.bit_length(), lc.denominator.bit_length()) > _SWELL_BITS:
                    raise _CoefficientSwell()
                rows.append(_Row({m: c / lc for m, c in red.items()}))
            _update_pairs(rows, live, pairs)

    for v in vecs:
        red = _reduce(v, rows, guard, p)
        if red:
            add_row(red)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        red = _reduce(_spoly(rows[i], rows[j]), rows, guard, p)
        if red:
            add_row(red)

    return _interreduce([rows[k] for k in live], guard, p)


class _CoefficientSwell(Exception):
    """The Q loop of `syzygies` made a row with a leading coefficient above _SWELL_BITS."""


def _spoly(ri: _Row, rj: _Row) -> VecT:
    """The S-vector of two monic rows whose leading monomials share a position."""
    mi, mj = ri.lm, rj.lm
    _, la, lb = _lcm(mi, mj)
    spoly: VecT = {}
    # int scales: rows mod p must stay ints
    vec_add(spoly, _left_mono_mul(_sub(la, mi[1]), _sub(lb, mi[2]), ri.vec), 1)
    vec_add(spoly, _left_mono_mul(_sub(la, mj[1]), _sub(lb, mj[2]), rj.vec), -1)
    return spoly


def _sub(e: Tuple[int, ...], f: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(x - y for x, y in zip(e, f))


def _lcm(mi: ModMonomial, mj: ModMonomial) -> ModMonomial:
    """lcm of two module monomials at the same position."""
    return (mi[0], tuple(map(max, mi[1], mj[1])), tuple(map(max, mi[2], mj[2])))


def _update_pairs(rows: List[_Row], live: List[int], pairs: list):
    """Add the last row to the live rows and its pairs to the heap, by the
    Gebauer-Moeller update (Becker-Weispfenning, Groebner Bases, p. 230).

    Pairs that Buchberger's chain criterion shows redundant are dropped;
    the criterion holds for left Groebner bases over algebras of solvable
    type such as the Weyl algebra (Kandri-Rody & Weispfenning 1990).  The
    product criterion does not hold there and is not used.  A live row
    whose leading monomial the new one divides stops forming pairs and
    stays out of the final basis; it still reduces, and its queued pairs
    are still treated unless the criterion drops them.
    """
    h = len(rows) - 1
    mh = rows[h].lm
    lcms = {g: _lcm(rows[g].lm, mh) for g in live if rows[g].lm[0] == mh[0]}
    # new pairs: one for each lcm that no other lcm properly divides
    seen = set()
    kept = []
    for g, m in lcms.items():
        if m in seen or any(o != m and _divides(o, m) for o in lcms.values()):
            continue
        seen.add(m)
        kept.append((sum(m[1]) + sum(m[2]), g, h))
    # old pairs: drop (j, i) when lm(h) divides its lcm and differs from
    # it in the lcms with both lm(j) and lm(i)
    for d, j, i in pairs:
        m = _lcm(rows[j].lm, rows[i].lm)
        if not (_divides(mh, m) and _lcm(rows[j].lm, mh) != m and _lcm(rows[i].lm, mh) != m):
            kept.append((d, j, i))
    heapq.heapify(kept)
    pairs[:] = kept
    live[:] = [g for g in live if not _divides(mh, rows[g].lm)]
    live.append(h)


def _interreduce(rows: List[_Row], guard: int, p: int = 0) -> List[_Row]:
    """Tail-reduce the live rows, sorted by decreasing leading monomial.

    The live rows are already minimal: each new row is reduced by every
    row, and `_update_pairs` retires the rows whose leading monomials it
    divides.  A tail term lies below the leading monomial, so only rows
    with smaller leading monomials reduce it: the rows already in `out`,
    whose coefficients are final and small.  Reduction keeps the leading
    term, so the rows stay monic.
    """
    out: List[_Row] = []
    for r in sorted(rows, key=lambda r: _key(r.lm), reverse=True):
        out.append(_Row(_reduce(r.vec, out, guard, p)))
    out.reverse()
    return out


def normal_form(v: FreeModuleElement, gb: GrobnerBasis) -> FreeModuleElement:
    """Left normal form of v modulo the basis; zero iff v is a member."""
    _check_compat(v, gb)
    red = _reduce(_to_vec(v), gb._rows, _GUARD.get())
    return _from_vec(red, gb.rank, gb.nvars)


def normal_form_with_cofactors(
    v: FreeModuleElement, gb: GrobnerBasis
) -> Tuple[FreeModuleElement, List[WeylElement]]:
    """Normal form plus cofactors over the basis: v = sum q_i*gb_i + nf.

    v - nf is a member, so the cofactors are its lift over the basis
    generators; they need not be the quotients of the division.
    """
    nf = normal_form(v, gb)
    return nf, express_in_inputs(v - nf, LiftBasis(gb.rank, gb.nvars, gb.generators))


def member(v: FreeModuleElement, gb: GrobnerBasis) -> bool:
    """True iff v lies in the submodule presented by gb."""
    return normal_form(v, gb).is_zero()


def express_in_inputs(
    v: FreeModuleElement, gb: LiftBasis
) -> Optional[List[WeylElement]]:
    """Write a member v as a left combination of the input generators.

    Returns coefficients u, one per entry of gb.inputs (zero ones
    included), with v = sum u_j * inputs[j], or None when v is not a
    member.  The first call builds the lift basis: the loop run on the
    tagged rows (inputs[j] | e_j) with the tag block cut off.  Reducing
    v | 0 by it leaves 0 | -u for a member and an image term otherwise.
    """
    _check_compat(v, gb)
    guard = _GUARD.get()
    if gb._lift_rows is None:
        tagged = _tagged(Matrix(tuple(gb.inputs), gb.rank))
        gb._lift_rows = _groebner_rows(tagged, guard, cut=gb.rank)
    red = _reduce(_to_vec(v), gb._lift_rows, guard)
    u: List[Dict[Monomial, Fraction]] = [{} for _ in gb.inputs]
    for (pos, a, b), c in red.items():
        if pos < gb.rank:
            return None
        u[pos - gb.rank][(a, b)] = -c
    return [WeylElement(gb.nvars, t) for t in u]


def _tagged(m: Matrix) -> List[VecT]:
    """The rows (row_i | e_i) of D^(cols + len(rows)), positions ascending."""
    tagged = []
    for i, row in enumerate(m.rows):
        vec = _to_vec(row)
        z = (0,) * row.nvars
        vec[(m.cols + i, z, z)] = Fraction(1)
        tagged.append(vec)
    return tagged


def syzygies(
    matrix,
    nvars: int,
    source_rank: Optional[int] = None,
    target_rank: Optional[int] = None,
) -> GrobnerBasis:
    """Groebner basis of the left kernel of v |-> v*matrix on D^source_rank.

    `matrix` is a Matrix or dense nested rows (see `as_matrix`) with
    source_rank rows and target_rank columns, each read off it when None;
    the map sends the i-th unit vector to row i, so a vector (v_1..v_r)
    maps to sum_i v_i * row_i with coordinates multiplying entries on the
    left.
    """
    m = as_matrix(matrix, nvars, source_rank, target_rank)
    r, s = len(m.rows), m.cols
    tagged = _tagged(m)
    guard = _GUARD.get()
    try:
        basis = _groebner_rows(tagged, guard, watch=True)
    except _CoefficientSwell:
        basis = _modular_rows(tagged, s, guard)
        if basis is None:  # no reconstruction passed the checks
            basis = _groebner_rows(tagged, guard)

    # the leading monomial has the lowest position of a row, so a row lies
    # in the tag block iff its leading monomial does
    kernel = [row for row in basis if row.lm[0] >= s]
    # sanity: every kernel element must map to zero exactly
    if not _multiplies_back(kernel, tagged, s):
        raise AssertionError("syzygy candidate does not map to zero")
    kernel = [
        _from_vec({(pos - s, a, b): c for (pos, a, b), c in row.vec.items()}, r, nvars)
        for row in kernel
    ]
    return GrobnerBasis(r, nvars, kernel, list(kernel))


def _modular_rows(tagged: List[VecT], s: int, guard: int) -> Optional[List[_Row]]:
    """The reduced basis of the tagged rows by the loop mod the primes of
    _PRIMES, or None if no prime gives a basis that `_certified` accepts.

    The rows mod each prime are combined by CRT with those of the earlier
    primes while their supports agree; a prime whose rows differ in
    support starts the combination afresh.  After each prime the
    rationals are reconstructed from the combined residues and checked.
    """
    acc: Optional[List[_Row]] = None
    modulus = 1
    for p in _PRIMES:
        if any(c.denominator % p == 0 for v in tagged for c in v.values()):
            continue
        vecs = [{m: r for m, c in v.items() if (r := c.numerator * pow(c.denominator, -1, p) % p)}
                for v in tagged]
        rows = _groebner_rows(vecs, guard, p=p)
        if acc is not None and [r.vec.keys() for r in acc] == [r.vec.keys() for r in rows]:
            inv = pow(modulus, -1, p)
            for ra, rp in zip(acc, rows):
                ra.vec = {m: a + modulus * ((rp.vec[m] - a) * inv % p) for m, a in ra.vec.items()}
            modulus *= p
        else:
            acc, modulus = rows, p
        candidate = _reconstruct(acc, modulus)
        if candidate is not None and _certified(candidate, tagged, s, guard):
            return candidate
    return None


def _reconstruct(rows: List[_Row], modulus: int) -> Optional[List[_Row]]:
    """The rows with every residue mod modulus replaced by its rational
    reconstruction, or None if one has none."""
    out = []
    for row in rows:
        vec: VecT = {}
        for m, c in row.vec.items():
            q = _rational(c, modulus)
            if q is None:
                return None
            vec[m] = q
        out.append(_Row(vec))
    return out


def _rational(c: int, m: int) -> Optional[Fraction]:
    """The fraction a/b = c mod m with |a|, b <= sqrt(m/2), or None: Wang's
    rational reconstruction by the extended Euclidean algorithm."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, c, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _certified(rows: List[_Row], tagged: List[VecT], s: int, guard: int) -> bool:
    """Is rows the reduced Groebner basis of the module the tagged rows span?

    Checked exactly over Q: the rows are monic and reduced, each row lies
    in the module (`_multiplies_back`), each tagged row reduces to 0 by the
    rows, and so does every S-pair that `_update_pairs` keeps.  The reduced
    basis is unique, so such rows are the Q loop's.
    """
    # monic first: `_reduce` relies on it
    for r in rows:
        if r.vec[r.lm] != 1 or any(_divides(o.lm, m) for o in rows if o is not r for m in r.vec):
            return False
    if not _multiplies_back(rows, tagged, s):
        return False
    seen: List[_Row] = []
    live: List[int] = []
    pairs: List[Tuple[int, int, int]] = []
    for r in rows:
        seen.append(r)
        _update_pairs(seen, live, pairs)
    return (all(not _reduce(_spoly(rows[i], rows[j]), rows, guard) for _, i, j in pairs)
            and all(not _reduce(v, rows, guard) for v in tagged))


def _multiplies_back(rows: List[_Row], tagged: List[VecT], s: int) -> bool:
    """Does every row (v | c) of D^(s + len(tagged)) have v = sum_j c_j*row_j,
    with tagged[j] = (row_j | e_j)?  Checked in integers: each row's
    denominators are cleared by their lcm, and those of all row_j by theirs."""
    den = math.lcm(*(c.denominator for v in tagged for c in v.values()))
    ints = [{m: c.numerator * (den // c.denominator) for m, c in v.items() if m[0] < s}
            for v in tagged]
    for row in rows:
        scale = math.lcm(*(c.denominator for c in row.vec.values()))
        image: Dict[ModMonomial, int] = {}
        combo: Dict[ModMonomial, int] = {}
        for (pos, a, b), c in row.vec.items():
            c = c.numerator * (scale // c.denominator)
            if pos < s:
                image[(pos, a, b)] = c * den
            else:
                for k, v in _left_mono_mul(a, b, ints[pos - s]).items():
                    add_term(combo, k, c * v)
        if combo != image:
            return False
    return True


def submodule_equal(
    gens1: Sequence[FreeModuleElement],
    gens2: Sequence[FreeModuleElement],
    rank: int,
    nvars: int,
) -> bool:
    """Mutual membership test: do two generating sets span the same submodule?"""
    gb1 = buchberger(list(gens1), rank=rank, nvars=nvars)
    gb2 = buchberger(list(gens2), rank=rank, nvars=nvars)
    return all(member(g, gb1) for g in gens2) and all(member(g, gb2) for g in gens1)


def _check_compat(v: FreeModuleElement, gb: GrobnerBasis):
    if v.rank != gb.rank:
        raise ValueError(f"rank mismatch: {v.rank} != {gb.rank}")
    if v.nvars != gb.nvars:
        raise NvarsMismatch(f"nvars mismatch: {v.nvars} != {gb.nvars}")
