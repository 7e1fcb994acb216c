"""Left Groebner bases for submodules of free modules over the Weyl algebra.

All submodules are left submodules of D^r.  A module monomial is a
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
"""

from __future__ import annotations

import contextvars
import heapq
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .rational_linalg import vec_add
from .weyl import Monomial, NvarsMismatch, WeylElement, mono_mul

# module monomial: (position, x-exponents, d-exponents)
ModMonomial = Tuple[int, Tuple[int, ...], Tuple[int, ...]]
VecT = Dict[ModMonomial, Fraction]

DEFAULT_DEGREE_GUARD = 40
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
    """An element of D^rank: a vector of WeylElements."""

    __slots__ = ("rank", "coords")

    def __init__(self, coords: Sequence[WeylElement]):
        coords = tuple(coords)
        if not coords:
            raise ValueError("rank must be positive")
        nvars = coords[0].nvars
        if any(c.nvars != nvars for c in coords):
            raise NvarsMismatch("coordinates over different Weyl algebras")
        self.rank = len(coords)
        self.coords = coords

    @classmethod
    def zero(cls, rank: int, nvars: int) -> "FreeModuleElement":
        return cls([WeylElement.zero(nvars)] * rank)

    @classmethod
    def unit(cls, rank: int, nvars: int, i: int) -> "FreeModuleElement":
        coords = [WeylElement.zero(nvars)] * rank
        coords[i] = WeylElement.one(nvars)
        return cls(coords)

    @property
    def nvars(self) -> int:
        return self.coords[0].nvars

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        self._check(other)
        return FreeModuleElement([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        self._check(other)
        return FreeModuleElement([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return FreeModuleElement([-c for c in self.coords])

    def left_mul(self, p: WeylElement) -> "FreeModuleElement":
        return FreeModuleElement([p * c for c in self.coords])

    def scale(self, c) -> "FreeModuleElement":
        return FreeModuleElement([x.scale(c) for x in self.coords])

    def total_degree(self) -> int:
        return max(c.total_degree() for c in self.coords)

    def _check(self, other):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")
        if self.nvars != other.nvars:
            raise NvarsMismatch(f"nvars mismatch: {self.nvars} != {other.nvars}")

    def __eq__(self, other):
        return (
            isinstance(other, FreeModuleElement)
            and self.rank == other.rank
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "FreeModuleElement([" + ", ".join(c.to_string() for c in self.coords) + "])"


def _to_vec(v: FreeModuleElement) -> VecT:
    out: VecT = {}
    for pos, c in enumerate(v.coords):
        for (a, b), coef in c.terms.items():
            out[(pos, a, b)] = coef
    return out


def _from_vec(vec: VecT, rank: int, nvars: int) -> FreeModuleElement:
    per: List[Dict[Monomial, Fraction]] = [dict() for _ in range(rank)]
    for (pos, a, b), coef in vec.items():
        per[pos][(a, b)] = coef
    return FreeModuleElement([WeylElement(nvars, t) for t in per])


def _lm(vec: VecT) -> ModMonomial:
    return min(vec, key=_key)


def _left_mono_mul(a: Tuple[int, ...], b: Tuple[int, ...], vec: VecT) -> VecT:
    """Left-multiply a module vector by the ring monomial x^a d^b."""
    out: VecT = {}
    for (pos, c, d), coef in vec.items():
        for (na, nb), k in mono_mul((a, b), (c, d)).items():
            key = (pos, na, nb)
            term = coef if k == 1 else coef * k
            old = out.get(key)
            if old is None:
                out[key] = term
            elif (s := old + term):
                out[key] = s
            else:
                del out[key]
    return out


class _Row:
    """A working basis row: vector and leading monomial."""

    __slots__ = ("vec", "lm")

    def __init__(self, vec: VecT):
        self.vec = vec
        self.lm = _lm(vec)


def _reduce(vec: VecT, rows: List[_Row], guard: int) -> VecT:
    """Full left normal form of vec against rows: the remainder."""
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
        for row in rows:
            if _divides(row.lm, m):
                break
        else:
            result[m] = work.pop(m)
            continue
        lm_r = row.lm
        qa = tuple(x - y for x, y in zip(m[1], lm_r[1]))
        qb = tuple(x - y for x, y in zip(m[2], lm_r[2]))
        ratio = c / row.vec[lm_r]
        for k, v in _left_mono_mul(qa, qb, row.vec).items():
            old = work.get(k)
            if old is None:
                work[k] = -ratio * v
                heapq.heappush(heap, _guarded_entry(k, guard))
            else:
                s = old - ratio * v
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


def _groebner_rows(vecs: List[VecT], guard: int, cut: Optional[int] = None) -> List[_Row]:
    """The Buchberger loop on input vectors over one Weyl algebra.

    Returns the inter-reduced monic basis rows sorted by decreasing leading
    monomial.  Rows are made monic as they enter, and pairs are pruned by
    the Gebauer-Moeller criteria (`_update_pairs`).  With a cut-off, a new
    row whose leading monomial has position >= cut is discarded: on tagged
    rows it is a syzygy, which a lift does not need, and keeping them can
    make the loop blow up.  Discarding them leaves the positions below the
    cut of every other row as they are, because a reduction treats every
    term there before any term at or above the cut.
    """
    rows: List[_Row] = []
    live: List[int] = []  # the rows that form pairs and enter the final basis
    pairs: List[Tuple[int, int, int]] = []  # heap of (lcm degree, j, i), j < i

    def add_row(red: VecT):
        lm = _lm(red)
        if cut is None or lm[0] < cut:
            lc = red[lm]
            rows.append(_Row({m: c / lc for m, c in red.items()}))
            _update_pairs(rows, live, pairs)

    for v in vecs:
        red = _reduce(v, rows, guard)
        if red:
            add_row(red)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        mi, mj = rows[i].lm, rows[j].lm
        _, la, lb = _lcm(mi, mj)
        spoly: VecT = {}
        vec_add(spoly, _left_mono_mul(_sub(la, mi[1]), _sub(lb, mi[2]), rows[i].vec))
        vec_add(spoly, _left_mono_mul(_sub(la, mj[1]), _sub(lb, mj[2]), rows[j].vec), -1)
        red = _reduce(spoly, rows, guard)
        if red:
            add_row(red)

    return _interreduce([rows[k] for k in live], guard)


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


def _interreduce(rows: List[_Row], guard: int) -> List[_Row]:
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
        out.append(_Row(_reduce(r.vec, out, guard)))
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
        tagged = _tagged([g.coords for g in gb.inputs], gb.rank, gb.nvars)
        gb._lift_rows = _groebner_rows(tagged, guard, cut=gb.rank)
    red = _reduce(_to_vec(v), gb._lift_rows, guard)
    u: List[Dict[Monomial, Fraction]] = [{} for _ in gb.inputs]
    for (pos, a, b), c in red.items():
        if pos < gb.rank:
            return None
        u[pos - gb.rank][(a, b)] = -c
    return [WeylElement(gb.nvars, t) for t in u]


def _tagged(rows: Sequence[Sequence[WeylElement]], s: int, nvars: int) -> List[VecT]:
    """The rows (row_i | e_i) of D^(s + len(rows)), each row_i of length s."""
    zero = WeylElement.zero(nvars)
    tagged = []
    for i, row in enumerate(rows):
        coords = list(row) + [zero] * len(rows)
        coords[s + i] = WeylElement.one(nvars)
        tagged.append(_to_vec(FreeModuleElement(coords)))
    return tagged


def syzygies(
    matrix: Sequence[Sequence[WeylElement]],
    nvars: int,
    source_rank: Optional[int] = None,
    target_rank: Optional[int] = None,
) -> GrobnerBasis:
    """Groebner basis of the left kernel of v |-> v*matrix on D^source_rank.

    `matrix` has source_rank rows of target_rank entries; the map sends
    the i-th unit vector to row i, so a vector (v_1..v_r) maps to
    sum_i v_i * row_i with coordinates multiplying entries on the left.
    """
    rows = [list(r) for r in matrix]
    r = len(rows) if source_rank is None else source_rank
    if rows and len(rows) != r:
        raise ValueError("matrix row count disagrees with source rank")
    s = target_rank
    if rows:
        widths = {len(row) for row in rows}
        if len(widths) != 1:
            raise ValueError("ragged matrix")
        w = widths.pop()
        if s is None:
            s = w
        elif s != w:
            raise ValueError("matrix width disagrees with target rank")
    if s is None:
        raise ValueError("target rank unknown for empty matrix")
    for row in rows:
        for entry in row:
            if entry.nvars != nvars:
                raise NvarsMismatch("matrix entry over wrong Weyl algebra")
    if r == 0:
        return GrobnerBasis(0, nvars, [], [])
    if s == 0:
        # map to the zero module: kernel is everything
        units = [FreeModuleElement.unit(r, nvars, i) for i in range(r)]
        return GrobnerBasis(r, nvars, units, list(units))

    basis = _groebner_rows(_tagged(rows, s, nvars), _GUARD.get())

    # the leading monomial has the lowest position of a row, so a row lies
    # in the tag block iff its leading monomial does
    kernel = [
        _from_vec({(pos - s, a, b): c for (pos, a, b), c in row.vec.items()}, r, nvars)
        for row in basis if row.lm[0] >= s
    ]
    # sanity: every kernel element must map to zero exactly
    zero = WeylElement.zero(nvars)
    for k in kernel:
        img = [zero] * s
        for i in range(r):
            for j in range(s):
                img[j] = img[j] + k.coords[i] * rows[i][j]
        if any(not e.is_zero() for e in img):
            raise AssertionError("syzygy candidate does not map to zero")
    return GrobnerBasis(r, nvars, kernel, list(kernel))


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
