"""Left Groebner bases for submodules of free modules over the Weyl algebra.

All submodules are left submodules of D^r.  A module monomial is a
triple (position, a, b); the admissible order is degree-reverse-lex on
the 2n exponents (x block before d block) with position over term, so it
refines total (x,d)-degree and the commutator corrections of the Weyl
relations strictly drop below leading terms.  Consequently leading
monomials multiply as in the commutative case, Buchberger's algorithm
applies verbatim, and termination follows from Dickson's lemma.

Cofactor tracking is always on: every basis element knows a left
combination of the input generators producing it, and normal forms can
report the quotients used.  Kernels (syzygies) are computed by the
module elimination trick: run Buchberger in D^(s+r) on rows augmented
with unit tags, with the image block dominating the tag block in the
position order, and read off the basis elements supported in the tags.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .rational_linalg import add_term, vec_add
from .weyl import Monomial, NvarsMismatch, WeylElement, mono_mul

# module monomial: (position, x-exponents, d-exponents)
ModMonomial = Tuple[int, Tuple[int, ...], Tuple[int, ...]]
VecT = Dict[ModMonomial, Fraction]

DEFAULT_DEGREE_GUARD = 40
_active_guard = DEFAULT_DEGREE_GUARD

ORDER_DESCRIPTOR = "position-over-term(degrevlex on x,d)"


def set_degree_guard(n: int):
    """Set the process-wide total-degree cap for Groebner computations."""
    global _active_guard
    if n < 1:
        raise ValueError("degree guard must be positive")
    _active_guard = n


def get_degree_guard() -> int:
    return _active_guard


class DegreeGuardExceeded(RuntimeError):
    """A Groebner computation exceeded the configured total-degree cap."""


def _mono_key(a: Tuple[int, ...], b: Tuple[int, ...]):
    e = a + b
    return (sum(e), tuple(-v for v in reversed(e)))


def _key(m: ModMonomial):
    pos, a, b = m
    return (-pos, *_mono_key(a, b))


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
    return max(vec, key=_key)


def _left_mono_mul(a: Tuple[int, ...], b: Tuple[int, ...], vec: VecT) -> VecT:
    """Left-multiply a module vector by the ring monomial x^a d^b."""
    out: VecT = {}
    for (pos, c, d), coef in vec.items():
        for (na, nb), k in mono_mul((a, b), (c, d)).items():
            key = (pos, na, nb)
            s = out.get(key, Fraction(0)) + coef * k
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _max_degree(vec: VecT) -> int:
    return max((sum(a) + sum(b) for (_, a, b) in vec), default=-1)


class _Row:
    """A working basis row: vector plus cofactors over the input generators."""

    __slots__ = ("vec", "cof")

    def __init__(self, vec: VecT, cof: List[VecT]):
        self.vec = vec
        self.cof = cof  # cofactor j as dict of ring monomials (pos ignored, use pos 0)


def _reduce(vec: VecT, rows: List[_Row], guard: int) -> Tuple[VecT, List[VecT]]:
    """Full left normal form of vec against rows, with the quotients used.

    Returns (remainder, quotients): quotients[i] is a ring element (a dict
    of monomials at position 0) and vec = sum_i quotients[i]*rows[i] +
    remainder.
    """
    result: VecT = {}
    quots: List[VecT] = [{} for _ in rows]
    work = dict(vec)
    while work:
        if _max_degree(work) > guard:
            raise DegreeGuardExceeded(
                f"reduction exceeded total degree {guard}"
            )
        m = _lm(work)
        for idx, row in enumerate(rows):
            if _divides(_lm(row.vec), m):
                break
        else:
            result[m] = work.pop(m)
            continue
        lm_r = _lm(row.vec)
        qa = tuple(x - y for x, y in zip(m[1], lm_r[1]))
        qb = tuple(x - y for x, y in zip(m[2], lm_r[2]))
        ratio = work[m] / row.vec[lm_r]
        vec_add(work, _left_mono_mul(qa, qb, row.vec), -ratio)
        add_term(quots[idx], (0, qa, qb), ratio)
    return result, quots


def _cofactors(cofs: List[VecT], quots: List[VecT], rows: List[_Row]) -> List[VecT]:
    """cofs - sum_i quots[i]*rows[i].cof, computed in place in cofs."""
    for q, row in zip(quots, rows):
        for (_, qa, qb), c in q.items():
            for j, hc in enumerate(row.cof):
                if hc:
                    vec_add(cofs[j], _left_mono_mul(qa, qb, hc), -c)
    return cofs


class GrobnerBasis:
    """An inter-reduced monic left Groebner basis of a submodule of D^rank.

    `cofactors[i]` expresses generators[i] as a left combination of the
    original input generators: generators[i] = sum_j cofactors[i][j] * input[j].
    """

    def __init__(
        self,
        rank: int,
        nvars: int,
        generators: List[FreeModuleElement],
        inputs: List[FreeModuleElement],
        cofactors: List[List[WeylElement]],
        order: str = ORDER_DESCRIPTOR,
        degree_guard: int = DEFAULT_DEGREE_GUARD,
    ):
        self.rank = rank
        self.nvars = nvars
        self.generators = generators
        self.inputs = inputs
        self.cofactors = cofactors
        self.order = order
        self.degree_guard = degree_guard
        self._rows = [
            _Row(_to_vec(g), [_to_vec(FreeModuleElement([c])) for c in cof])
            for g, cof in zip(generators, cofactors)
        ]

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"GrobnerBasis(rank={self.rank}, {len(self.generators)} generators)"


def buchberger(
    gens: Sequence[FreeModuleElement],
    rank: Optional[int] = None,
    nvars: Optional[int] = None,
    degree_guard: Optional[int] = None,
) -> GrobnerBasis:
    """Compute the left Groebner basis of the submodule generated by gens.

    For an empty generator list, rank and nvars must be supplied.  Pair
    selection follows the normal strategy (lowest lcm degree first); the
    result is inter-reduced, monic, and sorted by decreasing leading
    monomial for reproducibility.
    """
    if degree_guard is None:
        degree_guard = _active_guard
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        if rank is None or nvars is None:
            raise ValueError("empty generator list needs explicit rank and nvars")
        return GrobnerBasis(rank, nvars, [], [], [], degree_guard=degree_guard)
    rank = gens[0].rank
    nvars = gens[0].nvars
    for g in gens:
        if g.rank != rank:
            raise ValueError("generators of different rank")
        if g.nvars != nvars:
            raise NvarsMismatch("generators over different Weyl algebras")

    zero_exp = (0,) * nvars
    rows: List[_Row] = []
    for i, g in enumerate(gens):
        red, quots = _reduce(_to_vec(g), rows, degree_guard)
        if red:
            cofs: List[VecT] = [{} for _ in gens]
            cofs[i] = {(0, zero_exp, zero_exp): Fraction(1)}
            rows.append(_Row(red, _cofactors(cofs, quots, rows)))

    def lcm_degree(i: int, j: int) -> Optional[int]:
        mi, mj = _lm(rows[i].vec), _lm(rows[j].vec)
        if mi[0] != mj[0]:
            return None
        a = tuple(max(x, y) for x, y in zip(mi[1], mj[1]))
        b = tuple(max(x, y) for x, y in zip(mi[2], mj[2]))
        return sum(a) + sum(b)

    pairs = []
    for i in range(len(rows)):
        for j in range(i):
            d = lcm_degree(i, j)
            if d is not None:
                pairs.append((d, j, i))

    while pairs:
        pairs.sort()
        _, i, j = pairs.pop(0)
        mi, mj = _lm(rows[i].vec), _lm(rows[j].vec)
        la = tuple(max(x, y) for x, y in zip(mi[1], mj[1]))
        lb = tuple(max(x, y) for x, y in zip(mi[2], mj[2]))
        qa_i = tuple(x - y for x, y in zip(la, mi[1]))
        qb_i = tuple(x - y for x, y in zip(lb, mi[2]))
        qa_j = tuple(x - y for x, y in zip(la, mj[1]))
        qb_j = tuple(x - y for x, y in zip(lb, mj[2]))
        t_i, t_j = 1 / rows[i].vec[mi], -1 / rows[j].vec[mj]
        spoly: VecT = {}
        vec_add(spoly, _left_mono_mul(qa_i, qb_i, rows[i].vec), t_i)
        vec_add(spoly, _left_mono_mul(qa_j, qb_j, rows[j].vec), t_j)
        red, quots = _reduce(spoly, rows, degree_guard)
        if red:
            # spoly = t_i*m_i*rows[i] + t_j*m_j*rows[j]: fold that into the
            # quotients with the opposite sign
            add_term(quots[i], (0, qa_i, qb_i), -t_i)
            add_term(quots[j], (0, qa_j, qb_j), -t_j)
            new_idx = len(rows)
            rows.append(_Row(red, _cofactors([{} for _ in gens], quots, rows)))
            for k in range(new_idx):
                d = lcm_degree(k, new_idx)
                if d is not None:
                    pairs.append((d, k, new_idx))

    rows = _interreduce(rows, degree_guard)
    rows.sort(key=lambda r: _key(_lm(r.vec)), reverse=True)

    generators = [_from_vec(r.vec, rank, nvars) for r in rows]
    cofactors = [
        [_from_vec(c, 1, nvars).coords[0] for c in r.cof] for r in rows
    ]
    return GrobnerBasis(rank, nvars, generators, list(gens), cofactors,
                        degree_guard=degree_guard)


def _interreduce(rows: List[_Row], guard: int) -> List[_Row]:
    # minimal set first (smallest leading monomials win), then tail-reduce
    # each survivor against the others and normalize to monic
    rows = sorted(rows, key=lambda r: _key(_lm(r.vec)))
    minimal: List[_Row] = []
    for r in rows:
        m = _lm(r.vec)
        if not any(_divides(_lm(s.vec), m) for s in minimal):
            minimal.append(r)
    out: List[_Row] = []
    for r in minimal:
        others = [s for s in minimal if s is not r]
        red, quots = _reduce(r.vec, others, guard)
        if not red:
            continue
        cofs = _cofactors([dict(c) for c in r.cof], quots, others)
        lc = red[_lm(red)]
        red = {m: c / lc for m, c in red.items()}
        cofs = [{m: c / lc for m, c in cof.items()} for cof in cofs]
        out.append(_Row(red, cofs))
    return out


def normal_form(v: FreeModuleElement, gb: GrobnerBasis) -> FreeModuleElement:
    """Left normal form of v modulo the basis; zero iff v is a member."""
    _check_compat(v, gb)
    red, _ = _reduce(_to_vec(v), gb._rows, gb.degree_guard)
    return _from_vec(red, gb.rank, gb.nvars)


def normal_form_with_cofactors(
    v: FreeModuleElement, gb: GrobnerBasis
) -> Tuple[FreeModuleElement, List[WeylElement]]:
    """Normal form plus quotients over the basis: v = sum q_i*gb_i + nf."""
    _check_compat(v, gb)
    red, quots = _reduce(_to_vec(v), gb._rows, gb.degree_guard)
    nf = _from_vec(red, gb.rank, gb.nvars)
    return nf, [_from_vec(q, 1, gb.nvars).coords[0] for q in quots]


def member(v: FreeModuleElement, gb: GrobnerBasis) -> bool:
    """True iff v lies in the submodule presented by gb."""
    return normal_form(v, gb).is_zero()


def express_in_inputs(
    v: FreeModuleElement, gb: GrobnerBasis
) -> Optional[List[WeylElement]]:
    """Write a member v as a left combination of the ORIGINAL generators.

    Returns coefficients u with v = sum u_j * inputs[j], or None when v
    is not a member.
    """
    nf, quots = normal_form_with_cofactors(v, gb)
    if not nf.is_zero():
        return None
    out = [WeylElement.zero(gb.nvars) for _ in gb.inputs]
    for q, cof in zip(quots, gb.cofactors):
        if q.is_zero():
            continue
        for j, c in enumerate(cof):
            out[j] = out[j] + q * c
    return out


def syzygies(
    matrix: Sequence[Sequence[WeylElement]],
    nvars: int,
    source_rank: Optional[int] = None,
    target_rank: Optional[int] = None,
    degree_guard: Optional[int] = None,
) -> GrobnerBasis:
    """Groebner basis of the left kernel of v |-> v*matrix on D^source_rank.

    `matrix` has source_rank rows of target_rank entries; the map sends
    the i-th unit vector to row i, so a vector (v_1..v_r) maps to
    sum_i v_i * row_i with coordinates multiplying entries on the left.
    """
    if degree_guard is None:
        degree_guard = _active_guard
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
        return GrobnerBasis(0, nvars, [], [], [], degree_guard=degree_guard)
    if s == 0:
        # map to the zero module: kernel is everything
        units = [FreeModuleElement.unit(r, nvars, i) for i in range(r)]
        cof = [[WeylElement.zero(nvars)] * r for _ in range(r)]
        return GrobnerBasis(r, nvars, units, [], cof, degree_guard=degree_guard)

    zero = WeylElement.zero(nvars)
    one = WeylElement.one(nvars)
    augmented = []
    for i in range(r):
        coords = list(rows[i]) + [zero] * r
        coords[s + i] = one
        augmented.append(FreeModuleElement(coords))
    gb = buchberger(augmented, degree_guard=degree_guard)

    kernel: List[FreeModuleElement] = []
    for g in gb.generators:
        if all(g.coords[j].is_zero() for j in range(s)):
            kernel.append(FreeModuleElement(g.coords[s:]))
    # sanity: every kernel element must map to zero exactly
    for k in kernel:
        img = [zero] * s
        for i in range(r):
            for j in range(s):
                img[j] = img[j] + k.coords[i] * rows[i][j]
        if any(not e.is_zero() for e in img):
            raise AssertionError("syzygy candidate does not map to zero")
    return GrobnerBasis(r, nvars, kernel, list(kernel),
                        [[one if i == j else zero for j in range(len(kernel))]
                         for i in range(len(kernel))],
                        degree_guard=degree_guard)


def submodule_equal(
    gens1: Sequence[FreeModuleElement],
    gens2: Sequence[FreeModuleElement],
    rank: int,
    nvars: int,
    degree_guard: Optional[int] = None,
) -> bool:
    """Mutual membership test: do two generating sets span the same submodule?"""
    if degree_guard is None:
        degree_guard = _active_guard
    gb1 = buchberger(list(gens1), rank=rank, nvars=nvars, degree_guard=degree_guard)
    gb2 = buchberger(list(gens2), rank=rank, nvars=nvars, degree_guard=degree_guard)
    return all(member(g, gb1) for g in gens2) and all(member(g, gb2) for g in gens1)


def _check_compat(v: FreeModuleElement, gb: GrobnerBasis):
    if v.rank != gb.rank:
        raise ValueError(f"rank mismatch: {v.rank} != {gb.rank}")
    if v.nvars != gb.nvars:
        raise NvarsMismatch(f"nvars mismatch: {v.nvars} != {gb.nvars}")
