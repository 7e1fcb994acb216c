"""Non-negatively graded chain complexes of free left D-modules.

A degree-n differential is stored as a matrix over D with ranks[n] rows
and ranks[n-1] columns; a left-linear map D^r -> D^s is the matrix of
images of unit vectors, and elements (row vectors) multiply matrix
entries on the LEFT, so composition is plain matrix product in
application order.  d o d = 0 is enforced at construction time.

A matrix is a `Matrix`: a tuple of sparse rows (`FreeModuleElement`s,
each a dict from column to nonzero entry) and its column count, so a
matrix without rows still knows its columns and the zero module D^0 is
an ordinary rank.  Products, sums and cones touch nonzero entries only.
Constructors also take dense nested lists of WeylElements, checked by
`as_matrix`; documents stay dense JSON lists.

Homology is returned as a finite presentation: the kernel Groebner
generators in ambient D^{r_n}, together with rows expressing (a) the
image generators of the next differential and (b) the syzygies among
the kernel generators.  Weak equivalence of chain maps is decided
exactly through acyclicity of the mapping cone: unit pivots (entries that
are nonzero scalars) are cancelled first, and Groebner membership of the
cycles in the boundaries decides what is left.

Every map between direct sums (sums, summand maps, cones, pushouts,
shears) is assembled by `block_matrix`, the one place that knows the
layout: the first summand's coordinates come first, each summand
offset by the ranks before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .groebner import (
    FreeModuleElement,
    Matrix,
    as_matrix,
    buchberger,
    express_in_inputs,
    lift_basis,
    member,
    syzygies,
)
from .rational_linalg import vec_add
from .weyl import WeylElement, act_on_poly


# ---------------------------------------------------------------- matrices

def zero_matrix(rows: int, cols: int, nvars: int) -> Matrix:
    return Matrix(tuple(FreeModuleElement.zero(cols, nvars) for _ in range(rows)), cols)


def identity_matrix(n: int, nvars: int) -> Matrix:
    one = WeylElement.one(nvars)
    return Matrix(tuple(FreeModuleElement.sparse(n, nvars, {i: one}) for i in range(n)), n)


def block_matrix(
    blocks: Sequence[Sequence[Optional[Matrix]]],
    rows: Sequence[int],
    cols: Sequence[int],
    nvars: int,
) -> Matrix:
    """The matrix of a map between direct sums, from its blocks.

    blocks[i][j] is the rows[i] x cols[j] matrix from summand i of the
    source to summand j of the target, or None for a zero block; the
    entries of block column j move right by the ranks cols[:j].
    """
    offsets = [sum(cols[:j]) for j in range(len(cols))]
    total = sum(cols)
    out = []
    for brow, r in zip(blocks, rows):
        for i in range(r):
            entries = {}
            for block, offset in zip(brow, offsets):
                if block is not None:
                    for k, e in block.rows[i].entries.items():
                        entries[offset + k] = e
            out.append(FreeModuleElement.sparse(total, nvars, entries))
    return Matrix(tuple(out), total)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(tuple(mat_apply(row, b) for row in a.rows), b.cols)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(tuple(x + y for x, y in zip(a.rows, b.rows)), a.cols)


def mat_neg(a: Matrix) -> Matrix:
    return Matrix(tuple(-x for x in a.rows), a.cols)


def mat_is_zero(a: Matrix) -> bool:
    return all(row.is_zero() for row in a.rows)


def mat_apply(v: FreeModuleElement, m: Matrix) -> FreeModuleElement:
    """Row vector times matrix: the image of v under the left-linear map,
    sum_j v_j * m_j with the rows m_j added in ascending j."""
    out: Dict[int, WeylElement] = {}
    for j, e in v.items():
        vec_add(out, m.rows[j].entries, e)
    return FreeModuleElement.sparse(m.cols, v.nvars, out)


# ---------------------------------------------------------------- complexes

class ComplexError(ValueError):
    """Malformed complex data (shape mismatch or d*d != 0)."""


def _shaped(m, rows: int, cols: int, nvars: int, what: str) -> Matrix:
    """m as a rows x cols D-matrix (see `as_matrix`), or ComplexError."""
    try:
        return as_matrix(m, nvars, rows, cols)
    except ValueError as e:
        raise ComplexError(f"{what}: {e}") from None


class FreeDComplex:
    """A bounded non-negatively graded complex of finite-rank free D-modules."""

    def __init__(self, nvars: int, ranks: Dict[int, int], differentials: Dict[int, object]):
        self.nvars = nvars
        self.ranks: Dict[int, int] = {}
        for n, r in ranks.items():
            if n < 0:
                raise ComplexError(f"degree {n} below 0: complexes are non-negatively graded")
            if r < 0:
                raise ComplexError(f"negative rank at degree {n}")
            if r > 0:
                self.ranks[n] = r
        diffs: Dict[int, Matrix] = {}
        for n, m in differentials.items():
            if n < 1:
                raise ComplexError(f"differential indexed by {n}; lowest allowed is 1")
            mat = _shaped(m, self.rank(n), self.rank(n - 1), nvars, f"differential at degree {n}")
            if not mat_is_zero(mat):
                diffs[n] = mat
        self.differentials = diffs
        self.top = max(self.ranks, default=-1)
        # d*d can be nonzero only where two nonzero differentials meet
        for n in sorted(diffs):
            if n + 1 in diffs and not mat_is_zero(mat_mul(diffs[n + 1], diffs[n])):
                raise ComplexError(f"d*d != 0 between degrees {n + 1} and {n - 1}")

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def diff(self, n: int) -> Matrix:
        m = self.differentials.get(n)
        if m is None:
            return zero_matrix(self.rank(n), self.rank(n - 1), self.nvars)
        return m

    def degrees(self):
        return sorted(self.ranks)

    def __eq__(self, other):
        return (
            isinstance(other, FreeDComplex)
            and self.nvars == other.nvars
            and self.ranks == other.ranks
            and self.differentials == other.differentials
        )

    def __repr__(self):
        ranks = ", ".join(f"{n}: D^{r}" for n, r in sorted(self.ranks.items()))
        return f"FreeDComplex({{{ranks}}})"


def sphere(n: int, nvars: int = 1) -> FreeDComplex:
    """D concentrated in degree n with zero differential."""
    if n < 0:
        raise ComplexError("sphere needs n >= 0")
    return FreeDComplex(nvars, {n: 1}, {})


def disk(n: int, nvars: int = 1) -> FreeDComplex:
    """D in degrees n and n-1 with identity differential; acyclic."""
    if n < 1:
        raise ComplexError("disk needs n >= 1")
    return FreeDComplex(nvars, {n: 1, n - 1: 1}, {n: identity_matrix(1, nvars)})


class ChainMap:
    """A degree-preserving map of complexes commuting with differentials."""

    def __init__(self, source: FreeDComplex, target: FreeDComplex, maps: Dict[int, object]):
        if source.nvars != target.nvars:
            raise ComplexError("source and target over different Weyl algebras")
        self.source = source
        self.target = target
        self.nvars = source.nvars
        mats: Dict[int, Matrix] = {}
        for n, m in maps.items():
            mat = _shaped(m, source.rank(n), target.rank(n), self.nvars, f"component at degree {n}")
            if not mat_is_zero(mat):
                mats[n] = mat
        self.maps = mats
        # a square can fail only where one of its paths composes two nonzero maps
        for n in sorted({n for n in mats if n in target.differentials}
                        | {n for n in source.differentials if n - 1 in mats}):
            lhs = mat_mul(self.component(n), target.diff(n))
            rhs = mat_mul(source.diff(n), self.component(n - 1))
            if lhs != rhs:
                raise ComplexError(f"does not commute with differentials at degree {n}")

    def component(self, n: int) -> Matrix:
        m = self.maps.get(n)
        if m is None:
            return zero_matrix(self.source.rank(n), self.target.rank(n), self.nvars)
        return m

    def apply(self, n: int, v: FreeModuleElement) -> FreeModuleElement:
        return mat_apply(v, self.component(n))

    def __eq__(self, other):
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and self.maps == other.maps
        )

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


def identity_map(c: FreeDComplex) -> ChainMap:
    return ChainMap(c, c, {n: identity_matrix(c.rank(n), c.nvars) for n in c.degrees()})


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """g after f (apply f first)."""
    if f.target != g.source:
        raise ComplexError("maps do not compose")
    return ChainMap(f.source, g.target, {n: mat_mul(f.maps[n], g.component(n)) for n in sorted(f.maps)})


def zero_map(source: FreeDComplex, target: FreeDComplex) -> ChainMap:
    return ChainMap(source, target, {})


def direct_sum(c1: FreeDComplex, c2: FreeDComplex) -> FreeDComplex:
    """Degreewise direct sum; simultaneously the product and the coproduct."""
    if c1.nvars != c2.nvars:
        raise ComplexError("summands over different Weyl algebras")
    nvars = c1.nvars
    ranks = {}
    for n in set(c1.ranks) | set(c2.ranks):
        ranks[n] = c1.rank(n) + c2.rank(n)
    diffs = {}
    for n in sorted(set(c1.differentials) | set(c2.differentials)):
        diffs[n] = block_matrix(
            [[c1.differentials.get(n), None], [None, c2.differentials.get(n)]],
            (c1.rank(n), c2.rank(n)), (c1.rank(n - 1), c2.rank(n - 1)), nvars,
        )
    return FreeDComplex(nvars, ranks, diffs)


def summand_inclusion(c1: FreeDComplex, c2: FreeDComplex, which: int) -> ChainMap:
    src = (c1, c2)[which]
    maps = {}
    for n in src.degrees():
        blocks = [None, None]
        blocks[which] = identity_matrix(src.rank(n), src.nvars)
        maps[n] = block_matrix([blocks], (src.rank(n),), (c1.rank(n), c2.rank(n)), src.nvars)
    return ChainMap(src, direct_sum(c1, c2), maps)


def summand_projection(c1: FreeDComplex, c2: FreeDComplex, which: int) -> ChainMap:
    total = direct_sum(c1, c2)
    tgt = (c1, c2)[which]
    maps = {}
    for n in tgt.degrees():
        blocks = [[None], [None]]
        blocks[which] = [identity_matrix(tgt.rank(n), tgt.nvars)]
        maps[n] = block_matrix(blocks, (c1.rank(n), c2.rank(n)), (tgt.rank(n),), tgt.nvars)
    return ChainMap(total, tgt, maps)


# ---------------------------------------------------------------- homology

@dataclass
class HomologyPresentation:
    """H_n presented by kernel generators and relation rows.

    `generators` live in the ambient free module D^{ambient_rank};
    each relation is a row in D^{len(generators)} whose evaluation
    sum u_l * generators[l] lies in the image of the next differential
    (or vanishes, for syzygy rows).  An empty generator list means H_n = 0.
    """

    degree: int
    nvars: int
    ambient_rank: int
    generators: List[FreeModuleElement] = field(default_factory=list)
    relations: List[FreeModuleElement] = field(default_factory=list)

    def is_zero(self) -> bool:
        return not self.generators


def _whole_kernel(c: FreeDComplex, n: int) -> bool:
    """ker d_n is all of D^{rank(n)}: d_n is zero."""
    return n == 0 or c.rank(n - 1) == 0 or n not in c.differentials


def kernel_generators(c: FreeDComplex, n: int) -> List[FreeModuleElement]:
    """Generators of ker d_n inside D^{rank(n)} (the unit vectors when d_n = 0)."""
    if _whole_kernel(c, n):
        return list(identity_matrix(c.rank(n), c.nvars).rows)
    return list(syzygies(c.diff(n), c.nvars).generators)


def image_generators(c: FreeDComplex, n: int) -> List[FreeModuleElement]:
    """Images of the unit vectors under d_{n+1}, i.e. rows of its matrix."""
    return list(c.diff(n + 1).rows)


def homology(c: FreeDComplex, n: int) -> HomologyPresentation:
    """Presentation of H_n = ker d_n / im d_{n+1} (C_0 / im d_1 at n = 0)."""
    r = c.rank(n)
    kernel = kernel_generators(c, n)
    image = [g for g in image_generators(c, n) if not g.is_zero()]
    if _cycles_are_boundaries(c, n, kernel, image):
        return HomologyPresentation(n, c.nvars, r)
    if _whole_kernel(c, n):
        # each image row is its own coordinate row; unit vectors have no syzygies
        return HomologyPresentation(n, c.nvars, r, kernel, image)
    ker_lift = lift_basis(kernel)
    relations: List[FreeModuleElement] = []
    for g in image:
        u = express_in_inputs(g, ker_lift)
        if u is None:
            raise AssertionError("image element escaped the kernel: d*d != 0?")
        relations.append(FreeModuleElement(u))
    relations += syzygies(Matrix(tuple(kernel), r), c.nvars).generators
    return HomologyPresentation(n, c.nvars, r, kernel, relations)


def _cycles_are_boundaries(c: FreeDComplex, n: int, kernel: List, image: List) -> bool:
    """Every cycle at degree n is a boundary: each kernel generator is a member
    of the span of the nonzero image rows; no Groebner work without cycles."""
    if not kernel:
        return True
    gb_img = buchberger(image, rank=c.rank(n), nvars=c.nvars)
    return all(member(k, gb_img) for k in kernel)


def unit_pivot(row: Dict[int, WeylElement], below: Optional[int] = None) -> Optional[Tuple[int, Fraction]]:
    """The first column of a sparse row, ascending and below `below` when
    given, whose entry is a nonzero scalar, and that scalar."""
    return next(((v, e.scalar_value()) for v, e in sorted(row.items())
                 if (below is None or v < below) and e.is_scalar()), None)


def clear_column(rows, pivot: Dict[int, WeylElement], v: int, sc: Fraction):
    """Clear column v of each sparse row by row -= row[v]*sc^-1*pivot, the
    left factor on the left, where pivot[v] is the nonzero scalar sc.

    The entries at v are popped, the pivot's too, and never summed to zero.
    """
    del pivot[v]
    inv = -1 / sc
    for row in rows:
        e = row.pop(v, None)
        if e is not None:
            vec_add(row, pivot, e.scale(inv))


def _cancel_unit_pivots(c: FreeDComplex) -> FreeDComplex:
    """A complex homotopy equivalent to c with no nonzero scalar entry.

    While some d_n[i][j] is a nonzero scalar, the pair (e_i, f_j) spans a
    contractible summand (the reduction lemma of Kaczynski, Mrozek and
    Slusarek): d_n loses row i and column j after clearing column j,
    d_{n+1} loses column i and d_{n-1} loses row j.  A cancellation in d_n
    only drops entries of its neighbours, so one ascending pass suffices.
    """
    work = {n: {i: dict(row.entries) for i, row in enumerate(c.diff(n).rows)} for n in c.ranks}
    for n in sorted(work):
        rows = work[n]
        while (found := next(((i, p) for i, row in rows.items() if (p := unit_pivot(row))), None)):
            i, (j, sc) = found
            clear_column(rows.values(), rows.pop(i), j, sc)
            for row in work.get(n + 1, {}).values():
                row.pop(i, None)
            del work[n - 1][j]
    diffs = {}
    for n in work:
        if n - 1 in work:
            col = {j: k for k, j in enumerate(work[n - 1])}
            diffs[n] = Matrix(tuple(FreeModuleElement.sparse(len(col), c.nvars, {col[j]: e for j, e in row.items()})
                                    for row in work[n].values()), len(col))
    return FreeDComplex(c.nvars, {n: len(rows) for n, rows in work.items()}, diffs)


def is_acyclic(c: FreeDComplex) -> bool:
    """Exact acyclicity: every cycle is a boundary, H_0 included.

    Unit pivots are cancelled first (`_cancel_unit_pivots`); the zero
    complex is acyclic, and Groebner membership decides what is left.
    """
    reduced = _cancel_unit_pivots(c)
    return all(
        _cycles_are_boundaries(reduced, n, kernel_generators(reduced, n),
                               [g for g in image_generators(reduced, n) if not g.is_zero()])
        for n in reduced.degrees()
    )


# ---------------------------------------------------------------- cone, shift

def mapping_cone(f: ChainMap) -> FreeDComplex:
    """Mc(f)_n = X_{n-1} (+) Y_n with d(c, c') = (-dc, f(c) + dc')."""
    x, y = f.source, f.target
    degrees = sorted({n + 1 for n in x.ranks} | set(y.ranks))  # the nonzero ones
    ranks = {n: x.rank(n - 1) + y.rank(n) for n in degrees}
    diffs = {}
    # the degrees where some block is nonzero
    for n in sorted({n + 1 for n in x.differentials} | {n + 1 for n in f.maps} | set(y.differentials)):
        dx = x.differentials.get(n - 1)
        diffs[n] = block_matrix(
            [[None if dx is None else mat_neg(dx), f.maps.get(n - 1)], [None, y.differentials.get(n)]],
            (x.rank(n - 1), y.rank(n)), (x.rank(n - 2), y.rank(n - 1)), f.nvars,
        )
    return FreeDComplex(f.nvars, ranks, diffs)


def shift(c: FreeDComplex, k: int) -> FreeDComplex:
    """Reindex degrees down by k: shift(c, k)_n = c_{n+k}, d scaled by (-1)^k.

    Negative k raises degrees.  The result must stay non-negatively
    graded, so k may not exceed the lowest occupied degree.
    """
    if c.ranks and k > min(c.ranks):
        raise ComplexError(f"shift by {k} drops below degree 0")
    sign = 1 if k % 2 == 0 else -1
    ranks = {n - k: r for n, r in c.ranks.items()}
    diffs = {}
    for n, m in c.differentials.items():
        diffs[n - k] = m if sign == 1 else mat_neg(m)
    return FreeDComplex(c.nvars, ranks, diffs)


def is_weak_equivalence(f: ChainMap) -> bool:
    """True iff the mapping cone of f is acyclic (exact computation)."""
    return is_acyclic(mapping_cone(f))


# ---------------------------------------------------------------- connections

class ConnectionModule:
    """An O-coherent D-module: free O-module of rank s with a flat connection.

    matrices[i] is the s x s matrix over O of the action of d_{i+1}:
    d_i . e_j = sum_k A_i[k][j] e_k, so on coordinate columns the
    operator is  partial_i + A_i.  That the entries lie in O (no d) and the
    connection is flat (automatic for one variable) is checked at construction.
    """

    def __init__(self, nvars: int, rank: int, matrices: Sequence[Sequence[Sequence[WeylElement]]]):
        if rank < 1:
            raise ValueError("rank must be positive")
        if len(matrices) != nvars:
            raise ValueError("need one connection matrix per variable")
        self.nvars = nvars
        self.rank = rank
        self.matrices = tuple(
            tuple(tuple(entry for entry in row) for row in m) for m in matrices
        )
        for m in self.matrices:
            if len(m) != rank or any(len(row) != rank for row in m):
                raise ValueError("connection matrix of the wrong shape")
            for e in (e for row in m for e in row):
                if not (isinstance(e, WeylElement) and e.nvars == nvars and e.is_polynomial()):
                    raise ValueError(f"connection entry {e!r} is not in O with nvars={nvars}")
        if not self.is_flat():
            raise ValueError("connection is not flat")

    def is_flat(self) -> bool:
        if self.nvars == 1:
            return True
        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                if not self._curvature_vanishes(i, j):
                    return False
        return True

    def _curvature_vanishes(self, i: int, j: int) -> bool:
        # partial_i A_j - partial_j A_i + [A_i, A_j] == 0
        s = self.rank
        d_i, d_j = WeylElement.d(i + 1, self.nvars), WeylElement.d(j + 1, self.nvars)
        for r in range(s):
            for c in range(s):
                term = act_on_poly(d_i, self.matrices[j][r][c]) - act_on_poly(d_j, self.matrices[i][r][c])
                for k in range(s):
                    term = term + self.matrices[i][r][k] * self.matrices[j][k][c]
                    term = term - self.matrices[j][r][k] * self.matrices[i][k][c]
                if not term.is_zero():
                    return False
        return True


def _untwist(p: WeylElement, j: int, m: ConnectionModule) -> Dict[int, WeylElement]:
    """Express the plain tensor p (x) e_j as sum_k Q_k acting on 1 (x) e_k,
    returned as the sparse row {k: Q_k} of nonzero Q_k.

    Recursion peels one d off each monomial using
    (d_i R) (x) e_j = d_i . (R (x) e_j) - sum_k (R A_i[k][j]) (x) e_k.
    """
    out: Dict[int, WeylElement] = {}
    for (a, b), coef in p.terms.items():
        vec_add(out, _untwist_mono(a, b, j, m), coef)
    return out


def _untwist_mono(a, b, j: int, m: ConnectionModule) -> Dict[int, WeylElement]:
    nvars = m.nvars
    if sum(b) == 0:
        return {j: WeylElement.monomial(nvars, a, b)}
    i = next(idx for idx, e in enumerate(b) if e > 0)
    b_rest = tuple(e - 1 if idx == i else e for idx, e in enumerate(b))
    out: Dict[int, WeylElement] = {}
    vec_add(out, _untwist_mono((0,) * nvars, b_rest, j, m), WeylElement.d(i + 1, nvars))
    r_elt = WeylElement.monomial(nvars, (0,) * nvars, b_rest)
    for k in range(m.rank):
        gain = m.matrices[i][k][j]
        if gain:
            vec_add(out, _untwist(r_elt * gain, k, m), -1)
    if sum(a) > 0:
        xa = WeylElement.monomial(nvars, a, (0,) * nvars)
        out = {t: xa * q for t, q in out.items()}
    return out


def _untwist_matrix(mat: Matrix, rows: int, cols: int, m: ConnectionModule, nvars: int) -> Matrix:
    """Conjugate a matrix over D through D (x)_O M ~ D^s blockwise: entry
    (u, v) becomes the s x s block whose row j untwists it against e_j."""
    s = m.rank
    blocks: List[List[Optional[Matrix]]] = [[None] * cols for _ in range(rows)]
    for u, row in enumerate(mat.rows):
        for v, e in row.entries.items():
            blocks[u][v] = Matrix(tuple(FreeModuleElement.sparse(s, nvars, _untwist(e, j, m)) for j in range(s)), s)
    return block_matrix(blocks, (s,) * rows, (s,) * cols, nvars)


def tensor_with_connection(c: FreeDComplex, m: ConnectionModule) -> FreeDComplex:
    """C (x)_O M as a free D-complex through D (x)_O M ~ D^s.

    The isomorphism sends the unit row (u, j) to 1 (x) e_j in the u-th
    coordinate; the new differential is the old one conjugated through
    it, which amounts to untwisting each matrix entry.
    """
    if c.nvars != m.nvars:
        raise ValueError("complex and connection over different Weyl algebras")
    if not m.is_flat():
        raise ValueError("connection is not flat")
    s = m.rank
    ranks = {n: r * s for n, r in c.ranks.items()}
    diffs = {
        n: _untwist_matrix(mat, c.rank(n), c.rank(n - 1), m, c.nvars)
        for n, mat in c.differentials.items()
    }
    return FreeDComplex(c.nvars, ranks, diffs)


def tensor_chain_map_with_connection(f: ChainMap, m: ConnectionModule) -> ChainMap:
    """f (x) Id_M between the twisted complexes (same untwisting)."""
    src = tensor_with_connection(f.source, m)
    tgt = tensor_with_connection(f.target, m)
    maps = {
        n: _untwist_matrix(mat, f.source.rank(n), f.target.rank(n), m, f.nvars)
        for n, mat in f.maps.items()
    }
    return ChainMap(src, tgt, maps)
