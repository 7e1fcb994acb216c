"""The projective model structure at the level of computable recognizers.

Fibrations are detected exactly (Groebner surjectivity in positive
degrees).  Cofibration recognition is a certificate system: `certified`
means degreewise injective with an explicitly computed free complement
of the image, `refuted` means injectivity fails, and `not-certified`
is an honest "don't know" (projectivity of a general cokernel is not
decided here).  One unit-pivot row reduction per degree certifies,
gives the complement and splits target elements along it; a certified
certificate carries those splits next to the map it certifies, and
`pushout` reads them from there.  Pushouts are taken along certified
maps only, which is exactly the class of pushouts the underlying theory
ever computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .complexes import (
    ChainMap,
    ComplexError,
    FreeDComplex,
    block_matrix,
    clear_column,
    compose,
    disk,
    identity_matrix,
    mat_apply,
    sphere,
    unit_pivot,
)
from .groebner import (
    FreeModuleElement,
    Matrix,
    buchberger,
    member,
    syzygies,
)
from .obasis import (
    Entry,
    OBasisChainMap,
    OBasisComplex,
    Slot,
    SlotId,
    tensor_free,
)
from .rational_linalg import vec_add
from .weyl import WeylElement


# ---------------------------------------------------------------- generators

@dataclass(frozen=True)
class GeneratingMap:
    """iota_n: S^{n-1} -> D^n (n >= 1), iota_0: 0 -> S^0, zeta_n: 0 -> D^n."""

    kind: str  # "iota" | "zeta"
    n: int

    def __post_init__(self):
        if self.kind not in ("iota", "zeta"):
            raise ValueError(f"unknown generating map kind {self.kind!r}")
        if self.kind == "iota" and self.n < 0:
            raise ValueError("iota needs n >= 0")
        if self.kind == "zeta" and self.n < 1:
            raise ValueError("zeta needs n >= 1")

    def source(self, nvars: int = 1) -> FreeDComplex:
        if self.kind == "zeta" or self.n == 0:
            return FreeDComplex(nvars, {}, {})
        return sphere(self.n - 1, nvars)

    def target(self, nvars: int = 1) -> FreeDComplex:
        if self.kind == "iota" and self.n == 0:
            return sphere(0, nvars)
        return disk(self.n, nvars)

    def chain_map(self, nvars: int = 1) -> ChainMap:
        src, tgt = self.source(nvars), self.target(nvars)
        maps = {}
        if self.kind == "iota" and self.n >= 1:
            maps[self.n - 1] = identity_matrix(1, nvars)
        return ChainMap(src, tgt, maps)


def iota(n: int) -> GeneratingMap:
    return GeneratingMap("iota", n)


def zeta(n: int) -> GeneratingMap:
    return GeneratingMap("zeta", n)


# ---------------------------------------------------------------- fibrations

def is_fibration(f: ChainMap) -> bool:
    """Surjective in every strictly positive degree (exact membership)."""
    for n in f.target.degrees():
        if n == 0:
            continue
        s = f.target.rank(n)
        rows = [r for r in f.component(n).rows if not r.is_zero()]
        gb = buchberger(rows, rank=s, nvars=f.nvars)
        for i in range(s):
            if not member(FreeModuleElement.unit(s, f.nvars, i), gb):
                return False
    return True


# ---------------------------------------------------------------- cofibrations

@dataclass
class CofibrationCertificate:
    """Outcome of cofibration recognition for a chain map.

    certified: degreewise injective and the image has an explicit free
    complement; `complement[n]` lists elements of the target degree-n
    module whose classes freely generate the cokernel.
    refuted: `kernel_witness` is a nonzero kernel element in some degree.
    not-certified: injective as far as checked, but no scalar-pivot
    splitting was found; nothing is claimed about the cokernel.

    A certified certificate also keeps the map f it certifies and per degree
    its split w -> (a, q), w = sum a_i f(e_i) + sum q_k c_k over the cells c_k.
    """

    verdict: str
    complement: Dict[int, List[FreeModuleElement]] = field(default_factory=dict)
    kernel_witness: Optional[Tuple[int, FreeModuleElement]] = None
    map: Optional[ChainMap] = field(default=None, compare=False, repr=False)
    splits: Dict[int, Callable] = field(default_factory=dict, compare=False, repr=False)


def _unit_pivot_split(mat: Matrix, nvars: int):
    """Unit-pivot row reduction of the tagged rows (M_u | e_u), or None.

    Pivot rule: the first unpivoted row, then its first unpivoted column
    v whose entry is a nonzero scalar sc (`unit_pivot`); the other rows are
    cleared at v by row operations (`clear_column`).  Every row stays
    (E_u*M | E_u) for one invertible E, and column v_u of E*M holds sc_u at
    row u and zero elsewhere; the pivot entries are not stored.
    None when some row is never pivoted.  When every row is, a kernel
    vector k of M gives k*E^-1 killing E*M, hence zero at each pivot
    column: M is injective, and with the unit vectors e_k of the free
    (never pivoted) columns its rows form a basis of D^cols.  Returns the
    free columns and the split w -> (a, q), w = sum a_i*M_i + sum q_k*e_k,
    by substitution: b_u = w[v_u]/sc_u, a = sum b_u*E_u and
    q_k = w[k] - sum b_u*(E*M)_u[k].
    """
    rows, cols = len(mat.rows), mat.cols
    one = WeylElement.one(nvars)
    work = [dict(row.entries) for row in mat.rows]
    for i, w in enumerate(work):
        w[cols + i] = one
    pivots: Dict[int, Tuple[int, Fraction]] = {}  # row u -> (v_u, sc_u)
    while len(pivots) < rows:
        # a cleared pivot column is gone from every row, so none is found twice
        found = next(((u, p) for u in range(rows) if u not in pivots if (p := unit_pivot(work[u], cols))), None)
        if found is None:
            return None
        u, (v, sc) = found
        clear_column(work, work[u], v, sc)
        pivots[u] = (v, sc)
    taken = {v for v, _ in pivots.values()}
    free = [k for k in range(cols) if k not in taken]

    def split(w: FreeModuleElement) -> Tuple[FreeModuleElement, FreeModuleElement]:
        through: Dict[int, WeylElement] = {}  # sum b_u * work[u]
        for u, (v, sc) in pivots.items():
            if v in w.entries:
                vec_add(through, work[u], w.entries[v].scale(Fraction(1) / sc))
        a = {i: through[cols + i] for i in range(rows) if cols + i in through}
        q = {i: w.entries[k] for i, k in enumerate(free) if k in w.entries}
        vec_add(q, {i: through[k] for i, k in enumerate(free) if k in through}, -1)
        return FreeModuleElement.sparse(rows, nvars, a), FreeModuleElement.sparse(len(free), nvars, q)

    return free, split


def certify_cofibration(f: ChainMap) -> CofibrationCertificate:
    """Certificate-style cofibration recognition (see class docstring).

    One unit-pivot reduction per degree certifies; only when some degree
    fails does `syzygies` run, there, to tell refuted from not-certified.
    """
    reductions = {n: _unit_pivot_split(f.component(n), f.nvars)
                  for n in sorted(set(f.source.ranks) | set(f.target.ranks))}
    failed = [n for n, red in reductions.items() if red is None]
    for n in failed:
        ker = syzygies(f.component(n), f.nvars)
        if ker.generators:
            return CofibrationCertificate("refuted", kernel_witness=(n, ker.generators[0]))
    if failed:
        return CofibrationCertificate("not-certified")
    complement = {
        n: [FreeModuleElement.unit(f.target.rank(n), f.nvars, k) for k in free]
        for n, (free, _) in reductions.items() if free
    }
    return CofibrationCertificate("certified", complement=complement, map=f,
                                  splits={n: split for n, (_, split) in reductions.items()})


def _splits_of(g: ChainMap, certificate: CofibrationCertificate) -> Dict[int, Callable]:
    """The certificate's per-degree splits, once it is known to certify g."""
    if certificate.map != g:
        raise ComplexError("certificate was made for another map; certificate is stale")
    return certificate.splits


# ---------------------------------------------------------------- pushouts

@dataclass
class PushoutResult:
    complex: FreeDComplex
    from_target: ChainMap  # Y -> Z, along f
    from_attached: ChainMap  # W -> Z, the pushout of f
    # the complement cells of W_n: from_attached sends cell i to the unit
    # y.rank(n) + i of Z_n
    cells: Dict[int, List[FreeModuleElement]]


def pushout(
    f: ChainMap,
    g: ChainMap,
    certificate: Optional[CofibrationCertificate] = None,
) -> PushoutResult:
    """Pushout of f: X -> Y along a split-injective g: X -> W.

    Z_n = Y_n (+) (free complement of g)_n with the induced differential;
    requires (and checks) a `certified` certificate for g.
    """
    if f.source != g.source:
        raise ComplexError("legs do not share a source")
    if certificate is None:
        certificate = certify_cofibration(g)
    if certificate.verdict != "certified":
        raise ComplexError(f"attaching leg is {certificate.verdict}; pushout needs a certified map")
    x, y, w = f.source, f.target, g.target
    nvars = f.nvars
    comp = certificate.complement
    cells = {n: comp.get(n, []) for n in w.degrees()}

    ranks = {n: y.rank(n) + len(cells.get(n, [])) for n in sorted(set(y.ranks) | set(cells))}

    splits = _splits_of(g, certificate)

    def split(vectors: List[FreeModuleElement], n: int) -> List[Matrix]:
        """The blocks (f(a) | q) of the Z_n-rows of W_n-vectors v = g(a) + sum q_k c_k."""
        halves = [splits[n](v) for v in vectors]
        return [Matrix(tuple(mat_apply(a, f.component(n)) for a, _ in halves), y.rank(n)),
                Matrix(tuple(q for _, q in halves), len(cells[n]))]

    diffs: Dict[int, Matrix] = {}
    for n in ranks:
        if not ranks[n] or not ranks.get(n - 1):
            continue
        cells_n = cells.get(n, [])
        # the rows of the cells: d(cell) in W_{n-1}, split; zero where W_{n-1} = 0
        fa = q = None
        if cells_n and w.rank(n - 1):
            fa, q = split([mat_apply(cell, w.diff(n)) for cell in cells_n], n - 1)
        diffs[n] = block_matrix(
            [[y.diff(n), None], [fa, q]],
            (y.rank(n), len(cells_n)), (y.rank(n - 1), len(cells.get(n - 1, []))), nvars,
        )
    z = FreeDComplex(nvars, ranks, diffs)

    h_maps = {
        n: block_matrix([[identity_matrix(y.rank(n), nvars), None]],
                        (y.rank(n),), (y.rank(n), len(cells.get(n, []))), nvars)
        for n in y.degrees()
    }
    h = ChainMap(y, z, h_maps)
    k_maps = {n: block_matrix([split(identity_matrix(w.rank(n), nvars).rows, n)],
                              (w.rank(n),), (y.rank(n), len(cells[n])), nvars)
              for n in w.degrees()}
    k = ChainMap(w, z, k_maps)

    if compose(f, h) != compose(g, k):
        raise AssertionError("pushout square does not commute")
    return PushoutResult(z, h, k, cells)


def pushout_factor(po: PushoutResult, q: ChainMap, p: ChainMap) -> ChainMap:
    """The unique map u: Z -> E with u o from_target = q, u o from_attached = p.

    q: Y -> E and p: W -> E must form a cocone (q f = p g); rows of u are
    forced: Y-part by q, cell rows by p on the complement cells.
    """
    y = po.from_target.source
    z = po.complex
    e = q.target
    if p.target != e:
        raise ComplexError("cocone legs land in different complexes")
    maps = {}
    for n in z.degrees():
        cells = po.cells.get(n, [])
        cell_rows = Matrix(tuple(mat_apply(cell, p.component(n)) for cell in cells), e.rank(n))
        maps[n] = block_matrix([[q.component(n)], [cell_rows]], (y.rank(n), len(cells)), (e.rank(n),), z.nvars)
    return ChainMap(z, e, maps)


# ---------------------------------------------------------------- cells

@dataclass
class AttachResult:
    complex: FreeDComplex
    inclusion: ChainMap  # base -> complex


def attach_cells(base: FreeDComplex, attachments: Sequence[Tuple[int, Optional[FreeModuleElement]]]) -> AttachResult:
    """Iterated pushout along generating cofibrations iota_n.

    Each attachment is (n, z) with z a cycle in degree n-1 of the current
    complex (z is ignored for n = 0, and None is the zero cycle).  For free
    complexes that pushout appends one cell e to degree n with d(e) = z: a
    last row z of d_n, and a new last column of d_{n+1}, where no row has
    an entry.  Over a zero C_{n-1} the cycle is the element of D^0 and the
    cell a new summand S^n.  Returns the final complex and the inclusion of
    the base, identity blocks followed by the cells, which
    certify_cofibration certifies.
    """
    nvars = base.nvars
    ranks = dict(base.ranks)
    rows = {n: list(base.diff(n).rows) for n in base.degrees() if n >= 1}
    for (n, z) in attachments:
        if n < 0:
            raise ValueError("iota needs n >= 0")
        if n >= 1:
            below = ranks.get(n - 1, 0)
            if z is None:
                z = FreeModuleElement.zero(below, nvars)
            if z.rank != below:
                raise ComplexError(f"attaching element has rank {z.rank}, degree {n - 1} has rank {below}")
            # a row of d_{n-1} may be older than the last cells of degree n-2,
            # which it does not reach; mat_apply reads its entries only
            if n >= 2 and not mat_apply(z, Matrix(tuple(rows.get(n - 1, ())), ranks.get(n - 2, 0))).is_zero():
                raise ComplexError("attaching element is not a cycle")
            rows.setdefault(n, []).append(z)
        ranks[n] = ranks.get(n, 0) + 1
    diffs = {n: Matrix(tuple(FreeModuleElement.sparse(ranks.get(n - 1, 0), nvars, r.entries) for r in rs),
                       ranks.get(n - 1, 0))
             for n, rs in rows.items()}
    complex_ = FreeDComplex(nvars, dict(sorted(ranks.items())), diffs)
    maps = {n: block_matrix([[identity_matrix(r, nvars), None]], (r,), (r, ranks[n] - r), nvars)
            for n, r in base.ranks.items()}
    return AttachResult(complex_, ChainMap(base, complex_, maps))


# ---------------------------------------------------------------- box products

@dataclass
class PushoutProductResult:
    """The corner map of two generating maps, with its cokernel described.

    `cokernel` maps each degree to the codomain slots not hit by the
    (slotwise identity) corner map; each listed slot is a copy of
    D (x)_O D with O-basis {d^a e (x) d^b f}.
    """

    domain: OBasisComplex
    codomain: OBasisComplex
    map: OBasisChainMap
    cokernel: Dict[int, List[SlotId]]


def pushout_product(a: GeneratingMap, b: GeneratingMap, nvars: int = 1) -> PushoutProductResult:
    """The induced map from the pushout corner of a(x)id, id(x)b to tgt(a)(x)tgt(b)."""
    one = WeylElement.one(nvars)
    codomain = tensor_free(a.target(nvars), b.target(nvars))

    slots: Dict[SlotId, Slot] = {}
    diff: Dict[SlotId, List[Entry]] = {}
    if a.kind == "iota" and b.kind == "iota" and a.n >= 1 and b.n >= 1:
        m, n = a.n, b.n
        # corner per the cokernel computation: two slots on top, the
        # identified D(x)D below
        slots[(m, n - 1, 0, 0)] = Slot(degree=m + n - 1, factors=2)
        slots[(m - 1, n, 0, 0)] = Slot(degree=m + n - 1, factors=2)
        slots[(m - 1, n - 1, 0, 0)] = Slot(degree=m + n - 2, factors=2)
        diff[(m, n - 1, 0, 0)] = [((m - 1, n - 1, 0, 0), 0, one)]
        sign = one if (m - 1) % 2 == 0 else -one
        diff[(m - 1, n, 0, 0)] = [((m - 1, n - 1, 0, 0), 1, sign)]
    else:
        # here a source is zero, so of the two sides src(a) (x) tgt(b) and
        # tgt(a) (x) src(b) glued along src(a) (x) src(b), one is the corner
        if a.source(nvars).ranks:
            corner = tensor_free(a.source(nvars), b.target(nvars))
        else:
            corner = tensor_free(a.target(nvars), b.source(nvars))
        slots, diff = corner.slots, corner.diff_entries

    domain = OBasisComplex(nvars, slots, diff)
    entries = {sid: [(sid, 0, one)] for sid in domain.slots if sid in codomain.slots}
    if len(entries) != len(domain.slots):
        raise AssertionError("corner slot missing from the full tensor product")
    corner_map = OBasisChainMap(domain, codomain, entries)
    corner_map.check_chain_property(max_weight=2)

    cokernel: Dict[int, List[SlotId]] = {}
    for sid, slot in codomain.slots.items():
        if sid not in domain.slots:
            cokernel.setdefault(slot.degree, []).append(sid)
    for deg in cokernel:
        cokernel[deg].sort()
    return PushoutProductResult(domain, codomain, corner_map, cokernel)
