"""Modules over a Sullivan differential graded D-algebra A.

An AModule is A (x) V: V a free graded D-module on the ordered
homogeneous generators g_0, g_1, ..., and A acting through its
multiplication.  The differential assigns to each g_j an element of
A (x) V_{<j} (lowering) and extends by

    d(a (x) v) = d_A(a) (x) v + (-1)^{|a|} a . d(v)

which squares to zero and commutes with the A-action; morphisms extend
assignments q(g_j) with d_B q(g_j) = q(d g_j) by q(a (x) v) = a . q(v).

`AModule` is the module kind of `dga`'s `GeneratedObject`, which holds
the constructor checks, `extended`, the atoms, `d` and the memo of
d(d^b g_j), as for Sullivan algebras; a relative Sullivan A-module
T (+) A (x) V is T's generators followed by V's, and a pushout along a
generating cofibration is one `extended` step.  `AModuleMorphism` is the
module kind of `dga`'s `Morphism`, which memoises its atom images; the
inclusion, composite, extension and pushout record are `dga`'s too.

Every A-module complex is a twisted tensor N (x) W with keys
(n_key,) + w: given d(w) = sum a (x) w' over A-monomials a,

    d(n (x) w) = dn (x) w + sum (-1)^{|n|(1+|a|)} (a . n) (x) w'.

Each instance supplies its N, its W-blocks and its twist terms:
`AModule` itself (N = A, w a V-atom (j, b), so the key
(term_key, j, b) is x^alpha * (A-monomial atoms) (x) d^b g_j and the
formula above is its differential), `TensorOverA` (N = B, w a V-atom of
A (x) V) and `BaseChangeModule` (w the atoms of B's new generators).
Weights (x-degree + d-orders + atom counts) slice every degree finitely,
so bounded weak-equivalence checks run on the underlying complexes.

The differentials and the actions on keys are memoised per instance
over the term kernel of `dga` and are read-only, with `int`
coefficients where integral.  `AModuleElement` is
the module kind of `dga`'s element class `GradedElement` and holds
`Fraction`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .complexes import FreeDComplex
from .dga import (
    AlgebraElement,
    AlgebraMorphism,
    CellPushout,
    GeneratedObject,
    Generator,
    GradedElement,
    Morphism,
    SullivanAlgebra,
    TermKey,
    atom_name,
    attach_cell,
)
from .rational_linalg import add_term, apply_linear
from .slices import TruncationResult, bounded_weq
from .weyl import Exponent, exponents_bounded, join_terms, power_factors

ModKey = Tuple  # (term_key, j, b)
ModCoeffs = Dict[ModKey, Fraction]


class AModuleElement(GradedElement):
    """An element of an A-module, on the element class of `dga`."""

    __slots__ = ()
    module = property(lambda self: self.owner)

    def __repr__(self):
        return f"AModuleElement({dict(list(self.coeffs.items())[:4])!r}...)" if len(
            self.coeffs
        ) > 4 else f"AModuleElement({self.coeffs!r})"

    def to_string(self) -> str:
        agens, mgens = self.module.algebra.generators, self.module.generators

        def term(key):
            (alpha, atoms), j, b = key
            names = [atom_name(agens[ja].name, ba) for ja, ba in atoms] + [atom_name(mgens[j].name, b)]
            return self.coeffs[key], power_factors("x", alpha) + names

        return join_terms(map(term, sorted(self.coeffs, key=repr)))


class AModule(GeneratedObject):
    """A (x) V with a lowering differential: the twisted tensor of the
    module docstring with N = A and W the V-atoms."""

    element = AModuleElement

    def __init__(
        self,
        algebra: SullivanAlgebra,
        generators: Sequence[Generator] = (),
        diff: Optional[Dict[int, ModCoeffs]] = None,
    ):
        self.algebra = self.n_mod = algebra
        self.nvars = algebra.nvars
        self._twist_memo: Dict[Tuple, Tuple] = {}
        self._diff_memo: Dict[ModKey, ModCoeffs] = {}
        self._act_memo: Dict[Tuple[TermKey, ModKey], ModCoeffs] = {}
        self._basis_memo: Dict[Tuple[int, int], Tuple[Tuple[ModKey, int], ...]] = {}
        super().__init__(generators, diff)

    ground = property(lambda self: self.algebra)  # what both ends of a morphism share

    def morphism(self, target: "AModule", assignments: Dict[int, "AModuleElement"]) -> "AModuleMorphism":
        return AModuleMorphism(self, target, assignments)

    # -- key structure ----------------------------------------------------

    def atom_key(self, j: int, b: Exponent) -> ModKey:
        return ((0,) * self.nvars, ()), j, b

    def key_atoms(self, key: ModKey) -> Tuple[Tuple[int, Exponent], ...]:
        return (key[1:],)

    def key_degree(self, key: ModKey) -> int:
        return self.algebra.term_degree(key[0]) + self.generators[key[1]].degree

    def w_blocks(self, degree: int, max_weight: int):
        """((j, b), |g_j|, |b| + 1) for each V-atom d^b g_j within the bounds, in order."""
        for j, g in enumerate(self.generators):
            if g.degree <= degree:
                for b in exponents_bounded(self.nvars, max_weight - 1):
                    yield (j, b), g.degree, sum(b) + 1

    def twist_terms(self, w):
        # d(d^b g_j) in A (x) V, keys (a, j', b')
        for key, c in self._d_atom(w).items():
            yield key[0], self.algebra.term_degree(key[0]), key[1:], c

    def basis_keys(self, degree: int, max_weight: int) -> Tuple[Tuple[ModKey, int], ...]:
        """The (key, weight) pairs of the given degree and weight bound,
        enumerated once per (degree, max_weight) and kept on this module,
        in the order a fresh enumeration yields (see `SullivanAlgebra.basis_keys`)."""
        pairs = self._basis_memo.get((degree, max_weight))
        if pairs is None:
            pairs = self._basis_memo[(degree, max_weight)] = tuple(
                _twisted_basis_keys(self, degree, max_weight))
        return pairs

    def top_degree_hint(self, degree_window: int) -> int:
        """Degrees worth checking: the generators plus the algebra window."""
        return max([g.degree for g in self.generators], default=0) + degree_window

    # -- A-action -----------------------------------------------------------

    def act_algebra_term_key(self, aterm: TermKey, key: ModKey) -> ModCoeffs:
        """The action of a single algebra monomial on a basis element,
        a . (n (x) w) = (a . n) (x) w, memoised; read-only."""
        out = self._act_memo.get((aterm, key))
        if out is None:
            out = self._act_memo[(aterm, key)] = {
                (k,) + key[1:]: c for k, c in self.n_mod.act_algebra_term_key(aterm, key[0]).items()}
        return out

    def act_algebra(self, a: AlgebraElement, elt: "AModuleElement") -> "AModuleElement":
        out: ModCoeffs = {}
        for aterm, ca in a.coeffs.items():
            for key, cm in elt.coeffs.items():
                for k2, c2 in self.act_algebra_term_key(aterm, key).items():
                    add_term(out, k2, ca * cm * c2)
        return AModuleElement(self, out)

    # -- D-action -------------------------------------------------------------

    def act_d_key(self, i: int, key: ModKey) -> ModCoeffs:
        aterm, j, b = key
        out: ModCoeffs = {}
        # Leibniz: derivative of the algebra part, then of the V-atom
        for a2, c in self.algebra.act_d_term(i, aterm).items():
            add_term(out, (a2, j, b), c)
        nb = tuple(e + 1 if k == i else e for k, e in enumerate(b))
        add_term(out, (aterm, j, nb), 1)
        return out

    def act_monomial(self, a: Exponent, b: Exponent, coeffs: ModCoeffs) -> ModCoeffs:
        """x^a d^b applied to a coefficient dict: d's first, then x's."""
        for i, e in enumerate(b):
            for _ in range(e):
                coeffs = apply_linear(lambda key: self.act_d_key(i, key), coeffs)
        return {((tuple(x + y for x, y in zip(alpha, a)), atoms), j, bv): c
                for ((alpha, atoms), j, bv), c in coeffs.items()}

    # -- differential ------------------------------------------------------------

    def diff_key(self, key: ModKey) -> ModCoeffs:
        """The differential of one basis key, memoised; read-only."""
        out = self._diff_memo.get(key)
        if out is None:
            out = self._diff_memo[key] = _twisted_diff_key(self, key)
        return out

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"AModule(V=[{gens}])"


# ------------------------------------------------------------- constructors

def free_amodule(algebra: SullivanAlgebra, c: FreeDComplex, name: str = "m") -> AModule:
    """A (x) C for a free D-complex C, with the standard differential."""
    if c.nvars != algebra.nvars:
        raise ValueError("complex over the wrong Weyl algebra")
    # the generator index of each cell (degree, position), degrees ascending
    cells = [(n, s) for n in sorted(c.ranks) for s in range(c.rank(n))]
    index = {cell: j for j, cell in enumerate(cells)}
    gens = [Generator(f"{name}{n}_{s}", n) for n, s in index]
    diff: Dict[int, ModCoeffs] = {}
    for n, mat in c.differentials.items():
        for s, row in enumerate(mat.rows):
            coeffs: ModCoeffs = {}
            for v, entry in row.items():
                for (a, b), coef in entry.terms.items():
                    add_term(coeffs, ((a, ()), index[(n - 1, v)], b), coef)
            if coeffs:
                diff[index[(n, s)]] = coeffs
    return AModule(algebra, gens, diff)


def free_sphere_module(algebra: SullivanAlgebra, n: int, name: str = "e") -> AModule:
    """A (x) S^n: one generator of degree n, zero differential."""
    return AModule(algebra, (Generator(name, n),), {})


def free_disk_module(algebra: SullivanAlgebra, n: int, name: str = "e") -> AModule:
    """A (x) D^n: generators in degrees n-1, n with d(top) = bottom."""
    sphere = free_sphere_module(algebra, n - 1, name=f"{name}{n - 1}")
    return sphere.extended(Generator(f"{name}{n}", n), sphere.generator(0))


# ------------------------------------------------------------- morphisms

class AModuleMorphism(Morphism):
    """An A-linear chain map fixed by generator values, checked as every
    `dga.Morphism` is; evaluation follows q(a (x) v) = a . q(v)."""

    def apply_key(self, key: ModKey) -> ModCoeffs:
        aterm = key[0]
        return apply_linear(lambda key2: self.target.act_algebra_term_key(aterm, key2),
                            self._atom_image(key[1:]))


# ------------------------------------------------------------- pushouts

def amod_pushout_gen(f: AModuleMorphism, name: str = "c") -> CellPushout:
    """Pushout of Id_A (x) iota_n: A (x) S^{n-1} -> A (x) D^n along f.

    f must have source A (x) S^{n-1}; its single assignment z = f(1_{n-1})
    is closed of degree n-1 (the morphism check of f ensures it), and the
    pushout is B extended by 1_n with d(1_n) = z and h the inclusion of B.
    The leg from A (x) D^n sends its top generator to 1_n and is not built:
    a cocone is q on B and its value on 1_n (see `dga.pushout_factor`).
    """
    src = f.source
    if len(src.generators) != 1 or src.diff_coeffs:
        raise ValueError("source of f must be a free sphere module A (x) S^{n-1}")
    return attach_cell(f.target, Generator(name, src.generators[0].degree + 1), f.assignments[0])


@dataclass
class TransfiniteResult:
    module: AModule
    stages: List[AModule]


def transfinite_compose_finite(
    base: AModule,
    stages: Sequence[Tuple[int, Optional[AModuleElement]]],
) -> TransfiniteResult:
    """Iterated pushouts of generating cofibrations at finite stages.

    Each stage is (n, z) with z a closed degree-(n-1) element of the
    current module (None or zero for a split attachment); the colimit of
    the listed stages is the final module, with B included as a relative
    Sullivan A-module.
    """
    current = base
    built = [base]
    for idx, (n, z) in enumerate(stages):
        if z is None:
            z = current.zero()
        if z.coeffs and z.degree() != n - 1:
            raise ValueError(f"stage {idx}: attaching element has degree {z.degree()}, expected {n - 1}")
        if z.module != current:
            raise ValueError(f"stage {idx}: attaching element lives in the wrong module")
        current = current.extended(Generator(f"c{idx}", n), z)
        built.append(current)
    return TransfiniteResult(current, built)


# ------------------------------------------------------ twisted tensors

def _twisted_basis_keys(t, degree: int, max_weight: int) -> Iterator[Tuple[Tuple, int]]:
    """Keys (n_key,) + w, W-blocks outside, N inside, weighing n_key's weight + w's cost."""
    for w, w_degree, cost in t.w_blocks(degree, max_weight):
        for nk, weight in t.n_mod.basis_keys(degree - w_degree, max_weight - cost):
            yield (nk,) + w, weight + cost


def _twisted_diff_key(t, key) -> Dict:
    """d(n (x) w) on one key; the twist terms of each w are kept on t."""
    nk, w = key[0], key[1:]
    out: Dict = {(k2,) + w: c for k2, c in t.n_mod.diff_key(nk).items()}
    terms = t._twist_memo.get(w)
    if terms is None:
        terms = t._twist_memo[w] = tuple(t.twist_terms(w))
    ndeg = t.n_mod.key_degree(nk) if terms else 0
    for aterm, adeg, w2, c in terms:
        sign = -c if ndeg * (1 + adeg) % 2 else c
        for k3, c3 in t.n_mod.act_algebra_term_key(aterm, nk).items():
            add_term(out, (k3,) + w2, sign * c3)
    return out


class _TwistedTensor:
    """N (x) W of the module docstring over an A-module N; a subclass
    supplies `w_blocks` and `twist_terms` (d(w) as (a, |a|, w', c)), and
    keeps `basis_keys`/`diff_key` in its own body, as `AModule` does
    (perfbench/tracing.py patches them per class)."""

    def __init__(self, n_mod: AModule, w_top: int):
        self.n_mod = n_mod
        self.nvars = n_mod.nvars
        self.w_top = w_top
        self._twist_memo: Dict[Tuple, Tuple] = {}

    def top_degree_hint(self, degree_window: int) -> int:
        return self.n_mod.top_degree_hint(degree_window) + self.w_top


class TensorOverA(_TwistedTensor):
    """B (x)_A (A (x) V) identified with B (x) V via

        i: b (x) (a (x) m) |-> (-1)^{|a||b|} a . (b (x) m),

    carrying the transported differential i o (d_B (x) Id + Id (x) d) o i^{-1}.
    Keys are (b_key, j, b): a B-basis key against the V-atom d^b g_j.
    """

    def __init__(self, b: AModule, m: AModule):
        if b.algebra != m.algebra:
            raise ValueError("factors over different algebras")
        super().__init__(b, max([g.degree for g in m.generators], default=0))
        self.m = m
        self.w_blocks, self.twist_terms = m.w_blocks, m.twist_terms  # M's W and twist

    def basis_keys(self, degree: int, max_weight: int):
        return _twisted_basis_keys(self, degree, max_weight)

    def diff_key(self, key) -> Dict:
        return _twisted_diff_key(self, key)

    # the identification and its inverse on representatives
    def iso_from_tensor(self, b_elt: AModuleElement, a: AlgebraElement, m_key_j: int, m_b: Exponent) -> Dict:
        """i(b (x) (a (x) d^{m_b} g_j)) as an element {key: coef}."""
        out: Dict = {}
        for aterm, ca in a.coeffs.items():
            adeg = self.m.algebra.term_degree(aterm)
            for bk, cb in b_elt.coeffs.items():
                bdeg = self.n_mod.key_degree(bk)
                sign = -1 if adeg * bdeg % 2 else 1
                for k2, c2 in self.n_mod.act_algebra_term_key(aterm, bk).items():
                    add_term(out, (k2, m_key_j, m_b), sign * ca * cb * c2)
        return out

    def iso_inverse_key(self, key) -> Tuple[AModuleElement, AlgebraElement, int, Exponent]:
        """i^{-1}(b (x) m) = b (x) (1_A (x) m), on a basis key."""
        bk, j, bexp = key
        return AModuleElement(self.n_mod, {bk: Fraction(1)}), self.m.algebra.one(), j, bexp


def tensor_unit_case(b: AModule) -> bool:
    """B (x)_A A = B: tensoring with the rank-one sphere at degree 0 with
    zero differential reproduces B's differential on keys."""
    m = free_sphere_module(b.algebra, 0, name="unit")
    t = TensorOverA(b, m)
    zero = (0,) * b.nvars
    for p in range(0, 4):
        for bk, _ in b.basis_keys(p, 3):
            got = t.diff_key((bk, 0, zero))
            want = {(k, 0, zero): c for k, c in b.diff_key(bk).items()}
            if got != want:
                return False
    return True


class BaseChangeModule(_TwistedTensor):
    """B (x)_A N for a Sullivan extension A -> B, identified with N (x) S(W)
    where W spans B's new generators; keys are (n_key, w_atoms)."""

    def __init__(self, b: SullivanAlgebra, n_mod: AModule):
        a = n_mod.algebra
        if b.nvars != a.nvars or b.generators[: len(a.generators)] != a.generators:
            raise ValueError("B is not a Sullivan extension of A")
        # both algebras drop zero assignments, so absent means d = 0
        if any(b.diff_coeffs.get(j) != a.diff_coeffs.get(j) for j in range(len(a.generators))):
            raise ValueError("B's differential disagrees with A on A's generators")
        super().__init__(n_mod, 0)
        self.b = b
        self.a = a
        self.w_start = len(a.generators)

    def w_blocks(self, degree: int, max_weight: int):
        for deg_w in range(0, degree + 1):
            for watoms, cost in self.b._atom_multisets(self.w_start, deg_w, max_weight):
                yield (watoms,), deg_w, cost

    def twist_terms(self, w):
        # d of the W-monomial in B, each term split into its A- and W-atoms
        for (alpha, atoms), c in self.b.d_term(((0,) * self.nvars,) + w).items():
            aterm = (alpha, tuple(at for at in atoms if at[0] < self.w_start))
            w_atoms = tuple(at for at in atoms if at[0] >= self.w_start)
            yield aterm, self.a.term_degree(aterm), (w_atoms,), c

    def basis_keys(self, degree: int, max_weight: int):
        return _twisted_basis_keys(self, degree, max_weight)

    def diff_key(self, key) -> Dict:
        return _twisted_diff_key(self, key)


def _tensor_id(f: AModuleMorphism) -> Callable:
    """f (x) Id_W on twisted-tensor keys (n_key,) + w."""
    return lambda key: {(k2,) + key[1:]: c for k2, c in f.apply_key(key[0]).items()}


def _sliced_bounded_weq(src, tgt, apply_key: Callable, n: int, degree_window: int) -> TruncationResult:
    """Bounded check of apply_key: src -> tgt up to the larger top-degree hint."""
    top = max(src.top_degree_hint(degree_window), tgt.top_degree_hint(degree_window))
    return bounded_weq(src.basis_keys, src.diff_key, tgt.basis_keys, tgt.diff_key,
                       apply_key, range(0, top + 1), n)


def tensor_bounded_weq(
    f: AModuleMorphism,
    m: AModule,
    n: int = 5,
    degree_window: int = 5,
) -> TruncationResult:
    """Bounded check that f (x)_A Id_M is a weak equivalence."""
    return _sliced_bounded_weq(TensorOverA(f.source, m), TensorOverA(f.target, m),
                               _tensor_id(f), n, degree_window)


def base_change_bounded_weq(
    b: SullivanAlgebra,
    f: AModuleMorphism,
    n: int = 5,
    degree_window: int = 5,
) -> TruncationResult:
    return _sliced_bounded_weq(BaseChangeModule(b, f.source), BaseChangeModule(b, f.target),
                               _tensor_id(f), n, degree_window)


# ------------------------------------------- modules <-> undercategory

@dataclass
class CMonInModA:
    """A commutative monoid in Mod(A): a Sullivan algebra M with the
    A-action a . m = phi(a) * m packaged through the structure morphism's
    generator values (a_j . 1_M)."""

    base: SullivanAlgebra
    monoid: SullivanAlgebra
    action_on_generators: Dict[int, AlgebraElement]

    @cached_property
    def structure_morphism(self) -> AlgebraMorphism:
        return AlgebraMorphism(self.base, self.monoid, dict(self.action_on_generators))

    def act(self, a: AlgebraElement, m: AlgebraElement) -> AlgebraElement:
        return self.monoid.multiply(self.structure_morphism.apply(a), m)


def under_to_cmon(phi: Morphism) -> CMonInModA:
    """F: (phi: A -> M) |-> M with a . m := phi(a) * m."""
    return CMonInModA(
        phi.source,
        phi.target,
        {j: phi.apply(phi.source.generator(j)) for j in range(len(phi.source.generators))},
    )


def cmon_to_under(n: CMonInModA) -> AlgebraMorphism:
    """G: recover the algebra morphism by phi(a) = a . 1_M."""
    one = n.monoid.one()
    return AlgebraMorphism(
        n.base,
        n.monoid,
        {j: n.act(n.base.generator(j), one) for j in range(len(n.base.generators))},
    )


# ------------------------------------------------------ bounded weq for Mod(A)

def amodule_bounded_weq(
    f: AModuleMorphism,
    n: int = 5,
    degree_window: int = 4,
) -> TruncationResult:
    """Weak equivalence of A-module maps, tested on the underlying complexes."""
    return _sliced_bounded_weq(f.source, f.target, f.apply_key, n, degree_window)
