"""Sullivan differential graded D-algebras.

A SullivanAlgebra is the free graded-commutative O-algebra on atoms
d^b g_j, where the g_j are finitely many graded generators, each
spanning a free D-module D.g_j.  A lowering differential assigns to
each generator a closed element of the subalgebra on strictly earlier
generators; it extends D-linearly to atoms and as an odd derivation to
everything.

Elements are stored canonically as

    { (alpha, atoms) : coefficient }

with alpha the x-exponent of the O-coefficient and atoms a sorted tuple
of (generator index, d-exponent).  Odd atoms appear at most once (the
square of an odd element vanishes); sorting costs Koszul signs.  The
x_i act on the coefficient, the d_i act as even derivations, and the
differential is an odd derivation, so checking identities on atoms and
generators checks them everywhere.

This module is the one home of the graded-commutative rules that
`amod` and `monads` use too: the element class `GradedElement` (sums,
scales, degrees and equality of {key: Fraction} over an owner answering
`key_degree`), the Koszul sort `_normalize_atoms` (parity given as a
function of the atom) and the Leibniz rule `odd_derivation`.

It is also the one home of the code that algebras and A-modules, both
free on generators, share: `GeneratedObject` (checks, `extended`, atoms,
`d` and the memo `_d_atom` of d(d^b g_j)) is the base of both kinds,
`Morphism` checks values on generators and memoises the atom images
d^b . q(g_j), `Inclusion`, `ComposedMorphism` and `extend_morphism`
serve both kinds, and attaching one generator is a `CellPushout`.

The arithmetic runs on term keys and raw coefficient dicts
(`term_product`, `coeffs_product`, `act_d_term`, `act_monomial`,
`d_term`).  Every memo lives on its object or morphism, never per
process, and is read-only, with `int` coefficients wherever the value
is integral; the algebra also keeps the exponent chains of each
(budget, parity) that slice enumeration asks for.  The public wrapper
`AlgebraElement`, and every report, holds `Fraction`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Tuple

from .rational_linalg import add_term, apply_linear, integral, vec_add
from .slices import TruncationResult, bounded_weq
from .weyl import Exponent, exponents_bounded, join_terms, power_factors

Atom = Tuple[int, Exponent]  # (generator index, d-exponent)
TermKey = Tuple[Exponent, Tuple[Atom, ...]]
Coeffs = Dict[TermKey, Fraction]
Multisets = Tuple[Tuple[Tuple[Atom, ...], int], ...]  # (sorted atoms, cost) pairs
Chains = Tuple[Tuple[Tuple[Exponent, ...], int], ...]  # (sorted d-exponents, cost) pairs
Parity = Callable[[Hashable], int]  # an atom's parity, for the Koszul sort

DEFAULT_DEGREE_WINDOW = 6


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("generator degrees must be non-negative")


def _normalize_atoms(atoms: Sequence[Hashable], odd: Parity) -> Optional[Tuple[int, Tuple]]:
    """Sort atoms, tracking the Koszul sign; None when an odd atom repeats.

    The one Koszul sort of the package: `odd(atom)` is the atom's parity.
    """
    items = list(atoms)
    sign = 1
    # insertion sort; each swap of adjacent odd atoms flips the sign
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            if odd(items[j]) and odd(items[j - 1]):
                sign = -sign
            items[j], items[j - 1] = items[j - 1], items[j]
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b and odd(a):
            return None
    return sign, tuple(items)


def odd_derivation(alpha: Exponent, atoms: Tuple, d_atom: Callable[[Hashable], Dict], odd: Parity) -> Dict:
    """The one Leibniz rule: an odd derivation on the term x^alpha * atoms,

        sum over t of (-1)^|atoms[:t]| x^alpha atoms[:t] d(atoms[t]) atoms[t+1:],

    with d_atom(atom) = {(beta, atom tuple): c}; one sort gives the
    Koszul sign of both products of each summand.
    """
    out: Dict = {}
    sign = 1
    for t, atom in enumerate(atoms):
        for (beta, datoms), c in d_atom(atom).items():
            norm = _normalize_atoms(atoms[:t] + datoms + atoms[t + 1:], odd)
            if norm is not None:
                add_term(out, (tuple(x + y for x, y in zip(alpha, beta)), norm[1]), sign * norm[0] * c)
        if odd(atom):
            sign = -sign
    return out


def atom_name(name: str, b: Exponent) -> str:
    """An atom as text: the generator name, then its d-exponents if any."""
    return name if sum(b) == 0 else f"{name}[{','.join(map(str, b))}]"


class GradedElement:
    """A finite sum {key: Fraction} of basis keys of a graded object, its
    owner, which answers `key_degree`.  Algebra and module elements are
    its two kinds; an element never equals one of the other kind."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner, coeffs: Dict):
        self.owner = owner
        self.coeffs = {k: c if type(c) is Fraction else Fraction(c) for k, c in coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Optional[int]:
        degs = {self.owner.key_degree(k) for k in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("inhomogeneous element has no degree")
        return degs.pop()

    def __add__(self, other):
        out = dict(self.coeffs)
        vec_add(out, other.coeffs)
        return type(self)(self.owner, out)

    def __neg__(self):
        return type(self)(self.owner, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return type(self)(self.owner, {k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.owner == other.owner and self.coeffs == other.coeffs


class AlgebraElement(GradedElement):
    """A canonical-form element of a Sullivan algebra."""

    __slots__ = ()
    algebra = property(lambda self: self.owner)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.multiply(self, other)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"AlgebraElement({self.to_string()!r})"

    def to_string(self) -> str:
        gens = self.algebra.generators
        return join_terms(
            (self.coeffs[(alpha, atoms)],
             power_factors("x", alpha) + [atom_name(gens[j].name, b) for j, b in atoms])
            for alpha, atoms in sorted(self.coeffs)
        )


class GeneratedObject:
    """An object free on graded generators g_j whose differential sends g_j
    to a closed element of degree |g_j| - 1 on g_0 .. g_{j-1}.  Its kinds,
    `SullivanAlgebra` and `amod.AModule`, set up what they read before
    calling this constructor and supply `ground`, `element`, the key shape
    (`atom_key` of an atom (j, b), the atoms `key_atoms` of a key),
    `key_degree`, `act_monomial` and `diff_key`."""

    def __init__(self, generators: Sequence[Generator], differential: Optional[Dict[int, Dict]]):
        self.generators = tuple(generators)
        self.diff_coeffs: Dict[int, Dict] = {j: dict(v) for j, v in (differential or {}).items() if v}
        self._datom_cache: Dict[Atom, Dict] = {}
        for j, coeffs in self.diff_coeffs.items():
            if not 0 <= j < len(self.generators):
                raise ValueError(f"differential assigned to unknown generator {j}")
            name, want = self.generators[j].name, self.generators[j].degree - 1
            for key in coeffs:
                reached = max((atom[0] for atom in self.key_atoms(key)), default=-1)
                if reached >= j:
                    raise ValueError(f"d({name}) reaches generator {reached}: the differential must be lowering")
                if self.key_degree(key) != want:
                    raise ValueError(f"d({name}) has a term of degree {self.key_degree(key)}, expected {want}")
        for j, coeffs in self.diff_coeffs.items():
            if apply_linear(self.diff_key, coeffs):
                raise ValueError(f"d*d != 0 on generator {self.generators[j].name}")

    def extended(self, gen: Generator, d_assignment: Optional[GradedElement]):
        """A new object of this kind with one more (last) generator."""
        diff = dict(self.diff_coeffs)
        if d_assignment is not None:
            diff[len(self.generators)] = d_assignment.coeffs
        return type(self)(self.ground, self.generators + (gen,), diff)

    # -- elements --------------------------------------------------------

    def zero(self) -> GradedElement:
        return self.element(self, {})

    def generator(self, j: int) -> GradedElement:
        return self.atom(j, (0,) * self.nvars)

    def atom(self, j: int, b: Iterable[int]) -> GradedElement:
        if not 0 <= j < len(self.generators):
            raise ValueError(f"no generator with index {j}")
        return self.element(self, {self.atom_key(j, tuple(b)): Fraction(1)})

    def generator_index(self, name: str) -> int:
        for j, g in enumerate(self.generators):
            if g.name == name:
                return j
        raise KeyError(name)

    def d_generator(self, j: int) -> GradedElement:
        return self.element(self, self.diff_coeffs.get(j, {}))

    # -- differential ----------------------------------------------------

    def d_power(self, b: Exponent, coeffs: Dict) -> Dict:
        """d^b applied to a coefficient dict, with `int` coefficients where integral."""
        return self.act_monomial((0,) * self.nvars, b, {k: integral(c) for k, c in coeffs.items()})

    def _d_atom(self, atom: Atom) -> Dict:
        """d(d^b g_j) = d^b . d(g_j), memoised; read-only."""
        cached = self._datom_cache.get(atom)
        if cached is None:
            cached = self._datom_cache[atom] = self.d_power(atom[1], self.diff_coeffs.get(atom[0], {}))
        return cached

    def d(self, u: GradedElement) -> GradedElement:
        """The differential, key by key through the kind's `diff_key`."""
        return self.element(self, apply_linear(self.diff_key, u.coeffs))

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self)
            and self.ground == other.ground
            and self.generators == other.generators
            and self.diff_coeffs == other.diff_coeffs
        )


class SullivanAlgebra(GeneratedObject):
    """Free graded-commutative D-algebra on graded generators, with a
    lowering differential.  O itself is the algebra with no generators."""

    element = AlgebraElement

    def __init__(
        self,
        nvars: int,
        generators: Sequence[Generator] = (),
        differential: Optional[Dict[int, Coeffs]] = None,
    ):
        self.nvars = nvars
        generators = tuple(generators)
        self.parities = tuple(g.degree % 2 for g in generators)
        self._dterm_memo: Dict[TermKey, Coeffs] = {}
        # slice enumerations, each built once and replayed (see basis_keys)
        self._multiset_memo: Dict[Tuple[int, int, int], Multisets] = {}
        self._chain_memo: Dict[Tuple[int, int], Chains] = {}  # (budget, parity) -> exponent chains
        self._basis_memo: Dict[Tuple[int, int], Tuple[Tuple[TermKey, int], ...]] = {}
        super().__init__(generators, differential)

    # -- constructors ---------------------------------------------------

    @classmethod
    def oh(cls, nvars: int) -> "SullivanAlgebra":
        """The initial algebra O (no generators)."""
        return cls(nvars)

    ground = property(lambda self: self.nvars)  # what both ends of a morphism share

    def morphism(self, target: "SullivanAlgebra", assignments: Dict[int, "AlgebraElement"]) -> "AlgebraMorphism":
        return AlgebraMorphism(self, target, assignments)

    def one(self, coef=1) -> "AlgebraElement":
        return AlgebraElement(self, {((0,) * self.nvars, ()): Fraction(coef)})

    def x_poly(self, alpha: Iterable[int], coef=1) -> "AlgebraElement":
        return AlgebraElement(self, {(tuple(alpha), ()): Fraction(coef)})

    def atom_key(self, j: int, b: Exponent) -> TermKey:
        return (0,) * self.nvars, ((j, b),)

    def key_atoms(self, key: TermKey) -> Tuple[Atom, ...]:
        return key[1]

    # -- structure -------------------------------------------------------

    def term_degree(self, key: TermKey) -> int:
        return sum(self.generators[j].degree for (j, _) in key[1])

    key_degree = term_degree  # the name `GradedElement.degree` asks its owner for

    def atom_parity(self, atom: Atom) -> int:
        return self.parities[atom[0]]

    def term_product(self, k1: TermKey, k2: TermKey) -> Optional[Tuple[int, TermKey]]:
        """The product of two term keys as (sign, key); None when it vanishes."""
        norm = _normalize_atoms(k1[1] + k2[1], self.atom_parity)
        if norm is None:
            return None
        return norm[0], (tuple(x + y for x, y in zip(k1[0], k2[0])), norm[1])

    def act_algebra_term_key(self, aterm: TermKey, key: TermKey) -> Coeffs:
        """A acting on itself, the N of `amod`'s twisted tensor A (x) V."""
        prod = self.term_product(aterm, key)
        return {} if prod is None else {prod[1]: prod[0]}

    def multiply(self, u: "AlgebraElement", v: "AlgebraElement") -> "AlgebraElement":
        if u.algebra is not self and u.algebra != self:
            raise ValueError("element of a different algebra")
        return AlgebraElement(self, self.coeffs_product(u.coeffs, v.coeffs))

    def coeffs_product(self, u: Coeffs, v: Coeffs) -> Coeffs:
        """The product of two coefficient dicts, u on the left."""
        out: Coeffs = {}
        for k1, c1 in u.items():
            for k2, c2 in v.items():
                prod = self.term_product(k1, k2)
                if prod is not None:
                    add_term(out, prod[1], c1 * c2 * prod[0])
        return out

    # -- D-action ----------------------------------------------------------

    def act_d_term(self, i: int, key: TermKey) -> Coeffs:
        """d_i on one term, as an even derivation: on the coefficient and on each atom."""
        alpha, atoms = key
        out: Coeffs = {}
        if alpha[i] > 0:
            na = tuple(e - 1 if k == i else e for k, e in enumerate(alpha))
            out[(na, atoms)] = alpha[i]
        for t, (j, b) in enumerate(atoms):
            nb = tuple(e + 1 if k == i else e for k, e in enumerate(b))
            norm = _normalize_atoms(atoms[:t] + ((j, nb),) + atoms[t + 1:], self.atom_parity)
            if norm is not None:
                add_term(out, (alpha, norm[1]), norm[0])
        return out

    def act_monomial(self, a: Exponent, b: Exponent, coeffs: Coeffs) -> Coeffs:
        """x^a d^b applied to a coefficient dict: d's first, then x's."""
        for i, e in enumerate(b):
            for _ in range(e):
                coeffs = apply_linear(lambda key: self.act_d_term(i, key), coeffs)
        return {(tuple(x + y for x, y in zip(alpha, a)), atoms): c for (alpha, atoms), c in coeffs.items()}

    # -- differential -------------------------------------------------------

    def d_term(self, key: TermKey) -> Coeffs:
        """The differential of one term key by `odd_derivation`, memoised; read-only."""
        out = self._dterm_memo.get(key)
        if out is None:
            out = self._dterm_memo[key] = odd_derivation(key[0], key[1], self._d_atom, self.atom_parity)
        return out

    diff_key = d_term  # the name `GeneratedObject.d` asks its kind for

    # -- slice enumeration -----------------------------------------------

    def basis_keys(self, degree: int, max_weight: int) -> Tuple[Tuple[TermKey, int], ...]:
        """(key, weight) for the canonical term keys of the given degree and
        weight bound; x^alpha times atoms d^b g_j weighs |alpha| + sum(|b| + 1).

        Each (degree, max_weight) is enumerated once and kept on this
        algebra: a repeat call returns the stored pairs, in the order of
        a fresh enumeration.  The memo lives per instance, never per
        process, so nothing carries over to another algebra.
        """
        pairs = self._basis_memo.get((degree, max_weight))
        if pairs is None:
            pairs = self._basis_memo[(degree, max_weight)] = tuple(
                ((alpha, atoms), sum(alpha) + cost)
                for atoms, cost in self._atom_multisets(0, degree, max_weight)
                for alpha in exponents_bounded(self.nvars, max_weight - cost)
            )
        return pairs

    def _atom_multisets(self, j: int, degree: int, budget: int) -> Multisets:
        """Sorted atom tuples over generators j.. with given total degree
        and cost <= budget, each with its cost; built once per instance."""
        found = self._multiset_memo.get((j, degree, budget))
        if found is None:
            found = self._multiset_memo[(j, degree, budget)] = tuple(
                self._build_atom_multisets(j, degree, budget))
        return found

    def _build_atom_multisets(self, j: int, degree: int, budget: int):
        """The enumeration behind `_atom_multisets`, in its order."""
        if budget < 0 or degree < 0:
            return
        if j >= len(self.generators):
            if degree == 0:
                yield (), 0
            return
        # without generator j
        yield from self._atom_multisets(j + 1, degree, budget)
        if budget <= 0:
            return
        gdeg = self.generators[j].degree
        odd = self.parities[j]
        chains = self._chain_memo.get((budget, odd))
        if chains is None:
            chains = self._chain_memo[(budget, odd)] = tuple(self._exponent_chains(budget, strictly=bool(odd)))
        # choose a nonempty sorted tuple of d-exponents for generator j
        for bs, cost in chains:
            used_deg = gdeg * len(bs)
            if used_deg > degree:
                continue
            for rest, rcost in self._atom_multisets(j + 1, degree - used_deg, budget - cost):
                yield tuple((j, b) for b in bs) + rest, cost + rcost

    def _exponent_chains(self, budget: int, strictly: bool):
        """Nonempty sorted tuples of d-exponents with cost sum(|b|+1) <= budget, each with its cost."""
        singles = sorted(exponents_bounded(self.nvars, budget - 1))

        def rec(start_idx, remaining):
            for idx in range(start_idx, len(singles)):
                b = singles[idx]
                cost = sum(b) + 1
                if cost > remaining:
                    continue
                yield (b,), cost
                nxt = idx + 1 if strictly else idx
                for rest, rest_cost in rec(nxt, remaining - cost):
                    yield (b,) + rest, cost + rest_cost

        yield from rec(0, budget)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"SullivanAlgebra(nvars={self.nvars}, [{gens}])"


# ------------------------------------- morphisms of both kinds of object

class Morphism:
    """A chain map out of an object free on generators, evaluated key by
    key through the kind's `apply_key`.

    Built from values q(g_j) on the generators, it checks that every
    generator has a value, in the target and of the generator's degree,
    and that d q(g_j) = q(d g_j); a failure names the generator.
    `Inclusion` and `ComposedMorphism` are built from other data.
    """

    def __init__(self, source, target, assignments: Dict[int, GradedElement]):
        if source.ground != target.ground:
            raise ValueError("source and target over different grounds")
        self.source = source
        self.target = target
        self.assignments = dict(assignments)
        self._atom_images: Dict[Atom, Dict] = {}  # before the chain-map check, which applies self
        # lowering differentials: d(g_j) only needs the values checked before j
        for j, g in enumerate(source.generators):
            img = self.assignments.get(j)
            if img is None:
                raise ValueError(f"no assignment for generator {g.name}")
            if img.owner != target:
                raise ValueError(f"assignment for {g.name} lies outside the target")
            deg = img.degree()
            if deg is not None and deg != g.degree:
                raise ValueError(f"assignment for {g.name} has degree {deg}, expected {g.degree}")
            lhs, rhs = target.d(img), self.apply(source.d_generator(j))
            if lhs != rhs:
                raise ValueError(f"not a chain map: d q = q d fails on generator "
                                 f"{g.name}; mismatch {lhs - rhs!r}")

    def apply(self, elt: GradedElement) -> GradedElement:
        if elt.owner != self.source:
            raise ValueError("element not in the source")
        return type(elt)(self.target, apply_linear(self.apply_key, elt.coeffs))

    def _atom_image(self, atom: Atom) -> Dict:
        """q(d^b g_j) = d^b . q(g_j), memoised; read-only."""
        img = self._atom_images.get(atom)
        if img is None:
            img = self._atom_images[atom] = self.target.d_power(atom[1], self.assignments[atom[0]].coeffs)
        return img


class Inclusion(Morphism):
    """The inclusion of an object into one whose generators start with its
    generators, with the same differential on them: key |-> key."""

    def __init__(self, small, big):
        k = len(small.generators)
        if (small.ground != big.ground or big.generators[:k] != small.generators
                or any(big.diff_coeffs.get(j) != small.diff_coeffs.get(j) for j in range(k))):
            raise ValueError("target does not extend the source")
        self.source = small
        self.target = big

    def apply_key(self, key) -> Dict:
        return {key: 1}


class ComposedMorphism(Morphism):
    """g after f, evaluated key by key."""

    def __init__(self, f: Morphism, g: Morphism):
        if f.target != g.source:
            raise ValueError("morphisms do not compose")
        self.source = f.source
        self.target = g.target
        self.factors = (f, g)  # held as data, so a deep copy copies both factors

    def apply_key(self, key) -> Dict:
        f, g = self.factors
        return apply_linear(g.apply_key, f.apply_key(key))


def compose_morphisms(f: Morphism, g: Morphism) -> Morphism:
    """g after f."""
    return ComposedMorphism(f, g)


def extend_morphism(p: Morphism, source, target, assignments: Dict[int, GradedElement]) -> Morphism:
    """The morphism of source's kind that agrees with p on the generators
    of p.source (the first ones of source) and takes the given values, by
    index, on the others; checked as every morphism is."""
    values = {j: p.apply(p.source.generator(j)) for j in range(len(p.source.generators))}
    return source.morphism(target, {**values, **assignments})


@dataclass
class CellPushout:
    """The pushout along a generating cofibration attaching a cell along z:
    the object extended by one last generator g with d(g) = z."""

    extended: object  # the old object's generators, then g
    from_target: Inclusion  # the old object into extended
    new_index: int  # index of g in extended


def attach_cell(obj, gen: Generator, z: Optional[GradedElement]) -> CellPushout:
    ext = obj.extended(gen, z)
    return CellPushout(ext, Inclusion(obj, ext), len(obj.generators))


def pushout_factor(po: CellPushout, q: Morphism, cell: GradedElement) -> Morphism:
    """The unique u with u o from_target = q and u(g) = cell; refused unless
    d(cell) = q(z), that is unless (q, cell) is a cocone."""
    if q.source != po.from_target.source:
        raise ValueError("cocone leg has the wrong source")
    return extend_morphism(q, po.extended, q.target, {po.new_index: cell})


class AlgebraMorphism(Morphism):
    """A DGDA morphism fixed by generator values: the identity on
    O-coefficients, d^b g_j |-> d^b . phi(g_j), extended multiplicatively."""

    def apply_key(self, key: TermKey) -> Coeffs:
        """x^alpha times the images d^b . phi(g_j) of the atoms of key, in order."""
        alpha, atoms = key
        out: Coeffs = {(alpha, ()): 1}
        for atom in atoms:
            out = self.target.coeffs_product(out, self._atom_image(atom))
        return out


def initial_morphism(a: SullivanAlgebra) -> Morphism:
    """The unique unital morphism O -> A, f |-> f.1_A; always injective
    because Sullivan algebras are free (hence nonzero)."""
    return Inclusion(SullivanAlgebra.oh(a.nvars), a)


# ----------------------------------------------------- pushout by one sphere

@dataclass
class DgaPushout:
    """Pushout of f: X -> Y along X -> X(s), s of degree n with d(s) = w.

    `cell` is Y(s): Y extended by s with d(s) = f(w); `map` is the right
    leg f (x) Id: X(s) -> Y(s), with source X(s).
    """

    map: AlgebraMorphism
    cell: CellPushout


def dga_pushout_gen(
    x: SullivanAlgebra,
    y: SullivanAlgebra,
    f: Morphism,
    n: int,
    d_new: AlgebraElement,
    name: str = "s",
) -> DgaPushout:
    """Attach a degree-n sphere generator to X and push out along f.

    d_new is the differential assigned to the new generator inside X;
    the extension refuses it unless it is d-closed of degree n-1.
    """
    if f.source != x or f.target != y:
        raise ValueError("map does not go from X to Y")
    x_ext = x.extended(Generator(name, n), d_new)
    cell = attach_cell(y, Generator(name, n), f.apply(d_new))
    new = {len(x.generators): cell.extended.generator(cell.new_index)}
    return DgaPushout(extend_morphism(compose_morphisms(f, cell.from_target), x_ext, cell.extended, new), cell)


# ---------------------------------------------------------------- bounded weq

def algebra_bounded_weq(
    f: AlgebraMorphism,
    n: int = 6,
    degree_window: int = DEFAULT_DEGREE_WINDOW,
) -> TruncationResult:
    """Bounded weak-equivalence test on the underlying complexes.

    Checks cone acyclicity on the weight slice at levels n, n+1 over
    algebra degrees 0..degree_window; bounded-pass semantics only.
    """
    src, tgt = f.source, f.target
    return bounded_weq(src.basis_keys, src.d_term, tgt.basis_keys, tgt.d_term,
                       f.apply_key, range(0, degree_window + 1), n)
