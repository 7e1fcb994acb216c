"""The two concrete monads: free algebra (symmetric tower) and free module.

Both monads live over "O-based modules": objects presented by a set of
basis cores, free over O, with the differential given core-by-core as
expansions { (gamma, core') : c } meaning sum c * x^gamma . core'.  Elements are dicts {(alpha, core): c}.

  FreeBase(C)        a free D-complex C through its O-basis d^b e_{n,s}
  FormalSym(N)       the free graded-commutative algebra on N (cores are
                     sorted multisets of N-cores, odd cores at most once)
  TensorWithA(A, N)  A (x) N (cores pair an A-atom monomial with an N-core)

Towering FormalSym (resp. TensorWithA) twice or thrice gives the
iterated endofunctor values needed to state the monad laws.  Every map
of elements is a core map extended by `o_linear`: mu (`sym_mu_core`,
`tensor_mu_core`), the functor (`sym_apply`, `tensor_apply`) and d
(`diff_core`); the units `sym_eta`/`tensor_eta` only relabel cores.
The free-module monad U = A (x) - lives here and nowhere else.

The graded-commutative rules come from `dga`: cores and A-blocks sort by
its Koszul sort, and `FormalSym.diff_core` is its Leibniz rule.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from .complexes import FreeDComplex
from .dga import SullivanAlgebra, _normalize_atoms, odd_derivation
from .rational_linalg import add_term
from .weyl import Exponent, WeylElement, exponents_bounded

Core = Hashable
Expansion = Dict[Tuple[Exponent, Core], Fraction]
Element = Dict[Tuple[Exponent, Core], Fraction]


def o_linear(core_map: Callable[[Core], Expansion], elem: Element) -> Element:
    """The O-linear extension of a core map:
    sum c x^alpha . core |-> sum c c2 x^(alpha + gamma) . core2 over core_map(core)."""
    out: Element = {}
    for (alpha, core), c in elem.items():
        for (gamma, core2), c2 in core_map(core).items():
            add_term(out, (tuple(x + y for x, y in zip(alpha, gamma)), core2), c * c2)
    return out


class FreeBase:
    """O-basis view of a free D-complex: cores (degree, index, d-exponent)."""

    def __init__(self, c: FreeDComplex):
        self.complex = c
        self.nvars = c.nvars

    def cores(self, degree: int, max_cost: int) -> Iterator[Core]:
        for s in range(self.complex.rank(degree)):
            for b in exponents_bounded(self.nvars, max_cost):
                yield (degree, s, b)

    def core_degree(self, core: Core) -> int:
        return core[0]

    def core_cost(self, core: Core) -> int:
        return sum(core[2])

    def diff_core(self, core: Core) -> Expansion:
        n, s, b = core
        d = self.complex.differentials.get(n)
        if d is None:
            return {}
        out: Expansion = {}
        carrier = WeylElement.monomial(self.nvars, (0,) * self.nvars, b)
        for v, entry in d.rows[s].items():
            prod = carrier * entry
            for (a2, b2), coef in prod.terms.items():
                add_term(out, (a2, (n - 1, v, b2)), coef)
        return out


class FormalSym:
    """Free graded-commutative algebra on an O-based module, as a module."""

    def __init__(self, base):
        self.base = base
        self.nvars = base.nvars

    def _parity(self, core: Core) -> int:
        return self.base.core_degree(core) % 2

    def normalize(self, cores: Tuple[Core, ...]) -> Optional[Tuple[int, Tuple[Core, ...]]]:
        return _normalize_atoms(cores, self._parity)

    def cores(self, degree: int, max_cost: int) -> Iterator[Core]:
        base = self.base
        # each atom with its degree and cost (+1 for the atom itself), once
        atoms = [(a, base.core_degree(a), base.core_cost(a) + 1) for a in sorted(
            {c for d in range(0, degree + 1) for c in base.cores(d, max_cost - 1)},
        )]

        def rec(start, deg_left, cost_left):
            if deg_left == 0:
                yield ()
            for idx in range(start, len(atoms)):
                a, da, ca = atoms[idx]
                if da > deg_left or ca > cost_left:
                    continue
                # an odd atom occurs at most once
                nxt = idx + 1 if da % 2 else idx
                for rest in rec(nxt, deg_left - da, cost_left - ca):
                    yield (a,) + rest

        # atoms are distinct and indices never decrease, so no multiset repeats
        yield from rec(0, degree, max_cost)

    def core_degree(self, core: Core) -> int:
        return sum(self.base.core_degree(c) for c in core)

    def core_cost(self, core: Core) -> int:
        return len(core) + sum(self.base.core_cost(c) for c in core)

    def diff_core(self, core: Core) -> Expansion:
        def d_atom(atom):  # the base's d, each image core as a 1-tuple of atoms
            return {(gamma, (atom2,)): c for (gamma, atom2), c in self.base.diff_core(atom).items()}

        return odd_derivation((0,) * self.nvars, core, d_atom, self._parity)


def sym_eta(elem: Element) -> Element:
    """N -> S(N): inclusion as polynomial degree one."""
    return {(alpha, (core,)): c for (alpha, core), c in elem.items()}


def sym_mu_core(outer: FormalSym, core) -> Expansion:
    """mu on one S(S(N))-core: concatenate its S(N)-cores and sort."""
    norm = outer.base.normalize(sum(core, ()))
    if norm is None:
        return {}
    sign, merged = norm
    return {((0,) * outer.nvars, merged): Fraction(sign)}


def sym_mu(outer: FormalSym, elem: Element) -> Element:
    """S(S(N)) -> S(N): multiply formal products out.

    `outer` is FormalSym(FormalSym(base)); keys of elem are
    (alpha, multiset of S(base)-cores) and the result lives in S(base).
    """
    return o_linear(partial(sym_mu_core, outer), elem)


def sym_apply(
    dst: FormalSym,
    f_core: Callable[[Core], Expansion],
    elem: Element,
) -> Element:
    """S(f) for an (even, O-linear) core-level map f into dst.base: the
    O-linear extension of the product, in dst, of the images of a core's atoms."""

    def on_core(ms) -> Expansion:
        out: Expansion = {}
        for terms in product(*(f_core(atom).items() for atom in ms)):  # one term per atom
            norm = dst.normalize(tuple(core2 for (_, core2), _ in terms))
            if norm is not None:
                gamma = tuple(map(sum, zip((0,) * dst.nvars, *(g for (g, _), _ in terms))))
                add_term(out, (gamma, norm[1]), math.prod(c for _, c in terms) * norm[0])
        return out

    return o_linear(on_core, elem)


class TensorWithA:
    """A (x) N for a Sullivan algebra A: cores (A-atom tuple, N-core)."""

    def __init__(self, algebra: SullivanAlgebra, base):
        self.algebra = algebra
        self.base = base
        self.nvars = algebra.nvars

    def cores(self, degree: int, max_cost: int) -> Iterator[Core]:
        for adeg in range(0, degree + 1):
            for atoms, cost in self.algebra._atom_multisets(0, adeg, max_cost):
                for ncore in self.base.cores(degree - adeg, max_cost - cost):
                    yield (atoms, ncore)


def tensor_eta(elem: Element) -> Element:
    """N -> A (x) N, m |-> 1 (x) m."""
    return {(alpha, ((), core)): c for (alpha, core), c in elem.items()}


def tensor_mu_core(outer: TensorWithA, core) -> Expansion:
    """mu on one A (x) (A (x) N)-core: multiply the two A-blocks."""
    at1, (at2, ncore) = core
    norm = _normalize_atoms(at1 + at2, outer.algebra.atom_parity)
    if norm is None:
        return {}
    sign, merged = norm
    return {((0,) * outer.nvars, (merged, ncore)): Fraction(sign)}


def tensor_mu(outer: TensorWithA, elem: Element) -> Element:
    """A (x) (A (x) N) -> A (x) N: multiply the two A-blocks."""
    return o_linear(partial(tensor_mu_core, outer), elem)


def tensor_apply(f_core: Callable[[Core], Expansion], elem: Element) -> Element:
    """A (x) f on elements, for an even core-level map on the base."""
    return o_linear(
        lambda core: {(gamma, (core[0], ncore2)): c for (gamma, ncore2), c in f_core(core[1]).items()},
        elem,
    )


# ----------------------------------------------------------- law checks

def _associativity_failures(mu_core, functor, t2, t3, probes: List[Element]) -> List[str]:
    """mu o T(mu) = mu o mu_T on T^3-level probes; `functor` lifts a
    core map T^2 -> T to a map of elements T^3 -> T^2."""
    mu2, mu3 = partial(mu_core, t2), partial(mu_core, t3)
    if all(o_linear(mu2, functor(mu2, z)) == o_linear(mu2, o_linear(mu3, z)) for z in probes):
        return []
    return ["associativity"]


def _unit_failures(mu, eta, functor, nvars: int, probes: List[Element]) -> List[str]:
    """mu o eta_T = Id (left unit), then mu o T(eta) = Id (right unit), on
    the first ten T-level probes; T(eta) is the functor on eta of one core."""
    t_eta = partial(functor, lambda core: eta({((0,) * nvars, core): Fraction(1)}))
    for w in probes[:10]:
        if mu(eta(w)) != w:
            return ["left unit"]
        if mu(t_eta(w)) != w:
            return ["right unit"]
    return []


def check_sym_monad_laws(c: FreeDComplex, probes: List[Element]) -> List[str]:
    """Monad laws for T = (free algebra, mu, eta) on S^3-level probes.

    Each probe is an element of S(S(S(FreeBase(c)))).  Besides the laws,
    mu and eta must be chain maps for the differentials `diff_core`
    extends from c.  Returns the list of violated laws (empty = all hold).
    """
    s1 = FormalSym(FreeBase(c))
    s2 = FormalSym(s1)
    s3 = FormalSym(s2)
    failures = _associativity_failures(sym_mu_core, partial(sym_apply, s2), s2, s3, probes)
    for z in probes:
        # d mu = mu d, on S3 -> S2 and on its image, S2 -> S1
        mz = sym_mu(s3, z)
        if (o_linear(s2.diff_core, mz) != sym_mu(s3, o_linear(s3.diff_core, z))
                or o_linear(s1.diff_core, sym_mu(s2, mz)) != sym_mu(s2, o_linear(s2.diff_core, mz))):
            failures.append("mu chain map")
            break
    # unit laws on S1-level probes derived from the S3 probes' atoms; each
    # S2-core ms2 is a multiset of S1-cores
    s1_probes = [{(alpha, ms1): Fraction(1)} for z in probes for (alpha, mss) in z
                 for ms2 in mss for ms1 in ms2]
    failures += _unit_failures(partial(sym_mu, s2), sym_eta, partial(sym_apply, s2), c.nvars,
                               s1_probes)
    for w in s1_probes[:10]:
        if o_linear(s2.diff_core, sym_eta(w)) != sym_eta(o_linear(s1.diff_core, w)):
            failures.append("eta chain map")
            break
    return failures


def check_tensor_monad_laws(
    algebra: SullivanAlgebra, c: FreeDComplex, probes: List[Element]
) -> List[str]:
    """Monad laws for U = (A (x) -, mu, eta) on U^3-level probes."""
    u2 = TensorWithA(algebra, TensorWithA(algebra, FreeBase(c)))
    u3 = TensorWithA(algebra, u2)
    u1_probes = [{(alpha, (at3, ncore)): Fraction(1)}
                 for z in probes for (alpha, (_, (_, (at3, ncore)))) in z]
    return (_associativity_failures(tensor_mu_core, tensor_apply, u2, u3, probes)
            + _unit_failures(partial(tensor_mu, u2), tensor_eta, tensor_apply, c.nvars, u1_probes))
