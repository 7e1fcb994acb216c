"""The two concrete monads: free algebra (symmetric tower) and free module.

Both monads live over "O-based modules": objects presented by a set of
basis cores, free over O, with the differential given core-by-core as
expansions { (gamma, core') : c } meaning sum c * x^gamma . core'.  Elements are dicts {(alpha, core): c}.

  FreeBase(C)        a free D-complex C through its O-basis d^b e_{n,s}
  FormalSym(N)       the free graded-commutative algebra on N (cores are
                     sorted multisets of N-cores, odd cores at most once)
  TensorWithA(A, N)  A (x) N (cores pair an A-atom monomial with an N-core)

Towering FormalSym (resp. TensorWithA) twice or thrice gives the
iterated endofunctor values needed to state the monad laws; `sym_mu`,
`sym_eta`, `tensor_mu`, `tensor_eta` are the structure maps, and
`sym_apply`/`tensor_apply` implement the functor on core-level maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from .complexes import FreeDComplex
from .dga import SullivanAlgebra, _normalize_atoms
from .rational_linalg import add_term, apply_linear, vec_add
from .weyl import Exponent, exponents_bounded

Core = Hashable
Expansion = Dict[Tuple[Exponent, Core], Fraction]
Element = Dict[Tuple[Exponent, Core], Fraction]


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
        c = self.complex
        if c.rank(n - 1) == 0 or n not in c.differentials:
            return {}
        out: Expansion = {}
        from .weyl import WeylElement

        carrier = WeylElement.monomial(self.nvars, (0,) * self.nvars, b)
        for v in range(c.rank(n - 1)):
            entry = c.diff(n)[s][v]
            if entry.is_zero():
                continue
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
        items = list(cores)
        sign = 1
        for i in range(1, len(items)):
            j = i
            while j > 0 and items[j] < items[j - 1]:
                if self._parity(items[j]) and self._parity(items[j - 1]):
                    sign = -sign
                items[j], items[j - 1] = items[j - 1], items[j]
                j -= 1
        for a, b in zip(items, items[1:]):
            if a == b and self._parity(a):
                return None
        return sign, tuple(items)

    def cores(self, degree: int, max_cost: int) -> Iterator[Core]:
        atoms = sorted(
            {c for d in range(0, degree + 1) for c in self.base.cores(d, max_cost - 1)},
        )

        def rec(start, deg_left, cost_left):
            if deg_left == 0:
                yield ()
            for idx in range(start, len(atoms)):
                a = atoms[idx]
                da = self.base.core_degree(a)
                ca = self.base.core_cost(a) + 1
                if da > deg_left or ca > cost_left:
                    continue
                nxt = idx + 1 if self._parity(a) else idx
                for rest in rec(nxt, deg_left - da, cost_left - ca):
                    yield (a,) + rest

        seen = set()
        for ms in rec(0, degree, max_cost):
            if ms not in seen:
                seen.add(ms)
                yield ms

    def core_degree(self, core: Core) -> int:
        return sum(self.base.core_degree(c) for c in core)

    def core_cost(self, core: Core) -> int:
        return len(core) + sum(self.base.core_cost(c) for c in core)

    def diff_core(self, core: Core) -> Expansion:
        out: Expansion = {}
        kos = 1
        for t, atom in enumerate(core):
            for (gamma, atom2), c in self.base.diff_core(atom).items():
                norm = self.normalize(core[:t] + (atom2,) + core[t + 1:])
                if norm is None:
                    continue
                sign, sorted_core = norm
                add_term(out, (gamma, sorted_core), c * sign * kos)
            if self._parity(atom):
                kos = -kos
        return out

    def basis_keys(self, degree: int, max_weight: int):
        for core in self.cores(degree, max_weight):
            cost = self.core_cost(core)
            for alpha in exponents_bounded(self.nvars, max_weight - cost):
                yield (alpha, core)

    def diff_key(self, key) -> Element:
        alpha, core = key
        out: Element = {}
        for (gamma, core2), c in self.diff_core(core).items():
            na = tuple(x + y for x, y in zip(alpha, gamma))
            add_term(out, (na, core2), c)
        return out


def sym_eta(elem: Element) -> Element:
    """N -> S(N): inclusion as polynomial degree one."""
    return {(alpha, (core,)): c for (alpha, core), c in elem.items()}


def sym_mu(outer: FormalSym, elem: Element) -> Element:
    """S(S(N)) -> S(N): multiply formal products out.

    `outer` is FormalSym(FormalSym(base)); keys of elem are
    (alpha, multiset of S(base)-cores) and the result lives in S(base).
    """
    inner: FormalSym = outer.base
    out: Element = {}
    for (alpha, mss), c in elem.items():
        concat: Tuple[Core, ...] = ()
        for ms in mss:
            concat = concat + ms
        norm = inner.normalize(concat)
        if norm is None:
            continue
        sign, merged = norm
        add_term(out, (alpha, merged), c * sign)
    return out


def sym_apply(
    src: FormalSym,
    dst: FormalSym,
    f_core: Callable[[Core], Expansion],
    elem: Element,
) -> Element:
    """S(f) for an (even, O-linear) core-level map f: src.base -> dst.base."""
    out: Element = {}
    for (alpha, ms), c in elem.items():
        partial: Element = {(alpha, ()): c}
        for atom in ms:
            nxt: Element = {}
            for (a1, acc_core), c1 in partial.items():
                for (gamma, core2), c2 in f_core(atom).items():
                    norm = dst.normalize(acc_core + (core2,))
                    if norm is None:
                        continue
                    sign, merged = norm
                    na = tuple(x + y for x, y in zip(a1, gamma))
                    add_term(nxt, (na, merged), c1 * c2 * sign)
            partial = nxt
        vec_add(out, partial)
    return out


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


def tensor_mu(outer: TensorWithA, elem: Element) -> Element:
    """A (x) (A (x) N) -> A (x) N: multiply the two A-blocks."""
    inner: TensorWithA = outer.base
    algebra = outer.algebra
    out: Element = {}
    for (alpha, (at1, (at2, ncore))), c in elem.items():
        norm = _normalize_atoms(at1 + at2, algebra.parities)
        if norm is None:
            continue
        sign, merged = norm
        add_term(out, (alpha, (merged, ncore)), c * sign)
    return out


def tensor_apply(
    tower: TensorWithA,
    f_core: Callable[[Core], Expansion],
    elem: Element,
) -> Element:
    """A (x) f on elements, for an even core-level map on the base."""
    out: Element = {}
    for (alpha, (atoms, ncore)), c in elem.items():
        for (gamma, ncore2), c2 in f_core(ncore).items():
            na = tuple(x + y for x, y in zip(alpha, gamma))
            add_term(out, (na, (atoms, ncore2)), c * c2)
    return out


# ----------------------------------------------------------- law checks

def check_sym_monad_laws(c: FreeDComplex, probes: List[Element]) -> List[str]:
    """Monad laws for T = (free algebra, mu, eta) on S^3-level probes.

    Each probe is an element of S(S(S(FreeBase(c)))).  Besides the laws,
    mu and eta must be chain maps for the differentials `diff_key`
    extends from c.  Returns the list of violated laws (empty = all hold).
    """
    base = FreeBase(c)
    s1 = FormalSym(base)
    s2 = FormalSym(s1)
    s3 = FormalSym(s2)
    failures = []

    for z in probes:
        # associativity: mu o T(mu) = mu o mu_T on S3
        t_mu = sym_apply(s3, s2, lambda core: _expand_mu_core(s2, core), z)
        lhs = sym_mu(s2, t_mu)
        rhs = sym_mu(s2, sym_mu(s3, z))
        if lhs != rhs:
            failures.append("associativity")
            break
    for z in probes:
        # d mu = mu d, on S3 -> S2 and on its image, S2 -> S1
        mz = sym_mu(s3, z)
        if (apply_linear(s2.diff_key, mz) != sym_mu(s3, apply_linear(s3.diff_key, z))
                or apply_linear(s1.diff_key, sym_mu(s2, mz)) != sym_mu(s2, apply_linear(s2.diff_key, mz))):
            failures.append("mu chain map")
            break
    # unit laws on S1-level probes derived from the S3 probes' atoms
    s1_probes = []
    for z in probes:
        for (alpha, mss) in z:
            for ms2 in mss:  # an S2-core: a multiset of S1-cores
                for ms1 in ms2:
                    s1_probes.append({(alpha, ms1): Fraction(1)})
    for w in s1_probes[:10]:
        if sym_mu(s2, sym_eta(w)) != w:
            failures.append("left unit")
            break
        # T(eta): each atom of the S1-core becomes a singleton S1-core
        t_eta = {(alpha, tuple((a,) for a in ms)): v for (alpha, ms), v in w.items()}
        if sym_mu(s2, t_eta) != w:
            failures.append("right unit")
            break
    for w in s1_probes[:10]:
        if apply_linear(s2.diff_key, sym_eta(w)) != sym_eta(apply_linear(s1.diff_key, w)):
            failures.append("eta chain map")
            break
    return failures


def _expand_mu_core(s2: FormalSym, core) -> Expansion:
    """mu as a core-level map S(S(N))-core -> S(N)-expansion."""
    inner: FormalSym = s2.base
    concat = ()
    for ms in core:
        concat = concat + ms
    norm = inner.normalize(concat)
    if norm is None:
        return {}
    sign, merged = norm
    return {((0,) * s2.nvars, merged): Fraction(sign)}


def check_tensor_monad_laws(
    algebra: SullivanAlgebra, c: FreeDComplex, probes: List[Element]
) -> List[str]:
    """Monad laws for U = (A (x) -, mu, eta) on U^3-level probes."""
    base = FreeBase(c)
    u1 = TensorWithA(algebra, base)
    u2 = TensorWithA(algebra, u1)
    u3 = TensorWithA(algebra, u2)
    failures = []
    for z in probes:
        # associativity on U^3
        t_mu = tensor_apply(u3, lambda core: _expand_tensor_mu_core(u2, core), z)
        lhs = tensor_mu(u2, t_mu)
        rhs = tensor_mu(u2, tensor_mu(u3, z))
        if lhs != rhs:
            failures.append("associativity")
            break
    u1_probes: List[Element] = []
    for z in probes:
        for (alpha, (at1, (at2, (at3, ncore)))), v in z.items():
            u1_probes.append({(alpha, (at3, ncore)): Fraction(1)})
    for w in u1_probes[:10]:
        if tensor_mu(u2, tensor_eta(w)) != w:
            failures.append("left unit")
            break
        t_eta = tensor_apply(u2, lambda core: {((0,) * c.nvars, ((), core)): Fraction(1)}, w)
        if tensor_mu(u2, t_eta) != w:
            failures.append("right unit")
            break
    return failures


def _expand_tensor_mu_core(u2: TensorWithA, core) -> Expansion:
    at1, (at2, ncore) = core
    norm = _normalize_atoms(at1 + at2, u2.algebra.parities)
    if norm is None:
        return {}
    sign, merged = norm
    return {((0,) * u2.nvars, (merged, ncore)): Fraction(sign)}
