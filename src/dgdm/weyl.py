"""Exact arithmetic in the Weyl algebra.

D is the algebra of polynomial differential operators on affine n-space
over the rationals, generated by x_1..x_n and d_1..d_n subject to
d_i*x_i = x_i*d_i + 1 (all other pairs commute).  Every element has a
unique normal form as a finite sum  sum c_{a,b} x^a d^b  with exact
rational coefficients; that normal form is the stored representation.

  Monomial = (a, b)   a, b tuples of length nvars (x- and d-exponents)
  terms    = Dict[Monomial, Fraction], zero coefficients never stored

O = k[x_1..x_n] sits inside D as the operators of order 0 (b = 0), which
`is_polynomial` recognises and on which D acts by `act_on_poly`.

A product with a nonzero scalar factor (the units of D) scales the other
factor's terms and runs no `mono_mul`; every other product expands all
pairs of terms.  The public constructor checks and converts its input.
Products, sums, negation and `scale` build their results with
`_element`, which trusts its terms: normal-ordered monomials with
nonzero `Fraction` coefficients, in a dict the new element owns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import add
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .rational_linalg import add_term

Exponent = Tuple[int, ...]
Monomial = Tuple[Exponent, Exponent]  # (x-exponents, d-exponents)


class NvarsMismatch(ValueError):
    """Operands live over Weyl algebras with different numbers of variables."""


def _check_same_nvars(p, q):
    if p.nvars != q.nvars:
        raise NvarsMismatch(f"nvars mismatch: {p.nvars} != {q.nvars}")


def mono_mul(m1: Monomial, m2: Monomial) -> Dict[Monomial, int]:
    """Normal-ordered product of two monomials x^a d^b * x^c d^e.

    Rewriting d^b x^c by the commutation relation gives
        sum_k  binom(b,k) * c!/(c-k)! * x^{a+c-k} d^{b+e-k}
    with k running componentwise over 0 <= k <= min(b, c).  The
    coefficients are positive integers.  When no d_i of the left factor
    meets an x_i of the right one, only k = 0 occurs and the product is
    the single monomial x^{a+c} d^{b+e}.
    """
    (a, b), (c, e) = m1, m2
    if not any(bi and ci for bi, ci in zip(b, c)):
        return {(tuple(map(add, a, c)), tuple(map(add, b, e))): 1}
    return _normal_order(m1, m2)


def _normal_order(m1: Monomial, m2: Monomial) -> Dict[Monomial, int]:
    """mono_mul by the general formula, one term per k."""
    (a, b), (c, e) = m1, m2
    out: Dict[Monomial, int] = {}
    ranges = [range(min(bi, ci) + 1) for bi, ci in zip(b, c)]
    for k in product(*ranges):
        coef = 1
        for bi, ci, ki in zip(b, c, k):
            coef *= math.comb(bi, ki) * math.perm(ci, ki)
        key = (
            tuple(ai + ci - ki for ai, ci, ki in zip(a, c, k)),
            tuple(bi + ei - ki for bi, ei, ki in zip(b, e, k)),
        )
        out[key] = coef
    return out


def exponents_bounded(nvars: int, total: int) -> Iterator[Exponent]:
    """The exponent vectors of length nvars and total degree <= total,
    in lexicographic order."""
    if total < 0:
        return
    for e in product(range(total + 1), repeat=nvars):
        if sum(e) <= total:
            yield e


def power_factors(letter: str, exps: Exponent) -> List[str]:
    """The factors letter1^e1, letter2^e2, ... of an exponent vector, with
    zero powers left out and first powers written without ^1."""
    return [f"{letter}{i + 1}" if e == 1 else f"{letter}{i + 1}^{e}"
            for i, e in enumerate(exps) if e]


def join_terms(terms: Iterable[Tuple[Fraction, Sequence[str]]]) -> str:
    """The text of a sum of (coefficient, factors) terms: a coefficient 1
    or -1 in front of factors is left unwritten, and "+ -" becomes "- "."""
    parts = []
    for c, factors in terms:
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class WeylElement:
    """An element of D in normal order with exact rational coefficients.

    Immutable by convention: no method mutates `terms` after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Monomial, Fraction] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be a positive integer")
        self.nvars = nvars
        clean: Dict[Monomial, Fraction] = {}
        for mono, coef in (terms or {}).items():
            if type(coef) is not Fraction:
                coef = Fraction(coef)
            if coef:
                clean[mono] = coef
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "WeylElement":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "WeylElement":
        z = (0,) * nvars
        return cls(nvars, {(z, z): Fraction(1)})

    @classmethod
    def scalar(cls, nvars: int, c) -> "WeylElement":
        z = (0,) * nvars
        return cls(nvars, {(z, z): Fraction(c)})

    @classmethod
    def x(cls, i: int, nvars: int) -> "WeylElement":
        """The coordinate function x_i (1-based index)."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        a = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {(a, (0,) * nvars): Fraction(1)})

    @classmethod
    def d(cls, i: int, nvars: int) -> "WeylElement":
        """The partial derivative d_i (1-based index)."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        b = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {((0,) * nvars, b): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, a: Iterable[int], b: Iterable[int], coef=1) -> "WeylElement":
        return cls(nvars, {(tuple(a), tuple(b)): Fraction(coef)})

    # -- predicates / views -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_polynomial(self) -> bool:
        """True iff the element lies in O (no d's)."""
        zero = (0,) * self.nvars
        return all(b == zero for (_, b) in self.terms)

    def is_scalar(self) -> bool:
        return not self.terms or _unit_value(self) is not None

    def scalar_value(self) -> Fraction:
        if not self.is_scalar():
            raise ValueError("not a scalar element")
        z = (0,) * self.nvars
        return self.terms.get((z, z), Fraction(0))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "WeylElement") -> "WeylElement":
        _check_same_nvars(self, other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            add_term(terms, mono, coef)
        return _element(self.nvars, terms)

    def __neg__(self) -> "WeylElement":
        return _element(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def __mul__(self, other) -> "WeylElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _check_same_nvars(self, other)
        # nonzero scalars are central, so either order scales the other factor
        c = _unit_value(other)
        if c is not None:
            return self.scale(c)
        c = _unit_value(self)
        if c is not None:
            return other.scale(c)
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                for mono, coef in mono_mul(m1, m2).items():
                    add_term(terms, mono, c12 if coef == 1 else c12 * coef)
        return _element(self.nvars, terms)

    def __rmul__(self, other) -> "WeylElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "WeylElement":
        if type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            return _element(self.nvars, {})
        if c == 1:
            return _element(self.nvars, dict(self.terms))
        return _element(self.nvars, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- filtration by operator order ----------------------------------

    def order(self) -> int:
        """Operator order: max |b| over the support.  Raises on zero."""
        if not self.terms:
            raise ValueError("the zero element has no order")
        return max(sum(b) for (_, b) in self.terms)

    def __repr__(self):
        return f"WeylElement({self.to_string()!r})"

    def to_string(self) -> str:
        return join_terms(
            (self.terms[(a, b)], power_factors("x", a) + power_factors("d", b))
            for (a, b) in sorted(self.terms, key=lambda m: (sum(m[0]) + sum(m[1]), m))
        )


def _element(nvars: int, terms: Dict[Monomial, Fraction]) -> WeylElement:
    """The element with these terms, taken as they are: the caller passes
    normal-ordered monomials with nonzero `Fraction` coefficients, in a
    dict that nothing else holds."""
    p = object.__new__(WeylElement)
    p.nvars = nvars
    p.terms = terms
    return p


def _unit_value(p: WeylElement):
    """The coefficient of p when p is a nonzero scalar, else None."""
    if len(p.terms) == 1:
        for (a, b), c in p.terms.items():
            if not any(a) and not any(b):
                return c
    return None


def act_on_poly(p: WeylElement, f: WeylElement) -> WeylElement:
    """The tautological left action of D on O, for f in O (no d's).

    x^a d^b acting on x^c gives  c!/(c-b)! x^{a+c-b}  when b <= c
    componentwise and 0 otherwise.
    """
    _check_same_nvars(p, f)
    if not f.is_polynomial():
        raise ValueError(f"D acts on O, and {f.to_string()} contains a d")
    z = (0,) * p.nvars
    terms: Dict[Monomial, Fraction] = {}
    for (a, b), coef in p.terms.items():
        for (c, _), fc in f.terms.items():
            if any(bi > ci for bi, ci in zip(b, c)):
                continue
            scale = 1
            for bi, ci in zip(b, c):
                scale *= math.perm(ci, bi)
            add_term(terms, (tuple(ai + ci - bi for ai, ci, bi in zip(a, c, b)), z), coef * fc * scale)
    return WeylElement(p.nvars, terms)


def order_and_symbol(p: WeylElement) -> Tuple[int, Dict[Monomial, Fraction]]:
    """Operator order and principal symbol (the class in the top graded piece).

    The symbol is the sub-dictionary of terms whose d-order is maximal;
    in the associated graded ring these multiply commutatively.
    """
    k = p.order()  # raises on zero
    symbol = {(a, b): c for (a, b), c in p.terms.items() if sum(b) == k}
    return k, symbol


def filtration_decompose(p: WeylElement) -> list:
    """Split p into its homogeneous-order components.

    Returns [p_0, p_1, ..., p_k] with p_j collecting the terms of d-order
    exactly j and k the order of p; the empty list for p = 0.  Summing the
    components recovers p, witnessing the splitting of the order filtration
    into the direct sum of its graded pieces.
    """
    if p.is_zero():
        return []
    k = p.order()
    buckets = [dict() for _ in range(k + 1)]
    for (a, b), c in p.terms.items():
        buckets[sum(b)][(a, b)] = c
    return [WeylElement(p.nvars, bucket) for bucket in buckets]

