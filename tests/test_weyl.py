"""Weyl algebra arithmetic: normal ordering, the O-action, filtration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgdm.rational_linalg import add_term
from dgdm.weyl import (
    NvarsMismatch,
    WeylElement,
    _normal_order,
    act_on_poly,
    filtration_decompose,
    mono_mul,
    order_and_symbol,
)


def X(i=1, n=1):
    return WeylElement.x(i, n)


def D(i=1, n=1):
    return WeylElement.d(i, n)


def O(a, coef=1):
    """The element coef*x^a of O, over one variable."""
    return WeylElement.monomial(1, (a,), (0,), coef)


def test_defining_relation():
    # d*x = x*d + 1
    assert D() * X() == X() * D() + WeylElement.one(1)


def test_x_d_already_normal():
    assert (X() * D()).terms == {((1,), (1,)): Fraction(1)}


def test_d2_x_against_action_oracle():
    # oracle: act both sides on x^k for k <= 6
    lhs = D() * D() * X()
    rhs = X() * D() * D() + 2 * D()
    assert lhs == rhs
    for k in range(7):
        f = O(k)
        assert act_on_poly(lhs, f) == act_on_poly(D(), act_on_poly(D(), act_on_poly(X(), f)))
        assert act_on_poly(lhs, f) == act_on_poly(rhs, f)


def test_action_examples():
    assert act_on_poly(D(), O(3)) == O(2, 3)
    assert act_on_poly(X() * D(), O(2)) == O(2, 2)
    # repeated differentiation oracle
    p = O(4)
    once = act_on_poly(D(), p)
    twice = act_on_poly(D(), once)
    assert act_on_poly(D() * D(), p) == twice == O(2, 12)


def test_nvars_mismatch_raises():
    with pytest.raises(NvarsMismatch):
        X(1, 1) * X(1, 2)
    with pytest.raises(NvarsMismatch):
        act_on_poly(X(1, 2), WeylElement.one(1))


def test_act_on_poly_refuses_an_operator_with_a_d():
    with pytest.raises(ValueError, match="contains a d"):
        act_on_poly(X(), D())
    with pytest.raises(ValueError, match="contains a d"):
        act_on_poly(WeylElement.one(2), X(1, 2) + D(2, 2))


def _random_element(rng, nvars=1, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        a = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        b = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[(a, b)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return WeylElement(nvars, terms)


@pytest.mark.parametrize("nvars", [1, 2])
def test_associativity_and_unit_random(nvars):
    rng = random.Random(7 + nvars)
    one = WeylElement.one(nvars)
    for _ in range(25):
        p, q, r = (_random_element(rng, nvars) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert one * p == p
        assert p * one == p


@pytest.mark.parametrize("nvars", [1, 2])
def test_action_is_module_action(nvars):
    rng = random.Random(13 + nvars)
    for _ in range(25):
        p, q = _random_element(rng, nvars, 4, 3), _random_element(rng, nvars, 4, 3)
        f_terms = {
            (tuple(rng.randint(0, 3) for _ in range(nvars)), (0,) * nvars): Fraction(rng.randint(-3, 3))
            for _ in range(3)
        }
        f = WeylElement(nvars, f_terms)
        assert act_on_poly(p * q, f) == act_on_poly(p, act_on_poly(q, f))
        assert act_on_poly(WeylElement.one(nvars), f) == f
        # f acts on O by multiplication, so the product in D and the action agree
        assert act_on_poly(p, f) == act_on_poly(p * f, WeylElement.one(nvars))


def test_order_and_symbol_examples():
    p = X() * D() + WeylElement.one(1)
    k, sym = order_and_symbol(p)
    assert k == 1 and sym == {((1,), (1,)): Fraction(1)}
    k, sym = order_and_symbol(WeylElement.monomial(1, (5,), (0,)))
    assert k == 0 and sym == {((5,), (0,)): Fraction(1)}
    k, sym = order_and_symbol(D() * D() + X() * D())
    assert k == 2 and sym == {((0,), (2,)): Fraction(1)}
    with pytest.raises(ValueError):
        order_and_symbol(WeylElement.zero(1))


def symbol_product(s1, s2):
    """Commutative product of symbols in the associated graded ring: the oracle."""
    out = {}
    for (a1, b1), c1 in s1.items():
        for (a2, b2), c2 in s2.items():
            key = (
                tuple(x + y for x, y in zip(a1, a2)),
                tuple(x + y for x, y in zip(b1, b2)),
            )
            add_term(out, key, c1 * c2)
    return out


def test_order_and_symbol_multiplicative():
    # order(pq) = order(p)+order(q); symbol(pq) = symbol(p)*symbol(q)
    rng = random.Random(3)
    for _ in range(30):
        p, q = _random_element(rng), _random_element(rng)
        if p.is_zero() or q.is_zero():
            continue
        kp, sp = order_and_symbol(p)
        kq, sq = order_and_symbol(q)
        kpq, spq = order_and_symbol(p * q)
        assert kpq == kp + kq
        assert spq == symbol_product(sp, sq)


def test_filtration_decompose_examples():
    p = D() * D() + X() * D() + WeylElement.scalar(1, 3)
    parts = filtration_decompose(p)
    assert [c.to_string() for c in parts] == ["3", "x1*d1", "d1^2"]
    assert filtration_decompose(WeylElement.zero(1)) == []
    assert filtration_decompose(WeylElement.monomial(1, (7,), (0,))) == [
        WeylElement.monomial(1, (7,), (0,))
    ]


def test_filtration_decompose_is_splitting_bijection():
    rng = random.Random(11)
    for _ in range(40):
        p = _random_element(rng, 2, 6, 3)
        parts = filtration_decompose(p)
        total = WeylElement.zero(2)
        for j, c in enumerate(parts):
            total = total + c
            assert all(sum(b) == j for (_, b) in c.terms)
        assert total == p
        if parts:
            assert not parts[-1].is_zero()  # length pins the order
    # reassembling homogeneous pieces and decomposing is the identity
    for _ in range(20):
        pieces = {}
        for j in range(rng.randint(1, 4)):
            a = tuple(rng.randint(0, 3) for _ in range(2))
            b0 = rng.randint(0, 3)
            b = (b0, j if j <= 3 else 3)
            pieces.setdefault(sum(b), {})[(a, b)] = Fraction(1 + rng.randint(0, 2))
        p = WeylElement(2, {m: c for bucket in pieces.values() for m, c in bucket.items()})
        parts = filtration_decompose(p)
        for j, c in enumerate(parts):
            expect = WeylElement(2, pieces.get(j, {}))
            assert c == expect


coef_st = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda c: c != 0)
mono_st = st.tuples(
    st.tuples(st.integers(0, 3)), st.tuples(st.integers(0, 3))
)
elem_st = st.dictionaries(mono_st, coef_st, max_size=4).map(lambda t: WeylElement(1, t))


@settings(max_examples=60, deadline=None)
@given(elem_st, elem_st)
def test_distributivity(p, q):
    r = WeylElement.x(1, 1) + WeylElement.d(1, 1)
    assert (p + q) * r == p * r + q * r
    assert r * (p + q) == r * p + r * q


@settings(max_examples=60, deadline=None)
@given(elem_st, elem_st)
def test_restriction_to_O_is_commutative(p, q):
    po = WeylElement(1, {((a), (0,)): c for ((a), _), c in p.terms.items()})
    qo = WeylElement(1, {((a), (0,)): c for ((a), _), c in q.terms.items()})
    assert po * qo == qo * po
    assert (po * qo).is_polynomial()


def _bump(t, i, k):
    return tuple(v + k if j == i else v for j, v in enumerate(t))


def _left_by_generator(terms, var, i):
    """Left-multiply a normal-ordered element {(a, b): coef} by x_i or d_i,
    using only x_i*x^c d^e = x^(c+1_i) d^e and d_i*x^c = x^c*d_i + c_i*x^(c-1_i)."""
    out = {}
    for (c, e), coef in terms.items():
        if var == "x":
            images = [((_bump(c, i, 1), e), coef)]
        else:
            images = [((c, _bump(e, i, 1)), coef), ((_bump(c, i, -1), e), coef * c[i])]
        for key, v in images:
            out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


def _brute_force_mono_mul(m1, m2):
    (a, b) = m1
    terms = {m2: 1}
    for i, k in enumerate(b):
        for _ in range(k):
            terms = _left_by_generator(terms, "d", i)
    for i, k in enumerate(a):
        for _ in range(k):
            terms = _left_by_generator(terms, "x", i)
    return terms


exp_st = st.integers(1, 2).flatmap(lambda n: st.tuples(
    *[st.tuples(*[st.integers(0, 3)] * n) for _ in range(4)]))


@settings(max_examples=150, deadline=None)
@given(exp_st)
def test_mono_mul_against_generator_products(exps):
    a, b, c, e = exps
    got = mono_mul((a, b), (c, e))
    assert all(type(v) is int for v in got.values())
    assert got == _brute_force_mono_mul((a, b), (c, e))
    # the one-term fast path agrees with the general formula
    assert got == _normal_order((a, b), (c, e))


# The general product, every pair of terms through mono_mul, kept as the
# reference for the scalar fast path of WeylElement.__mul__.

def _reference_mul(p, q):
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            for mono, coef in mono_mul(m1, m2).items():
                add_term(terms, mono, c1 * c2 * coef)
    return WeylElement(p.nvars, terms)


SCALARS = (Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-7, 5))


def _factor(rng, nvars, kind):
    """A seeded factor: a nonzero scalar, zero, one x/d-bearing term, or several terms."""
    if kind == "scalar":
        return WeylElement.scalar(nvars, rng.choice(SCALARS))
    if kind == "zero":
        return WeylElement.zero(nvars)
    while True:
        p = _random_element(rng, nvars, 1 if kind == "monomial" else 4, 3)
        if len(p.terms) >= (1 if kind == "monomial" else 2) and not p.is_scalar():
            return p


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_products_match_the_general_loop(nvars):
    rng = random.Random(f"scalar-products:{nvars}")
    kinds = ("scalar", "zero", "monomial", "general")
    for left in kinds:
        for right in kinds:
            for _ in range(12):
                p, q = _factor(rng, nvars, left), _factor(rng, nvars, right)
                got, want = p * q, _reference_mul(p, q)
                assert got.terms == want.terms, (left, right, p, q)
                assert got.nvars == nvars
                assert all(type(c) is Fraction and c for c in got.terms.values())
                assert got.terms is not p.terms and got.terms is not q.terms
    for c in SCALARS + (0, 2):
        p = _factor(rng, nvars, "general")
        want = _reference_mul(WeylElement.scalar(nvars, c), p)
        for got in (p * c, c * p, p.scale(c)):
            assert got.terms == want.terms and got.terms is not p.terms
            assert all(type(v) is Fraction and v for v in got.terms.values())
    p, q = _factor(rng, nvars, "general"), _factor(rng, nvars, "general")
    assert (-p).terms == {m: -c for m, c in p.terms.items()} and (p - p).is_zero()
    for got in (p + q, -p, p - q, p - p):
        assert all(type(c) is Fraction and c for c in got.terms.values())
        assert got.terms is not p.terms and got.terms is not q.terms


def test_public_constructor_checks_its_input():
    for nvars in (0, -1):
        with pytest.raises(ValueError, match="nvars"):
            WeylElement(nvars, {})
    one, x, d = ((0,), (0,)), ((1,), (0,)), ((0,), (1,))
    terms = {one: 2, x: "3/4", d: 0}
    p = WeylElement(1, terms)
    assert p.terms == {one: Fraction(2), x: Fraction(3, 4)}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.terms is not terms
    assert WeylElement(1, {x: Fraction(0), d: "0"}).is_zero()


def test_suite_makes_few_mono_mul_calls(suite_counts):
    # one dgdm suite --seed 42 made 14,930 mono_mul calls when products
    # with a scalar factor ran the general loop; 7,662 with the fast path
    assert suite_counts["mono_mul"] <= 8000, suite_counts
