"""O-basis complexes: tensor structure, cones, bounded exactness."""

import random
from fractions import Fraction

import pytest
from test_dga import assert_enumeration_contract

from dgdm import weyl
from dgdm.complexes import FreeDComplex, disk, sphere
from dgdm.model import iota, pushout_product, zeta
from dgdm.obasis import (
    OBasisChainMap,
    OBasisComplex,
    Slot,
    is_bounded_weq,
    obasis_direct_sum,
    obasis_inclusion,
    obasis_of_free,
    tensor_free,
    truncated_acyclicity,
)
from dgdm.randgen import random_complex
from dgdm.rational_linalg import add_term, integral
from dgdm.slices import dsquare_witness
from dgdm.weyl import WeylElement

ONE = WeylElement.one(1)
D1 = WeylElement.d(1, 1)
X1 = WeylElement.x(1, 1)


def test_sphere_tensor_sphere_single_slot():
    t = tensor_free(sphere(2), sphere(1))
    assert list(t.slots) == [(2, 1, 0, 0)]
    assert t.slots[(2, 1, 0, 0)].degree == 3
    assert t.diff_entries == {}


def test_disk_tensor_sphere_shape():
    # D^m (x) S^{n-1}: two slots joined by s^{-1} (x) Id
    t = tensor_free(disk(2), sphere(0))
    assert set(t.slots) == {(2, 0, 0, 0), (1, 0, 0, 0)}
    entries = t.diff_entries[(2, 0, 0, 0)]
    assert entries == [((1, 0, 0, 0), 0, ONE)]


def test_disk_tensor_disk_differential_signs():
    t = tensor_free(disk(1), disk(1))
    assert dsquare_witness(t.basis_keys, t.diff_key, range(2, t.top + 1), 4) is None
    # top slot (1,1): d(x)1 + (-1)^1 1(x)d
    entries = dict()
    for tgt, factor, coef in t.diff_entries[(1, 1, 0, 0)]:
        entries[tgt] = (factor, coef)
    assert entries[(0, 1, 0, 0)] == (0, ONE)
    assert entries[(1, 0, 0, 0)] == (1, -ONE)


def test_leibniz_action_in_diff():
    # in D (x) D the differential of the top of D^1 (x) S^0 multiplies the
    # first factor; check on a basis vector with nonzero exponents
    t = tensor_free(disk(1), sphere(0))
    key = ((1, 0, 0, 0), (1,), ((1,), (2,)))  # x d e (x) d^2 f
    img = t.diff_key(key)
    assert img == {((0, 0, 0, 0), (1,), ((1,), (2,))): Fraction(1)}


def test_weight_and_basis_enumeration():
    t = tensor_free(disk(1), disk(1))
    keys = [k for k, _ in t.basis_keys(2, 3)]
    assert all(sum(alpha) + sum(map(sum, bs)) <= 3 for _, alpha, bs in keys)
    assert len(set(keys)) == len(keys)
    # degree 1 has two slots
    assert {k[0] for k, _ in t.basis_keys(1, 1)} == {(0, 1, 0, 0), (1, 0, 0, 0)}
    # the listed weight of (slot, alpha, bs) is the sum of its exponent blocks
    for t in (tensor_free(disk(1), disk(2)), tensor_free(sphere(0, 2), disk(1, 2))):
        assert_enumeration_contract(t.basis_keys, lambda k: t.slots[k[0]].degree,
                                    lambda k: sum(k[1]) + sum(map(sum, k[2])), top=4)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (3, 3)])
def test_disks_tensor_acyclic(m, n):
    r = truncated_acyclicity(tensor_free(disk(m), disk(n)), 6)
    assert r.ok and r.verdict == "bounded-pass"
    r = truncated_acyclicity(tensor_free(disk(m), sphere(n - 1)), 6)
    assert r.ok


def test_sphere_tensor_sphere_fails_with_witness():
    r = truncated_acyclicity(tensor_free(sphere(0), sphere(0)), 6)
    assert r.verdict == "fail"
    assert r.witness["degree"] == 0
    # the witness is the cycle 1 (x) 1
    (key, coef), = r.witness["cycle"].items()
    assert key == ((0, 0, 0, 0), (0,), ((0,), (0,)))


def test_truncation_too_small():
    with pytest.raises(ValueError):
        truncated_acyclicity(tensor_free(disk(1), disk(1)), 1)


def test_obasis_of_free_matches_complex():
    c = FreeDComplex(1, {0: 1, 1: 1}, {1: [[D1]]})
    t = obasis_of_free(c)
    assert set(t.slots) == {("F", 0, 0), ("F", 1, 0)}
    img = t.diff_key((("F", 1, 0), (0,), ((0,),)))
    assert img == {(("F", 0, 0), (0,), ((1,),)): Fraction(1)}
    # x-part of the product joins the O-coefficient
    img = t.diff_key((("F", 1, 0), (0,), ((1,),)))
    # d * d = d^2
    assert img == {(("F", 0, 0), (0,), ((2,),)): Fraction(1)}


def test_direct_sum_and_inclusion():
    t1 = obasis_of_free(sphere(0))
    t2 = tensor_free(disk(1), disk(1))
    s = obasis_direct_sum(t1, t2)
    assert len(s.slots) == 1 + 4
    inc = obasis_inclusion(t1, t2, 0)
    key = (("F", 0, 0), (2,), ((0,),))
    assert inc.apply_key(key) == {((0, ("F", 0, 0)), (2,), ((0,),)): Fraction(1)}


def test_cone_of_identity_bounded_acyclic():
    t = obasis_of_free(sphere(1))
    f = OBasisChainMap(t, t, {sid: [(sid, 0, ONE)] for sid in t.slots})
    assert is_bounded_weq(f, 6).ok


def test_cone_detects_non_weq():
    # 0 -> S^0 is not a weak equivalence; its cone is S^0 itself
    empty = OBasisComplex(1, {}, {})
    t = obasis_of_free(sphere(0))
    f = OBasisChainMap(empty, t, {})
    r = is_bounded_weq(f, 6)
    assert r.verdict == "fail"


def test_chain_property_validation():
    t1 = obasis_of_free(disk(1))
    # the identity is a chain map
    good = OBasisChainMap(t1, t1, {sid: [(sid, 0, ONE)] for sid in t1.slots})
    good.check_chain_property(3)
    # top |-> top with the bottom dropped is not one
    bad = OBasisChainMap(
        t1, t1, {("F", 1, 0): [(("F", 1, 0), 0, ONE)]}
    )
    with pytest.raises(ValueError):
        bad.check_chain_property(3)
    # degree-changing entries are rejected at construction
    t2 = obasis_of_free(sphere(0))
    with pytest.raises(ValueError):
        OBasisChainMap(t1, t2, {("F", 1, 0): [(("F", 0, 0), 0, ONE)]})


def test_dsquare_violation_detected():
    slots = {"a": Slot(2, 1), "b": Slot(1, 1), "c": Slot(0, 1)}
    diff = {"a": [("b", 0, ONE)], "b": [("c", 0, ONE)]}
    t = OBasisComplex(1, slots, diff)
    assert dsquare_witness(t.basis_keys, t.diff_key, range(2, t.top + 1), 2)[0] == "a"


# apply_entries through WeylElement products, kept as the reference for the
# expansion by mono_mul.

def _reference_apply_entries(t, key, entries):
    sid, alpha, bs = key
    zero_a = (0,) * t.nvars
    out = {}
    for tgt, factor, coef in entries:
        if coef.is_zero():
            continue
        tgt_factors = t.slots[tgt].factors
        if factor == 0:
            carrier = WeylElement.monomial(t.nvars, alpha, bs[0]) * coef
            for (na, nb), c in carrier.terms.items():
                nbs = (nb,) + bs[1:]
                add_term(out, (tgt, na, nbs[:tgt_factors]), integral(c))
        else:
            carrier = WeylElement.monomial(t.nvars, zero_a, bs[factor]) * coef
            for (na, nb), c in carrier.terms.items():
                nalpha = tuple(x + y for x, y in zip(alpha, na))
                nbs = bs[:factor] + (nb,) + bs[factor + 1:]
                add_term(out, (tgt, nalpha, nbs[:tgt_factors]), integral(c))
    return out


def _fractional(rng, nvars):
    """A seeded element of one to three terms with x's, d's and rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a = tuple(rng.randint(0, 2) for _ in range(nvars))
        b = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[(a, b)] = Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
    return WeylElement(nvars, terms)


def _seeded_tables(rng, nvars):
    """Seeded tensor products, summand inclusions and pushout products: a
    source, a target and a table of entries taking source keys to the target."""
    t = tensor_free(random_complex(rng, nvars, 2, 2, 2), random_complex(rng, nvars, 2, 2, 2))
    inc = obasis_inclusion(obasis_of_free(random_complex(rng, nvars, 2, 2, 2)), t, 1)
    pp = pushout_product(rng.choice((iota(1), iota(2), zeta(1))), rng.choice((iota(1), zeta(2))), nvars)
    for f in (inc, pp.map):
        yield f.source, f.source, f.source.diff_entries
        yield f.source, f.target, f.entries
        yield f.target, f.target, f.target.diff_entries


@pytest.mark.parametrize("nvars", [1, 2])
def test_apply_entries_matches_weyl_products(nvars):
    rng = random.Random(f"apply-entries:{nvars}")
    factors, kinds = set(), set()
    for _ in range(3):
        for src, t, table in _seeded_tables(rng, nvars):
            for sid, entries in table.items():
                perturbed = [(tgt, f, c * _fractional(rng, nvars) + _fractional(rng, nvars))
                             for tgt, f, c in entries]
                factors.update(f for _, f, _ in entries)
                keys = [k for k, _ in src.basis_keys(src.slots[sid].degree, 5) if k[0] == sid]
                if nvars > 1:
                    keys = rng.sample(keys, min(len(keys), 40))
                for key in keys:
                    for es in (entries, perturbed):
                        got = t.apply_entries(key, es)
                        assert got == _reference_apply_entries(t, key, es), (sid, key)
                        assert all(c for c in got.values())
                        kinds.update(type(c) for c in got.values())
    # both factors of a tensor, integral and non-integral coefficients
    assert factors == {0, 1} and kinds == {int, Fraction}


def test_trivial_pp_weq_builds_few_weyl_elements(monkeypatch):
    # expanding each entry through WeylElement products built 8,932
    # elements in this check, mono_mul on the terms 72
    from dgdm.verify import run_check

    built = 0
    init, element = WeylElement.__init__, weyl._element

    def counting_init(self, nvars, terms=None):
        nonlocal built
        built += 1
        init(self, nvars, terms)

    def counting_element(nvars, terms):
        nonlocal built
        built += 1
        return element(nvars, terms)

    monkeypatch.setattr(WeylElement, "__init__", counting_init)
    monkeypatch.setattr(weyl, "_element", counting_element)
    assert run_check("trivial_pp_weq", None, 42).verdict == "bounded-pass"
    assert built <= 100, built
