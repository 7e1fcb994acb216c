"""Two-variable integration: Koszul resolution, box products, twists."""

import random

from dgdm.complexes import FreeDComplex, homology, is_acyclic
from dgdm.groebner import FreeModuleElement, buchberger, member
from dgdm.model import iota, pushout_product, zeta
from dgdm.obasis import is_bounded_weq, tensor_free, truncated_acyclicity
from dgdm.slices import dsquare_witness
from dgdm.weyl import WeylElement


def test_koszul_complex_resolves_O():
    # 0 -> D -> D^2 -> D with d2 = (-d_2, d_1), d1 = (d_1; d_2):
    # H_0 = D/(D d_1 + D d_2) = O, higher homology vanishes
    n = 2
    d1, d2 = WeylElement.d(1, n), WeylElement.d(2, n)
    zero = WeylElement.zero(n)
    c = FreeDComplex(
        n,
        {0: 1, 1: 2, 2: 1},
        {1: [[d1], [d2]], 2: [[-d2, d1]]},
    )
    h0 = homology(c, 0)
    assert h0.generators == [FreeModuleElement([WeylElement.one(n)])]
    rel = buchberger(
        [FreeModuleElement([r.coords[0]]) for r in h0.relations], rank=1, nvars=n
    )
    assert member(FreeModuleElement([d1]), rel)
    assert member(FreeModuleElement([d2]), rel)
    assert not member(FreeModuleElement([WeylElement.one(n)]), rel)
    assert homology(c, 1).is_zero()
    assert homology(c, 2).is_zero()


def test_koszul_with_polynomial_twist():
    # replace d_i by d_i - x_i (conjugation by exp(|x|^2/2), formally):
    # still a regular sequence, so the complex stays exact above degree 0
    n = 2
    p1 = WeylElement.d(1, n) - WeylElement.x(1, n)
    p2 = WeylElement.d(2, n) - WeylElement.x(2, n)
    c = FreeDComplex(
        n,
        {0: 1, 1: 2, 2: 1},
        {1: [[p1], [p2]], 2: [[-p2, p1]]},
    )
    assert homology(c, 1).is_zero()
    assert homology(c, 2).is_zero()
    assert not homology(c, 0).is_zero()


def test_boxprod_two_variables():
    r = pushout_product(iota(1), iota(1), nvars=2)
    assert set(r.cokernel) == {2}
    r = pushout_product(zeta(1), iota(1), nvars=2)
    assert truncated_acyclicity(r.domain, 4).ok
    assert is_bounded_weq(r.map, 4).ok


def test_tensor_acyclicity_two_variables():
    from dgdm.complexes import disk, sphere

    t = tensor_free(disk(1, nvars=2), sphere(0, nvars=2))
    assert dsquare_witness(t.basis_keys, t.diff_key, range(2, t.top + 1), 2) is None
    assert truncated_acyclicity(t, 4).ok
    bad = tensor_free(sphere(0, nvars=2), sphere(0, nvars=2))
    assert truncated_acyclicity(bad, 4).verdict == "fail"
