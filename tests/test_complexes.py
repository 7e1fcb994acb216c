"""Complexes: homology presentations, cones, shifts, weqs, connections."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from dgdm.complexes import (
    ChainMap,
    ComplexError,
    ConnectionModule,
    FreeDComplex,
    block_matrix,
    compose,
    direct_sum,
    disk,
    homology,
    identity_map,
    identity_matrix,
    is_acyclic,
    is_weak_equivalence,
    mapping_cone,
    shift,
    sphere,
    summand_inclusion,
    summand_projection,
    tensor_with_connection,
    zero_map,
)
from dgdm.groebner import FreeModuleElement, as_matrix, submodule_equal, syzygies
from dgdm.randgen import random_weyl
from dgdm.weyl import WeylElement

D1 = WeylElement.d(1, 1)
X1 = WeylElement.x(1, 1)
ONE = WeylElement.one(1)
ZERO = WeylElement.zero(1)
EMPTY = FreeDComplex(1, {}, {})


def d_complex():
    # 0 -> D --(.d)--> D
    return FreeDComplex(1, {0: 1, 1: 1}, {1: [[D1]]})


def _free_of_rank(h, r):
    """A homology presentation by r generators and no relation."""
    return len(h.generators) == r and not h.relations


def _cone_to_cokernel(f, coker, proj):
    """The map Mc(f) -> coker(f), (c, c') |-> q(c'), from projections q_n: Y_n -> coker_n."""
    maps = {n: block_matrix([[None], [proj.get(n)]], (f.source.rank(n - 1), f.target.rank(n)),
                            (coker.rank(n),), f.nvars)
            for n in coker.degrees()}
    return ChainMap(mapping_cone(f), coker, maps)


def test_dsquare_enforced():
    with pytest.raises(ComplexError):
        FreeDComplex(1, {0: 1, 1: 1, 2: 1}, {1: [[ONE]], 2: [[ONE]]})


def test_shape_enforced():
    with pytest.raises(ComplexError):
        FreeDComplex(1, {0: 2, 1: 1}, {1: [[D1]]})
    with pytest.raises(ComplexError):
        FreeDComplex(1, {-1: 1}, {})


def test_sphere_disk():
    s = sphere(0)
    assert s.ranks == {0: 1} and s.differentials == {}
    d = disk(1)
    assert d.ranks == {1: 1, 0: 1} and d.diff(1) == identity_matrix(1, 1)
    with pytest.raises(ComplexError):
        sphere(-1)
    with pytest.raises(ComplexError):
        disk(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_disks_acyclic(n):
    c = disk(n)
    for k in range(0, n + 1):
        assert homology(c, k).is_zero()
    assert is_acyclic(c)


def test_homology_of_d_complex():
    c = d_complex()
    h0 = homology(c, 0)
    # D/Dd = O: one generator e with one relation d*e
    assert h0.generators == [FreeModuleElement([ONE])]
    assert h0.relations == [FreeModuleElement([D1])]
    assert homology(c, 1).is_zero()


def test_homology_sphere_free():
    h = homology(sphere(2), 2)
    assert _free_of_rank(h, 1)
    assert homology(sphere(2), 1).is_zero()
    assert homology(sphere(2), 3).is_zero()


def test_mapping_cone_of_identity_acyclic():
    for c in [sphere(0), disk(2), d_complex()]:
        assert is_acyclic(mapping_cone(identity_map(c)))


def test_cone_of_iota1_matches_cokernel():
    # iota_1: S^0 -> D^1 has cokernel S^1; the canonical projection
    # Mc(iota_1) -> S^1 is a quasi-isomorphism
    f = ChainMap(sphere(0), disk(1), {0: identity_matrix(1, 1)})
    cone = mapping_cone(f)
    assert homology(cone, 0).is_zero()
    assert _free_of_rank(homology(cone, 1), 1)
    assert homology(cone, 2).is_zero()
    coker = sphere(1)
    proj = {1: identity_matrix(1, 1)}
    q = _cone_to_cokernel(f, coker, proj)
    assert is_weak_equivalence(q)
    assert _free_of_rank(homology(coker, 1), 1)


def test_shift():
    assert shift(sphere(2), -1) == sphere(3)
    assert shift(sphere(2), 2) == sphere(0)
    assert shift(disk(3), 1) == FreeDComplex(1, {2: 1, 1: 1}, {2: [[-ONE]]})
    assert shift(shift(disk(3), 1), -1) == disk(3)
    with pytest.raises(ComplexError):
        shift(sphere(1), 2)


def test_weak_equivalence_examples():
    assert is_weak_equivalence(identity_map(d_complex()))
    # zeta_1: 0 -> D^1 is a generating trivial cofibration
    assert is_weak_equivalence(ChainMap(EMPTY, disk(1), {}))
    assert not is_weak_equivalence(zero_map(EMPTY, sphere(0)))


def test_chain_map_validation():
    c = d_complex()
    with pytest.raises(ComplexError):
        ChainMap(c, sphere(0), {1: [[ONE]]})  # wrong shape
    with pytest.raises(ComplexError):
        # does not commute: X1 vs identity around the square
        ChainMap(c, c, {0: [[ONE]], 1: [[X1]]})


def test_direct_sum_is_biproduct():
    c1, c2 = d_complex(), sphere(1)
    s = direct_sum(c1, c2)
    i1 = summand_inclusion(c1, c2, 0)
    i2 = summand_inclusion(c1, c2, 1)
    p1 = summand_projection(c1, c2, 0)
    p2 = summand_projection(c1, c2, 1)
    assert compose(i1, p1) == identity_map(c1)
    assert compose(i2, p2) == identity_map(c2)
    assert s.rank(1) == c1.rank(1) + c2.rank(1)


def _layout_pair():
    # c2 is empty in degree 0 and c1 in degree 2, so the sum has blocks
    # with no rows and blocks with no columns
    c1 = FreeDComplex(1, {0: 1, 1: 2}, {1: [[D1], [X1]]})
    c2 = FreeDComplex(1, {1: 1, 2: 1}, {2: [[X1 + ONE]]})
    return c1, c2


def _components(f):
    return [f.component(n) for n in range(4)]


def M(rows, cols):
    """The matrix of dense rows over D_1, with its column count."""
    return as_matrix(rows, 1, ncols=cols)


def test_direct_sum_layout_is_pinned():
    # the first summand's coordinates come first, in every degree
    c1, c2 = _layout_pair()
    s = direct_sum(c1, c2)
    assert s.ranks == {0: 1, 1: 3, 2: 1}
    assert s.diff(1) == M([[D1], [X1], [ZERO]], 1)
    assert s.diff(2) == M([[ZERO, ZERO, X1 + ONE]], 3)
    assert _components(summand_inclusion(c1, c2, 0)) == [
        M([[ONE]], 1), M([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]], 3), M([], 1), M([], 0)]
    assert _components(summand_inclusion(c1, c2, 1)) == [
        M([], 1), M([[ZERO, ZERO, ONE]], 3), M([[ONE]], 1), M([], 0)]
    assert _components(summand_projection(c1, c2, 0)) == [
        M([[ONE]], 1), M([[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]], 2), M([[]], 0), M([], 0)]
    assert _components(summand_projection(c1, c2, 1)) == [
        M([[]], 0), M([[ZERO], [ZERO], [ONE]], 1), M([[ONE]], 1), M([], 0)]


def test_mapping_cone_layout_is_pinned():
    # Mc(f)_n = X_{n-1} (+) Y_n, the X-coordinates first
    c1, c2 = _layout_pair()
    f = ChainMap(c1, c2, {1: [[X1 + D1], [ONE]]})
    cone = mapping_cone(f)
    assert cone.ranks == {1: 2, 2: 3}
    assert cone.diff(1) == M([[], []], 0)
    assert cone.diff(2) == M([[-D1, X1 + D1], [-X1, ONE], [ZERO, X1 + ONE]], 2)
    # im f_1 is all of Y_1, so the cokernel is Y_2 alone
    q = _cone_to_cokernel(f, sphere(2), {2: identity_matrix(1, 1)})
    assert _components(q) == [M([], 0), M([[], []], 0), M([[ZERO], [ZERO], [ONE]], 1), M([], 0)]


def test_connection_flatness_two_vars():
    zero = WeylElement.zero(2)
    x2 = WeylElement.x(2, 2)
    # d_1 acts by x2, d_2 by 0: curvature d_2(x2) = 1 != 0
    with pytest.raises(ValueError):
        ConnectionModule(2, 1, [[[x2]], [[zero]]])
    # constant commuting matrices are fine
    one = WeylElement.one(2)
    ConnectionModule(2, 1, [[[one]], [[one]]])


@pytest.mark.parametrize("entry", [WeylElement.d(1, 1), WeylElement.x(1, 2), "junk"],
                         ids=["has-a-d", "two-variables", "not-an-element"])
def test_connection_refuses_an_entry_outside_O(entry):
    # one variable skips the flatness check, so the entries are checked on their own
    with pytest.raises(ValueError, match="is not in O with nvars=1"):
        ConnectionModule(1, 1, [[[entry]]])


def test_tensor_with_trivial_connection_is_identity():
    c = d_complex()
    assert tensor_with_connection(c, ConnectionModule(1, 1, [[[ZERO]]])) == c


def test_tensor_with_rank1_twist():
    c = d_complex()
    m = ConnectionModule(1, 1, [[[WeylElement.x(1, 1)]]])
    t = tensor_with_connection(c, m)
    assert t.diff(1).rows[0].coords == (D1 - X1,)
    # d - x is a nonzerodivisor: H_1 = 0; H_0 is D/D(d-x)
    assert homology(t, 1).is_zero()
    h0 = homology(t, 0)
    assert h0.generators == [FreeModuleElement([ONE])]
    assert h0.relations == [FreeModuleElement([D1 - X1])]


def test_tensor_with_connection_rank2():
    # rank-2 connection: d.e1 = e2, d.e2 = 0 (nilpotent, flat since n = 1)
    zero, one = WeylElement.zero(1), WeylElement.one(1)
    m = ConnectionModule(1, 2, [[[zero, zero], [one, zero]]])
    c = d_complex()
    t = tensor_with_connection(c, m)
    assert t.rank(0) == t.rank(1) == 2
    assert is_acyclic(mapping_cone(identity_map(t)))  # d^2 = 0 held at build


def test_cone_tensor_compatibility_rank1():
    # Mc(f (x) id_M) identified with Mc(f) (x) M for a rank-1 twist
    rng = random.Random(4)
    m = ConnectionModule(1, 1, [[[WeylElement.x(1, 1)]]])
    f = ChainMap(sphere(0), disk(1), {0: identity_matrix(1, 1)})
    lhs = mapping_cone(
        ChainMap(
            tensor_with_connection(f.source, m),
            tensor_with_connection(f.target, m),
            {n: f.component(n) for n in f.maps},
        )
    )
    rhs = tensor_with_connection(mapping_cone(f), m)
    assert lhs.ranks == rhs.ranks
    # same differentials after the canonical index identification
    assert lhs == rhs


def test_homology_relations_evaluate_into_image():
    c = FreeDComplex(1, {0: 1, 1: 2}, {1: [[D1], [X1 * D1]]})
    h = homology(c, 0)
    # every relation row evaluated on the generators lies in im d_1
    image = [FreeModuleElement([D1]), FreeModuleElement([X1 * D1])]
    for rel in h.relations:
        acc = FreeModuleElement.zero(1, 1)
        for coef, gen in zip(rel.coords, h.generators):
            acc = acc + gen.left_mul(coef)
        from dgdm.groebner import buchberger, member

        assert member(acc, buchberger(image))


def _syzygy_rich_complex(rng):
    """D^(1 or 2) -> D^3 -> D over D_1: a random d_1, and d_2 rows that are
    random combinations of the kernel generators of d_1.  Those generators
    often have syzygies, and then an image row has many lifts over them."""
    r2 = rng.randint(1, 2)
    d1 = [[random_weyl(rng, 1, 2, 1)] for _ in range(3)]
    kernel = syzygies(d1, 1).generators
    d2 = []
    for _ in range(r2):
        row = FreeModuleElement.zero(3, 1)
        for k in kernel:
            row = row + k.left_mul(random_weyl(rng, 1, 2, 1))
        d2.append(row.coords)
    return FreeDComplex(1, {0: 1, 1: 3, 2: r2}, {1: d1, 2: d2})


def test_homology_relations_keep_their_bytes():
    # the one place where a lift is not unique: the digest pins the
    # relations homology reports on 200 such complexes (35 of them with
    # syzygies among the kernel generators and an image to lift)
    rng = random.Random("homology-bytes")
    digest = hashlib.sha256()
    for _ in range(200):
        for rel in homology(_syzygy_rich_complex(rng), 1).relations:
            digest.update((" ; ".join(e.to_string() for e in rel.coords) + "\n").encode())
        digest.update(b"|\n")
    assert digest.hexdigest() == "c62a887f5f546809729161f884025340a430a5cd857403763066a03fec5be530"


def test_dsquare_rejected_on_mutated_random_complexes():
    # mutate one differential entry of a valid complex with adjacent
    # differentials; construction must reject exactly when d*d breaks
    from dgdm.randgen import random_weyl
    from dgdm.complexes import mat_mul, mat_is_zero

    rng = random.Random(17)
    base = direct_sum(direct_sum(disk(2), disk(1)), sphere(1))
    rejected = accepted = 0
    for _ in range(30):
        n = rng.choice([1, 2])
        mat = [list(row.coords) for row in base.diff(n).rows]
        i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
        mat[i][j] = mat[i][j] + random_weyl(rng, 1, 2, 1)
        diffs = {k: base.diff(k) for k in base.differentials}
        diffs[n] = as_matrix(mat, 1)
        product = mat_mul(diffs[2], diffs[1])
        if mat_is_zero(product):
            c = FreeDComplex(1, dict(base.ranks), diffs)  # must construct fine
            accepted += 1
        else:
            with pytest.raises(ComplexError) as exc:
                FreeDComplex(1, dict(base.ranks), diffs)
            assert "degree" in str(exc.value)  # names the offending degree
            rejected += 1
    assert rejected > 0 and accepted > 0


def test_weq_agrees_with_truncation_oracle_on_elementary_complexes():
    # exact weq decisions match the bounded k-linear oracle on small maps
    from dgdm.randgen import random_weq
    from dgdm.obasis import obasis_of_free, OBasisChainMap, is_bounded_weq

    rng = random.Random(23)
    checked = 0
    for _ in range(8):
        f = random_weq(rng, nvars=1, max_top=1)
        assert is_weak_equivalence(f)
        src_t = obasis_of_free(f.source)
        tgt_t = obasis_of_free(f.target)
        entries = {}
        for n in f.maps:
            mat = f.component(n)
            for s in range(f.source.rank(n)):
                es = []
                for t, e in enumerate(mat.rows[s].coords):
                    if not e.is_zero():
                        es.append((("F", n, t), 0, e))
                if es:
                    entries[("F", n, s)] = es
        ob_f = OBasisChainMap(src_t, tgt_t, entries)
        assert is_bounded_weq(ob_f, 5).ok
        checked += 1
    assert checked == 8
    # and a non-weq fails both ways
    g = zero_map(EMPTY, sphere(0))
    assert not is_weak_equivalence(g)
    ob_g = OBasisChainMap(obasis_of_free(EMPTY), obasis_of_free(sphere(0)), {})
    assert is_bounded_weq(ob_g, 5).verdict == "fail"


def test_homology_empty_iff_acyclic_consistency():
    from dgdm.randgen import random_complex

    rng = random.Random(31)
    for _ in range(15):
        c = random_complex(rng)
        all_zero = all(homology(c, n).is_zero() for n in range(0, c.top + 1))
        assert all_zero == is_acyclic(c)


def test_weq_oracle_agreement_on_arbitrary_maps():
    # exact verdicts match the bounded oracle on arbitrary small chain maps,
    # including nullhomotopic maps f = du + ud (weqs only between acyclics)
    from dgdm.randgen import random_complex, random_weyl
    from dgdm.obasis import obasis_of_free, OBasisChainMap, is_bounded_weq
    from dgdm.complexes import mat_mul, mat_add, zero_matrix

    rng = random.Random(37)
    agree = 0
    for _ in range(12):
        x = random_complex(rng, max_top=2, max_cells=2, twists=1)
        y = random_complex(rng, max_top=2, max_cells=2, twists=1)
        u = {}
        for n in range(0, max(x.top, y.top) + 1):
            if x.rank(n) and y.rank(n + 1):
                u[n] = as_matrix([
                    [random_weyl(rng, 1, 1, 1) for _ in range(y.rank(n + 1))]
                    for _ in range(x.rank(n))
                ], 1)
        maps = {}
        for n in range(0, max(x.top, y.top) + 1):
            if x.rank(n) == 0 or y.rank(n) == 0:
                continue
            total = zero_matrix(x.rank(n), y.rank(n), 1)
            if n in u and y.rank(n + 1):
                total = mat_add(total, mat_mul(u[n], y.diff(n + 1)))
            if (n - 1) in u and x.rank(n - 1):
                total = mat_add(total, mat_mul(x.diff(n), u[n - 1]))
            maps[n] = total
        f = ChainMap(x, y, maps)
        exact = is_weak_equivalence(f)
        entries = {}
        for n in f.maps:
            mat = f.component(n)
            for s in range(x.rank(n)):
                es = [(("F", n, t), 0, e) for t, e in enumerate(mat.rows[s].coords) if not e.is_zero()]
                if es:
                    entries[("F", n, s)] = es
        ob_f = OBasisChainMap(obasis_of_free(x), obasis_of_free(y), entries)
        bounded = is_bounded_weq(ob_f, 5)
        assert exact == bounded.ok, (exact, bounded.verdict)
        agree += 1
    assert agree == 12


TOP = 10 ** 12  # a degree no loop over range(top) gets through


def test_high_degree_complex_and_chain_map_build_quickly():
    start = time.perf_counter()
    c = FreeDComplex(1, {TOP - 1: 1, TOP: 1, TOP + 1: 1}, {TOP: [[D1]]})
    assert c.top == TOP + 1
    assert FreeDComplex(1, {1000000: 1}, {}).top == 1000000
    f = ChainMap(c, c, {TOP - 1: [[D1]], TOP: [[D1]], TOP + 1: [[X1]]})
    assert set(f.maps) == {TOP - 1, TOP, TOP + 1}
    assert set(identity_map(c).maps) == {TOP - 1, TOP, TOP + 1}
    # the cone, the direct sum and the exact weq test walk only occupied degrees
    assert is_weak_equivalence(identity_map(c)) and not is_weak_equivalence(zero_map(c, c))
    assert direct_sum(c, sphere(0)).ranks == {0: 1, TOP - 1: 1, TOP: 1, TOP + 1: 1}
    assert time.perf_counter() - start < 1.0


def test_high_degree_dsquare_and_squares_still_rejected():
    with pytest.raises(ComplexError, match=f"between degrees {TOP + 1} and {TOP - 1}"):
        FreeDComplex(1, {TOP - 1: 1, TOP: 1, TOP + 1: 1}, {TOP: [[ONE]], TOP + 1: [[ONE]]})
    c = FreeDComplex(1, {TOP - 1: 1, TOP: 1}, {TOP: [[D1]]})
    with pytest.raises(ComplexError, match=f"at degree {TOP}"):
        ChainMap(c, c, {TOP - 1: [[X1]], TOP: [[X1]]})  # x d != d x
    # one path of the square passes through a zero-rank module, so the other must vanish
    top_only = FreeDComplex(1, {TOP: 1}, {})
    bottom_only = FreeDComplex(1, {TOP - 1: 1}, {})
    with pytest.raises(ComplexError, match=f"at degree {TOP}"):
        ChainMap(top_only, c, {TOP: [[ONE]]})
    with pytest.raises(ComplexError, match=f"at degree {TOP}"):
        ChainMap(c, bottom_only, {TOP - 1: [[ONE]]})
    ChainMap(c, top_only, {TOP: [[ONE]]})
    ChainMap(bottom_only, c, {TOP - 1: [[ONE]]})
    # a square through a zero-rank module whose other path cancels to zero
    wide = FreeDComplex(1, {TOP - 1: 1, TOP: 2}, {TOP: [[D1], [D1]]})
    ChainMap(top_only, wide, {TOP: [[ONE, -ONE]]})


def _homology_via_groebner(c, n):
    """The presentation computed with Groebner bases throughout, as before
    the unit-vector shortcut."""
    from dgdm.complexes import HomologyPresentation, image_generators, kernel_generators
    from dgdm.groebner import buchberger, express_in_inputs, member, syzygies

    r = c.rank(n)
    if r == 0:
        return HomologyPresentation(n, c.nvars, 0)
    kernel = kernel_generators(c, n)
    image = [g for g in image_generators(c, n) if not g.is_zero()]
    if not kernel:
        return HomologyPresentation(n, c.nvars, r)
    gb_img = buchberger(image, rank=r, nvars=c.nvars)
    if all(member(k, gb_img) for k in kernel):
        return HomologyPresentation(n, c.nvars, r)
    gb_ker = buchberger(kernel)
    relations = [FreeModuleElement(express_in_inputs(g, gb_ker)) for g in image]
    ker_matrix = [list(k.coords) for k in kernel]
    relations += syzygies(ker_matrix, c.nvars, source_rank=len(kernel), target_rank=r).generators
    return HomologyPresentation(n, c.nvars, r, kernel, relations)


def test_unit_kernel_shortcut_matches_groebner_presentations():
    from dgdm.cli import presentation_body
    from dgdm.complexes import _whole_kernel
    from dgdm.randgen import random_complex

    shortcut = 0  # cases that reach the shortcut: d_n = 0 and H_n != 0
    for seed in range(50):
        c = random_complex(random.Random(seed), max_top=2, max_cells=3)
        for n in c.degrees():
            h = homology(c, n)
            want = _homology_via_groebner(c, n)
            assert json.dumps(presentation_body(h)) == json.dumps(presentation_body(want)), (seed, n)
            shortcut += _whole_kernel(c, n) and not h.is_zero()
    assert shortcut >= 40, shortcut


def test_compose_through_the_zero_complex():
    # mat_mul of a 1 x 0 and a 0 x 1 matrix cannot know its column count
    e = FreeDComplex(1, {}, {})
    got = compose(zero_map(sphere(0), e), zero_map(e, sphere(0)))
    assert got == zero_map(sphere(0), sphere(0))


# A dense reference for the sparse matrix kernel: nested lists of
# WeylElements, zeros included, multiplied and assembled entry by entry.

def _dense(m):
    return [list(row.coords) for row in m.rows]


def _ref_mat_mul(a, b, cols, nvars):
    zero = WeylElement.zero(nvars)
    return [[sum((row[j] * b[j][k] for j in range(len(b))), zero) for k in range(cols)] for row in a]


def _ref_block_matrix(blocks, rows, cols, nvars):
    zero = WeylElement.zero(nvars)
    return [[e for block, c in zip(brow, cols) for e in (block[i] if block is not None else [zero] * c)]
            for brow, r in zip(blocks, rows) for i in range(r)]


def _random_dense(rng, rows, cols, nvars):
    zero = WeylElement.zero(nvars)
    return [[random_weyl(rng, nvars, 2, 1) if rng.random() < 0.6 else zero for _ in range(cols)]
            for _ in range(rows)]


def _stores_no_zero(m):
    return all(not e.is_zero() for row in m.rows for e in row.entries.values())


def test_sparse_matrices_match_the_dense_reference():
    from dgdm.complexes import block_matrix, mat_apply, mat_mul

    rng = random.Random(2026)
    shapes = set()
    for case in range(80):
        nvars = rng.choice([1, 2])
        r, k, c = (rng.randint(0, 3) for _ in range(3))
        shapes.add((r == 0, k == 0, c == 0))
        a, b = _random_dense(rng, r, k, nvars), _random_dense(rng, k, c, nvars)
        ma, mb = as_matrix(a, nvars, r, k), as_matrix(b, nvars, k, c)
        prod = mat_mul(ma, mb)
        assert prod.cols == c and _dense(prod) == _ref_mat_mul(a, b, c, nvars), case
        for row, sparse_row in zip(a, ma.rows):
            assert [list(mat_apply(sparse_row, mb).coords)] == _ref_mat_mul([row], b, c, nvars), case
        rows = (rng.randint(0, 2), rng.randint(0, 2))
        cols = (rng.randint(0, 2), rng.randint(0, 2))
        blocks = [[None if case % 5 == 0 or rng.random() < 0.3 else _random_dense(rng, ri, cj, nvars)
                   for cj in cols] for ri in rows]
        got = block_matrix([[None if bl is None else as_matrix(bl, nvars, ri, cj) for bl, cj in zip(brow, cols)]
                            for brow, ri in zip(blocks, rows)], rows, cols, nvars)
        assert got.cols == sum(cols) and _dense(got) == _ref_block_matrix(blocks, rows, cols, nvars), case
        assert _stores_no_zero(ma) and _stores_no_zero(prod) and _stores_no_zero(got)
    # 0 x c, r x 0 and 0 x 0 operands, and products through a zero middle rank
    assert {(True, False, False), (False, True, False), (False, False, True), (True, True, True)} <= shapes


def _count_zero_elements(monkeypatch):
    """A one-item list counting the zero WeylElements built from now on,
    by the public constructor and by the internal one."""
    from dgdm import weyl

    zeros = [0]
    init, element = WeylElement.__init__, weyl._element

    def counting_init(self, nvars, terms=None):
        init(self, nvars, terms)
        zeros[0] += not self.terms

    def counting_element(nvars, terms):
        zeros[0] += not terms
        return element(nvars, terms)

    monkeypatch.setattr(WeylElement, "__init__", counting_init)
    monkeypatch.setattr(weyl, "_element", counting_element)
    return zeros


def test_limit_colimit_check_builds_few_zero_weyl_elements(monkeypatch):
    # dense matrices built 18,089 zero WeylElements in this check, sparse
    # rows 401: the zeros left are sums that cancel (chain laws, d*d)
    from dgdm.verify import run_check

    zeros = _count_zero_elements(monkeypatch)
    assert run_check("limit_colimit_weq", None, 42).verdict == "pass"
    assert zeros[0] <= 401, zeros


def test_zero_differential_kernel_is_quick():
    # dense unit vectors took 0.7 s here
    from dgdm.complexes import kernel_generators

    start = time.perf_counter()
    assert len(kernel_generators(FreeDComplex(1, {0: 3000}, {}), 0)) == 3000
    assert time.perf_counter() - start < 0.25


def test_kunneth_mapcone_check_builds_few_zero_weyl_elements(monkeypatch):
    # dense untwisted rows built 476 zero WeylElements in this check, sparse ones 80
    from dgdm.verify import run_check

    zeros = _count_zero_elements(monkeypatch)
    assert run_check("kunneth_mapcone", None, 42).verdict == "pass"
    assert zeros[0] <= 80, zeros


# The Groebner path of `is_acyclic` alone, and a dense copy of its unit-pivot
# cancellation, kept as the references the sparse cancellation must match.

def _groebner_is_acyclic(c):
    """Every kernel generator is a member of the span of the image rows."""
    from dgdm.complexes import kernel_generators
    from dgdm.groebner import buchberger, member

    for n in c.degrees():
        gb = buchberger([g for g in c.diff(n + 1).rows if not g.is_zero()], rank=c.rank(n), nvars=c.nvars)
        if not all(member(k, gb) for k in kernel_generators(c, n)):
            return False
    return True


def _cancel_once(c, mutant=None):
    """c after cancelling its first unit pivot (lowest degree, then row, then
    column), written densely; None when no entry is a nonzero scalar.

    A mutant gets one thing wrong: "keep" keeps e_i (a zero row of d_n and
    column i of d_{n+1}), "sign" adds the multiple of row i instead of
    subtracting it, and "side" multiplies c^-1*d_n[i][l] by d_n[k][j] from
    the wrong side.
    """
    d = {n: _dense(m) for n, m in c.differentials.items()}
    pivot = next(((n, i, j) for n in sorted(d) for i, row in enumerate(d[n])
                  for j, e in enumerate(row) if e and e.is_scalar()), None)
    if pivot is None:
        return None
    n, i, j = pivot
    inv = 1 / d[n][i][j].scalar_value()

    def cleared(k, l):
        left, right = d[n][k][j], d[n][i][l].scale(inv)
        prod = right * left if mutant == "side" else left * right
        return d[n][k][l] + prod if mutant == "sign" else d[n][k][l] - prod

    ranks = dict(c.ranks)
    ranks[n - 1] -= 1
    d[n] = [[cleared(k, l) for l in range(c.rank(n - 1)) if l != j] for k in range(c.rank(n)) if k != i]
    if mutant == "keep":
        d[n].insert(i, [WeylElement.zero(c.nvars)] * (c.rank(n - 1) - 1))
    else:
        ranks[n] -= 1
        if n + 1 in d:
            d[n + 1] = [[e for l, e in enumerate(row) if l != i] for row in d[n + 1]]
    if n - 1 in d:
        d[n - 1] = [row for k, row in enumerate(d[n - 1]) if k != j]
    return FreeDComplex(c.nvars, ranks, d)


def _dense_cancellation(c, mutant=None):
    while (r := _cancel_once(c, mutant)) is not None:
        c = r
    return c


# 2 x 2 over D_1 without a scalar entry, yet invertible: E*F*E with
# E = [[1, x1], [0, 1]] and F = [[1, 0], [d1, 1]], so only Groebner decides it
UNIT_FREE_DISK = FreeDComplex(1, {0: 2, 1: 2}, {1: [[ONE + X1 * D1, X1.scale(3) + X1 * X1 * D1],
                                                    [D1, ONE.scale(2) + X1 * D1]]})


def _invertible_disk(rng, nvars, r):
    """D^r -> D^r in degrees 1 and 0 through a product of elementary matrices
    I + p*e_ab, each applied from a random side: acyclic, with entries that
    do not commute, so a wrong cancellation tends to leave homology behind."""
    m = [[WeylElement.scalar(nvars, int(a == b)) for b in range(r)] for a in range(r)]
    for _ in range(rng.randint(2, 4)):
        a, b = rng.sample(range(r), 2)
        p = random_weyl(rng, nvars, 1, 1)
        if rng.random() < 0.5:
            m[a] = [e + p * f for e, f in zip(m[a], m[b])]
        else:
            for row in m:
                row[b] = row[b] + row[a] * p
    return FreeDComplex(nvars, {0: r, 1: r}, {1: m})


def _oracle_cases():
    from dgdm.randgen import random_complex, random_weq

    for seed in range(300):
        yield mapping_cone(random_weq(random.Random(seed), nvars=1 + seed % 4 // 3))
    rng = random.Random(22)
    for _ in range(300):
        yield random_complex(rng, rng.choice([1, 2]), 3, 4, 4)
    for _ in range(100):
        yield _invertible_disk(rng, rng.choice([1, 2]), rng.choice([2, 3]))
    yield UNIT_FREE_DISK


def test_unit_pivot_cancellation_matches_the_groebner_path():
    from dgdm.complexes import _cancel_unit_pivots

    fallback = two_var_fallback = 0
    for case, c in enumerate(_oracle_cases()):
        reduced = _cancel_unit_pivots(c)
        assert reduced == _dense_cancellation(c), case
        assert is_acyclic(c) == _groebner_is_acyclic(c), case
        fallback += bool(reduced.ranks)
        two_var_fallback += bool(reduced.ranks) and c.nvars == 2
    assert fallback >= 300 and two_var_fallback >= 100, (fallback, two_var_fallback)
    assert _cancel_unit_pivots(UNIT_FREE_DISK) == UNIT_FREE_DISK and is_acyclic(UNIT_FREE_DISK)


@pytest.mark.parametrize("mutant", ["keep", "sign", "side"])
def test_the_oracle_rejects_a_wrong_cancellation(mutant):
    caught = set()
    for c in _oracle_cases():
        try:
            wrong = _groebner_is_acyclic(_dense_cancellation(c, mutant)) != _groebner_is_acyclic(c)
        except ComplexError:  # the mutant's d*d != 0
            wrong = True
        if wrong:
            caught.add(c.nvars)
        if caught == {1, 2}:
            break
    assert caught == {1, 2}


def test_suite_runs_few_groebner_loops(suite_counts):
    # the cones of the weak-equivalence checks cancel down to the zero
    # complex: 1,367 Groebner loops per suite before, 13 after
    assert suite_counts["groebner loops"] <= 100, suite_counts
