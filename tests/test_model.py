"""Model-structure recognizers and constructions."""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dgdm.complexes import (
    ChainMap,
    ComplexError,
    FreeDComplex,
    compose,
    direct_sum,
    disk,
    identity_map,
    identity_matrix,
    is_weak_equivalence,
    mat_apply,
    sphere,
    summand_projection,
)
from dgdm.groebner import FreeModuleElement, express_in_inputs, lift_basis, submodule_equal, syzygies
from dgdm.model import (
    AttachResult,
    CofibrationCertificate,
    GeneratingMap,
    attach_cells,
    certify_cofibration,
    iota,
    is_fibration,
    pushout,
    pushout_factor,
    pushout_product,
    zeta,
)
from dgdm.obasis import is_bounded_weq, truncated_acyclicity
from dgdm.randgen import random_complex, random_cycle, random_weq, random_weyl
from dgdm.weyl import WeylElement

ONE = WeylElement.one(1)
D1 = WeylElement.d(1, 1)
X1 = WeylElement.x(1, 1)
EMPTY = FreeDComplex(1, {}, {})


def test_generating_map_validation():
    with pytest.raises(ValueError):
        GeneratingMap("zeta", 0)
    with pytest.raises(ValueError):
        GeneratingMap("iota", -1)
    with pytest.raises(ValueError):
        GeneratingMap("foo", 1)


def test_fibration_examples():
    # every object is fibrant
    for c in [sphere(0), disk(2)]:
        assert is_fibration(ChainMap(c, EMPTY, {}))
    # projections are fibrations
    c1, c2 = disk(2), sphere(1)
    assert is_fibration(summand_projection(c1, c2, 1))
    # 0 -> S^1 is not: degree-1 surjectivity fails
    assert not is_fibration(ChainMap(EMPTY, sphere(1), {}))


def test_certify_generating_maps():
    for n in range(0, 4):
        cert = certify_cofibration(iota(n).chain_map())
        assert cert.verdict == "certified"
        # cokernel is free of rank 1 concentrated in degree n
        assert {k: len(v) for k, v in cert.complement.items()} == {n: 1}
    for n in range(1, 4):
        cert = certify_cofibration(zeta(n).chain_map())
        assert cert.verdict == "certified"
        assert {k: len(v) for k, v in cert.complement.items()} == {n: 1, n - 1: 1}


def test_multiplication_by_d_not_certified():
    c = sphere(0)
    f = ChainMap(c, c, {0: [[D1]]})
    assert certify_cofibration(f).verdict == "not-certified"


def test_zero_selfmap_refuted():
    c = sphere(0)
    f = ChainMap(c, c, {0: [[WeylElement.zero(1)]]})
    cert = certify_cofibration(f)
    assert cert.verdict == "refuted"
    assert cert.kernel_witness is not None


def test_certificate_on_nontrivial_split():
    # D -> D^2, e |-> (e, d*e): splits with complement
    c1 = sphere(0)
    c2 = FreeDComplex(1, {0: 2}, {})
    f = ChainMap(c1, c2, {0: [[ONE, D1]]})
    cert = certify_cofibration(f)
    assert cert.verdict == "certified"
    comp = cert.complement[0]
    assert len(comp) == 1
    # image + complement spans everything
    rows = [FreeModuleElement([ONE, D1])] + comp
    units = [FreeModuleElement.unit(2, 1, i) for i in range(2)]
    assert submodule_equal(rows, units, 2, 1)


def test_pushout_along_identity():
    c = disk(2)
    po = pushout(identity_map(c), identity_map(c))
    assert po.complex == c
    assert po.from_attached == identity_map(c)


def test_pushout_of_zeta_tensor_shape():
    # pushout of zeta_1-like attachment along 0 -> N gives D^1 (+) N
    n_cx = sphere(1)
    f = ChainMap(EMPTY, n_cx, {})
    g = zeta(1).chain_map()
    po = pushout(f, g)
    assert po.complex.ranks == direct_sum(disk(1), n_cx).ranks
    assert is_weak_equivalence(po.from_target)  # i_2: N -> D^1 (+) N is a weq


def test_pushout_universal_property():
    rng = random.Random(0)
    # square: f: S^0 -> S^0 (x2 scaling is not a chain map issue in deg 0)
    x_cx = sphere(0)
    y_cx = sphere(0)
    f = ChainMap(x_cx, y_cx, {0: [[X1]]})
    g = iota(1).chain_map()  # S^0 -> D^1
    po = pushout(f, g)
    z = po.complex
    # cocone: q: Y -> E, p: W -> E with q f = p g
    e_cx = z
    q, p = po.from_target, po.from_attached
    u = pushout_factor(po, q, p)
    assert compose(po.from_target, u) == q
    assert compose(po.from_attached, u) == p
    # the factoring through the canonical cocone is the identity
    assert u == identity_map(z)


def test_attach_cells_examples():
    res = attach_cells(sphere(0), [(1, FreeModuleElement([ONE]))])
    assert res.complex.ranks == {0: 1, 1: 1}
    assert res.complex.diff(1) == identity_matrix(1, 1)
    assert certify_cofibration(res.inclusion).verdict == "certified"

    res = attach_cells(sphere(0), [])
    assert res.complex == sphere(0)
    assert res.inclusion == identity_map(sphere(0))


def test_attach_cells_rejects_non_cycle():
    c = disk(1)
    # degree-0 element d*e is not a cycle in degree 0?  cycles in degree 0
    # are everything; attach at degree 2 instead where d(top) != 0
    with pytest.raises(ComplexError, match="not a cycle"):
        attach_cells(c, [(2, FreeModuleElement([ONE]))])
    # the other refusals: no degree below 0, and z must fill degree n-1
    with pytest.raises(ValueError):
        attach_cells(c, [(-1, None)])
    with pytest.raises(ComplexError):
        attach_cells(c, [(1, FreeModuleElement([ONE, ONE]))])
    # over the zero degree 2 the cycle is the element of D^0: the cell splits off as S^3
    res = attach_cells(c, [(3, None)])
    assert res.complex == direct_sum(c, sphere(3))
    assert certify_cofibration(res.inclusion).verdict == "certified"
    assert (res.complex, res.inclusion) == _attach_by_pushouts(c, [(3, None)])
    assert attach_cells(c, [(3, FreeModuleElement([], 1))]).complex == res.complex


def test_model_loops_visit_occupied_degrees_only():
    # three occupied degrees near 10^6: looping over every degree below them
    # took 45 s in certify_cofibration and 0.15-1.5 s in each other loop
    top = 10 ** 6
    start = time.perf_counter()
    base = FreeDComplex(1, {top: 1}, {})
    res = attach_cells(base, [(top + 1, None), (top + 2, FreeModuleElement([ONE]))])
    i, c = res.inclusion, res.complex
    cert = certify_cofibration(i)
    assert cert.verdict == "certified" and set(cert.complement) == {top + 1, top + 2}
    assert pushout(identity_map(base), i).complex == c
    assert is_fibration(identity_map(c)) and not is_fibration(i)
    assert time.perf_counter() - start < 0.25


def _attach_by_pushouts(base, attachments):
    """The reference: one pushout along iota_n per cell, inclusions composed."""
    current, incl = base, identity_map(base)
    for n, z in attachments:
        g = iota(n).chain_map(base.nvars)
        if n == 0:
            f = ChainMap(g.source, current, {})
        else:
            if z is None:
                z = FreeModuleElement.zero(current.rank(n - 1), base.nvars)
            f = ChainMap(g.source, current, {n - 1: (tuple(z.coords),)})
        po = pushout(f, g)
        current, incl = po.complex, compose(incl, po.from_target)
    return current, incl


def test_attach_cells_matches_pushouts_along_iota():
    # 400 seeded attachment lists of 0-3 cells in degrees 0..3, a fifth of
    # them along z = None (the zero cycle)
    rng = random.Random(7)
    for case in range(400):
        base = random_complex(rng)
        current, attachments = base, []
        for _ in range(rng.randint(0, 3)):
            n = rng.choice([n for n in range(4) if n == 0 or current.rank(n - 1)])
            z = None if n == 0 or rng.random() < 0.2 else random_cycle(rng, current, n - 1)
            attachments.append((n, z))
            current, _ = _attach_by_pushouts(current, [(n, z)])
        res = attach_cells(base, attachments)
        want_complex, want_inclusion = _attach_by_pushouts(base, attachments)
        assert res.complex == want_complex, case
        assert res.inclusion == want_inclusion, case


def test_attach_cells_builds_no_pushout_square(monkeypatch):
    from dgdm import model

    def refuse(*args, **kwargs):
        raise AssertionError("attach_cells built a pushout square")

    monkeypatch.setattr(model, "pushout", refuse)
    monkeypatch.setattr(model, "certify_cofibration", refuse)
    res = attach_cells(disk(1), [(0, None), (2, None), (1, FreeModuleElement([X1, ONE]))])
    assert res.complex.ranks == {0: 2, 1: 2, 2: 1}


def test_attach_order_stability():
    # two cells attached along cycles in the base commute
    base = FreeDComplex(1, {0: 2}, {})
    z1 = FreeModuleElement([D1, WeylElement.zero(1)])
    z2 = FreeModuleElement([WeylElement.zero(1), X1])
    r12 = attach_cells(base, [(1, z1), (1, z2)])
    r21 = attach_cells(base, [(1, z2), (1, z1)])
    from dgdm.complexes import homology

    for n in (0, 1):
        h12, h21 = homology(r12.complex, n), homology(r21.complex, n)
        assert h12.is_zero() == h21.is_zero()
        if not h12.is_zero():
            # identical ambient: mutual membership of kernel generators
            assert submodule_equal(h12.generators, h21.generators, h12.ambient_rank, 1)
            rel12 = [r for r in h12.relations]
            rel21 = [r for r in h21.relations]
            assert submodule_equal(rel12, rel21, len(h12.generators), 1)


def test_pushout_of_weq_along_cell_is_weq():
    # properness probe: f weq, g a single-cell attachment
    x_cx = sphere(0)
    y_cx = direct_sum(sphere(0), disk(1))
    f = ChainMap(x_cx, y_cx, {0: ((ONE, WeylElement.zero(1)),)})
    assert is_weak_equivalence(f)
    res = attach_cells(x_cx, [(1, FreeModuleElement([D1]))])
    po = pushout(f, res.inclusion)
    assert is_weak_equivalence(po.from_attached)


def test_pushout_runs_no_groebner_loop(monkeypatch):
    # two cells on S^0 (+) S^0: certifying the inclusion and splitting its
    # cell boundaries and units are unit-pivot reductions, no Groebner loop
    from dgdm import groebner

    zero = WeylElement.zero(1)
    x = direct_sum(sphere(0), sphere(0))
    res = attach_cells(x, [(1, FreeModuleElement([D1, zero])), (1, FreeModuleElement([X1, ONE]))])
    f = ChainMap(x, direct_sum(x, disk(1)), {0: ((ONE, zero, zero), (zero, ONE, zero))})
    loops = []
    rows = groebner._groebner_rows

    def counted_rows(vecs, guard, cut=None):
        loops.append(len(vecs))
        return rows(vecs, guard, cut)

    monkeypatch.setattr(groebner, "_groebner_rows", counted_rows)
    po = pushout(f, res.inclusion)
    assert po.complex.ranks == {0: 3, 1: 3}
    assert loops == []


def test_pushout_with_another_maps_certificate_is_stale():
    # iota_1 needs a degree-1 cell; the certificate of id_{D^1} has none
    g = iota(1).chain_map()
    stale = certify_cofibration(identity_map(disk(1)))
    assert stale.verdict == "certified" and stale.complement == {}
    with pytest.raises(ComplexError, match="certificate is stale"):
        pushout(g, g, stale)


# The certificate and the split as computed before the unit-pivot
# reduction: a scalar-pivot reduction with column operations and a tracked
# target basis, syzygies-first injectivity, and a Groebner lift basis per
# degree.  Kept as the reference the model's one reduction must match.

def _ref_scalar_entry(e):
    return e.scalar_value() if e.is_scalar() and not e.is_zero() else None


def _ref_free_complement(mat, rows, cols, nvars):
    work = [[e for e in row] for row in mat]
    basis = [list(row) for row in identity_matrix(cols, nvars)]
    piv_rows, piv_cols = {}, set()
    while True:
        found = None
        for u in range(rows):
            if u in piv_rows:
                continue
            for v in range(cols):
                if v in piv_cols:
                    continue
                sc = _ref_scalar_entry(work[u][v])
                if sc is not None:
                    found = (u, v, sc)
                    break
            if found:
                break
        if not found:
            break
        u, v, sc = found
        for w in range(cols):
            if w == v or work[u][w].is_zero():
                continue
            c = work[u][w].scale(Fraction(1) / sc)
            for t in range(rows):
                if not work[t][v].is_zero():
                    work[t][w] = work[t][w] - work[t][v] * c
            for t in range(cols):
                if not basis[w][t].is_zero():
                    basis[v][t] = basis[v][t] + c * basis[w][t]
        for t in range(rows):
            if t == u or work[t][v].is_zero():
                continue
            q = work[t][v].scale(Fraction(1) / sc)
            for w in range(cols):
                if not work[u][w].is_zero():
                    work[t][w] = work[t][w] - q * work[u][w]
        piv_rows[u] = v
        piv_cols.add(v)
    if len(piv_rows) < rows:
        return None
    return [FreeModuleElement(basis[w]) for w in range(cols) if w not in piv_cols]


def _ref_certify(f):
    top = max(f.source.top, f.target.top)
    for n in range(0, top + 1):
        r = f.source.rank(n)
        if r == 0:
            continue
        ker = syzygies(f.component(n), f.nvars, source_rank=r, target_rank=f.target.rank(n))
        if ker.generators:
            return CofibrationCertificate("refuted", kernel_witness=(n, ker.generators[0]))
    complement = {}
    for n in range(0, top + 1):
        comp = _ref_free_complement(f.component(n), f.source.rank(n), f.target.rank(n), f.nvars)
        if comp is None:
            return CofibrationCertificate("not-certified")
        if comp:
            complement[n] = comp
    return CofibrationCertificate("certified", complement=complement)


def _ref_decomposer(g, cells, nvars):
    lifts = {}

    def decompose(w, n):
        lift = lifts.get(n)
        if lift is None:
            rows = g.component(n) if g.source.rank(n) and g.target.rank(n) else []
            gens = [FreeModuleElement(list(r)) for r in rows] + cells.get(n, [])
            lift = lifts[n] = lift_basis(gens, rank=w.rank, nvars=nvars)
        u = express_in_inputs(w, lift)
        if u is None:
            raise ComplexError("element escapes im(g) + complement; certificate is stale")
        k = len(u) - len(cells.get(n, []))
        return u[:k], u[k:]

    return decompose


def _free_in_degree_0(rank, nvars):
    return FreeDComplex(nvars, {0: rank} if rank else {}, {})


def _random_entry(rng, nvars):
    kind = rng.random()
    if kind < 0.35:
        return WeylElement.one(nvars).scale(rng.randint(-2, 2))
    if kind < 0.5:
        return WeylElement.x(rng.randint(1, nvars), nvars)
    if kind < 0.6:
        return WeylElement.d(rng.randint(1, nvars), nvars)
    return random_weyl(rng, nvars, 2, 1)


def _random_degree_0_map(rng, r, s, nvars=1, zero=False):
    src, tgt = _free_in_degree_0(r, nvars), _free_in_degree_0(s, nvars)
    if not (r and s):
        return ChainMap(src, tgt, {})
    entry = (lambda: WeylElement.zero(nvars)) if zero else (lambda: _random_entry(rng, nvars))
    return ChainMap(src, tgt, {0: tuple(tuple(entry() for _ in range(s)) for _ in range(r))})


def _random_attachment(rng, x):
    """The inclusion of x into x with one or two cells attached."""
    incl = identity_map(x)
    for _ in range(rng.randint(1, 2)):
        y = incl.target
        candidates = [n for n in range(1, 3) if y.rank(n - 1) > 0]
        n = rng.choice(candidates) if candidates else 0
        z = random_cycle(rng, y, n - 1) if n else None
        incl = compose(incl, attach_cells(y, [(n, z)]).inclusion)
    return incl


def _seeded_maps(seed, count):
    """Weak equivalences, attachment inclusions, degree-0 matrices (zero
    and rank-0 ends included) and composites of them."""
    rng = random.Random(seed)
    maps = [_random_degree_0_map(rng, 0, s) for s in range(3)]
    maps += [_random_degree_0_map(rng, r, 0) for r in range(1, 3)]
    maps += [_random_degree_0_map(rng, r, s, zero=True) for r in range(1, 3) for s in range(1, 3)]
    while len(maps) < count:
        kind = rng.randrange(5)
        if kind == 0:
            maps.append(random_weq(rng, max_top=1))
        elif kind == 1:
            maps.append(_random_attachment(rng, random_complex(rng, max_top=1, max_cells=2, twists=1)))
        elif kind == 2:
            maps.append(_random_degree_0_map(rng, rng.randint(0, 3), rng.randint(0, 3), rng.choice([1, 1, 2])))
        elif kind == 3:
            f = _random_degree_0_map(rng, rng.randint(1, 2), rng.randint(1, 3))
            maps.append(compose(f, _random_degree_0_map(rng, f.target.rank(0), rng.randint(1, 3))))
        else:
            f = random_weq(rng, max_top=1)
            maps.append(compose(f, _random_attachment(rng, f.target)))
    return maps


def test_certificates_match_the_reference_on_seeded_maps():
    verdicts = Counter()
    for f in _seeded_maps(2024, 1000):
        cert = certify_cofibration(f)
        assert cert == _ref_certify(f)
        verdicts[cert.verdict] += 1
    assert set(verdicts) == {"certified", "not-certified", "refuted"}


def test_splits_multiply_back_and_match_the_lift_basis():
    rng = random.Random(7)
    checked = 0
    for f in _seeded_maps(99, 300):
        cert = certify_cofibration(f)
        if cert.verdict != "certified":
            continue
        cells = cert.complement
        ours, ref = cert.splits, _ref_decomposer(f, cells, f.nvars)
        for n in f.target.degrees():
            s = f.target.rank(n)
            w = FreeModuleElement([random_weyl(rng, f.nvars, 2, 2) for _ in range(s)])
            a, q = ours[n](w)
            back = mat_apply(a, f.component(n))
            for qk, cell in zip(q.coords, cells.get(n, [])):
                back = back + cell.left_mul(qk)
            assert back == w
            assert (list(a.coords), list(q.coords)) == ref(w, n)
            checked += 1
    assert checked >= 300


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2), (0, 1), (1, 0), (0, 0)])
def test_pushout_product_iota_iota(m, n):
    r = pushout_product(iota(m), iota(n))
    # cokernel concentrated in degree m+n, a single D (x) D slot
    assert set(r.cokernel) == {m + n}
    assert len(r.cokernel[m + n]) == 1
    sid = r.cokernel[m + n][0]
    assert r.codomain.slots[sid].degree == m + n
    assert r.codomain.slots[sid].factors == 2


# ids "m-n" are zeta(m) box iota(n)
@pytest.mark.parametrize("a,b", [
    (zeta(1), iota(1)), (zeta(2), iota(1)), (zeta(1), iota(2)),
    (iota(1), zeta(1)), (iota(2), zeta(1)), (zeta(1), iota(0)), (iota(0), zeta(2)), (zeta(1), zeta(1)),
], ids=["1-1", "2-1", "1-2", "iota1-zeta1", "iota2-zeta1", "zeta1-iota0", "iota0-zeta2", "zeta1-zeta1"])
def test_pushout_product_zeta_iota_is_bounded_trivial(a, b):
    r = pushout_product(a, b)
    assert truncated_acyclicity(r.domain, 5).ok
    assert truncated_acyclicity(r.codomain, 5).ok
    assert is_bounded_weq(r.map, 5).ok


def test_pushout_product_map_injective_on_slices():
    # the corner map of iota_1 box iota_1 acts as the identity on its slots
    r = pushout_product(iota(1), iota(1))
    for sid in r.domain.slots:
        key = (sid, (0,), ((0,), (0,)))
        img = r.map.apply_key(key)
        assert list(img.values()) == [1]


def test_pushout_requires_certified_leg():
    c = sphere(0)
    f = identity_map(c)
    g = ChainMap(c, c, {0: ((D1,),)})  # multiplication by d: not certified
    with pytest.raises(ComplexError):
        pushout(f, g)


def test_pushout_universality_100_random_cocones():
    # q: Y -> E, p: W -> E with q f = p g, generated by twisting the
    # canonical cocone with random chain endomorphisms of Z
    from dgdm.randgen import random_weq, random_cycle, random_map_from_cone, random_complex
    from dgdm.complexes import mapping_cone, direct_sum

    rng = random.Random(91)
    done = 0
    while done < 100:
        f = random_weq(rng, nvars=1, max_top=1)
        x = f.source
        candidates = [n for n in range(1, 3) if x.rank(n - 1) > 0]
        if not candidates:
            continue
        n = rng.choice(candidates)
        z = random_cycle(rng, x, n - 1)
        res = attach_cells(x, [(n, z)])
        po = pushout(f, res.inclusion)
        zc = po.complex
        # shear automorphism of Z built from a cone summand map
        w_cx = random_complex(rng, max_top=1, max_cells=1, twists=0)
        cz = mapping_cone(identity_map(w_cx))
        psi = random_map_from_cone(rng, w_cx, cz, zc)
        big = direct_sum(zc, cz)
        rows = {}
        for deg in big.degrees():
            mat = []
            for i in range(zc.rank(deg)):
                row = [WeylElement.zero(1)] * big.rank(deg)
                row[i] = ONE
                mat.append(tuple(row))
            for i in range(cz.rank(deg)):
                row = [WeylElement.zero(1)] * big.rank(deg)
                if zc.rank(deg):
                    img = psi.apply(deg, FreeModuleElement.unit(cz.rank(deg), 1, i))
                    for col in range(zc.rank(deg)):
                        row[col] = img.coords[col]
                row[zc.rank(deg) + i] = ONE
                mat.append(tuple(row))
            rows[deg] = tuple(mat)
        shear = ChainMap(big, big, rows)
        from dgdm.complexes import summand_inclusion

        sigma = compose(summand_inclusion(zc, cz, 0), shear)
        q = compose(po.from_target, sigma)
        p = compose(po.from_attached, sigma)
        u = pushout_factor(po, q, p)
        assert compose(po.from_target, u) == q
        assert compose(po.from_attached, u) == p
        # uniqueness: rows are forced, so u must equal sigma
        assert u == sigma
        done += 1
