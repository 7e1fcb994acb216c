"""The degree-major slice walk against hand-built sliced complexes.

A sliced complex here is a dict of weighted keys per degree and a dict
of differentials; `_level_major` is a copy of the earlier walk, which ran
level n over every degree and then level n+1 from scratch, kept as the
oracle for verdicts and witnesses.  `_keyed_cone` is the mapping cone on
tagged keys that the checks once built, kept as the oracle for the cone
`slices.bounded_weq` numbers.  `_Wrapped` hands a check a sliced object
whose differential goes through a test's wrapper.
"""

import copy
import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from types import MappingProxyType

import pytest

from dgdm import amod, dga, obasis, slices
from dgdm.amod import (
    amodule_bounded_weq,
    base_change_bounded_weq,
    tensor_bounded_weq,
    transfinite_compose_finite,
)
from dgdm.complexes import disk, sphere
from dgdm.dga import Generator, Inclusion, algebra_bounded_weq, compose_morphisms, dga_pushout_gen
from dgdm.model import iota, pushout_product, zeta
from dgdm.obasis import is_bounded_weq, obasis_inclusion, obasis_of_free, tensor_free, truncated_acyclicity
from dgdm.randgen import (
    random_algebra,
    random_algebra_element,
    random_algebra_weq,
    random_amodule,
    random_amodule_weq,
    random_complex,
)
from dgdm.rational_linalg import Echelon, nullspace, vec_add
from dgdm.slices import TruncationResult, bounded_acyclicity, dsquare_witness, numbered


def _sliced(keys, diffs):
    """basis_of/diff_of for {degree: [(key, weight)]} and {key: {key: coeff}}."""

    def basis_of(p, w):
        return [(k, wt) for k, wt in keys.get(p, ()) if wt <= w]

    def diff_of(key):
        return {k: Fraction(c) for k, c in diffs.get(key, {}).items()}

    return basis_of, diff_of


def _walk(basis_of, diff_of, degrees, n):
    """The walk on a complex with keys of its own."""
    return bounded_acyclicity(*numbered(basis_of, diff_of), degrees, n)


def _keyed_cone(src_basis, src_diff, tgt_basis, tgt_diff, map_fn):
    """Basis and differential of the mapping cone of a sliced chain map.

    Cone keys are ("s", k) for source keys k (degree raised by one) and
    ("t", k) for target keys; d(c, c') = (-dc, f(c) + dc').
    """

    def basis(p, w):
        for k, wt in src_basis(p - 1, w):
            yield ("s", k), wt
        for k, wt in tgt_basis(p, w):
            yield ("t", k), wt

    def diff(key):
        tag, k = key
        if tag == "t":
            return {("t", k2): c for k2, c in tgt_diff(k).items() if c}
        out = {("s", k2): -c for k2, c in src_diff(k).items() if c}
        out.update((("t", k2), c) for k2, c in map_fn(k).items() if c)
        return out

    return basis, diff


class _Wrapped:
    """A sliced object with obj's keys and top degree, and `wrap(obj.diff_key)`
    as its differential."""

    def __init__(self, obj, wrap):
        self.basis_keys, self.top_degree, self.diff_key = obj.basis_keys, obj.top_degree, wrap(obj.diff_key)


def _counting(diff_of):
    counts = Counter()

    def counted(key):
        counts[key] += 1
        return diff_of(key)

    return counted, counts


def _order_digest(keys):
    """sha256 of the keys in the order given, one repr a line."""
    return hashlib.sha256("\n".join(map(repr, keys)).encode()).hexdigest()


def _level_major_witness(basis_of, diff_of, degrees, level):
    for p in degrees:
        low = [key for key, _ in basis_of(p, level - 2)]
        if not low:
            continue
        cycles = nullspace([(key, diff_of(key)) for key in low])
        if not cycles:
            continue
        ech = Echelon()
        for key, _ in basis_of(p + 1, level):
            img = diff_of(key)
            if img:
                ech.insert(img)
        for z in cycles:
            if ech.reduce(z):
                return {"degree": p, "cycle": z, "level": level}
    return None


def _level_major(basis_of, diff_of, degrees, n):
    degrees = tuple(degrees)
    for level in (n, n + 1):
        witness = _level_major_witness(basis_of, diff_of, degrees, level)
        if witness is not None:
            return TruncationResult("fail", (n, n + 1), witness, degrees)
    return TruncationResult("bounded-pass", (n, n + 1), None, degrees)


def test_level_n_failure_beats_earlier_level_n_plus_1_failure():
    # n = 2: the weight-1 cycle a in degree 1 has no preimage, which only
    # level 3 sees; the weight-0 cycle c in degree 3 fails level 2
    keys = {
        0: [("z0", 0)],
        1: [("a", 1), ("y1", 1)],
        3: [("c", 0)],
    }
    basis_of, diff_of = _sliced(keys, {"y1": {"z0": 1}})
    res = _walk(basis_of, diff_of, range(0, 4), 2)
    assert res.verdict == "fail"
    assert res.witness == {"degree": 3, "cycle": {"c": Fraction(1)}, "level": 2}
    assert res == _level_major(basis_of, diff_of, range(0, 4), 2)


@pytest.mark.parametrize("preimage_weight, verdict", [(6, "fail"), (5, "bounded-pass")])
def test_level_n_plus_1_failure_is_returned_when_level_n_holds(preimage_weight, verdict):
    # n = 4: z (degree 0, weight 3) bounds y, which level 5 reaches only
    # at weight <= 5; level 4 has no candidate in degree 0, and the exact
    # pair u <- v keeps level 4 busy in degree 1
    n = 4
    keys = {
        0: [("z", n - 1)],
        1: [("u", 0), ("y", preimage_weight)],
        2: [("v", 1)],
    }
    basis_of, diff_of = _sliced(keys, {"y": {"z": 1}, "v": {"u": 1}})
    res = _walk(basis_of, diff_of, range(0, 3), n)
    assert res.verdict == verdict
    if verdict == "fail":
        assert res.witness == {"degree": 0, "cycle": {"z": Fraction(1)}, "level": n + 1}
    assert res == _level_major(basis_of, diff_of, range(0, 3), n)


def _random_sliced(rng, n, spread=1):
    """Keys (p, i) in degrees 0..top+1 with random weights and d^2 = 0;
    differentials combine kernel vectors with coefficients up to `spread`."""
    top = rng.randint(1, 4)
    keys = {p: [((p, i), rng.randint(0, n + 2)) for i in range(rng.randint(0, 3))]
            for p in range(top + 2)}
    diffs = {}
    for p in range(1, top + 2):
        # d of degree p lands in the kernel of d on degree p-1
        lower = [(k, diffs.get(k, {})) for k, _ in keys[p - 1]]
        kernel = nullspace(lower) if lower else []
        for k, _ in keys[p]:
            img = {}
            for z in kernel:
                c = rng.randint(-spread, spread)
                if c:
                    vec_add(img, z, Fraction(c))
            diffs[k] = img
    return top, keys, diffs


def _wide_sliced(rng, n, spread=1):
    """Like `_random_sliced` with up to 8 keys per degree; each
    differential combines one or two kernel vectors, so a cycle is often
    bounded by a few keys only, late in their level block."""
    top = rng.randint(1, 3)
    keys = {p: [((p, i), rng.randint(0, n + 2)) for i in range(rng.randint(0, 8))]
            for p in range(top + 2)}
    diffs = {}
    for p in range(1, top + 2):
        lower = [(k, diffs.get(k, {})) for k, _ in keys[p - 1]]
        kernel = nullspace(lower) if lower else []
        for k, _ in keys[p]:
            img = {}
            for z in rng.sample(kernel, min(len(kernel), rng.randint(1, 2))):
                vec_add(img, z, Fraction(rng.choice((-1, 1)) * rng.randint(1, spread)))
            diffs[k] = img
    return top, keys, diffs


def _broken_sliced(rng, n, spread=1):
    """Like `_random_sliced`, but the differential of one degree-(p+1) key
    also takes a degree-p key with a nonzero differential, so d∘d != 0
    there; a draw without such a pair keeps d∘d = 0."""
    top, keys, diffs = _random_sliced(rng, n, spread)
    pairs = [(k, h) for p in range(1, top + 1) for k, _ in keys[p] if diffs[k]
             for h, _ in keys[p + 1]]
    if pairs:
        k, h = rng.choice(pairs)
        vec_add(diffs[h], {k: Fraction(rng.choice((-1, 1)))})
    return top, keys, diffs


def _match_level_major(seeds, scaled=False, family=_random_sliced):
    """Check the walk against the level-major oracle on random sliced
    complexes; returns the outcomes, the witnesses and how many distinct
    differentials the oracle evaluated that the walk did not.

    With `scaled`, the differential of each degree is multiplied by a
    rational with denominator 2..5.  That keeps cycles, boundaries and the
    normalized kernel basis, so the walk must also return what it returns
    on the integral complex, whatever the echelon form does with the
    denominators.
    """
    outcomes, witnesses, skipped = Counter(), [], 0
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        top, keys, diffs = family(rng, n, 3 if scaled else 1)
        degrees = list(range(0, top + 1))
        if rng.random() < 0.3:  # gaps stop the carry from one degree to the next
            degrees = sorted(rng.sample(degrees, rng.randint(1, len(degrees))))
        integral = None
        if scaled:
            integral = _walk(*_sliced(keys, diffs), degrees, n)
            for p in range(1, top + 2):
                scale = Fraction(rng.choice([-4, -3, -1, 1, 2, 3]), rng.randint(2, 5))
                for k, _ in keys[p]:
                    diffs[k] = {k2: scale * c for k2, c in diffs[k].items()}
        basis_of, diff_of = _sliced(keys, diffs)
        counted, counts = _counting(diff_of)
        res = _walk(basis_of, counted, degrees, n)
        ref_counted, ref_counts = _counting(diff_of)
        ref = _level_major(basis_of, ref_counted, degrees, n)
        assert res == ref, seed
        assert integral is None or res == integral, seed
        assert max(counts.values(), default=1) == 1, seed
        skipped += len(ref_counts) - len(counts)
        outcomes[ref.witness["level"] - n if ref.witness else "pass"] += 1
        if res.witness:
            witnesses.append(res.witness)
    return outcomes, witnesses, skipped


def test_random_sliced_complexes_match_level_major_walk():
    outcomes, _, _ = _match_level_major(range(300))
    # all three outcomes occur: a level-n failure, a level-(n+1) failure, a pass
    assert set(outcomes) == {0, 1, "pass"}, outcomes


def test_scaled_sliced_complexes_match_level_major_walk():
    # denominators in the differentials are cleared on entry to the echelon
    outcomes, witnesses, _ = _match_level_major(range(1000, 1300), scaled=True)
    assert set(outcomes) == {0, 1, "pass"}, outcomes
    assert all(type(c) is Fraction for w in witnesses for c in w["cycle"].values())


def test_wide_sliced_complexes_match_level_major_walk():
    # blocks of up to 8 keys, where the walk stops inside a block
    outcomes, _, skipped = _match_level_major(range(2000, 2400), family=_wide_sliced)
    assert set(outcomes) == {0, 1, "pass"}, outcomes
    assert skipped > 0


def test_broken_sliced_complexes_match_level_major_walk():
    # a boundary that is no cycle must not be counted as one
    outcomes, _, _ = _match_level_major(range(3000, 3400), family=_broken_sliced)
    assert set(outcomes) == {0, 1, "pass"}, outcomes
    broken = 0
    for seed in range(3000, 3400):
        rng = random.Random(seed)
        top, keys, diffs = _broken_sliced(rng, rng.randint(2, 4))
        broken += dsquare_witness(*_sliced(keys, diffs), range(top + 2), 9) is not None
    assert broken > 200, broken


def _obasis_maps(rng):
    """O-basis chain maps and the verdict each must get: the pushout
    products of every pair of iota_0..3 and zeta_1..3 (weak equivalences
    unless both are iotas), inclusions of N into D^n (x) M (+) N (the monoid
    axiom's, weak equivalences) and of N into S^k (+) N (never one)."""
    generating = [iota(k) for k in range(4)] + [zeta(k) for k in range(1, 4)]
    for f, g in product(generating, repeat=2):
        yield pushout_product(f, g).map, "fail" if f.kind == g.kind == "iota" else "bounded-pass"
    for _ in range(6):
        m_cx = random_complex(rng, max_top=1, max_cells=2, twists=1)
        n_ob = obasis_of_free(random_complex(rng, max_top=2, max_cells=2, twists=1))
        yield obasis_inclusion(tensor_free(disk(rng.randint(1, 2)), m_cx), n_ob, 1), "bounded-pass"
        yield obasis_inclusion(obasis_of_free(sphere(rng.randint(0, 2))), n_ob, 1), "fail"


def test_obasis_maps_match_level_major_walk():
    # is_bounded_weq walks the numbered cone; the oracle walks the keyed
    # cone level by level
    verdicts = Counter()
    for f, verdict in _obasis_maps(random.Random(4000)):
        src, tgt = f.source, f.target
        cone = _keyed_cone(src.basis_keys, src.diff_key, tgt.basis_keys, tgt.diff_key, f.apply_key)
        res = is_bounded_weq(f, 4)
        # up to degree top + 1 of either side, where the cone of a target
        # reaching above its source's top + 1 lists no key
        assert res == _level_major(*cone, range(0, max(src.top, tgt.top) + 2), 4)
        assert res.verdict == verdict
        verdicts[verdict] += 1
    assert verdicts == {"fail": 22, "bounded-pass": 39}, verdicts


def test_boundary_that_is_no_cycle_is_not_counted():
    # d a = x and d x = u: the slice of degree 0 at level 2 has one cycle,
    # y, and one boundary, x, so the dimensions agree, but y is no boundary
    keys = {-1: [("u", 0)], 0: [("x", 0), ("y", 0)], 1: [("a", 0)]}
    basis_of, diff_of = _sliced(keys, {"a": {"x": 1}, "x": {"u": 1}})
    res = _walk(basis_of, diff_of, [0], 2)
    assert res.witness == {"degree": 0, "cycle": {"y": Fraction(1)}, "level": 2}
    assert res == _level_major(basis_of, diff_of, [0], 2)


@pytest.mark.parametrize("last", [True, False])
def test_cycle_covered_only_by_the_last_key_of_the_top_block(last):
    # n = 3: level 4 checks the weight-2 cycle z1; in degree 1, b0 and e1
    # bound z0 only, e2 is a cycle, f (weight 5) lies above level 4, and
    # e3, the last key of the weight-4 block, is the one boundary with z1
    n = 3
    keys = {
        0: [("z0", 0), ("z1", n - 1)],
        1: [("b0", 0), ("e1", n + 1), ("f", n + 2), ("e2", n + 1), ("e3", n + 1)],
    }
    diffs = {"b0": {"z0": 1}, "e1": {"z0": -2}, "f": {"z1": 1}, "e3": {"z0": 1, "z1": 3}}
    if not last:
        keys[1].pop()
    basis_of, diff_of = _sliced(keys, diffs)
    counted, counts = _counting(diff_of)
    res = _walk(basis_of, counted, [0], n)
    assert res == _level_major(basis_of, diff_of, [0], n)
    assert max(counts.values()) == 1
    if last:
        assert res.verdict == "bounded-pass"
    else:
        assert res.witness == {"degree": 0, "cycle": {"z1": Fraction(1)}, "level": n + 1}


# differential evaluations of the check below: the walk stops inserting
# boundaries once every cycle of a slice lies in their span, so it reaches
# 224 of the 416 keys whose boundaries a full echelon needs; the level-major
# walk made 976 evaluations of those 416
PINNED_DISK_EVALS = 224
# sha256 of the keys in the order the walk evaluates them, one repr a line
PINNED_DISK_EVAL_ORDER = "e491e0e00e358ced3ce2c9a268369453d093935b5cd58359affe24095809abfb"


def test_tensor_of_disks_evaluates_each_differential_once():
    t = tensor_free(disk(1), disk(2))
    counted, counts = _counting(t.diff_key)
    # degree top + 1 lists no key, so it evaluates no differential
    res = _walk(t.basis_keys, counted, range(0, t.top + 2), 6)
    assert res == truncated_acyclicity(t, 6)
    assert res.verdict == "bounded-pass"
    assert max(counts.values()) == 1
    assert sum(counts.values()) == PINNED_DISK_EVALS
    assert _order_digest(counts) == PINNED_DISK_EVAL_ORDER


# `Echelon.reduce` calls in one `dgdm suite --seed 42`: every bounded slice
# of the suite passes by counting dimensions, so none lists its cycles with
# `nullspace`; reducing each cycle against the boundaries took 43,834, and
# 19,315 before one-term inserts (16,845 of the 19,315) skipped `reduce`
PINNED_SUITE_REDUCES = 2487


def test_suite_passes_its_slices_without_nullspace(suite_counts):
    assert suite_counts["nullspace"] == 0
    assert suite_counts["reduce"] <= PINNED_SUITE_REDUCES, suite_counts


def test_suite_inserts_no_integral_fraction(suite_counts):
    # map values and differentials reach the echelon forms with their
    # integral coefficients as ints, so the cone needs no conversion
    assert suite_counts["insert"] > 10000
    assert suite_counts["integral Fraction"] == 0, suite_counts


def _module_control(rng):
    """A weak equivalence f: P -> Q of A-modules followed by the inclusion
    of Q into Q plus a free sphere S^k (d = 0), and k: the cone of the
    composite has one cycle more than a boundary, in degree k."""
    a = random_algebra(rng, max_gens=1, max_degree=2)
    q, f = random_amodule_weq(rng, random_amodule(rng, a, cells=2, max_degree=2))
    k = rng.randint(0, 3)
    return compose_morphisms(f, Inclusion(q, transfinite_compose_finite(q, [(k, None)]).module)), k


def _algebra_control(rng, k):
    """The algebra counterpart: a weak equivalence X -> Y followed by the
    inclusion of Y into Y extended by a generator of degree k with d = 0."""
    y, f = random_algebra_weq(rng, random_algebra(rng, max_gens=1, max_degree=2))
    return compose_morphisms(f, Inclusion(y, y.extended(Generator("ctl", k), None)))


def test_negative_controls_fail_with_witnesses_on_cone_keys():
    # the walk runs on key numbers; the witness it returns must be the
    # level-major oracle's, on the cone's own keys
    for seed in range(20):
        rng = random.Random(seed)
        g, k = _module_control(rng)
        h = _algebra_control(rng, k)
        src, tgt = g.source, g.target
        top = max(src.top_degree(3), tgt.top_degree(3))
        checks = [
            (amodule_bounded_weq(g, 5, 3), range(top + 1),
             _keyed_cone(src.basis_keys, src.diff_key, tgt.basis_keys, tgt.diff_key, g.apply_key)),
            (algebra_bounded_weq(h, 5, 3), range(4),
             _keyed_cone(h.source.basis_keys, h.source.d_term, h.target.basis_keys, h.target.d_term,
                         h.apply_key)),
        ]
        for res, degrees, (basis, diff) in checks:
            assert res == _level_major(basis, diff, degrees, 5), seed
            assert res.verdict == "fail" and res.witness["degree"] == k, (seed, res)
            cycle = res.witness["cycle"]
            assert cycle and set(cycle) <= {key for key, _ in basis(k, res.witness["level"] - 2)}, (seed, cycle)
            assert all(type(c) is Fraction for c in cycle.values())


def _bounded_entry_points(seed=2700):
    """One call of each bounded check, and a failing control, as
    (check, arguments)."""
    rng = random.Random(seed)
    m_cx = random_complex(rng, max_top=1, max_cells=2, twists=1)
    inc = obasis_inclusion(tensor_free(disk(1), m_cx),
                           obasis_of_free(random_complex(rng, max_top=2, max_cells=2, twists=1)), 1)
    x = random_algebra(rng, max_gens=1, max_degree=2)
    y, f = random_algebra_weq(rng, x)
    po = dga_pushout_gen(x, y, f, 2, x.d(random_algebra_element(rng, x, 2, 3)))
    a = random_algebra(rng, max_gens=1, max_degree=2)
    _, g = random_amodule_weq(rng, random_amodule(rng, a, cells=2, max_degree=2))
    m = random_amodule(rng, a, cells=2, max_degree=2)
    b = a.extended(Generator("w", 1), None)
    control, _ = _module_control(rng)
    return [
        (truncated_acyclicity, (pushout_product(zeta(1), iota(0)).codomain, 5)),
        (is_bounded_weq, (inc, 5)),
        (algebra_bounded_weq, (po.map, 5, 3)),
        (tensor_bounded_weq, (g, m, 5, 3)),
        (base_change_bounded_weq, (b, g, 5, 3)),
        (amodule_bounded_weq, (g, 5, 3)),
        (amodule_bounded_weq, (control, 5, 3)),
    ]


# (key, weight) pairs the walk lists on the seven cold checks of
# `_bounded_entry_points()`, each listing counted in full: every degree
# lists its cycle candidates once and cuts the weight <= N-2 band from
# that listing; listing that band apart as well, the walk listed 1,113
PINNED_WALK_PAIRS = 776


def test_walk_lists_each_degree_once(monkeypatch):
    # every check passes or fails at level N, so both levels are checked
    # at every degree walked, and no weight-(N-2) slice is listed
    log = []
    walk = _logged_walk(slices.bounded_acyclicity, log)
    monkeypatch.setattr(slices, "bounded_acyclicity", walk)
    for check, args in _bounded_entry_points():
        res = check(*copy.deepcopy(args))
        n = res.levels[0]
        assert res.witness is None or res.witness["level"] == n, res
        assert not [entry for entry in log if entry[0] == "basis" and entry[2] == n - 2], check
    assert sum(len(entry[3]) for entry in log if entry[0] == "basis") == PINNED_WALK_PAIRS


def _read_only(fn, views):
    def view(key):
        views["views"] += 1
        return MappingProxyType(fn(key))
    return view


def test_checks_only_read_the_differentials_they_are_handed(monkeypatch):
    # every differential the walk and the cone get is a read-only view;
    # each check runs on its own deep copy of the inputs, so from cold
    # memos, with and without the views
    calls = _bounded_entry_points()
    plain = [check(*copy.deepcopy(args)) for check, args in calls]
    assert [res.verdict for res in plain] == ["bounded-pass"] * 6 + ["fail"]
    views = Counter()
    walk, cone, acyclic = slices.bounded_acyclicity, slices.bounded_weq, slices.sliced_acyclicity
    read_only = partial(_read_only, views=views)

    def walk_read_only(basis_of, diff_of, key_of, degrees, n):
        return walk(basis_of, read_only(diff_of), key_of, degrees, n)

    def acyclic_read_only(t, window, n):
        return acyclic(_Wrapped(t, read_only), window, n)

    def cone_read_only(src, tgt, f, window, n):
        return cone(_Wrapped(src, read_only), _Wrapped(tgt, read_only), read_only(f), window, n)

    monkeypatch.setattr(slices, "bounded_acyclicity", walk_read_only)
    monkeypatch.setattr(obasis, "sliced_acyclicity", acyclic_read_only)
    for mod in (amod, dga, obasis):  # each imports bounded_weq by name
        monkeypatch.setattr(mod, "bounded_weq", cone_read_only)
    for (check, args), res in zip(calls, plain):
        views.clear()
        assert check(*copy.deepcopy(args)) == res
        assert views["views"] > 0


def _cone_checks():
    """Calls of the five bounded weak-equivalence checks: on the O-basis
    maps of `_obasis_maps`, on seeded algebra and module maps, and on the
    negative controls."""
    for f, _ in _obasis_maps(random.Random(4000)):
        yield partial(is_bounded_weq, f, 4)
    for seed in range(2700, 2704):
        for check, args in _bounded_entry_points(seed)[1:]:
            yield partial(check, *args)
    for seed in range(6):
        rng = random.Random(seed)
        g, k = _module_control(rng)
        yield partial(amodule_bounded_weq, g, 5, 3)
        yield partial(algebra_bounded_weq, _algebra_control(rng, k), 5, 3)


def _logged_walk(walk, log):
    """`walk` that logs, on the caller's keys, each listing and each
    differential it evaluates."""

    def logged(basis_of, diff_of, key_of, degrees, n):
        def basis(p, w):
            pairs = list(basis_of(p, w))
            log.append(("basis", p, w, [(key_of(i), wt) for i, wt in pairs]))
            return pairs

        def diff(i):
            log.append(("diff", key_of(i)))
            return diff_of(i)

        return walk(basis, diff, key_of, degrees, n)

    return logged


def test_numbered_cone_walks_as_the_keyed_cone(monkeypatch):
    # bounded_weq numbers the two sides of the cone apart and writes each
    # image onto the numbers; the walk must list and evaluate the keyed
    # cone's keys in the same order, each at most once, and return the
    # same result, witnesses on the tagged keys included
    walk, cone = slices.bounded_acyclicity, slices.bounded_weq
    outcomes = Counter()

    def both(src, tgt, f, window, n):
        degrees = tuple(slices.walked_degrees(window, src, tgt))
        log, ref_log = [], []
        with monkeypatch.context() as m:
            m.setattr(slices, "bounded_acyclicity", _logged_walk(walk, log))
            res = cone(src, tgt, f, window, n)
        keyed = _keyed_cone(src.basis_keys, src.diff_key, tgt.basis_keys, tgt.diff_key, f)
        ref = _logged_walk(walk, ref_log)(*numbered(*keyed), degrees, n)
        assert res == ref == _level_major(*keyed, degrees, n)
        assert log == ref_log
        evaluated = Counter(entry[1] for entry in log if entry[0] == "diff")
        assert max(evaluated.values()) == 1
        outcomes[res.verdict] += 1
        return res

    for mod in (amod, dga, obasis):
        monkeypatch.setattr(mod, "bounded_weq", both)
    for check in _cone_checks():
        check()
    assert outcomes == {"fail": 38, "bounded-pass": 59}, outcomes


def test_cone_inputs_hold_no_zero_coefficient(monkeypatch):
    # the differentials and map images the five bounded checks hand the
    # cone are zero-free, so the cone filters no coefficient
    cone = slices.bounded_weq
    images = Counter()

    def zero_free(fn):
        def checked(key):
            img = fn(key)
            assert all(img.values()), (key, img)
            images["nonzero"] += bool(img)
            return img
        return checked

    def checked_cone(src, tgt, f, window, n):
        images["cones"] += 1
        return cone(_Wrapped(src, zero_free), _Wrapped(tgt, zero_free), zero_free(f), window, n)

    for mod in (amod, dga, obasis):
        monkeypatch.setattr(mod, "bounded_weq", checked_cone)
    for check in _cone_checks():
        check()
    assert images["cones"] == 97 and images["nonzero"] > 5000, images
