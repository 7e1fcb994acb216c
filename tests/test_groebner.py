"""Groebner kernel: normal forms, membership vs a brute-force oracle, syzygies."""

import ast
import hashlib
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import dgdm
from dgdm import groebner
from dgdm.groebner import (
    DEFAULT_DEGREE_GUARD,
    DegreeGuardExceeded,
    FreeModuleElement,
    buchberger,
    degree_guard,
    express_in_inputs,
    get_degree_guard,
    member,
    normal_form,
    normal_form_with_cofactors,
    submodule_equal,
    syzygies,
)
from dgdm.randgen import random_weyl
from dgdm.rational_linalg import Echelon, nullspace, vec_add
from dgdm.weyl import WeylElement


def X(i=1, n=1):
    return WeylElement.x(i, n)


def D(i=1, n=1):
    return WeylElement.d(i, n)


def vec(*elts):
    return FreeModuleElement(list(elts))


ONE = WeylElement.one(1)
ZERO = WeylElement.zero(1)


# ---------------------------------------------------------------- oracle

def monomials_up_to(nvars, deg):
    exps = [e for e in product(range(deg + 1), repeat=2 * nvars) if sum(e) <= deg]
    return [(tuple(e[:nvars]), tuple(e[nvars:])) for e in exps]


def brute_force_member(v, gens, deg):
    """Is v a left combination sum c_{m,i} m*g_i with multipliers of
    total degree <= deg?  Solved as exact Q-linear algebra; one-sided:
    True certifies membership, False only says no low-degree witness."""
    nvars = v.nvars
    columns = Echelon()
    for g in gens:
        for (a, b) in monomials_up_to(nvars, deg):
            mult = WeylElement.monomial(nvars, a, b)
            img = g.left_mul(mult)
            colvec = {}
            for pos, c in enumerate(img.coords):
                for mono, coef in c.terms.items():
                    colvec[(pos, mono)] = coef
            columns.insert(colvec)
    target = {}
    for pos, c in enumerate(v.coords):
        for mono, coef in c.terms.items():
            target[(pos, mono)] = coef
    return not columns.reduce(target)


# ---------------------------------------------------------------- examples

def test_relation_generates_unit():
    gb = buchberger([vec(X()), vec(D())])
    # 1 = d*x - x*d is in the submodule
    assert member(vec(ONE), gb)
    assert any(g == vec(ONE) for g in gb.generators)


def test_single_monomial_is_its_own_basis():
    gb = buchberger([vec(D())])
    assert gb.generators == [vec(D())]


def test_empty_generators():
    gb = buchberger([], rank=1, nvars=1)
    assert gb.generators == []
    assert member(vec(ZERO), gb)
    assert not member(vec(ONE), gb)


def test_normal_form_examples():
    gb = buchberger([vec(D())])
    # dx = xd + 1 and xd reduces by d
    assert normal_form(vec(D() * X()), gb) == vec(ONE)
    assert normal_form(vec(X() * D()), gb) == vec(ZERO)
    # every element of D*d has positive d-order, so 1 is irreducible
    assert normal_form(vec(ONE), gb) == vec(ONE)
    assert not member(vec(ONE), gb)


def test_member_trivia():
    gb = buchberger([vec(X()), vec(D())])
    assert member(vec(ZERO), gb)
    assert member(vec(ONE), gb)


def test_cofactors_multiply_out():
    gens = [vec(X()), vec(D())]
    gb = buchberger(gens)
    target = vec(ONE)
    u = express_in_inputs(target, gb)
    assert u is not None
    acc = vec(ZERO)
    for c, g in zip(u, gens):
        acc = acc + g.left_mul(c)
    assert acc == target


def test_syzygies_examples():
    # right multiplication by d on D is injective (domain)
    ker = syzygies([[D()]], 1)
    assert ker.generators == []
    # kernel of (P,Q) |-> P*x + Q*d contains (x d^2, -x^2 d - 2x)
    ker = syzygies([[X()], [D()]], 1)
    candidate = vec(X() * D() * D(), -(X() * X() * D()) - 2 * X())
    # sanity: candidate really maps to zero
    img = candidate.coords[0] * X() + candidate.coords[1] * D()
    assert img.is_zero()
    gb = buchberger(ker.generators)
    assert member(candidate, gb)
    # zero matrix D^2 -> D: kernel is everything
    ker = syzygies([[ZERO], [ZERO]], 1)
    gb = buchberger(ker.generators)
    for i in range(2):
        assert member(FreeModuleElement.unit(2, 1, i), gb)


def test_syzygies_map_to_zero_property():
    rng = random.Random(5)
    for _ in range(10):
        rows = [[_random_w(rng) for _ in range(2)] for _ in range(2)]
        ker = syzygies(rows, 1)
        for k in ker.generators:
            img0 = k.coords[0] * rows[0][0] + k.coords[1] * rows[1][0]
            img1 = k.coords[0] * rows[0][1] + k.coords[1] * rows[1][1]
            assert img0.is_zero() and img1.is_zero()


def test_syzygies_reads_the_source_rank_off_the_shape():
    # no rows is a map from D^0: a source rank of 2 disagrees with it
    with pytest.raises(ValueError, match="0 rows, expected 2"):
        syzygies([], 1, source_rank=2, target_rank=3)
    # the zero map D^2 -> D^3, with its shape kept, has kernel D^2
    ker = syzygies(groebner.Matrix((FreeModuleElement.zero(3, 1),) * 2, 3), 1)
    assert ker.generators == [FreeModuleElement.unit(2, 1, i) for i in range(2)]
    assert syzygies([[ZERO] * 3] * 2, 1, source_rank=2, target_rank=3).generators == ker.generators


def _random_w(rng, nvars=1, max_terms=2, max_exp=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        a = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        b = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[(a, b)] = Fraction(rng.randint(-3, 3))
    return WeylElement(nvars, terms)


def _random_vec(rng, rank, nvars=1):
    return FreeModuleElement([_random_w(rng, nvars) for _ in range(rank)])


def test_lift_multiplies_back_random():
    # independent of normal forms: every basis generator and every probe
    # member must equal the left combination of the inputs that
    # express_in_inputs names, with one coefficient per input
    rng = random.Random(31)
    probe_rng = random.Random(32)
    checked = 0
    for _ in range(20):
        nvars = rng.choice([1, 1, 2])
        rank = rng.randint(1, 2)
        gens = [FreeModuleElement([_random_w(rng, nvars, 2, 2 if nvars == 1 else 1)
                                   for _ in range(rank)])
                for _ in range(rng.randint(1, 3))]
        if all(g.is_zero() for g in gens):
            continue
        # the same set with a zero input spliced in
        with_zero = gens[:1] + [FreeModuleElement.zero(rank, nvars)] + gens[1:]
        for inputs in (gens, with_zero):
            gb = buchberger(inputs)
            assert gb.inputs == inputs
            checked += _assert_lifts_multiply_back(gb, gb.generators + [
                _combination(probe_rng, inputs) for _ in range(2)])
    assert checked > 80
    # syzygies reports its kernel basis as its own inputs, also when the
    # target rank is zero and the kernel is everything
    for rows in ([[_random_w(rng) for _ in range(2)] for _ in range(3)], [[X()], [D()]]):
        ker = syzygies(rows, 1)
        assert _assert_lifts_multiply_back(ker, ker.generators) == len(ker.generators) > 0
    ker = syzygies([[], []], 1)
    assert _assert_lifts_multiply_back(
        ker, ker.generators + [_combination(probe_rng, ker.inputs)]) == 3


def test_lift_keeps_zero_inputs():
    # one coefficient per input passed, zero inputs included
    assert express_in_inputs(vec(X()), buchberger([vec(ZERO), vec(X())])) == [ZERO, ONE]
    assert express_in_inputs(vec(ZERO), buchberger([vec(ZERO), vec(ZERO)])) == [ZERO, ZERO]
    assert express_in_inputs(vec(ONE), buchberger([vec(ZERO), vec(D())])) is None
    assert express_in_inputs(vec(ZERO), buchberger([], rank=1, nvars=1)) == []


def _combination(rng, inputs):
    """A random left combination of the inputs: a member to probe with."""
    v = FreeModuleElement.zero(inputs[0].rank, inputs[0].nvars)
    for g in inputs:
        v = v + g.left_mul(_random_w(rng, g.nvars, 2, 1))
    return v


def _assert_lifts_multiply_back(gb, members):
    """Each member is sum_j u_j*inputs[j] for u = express_in_inputs; returns
    the count checked."""
    for v in members:
        u = express_in_inputs(v, gb)
        assert len(u) == len(gb.inputs)
        acc = FreeModuleElement.zero(gb.rank, gb.nvars)
        for c, inp in zip(u, gb.inputs):
            acc = acc + inp.left_mul(c)
        assert acc == v
    return len(members)


# ---------------------------------------------------------------- reference

def _order_key(m):
    """The module order as a sort key, smallest first for the leading
    monomial: position over term, then degree-reverse-lex on (x, d)."""
    pos, a, b = m
    e = a + b
    return (pos, -sum(e), e[::-1])


def _leading(v):
    """The leading monomial (pos, a, b) of a nonzero v and its coefficient."""
    terms = [((pos, a, b), c) for pos, e in enumerate(v.coords) for (a, b), c in e.terms.items()]
    return min(terms, key=lambda t: _order_key(t[0]))


def _term(v, m, c):
    """The one-term element c*x^a d^b at position pos of v's module."""
    pos, a, b = m
    coords = [WeylElement.zero(v.nvars)] * v.rank
    coords[pos] = WeylElement.monomial(v.nvars, a, b, c)
    return FreeModuleElement(coords)


def _quotient(m, n):
    """x^qa d^qb with n * (x^qa d^qb) = m as exponents, or None."""
    if m[0] != n[0]:
        return None
    qa = tuple(x - y for x, y in zip(m[1], n[1]))
    qb = tuple(x - y for x, y in zip(m[2], n[2]))
    return None if min(qa + qb, default=0) < 0 else (qa, qb)


def _reference_reduce(v, basis):
    """Full left normal form of v by basis, leading term first."""
    rest = FreeModuleElement.zero(v.rank, v.nvars)
    while not v.is_zero():
        m, c = _leading(v)
        for g in basis:
            gm, gc = _leading(g)
            q = _quotient(m, gm)
            if q is not None:
                v = v - g.left_mul(WeylElement.monomial(v.nvars, q[0], q[1], c / gc))
                break
        else:
            t = _term(v, m, c)
            rest, v = rest + t, v - t
    return rest


def _reference_basis(gens):
    """The reduced monic Groebner basis by Buchberger's algorithm on element
    arithmetic, treating every S-pair (no criterion), lowest lcm degree
    first; sorted by decreasing leading monomial.  The reduced basis is
    unique, so the pruned loop must return exactly this."""
    basis, pairs = [], []

    def add(h):
        if not h.is_zero():
            pairs.extend((g, h) for g in basis if _leading(g)[0][0] == _leading(h)[0][0])
            basis.append(h)

    for g in gens:
        add(_reference_reduce(g, basis))
    while pairs:
        k = min(range(len(pairs)), key=lambda k: _pair_degree(*pairs[k]))
        add(_reference_reduce(_spoly(*pairs.pop(k)), basis))
    minimal = [g for g in basis
               if not any(h is not g and _quotient(_leading(g)[0], _leading(h)[0]) is not None
                          for h in basis)]
    reduced = []
    for g in minimal:
        r = _reference_reduce(g, [h for h in minimal if h is not g])
        reduced.append(r.scale(1 / _leading(r)[1]))
    return sorted(reduced, key=lambda g: _order_key(_leading(g)[0]))


def _lcm(g1, g2):
    (pos, a1, b1), (_, a2, b2) = _leading(g1)[0], _leading(g2)[0]
    return pos, tuple(map(max, a1, a2)), tuple(map(max, b1, b2))


def _pair_degree(g1, g2):
    _, a, b = _lcm(g1, g2)
    return sum(a) + sum(b)


def _spoly(g1, g2):
    m = _lcm(g1, g2)
    out = FreeModuleElement.zero(g1.rank, g1.nvars)
    for g, sign in ((g1, 1), (g2, -1)):
        gm, gc = _leading(g)
        qa, qb = _quotient(m, gm)
        out = out + g.left_mul(WeylElement.monomial(g.nvars, qa, qb, sign / gc))
    return out


def test_buchberger_matches_unpruned_reference():
    # oracle for the pair pruning: the reduced basis is unique, so the
    # pruned loop must return the unpruned reference's generators, in order;
    # the second half of the sets carry unit tag columns, as the lift's
    # inputs do, which makes their bases larger
    rng = random.Random(53)
    sizes = []
    for tagged in (False, True):
        for _ in range(40):
            nvars = rng.choice([1, 1, 2])
            rank = rng.randint(1, 2)
            count = rng.randint(1, 2 if tagged else 4)
            zero, one = WeylElement.zero(nvars), WeylElement.one(nvars)
            tags = [[one if k == i else zero for k in range(count)] if tagged else []
                    for i in range(count)]
            gens = [FreeModuleElement([_random_w(rng, nvars, 2, 1) for _ in range(rank)] + tags[i])
                    for i in range(count)]
            expected = _reference_basis(gens)
            assert buchberger(gens).generators == expected
            sizes.append(len(expected))
    assert max(sizes) >= 6


def _syzygy_family():
    """60 seeded random 2 x s matrices over D_1 or D_2: (nvars, rows)."""
    rng = random.Random(49)
    for _ in range(60):
        nvars = rng.choice([1, 1, 2])
        s = rng.randint(1, 2)
        yield nvars, [[_random_w(rng, nvars, 2, 2 if nvars == 1 else 1) for _ in range(s)]
                      for _ in range(2)]


def test_syzygies_match_unpruned_elimination():
    # oracle for the pair pruning of syzygies: the reference runs the same
    # elimination on the tagged rows with every pair; the reduced basis is
    # unique, so the tag-block generators must be the kernel, in order
    nonzero = 0
    for nvars, rows in _syzygy_family():
        r, s = len(rows), len(rows[0])
        zero, one = WeylElement.zero(nvars), WeylElement.one(nvars)
        tagged = [FreeModuleElement(row + [one if k == i else zero for k in range(r)])
                  for i, row in enumerate(rows)]
        expected = [FreeModuleElement(g.coords[s:]) for g in _reference_basis(tagged)
                    if all(c.is_zero() for c in g.coords[:s])]
        assert syzygies(rows, nvars).generators == expected
        nonzero += bool(expected)
    assert nonzero > 30


def test_normal_form_idempotent_random():
    rng = random.Random(23)
    for _ in range(15):
        gens = [_random_vec(rng, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        for _ in range(5):
            v = _random_vec(rng, 2)
            nf = normal_form(v, gb)
            assert normal_form(nf, gb) == nf
            # v - nf(v) lies in the submodule
            assert member(v - nf, gb)


def test_normal_form_with_cofactors_contract():
    # v = sum q_i*gb_i + nf with nf the normal form, one cofactor per
    # basis generator; on seeded bases, the empty basis and v = 0
    rng = random.Random(29)
    cases = [(buchberger([], rank=2, nvars=1), _random_vec(rng, 2)),
             (buchberger([], rank=1, nvars=2), vec(WeylElement.zero(2)))]
    while len(cases) < 200:
        nvars = rng.choice([1, 1, 2])
        rank = rng.randint(1, 2)
        gens = [FreeModuleElement([_random_w(rng, nvars, 2, 2 if nvars == 1 else 1) for _ in range(rank)])
                for _ in range(rng.randint(1, 3))]
        gb = buchberger(gens)
        cases.append((gb, FreeModuleElement.zero(rank, nvars)))
        cases += [(gb, FreeModuleElement([_random_w(rng, nvars) for _ in range(rank)])) for _ in range(3)]
    for gb, v in cases:
        nf, q = normal_form_with_cofactors(v, gb)
        assert nf == normal_form(v, gb)
        assert len(q) == len(gb.generators)
        acc = nf
        for qi, g in zip(q, gb.generators):
            acc = acc + g.left_mul(qi)
        assert acc == v


def test_membership_agrees_with_brute_force():
    rng = random.Random(42)
    agree = 0
    for _ in range(12):
        gens = [_random_vec(rng, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        for _ in range(6):
            # probe: random combination of generators (member) or random vector
            if rng.random() < 0.5:
                v = vec(ZERO, ZERO)
                for g in gens:
                    v = v + g.left_mul(_random_w(rng, 1, 2, 1))
                expect_member = True
            else:
                v = _random_vec(rng, 2)
                expect_member = None
            got = member(v, gb)
            if expect_member:
                assert got
            oracle = brute_force_member(v, gens, 4)
            if oracle:
                assert got, "oracle found a witness the basis missed"
            if got:
                u = express_in_inputs(v, gb)
                acc = vec(ZERO, ZERO)
                for c, g in zip(u, gens):
                    acc = acc + g.left_mul(c)
                assert acc == v
                agree += 1
    assert agree > 0


def test_generator_order_irrelevant():
    rng = random.Random(9)
    gens = [vec(X() * D(), ONE), vec(D() * D(), X()), vec(ZERO, D())]
    gb1 = buchberger(gens)
    gb2 = buchberger(list(reversed(gens)))
    for _ in range(50):
        v = _random_vec(rng, 2)
        assert member(v, gb1) == member(v, gb2)


def test_submodule_equal():
    gens1 = [vec(X()), vec(D())]
    gens2 = [vec(ONE)]
    assert submodule_equal(gens1, gens2, 1, 1)
    assert not submodule_equal([vec(D())], gens2, 1, 1)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        buchberger([vec(X()), vec(X(), D())])


def test_degree_guard_raises():
    # x*d + c generates steadily growing elements when paired with d^4
    # under a tiny cap; the guard must abort rather than spin
    with pytest.raises(DegreeGuardExceeded), degree_guard(3):
        gb = buchberger([vec(D() * D() * D() * D() + X())])
        normal_form(vec(WeylElement.monomial(1, (5, ), (5,))), gb)


def test_degree_guard_raises_inside_buchberger():
    # both inputs have total degree 3, but their S-pair has lcm x^3 d^3
    gens = [vec(X() * X() * X() + D()), vec(D() * D() * D() + X())]
    with pytest.raises(DegreeGuardExceeded), degree_guard(3):
        buchberger(gens)
    with degree_guard(6):
        assert len(buchberger(gens)) > 0


def test_degree_guard_scope_restores_outer_value():
    gens = [vec(X() * X() * X() + D()), vec(D() * D() * D() + X())]
    assert get_degree_guard() == DEFAULT_DEGREE_GUARD
    with pytest.raises(DegreeGuardExceeded):
        with degree_guard(3):
            buchberger(gens)
    assert get_degree_guard() == DEFAULT_DEGREE_GUARD
    with degree_guard(7):
        with degree_guard(3):
            assert get_degree_guard() == 3
        assert get_degree_guard() == 7
    assert get_degree_guard() == DEFAULT_DEGREE_GUARD
    with pytest.raises(ValueError):
        with degree_guard(0):
            pass
    assert get_degree_guard() == DEFAULT_DEGREE_GUARD


def _package_trees():
    """(file name, freshly parsed tree) for each module of the package."""
    root = os.path.dirname(dgdm.__file__)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_global_statement_in_the_package():
    # settings are scoped (context variables), never process-wide globals
    for name, tree in _package_trees():
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), name


def test_no_import_inside_a_function_in_the_package():
    # every dependency of a module shows at its head
    for name, tree in _package_trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (name, node.lineno)


def _unused_imports():
    """(file, name, line) of each module-level import its module neither reads nor exports."""
    unused = []
    for name, tree in _package_trees():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read.update(
            n.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for n in ast.walk(node.value) if isinstance(n, ast.Constant)
        )
        unused += [
            (name, alias.asname or alias.name.split(".")[0], node.lineno)
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names if (alias.asname or alias.name.split(".")[0]) not in read
        ]
    return unused


def test_no_unused_import_in_the_package():
    # a name imported at module level is read in its module or exported
    assert _unused_imports() == []


# The definitions no package code names, each kept for a reason: it is
# exported in dgdm.__all__, is a method of an exported class, or is bound by
# name from outside the package.
KEPT_WITHOUT_A_CALLER = {
    "groebner.normal_form_with_cofactors":
        "perfbench/tracing.py binds it by name and BENCHMARK.json lists its two metrics",
    "weyl.order_and_symbol": "exported: the principal symbol of the order filtration",
    "dga.initial_morphism": "exported: the unit O -> A",
    "amod.free_amodule": "exported: A (x) C for a free complex C",
    "model.GeneratingMap.chain_map": "a method of an exported class: iota_n or zeta_n as a ChainMap",
}


def _name_counts(tree):
    """How often tree names each name, as a Name, an Attribute or an imported alias."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
    return counts


def test_every_package_definition_and_import_has_a_reader():
    # each top-level function or class and each method (dunders aside) is
    # named by package code outside its own body and __init__.py; strings and
    # docstrings do not count.  The few that are not are kept for a reason.
    trees = {name[:-3]: tree for name, tree in _package_trees() if name != "__init__.py"}
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{mod}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{mod}.{node.name}.{fn.name}", fn) for fn in node.body
                         if isinstance(fn, ast.FunctionDef) and not fn.name.endswith("__")]
    named = sum(map(_name_counts, trees.values()), Counter())
    unreached = {q for q, node in defs if named[node.name] == _name_counts(node)[node.name]}
    assert sorted(unreached) == sorted(KEPT_WITHOUT_A_CALLER)
    # the names and strings (getattr binds by string) of the benchmark scripts
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    outside = set()
    for name in sorted(os.listdir(perfbench)):
        if name.endswith(".py"):
            with open(os.path.join(perfbench, name)) as fh:
                outside.update(n.value if isinstance(n, ast.Constant) else n.id
                               for n in ast.walk(ast.parse(fh.read(), name))
                               if isinstance(n, ast.Name) or isinstance(n, ast.Constant) and isinstance(n.value, str))
    for q in KEPT_WITHOUT_A_CALLER:
        owner = q.split(".")[1]  # the function, or the class of a method
        assert owner in dgdm.__all__ or owner in outside, q
    assert _unused_imports() == []


def test_source_stays_within_the_seed_line_count():
    # the package may shrink, but never grow past the 6,091 lines it had once
    # an A-module became the twisted tensor A (x) V (6,527 at the seed)
    root = os.path.dirname(dgdm.__file__)
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                total += sum(1 for _ in fh)
    assert total <= 6091, total


def _zero_default(node):
    """Is node the literal 0 or the call Fraction(0)?"""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "Fraction"
                and len(node.args) == 1 and _zero_default(node.args[0]))
    return isinstance(node, ast.Constant) and node.value == 0


def test_only_the_sparse_kernel_accumulates_into_a_dict():
    # `x.get(k, 0) + c` and `x.get(k, Fraction(0)) + c` hand-roll what
    # rational_linalg.add_term does; a count such as `x.get(k, 0) + 1` is no sum
    found = []
    for name, tree in _package_trees():
        if name != "rational_linalg.py":
            found += [
                (name, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Attribute)
                and node.left.func.attr == "get" and len(node.left.args) == 2
                and _zero_default(node.left.args[1])
                and not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int))
            ]
    assert found == []


def test_no_dead_local_in_the_package():
    # a simple `name = ...` in a function body is read by that function
    root = os.path.dirname(dgdm.__file__)
    dead = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nodes = list(ast.walk(fn))
                    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                    read.update(v for n in nodes if isinstance(n, ast.Nonlocal) for v in n.names)
                    dead += [
                        (name, fn.name, target.id, node.lineno)
                        for node in nodes if isinstance(node, ast.Assign)
                        for target in node.targets if isinstance(target, ast.Name) and target.id not in read
                    ]
    assert dead == []


def test_no_cloned_statement_run_in_the_package():
    # with every name, attribute, argument and constant blanked, no run of 4
    # consecutive statements of one block (holding at least 6 statements,
    # nested ones counted) has the shape of a run at another place
    root = os.path.dirname(dgdm.__file__)
    places = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    node.id = "_"
                elif isinstance(node, ast.Attribute):
                    node.attr = "_"
                elif isinstance(node, ast.arg):
                    node.arg = "_"
                elif isinstance(node, ast.Constant):
                    node.value = None
            for node in ast.walk(tree):
                for block in (getattr(node, f, None) for f in ("body", "orelse", "finalbody")):
                    if not (isinstance(block, list) and block and isinstance(block[0], ast.stmt)):
                        continue
                    for i in range(len(block) - 3):
                        run = block[i:i + 4]
                        fields = all(isinstance(s, ast.AnnAssign) and s.value is None for s in run)
                        if fields or sum(isinstance(n, ast.stmt) for s in run for n in ast.walk(s)) < 6:
                            continue
                        places.setdefault("\n".join(map(ast.dump, run)), []).append((name, run[0].lineno))
    assert [where for where in places.values() if len(where) > 1] == []


def _truthy_constant(node):
    return isinstance(node, ast.Constant) and bool(node.value)


def test_no_vacuous_check_in_the_tests():
    # no assert of a truthy constant, no `assert ... or <truthy constant>`,
    # and no for loop whose body is only `pass`
    root = os.path.dirname(os.path.abspath(__file__))
    vacuous = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Assert):
                    test = node.test
                    ors = test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or) else []
                    if _truthy_constant(test) or any(map(_truthy_constant, ors)):
                        vacuous.append((name, node.lineno))
                elif isinstance(node, ast.For) and all(isinstance(s, ast.Pass) for s in node.body):
                    vacuous.append((name, node.lineno))
    assert vacuous == []


def test_two_variable_module():
    n = 2
    d1, d2 = WeylElement.d(1, n), WeylElement.d(2, n)
    gb = buchberger([FreeModuleElement([d1]), FreeModuleElement([d2])])
    one = FreeModuleElement([WeylElement.one(n)])
    # D/(d1,d2) = O: 1 is not in the ideal
    assert not member(one, gb)
    assert member(FreeModuleElement([d1 * d2]), gb)


def test_desk_scale_instances_complete_quickly():
    # the contracted scale: nvars <= 2, rank <= 2, few generators with
    # low-degree entries; all such instances finish fast and agree on probes
    import time

    rng = random.Random(77)
    t0 = time.time()
    for _ in range(25):
        nvars = rng.choice([1, 1, 2])
        rank = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(1, 2)):
            coords = []
            for _ in range(rank):
                coords.append(_random_w(rng, nvars, 2, 1))
            gens.append(FreeModuleElement(coords))
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        comb = FreeModuleElement.zero(rank, nvars)
        for g in gens:
            comb = comb + g.left_mul(_random_w(rng, nvars, 1, 1))
        assert member(comb, gb)
    assert time.time() - t0 < 20


# ---------------------------------------------------------------- ladder

def ladder_matrix(rung):
    """Rung s of the benchmark's syzygy ladder: a 3x2 matrix over D_1."""
    rng = random.Random(rung)
    return [[random_weyl(rng, 1, 3, 2) for _ in range(2)] for _ in range(3)]


def kernel_digest(gb):
    text = "\n".join(" ; ".join(c.to_string() for c in g.coords) for g in gb.generators)
    return hashlib.sha256(text.encode()).hexdigest()


# literal copies of the benchmark's pinned kernel digests; rung 9, which the
# benchmark does not pin, is the digest of a full run of the Q loop
LADDER_PINS = {
    0: "62377e9232f4b1d2bc08632a7507f9db5260d13d185438192fb00b8064a93927",
    1: "1bd77aec3637f9fdf4bc62c7882da8f8a2a90faaf0b7025774896cecab458c4f",
    2: "9eb33c56955e8731e6b7a9313ce21e168b888501bba77fdcd5fa47ba16a63852",
    3: "00409986864591bb94aca11c389f70f500646081c66a4dc7a6aea109f2ced06c",
    4: "520ba4fe27aee81f318c0d47e9708cca71d576cf7a89827abacfa8d79a380aa1",
    5: "3497dc776397e5bb7f660ee4661733937466da84f91e53d4c66dd742ba9d8f07",
    6: "00409986864591bb94aca11c389f70f500646081c66a4dc7a6aea109f2ced06c",
    7: "e144fdd560026349deba06f170266118ce9352df6f0b592f4dd97622cd35b3a8",
    8: "43b007811330ed17be65954d56dade74b9be97dd9248084e9a3491ffa54628fa",
    9: "04ada37aa525175f317778df87bacf92bf5d9ec7f67a46ba7af5a83403ca79e1",
    10: "5e78b75ad3e19bdb0649eabdc9c44f5b6f0f263e738e4484e511a1804c0a8044",
    11: "00409986864591bb94aca11c389f70f500646081c66a4dc7a6aea109f2ced06c",
}


@pytest.mark.parametrize("rung", sorted(LADDER_PINS))
def test_ladder_kernels_match_pins(rung):
    assert kernel_digest(syzygies(ladder_matrix(rung), 1)) == LADDER_PINS[rung]


@pytest.mark.parametrize("rung", [0, 2, 3, 6])
def test_ladder_kernel_complete_in_low_degree(rung):
    # oracle: the kernel of the truncated map F_N^3 -> D^2, v |-> sum_i v_i*row_i,
    # with every v_i of total degree <= N, by exact linear algebra; rung 0's
    # kernel starts in degree 4
    rows = ladder_matrix(rung)
    syz = syzygies(rows, 1)
    for deg in range(6):
        images = []
        for i, row in enumerate(rows):
            for a, b in monomials_up_to(1, deg):
                m = WeylElement.monomial(1, a, b)
                img = {(j, mono): c for j, entry in enumerate(row)
                       for mono, c in (m * entry).terms.items()}
                images.append(((i, a, b), img))
        for k in nullspace(images):
            coords = [WeylElement.zero(1) for _ in rows]
            for (i, a, b), c in k.items():
                coords[i] = coords[i] + WeylElement.monomial(1, a, b, c)
            assert member(FreeModuleElement(coords), syz)


# ---------------------------------------------------------------- modular path

class _ModularPathTaken(Exception):
    pass


def _refuse_modular(*args):
    raise _ModularPathTaken()


def test_only_coefficient_swell_takes_the_modular_path(monkeypatch):
    # the kernels of the suite and of the timed ladder rungs keep small
    # coefficients and stay on the Q loop; rung 9's swell at once
    monkeypatch.setattr(groebner, "_modular_rows", _refuse_modular)
    for rung in (0, 1, 2, 3, 4, 6, 10, 11):
        assert kernel_digest(syzygies(ladder_matrix(rung), 1)) == LADDER_PINS[rung]
    for nvars, rows in _syzygy_family():
        syzygies(rows, nvars)
    with pytest.raises(_ModularPathTaken):
        syzygies(ladder_matrix(9), 1)


def test_forced_modular_path_matches_q_loop(monkeypatch):
    # oracle for the modular path: the certified rows are the Q loop's, and
    # with the trigger at 0 bits every syzygies call takes them
    guard = get_degree_guard()
    for nvars, rows in _syzygy_family():
        tagged = groebner._tagged(groebner.as_matrix(rows, nvars))
        q_rows = groebner._groebner_rows(tagged, guard)
        mod_rows = groebner._modular_rows(tagged, len(rows[0]), guard)
        assert mod_rows is not None
        assert [r.vec for r in mod_rows] == [r.vec for r in q_rows]
    expected = [syzygies(rows, nvars).generators for nvars, rows in _syzygy_family()]
    monkeypatch.setattr(groebner, "_SWELL_BITS", 0)
    modular = groebner._modular_rows
    taken = []
    monkeypatch.setattr(groebner, "_modular_rows", lambda *a: taken.append(r := modular(*a)) or r)
    assert [syzygies(rows, nvars).generators for nvars, rows in _syzygy_family()] == expected
    assert len(taken) == len(expected) and None not in taken


@pytest.mark.parametrize("primes, certified_modulus", [
    ((7,), None),  # residues mod 7 cannot give 441-bit coefficients: the Q fallback
    ((7, 2**255 - 19), 2**255 - 19),  # CRT with 7 or a fresh start: either way certified
    ((2**61 - 1, 2**127 - 1), (2**61 - 1) * (2**127 - 1)),  # 61 bits alone are too few
])
def test_small_primes_end_in_more_primes_or_the_fallback(monkeypatch, primes, certified_modulus):
    monkeypatch.setattr(groebner, "_PRIMES", primes)
    moduli, verdicts = [], []
    certify, reconstruct = groebner._certified, groebner._reconstruct

    def recorded(rows, modulus):
        moduli.append(modulus)
        return reconstruct(rows, modulus)

    def certified(*args):
        verdicts.append(certify(*args))
        return verdicts[-1]

    monkeypatch.setattr(groebner, "_reconstruct", recorded)
    monkeypatch.setattr(groebner, "_certified", certified)
    assert kernel_digest(syzygies(ladder_matrix(8), 1)) == LADDER_PINS[8]
    assert len(moduli) == len(primes)
    if certified_modulus is None:
        assert True not in verdicts
    else:
        assert verdicts[-1] is True and moduli[-1] % certified_modulus == 0


def test_corrupted_coefficient_fails_the_checks(monkeypatch):
    rows = ladder_matrix(7)
    tagged = groebner._tagged(groebner.as_matrix(rows, 1))
    guard = get_degree_guard()
    q_rows = groebner._groebner_rows(tagged, guard)
    assert groebner._certified(q_rows, tagged, 2, guard)
    for k, row in enumerate(q_rows):
        for m in (row.lm, max(row.vec, key=groebner._key)):  # the leading and the last term
            bad = [groebner._Row(dict(r.vec)) for r in q_rows]
            bad[k].vec[m] += Fraction(1, 3)
            assert not groebner._certified(bad, tagged, 2, guard)
    # a reconstruction corrupted in every prime ends in the Q fallback
    reconstruct = groebner._reconstruct

    def corrupted(rows, modulus):
        out = reconstruct(rows, modulus)
        row = out[-1]
        row.vec[max(row.vec, key=groebner._key)] += 1
        return out

    monkeypatch.setattr(groebner, "_reconstruct", corrupted)
    assert kernel_digest(syzygies(rows, 1)) == LADDER_PINS[7]


def test_each_check_rejects_what_only_it_sees():
    guard = get_degree_guard()
    # x | 1 | 0 and d | 0 | 1 are monic, reduced, in the module and generate
    # it, but their S-pair leaves (1 | d | -x): not a Groebner basis
    tagged = groebner._tagged(groebner.as_matrix([[X()], [D()]], 1))
    rows = [groebner._Row(dict(v)) for v in tagged]
    assert not groebner._certified(rows, tagged, 1, guard)
    # the unit vectors are the reduced basis of all of D^3, which holds the
    # module: only multiplying back sees that e_0 is not in it
    units = [groebner._Row(groebner._to_vec(FreeModuleElement.unit(3, 1, i))) for i in range(3)]
    assert not groebner._certified(units, tagged, 1, guard)
    # rung 7's kernel rows alone are a Groebner basis of a smaller module:
    # the tagged inputs do not reduce to 0
    tagged = groebner._tagged(groebner.as_matrix(ladder_matrix(7), 1))
    q_rows = groebner._groebner_rows(tagged, guard)
    assert not groebner._certified([r for r in q_rows if r.lm[0] >= 2], tagged, 2, guard)
    # adding the last row to the first keeps a monic Groebner basis of the
    # module, but no longer a reduced one
    first = dict(q_rows[0].vec)
    vec_add(first, q_rows[-1].vec)
    added = [groebner._Row(first)] + q_rows[1:]
    assert added[0].lm == q_rows[0].lm
    assert not groebner._certified(added, tagged, 2, guard)
    # twice the basis is no longer monic
    doubled = [groebner._Row({m: 2 * c for m, c in r.vec.items()}) for r in q_rows]
    assert not groebner._certified(doubled, tagged, 2, guard)
