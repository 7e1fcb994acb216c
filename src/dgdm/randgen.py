"""Seeded constructive generators for randomized checks.

Weak equivalences are never found by search: they are assembled from
pieces that are weak equivalences by construction (inclusions into
direct sums with cones of identities, chain-level shears, elementary
automorphisms, acyclic Sullivan extensions), so every seed yields a
valid input.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Tuple

from .complexes import (
    ChainMap,
    FreeDComplex,
    block_matrix,
    compose,
    direct_sum,
    disk,
    identity_map,
    identity_matrix,
    mapping_cone,
    mat_add,
    mat_apply,
    mat_mul,
    sphere,
    summand_inclusion,
    zero_matrix,
)
from .dga import (
    AlgebraElement,
    AlgebraMorphism,
    Generator,
    Inclusion,
    Morphism,
    SullivanAlgebra,
    compose_morphisms,
    extend_morphism,
)
from .groebner import FreeModuleElement, Matrix
from .weyl import WeylElement
from . import amod as amod_mod


def random_weyl(rng: random.Random, nvars: int = 1, max_terms: int = 2, max_exp: int = 1) -> WeylElement:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        a = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        b = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[(a, b)] = Fraction(rng.randint(-2, 2))
    return WeylElement(nvars, terms)


def random_complex(
    rng: random.Random,
    nvars: int = 1,
    max_top: int = 2,
    max_cells: int = 3,
    twists: int = 2,
) -> FreeDComplex:
    """A direct sum of spheres and disks conjugated by elementary
    automorphisms; d*d = 0 holds by construction."""
    pieces = [sphere(rng.randint(0, max_top), nvars)]
    for _ in range(rng.randint(0, max_cells - 1)):
        if rng.random() < 0.5:
            pieces.append(sphere(rng.randint(0, max_top), nvars))
        else:
            pieces.append(disk(rng.randint(1, max_top), nvars))
    c = pieces[0]
    for p in pieces[1:]:
        c = direct_sum(c, p)
    ranks = dict(c.ranks)
    diffs = {n: list(m.rows) for n, m in c.differentials.items()}
    for _ in range(twists):
        degrees = [n for n, r in ranks.items() if r >= 2]
        if not degrees:
            break
        n = rng.choice(degrees)
        r = ranks[n]
        i, j = rng.sample(range(r), 2)
        p = random_weyl(rng, nvars, 1, 1)
        if p.is_zero():
            continue
        # basis change e_i += p * e_j in degree n: row i of d_n gains p * row j,
        # and column j of d_{n+1} loses column i times p
        if n in diffs:
            diffs[n][i] = diffs[n][i] + diffs[n][j].left_mul(p)
        for k, row in enumerate(diffs.get(n + 1, ())):
            if i in row.entries:
                diffs[n + 1][k] = row - FreeModuleElement.sparse(r, nvars, {j: row.entries[i] * p})
    return FreeDComplex(nvars, ranks, {n: Matrix(tuple(rows), ranks.get(n - 1, 0)) for n, rows in diffs.items()})


def random_map_from_cone(rng: random.Random, z: FreeDComplex, x: FreeDComplex) -> ChainMap:
    """A chain map cone(id_Z) -> X from arbitrary degree-raising data u.

    With cone(id_Z)_n = Z_{n-1} (+) Z_n, any family u_n: Z_{n-1} -> X_n
    determines the chain map (a, b) |-> u(a) + v(b) where the chain
    condition forces v_n = u_n o d_Z + d_X o u_{n+1}; every choice of u
    works, so the family is as random as u is.
    """
    cone = mapping_cone(identity_map(z))
    nv = z.nvars
    u = {}
    for n in range(0, max(z.top + 2, x.top + 1) + 1):
        if z.rank(n - 1) and x.rank(n):
            u[n] = Matrix(tuple(
                FreeModuleElement([random_weyl(rng, nv, 1, 1) for _ in range(x.rank(n))])
                for _ in range(z.rank(n - 1))
            ), x.rank(n))
    maps = {}
    for n in range(0, cone.top + 1):
        rows_z1, rows_z = z.rank(n - 1), z.rank(n)
        cols = x.rank(n)
        if (rows_z1 + rows_z) == 0 or cols == 0:
            continue
        v = zero_matrix(rows_z, cols, nv)
        if n in u:
            v = mat_add(v, mat_mul(z.diff(n), u[n]))
        if (n + 1) in u:
            v = mat_add(v, mat_mul(u[n + 1], x.diff(n + 1)))
        maps[n] = block_matrix([[u.get(n)], [v]], (rows_z1, rows_z), (cols,), nv)
    return ChainMap(cone, x, maps)


def random_weq(
    rng: random.Random,
    x: Optional[FreeDComplex] = None,
    nvars: int = 1,
    max_top: int = 2,
) -> ChainMap:
    """A random weak equivalence out of x (or a fresh random complex).

    Shape: X -> X (+) cone(id_Z), the inclusion twisted by a shear that
    moves the cone summand into X; both pieces are weqs by construction.
    """
    if x is None:
        x = random_complex(rng, nvars, max_top)
    z = random_complex(rng, nvars, max(1, max_top - 1), 2, 0)
    cz = mapping_cone(identity_map(z))
    y = direct_sum(x, cz)
    inc = summand_inclusion(x, cz, 0)
    psi = random_map_from_cone(rng, z, x)
    # shear (x', c) |-> (x' + psi(c), c): a chain automorphism of Y
    maps = {}
    for n in y.degrees():
        sizes = (x.rank(n), cz.rank(n))
        maps[n] = block_matrix(
            [[identity_matrix(x.rank(n), x.nvars), None],
             [psi.component(n), identity_matrix(cz.rank(n), x.nvars)]],
            sizes, sizes, x.nvars,
        )
    shear = ChainMap(y, y, maps)
    return compose(inc, shear)


def random_cycle(rng: random.Random, c: FreeDComplex, n: int) -> FreeModuleElement:
    """A (possibly zero) cycle in degree n, built as a boundary plus any
    unit vectors that happen to be cycles."""
    r = c.rank(n)
    nvars = c.nvars
    if r == 0:
        raise ValueError(f"degree {n} is zero in this complex")
    out = FreeModuleElement.zero(r, nvars)
    if c.rank(n + 1):
        w = FreeModuleElement([random_weyl(rng, nvars, 1, 1) for _ in range(c.rank(n + 1))])
        out = out + mat_apply(w, c.diff(n + 1))
    if c.rank(n - 1) == 0 or n == 0:
        # everything is a cycle
        out = out + FreeModuleElement([random_weyl(rng, nvars, 1, 1) for _ in range(r)])
    else:
        for i, row in enumerate(c.diff(n).rows):
            if row.is_zero() and rng.random() < 0.5:
                out = out + FreeModuleElement.unit(r, nvars, i).left_mul(random_weyl(rng, nvars, 1, 1))
    return out


# ------------------------------------------------------------- algebras

def random_algebra(
    rng: random.Random,
    nvars: int = 1,
    max_gens: int = 2,
    max_degree: int = 3,
) -> SullivanAlgebra:
    """A Sullivan algebra with a lowering differential: each generator's
    differential is a boundary of the earlier part (hence closed)."""
    a = SullivanAlgebra.oh(nvars)
    for idx in range(rng.randint(0, max_gens)):
        deg = rng.randint(1, max_degree)
        d_assign = None
        if rng.random() < 0.5 and deg >= 1:
            cand = random_algebra_element(rng, a, deg, 3)
            d_assign = a.d(cand)
            if d_assign.is_zero():
                d_assign = None
        a = a.extended(Generator(f"g{idx}", deg), d_assign)
    return a


def _random_element(rng: random.Random, owner, element_class, degree: int, max_weight: int):
    """One or two random keys of the slice, with coefficients in -2..2
    (zero when the slice is empty); algebras and modules draw alike."""
    keys = [key for key, _ in owner.basis_keys(degree, max_weight)]
    coeffs = {}
    for _ in range(rng.randint(1, 2) if keys else 0):
        coeffs[rng.choice(keys)] = Fraction(rng.randint(-2, 2))
    return element_class(owner, coeffs)


def random_algebra_element(
    rng: random.Random, a: SullivanAlgebra, degree: int, max_weight: int = 3
) -> AlgebraElement:
    return _random_element(rng, a, AlgebraElement, degree, max_weight)


def random_algebra_weq(
    rng: random.Random, x: SullivanAlgebra, pairs: int = 1
) -> Tuple[SullivanAlgebra, Morphism]:
    """X -> X (x) (acyclic Sullivan extension), postcomposed with a shear.

    The shear sends one generator g_j to g_j + d(u), u on earlier
    generators; it is an automorphism, and a chain map because g_j is
    sheared only when no later differential involves it.
    """
    y = x
    for k in range(pairs):
        deg = rng.randint(1, 2)
        y = y.extended(Generator(f"a{k}", deg), None)
        y = y.extended(Generator(f"b{k}", deg + 1), y.generator(len(y.generators) - 1))
    f = Inclusion(x, y)
    if y.generators and rng.random() < 0.7:
        j = rng.randrange(len(y.generators))
        deg = y.generators[j].degree
        u = random_algebra_element(rng, y, deg + 1, 3)
        u = AlgebraElement(
            y, {k: c for k, c in u.coeffs.items() if all(a[0] < j for a in k[1])}
        )
        w = y.d(u)
        involved = any(a[0] == j for coeffs in y.diff_coeffs.values() for key in coeffs for a in key[1])
        if not w.is_zero() and not involved:
            shear_assign = {i: y.generator(i) for i in range(len(y.generators))}
            shear_assign[j] = y.generator(j) + w
            f = compose_morphisms(f, AlgebraMorphism(y, y, shear_assign))
    return y, f


# ------------------------------------------------------------- A-modules

def random_amodule(
    rng: random.Random,
    algebra: SullivanAlgebra,
    cells: int = 2,
    max_degree: int = 3,
) -> amod_mod.AModule:
    """A Sullivan A-module built by attaching cells along closed elements."""
    base = amod_mod.free_sphere_module(algebra, rng.randint(0, max_degree - 1), name="b")
    current = base
    for idx in range(cells - 1):
        n = rng.randint(1, max_degree)
        z = random_closed_element(rng, current, n - 1)
        current = current.extended(Generator(f"c{idx}", n), z)
    return current


def random_module_element(
    rng: random.Random, m: amod_mod.AModule, degree: int, max_weight: int = 3
) -> amod_mod.AModuleElement:
    return _random_element(rng, m, amod_mod.AModuleElement, degree, max_weight)


def random_closed_element(
    rng: random.Random, m: amod_mod.AModule, degree: int
) -> amod_mod.AModuleElement:
    """A closed element: the boundary of a random element (or zero)."""
    if rng.random() < 0.3:
        return m.zero()
    return m.d(random_module_element(rng, m, degree + 1))


def random_amodule_weq(
    rng: random.Random, p: amod_mod.AModule
) -> Tuple[amod_mod.AModule, Morphism]:
    """P -> P + (contractible cell pair), composed with a shear."""
    n = rng.randint(1, 2)
    mid = amod_mod.transfinite_compose_finite(p, [(n, None)]).module
    top_gen = mid.generator(len(mid.generators) - 1)
    q = amod_mod.transfinite_compose_finite(mid, [(n + 1, top_gen)]).module
    f = Inclusion(p, q)
    # shear the top cell by a boundary
    top = len(q.generators) - 1
    w = q.d(random_module_element(rng, q, q.generators[top].degree + 1))
    if not w.is_zero():
        shear = extend_morphism(Inclusion(mid, q), q, q, {top: q.generator(top) + w})
        f = compose_morphisms(f, shear)
    return q, f
