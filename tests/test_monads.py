"""Formal monad towers: structure maps and laws on random probes."""

import hashlib
import random
from fractions import Fraction

from dgdm.complexes import disk, sphere
from dgdm.dga import Generator, SullivanAlgebra
from dgdm.monads import (
    FormalSym,
    FreeBase,
    TensorWithA,
    check_sym_monad_laws,
    check_tensor_monad_laws,
    o_linear,
    sym_eta,
    sym_mu,
    tensor_eta,
    tensor_mu,
)
from dgdm.verify import _monad_probes


def random_probes(rng, cores, levels=3, count=8):
    probes = []
    for _ in range(count):
        elem = {}
        for _ in range(rng.randint(1, levels)):
            elem[((rng.randint(0, 2),), rng.choice(cores))] = Fraction(rng.randint(-2, 2))
        elem = {k: v for k, v in elem.items() if v}
        if elem:
            probes.append(elem)
    return probes


def test_sym_monad_laws_small():
    rng = random.Random(0)
    c = disk(1)
    s3 = FormalSym(FormalSym(FormalSym(FreeBase(c))))
    cores = [core for d in range(0, 4) for core in s3.cores(d, 4)]
    assert check_sym_monad_laws(c, random_probes(rng, cores)) == []


def test_sym_monad_laws_with_sphere():
    rng = random.Random(1)
    c = sphere(1)
    s3 = FormalSym(FormalSym(FormalSym(FreeBase(c))))
    cores = [core for d in range(0, 4) for core in s3.cores(d, 4)]
    assert check_sym_monad_laws(c, random_probes(rng, cores)) == []


def test_tensor_monad_laws():
    rng = random.Random(2)
    c = disk(1)
    a = SullivanAlgebra(1, [Generator("g", 1), Generator("u", 2)])
    u3 = TensorWithA(a, TensorWithA(a, TensorWithA(a, FreeBase(c))))
    cores = [core for d in range(0, 4) for core in u3.cores(d, 4)]
    assert check_tensor_monad_laws(a, c, random_probes(rng, cores)) == []


def test_unit_triangle_concrete():
    # O case: U = Id-like, laws trivially exact on a concrete element
    a = SullivanAlgebra.oh(1)
    base = FreeBase(sphere(0))
    u1 = TensorWithA(a, base)
    u2 = TensorWithA(a, u1)
    w = {((1,), ((), (0, 0, (2,)))): Fraction(3)}
    assert tensor_mu(u2, tensor_eta(w)) == w


def test_sym_differential_squares_to_zero():
    # d is O-linear, so d*d = 0 on the cores (alpha = 0) gives it everywhere
    s2 = FormalSym(FormalSym(FreeBase(disk(2))))
    for deg in range(0, 5):
        for core in list(s2.cores(deg, 4))[:30]:
            dd = o_linear(s2.diff_core, o_linear(s2.diff_core, {((0,), core): 1}))
            assert dd == {}, core


def test_tower_differential_values_are_pinned():
    # the values of d on S(S(C)), not just d*d = 0, are pinned
    lines = []
    for c in (disk(1), sphere(1), disk(2)):
        s2 = FormalSym(FormalSym(FreeBase(c)))
        for d in range(0, 4):
            for core in s2.cores(d, 4):
                v = o_linear(s2.diff_core, {((0,), core): 1})
                lines.append(repr(sorted(v.items(), key=repr)))
    assert len(lines) == 64
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "2006bd1e9bc3eb2a5209d0554ac5a3edcd0e5a2abe4df93d4f61f48ac3896cbd")


def test_sym_monad_laws_catch_a_differential_that_is_no_derivation(monkeypatch):
    # d acting on the first factor of a product alone keeps every monad
    # law, but mu stops commuting with it
    def first_factor_only(self, core):
        out = {}
        for (gamma, atom), c in (self.base.diff_core(core[0]) if core else {}).items():
            norm = self.normalize((atom,) + core[1:])
            if norm is not None:
                key = (gamma, norm[1])
                out[key] = out.get(key, 0) + c * norm[0]
        return {k: v for k, v in out.items() if v}

    rng = random.Random(0)
    c = disk(1)
    s3 = FormalSym(FormalSym(FormalSym(FreeBase(c))))
    cores = [core for d in range(0, 4) for core in s3.cores(d, 4)]
    probes = random_probes(rng, cores)
    monkeypatch.setattr(FormalSym, "diff_core", first_factor_only)
    assert check_sym_monad_laws(c, probes) == ["mu chain map"]


def test_structure_map_values_are_pinned():
    # the suite's probe draws; values, not just laws, are pinned
    a = SullivanAlgebra(1, [Generator("g", 1), Generator("u", 2)])
    lines = []
    for c in (disk(1), sphere(1), disk(2)):
        s2 = FormalSym(FormalSym(FreeBase(c)))
        s3 = FormalSym(s2)
        u2 = TensorWithA(a, TensorWithA(a, FreeBase(c)))
        u3 = TensorWithA(a, u2)
        s3_cores = [core for d in range(0, 4) for core in s3.cores(d, 4)]
        u3_cores = [core for d in range(0, 4) for core in u3.cores(d, 4)]
        for seed in range(5):
            rng = random.Random(seed)
            for z in _monad_probes(rng, s3_cores, 8):
                lines.append(sym_mu(s3, z))
                lines.append(sym_mu(s2, sym_mu(s3, z)))
            for z in _monad_probes(rng, u3_cores, 8):
                lines.append(tensor_mu(u3, z))
                lines.append(tensor_mu(u2, tensor_mu(u3, z)))
    text = "\n".join(repr(sorted(v.items(), key=repr)) for v in lines)
    assert len(lines) == 434
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fb7faf5ed51ff4e2d9c7ca261fc3bdb9d1ed0ac95e2f134b824e1ba24b4bc761")


def test_tensor_monad_laws_catch_a_mu_that_drops_the_atoms(monkeypatch):
    rng = random.Random(2)
    c = disk(1)
    a = SullivanAlgebra(1, [Generator("g", 1), Generator("u", 2)])
    u3 = TensorWithA(a, TensorWithA(a, TensorWithA(a, FreeBase(c))))
    cores = [core for d in range(0, 4) for core in u3.cores(d, 4)]
    probes = random_probes(rng, cores)
    monkeypatch.setattr("dgdm.monads._normalize_atoms", lambda atoms, par: (1, ()))
    assert check_tensor_monad_laws(a, c, probes) == ["left unit"]
