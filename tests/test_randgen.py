"""Constructive generators: every seed yields a valid input, no rejection."""

import random

from dgdm.complexes import identity_map, is_weak_equivalence, mapping_cone, mat_apply
from dgdm.amod import amodule_bounded_weq
from dgdm.dga import algebra_bounded_weq
from dgdm.randgen import (
    random_algebra,
    random_algebra_weq,
    random_amodule,
    random_amodule_weq,
    random_complex,
    random_cycle,
    random_map_from_cone,
    random_weq,
)


def test_random_complexes_always_valid():
    for seed in range(40):
        rng = random.Random(seed)
        c = random_complex(rng)  # constructor validates d*d = 0
        assert c.top >= 0


def test_random_weqs_are_weqs_exactly():
    for seed in range(20):
        rng = random.Random(1000 + seed)
        f = random_weq(rng)
        assert is_weak_equivalence(f), seed


def test_random_cycles_are_cycles():
    for seed in range(20):
        rng = random.Random(2000 + seed)
        c = random_complex(rng)
        degrees = [n for n in range(0, c.top + 1) if c.rank(n)]
        n = rng.choice(degrees)
        z = random_cycle(rng, c, n)
        if n >= 1 and c.rank(n - 1):
            img = mat_apply(z, c.diff(n))
            assert img.is_zero()


def test_random_cone_maps_are_chain_maps():
    # the ChainMap constructor rejects non-chain maps, so construction is the test
    for seed in range(15):
        rng = random.Random(3000 + seed)
        z = random_complex(rng, max_top=1, max_cells=2, twists=0)
        x = random_complex(rng, max_top=2, max_cells=2)
        random_map_from_cone(rng, z, mapping_cone(identity_map(z)), x)


def test_random_algebra_weqs_bounded_pass():
    for seed in range(5):
        rng = random.Random(4000 + seed)
        a = random_algebra(rng, max_gens=1, max_degree=2)
        _, f = random_algebra_weq(rng, a)
        assert algebra_bounded_weq(f, 4, 3).ok, seed


def test_random_amodule_weqs_bounded_pass():
    for seed in range(5):
        rng = random.Random(5000 + seed)
        a = random_algebra(rng, max_gens=1, max_degree=2)
        p = random_amodule(rng, a, cells=2, max_degree=2)
        _, f = random_amodule_weq(rng, p)
        assert amodule_bounded_weq(f, 4, 3).ok, seed
