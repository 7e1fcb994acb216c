"""The sparse-vector kernel and the echelon form built on it."""

import random
from fractions import Fraction

from dgdm.rational_linalg import Echelon, add_term, apply_linear, nullspace, solve, vec_add
from dgdm.slices import dsquare_witness


def F(n, d=1):
    return Fraction(n, d)


def test_add_term_drops_zero_sums():
    v = {"a": F(1)}
    add_term(v, "b", F(2))
    add_term(v, "a", F(-1))
    assert v == {"b": F(2)}
    add_term(v, "c", F(0))
    assert v == {"b": F(2)}


def test_vec_add_is_in_place_and_scaled():
    u = {"a": F(1), "b": F(1, 2)}
    src = {"b": F(1), "c": F(3)}
    assert vec_add(u, src, F(-1, 2)) is None
    assert u == {"a": F(1), "c": F(-3, 2)}
    assert src == {"b": F(1), "c": F(3)}


def test_apply_linear_matches_dense_matrix_product():
    rng = random.Random(3)
    keys = range(5)
    for _ in range(20):
        mat = {k: {j: F(rng.randint(-2, 2)) for j in keys if rng.random() < 0.5} for k in keys}
        vec = {k: F(rng.randint(-3, 3), rng.randint(1, 3)) for k in keys if rng.random() < 0.6}
        want = {j: sum((c * mat[k].get(j, 0) for k, c in vec.items()), F(0)) for j in keys}
        assert apply_linear(lambda k: mat[k], vec) == {j: c for j, c in want.items() if c}


def test_echelon_reduce_leaves_its_input_alone():
    ech = Echelon()
    ech.insert({0: F(1), 1: F(1)})
    vec = {0: F(2), 2: F(1)}
    assert ech.reduce(vec) == {1: F(-2), 2: F(1)}
    assert vec == {0: F(2), 2: F(1)}


def test_nullspace_vectors_map_to_zero():
    rng = random.Random(8)
    for _ in range(20):
        images = [(k, {j: F(rng.choice([-2, -1, 1, 2])) for j in range(3) if rng.random() < 0.6})
                  for k in range(5)]
        kernel = nullspace(images)
        # rank-nullity on the 5-dimensional domain
        ech = Echelon()
        for _, img in images:
            ech.insert(img)
        assert len(kernel) == 5 - ech.rank()
        for z in kernel:
            assert apply_linear(dict(images).__getitem__, z) == {}


def _all_fractions(vec):
    return all(type(c) is Fraction for c in vec.values())


def test_int_coefficients_give_exact_fraction_results():
    ech = Echelon()
    assert ech.insert({"a": 2, "b": 1}) == "a"
    assert ech.rows["a"] == {"a": F(1), "b": F(1, 2)} and _all_fractions(ech.rows["a"])
    rng = random.Random(5)
    for _ in range(20):
        images = [(k, {j: rng.choice([-3, -2, 2, 3]) for j in range(3) if rng.random() < 0.6})
                  for k in range(5)]
        kernel = nullspace(images)
        assert all(_all_fractions(z) for z in kernel)
        for z in kernel:
            assert apply_linear(dict(images).__getitem__, z) == {}
        # a random combination of the images is solved exactly
        coeffs = {k: rng.randint(-2, 2) for k in range(5)}
        target = {}
        for k, img in images:
            vec_add(target, img, F(coeffs[k]))
        sol = solve(images, target)
        assert sol is not None and _all_fractions(sol)
        back = {}
        for k, c in sol.items():
            vec_add(back, dict(images)[k], c)
        assert back == target
    assert solve([("g", {"a": 2})], {"a": 3}) == {"g": F(3, 2)}


def test_dsquare_witness_reports_the_first_failing_key():
    # key k sits in degree k and has weight k; d(d(k)) != 0 exactly for k = 3, 4
    diffs = {0: {}, 1: {}, 2: {1: F(1)}, 3: {2: F(1)}, 4: {2: F(1)}, 5: {1: F(1)}}
    basis = lambda p, w: [k for k in diffs if k == p and k <= w]  # noqa: E731
    assert dsquare_witness(basis, diffs.__getitem__, range(6), 5) == 3
    assert dsquare_witness(basis, diffs.__getitem__, range(4, 6), 5) == 4
    assert dsquare_witness(basis, diffs.__getitem__, range(6), 2) is None
