"""The sparse-vector kernel and the echelon form built on it."""

import random
from fractions import Fraction
from math import gcd

import pytest

from dgdm.rational_linalg import Echelon, add_term, apply_linear, nullspace, vec_add
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
    # rows are primitive int vectors with a positive pivot, whatever the input
    ech = Echelon()
    assert ech.insert({"a": 2, "b": 1}) == "a"
    assert ech.insert({"b": F(-2, 3), "c": F(4, 9)}) == "b"
    assert ech.insert({"a": 4, "b": 2, "d": F(1, 2)}) == "d"
    for piv, row in ech.rows.items():
        assert all(type(c) is int for c in row.values())
        assert row[piv] > 0 and min(row) == piv
        assert gcd(*row.values()) == 1
    assert ech.rows == {"a": {"a": 2, "b": 1}, "b": {"b": 3, "c": -2}, "d": {"d": 1}}
    assert not any(isinstance(c, float) for row in ech.rows.values() for c in row.values())
    rng = random.Random(5)
    for _ in range(20):
        images = [(k, {j: rng.choice([-3, -2, 2, 3]) for j in range(3) if rng.random() < 0.6})
                  for k in range(5)]
        kernel = nullspace(images)
        assert all(_all_fractions(z) for z in kernel)
        for z in kernel:
            assert apply_linear(dict(images).__getitem__, z) == {}


class _FractionEchelon:
    """The Fraction echelon form the integer kernel replaced, kept as its
    oracle: rows normalized to pivot coefficient 1, linear pivot scan."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        vec = dict(vec)
        while True:
            hit = None
            for k in vec:
                if k in self.rows:
                    if hit is None or k < hit:
                        hit = k
            if hit is None:
                return vec
            vec_add(vec, self.rows[hit], -vec[hit])

    def insert(self, vec):
        red = self.reduce(vec)
        if not red:
            return None
        piv = min(red)
        inv = F(1) / red[piv]
        self.rows[piv] = {k: c * inv for k, c in red.items()}
        return piv


def _fraction_nullspace(images):
    ech = _FractionEchelon()
    kernel = []
    for dk, img in images:
        vec = {(0, k): c for k, c in img.items()}
        vec[(1, dk)] = F(1)
        red = ech.reduce(vec)
        piv = min(red)
        if piv[0] == 1:
            kernel.append({k[1]: c for k, c in red.items()})
            continue
        inv = F(1) / red[piv]
        ech.rows[piv] = {k: c * inv for k, c in red.items()}
    return kernel


def _random_columns(rng):
    if rng.random() < 0.5:
        return list(range(rng.randint(1, 7)))
    return [(rng.choice("st"), i, (i % 3,)) for i in range(rng.randint(1, 7))]


def _random_vector(rng, columns):
    vec = {}
    for col in columns:
        if rng.random() < 0.5:
            c = rng.choice([-3, -2, -1, 1, 2, 3, 6])
            vec[col] = F(c, rng.randint(2, 6)) if rng.random() < 0.4 else c
    return vec


def _random_images(rng, columns):
    """(domain key, image) pairs with int and Fraction entries, empty
    images and repeated images; tuple domain keys with tuple columns."""
    images = []
    for j in range(rng.randint(1, 9)):
        roll = rng.random()
        if roll < 0.15:
            img = {}
        elif roll < 0.3 and images:
            img = dict(rng.choice(images)[1])
        else:
            img = _random_vector(rng, columns)
        images.append((("d", j) if isinstance(columns[0], tuple) else j, img))
    return images


def test_integer_kernel_matches_fraction_oracle():
    rng = random.Random(2024)
    for trial in range(400):
        columns = _random_columns(rng)
        images = _random_images(rng, columns)
        kernel = nullspace(images)
        ref = _fraction_nullspace(images)
        # entry for entry and in the same key order, so witnesses keep their bytes
        assert [list(z.items()) for z in kernel] == [list(z.items()) for z in ref], trial
        assert all(_all_fractions(z) for z in kernel)
        ech, oracle = Echelon(), _FractionEchelon()
        for _, img in images:
            piv = ech.insert(img)
            assert piv == oracle.insert(img), trial
            if piv is not None:
                # a primitive integer multiple of the oracle's row
                row = ech.rows[piv]
                assert all(type(c) is int for c in row.values()) and row[piv] > 0
                assert {k: F(c, row[piv]) for k, c in row.items()} == oracle.rows[piv]
        assert ech.rank() == len(oracle.rows)
        for _ in range(5):
            # a random vector, or a combination of the images, which lies in their span
            probe = _random_vector(rng, columns)
            if rng.random() < 0.5:
                probe = {}
                for _, img in images:
                    vec_add(probe, img, F(rng.randint(-2, 2), rng.randint(1, 3)))
            assert (not ech.reduce(probe)) == (not oracle.reduce(probe)), trial


def test_dsquare_witness_reports_the_first_failing_key():
    # key k sits in degree k and has weight k; d(d(k)) != 0 exactly for k = 3, 4
    diffs = {0: {}, 1: {}, 2: {1: F(1)}, 3: {2: F(1)}, 4: {2: F(1)}, 5: {1: F(1)}}
    basis = lambda p, w: [(k, k) for k in diffs if k == p and k <= w]  # noqa: E731
    assert dsquare_witness(basis, diffs.__getitem__, range(6), 5) == 3
    assert dsquare_witness(basis, diffs.__getitem__, range(4, 6), 5) == 4
    assert dsquare_witness(basis, diffs.__getitem__, range(6), 2) is None


# ------------------------------------------------------ one-term insert oracle

def _reference_insert(ech, vec):
    """`Echelon.insert` as it was before its one-term rule: every vector
    goes through `reduce` and `_add_row`."""
    red = ech.reduce(vec)
    if not red:
        return None
    piv = min(red)
    ech._add_row(piv, red)
    return piv


def _insert_sequences():
    """Seeded vectors, most of one term, over few columns so keys repeat,
    with int and Fraction coefficients (denominator-1 Fractions too)."""
    rng = random.Random(2525)
    coeffs = [-3, -1, 1, 2, 6, F(5, 2), F(-1, 3), F(4, 2), F(-7, 4)]
    for _ in range(300):
        columns = _random_columns(rng)
        seq = []
        for _ in range(rng.randint(1, 14)):
            if seq and rng.random() < 0.1:
                seq.append(dict(rng.choice(seq)))
                continue
            size = 1 if rng.random() < 0.6 else rng.randint(2, len(columns) + 1)
            keys = sorted(set(rng.choice(columns) for _ in range(size)))
            seq.append({k: rng.choice(coeffs) for k in keys})
        yield seq


def _insert_mismatch(insert):
    """The first sequence on which insert(ech, vec) and the reference part
    in a returned pivot, the rows (in insertion order), the rank or the
    nullspace; None if there is none."""
    one_term = 0
    for seq in _insert_sequences():
        ech, ref = Echelon(), Echelon()
        for vec in seq:
            one_term += len(vec) == 1
            if insert(ech, vec) != _reference_insert(ref, vec):
                return seq, vec
            if [(p, list(r.items())) for p, r in ech.rows.items()] != \
                    [(p, list(r.items())) for p, r in ref.rows.items()]:
                return seq, vec
        images = list(enumerate(seq))
        kernel = nullspace(images)
        if ech.rank() != ref.rank() or len(kernel) != len(seq) - ech.rank() \
                or kernel != _fraction_nullspace(images):
            return seq, None
    assert one_term > 1000
    return None


def test_one_term_inserts_match_reduce():
    assert _insert_mismatch(Echelon.insert) is None


def _mutant_insert(kind):
    """Echelon.insert with one fault in its one-term rule."""

    def insert(ech, vec):
        if len(vec) == 1:
            ((k, c),) = vec.items()
            row = ech.rows.get(k)
            if row is None:
                ech.rows[k] = {k: c} if kind == "coefficient" else {k: 1 if c > 0 else -1}
                return k
            if len(row) == 1 or kind == "long-row":
                return None
        return Echelon.insert(ech, vec)

    return insert


@pytest.mark.parametrize("kind", ["coefficient", "long-row", "sign"])
def test_the_insert_oracle_rejects_a_wrong_one_term_rule(kind):
    # storing {k: c}, returning None on a row at k with more terms, or
    # keeping a negative pivot each change the rows or a returned pivot
    assert _insert_mismatch(_mutant_insert(kind)) is not None
