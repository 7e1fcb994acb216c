"""Shared fixtures: one counted `dgdm suite --seed 42` read by the
suite-wide count gates."""

import io
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from dgdm import cli, groebner, slices, weyl
from dgdm.rational_linalg import Echelon


@pytest.fixture(scope="session")
def suite_counts():
    """Calls made by one `dgdm suite --seed 42`: `mono_mul`, Groebner loops
    (`_groebner_rows`), `slices.nullspace`, `Echelon.reduce` and
    `Echelon.insert`, and the inserts holding a Fraction with denominator 1.
    Every binding is put back when the run ends."""
    counts = Counter()
    mono_mul, rows, nullspace = weyl.mono_mul, groebner._groebner_rows, slices.nullspace
    insert, reduce_ = Echelon.insert, Echelon.reduce

    def counted_mono_mul(m1, m2):
        counts["mono_mul"] += 1
        return mono_mul(m1, m2)

    def counted_rows(*args, **kwargs):
        counts["groebner loops"] += 1
        return rows(*args, **kwargs)

    def counted_nullspace(images):
        counts["nullspace"] += 1
        return nullspace(images)

    def counted_reduce(self, vec):
        counts["reduce"] += 1
        return reduce_(self, vec)

    def counted_insert(self, vec):
        counts["insert"] += 1
        counts["integral Fraction"] += any(type(c) is Fraction and c.denominator == 1 for c in vec.values())
        return insert(self, vec)

    with pytest.MonkeyPatch.context() as mp:
        for name, mod in list(sys.modules.items()):
            if name.startswith("dgdm") and getattr(mod, "mono_mul", None) is mono_mul:
                mp.setattr(mod, "mono_mul", counted_mono_mul)
        mp.setattr(groebner, "_groebner_rows", counted_rows)
        mp.setattr(slices, "nullspace", counted_nullspace)
        mp.setattr(Echelon, "reduce", counted_reduce)
        mp.setattr(Echelon, "insert", counted_insert)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(["suite", "--seed", "42"]) == 0
    return counts
