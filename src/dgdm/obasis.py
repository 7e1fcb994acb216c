"""Complexes with countable O-basis: tensor products and bounded exactness.

Tensor products over O of free D-complexes have infinite rank over D but
are free over O: D (x)_O D has O-basis {d^a e (x) d^b f}.  A basis key is

    (slot, alpha, (b_1, ..., b_k))

where the slot names a tensor component (degree and factor structure),
alpha is the x-exponent of the O-coefficient (absorbed into the first
factor), and the b_i are the d-exponents of the k factors.  The weight
|alpha| + sum |b_i| slices each degree into finite-dimensional pieces.

Differentials and chain maps are specified slot-to-slot by a factor
index and a WeylElement: the incoming factor's operator multiplies the
given element on the left and the product is re-expanded in the basis,
with any x-part joining the global O-coefficient.

Acyclicity of these objects is only ever certified on truncation slices
(exact Q-linear algebra, margin 2) and reported as "bounded-pass",
never as unconditional truth.  A chain map is checked on its mapping
cone, the one `slices.bounded_weq` numbers for every bounded check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Hashable, Iterator, List, Sequence, Tuple

from .complexes import FreeDComplex
from .rational_linalg import add_term, apply_linear, integral
from .slices import TruncationResult, bounded_weq, sliced_acyclicity
from .weyl import WeylElement, exponents_bounded, mono_mul

SlotId = Hashable
# a differential/map entry: (target slot, factor index, coefficient)
Entry = Tuple[SlotId, int, WeylElement]
Key = Tuple[SlotId, Tuple[int, ...], Tuple[Tuple[int, ...], ...]]
Element = Dict[Key, Fraction]

DEFAULT_TRUNCATION = 6


@dataclass(frozen=True)
class Slot:
    degree: int
    factors: int  # number of d-exponent blocks carried by basis elements


class OBasisComplex:
    """A non-negatively graded complex presented on a countable O-basis."""

    def __init__(self, nvars: int, slots: Dict[SlotId, Slot], diff: Dict[SlotId, List[Entry]]):
        self.nvars = nvars
        self.slots = dict(slots)
        self.diff_entries = {s: list(es) for s, es in diff.items() if es}
        for sid, entries in self.diff_entries.items():
            sl = self.slots[sid]
            for tgt, factor, coef in entries:
                if tgt not in self.slots:
                    raise ValueError(f"entry from {sid} targets unknown slot {tgt}")
                if self.slots[tgt].degree != sl.degree - 1:
                    raise ValueError(f"entry from {sid} to {tgt} does not lower degree by 1")
                if not 0 <= factor < sl.factors:
                    raise ValueError(f"factor index {factor} out of range for slot {sid}")
                if coef.nvars != nvars:
                    raise ValueError("coefficient over the wrong Weyl algebra")

    @property
    def top(self) -> int:
        return max((s.degree for s in self.slots.values()), default=-1)

    def top_degree(self, window) -> int:
        return self.top + 1  # whatever the window: a cone shifts a source's `top` up by one

    def slots_in_degree(self, p: int) -> List[SlotId]:
        return sorted(
            (sid for sid, s in self.slots.items() if s.degree == p),
            key=repr,
        )

    # -- elements -----------------------------------------------------

    def apply_entries(self, key: Key, entries: Sequence[Entry]) -> Element:
        """Expand the action of slot-to-slot entries on one basis element."""
        sid, alpha, bs = key
        zero_a = (0,) * self.nvars
        out: Element = {}
        for tgt, factor, coef in entries:
            tgt_factors = self.slots[tgt].factors
            # the factor's operator times coef; for a factor other than the
            # first, the x-part of the product joins the O-coefficient
            left = (zero_a, bs[factor]) if factor else (alpha, bs[0])
            head, tail = bs[:factor], bs[factor + 1:]
            for mono, c in coef.terms.items():
                for (na, nb), k in mono_mul(left, mono).items():
                    if factor:
                        na = tuple(map(add, alpha, na))
                    nkey = (tgt, na, (head + (nb,) + tail)[:tgt_factors])
                    add_term(out, nkey, integral(c if k == 1 else c * k))
        return out

    def diff_key(self, key: Key) -> Element:
        return self.apply_entries(key, self.diff_entries.get(key[0], ()))

    # -- basis enumeration ---------------------------------------------

    def basis_keys(self, p: int, max_weight: int) -> Iterator[Tuple[Key, int]]:
        """The (key, weight) pairs of degree p and weight <= max_weight."""
        for sid in self.slots_in_degree(p):
            k = self.slots[sid].factors
            for exps, weight in _bounded_exponent_blocks(self.nvars, k + 1, max_weight):
                yield (sid, exps[0], tuple(exps[1:])), weight


def _bounded_exponent_blocks(nvars: int, blocks: int, total: int):
    """Each tuple of `blocks` exponent vectors of combined degree <= total, with that degree."""
    for e in exponents_bounded(nvars, total):
        used = sum(e)
        if blocks == 1:
            yield (e,), used
        else:
            for rest, more in _bounded_exponent_blocks(nvars, blocks - 1, total - used):
                yield (e,) + rest, used + more


class OBasisChainMap:
    """A chain map between O-basis complexes given by slot-to-slot entries."""

    def __init__(self, source: OBasisComplex, target: OBasisComplex, entries: Dict[SlotId, List[Entry]]):
        if source.nvars != target.nvars:
            raise ValueError("source and target over different Weyl algebras")
        self.source = source
        self.target = target
        self.entries = {s: list(es) for s, es in entries.items() if es}
        for sid, es in self.entries.items():
            sdeg = source.slots[sid].degree
            for tgt, factor, coef in es:
                if target.slots[tgt].degree != sdeg:
                    raise ValueError("chain map entry changes degree")

    def apply_key(self, key: Key) -> Element:
        return self.target.apply_entries(key, self.entries.get(key[0], ()))

    def check_chain_property(self, max_weight: int = 3):
        """f d = d f on basis elements up to the given weight."""
        for p in range(1, self.source.top + 1):
            for key, _ in self.source.basis_keys(p, max_weight):
                lhs = apply_linear(self.apply_key, self.source.diff_key(key))
                rhs = apply_linear(self.target.diff_key, self.apply_key(key))
                if lhs != rhs:
                    raise ValueError(f"chain property fails on {key}")


def obasis_of_free(c: FreeDComplex) -> OBasisComplex:
    """View a free complex through its O-basis {x^a d^b e_s}, slots ("F", n, s)."""
    slots: Dict[SlotId, Slot] = {}
    diff: Dict[SlotId, List[Entry]] = {}
    for n, r in c.ranks.items():
        for s in range(r):
            slots[("F", n, s)] = Slot(degree=n, factors=1)
    for n, mat in c.differentials.items():
        for s, row in enumerate(mat.rows):  # the constructor drops empty entry lists
            diff[("F", n, s)] = [(("F", n - 1, v), 0, e) for v, e in row.items()]
    return OBasisComplex(c.nvars, slots, diff)


def tensor_free(c1: FreeDComplex, c2: FreeDComplex) -> OBasisComplex:
    """C (x)_O C' with the Leibniz D-action and differential d(x)1 + (-1)^i 1(x)d.

    Slots are (i, j, s, t): degree-i basis index s of the first factor
    against degree-j index t of the second; basis elements carry two
    d-exponent blocks.
    """
    if c1.nvars != c2.nvars:
        raise ValueError("factors over different Weyl algebras")
    nvars = c1.nvars
    slots: Dict[SlotId, Slot] = {}
    diff: Dict[SlotId, List[Entry]] = {}
    for i, r1 in c1.ranks.items():
        for j, r2 in c2.ranks.items():
            for s in range(r1):
                for t in range(r2):
                    slots[(i, j, s, t)] = Slot(degree=i + j, factors=2)
    for (i, j, s, t) in list(slots):
        entries: List[Entry] = []
        if i in c1.differentials:
            entries += [((i - 1, j, v, t), 0, e) for v, e in c1.differentials[i].rows[s].items()]
        if j in c2.differentials:
            sign = 1 if i % 2 == 0 else -1
            entries += [((i, j - 1, s, w), 1, e.scale(sign)) for w, e in c2.differentials[j].rows[t].items()]
        diff[(i, j, s, t)] = entries
    return OBasisComplex(nvars, slots, diff)


def obasis_direct_sum(t1: OBasisComplex, t2: OBasisComplex) -> OBasisComplex:
    if t1.nvars != t2.nvars:
        raise ValueError("summands over different Weyl algebras")
    slots: Dict[SlotId, Slot] = {}
    diff: Dict[SlotId, List[Entry]] = {}
    for idx, t in ((0, t1), (1, t2)):
        for sid, s in t.slots.items():
            slots[(idx, sid)] = s
        for sid, es in t.diff_entries.items():
            diff[(idx, sid)] = [((idx, tgt), f, c) for tgt, f, c in es]
    return OBasisComplex(t1.nvars, slots, diff)


def obasis_inclusion(t1: OBasisComplex, t2: OBasisComplex, which: int) -> OBasisChainMap:
    total = obasis_direct_sum(t1, t2)
    src = t1 if which == 0 else t2
    one = WeylElement.one(src.nvars)
    entries = {sid: [((which, sid), 0, one)] for sid in src.slots}
    return OBasisChainMap(src, total, entries)


# ---------------------------------------------------------------- truncation

def truncated_acyclicity(t: OBasisComplex, n: int = DEFAULT_TRUNCATION) -> TruncationResult:
    """Check exactness of every degree on the weight-<= n slice, margin 2.

    Cycles of weight <= n-2 must bound elements of weight <= n; the check
    runs at levels n and n+1 and only then reports bounded-pass.
    """
    return sliced_acyclicity(t, None, n)


def is_bounded_weq(f: OBasisChainMap, n: int = DEFAULT_TRUNCATION) -> TruncationResult:
    """Bounded weak-equivalence test on the cone `slices.bounded_weq` walks;
    witnesses come back on keys ("s", source key) and ("t", target key)."""
    return bounded_weq(f.source, f.target, f.apply_key, None, n)
