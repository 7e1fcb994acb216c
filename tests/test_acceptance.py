"""Acceptance suite: the ten exit criteria, each at its stated tolerance.

Every test prints one `ACCEPTANCE <nn> <name>: PASS/FAIL (<t>s < <budget>s)`
line and asserts both the mathematical claim and the time budget.
Exact claims use Groebner arithmetic; claims about infinite-rank objects
use bounded-pass semantics at the truncation levels fixed here.
"""

import random
import time
from fractions import Fraction

import pytest

from dgdm.amod import AModuleElement, free_sphere_module
from dgdm.dga import Inclusion
from dgdm.complexes import disk, homology, is_acyclic, sphere
from dgdm.dga import Generator, SullivanAlgebra
from dgdm.groebner import (
    FreeModuleElement,
    buchberger,
    member,
    normal_form,
)
from dgdm.model import iota, pushout_product
from dgdm.obasis import tensor_free, truncated_acyclicity
from dgdm.randgen import (
    random_algebra,
    random_algebra_element,
    random_amodule,
    random_closed_element,
    random_module_element,
)
from dgdm.verify import run_check
from dgdm.weyl import WeylElement, act_on_poly

from test_groebner import brute_force_member, _random_vec, _random_w


def _report(number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s < {budget}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_pushout_product_cokernel():
    """coker(iota_m box iota_n) = D (x)_O D concentrated in degree m+n,
    for 1 <= m, n <= 3 and the iota_0 cases; exact structural match."""
    t0 = time.perf_counter()
    ok = True
    for m in range(0, 4):
        for n in range(0, 4):
            r = pushout_product(iota(m), iota(n))
            if set(r.cokernel) != {m + n} or len(r.cokernel[m + n]) != 1:
                ok = False
                continue
            sid = r.cokernel[m + n][0]
            slot = r.codomain.slots[sid]
            # a single slot with two d-exponent blocks is exactly the
            # O-basis {d^a e (x) d^b f} of D (x)_O D
            if slot.degree != m + n or slot.factors != 2:
                ok = False
    _report(1, "pushout_product_cokernel", ok, time.perf_counter() - t0, 5)


def test_criterion_02_flatness_counterexample():
    """member(1, GB{d}) = False: d (x) 1 is a nonzero kernel element of
    (d) (x)_D O -> O since its image d.1 vanishes."""
    t0 = time.perf_counter()
    d = WeylElement.d(1, 1)
    gb = buchberger([FreeModuleElement([d])])
    one = FreeModuleElement([WeylElement.one(1)])
    ok = (
        not member(one, gb)
        and normal_form(one, gb) == one
        and act_on_poly(d, WeylElement.one(1)).is_zero()
    )
    _report(2, "flatness_counterexample", ok, time.perf_counter() - t0, 1)


def test_criterion_03_disk_acyclicity_and_trivial_cofibrations():
    """H(D^n) = 0 for n <= 4 exactly; D^m (x) S^{n-1} and D^m (x) D^n are
    bounded-acyclic at truncation levels 6 and 7 for m, n <= 3."""
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        c = disk(n)
        for k in range(0, n + 1):
            if not homology(c, k).is_zero():
                ok = False
        if not is_acyclic(c):
            ok = False
    for m in range(1, 4):
        for n in range(1, 4):
            # truncated_acyclicity at N checks the slices N and N+1
            if not truncated_acyclicity(tensor_free(disk(m), sphere(n - 1)), 6).ok:
                ok = False
            if not truncated_acyclicity(tensor_free(disk(m), disk(n)), 6).ok:
                ok = False
    _report(3, "disk_acyclicity_trivial_cofibrations", ok, time.perf_counter() - t0, 30)


def test_criterion_04_monoid_axiom_pushout():
    """20 seeded (M, N): the pushout of zeta_n (x) Id_M along 0 -> N is a
    weak equivalence (cone bounded-acyclic)."""
    t0 = time.perf_counter()
    r = run_check("monoid_axiom_pushout", {"seeds": 20, "truncation": 5}, seed=42)
    _report(4, "monoid_axiom_pushout", r.verdict == "bounded-pass", time.perf_counter() - t0, 60)


def test_criterion_05_properness():
    """100 seeded pushouts of weqs along single-cell attachments in DGDM
    (exact) and in Mod(A) (bounded-pass), zero failures."""
    t0 = time.perf_counter()
    r = run_check(
        "properness_random",
        {"seeds_dgdm": 100, "seeds_amod": 100, "seeds_dgda": 10,
         "truncation": 4, "degree_window": 3},
        seed=42,
    )
    _report(5, "properness", r.verdict == "bounded-pass", time.perf_counter() - t0, 300)


def test_criterion_06_hac3_hac4():
    """20 seeded weqs f and Sullivan M (<= 3 cells): f (x)_A Id_M is a weq;
    20 seeded Sullivan B under A: B (x)_A f is a weq (bounded-pass)."""
    t0 = time.perf_counter()
    r3 = run_check("hac3_flatness", {"seeds": 20, "truncation": 4, "degree_window": 3}, seed=42)
    r4 = run_check("hac4_base_change", {"seeds": 20, "truncation": 4, "degree_window": 3}, seed=42)
    ok = r3.verdict == "bounded-pass" and r4.verdict == "bounded-pass"
    _report(6, "hac3_hac4", ok, time.perf_counter() - t0, 300)


def test_criterion_07_cmon_undercategory_roundtrip():
    """F o G and G o F are identities on 20 seeded objects and morphisms."""
    t0 = time.perf_counter()
    r = run_check("cmon_under_roundtrip", {"seeds": 20}, seed=42)
    _report(7, "cmon_undercategory_roundtrip", r.verdict == "pass", time.perf_counter() - t0, 10)


def test_criterion_08_extension_lemma_fidelity():
    """The constructed differential satisfies its defining formula verbatim
    on 50 probes, squares to zero, and is the unique differential with the
    required properties (10 perturbed candidates per instance violate them)."""
    t0 = time.perf_counter()
    ok = True
    probes_done = 0
    rng = random.Random(42)
    for instance in range(5):
        algebra = random_algebra(rng, max_gens=1, max_degree=2)
        t_mod = random_amodule(rng, algebra, cells=2, max_degree=2)
        n = rng.randint(1, 2)
        z = random_closed_element(rng, t_mod, n - 1)
        ext = t_mod.extended(Generator("c", n), z)
        include_t, new = Inclusion(t_mod, ext).apply, ext.generator(len(t_mod.generators))
        # (a) the formula d(t + a (x) v) = d_T t + d_A a (x) v + (-1)^k a . d(v)
        for _ in range(10):
            k_deg = rng.randint(0, 2)
            a = random_algebra_element(rng, algebra, k_deg, 2)
            t_elt = random_module_element(rng, t_mod, k_deg + n, 3)
            elt = include_t(t_elt) + ext.act_algebra(a, new)
            lhs = ext.d(elt)
            sign = Fraction(-1) if k_deg % 2 else Fraction(1)
            rhs = (
                include_t(t_mod.d(t_elt))
                + ext.act_algebra(algebra.d(a), new)
                + ext.act_algebra(a, include_t(z)).scale(sign)
            )
            if lhs != rhs:
                ok = False
            # (b) d^2 = 0 exactly
            if not ext.d(lhs).is_zero():
                ok = False
            probes_done += 1
        # (c) uniqueness: perturbing the extension off the generators breaks
        # the Leibniz compatibility with the A-action somewhere
        candidates = [
            key for p in range(0, 4) for key, _ in ext.basis_keys(p, 3)
            if key[1] == len(t_mod.generators) and (key[0][1] or sum(key[0][0]) > 0)
        ]
        rng.shuffle(candidates)
        tested = 0
        for k0 in candidates:
            if tested >= 10:
                break
            deg0 = ext.key_degree(k0)
            wit_keys = [k for k, _ in ext.basis_keys(deg0 - 1, 3)]
            if not wit_keys:
                continue
            w = AModuleElement(ext, {wit_keys[0]: Fraction(1)})
            tested += 1

            def perturbed(elem):
                base = ext.d(elem)
                c0 = elem.coeffs.get(k0, Fraction(0))
                return base + w.scale(c0)

            # witness pair: a' = the monomial part of k0, m = the bare atom
            (alpha0, atoms0), j0, b0 = k0
            from dgdm.dga import AlgebraElement

            a_mon = AlgebraElement(algebra, {(alpha0, atoms0): Fraction(1)})
            m_elt = AModuleElement(ext, {(((0,) * 1, ()), j0, b0): Fraction(1)})
            adeg = algebra.term_degree((alpha0, atoms0))
            sign = Fraction(-1) if adeg % 2 else Fraction(1)
            lhs = perturbed(ext.act_algebra(a_mon, m_elt))
            rhs = ext.act_algebra(algebra.d(a_mon), m_elt) + ext.act_algebra(
                a_mon, perturbed(m_elt)
            ).scale(sign)
            if lhs == rhs:  # the perturbed operator passed the module law: not unique
                ok = False
    ok = ok and probes_done >= 50
    _report(8, "extension_lemma_fidelity", ok, time.perf_counter() - t0, 30)


def test_criterion_09_filtration_lemmas():
    """20 seeded finite filtrations with stagewise weqs have weq colimit
    maps; 20 seeded graded-piece instances yield stagewise weqs."""
    t0 = time.perf_counter()
    r13 = run_check("limit_colimit_weq", {"seeds": 20, "stages": 2}, seed=42)
    r14 = run_check("graded_filtration_weq", {"seeds": 20, "stages": 2}, seed=42)
    ok = r13.verdict == "pass" and r14.verdict == "pass"
    _report(9, "filtration_lemmas", ok, time.perf_counter() - t0, 120)


def test_criterion_10_groebner_soundness():
    """Membership agrees with the brute-force degree-<=6 linear oracle on
    200 probes over 20 random generator sets; normal form idempotent."""
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(42)
    probes = 0
    sets_done = 0
    while sets_done < 20:
        gens = [_random_vec(rng, 2) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        sets_done += 1
        gb = buchberger(gens)
        for _ in range(10):
            if rng.random() < 0.5:
                v = FreeModuleElement.zero(2, 1)
                for g in gens:
                    v = v + g.left_mul(_random_w(rng, 1, 2, 1))
            else:
                v = _random_vec(rng, 2)
            probes += 1
            nf = normal_form(v, gb)
            if normal_form(nf, gb) != nf:
                ok = False
            got = member(v, gb)
            oracle = brute_force_member(v, gens, 6)
            # oracle-true must imply member-true
            if oracle and not got:
                ok = False
            if got:
                # member-true implies an explicit cofactor expression
                from dgdm.groebner import express_in_inputs

                u = express_in_inputs(v, gb)
                if u is None:
                    ok = False
                else:
                    acc = FreeModuleElement.zero(2, 1)
                    for c, g in zip(u, gens):
                        acc = acc + g.left_mul(c)
                    if acc != v:
                        ok = False
    ok = ok and probes >= 200
    _report(10, "groebner_soundness", ok, time.perf_counter() - t0, 120)
