"""Catalog of named, reproducible checks.

Each check certifies one mechanically verifiable claim at desk scale and
returns a CheckReport.  Verdicts are exact ("pass"/"fail") where the
computation is exact Groebner arithmetic, and "bounded-pass" where an
infinite-rank object was verified on two consecutive truncation slices;
the suite never upgrades bounded-pass to pass.  Reports are
deterministic functions of (parameters, seed); failures always carry a
witness, re-verified independently where possible.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import amod as am
from . import dga as dg
from . import model as md
from . import monads as mo
from . import obasis as ob
from . import randgen as rg
from .complexes import (
    ChainMap,
    ConnectionModule,
    FreeDComplex,
    block_matrix,
    compose,
    direct_sum,
    disk,
    homology,
    identity_map,
    identity_matrix,
    is_acyclic,
    is_weak_equivalence,
    mapping_cone,
    shift,
    sphere,
    summand_inclusion,
    summand_projection,
    tensor_chain_map_with_connection,
    tensor_with_connection,
    zero_map,
)
from .groebner import FreeModuleElement, buchberger, member, normal_form, submodule_equal
from .rational_linalg import apply_linear, vec_add
from .weyl import WeylElement, act_on_poly, filtration_decompose


@dataclass
class CheckReport:
    """Outcome of one named check."""

    name: str
    verdict: str  # "pass" | "bounded-pass" | "fail"
    witness: Optional[Dict] = None
    runtime: float = 0.0
    parameters: Dict = field(default_factory=dict)

    def to_text(self) -> str:
        """Stable one-document serialization (field order fixed).

        Runtime is left out so that identical (params, seed) yield
        identical bytes.
        """
        doc = {
            "check": self.name,
            "verdict": self.verdict,
            "parameters": _jsonify(self.parameters),
            "witness": _jsonify(self.witness),
        }
        return json.dumps(doc, sort_keys=False, indent=1)


def _jsonify(value):
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, WeylElement):
        return value.to_string()
    if isinstance(value, FreeModuleElement):
        return [c.to_string() for c in value.coords]
    if isinstance(value, dict):
        return {str(_jsonify(k)): _jsonify(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return str(value)


def _combine(verdicts: List[str]) -> str:
    if any(v == "fail" for v in verdicts):
        return "fail"
    if any(v == "bounded-pass" for v in verdicts):
        return "bounded-pass"
    return "pass"


# =================================================================== checks

def check_flatness_counterexample(rng, params):
    """1 not in D.d certifies d (x) 1 != 0 in (d) (x)_D O while its image
    in O vanishes: the kernel of the tensored inclusion is nonzero."""
    d = WeylElement.d(1, 1)
    one = FreeModuleElement([WeylElement.one(1)])
    gb = buchberger([FreeModuleElement([d])])
    nf = normal_form(one, gb)
    is_member = member(one, gb)
    image = act_on_poly(d, WeylElement.one(1))
    ok = (not is_member) and nf == one and image.is_zero()
    witness = {
        "normal_form_of_1_mod_Dd": nf,
        "member(1, D.d)": is_member,
        "action_of_d_on_1": "0" if image.is_zero() else "nonzero",
    }
    return ("pass" if ok else "fail"), witness


def check_filtration_splitting(rng, params):
    """The order filtration splits: decomposition into homogeneous-order
    parts is a linear bijection onto finitely supported sequences."""
    n_samples = params["samples"]
    cap = params["max_order"]
    for _ in range(n_samples):
        p = rg.random_weyl(rng, 1, 5, cap)
        q = rg.random_weyl(rng, 1, 5, cap)
        ps, qs, ss = filtration_decompose(p), filtration_decompose(q), filtration_decompose(p + q)
        total = {}
        for j, comp in enumerate(ps):
            vec_add(total, comp.terms)
            if any(sum(b) != j for (_, b) in comp.terms):
                return "fail", {"element": p, "bad_component": j}
        if total != p.terms:
            return "fail", {"element": p, "reassembled": WeylElement(1, total)}
        # linearity: decompose(p + q) is the componentwise sum
        for j in range(max(len(ps), len(qs), len(ss))):
            total = {}
            for xs in (ps, qs):
                if j < len(xs):
                    vec_add(total, xs[j].terms)
            if total != (ss[j].terms if j < len(ss) else {}):
                return "fail", {"p": p, "q": q, "component": j}
    return "pass", None


def check_disks_acyclic(rng, params):
    for n in range(1, params["max_n"] + 1):
        c = disk(n)
        for k in range(0, n + 1):
            h = homology(c, k)
            if not h.is_zero():
                return "fail", {"n": n, "degree": k, "generators": h.generators}
        if not is_acyclic(c):
            return "fail", {"n": n}
    return "pass", None


def check_pushout_product_cokernel(rng, params):
    """coker(iota_m box iota_n) is a single D (x)_O D in degree m+n."""
    mx = params["max_mn"]
    for m in range(0, mx + 1):
        for n in range(0, mx + 1):
            r = md.pushout_product(md.iota(m), md.iota(n))
            if set(r.cokernel) != {m + n} or len(r.cokernel[m + n]) != 1:
                return "fail", {"m": m, "n": n, "cokernel_degrees": sorted(r.cokernel)}
            sid = r.cokernel[m + n][0]
            slot = r.codomain.slots[sid]
            if slot.degree != m + n or slot.factors != 2:
                return "fail", {"m": m, "n": n, "slot": str(sid)}
    return "pass", None


def check_trivial_pp_weq(rng, params):
    """zeta_m box iota_n has bounded-acyclic cone; both sides are
    bounded-acyclic tensors of an acyclic disk."""
    mx, trunc = params["max_mn"], params["truncation"]
    for m in range(1, mx + 1):
        for n in range(0, mx + 1):
            r = md.pushout_product(md.zeta(m), md.iota(n))
            for label, t in (("domain", r.domain), ("codomain", r.codomain)):
                if t.slots:
                    res = ob.truncated_acyclicity(t, trunc)
                    if not res.ok:
                        return "fail", {"m": m, "n": n, "side": label, "witness": res.witness}
            res = ob.is_bounded_weq(r.map, trunc)
            if not res.ok:
                return "fail", {"m": m, "n": n, "side": "cone", "witness": res.witness}
    return "bounded-pass", None


def check_monoid_axiom_pushout(rng, params):
    """The pushout of zeta_n (x) Id_M along 0 -> N is (D^n (x) M) (+) N and
    the second leg is a weak equivalence (bounded)."""
    for seed_idx in range(params["seeds"]):
        n = rng.randint(1, 2)
        m_cx = rg.random_complex(rng, max_top=1, max_cells=2, twists=1)
        n_cx = rg.random_complex(rng, max_top=2, max_cells=2, twists=1)
        tensor = ob.tensor_free(disk(n), m_cx)
        i2 = ob.obasis_inclusion(tensor, ob.obasis_of_free(n_cx), 1)
        res = ob.is_bounded_weq(i2, params["truncation"])
        if not res.ok:
            return "fail", {"instance": seed_idx, "n": n, "witness": res.witness}
    return "bounded-pass", None


def check_properness_random(rng, params):
    """Pushouts of weqs along single-cell attachments stay weqs, in DGDM
    (exact), DGDA (bounded), and Mod(A) (bounded)."""
    for idx in range(params["seeds_dgdm"]):
        f = rg.random_weq(rng)
        x = f.source
        candidates = [n for n in range(1, 4) if x.rank(n - 1) > 0]
        if not candidates:
            continue
        n = rng.choice(candidates)
        z = rg.random_cycle(rng, x, n - 1)
        res = md.attach_cells(x, [(n, z)])
        po = md.pushout(f, res.inclusion)
        if not is_weak_equivalence(po.from_attached):
            return "fail", {"category": "DGDM", "instance": idx}
    for idx in range(params["seeds_dgda"]):
        x = rg.random_algebra(rng, max_gens=1, max_degree=2)
        y, f = rg.random_algebra_weq(rng, x)
        n = rng.randint(1, 2)
        w = x.d(rg.random_algebra_element(rng, x, n, 3))
        po = dg.dga_pushout_gen(x, y, f, n, w)
        res = dg.algebra_bounded_weq(po.map, params["truncation"], params["degree_window"])
        if not res.ok:
            return "fail", {"category": "DGDA", "instance": idx, "witness": res.witness}
    for idx in range(params["seeds_amod"]):
        a = rg.random_algebra(rng, max_gens=1, max_degree=2)
        p = rg.random_amodule(rng, a, cells=2, max_degree=2)
        q, f = rg.random_amodule_weq(rng, p)
        n = rng.randint(1, 2)
        z = rg.random_closed_element(rng, p, n - 1)
        src = am.free_sphere_module(a, n - 1, name="att")
        att_p = am.AModuleMorphism(src, p, {0: z})
        po_p = am.amod_pushout_gen(att_p)
        fz = f.apply(z)
        src2 = am.free_sphere_module(a, n - 1, name="att")
        att_q = am.AModuleMorphism(src2, q, {0: fz})
        po_q = am.amod_pushout_gen(att_q)
        t_map = dg.compose_morphisms(f, po_q.from_target)
        f_ext = dg.pushout_factor(po_p, t_map, po_q.extended.generator(po_q.new_index))
        res = am.amodule_bounded_weq(f_ext, params["truncation"], params["degree_window"])
        if not res.ok:
            return "fail", {"category": "Mod(A)", "instance": idx, "witness": res.witness}
    return "bounded-pass", None


def check_hac3_flatness(rng, params):
    """- (x)_A M preserves weak equivalences for Sullivan M (bounded)."""
    for idx in range(params["seeds"]):
        a = rg.random_algebra(rng, max_gens=1, max_degree=2)
        p = rg.random_amodule(rng, a, cells=2, max_degree=2)
        q, f = rg.random_amodule_weq(rng, p)
        m = rg.random_amodule(rng, a, cells=rng.randint(1, 3), max_degree=2)
        res = am.tensor_bounded_weq(f, m, params["truncation"], params["degree_window"])
        if not res.ok:
            return "fail", {"instance": idx, "witness": res.witness}
    return "bounded-pass", None


def check_hac4_base_change(rng, params):
    """B (x)_A - preserves weak equivalences for Sullivan B under A."""
    for idx in range(params["seeds"]):
        a = rg.random_algebra(rng, max_gens=1, max_degree=2)
        b = a
        for k in range(rng.randint(1, 2)):
            deg = rng.randint(1, 2)
            d_assign = b.d(rg.random_algebra_element(rng, b, deg, 2))
            b = b.extended(dg.Generator(f"w{k}", deg), None if d_assign.is_zero() else d_assign)
        p = rg.random_amodule(rng, a, cells=2, max_degree=2)
        q, f = rg.random_amodule_weq(rng, p)
        res = am.base_change_bounded_weq(b, f, params["truncation"], params["degree_window"])
        if not res.ok:
            return "fail", {"instance": idx, "witness": res.witness}
    return "bounded-pass", None


def check_cmon_under_roundtrip(rng, params):
    """The undercategory <-> CMon(Mod(A)) translations are mutually
    inverse, and the transported action satisfies the monoid-module laws."""
    for idx in range(params["seeds"]):
        a = rg.random_algebra(rng, max_gens=2, max_degree=2)
        m_alg, phi = rg.random_algebra_weq(rng, a, pairs=1)
        n = am.under_to_cmon(phi)
        phi2 = am.cmon_to_under(n)
        if any(phi2.apply(g) != phi.apply(g) for g in map(a.generator, range(len(a.generators)))):
            return "fail", {"instance": idx, "law": "G(F(phi)) = phi"}
        n2 = am.under_to_cmon(phi2)
        if n2.action_on_generators != n.action_on_generators:
            return "fail", {"instance": idx, "law": "F(G(N)) = N"}
        # module laws on probes
        for _ in range(3):
            da = rg.random_algebra_element(rng, a, rng.randint(0, 2), 2)
            db = rg.random_algebra_element(rng, a, rng.randint(0, 2), 2)
            m1 = rg.random_algebra_element(rng, m_alg, rng.randint(0, 2), 2)
            m2 = rg.random_algebra_element(rng, m_alg, rng.randint(0, 2), 2)
            lhs = n.act(da, n.act(db, m1))
            rhs = n.act(a.multiply(da, db), m1)
            if lhs != rhs:
                return "fail", {"instance": idx, "law": "a.(b.m) = (ab).m"}
            if n.act(a.one(), m1) != m1:
                return "fail", {"instance": idx, "law": "1.m = m"}
            # A-bilinearity (Koszul): (a.m')*m'' = +/- m'*(a.m'')
            if da.is_zero() or m1.is_zero():
                continue
            try:
                da_deg, m1_deg = da.degree(), m1.degree()
            except ValueError:
                continue
            sign = Fraction(-1) if (da_deg * m1_deg) % 2 else Fraction(1)
            lhs = m_alg.multiply(n.act(da, m1), m2)
            rhs = m_alg.multiply(m1, n.act(da, m2)).scale(sign)
            if lhs != rhs:
                return "fail", {"instance": idx, "law": "A-bilinearity"}
    return "pass", None


def check_simpl_tens_iso(rng, params):
    """The identification B (x)_A (A (x) M) = B (x) M is a well-defined
    chain isomorphism of A-modules (checked on probes)."""
    for idx in range(params["seeds"]):
        a = rg.random_algebra(rng, max_gens=1, max_degree=2)
        b = rg.random_amodule(rng, a, cells=2, max_degree=2)
        m = rg.random_amodule(rng, a, cells=1, max_degree=2)
        t = am.TensorOverA(b, m)
        keys = [k for p in range(0, 4) for k, _ in t.basis_keys(p, 3)]
        if not keys:
            continue
        for _ in range(4):
            key = rng.choice(keys)
            # iso o iso^{-1} = id
            b_elt, a_one, j, bexp = t.iso_inverse_key(key)
            back = t.iso_from_tensor(b_elt, a_one, j, bexp)
            if back != {key: Fraction(1)}:
                return "fail", {"instance": idx, "law": "iso o iso^{-1} = id", "key": str(key)}
            # well-definedness across the tensor-over-A relation:
            # (a'.b) (x) (1 (x) m) ~ +/- b (x) (a' (x) m)
            aa = rg.random_algebra_element(rng, a, rng.randint(0, 2), 2)
            if aa.is_zero():
                continue
            lhs = t.iso_from_tensor(b.act_algebra(aa, b_elt), a_one, j, bexp)
            adeg = aa.degree()
            bdeg = b.key_degree(key[0])  # the B-key of b_elt
            sign = Fraction(-1) if (adeg * bdeg) % 2 else Fraction(1)
            rhs_elt = {k: sign * c for k, c in t.iso_from_tensor(b_elt, aa, j, bexp).items()}
            if lhs != rhs_elt:
                return "fail", {"instance": idx, "law": "tensor relation", "key": str(key)}
            # d^2 = 0 through the transported differential
            if apply_linear(t.diff_key, t.diff_key(key)):
                return "fail", {"instance": idx, "law": "d^2 = 0", "key": str(key)}
        # standard differential transports to the standard differential
        if not am.tensor_unit_case(b):
            return "fail", {"instance": idx, "law": "unit case"}
    return "pass", None


def _monad_probes(rng, cores, count: int) -> List[Dict]:
    """Up to `count` nonzero random elements x^alpha * core on the given cores."""
    probes = []
    for _ in range(count):
        elem = {}
        for _ in range(rng.randint(1, 3)):
            elem[((rng.randint(0, 2),), rng.choice(cores))] = Fraction(rng.randint(-2, 2))
        elem = {k: v for k, v in elem.items() if v}
        if elem:
            probes.append(elem)
    return probes


def check_monad_laws(rng, params):
    """Monad laws for T = FS (free algebra) and U = PhiSigma (free module),
    plus the generating morphisms Sigma(iota_n), Sigma(zeta_n)."""
    c = disk(1)
    base = mo.FreeBase(c)
    s3 = mo.FormalSym(mo.FormalSym(mo.FormalSym(base)))
    s3_cores = [core for d in range(0, 4) for core in s3.cores(d, 4)]
    fails = mo.check_sym_monad_laws(c, _monad_probes(rng, s3_cores, params["probes"]))
    if fails:
        return "fail", {"monad": "T = FS", "laws": fails}
    a = rg.random_algebra(rng, max_gens=2, max_degree=2)
    u3 = mo.TensorWithA(a, mo.TensorWithA(a, mo.TensorWithA(a, base)))
    u3_cores = [core for d in range(0, 4) for core in u3.cores(d, 4)]
    fails = mo.check_tensor_monad_laws(a, c, _monad_probes(rng, u3_cores, params["probes"]))
    if fails:
        return "fail", {"monad": "U = PhiSigma", "laws": fails}
    # Sigma of the generating maps iota_n: S^{n-1} -> D^n and zeta_n: 0 -> D^n
    # are valid A-module morphisms
    for n in (1, 2):
        disk_n = am.free_disk_module(a, n)
        am.AModuleMorphism(am.free_sphere_module(a, n - 1, name="s"), disk_n,
                           {0: disk_n.generator(0)})
        am.AModuleMorphism(am.AModule(a), disk_n, {})
    return "pass", None


def check_limit_colimit_weq(rng, params):
    """Finite filtrations with stagewise weqs have weq colimit maps,
    including one extra stage past the listed ones (the omega marker)."""
    for idx in range(params["seeds"]):
        f = rg.random_weq(rng, nvars=1, max_top=1)
        stages = [f]
        for _ in range(params["stages"] + 1):  # +1 = the omega-marker stage
            prev = stages[-1]
            z1 = rg.random_complex(rng, max_top=1, max_cells=1, twists=0)
            z2 = rg.random_complex(rng, max_top=1, max_cells=1, twists=0)
            cz1 = mapping_cone(identity_map(z1))
            cz2 = mapping_cone(identity_map(z2))
            x_new = direct_sum(prev.source, cz1)
            y_new = direct_sum(prev.target, cz2)
            rho = rg.random_map_from_cone(rng, z1, cz2)
            tau = rg.random_map_from_cone(rng, z1, prev.target)
            maps = {
                n: block_matrix(
                    [[prev.component(n), None], [tau.component(n), rho.component(n)]],
                    (prev.source.rank(n), cz1.rank(n)), (prev.target.rank(n), cz2.rank(n)), 1,
                )
                for n in x_new.degrees() if y_new.rank(n)
            }
            stages.append(ChainMap(x_new, y_new, maps))
        for beta, phi in enumerate(stages):
            if not is_weak_equivalence(phi):
                return "fail", {"instance": idx, "stage": beta}
    return "pass", None


def check_graded_filtration_weq(rng, params):
    """phi_0 weq + identity graded pieces (cell-by-cell attachments)
    imply every stage map is a weq."""
    for idx in range(params["seeds"]):
        f = rg.random_weq(rng, nvars=1, max_top=1)
        for _ in range(params["stages"]):
            x = f.source
            candidates = [n for n in range(1, 3) if x.rank(n - 1) > 0]
            if not candidates:
                break
            n = rng.choice(candidates)
            z = rg.random_cycle(rng, x, n - 1)
            res_x = md.attach_cells(x, [(n, z)])
            fz = f.apply(n - 1, z)
            res_y = md.attach_cells(f.target, [(n, fz)])
            maps = {}
            x2, y2 = res_x.complex, res_y.complex
            for deg in x2.degrees():
                if y2.rank(deg) == 0:
                    continue
                # both sides gained the same cell, which the stage map fixes
                cells = x2.rank(deg) - x.rank(deg)
                maps[deg] = block_matrix(
                    [[f.component(deg), None], [None, identity_matrix(cells, 1)]],
                    (x.rank(deg), cells), (f.target.rank(deg), cells), 1,
                )
            f = ChainMap(x2, y2, maps)
            if not is_weak_equivalence(f):
                return "fail", {"instance": idx}
    return "pass", None


def check_kunneth_mapcone(rng, params):
    """Mc(f (x) Id_M) = Mc(f)[-k] (x) M for O-coherent M, and the cone is
    acyclic when f is a weq (exact, via flat connection modules)."""
    for idx in range(params["seeds"]):
        f = rg.random_weq(rng, nvars=1, max_top=1)
        poly = WeylElement.monomial(1, (rng.randint(0, 2),), (0,), rng.randint(-2, 2))
        m = ConnectionModule(1, 1, [[[poly]]])
        tf = tensor_chain_map_with_connection(f, m)
        lhs = mapping_cone(tf)
        rhs = tensor_with_connection(mapping_cone(f), m)
        if lhs != rhs:
            return "fail", {"instance": idx, "law": "cone-tensor identification"}
        if not is_acyclic(lhs):
            return "fail", {"instance": idx, "law": "acyclicity"}
    # presentation-level comparison on a non-acyclic example, with a shift
    m = ConnectionModule(1, 1, [[[WeylElement.x(1, 1)]]])
    f0 = zero_map(FreeDComplex(1, {}, {}), sphere(1))
    k = 1
    tf0 = tensor_chain_map_with_connection(f0, m)
    lhs = mapping_cone(ChainMap(shift(tf0.source, -k) if tf0.source.ranks else tf0.source,
                                shift(tf0.target, -k), {n + k: mat for n, mat in tf0.maps.items()}))
    rhs = tensor_with_connection(shift(mapping_cone(f0), -k), m)
    for n in set(lhs.degrees()) | set(rhs.degrees()):
        hl, hr = homology(lhs, n), homology(rhs, n)
        if hl.is_zero() != hr.is_zero():
            return "fail", {"degree": n, "law": "shifted homology match"}
        if not hl.is_zero():
            if not submodule_equal(hl.generators, hr.generators, hl.ambient_rank, 1):
                return "fail", {"degree": n, "law": "kernel presentation match"}
    return "pass", None


def check_sullivan_pushout_universal(rng, params):
    """The one-sphere Sullivan pushout square commutes and is universal."""
    for idx in range(params["seeds"]):
        x = rg.random_algebra(rng, max_gens=1, max_degree=2)
        y, f = rg.random_algebra_weq(rng, x)
        n = rng.randint(1, 2)
        w = x.d(rg.random_algebra_element(rng, x, n, 2))
        po = dg.dga_pushout_gen(x, y, f, n, w)
        x_ext, y_ext = po.map.source, po.cell.extended
        # commutativity on the generators of X
        lhs = dg.compose_morphisms(dg.Inclusion(x, x_ext), po.map)
        rhs = dg.compose_morphisms(f, po.cell.from_target)
        for j in range(len(x.generators)):
            if lhs.apply(x.generator(j)) != rhs.apply(x.generator(j)):
                return "fail", {"instance": idx, "law": "square commutes"}
        # universality against a twisted cocone
        sigma_assign = {j: y_ext.generator(j) for j in range(len(y_ext.generators))}
        u = rg.random_algebra_element(rng, y_ext, n + 1, 2)
        wshear = y_ext.d(u)
        j_new = po.cell.new_index
        ok_shear = not wshear.is_zero() and all(
            a[0] < j_new for key in wshear.coeffs for a in key[1]
        )
        if ok_shear:
            sigma_assign[j_new] = y_ext.generator(j_new) + wshear
        sigma = dg.AlgebraMorphism(y_ext, y_ext, sigma_assign)
        h = dg.compose_morphisms(po.cell.from_target, sigma)
        k = dg.compose_morphisms(po.map, sigma)
        s_x = x_ext.generator(len(x.generators))
        mu = dg.pushout_factor(po.cell, h, k.apply(s_x))
        for j in range(len(y_ext.generators)):
            if mu.apply(y_ext.generator(j)) != sigma.apply(y_ext.generator(j)):
                return "fail", {"instance": idx, "law": "factoring map"}
        # uniqueness: the value at the new generator is forced by mu o map = k
        if mu.apply(po.map.apply(s_x)) != k.apply(s_x):
            return "fail", {"instance": idx, "law": "uniqueness"}
    return "pass", None


def check_hac1_arrows(rng, params):
    """Finite coproducts and products coincide degreewise; every object is
    fibrant and free complexes are cofibrant, so both replacement arrows
    are identities, hence weak equivalences."""
    for idx in range(params["seeds"]):
        c1 = rg.random_complex(rng, max_top=2, max_cells=2)
        c2 = rg.random_complex(rng, max_top=2, max_cells=2)
        total = direct_sum(c1, c2)
        i1, i2 = summand_inclusion(c1, c2, 0), summand_inclusion(c1, c2, 1)
        p1, p2 = summand_projection(c1, c2, 0), summand_projection(c1, c2, 1)
        if compose(i1, p1) != identity_map(c1) or compose(i2, p2) != identity_map(c2):
            return "fail", {"instance": idx, "law": "biproduct identities"}
        if not md.is_fibration(ChainMap(total, FreeDComplex(1, {}, {}), {})):
            return "fail", {"instance": idx, "law": "every object fibrant"}
        cert = md.certify_cofibration(ChainMap(FreeDComplex(1, {}, {}), total, {}))
        if cert.verdict != "certified":
            return "fail", {"instance": idx, "law": "free complexes cofibrant"}
        if not is_weak_equivalence(identity_map(total)):
            return "fail", {"instance": idx, "law": "replacement arrows are weqs"}
    return "pass", None


def check_cofibrant_retract(rng, params):
    """A Sullivan A-module C is a retract of the finite-stage QC = C (+)
    contractible cells through the lifting diagram."""
    for idx in range(params["seeds"]):
        a = rg.random_algebra(rng, max_gens=1, max_degree=2)
        c = rg.random_amodule(rng, a, cells=2, max_degree=2)
        n = rng.randint(1, 2)
        mid = am.transfinite_compose_finite(c, [(n, None)]).module
        qc = am.transfinite_compose_finite(mid, [(n + 1, mid.generator(len(mid.generators) - 1))]).module
        ell = dg.Inclusion(c, qc)
        # retraction z'': QC -> C kills the two added cells
        added = dict.fromkeys(range(len(c.generators), len(qc.generators)), c.zero())
        r = dg.extend_morphism(dg.Inclusion(c, c), qc, c, added)
        # z'' o ell = id_C on probes
        for _ in range(4):
            deg = rng.randint(0, 3)
            probe = rg.random_module_element(rng, c, deg, 3)
            if r.apply(ell.apply(probe)) != probe:
                return "fail", {"instance": idx, "law": "retract identity"}
        res = am.amodule_bounded_weq(r, params["truncation"], params["degree_window"])
        if not res.ok:
            return "fail", {"instance": idx, "law": "z'' weq", "witness": res.witness}
    return "bounded-pass", None


# ================================================================ catalog

CATALOG: Dict[str, Tuple[Callable, Dict]] = {
    "flatness_counterexample": (check_flatness_counterexample, {}),
    "filtration_splitting": (check_filtration_splitting, {"samples": 20, "max_order": 6}),
    "disks_acyclic": (check_disks_acyclic, {"max_n": 4}),
    "pushout_product_cokernel": (check_pushout_product_cokernel, {"max_mn": 3}),
    "trivial_pp_weq": (check_trivial_pp_weq, {"max_mn": 3, "truncation": 5}),
    "monoid_axiom_pushout": (check_monoid_axiom_pushout, {"seeds": 20, "truncation": 5}),
    "properness_random": (
        check_properness_random,
        {"seeds_dgdm": 100, "seeds_dgda": 10, "seeds_amod": 100, "truncation": 4, "degree_window": 3},
    ),
    "hac3_flatness": (check_hac3_flatness, {"seeds": 20, "truncation": 4, "degree_window": 3}),
    "hac4_base_change": (check_hac4_base_change, {"seeds": 20, "truncation": 4, "degree_window": 3}),
    "cmon_under_roundtrip": (check_cmon_under_roundtrip, {"seeds": 20}),
    "simpl_tens_iso": (check_simpl_tens_iso, {"seeds": 20}),
    "monad_laws": (check_monad_laws, {"probes": 8}),
    "limit_colimit_weq": (check_limit_colimit_weq, {"seeds": 20, "stages": 2}),
    "graded_filtration_weq": (check_graded_filtration_weq, {"seeds": 20, "stages": 2}),
    "kunneth_mapcone": (check_kunneth_mapcone, {"seeds": 20}),
    "sullivan_pushout_universal": (check_sullivan_pushout_universal, {"seeds": 20}),
    "hac1_arrows": (check_hac1_arrows, {"seeds": 20}),
    "cofibrant_retract": (check_cofibrant_retract, {"seeds": 10, "truncation": 4, "degree_window": 3}),
}


# bounded check -> least truncation N (the walk needs N >= 2).  Level N checks
# keys of weight <= N-2; one below, no walk of hac3, hac4, cofibrant_retract
# and 100 of properness_random's 110 list one (seeds 42, 7), yet each passed
_LEAST_TRUNCATION = {"trivial_pp_weq": 2, "monoid_axiom_pushout": 2, "properness_random": 3,
                     "hac3_flatness": 4, "hac4_base_change": 3, "cofibrant_retract": 3}


def run_check(name: str, params: Optional[Dict] = None, seed: int = 0) -> CheckReport:
    """Run one catalog check; deterministic given (params, seed).  A
    bounded check refuses a truncation below its least with ValueError."""
    if name not in CATALOG:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CATALOG)}")
    fn, defaults = CATALOG[name]
    merged = dict(defaults)
    merged.update(params or {})
    least = _LEAST_TRUNCATION.get(name)
    if least is not None and merged["truncation"] < least:
        raise ValueError(f"{name} checks no key below truncation {least}, got {merged['truncation']}")
    rng = random.Random(f"{seed}:{name}")
    start = time.perf_counter()
    verdict, witness = fn(rng, merged)
    elapsed = time.perf_counter() - start
    merged["seed"] = seed
    if verdict == "bounded-pass" and "truncation" in merged:
        n = merged["truncation"]
        merged["truncation_levels"] = [n, n + 1]
    return CheckReport(name, verdict, witness, elapsed, merged)


def run_suite(
    name_filter: Optional[str] = None,
    seed: int = 0,
    overrides: Optional[Dict[str, Dict]] = None,
) -> List[CheckReport]:
    """Run all (or prefix-filtered) checks with one seed, in catalog order."""
    reports = []
    for name in CATALOG:
        if name_filter and not name.startswith(name_filter):
            continue
        params = (overrides or {}).get(name)
        reports.append(run_check(name, params, seed))
    return reports


def aggregate_verdict(reports: List[CheckReport]) -> str:
    return _combine([r.verdict for r in reports])
