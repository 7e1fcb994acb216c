"""CLI: grammar, documents, subcommand dispatch and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgdm.cli import (
    ParseError,
    algebra_body,
    algebra_from_body,
    amodule_from_body,
    chainmap_body,
    chainmap_from_body,
    complex_body,
    complex_from_body,
    dispatch,
    load_document,
    main,
    make_document,
    parse_algebra_element,
    parse_document,
    parse_module_element,
    parse_operator,
    print_document,
)
from dgdm.complexes import disk, identity_matrix, FreeDComplex, ChainMap
from dgdm.dga import AlgebraElement, Generator, SullivanAlgebra
from dgdm.groebner import get_degree_guard
from dgdm.amod import AModule, AModuleElement, free_disk_module
from dgdm.randgen import random_algebra_element, random_complex
from dgdm.weyl import WeylElement

import random


def test_parse_operator_examples():
    w = parse_operator("d1*x1")
    assert w == WeylElement.x(1, 1) * WeylElement.d(1, 1) + WeylElement.one(1)
    w = parse_operator("3/2 * x1^2 * d1^3")
    assert w.terms == {((2,), (3,)): __import__("fractions").Fraction(3, 2)}
    assert parse_operator("x1 - x1").is_zero()
    assert parse_operator("-2*d1 + d1") == -WeylElement.d(1, 1)


def test_parse_operator_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_operator("x1 + + d1")
    assert e.value.column == 6
    assert "+" not in e.value.expected  # a term was expected, not another '+'
    with pytest.raises(ParseError):
        parse_operator("x2", 1)
    with pytest.raises(ParseError):
        parse_operator("x1 $ d1")


def test_operator_round_trip_random():
    rng = random.Random(0)
    from dgdm.randgen import random_weyl

    for _ in range(30):
        w = random_weyl(rng, 1, 4, 3)
        assert parse_operator(w.to_string(), 1) == w
    for _ in range(20):
        w = random_weyl(rng, 2, 4, 2)
        assert parse_operator(w.to_string(), 2) == w


def test_algebra_element_round_trip():
    a = SullivanAlgebra(1, [Generator("g", 1), Generator("h", 2)])
    e = a.atom(0, (1,)) * a.generator(1) + a.x_poly((2,), coef=3)
    assert parse_algebra_element(e.to_string(), a) == e


# strings printed before the three printers shared one term printer
PRINTED = [
    ("-3/2 + x1^2*d1 - 3/2*x1*d1*d2^2 - x1*x2*d1*d2 - x1^2*x2*d1^2*d2^2",
     "1/2 - 3/2*a*b[1,0] + 1/2*x2*a*b + x1 + 1/2*x1*x2^2",
     "-3/2*a*e[0,1] + 1/2*b[0,1]*e - 3/2*x1*b*e - x1^2*f"),
    ("-1 - 3/2*x2*d2 - 3/2*x1^2*d1 - x1*x2*d1^2*d2 + 1/2*x1^2*d1^2*d2",
     "-1 + a[1,0] - 3/2*x2 + x1*b[1,0] + x1*x2^2",
     "b*e[1,0] - e[1,1] - 3/2*x1*a*f - 3/2*x1^2*f"),
    ("1 + 1/2*d1 + x1*x2^2*d2^2 - 3/2*x1^2*x2^2*d2 - 3/2*x1^2*x2^2*d1*d2^2",
     "1/2 - 3/2*a[1,1] - 3/2*x2 + 1/2*x2^2 - x1*x2*b",
     "1/2*a*e - e[2,0] + f[1,1] - x2*e[1,0]"),
]


@pytest.mark.parametrize("seed", range(len(PRINTED)))
def test_printed_elements_are_pinned(seed):
    # coefficients 1, -1, 1/2, -3/2, constant terms, atoms with and
    # without d-exponents, over two variables
    coeffs = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]
    rng = random.Random(seed)
    w = {((0, 0), (0, 0)): rng.choice(coeffs)}
    for _ in range(4):
        key = (tuple(rng.randint(0, 2) for _ in range(2)), tuple(rng.randint(0, 2) for _ in range(2)))
        w[key] = rng.choice(coeffs)
    a = SullivanAlgebra(2, [Generator("a", 1), Generator("b", 2)])
    akeys = [k for deg in range(4) for k, _ in a.basis_keys(deg, 3)]
    ac = {((0, 0), ()): rng.choice(coeffs)}
    for k in rng.sample(akeys, 4):
        ac[k] = rng.choice(coeffs)
    m = AModule(a, [Generator("e", 0), Generator("f", 1)])
    mkeys = [k for deg in range(3) for k, _ in m.basis_keys(deg, 3)]
    mc = {k: rng.choice(coeffs) for k in rng.sample(mkeys, 4)}
    got = (WeylElement(2, w).to_string(), AlgebraElement(a, ac).to_string(),
           AModuleElement(m, mc).to_string())
    assert got == PRINTED[seed]
    assert WeylElement.zero(2).to_string() == a.zero().to_string() == "0"
    assert m.zero().to_string() == "0"


def test_module_element_parsing():
    a = SullivanAlgebra(1, [Generator("u", 2)])
    m = free_disk_module(a, 2)
    e = parse_module_element("u*e1 + 2*x1*e2[1]", m)
    assert not e.is_zero()
    with pytest.raises(ParseError):
        parse_module_element("u", m)  # no module atom
    with pytest.raises(ParseError):
        parse_module_element("e1*e2", m)  # two module atoms


def test_algebra_factor_after_a_module_atom_takes_the_koszul_sign():
    # (a (x) m) * b = (-1)^{|m||b|} ab (x) m
    a = SullivanAlgebra(1, [Generator("u", 1), Generator("w", 2)])
    m = AModule(a, [Generator("m", 1), Generator("n", 2)])

    def parse(text):
        return parse_module_element(text, m)

    assert parse("m*u") == -parse("u*m") != parse("u*m")  # odd past odd
    for even, odd in (("n*u", "u*n"), ("m*w", "w*m"), ("m*x1", "x1*m"), ("n*w", "w*n")):
        assert parse(even) == parse(odd), even
    assert parse("m*u*w") == -parse("u*w*m")
    assert parse("2*m*u - x1*n*u") == parse("-2*u*m - x1*u*n")
    for text in ("m*u*w", "x1*m[1]*u", "n*u*w - m*w^2"):
        e = parse(text)
        assert parse(e.to_string()) == e, text


def test_module_atoms_print_and_parse_by_name():
    a = SullivanAlgebra(1, [Generator("u", 2)])
    m = free_disk_module(a, 2)
    assert m.atom(1, (2,)) == AModuleElement(m, m.act_monomial((0,), (2,), m.generator(1).coeffs))
    with pytest.raises(ValueError, match="no generator"):
        m.atom(2, (0,))
    x1_e2 = AModuleElement(m, m.act_monomial((1,), (0,), m.atom(1, (1,)).coeffs))
    e = m.act_algebra(a.generator(0), m.generator(0)) + x1_e2.scale(2)
    assert e.to_string() == "u*e1 + 2*x1*e2[1]"
    assert parse_module_element(e.to_string(), m) == e


def test_document_round_trip_randomized():
    rng = random.Random(1)
    for _ in range(10):
        c = random_complex(rng)
        doc = make_document("complex", complex_body(c))
        assert parse_document(print_document(doc)) == doc
        assert complex_from_body(parse_document(print_document(doc))) == c
    f = ChainMap(disk(2), disk(2), {2: identity_matrix(1, 1), 1: identity_matrix(1, 1)})
    doc = make_document("chainmap", chainmap_body(f))
    assert chainmap_from_body(parse_document(print_document(doc))) == f
    a = SullivanAlgebra(1, [Generator("g", 1)])
    doc = make_document("algebra", algebra_body(a))
    assert algebra_from_body(parse_document(print_document(doc))) == a
    m = free_disk_module(a, 2)
    doc = make_document("amodule", {
        "vars": m.nvars,
        "algebra": algebra_body(a),
        "generators": [{"name": g.name, "degree": g.degree} for g in m.generators],
        "differential": {m.generators[j].name: AModuleElement(m, coeffs).to_string()
                         for j, coeffs in sorted(m.diff_coeffs.items())},
    })
    assert amodule_from_body(parse_document(print_document(doc))) == m


def test_complex_document_validation(tmp_path):
    bad = make_document("complex", {
        "vars": 1, "ranks": {"0": 1, "1": 1, "2": 1},
        "differentials": {"1": [["1"]], "2": [["1"]]},
    })
    path = tmp_path / "bad.doc"
    path.write_text(print_document(bad))
    rc = dispatch(["homology", "--file", str(path), "--degree", "0"])
    assert rc == 2  # d*d != 0 is a document error


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(print_document(doc))
    return str(p)


def test_homology_subcommand(tmp_path, capsys):
    doc = make_document("complex", {
        "vars": 1, "ranks": {"0": 1, "1": 1}, "differentials": {"1": [["d1"]]},
    })
    path = write_doc(tmp_path, "c.doc", doc)
    rc = dispatch(["homology", "--file", path, "--degree", "0"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["kind"] == "presentation"
    assert out["generators"] == [["1"]]
    assert out["relations"] == [["d1"]]


def test_homology_of_a_wide_zero_complex_is_quick(tmp_path, capsys):
    # d_0 = 0 on D^600: the kernel is all unit vectors and needs no Groebner
    # basis (the Groebner path took about 3 s at this rank, 53 s at 3000)
    path = write_doc(tmp_path, "z.doc", make_document("complex", {"vars": 1, "ranks": {"0": 600}}))
    start = time.perf_counter()
    rc = dispatch(["homology", "--file", path, "--degree", "0"])
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(out["generators"]) == 600 and out["relations"] == []


def test_weq_subcommand_exit_codes(tmp_path, capsys):
    # zeta_1 is a weq: exit 0
    doc = make_document("chainmap", {
        "vars": 1,
        "source": {"ranks": {}, "differentials": {}},
        "target": {"ranks": {"0": 1, "1": 1}, "differentials": {"1": [["1"]]}},
        "maps": {},
    })
    assert dispatch(["weq", "--file", write_doc(tmp_path, "z.doc", doc)]) == 0
    capsys.readouterr()
    # 0 -> S^0 is not: exit 1
    doc = make_document("chainmap", {
        "vars": 1,
        "source": {"ranks": {}, "differentials": {}},
        "target": {"ranks": {"0": 1}, "differentials": {}},
        "maps": {},
    })
    assert dispatch(["weq", "--file", write_doc(tmp_path, "s.doc", doc)]) == 1


def test_weq_rejects_other_document_kinds(tmp_path, capsys):
    doc = make_document("complex", {"vars": 1, "ranks": {"0": 1}, "differentials": {}})
    path = write_doc(tmp_path, "c.doc", doc)
    assert dispatch(["weq", "--file", path]) == 2
    assert capsys.readouterr().err == "error: expected a chainmap document, got complex\n"
    # every command that reads a document names the kind it expected in one form
    for cmd, kind in (("attach", "an attach-input"), ("sullivan-extend", "a sullivan-extend-input"),
                      ("tensor-a", "a tensor-input"), ("suite", "a suite-config")):
        assert dispatch([cmd, "--file", path]) == 2
        assert capsys.readouterr().err == f"error: expected {kind} document, got complex\n"


def test_cone_subcommand(tmp_path, capsys):
    doc = make_document("chainmap", {
        "vars": 1,
        "source": {"ranks": {"0": 1}, "differentials": {}},
        "target": {"ranks": {"0": 1, "1": 1}, "differentials": {"1": [["1"]]}},
        "maps": {"0": [["1"]]},
    })
    rc = dispatch(["cone", "--file", write_doc(tmp_path, "m.doc", doc)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["kind"] == "complex"
    assert out["ranks"] == {"0": "1", "1": "2"} or out["ranks"] == {"0": 1, "1": 2}


def test_boxprod_subcommand(capsys):
    rc = dispatch(["boxprod", "--m", "1", "--n", "1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["cokernel_description"] == {"2": ["D(x)D"]}
    rc = dispatch(["boxprod", "--m", "1", "--n", "1", "--kinds", "zeta,iota", "--truncation", "4"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["cone"] == "bounded-pass"


def test_attach_subcommand(tmp_path, capsys):
    doc = make_document("attach-input", {
        "vars": 1,
        "base": {"ranks": {"0": 1}, "differentials": {}},
        "attachments": [{"degree": 1, "cycle": ["1"]}],
    })
    rc = dispatch(["attach", "--file", write_doc(tmp_path, "a.doc", doc)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["inclusion_certified"] == "certified"
    assert out["complex"]["ranks"] == {"0": 1, "1": 1}


@pytest.mark.parametrize("cell", [{"degree": 1}, {"degree": 1, "cycle": []}], ids=["no-cycle", "empty-cycle"])
def test_attach_over_an_empty_degree(tmp_path, capsys, cell):
    # C_0 = 0, so S^0 -> C is zero and the pushout along iota_1 is C (+) S^1
    doc = make_document("attach-input", {"vars": 1, "base": {"ranks": {}}, "attachments": [cell]})
    rc = dispatch(["attach", "--file", write_doc(tmp_path, "a.doc", doc)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["inclusion_certified"] == "certified"
    assert out["complex"]["ranks"] == {"1": 1} and out["complex"]["differentials"] == {}


def test_pushout_subcommand(tmp_path, capsys):
    f = {"source": {"ranks": {"0": 1}, "differentials": {}},
         "target": {"ranks": {"0": 1}, "differentials": {}},
         "maps": {"0": [["x1"]]}}
    g = {"source": {"ranks": {"0": 1}, "differentials": {}},
         "target": {"ranks": {"0": 1, "1": 1}, "differentials": {"1": [["1"]]}},
         "maps": {"0": [["1"]]}}
    doc = make_document("pushout-input", {"vars": 1, "f": f, "g": g})
    rc = dispatch(["pushout", "--file", write_doc(tmp_path, "p.doc", doc)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["kind"] == "pushout-result"


def test_sullivan_extend_subcommand(tmp_path, capsys):
    alg = {"generators": [{"name": "u", "degree": 2}], "differential": {}}
    doc = make_document("sullivan-extend-input", {
        "vars": 1, "x": alg, "y": alg, "map": {"u": "u"}, "n": 3, "assignment": "u",
    })
    rc = dispatch(["sullivan-extend", "--file", write_doc(tmp_path, "s.doc", doc)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["y_ext"]["differential"]["s"] == "u"


def _extend_inputs(count=40):
    """sullivan-extend inputs with a nonzero attaching element w, over bases
    with nonzero differentials: y is X with an acyclic pair (d b = a), and f
    sends the last generator of X to itself plus a boundary."""
    mixed = SullivanAlgebra(1, [Generator("g", 1), Generator("u", 2), Generator("v", 3)],
                            {2: {((0,), ((1, (0,)),)): Fraction(1)}})
    bases = [mixed, mixed.extended(Generator("e", 2), mixed.x_poly((1,)) * mixed.generator(0))]
    docs, seed = [], 0
    while len(docs) < count:
        rng = random.Random(seed)
        seed += 1
        x = bases[seed % 2]
        k = rng.randint(1, 2)
        y = x.extended(Generator("a", k), None)
        y = y.extended(Generator("b", k + 1), y.generator(len(x.generators)))
        last = len(x.generators) - 1
        image = [y.generator(j) for j in range(len(x.generators))]
        image[last] += y.d(random_algebra_element(rng, y, x.generators[last].degree + 1, 3))
        n = rng.randint(1, 3)
        w = x.d(random_algebra_element(rng, x, n, 3))
        if w.is_zero():
            continue
        docs.append(make_document("sullivan-extend-input", {
            "vars": 1, "x": algebra_body(x), "y": algebra_body(y), "n": n,
            "map": {g.name: v.to_string() for g, v in zip(x.generators, image)},
            "assignment": w.to_string()}))
    return docs


def test_sullivan_extend_reports_with_nonzero_attaching_elements_are_pinned(tmp_path, capsys):
    # the sha256 of the 40 reports in order, as the pushout printed them
    # before it was built on the shared cell record and morphism code
    digest = hashlib.sha256()
    for i, doc in enumerate(_extend_inputs()):
        assert dispatch(["sullivan-extend", "--file", write_doc(tmp_path, f"s{i}.doc", doc)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "868c69df0979ebd34e4e6aac3bc30b637cb5431378672ac3d29a72d8db8edd47"


def test_check_and_suite_subcommands(capsys):
    assert dispatch(["check", "--check", "flatness_counterexample"]) == 0
    capsys.readouterr()
    assert dispatch(["check", "--check", "nonexistent"]) == 2
    capsys.readouterr()
    rc = dispatch(["suite", "--seed", "7", "--filter", "disks"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["aggregate"] == "pass"
    assert len(out["reports"]) == 1


def test_degree_guard_exit_code(tmp_path, capsys, monkeypatch):
    # a tiny bound aborts the Groebner computation with exit 3
    doc = make_document("complex", {
        "vars": 1, "ranks": {"0": 1, "1": 2},
        "differentials": {"1": [["d1^4 + x1"], ["d1^2*x1^2"]]},
    })
    path = write_doc(tmp_path, "g.doc", doc)
    monkeypatch.setenv("WEYL_BOUND", "3")
    rc = dispatch(["homology", "--file", path, "--degree", "0"])
    assert rc == 3


def test_degree_guard_restored_after_dispatch(tmp_path, capsys, monkeypatch):
    # neither WEYL_BOUND nor a suite-config bound outlives the call
    before = get_degree_guard()
    cfg = make_document("suite-config", {"seed": 9, "filter": "disks", "bound": 5})
    monkeypatch.setenv("WEYL_BOUND", "3")
    dispatch(["suite", "--file", write_doc(tmp_path, "cfg.doc", cfg)])
    assert get_degree_guard() == before
    dispatch(["--bound", "7", "boxprod", "--m", "1", "--n", "1"])
    assert get_degree_guard() == before


def test_bad_bounds_are_usage_errors(capsys, monkeypatch):
    assert dispatch(["--bound", "0", "boxprod", "--m", "1", "--n", "1"]) == 2
    monkeypatch.setenv("WEYL_BOUND", "abc")
    assert dispatch(["boxprod", "--m", "1", "--n", "1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_usage_errors():
    assert dispatch([]) == 2
    assert dispatch(["homology"]) == 2
    assert dispatch(["boxprod", "--m", "1", "--n", "1", "--kinds", "foo,bar"]) == 2


def test_suite_config_document(tmp_path, capsys):
    cfg = make_document("suite-config", {
        "seed": 9, "filter": "disks", "truncation": 4, "bound": 40,
    })
    assert parse_document(print_document(cfg)) == cfg  # round trip
    path = tmp_path / "cfg.doc"
    path.write_text(print_document(cfg))
    rc = dispatch(["suite", "--file", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["seed"] == 9 and len(out["reports"]) == 1


def test_operator_document_round_trip():
    doc = make_document("operator", {"vars": 1, "expr": "3/2*x1^2*d1^3 + x1"})
    assert parse_document(print_document(doc)) == doc
    w = parse_operator(doc["expr"], doc["vars"])
    assert parse_operator(w.to_string(), 1) == w


ONE_GEN_ALGEBRA = {"generators": [{"name": "u", "degree": 2}], "differential": {}}
G_TO_F = {
    "algebra": ONE_GEN_ALGEBRA,
    "generators": [{"name": "f", "degree": 1}, {"name": "g", "degree": 2}],
    "differential": {"g": "f"},
}


def _dsquare_report(check: str) -> str:
    return (
        '{\n "check": "' + check + '",\n "format": "dgdm-doc",\n'
        ' "kind": "check-report",\n "verdict": "pass",\n "version": 1,\n'
        ' "witness": null\n}\n'
    )


def test_tensor_a_subcommand(tmp_path, capsys):
    doc = make_document("tensor-input", {"vars": 1, "b": G_TO_F, "m": G_TO_F})
    rc = dispatch(["tensor-a", "--file", write_doc(tmp_path, "t.doc", doc)])
    assert rc == 0
    assert capsys.readouterr().out == _dsquare_report("tensor-over-A d^2 = 0 on slices")


def test_base_change_subcommand(tmp_path, capsys):
    # the Sullivan extension A = (u) -> B = (u, w), d(w) = u
    b = {
        "generators": [{"name": "u", "degree": 2}, {"name": "w", "degree": 3}],
        "differential": {"w": "u"},
    }
    doc = make_document("base-change-input", {"vars": 1, "b": b, "n": G_TO_F})
    rc = dispatch(["base-change", "--file", write_doc(tmp_path, "b.doc", doc)])
    assert rc == 0
    assert capsys.readouterr().out == _dsquare_report("base-change d^2 = 0 on slices")


@pytest.mark.parametrize("cmd, kind, b, part, least", [
    ("tensor-a", "tensor-input", G_TO_F, "m", 4),
    ("base-change", "base-change-input", ONE_GEN_ALGEBRA, "n", 3),
])
def test_dsquare_check_refuses_a_truncation_that_checks_no_key(cmd, kind, b, part, least, tmp_path, capsys):
    path = write_doc(tmp_path, "t.doc", make_document(kind, {"vars": 1, "b": b, part: G_TO_F}))
    for t in (-5, 0, least - 1):
        assert dispatch([cmd, "--file", path, "--truncation", str(t)]) == 2
        assert f"below --truncation {least}" in capsys.readouterr().err
    assert dispatch([cmd, "--file", path, "--truncation", str(least)]) == 0
    # a zero module has no key to check at a valid truncation, and passes
    zero = {"algebra": ONE_GEN_ALGEBRA, "generators": [], "differential": {}}
    path = write_doc(tmp_path, "z.doc", make_document(kind, {"vars": 1, "b": b, part: zero}))
    assert dispatch([cmd, "--file", path, "--truncation", str(least)]) == 0


def test_unknown_generator_in_module_differential(tmp_path, capsys):
    bad = dict(G_TO_F, differential={"h": "f"})
    doc = make_document("tensor-input", {"vars": 1, "b": bad, "m": G_TO_F})
    assert dispatch(["tensor-a", "--file", write_doc(tmp_path, "t.doc", doc)]) == 2
    assert "unknown generator 'h'" in capsys.readouterr().err


ALG_ZZ = dict(ONE_GEN_ALGEBRA, differential={"zz": "u"})


@pytest.mark.parametrize("cmd, kind, body, message", [
    # an algebra differential, a module differential and a map, each naming no generator
    ("tensor-a", "tensor-input", {"b": dict(G_TO_F, algebra=ALG_ZZ), "m": G_TO_F},
     "differential of unknown generator 'zz'"),
    ("tensor-a", "tensor-input", {"b": dict(G_TO_F, differential={"qq": "f"}), "m": G_TO_F},
     "differential of unknown generator 'qq'"),
    ("sullivan-extend", "sullivan-extend-input",
     {"x": ONE_GEN_ALGEBRA, "y": ONE_GEN_ALGEBRA, "map": {"nope": "u"}, "n": 3},
     "map of unknown generator 'nope'"),
])
def test_unknown_generator_names_are_document_errors(cmd, kind, body, message, tmp_path, capsys):
    doc = make_document(kind, dict(body, vars=1))
    assert dispatch([cmd, "--file", write_doc(tmp_path, "u.doc", doc)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]


def test_bound_flag_beats_environment(tmp_path, monkeypatch):
    doc = make_document("complex", {
        "vars": 1, "ranks": {"0": 1, "1": 2},
        "differentials": {"1": [["d1^4 + x1"], ["d1^2*x1^2"]]},
    })
    path = write_doc(tmp_path, "g.doc", doc)
    monkeypatch.setenv("WEYL_BOUND", "3")
    assert dispatch(["--bound", "40", "homology", "--file", path, "--degree", "0"]) == 0
    monkeypatch.setenv("WEYL_BOUND", "40")
    assert dispatch(["--bound", "3", "homology", "--file", path, "--degree", "0"]) == 3


@pytest.mark.parametrize("cmd", ["tensor-a", "base-change"])
def test_dsquare_probe_reaches_top_generator_degree(cmd, tmp_path, capsys, monkeypatch):
    # the module's top generator h sits in degree 4; its keys must be probed
    from dgdm import cli

    probed = []
    real = cli.dsquare_witness

    def spy(basis_of, diff_of, degrees, max_weight):
        probed.extend(degrees)
        return real(basis_of, diff_of, degrees, max_weight)

    monkeypatch.setattr(cli, "dsquare_witness", spy)
    top4 = {
        "algebra": ONE_GEN_ALGEBRA,
        "generators": [{"name": "f", "degree": 3}, {"name": "h", "degree": 4}],
        "differential": {"h": "f"},
    }
    unit = {"algebra": ONE_GEN_ALGEBRA, "generators": [{"name": "e", "degree": 0}],
            "differential": {}}
    if cmd == "tensor-a":
        doc = make_document("tensor-input", {"vars": 1, "b": unit, "m": top4})
        check = "tensor-over-A d^2 = 0 on slices"
    else:
        doc = make_document("base-change-input", {"vars": 1, "b": ONE_GEN_ALGEBRA, "n": top4})
        check = "base-change d^2 = 0 on slices"
    assert dispatch([cmd, "--file", write_doc(tmp_path, "t4.doc", doc)]) == 0
    assert capsys.readouterr().out == _dsquare_report(check)
    assert 4 in probed


# ------------------------------------------------- malformed documents

def test_sullivan_extend_null_n_is_document_error(tmp_path, capsys):
    alg = {"generators": [{"name": "u", "degree": 2}], "differential": {}}
    doc = make_document("sullivan-extend-input", {
        "vars": 1, "x": alg, "y": alg, "map": {"u": "u"}, "n": None, "assignment": "u",
    })
    assert dispatch(["sullivan-extend", "--file", write_doc(tmp_path, "s.doc", doc)]) == 2
    assert "n must be an integer" in capsys.readouterr().err


def test_homology_string_ranks_is_document_error(tmp_path, capsys):
    doc = make_document("complex", {"vars": 1, "ranks": "abc", "differentials": {}})
    path = write_doc(tmp_path, "c.doc", doc)
    assert dispatch(["homology", "--file", path, "--degree", "0"]) == 2
    assert "ranks must be an object" in capsys.readouterr().err


def test_suite_config_list_truncation_is_document_error(tmp_path, capsys):
    cfg = make_document("suite-config", {"seed": 9, "filter": "disks", "truncation": [1]})
    assert dispatch(["suite", "--file", write_doc(tmp_path, "cfg.doc", cfg)]) == 2
    assert "truncation must be an integer" in capsys.readouterr().err


def _timed_dispatch(argv):
    start = time.perf_counter()
    rc = dispatch(argv)
    return rc, time.perf_counter() - start


def test_attach_at_a_high_degree_is_quick(tmp_path, capsys):
    # certifying the inclusion visits the occupied degrees only; one empty
    # reduction per degree below took 38.7 s at degree 10^6
    doc = make_document("attach-input", {
        "vars": 1, "base": {"ranks": {"1000000000": 1}}, "attachments": [{"degree": 1000000001}],
    })
    rc, seconds = _timed_dispatch(["attach", "--file", write_doc(tmp_path, "a.doc", doc)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and seconds < 1.0
    assert out["inclusion_certified"] == "certified"
    assert out["complex"]["ranks"] == {"1000000000": 1, "1000000001": 1}


@pytest.mark.parametrize("expr", ["x1^999999999", "x1^40^40^40^40^40^40", "x1^0^999999999",
                                  "d1^41"])
def test_exponent_above_the_guard_aborts_at_once(expr, tmp_path, capsys):
    # a power costs one product per unit of its exponent: x1^200000 took
    # 1.8 s to parse, and x1^999999999 would run for hours
    doc = make_document("complex", {
        "vars": 1, "ranks": {"0": 1, "1": 1}, "differentials": {"1": [[expr]]},
    })
    rc, seconds = _timed_dispatch(["homology", "--file", write_doc(tmp_path, "c.doc", doc),
                                   "--degree", "0"])
    assert rc == 3 and seconds < 1.0
    assert "exceeds the degree guard 40" in capsys.readouterr().err


def test_atom_exponent_above_the_guard_aborts_at_once(tmp_path, capsys):
    alg = {"generators": [{"name": "u", "degree": 2}, {"name": "v", "degree": 3}],
           "differential": {"v": "u[999999999]"}}
    doc = make_document("sullivan-extend-input", {
        "vars": 1, "x": alg, "y": alg, "map": {"u": "u", "v": "v"}, "n": 3, "assignment": "u",
    })
    rc, seconds = _timed_dispatch(["sullivan-extend", "--file", write_doc(tmp_path, "s.doc", doc)])
    assert rc == 3 and seconds < 1.0
    assert "exceeds the degree guard" in capsys.readouterr().err


def test_exponents_within_the_guard_parse_as_before(tmp_path, capsys):
    x1 = WeylElement.x(1, 1)
    power = WeylElement.one(1)
    for _ in range(40):
        power = power * x1
    assert parse_operator("x1^40") == parse_operator("x1^2^4^5") == power
    a = SullivanAlgebra(1, [Generator("u", 2)])
    assert parse_algebra_element("u[40]", a) == a.atom(0, (40,))
    doc = make_document("complex", {
        "vars": 1, "ranks": {"0": 1, "1": 1}, "differentials": {"1": [["d1^41"]]},
    })
    path = write_doc(tmp_path, "c.doc", doc)
    assert dispatch(["--bound", "41", "homology", "--file", path, "--degree", "0"]) == 0


def test_vars_above_the_cap_is_a_usage_error(tmp_path, capsys):
    # "vars": 300000000 once allocated gigabytes of exponent tuples
    doc = make_document("complex", {"vars": 300000000, "ranks": {"0": 1}, "differentials": {}})
    rc, seconds = _timed_dispatch(["homology", "--file", write_doc(tmp_path, "v.doc", doc),
                                   "--degree", "0"])
    assert rc == 2 and seconds < 1.0
    assert "vars must be between 1 and 64" in capsys.readouterr().err
    rc, seconds = _timed_dispatch(["boxprod", "--m", "1", "--n", "1", "--vars", "300000000"])
    assert rc == 2 and seconds < 1.0
    doc = make_document("complex", {"vars": 64, "ranks": {"0": 1}, "differentials": {}})
    assert dispatch(["homology", "--file", write_doc(tmp_path, "w.doc", doc), "--degree", "0"]) == 0


# ------------------------------------------------------------- fuzzing

# whole tokens, so that exponents stay one digit and products stay small
_OPERATOR_TOKENS = ["x1", "d1", "x2", "d2", "+", "-", "*", "^", "2 ", "3 ", "1/2 ", "0 ",
                    "u", "f", "g[1]", "[", "]", ",", " ", "$", "\n"]
_ELEMENT_TOKENS = ["u", "w", "e", "f", "g", "u[1]", "f[0]", "x1", "*", "+", "-", "2 ", " "]
operator_text = st.lists(st.sampled_from(_OPERATOR_TOKENS), max_size=8).map("".join)
element_text = st.lists(st.sampled_from(_ELEMENT_TOKENS), max_size=6).map("".join)
# floats include nan, inf and values such as 3e8, which a document must not
# pass off as an integer: "vars": 3e8 once allocated gigabytes
json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
              st.floats(allow_nan=True, allow_infinity=True), operator_text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["0", "1", "u", "name", "degree"]), inner, max_size=3),
    ),
    max_leaves=6,
)


def _field(valid):
    """A well-formed field value or, as often, any JSON value."""
    return st.one_of(valid, json_value)


def _body(required, optional=None):
    return st.fixed_dictionaries(
        {k: _field(v) for k, v in required.items()},
        optional={k: _field(v) for k, v in (optional or {}).items()},
    )


_degree_key = st.sampled_from(["0", "1", "2", "-1", "x"])
_small = st.integers(-1, 2)
_matrix = st.lists(st.lists(_field(operator_text), max_size=2), max_size=2)
_vars = st.integers(0, 2)
_complex = _body({"ranks": st.dictionaries(_degree_key, _field(_small), max_size=3)},
                 {"vars": _vars, "differentials": st.dictionaries(_degree_key, _matrix, max_size=2)})
_chainmap = _body({"source": _complex, "target": _complex},
                  {"vars": _vars, "maps": st.dictionaries(_degree_key, _matrix, max_size=2)})
_gen_name = st.sampled_from(["u", "w", "e", "f", "g"])
_generators = st.lists(_body({"name": _gen_name, "degree": st.integers(0, 3)}), max_size=2)
_differential = st.dictionaries(_gen_name, _field(element_text), max_size=2)
_algebra = _body({"generators": _generators}, {"differential": _differential})
_amodule = _body({"algebra": _algebra, "generators": _generators}, {"differential": _differential})

# command -> (document kind, body, extra flags); the suite-config filter is
# always present, and never empty or null, so no fuzzed suite runs a costly check
FUZZ_COMMANDS = {
    "homology": ("complex", _complex, ["--degree", "1"]),
    "cone": ("chainmap", _chainmap, []),
    "weq": ("chainmap", _chainmap, []),
    "pushout": ("pushout-input", _body({"f": _chainmap, "g": _chainmap}), []),
    "attach": ("attach-input", _body(
        {"base": _complex},
        {"attachments": st.lists(_body({"degree": _small},
                                       {"cycle": st.lists(_field(operator_text), max_size=2)}),
                                 max_size=2)}), []),
    "sullivan-extend": ("sullivan-extend-input", _body(
        {"x": _algebra, "y": _algebra, "n": st.integers(0, 3)},
        {"map": st.dictionaries(_gen_name, _field(element_text), max_size=2),
         "assignment": element_text}), []),
    "tensor-a": ("tensor-input", _body({"b": _amodule, "m": _amodule}), ["--truncation", "4"]),
    "base-change": ("base-change-input", _body({"b": _algebra, "n": _amodule}),
                    ["--truncation", "3"]),
    "suite": ("suite-config", st.fixed_dictionaries(
        {"filter": st.one_of(st.sampled_from(["zz", "disks"]), st.integers(), st.booleans(),
                             st.lists(st.integers(), max_size=1))},
        optional={"seed": _field(st.integers(0, 5)), "bound": _field(st.integers(0, 40)),
                  "truncation": _field(st.integers(0, 4))}), []),
}
_KINDS = sorted({kind for kind, _, _ in FUZZ_COMMANDS.values()})


@pytest.mark.parametrize("cmd", sorted(FUZZ_COMMANDS))
def test_fuzzed_documents_end_in_an_exit_code(cmd, tmp_path_factory):
    kind, body, flags = FUZZ_COMMANDS[cmd]
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(st.just(kind), st.sampled_from(_KINDS)), body, _field(_vars))
    def run(doc_kind, doc_body, nvars):
        doc = make_document(doc_kind, dict(doc_body, vars=nvars))
        path.write_text(print_document(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([cmd, "--file", str(path)] + flags) in (0, 1, 2, 3)

    run()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(operator_text, st.integers(1, 2))
def test_fuzzed_operator_strings_parse_or_raise_parse_error(text, nvars):
    try:
        w = parse_operator(text, nvars)
    except ParseError:
        return
    assert isinstance(w, WeylElement) and w.nvars == nvars
