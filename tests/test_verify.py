"""The check catalog: verdicts, determinism, report serialization."""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dgdm import cli

from dgdm.verify import (
    CATALOG,
    CheckReport,
    aggregate_verdict,
    run_check,
    run_suite,
)

# small parameter overrides so the whole-catalog tests stay fast
FAST = {
    "filtration_splitting": {"samples": 6},
    "trivial_pp_weq": {"max_mn": 2, "truncation": 4},
    "monoid_axiom_pushout": {"seeds": 4, "truncation": 4},
    "properness_random": {"seeds_dgdm": 6, "seeds_dgda": 2, "seeds_amod": 4},
    "hac3_flatness": {"seeds": 4},
    "hac4_base_change": {"seeds": 4},
    "cmon_under_roundtrip": {"seeds": 5},
    "simpl_tens_iso": {"seeds": 4},
    "monad_laws": {"probes": 4},
    "limit_colimit_weq": {"seeds": 4, "stages": 2},
    "graded_filtration_weq": {"seeds": 4, "stages": 2},
    "kunneth_mapcone": {"seeds": 5},
    "sullivan_pushout_universal": {"seeds": 5},
    "hac1_arrows": {"seeds": 5},
    "cofibrant_retract": {"seeds": 3},
}


def test_catalog_has_all_named_checks():
    expected = {
        "flatness_counterexample", "filtration_splitting", "disks_acyclic",
        "pushout_product_cokernel", "trivial_pp_weq", "monoid_axiom_pushout",
        "properness_random", "hac3_flatness", "hac4_base_change",
        "cmon_under_roundtrip", "simpl_tens_iso", "monad_laws",
        "limit_colimit_weq", "graded_filtration_weq", "kunneth_mapcone",
        "sullivan_pushout_universal", "hac1_arrows", "cofibrant_retract",
    }
    assert set(CATALOG) == expected
    assert len(CATALOG) == 18


def test_unknown_check_raises():
    with pytest.raises(KeyError):
        run_check("not_a_check")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_each_check_does_not_fail(name):
    report = run_check(name, FAST.get(name), seed=5)
    assert report.verdict in ("pass", "bounded-pass"), report.witness
    assert report.parameters["seed"] == 5


def test_flatness_check_has_witness_data():
    r = run_check("flatness_counterexample")
    assert r.verdict == "pass"
    assert r.witness["member(1, D.d)"] is False


def test_suite_runs_filtered_and_aggregates():
    reports = run_suite("hac", seed=7, overrides=FAST)
    assert [r.name for r in reports] == ["hac3_flatness", "hac4_base_change", "hac1_arrows"]
    assert aggregate_verdict(reports) in ("pass", "bounded-pass")


def test_suite_determinism():
    r1 = run_suite("disks", seed=3)
    r2 = run_suite("disks", seed=3)
    assert [a.to_text() for a in r1] == [b.to_text() for b in r2]


def test_bounded_pass_never_upgraded():
    reports = [
        CheckReport("a", "pass"),
        CheckReport("b", "bounded-pass"),
    ]
    assert aggregate_verdict(reports) == "bounded-pass"
    reports.append(CheckReport("c", "fail", witness={"x": 1}))
    assert aggregate_verdict(reports) == "fail"


def test_report_serialization_stable_field_order():
    r = run_check("disks_acyclic", seed=0)
    text = r.to_text()
    assert text.index('"check"') < text.index('"verdict"') < text.index('"parameters"')
    # runtime excluded from the canonical form
    assert "runtime" not in text


def test_fail_witness_reverifies_independently():
    # S^0 (x) S^0 fails bounded acyclicity; the witness cycle 1 (x) 1 is
    # re-verified as a non-boundary by a fresh span computation one level up
    from dgdm.complexes import sphere
    from dgdm.obasis import tensor_free, truncated_acyclicity
    from dgdm.rational_linalg import Echelon

    t = tensor_free(sphere(0), sphere(0))
    res = truncated_acyclicity(t, 6)
    assert res.verdict == "fail"
    cycle = res.witness["cycle"]
    degree = res.witness["degree"]
    ech = Echelon()
    for key, _ in t.basis_keys(degree + 1, 9):
        img = t.diff_key(key)
        if img:
            ech.insert(img)
    assert ech.reduce(cycle)


# bounded check -> least truncation: one below, level N of its walks lists
# no key on seeds 42 and 7 (for properness_random, 100 of its 110 walks)
LEAST_TRUNCATION = {
    "trivial_pp_weq": 2,
    "monoid_axiom_pushout": 2,
    "properness_random": 3,
    "hac3_flatness": 4,
    "hac4_base_change": 3,
    "cofibrant_retract": 3,
}


def test_every_bounded_check_has_a_least_truncation():
    assert set(LEAST_TRUNCATION) == {name for name, (_, d) in CATALOG.items() if "truncation" in d}


@pytest.mark.parametrize("name, least", sorted(LEAST_TRUNCATION.items()))
def test_bounded_check_refuses_a_truncation_below_its_least(name, least, tmp_path, capsys):
    message = f"{name} checks no key below truncation {least}, got {least - 1}"
    with pytest.raises(ValueError, match=message):
        run_check(name, {"truncation": least - 1})
    assert cli.dispatch(["check", "--check", name, "--truncation", str(least - 1)]) == 2
    assert message in capsys.readouterr().err
    cfg = tmp_path / "cfg.doc"
    cfg.write_text(cli.print_document(cli.make_document(
        "suite-config", {"filter": name, "truncation": least - 1})))
    assert cli.dispatch(["suite", "--file", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name, least", sorted(LEAST_TRUNCATION.items()))
def test_bounded_check_passes_at_its_least_truncation(name, least):
    for seed in (42, 7):
        assert run_check(name, {"truncation": least}, seed).verdict == "bounded-pass"


def test_bounded_pass_records_truncation_levels():
    r = run_check("trivial_pp_weq", {"max_mn": 1, "truncation": 4}, seed=0)
    assert r.verdict == "bounded-pass"
    assert r.parameters["truncation_levels"] == [4, 5]


SEEDED_BOUNDED = sorted(n for n, (_, d) in CATALOG.items() if "seeds" in d and "truncation" in d)


@pytest.mark.parametrize("name", SEEDED_BOUNDED)
def test_bounded_check_on_no_seeds_stays_bounded(name):
    # a bounded check never says an exact `pass`, not even when it draws no instance
    r = run_check(name, {"seeds": 0})
    assert r.verdict == "bounded-pass" and r.witness is None


# literal copies of the benchmark's pinned suite digests (stdout of
# `dgdm suite --seed 42`, and of the same with `--filter f`)
SUITE_PINS = {
    "all:42": "e025edb4cd0a877e9e989f3daab9dbc33e6ec9c8c4ddb14a329a308f39da15be",
    "f:42": "29b4f9dbb26afde8b98a20960395872d6350893ecfe9ff870139bcdde421b93d",
}


SUITE_RUNS = {"all:42": ["suite", "--seed", "42"],
              "f:42": ["suite", "--seed", "42", "--filter", "f"]}


@pytest.mark.parametrize("key", sorted(SUITE_PINS))
def test_suite_report_bytes_match_pins(key):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(SUITE_RUNS[key]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SUITE_PINS[key]


def test_filtration_splitting_check_builds_few_zero_weyl_elements(monkeypatch):
    # padding the decompositions with zeros built 336 zero WeylElements in
    # this check; the zeros left are the empty order components
    from dgdm import weyl
    from dgdm.weyl import WeylElement

    zeros = 0
    init, element = WeylElement.__init__, weyl._element

    def counting_init(self, nvars, terms=None):
        nonlocal zeros
        init(self, nvars, terms)
        zeros += not self.terms

    def counting_element(nvars, terms):
        nonlocal zeros
        zeros += not terms
        return element(nvars, terms)

    monkeypatch.setattr(WeylElement, "__init__", counting_init)
    monkeypatch.setattr(weyl, "_element", counting_element)
    assert run_check("filtration_splitting", None, 42).verdict == "pass"
    assert zeros <= 133, zeros


UNBOUNDED = sorted(name for name, (_, d) in CATALOG.items() if "truncation" not in d)


@pytest.mark.parametrize("name", UNBOUNDED)
def test_check_refuses_a_parameter_it_does_not_read(name, capsys):
    # a check without a truncation must not report one it never used
    known = ", ".join(CATALOG[name][1]) or "none"
    message = f"{name} takes no parameter truncation; known: {known}"
    with pytest.raises(ValueError, match=message):
        run_check(name, {"truncation": 3})
    assert cli.dispatch(["check", "--check", name, "--truncation", "3"]) == 2
    assert message in capsys.readouterr().err


def test_bounded_check_names_every_unknown_parameter():
    with pytest.raises(ValueError, match="hac3_flatness takes no parameter seed, window; "
                                         "known: seeds, truncation, degree_window"):
        run_check("hac3_flatness", {"window": 3, "seed": 1, "seeds": 2})
