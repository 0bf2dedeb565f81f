"""Catalog entries: every prebuilt instance must certify itself."""

from collections import Counter
from fractions import Fraction

import pytest

from orehopf import catalog
from orehopf.catalog import (CatalogEntry, catalog_entry, catalog_names,
                             fantino_garcia_core, generalized_taft,
                             wang_wu_tan)
from orehopf.hopfcore import Mode, SpecError
from orehopf.report import Report


def test_all_entries_pass():
    names = catalog_names()
    assert names == ["diff-z2", "fantino-garcia", "klein", "skew-z2",
                     "taft", "u1", "wwt"]
    for name in names:
        entry = catalog_entry(name)
        assert entry.report.passed, (name, entry.report.witnesses)
        assert entry.name == name


def test_catalog_entries_with_equal_fields_are_equal():
    spec = catalog_entry("u1").spec
    entry = CatalogEntry("u1", spec, None, None, Report("u1", True, {"n": 1}))
    assert entry == CatalogEntry("u1", spec, None, None, Report("u1", True, {"n": 1}))
    assert entry != CatalogEntry("u1", spec, None, None, Report("u1", False, {"n": 1}))
    assert entry != CatalogEntry("u2", spec, None, None, Report("u1", True, {"n": 1}))


# the functions of catalog.py that only the facts call
FACT_CHECKS = ("hopf_axiom_check", "change_of_variables_check", "rep_check",
               "is_simple_burnside", "hopf_ideal_check", "comultiply", "counit",
               "antipode", "q_reduce", "quotient_basis", "torsion_profile")


def _facts_raise(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("a fact ran")
    for name in FACT_CHECKS:
        monkeypatch.setattr(catalog, name, fail)


def test_entry_parts_are_built_without_running_facts(monkeypatch):
    _facts_raise(monkeypatch)
    for name in catalog_names():
        entry = catalog_entry(name)
        assert entry.name == name
        assert entry.spec.conductor >= 2
        assert (entry.quotient is not None) == (name in ("taft", "wwt", "fantino-garcia"))
        assert (entry.module is not None) == (name == "klein")
        with pytest.raises(RuntimeError, match="a fact ran"):
            entry.report


def _count_certificates(monkeypatch):
    """A Counter of the calls the facts make to their five certificates."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("hopf_axiom_check", "change_of_variables_check", "rep_check",
                 "is_simple_burnside", "hopf_ideal_check"):
        monkeypatch.setattr(catalog, name, counted(name, getattr(catalog, name)))
    return calls


def test_report_runs_each_fact_once(monkeypatch):
    calls = _count_certificates(monkeypatch)
    expected = {"u1": ("hopf_axiom_check", "change_of_variables_check"),
                "skew-z2": ("hopf_axiom_check", "change_of_variables_check"),
                "diff-z2": ("hopf_axiom_check", "change_of_variables_check"),
                "taft": ("hopf_ideal_check",), "wwt": ("hopf_ideal_check",),
                "fantino-garcia": ("hopf_ideal_check",),
                "klein": ("rep_check", "is_simple_burnside")}
    for name in catalog_names():
        calls.clear()
        entry = catalog_entry(name)
        assert not calls
        report = entry.report
        assert calls == Counter(expected[name]), name
        assert entry.report is report and calls == Counter(expected[name])
        assert report.name == f"catalog:{name}" and report.passed


@pytest.mark.parametrize("force", [bool, lambda entry: entry == entry],
                         ids=["bool", "eq"])
def test_equality_and_truth_run_the_facts(monkeypatch, force):
    entry = catalog_entry("u1")
    calls = _count_certificates(monkeypatch)
    assert force(entry) is True
    assert calls["hopf_axiom_check"] == 1
    assert entry.report.facts["hopf_axioms"] == 10 and calls["hopf_axiom_check"] == 1


def test_unknown_entry():
    with pytest.raises(SpecError, match="unknown catalog entry"):
        catalog_entry("nope")


def test_u1_facts():
    entry = catalog_entry("u1")
    assert entry.spec.mode is Mode.DIFFERENTIAL_OPERATOR
    assert entry.report.facts["q_is_minus_one"] is True
    assert entry.report.facts["relation_yx"] is True


def test_taft_congruence_validation(monkeypatch):
    # the parameter checks run in the builder call, not with the facts
    _facts_raise(monkeypatch)
    with pytest.raises(SpecError, match="a11 != a12"):
        generalized_taft(5, ((1, 1), (1, 3)))
    with pytest.raises(SpecError, match="a21 != a22"):
        generalized_taft(5, ((1, 2), (3, 3)))
    with pytest.raises(SpecError, match="a11\\*a22 \\+ a12\\*a21"):
        generalized_taft(5, ((1, 2), (1, 4)))


def test_taft_alternate_parameters():
    entry = generalized_taft(7, ((1, 3), (1, 4)))
    assert entry.report.passed, entry.report.witnesses
    assert entry.quotient is not None
    assert entry.quotient.n == entry.quotient.m == 7


def test_taft_nilpotency_orders_at_a_composite_conductor():
    # chi(b) = zeta_12^(a21 a22) = zeta_12^16 has order 3 and
    # eta(c) = zeta_12^(a11 a12) = zeta_12^2 has order 6
    entry = generalized_taft(12, ((1, 2), (2, 8)))
    assert entry.report.passed, entry.report.witnesses
    assert entry.report.facts["nilpotency_orders"] == {"N_x": 3, "N_y": 6}
    assert entry.report.facts["quotient_rank"] == 18


def test_wwt_hypothesis_validation(monkeypatch):
    # the parameter checks run in the builder call, not with the facts
    _facts_raise(monkeypatch)
    with pytest.raises(SpecError, match="1 <= n1 <= n"):
        wang_wu_tan(3, 4, 1, 1, 1)
    with pytest.raises(SpecError, match="gcd\\(n, n1\\) odd"):
        wang_wu_tan(4, 2, 1, 1, 1)


def test_wwt_alternate_parameters():
    entry = wang_wu_tan(5, 3, 1, -1, 2)
    assert entry.report.passed, entry.report.witnesses
    entry = wang_wu_tan(3, 1, Fraction(1, 2), Fraction(-2), Fraction(3, 4))
    assert entry.report.passed, entry.report.witnesses
    assert entry.spec.beta == entry.spec.scalar("3/4")
    # n1 = n makes chi(e) trivial: no quotient, reported as a plain value
    entry = wang_wu_tan(3, 3, 1, 1, 1)
    assert entry.report.passed, entry.report.witnesses
    assert entry.quotient is None
    assert entry.report.facts["quotient_skipped"] == "chi(e) has order 1"


def test_fantino_garcia_validation(monkeypatch):
    # the parameter checks run in the builder call, not with the facts
    _facts_raise(monkeypatch)
    with pytest.raises(SpecError, match="m = 4t with t >= 3"):
        fantino_garcia_core(8, 1, 1)
    with pytest.raises(SpecError, match="m = 4t"):
        fantino_garcia_core(13, 1, 1)
    with pytest.raises(SpecError, match="i odd"):
        fantino_garcia_core(12, 2, 1)
    with pytest.raises(SpecError, match="i odd"):
        fantino_garcia_core(12, 7, 1)


def test_fantino_garcia_alternate_parameters():
    entry = fantino_garcia_core(16, 3, 0)
    assert entry.report.passed, entry.report.witnesses
    assert entry.report.facts["dimension_over_field"] == 64


def test_klein_module():
    entry = catalog_entry("klein")
    assert entry.module is not None
    assert entry.module.dim == 4
    assert entry.report.facts["burnside_span"] == 16
