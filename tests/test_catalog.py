"""Catalog entries: every prebuilt instance must certify itself."""

from fractions import Fraction

import pytest

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


def test_unknown_entry():
    with pytest.raises(SpecError, match="unknown catalog entry"):
        catalog_entry("nope")


def test_u1_facts():
    entry = catalog_entry("u1")
    assert entry.spec.mode is Mode.DIFFERENTIAL_OPERATOR
    assert entry.report.facts["q_is_minus_one"] is True
    assert entry.report.facts["relation_yx"] is True


def test_taft_congruence_validation():
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


def test_wwt_hypothesis_validation():
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


def test_fantino_garcia_validation():
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
