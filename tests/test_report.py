"""Report: the record every property check returns."""

from orehopf.report import Report


def test_reports_made_without_facts_share_no_container():
    a, b = Report("a", True), Report("b", True)
    a.facts["n"] = 1
    a.witnesses.append({"check": "x"})
    assert b.facts == {} and b.witnesses == []


def test_report_to_dict_and_truth():
    facts, witnesses = {"n": 2}, [{"check": "counit"}]
    failed = Report("hopf_ideal_check", False, facts, witnesses, seed=7)
    assert not failed
    assert failed.to_dict() == {"status": "fail",
                                "facts": {"check": "hopf_ideal_check", "n": 2, "seed": 7},
                                "witnesses": [{"check": "counit"}]}
    # the dict is built afresh: editing it leaves the report as it was
    out = failed.to_dict()
    out["facts"]["n"] = 3
    out["witnesses"].clear()
    assert failed.facts == {"n": 2} and failed.witnesses == witnesses
    passed = Report(name="burnside", passed=True, facts={"span_dimension": 4})
    assert passed
    assert passed.to_dict() == {"status": "pass",
                                "facts": {"check": "burnside", "span_dimension": 4},
                                "witnesses": []}


def test_reports_with_equal_fields_are_equal():
    assert Report("a", True, {"n": 1}) == Report(name="a", passed=True, facts={"n": 1})
    assert Report("a", True) != Report("a", False)
    assert Report("a", True) != Report("a", True, seed=0)
