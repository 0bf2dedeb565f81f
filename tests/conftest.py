"""Terminal summary: one pass/fail line per acceptance criterion.

The oracle module's asserts are rewritten like a test module's, so that
they still run under python -O."""

import re
import sys

import pytest

pytest.register_assert_rewrite("oracles")

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for category in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(category, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = int(m.group(1))
            label = m.group(2).replace("_", " ")
            outcome = "PASS" if category == "passed" else "FAIL"
            if getattr(rep, "when", "call") != "call" and category == "passed":
                continue
            if num not in results or outcome == "FAIL":
                results[num] = (outcome, label)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        outcome, label = results[num]
        terminalreporter.write_line(f"criterion {num:2d}: {outcome}  {label}")
    acceptance = sys.modules.get("test_acceptance")
    flags = getattr(acceptance, "AUDIT_FLAGS", None) if acceptance else None
    if flags:
        terminalreporter.write_line("torsion-module dimension audit:")
        for line in flags:
            terminalreporter.write_line(f"  {line}")
