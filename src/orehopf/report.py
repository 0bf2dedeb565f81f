"""Structured pass/fail reports for property checks.

Failures of mathematical properties are report content, not exceptions;
exceptions are reserved for malformed inputs.
"""

from __future__ import annotations


class Report:
    """Verdict of one named check: its facts, and a witness per failure.

    Equal reports have equal fields.  A plain class rather than a
    dataclass, so that importing the package (every CLI call pays it) does
    not load ``dataclasses`` and ``inspect``.
    """

    def __init__(self, name: str, passed: bool, facts: dict | None = None,
                 witnesses: list | None = None, seed: int | None = None):
        self.name = name
        self.passed = passed
        self.facts = {} if facts is None else facts
        self.witnesses = [] if witnesses is None else witnesses
        self.seed = seed

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        return (self.name, self.passed, self.facts, self.witnesses, self.seed) == \
            (other.name, other.passed, other.facts, other.witnesses, other.seed)

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        out = {
            "status": "pass" if self.passed else "fail",
            "facts": {"check": self.name, **self.facts},
            "witnesses": list(self.witnesses),
        }
        if self.seed is not None:
            out["facts"]["seed"] = self.seed
        return out
