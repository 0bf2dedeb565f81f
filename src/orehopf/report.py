"""Structured pass/fail reports for property checks.

Failures of mathematical properties are report content, not exceptions;
exceptions are reserved for malformed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    name: str
    passed: bool
    facts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    seed: int | None = None

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

