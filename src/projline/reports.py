"""Structured pass/fail reports with deterministic JSON output.

Every checker in this package returns one of these types instead of a
bare bool so that callers always get counts and witnesses.  Reports
serialize to plain dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"


@dataclass
class CheckReport:
    """Outcome of a single named check.

    ``checked`` counts the instances covered, each one examined except
    in ``uniqueness``, which covers whole refuted subtrees of object
    bijections; ``failures`` counts all violations found, ``witnesses``
    a deterministic capped sample: descriptions or identity-table rows.
    """

    name: str
    status: str
    checked: int
    failures: int
    witnesses: list[Any] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "checked": self.checked,
            "failures": self.failures,
            "witnesses": list(self.witnesses),
        }

    def render(self) -> str:
        head = f"{self.name}: {self.status.upper()} (checked={self.checked}"
        if self.failures:
            head += f", failures={self.failures}"
        head += ")"
        lines = [head]
        for w in self.witnesses:
            lines.append(f"  witness: {w}")
        return "\n".join(lines)


def make_check(name: str, checked: int, failures: int, witnesses: list[Any]) -> CheckReport:
    if checked == 0:
        status = VACUOUS
    elif failures:
        status = FAIL
    else:
        status = PASS
    return CheckReport(name, status, checked, failures, witnesses)


def sweep(
    name: str, checked: int, bad: np.ndarray, describe: Callable[..., Any], cap: int
) -> CheckReport:
    """A check of ``checked`` instances that fails at the true entries of
    the mask ``bad``, all of them counted.  The witnesses are
    ``describe(*index)`` of its first ``cap`` true entries in row-major
    order, each index component an int."""
    where = np.argwhere(bad)
    return make_check(name, checked, len(where), [describe(*map(int, k)) for k in where[:cap]])


@dataclass
class ReportGroup:
    """An ordered collection of checks run against one subject."""

    name: str
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckReport:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        lines.append(f"{self.name}: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

