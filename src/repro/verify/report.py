"""The one verdict every ``repro verify`` gate returns.

A gate counts what it checked and lists what it found: a
:class:`Report` is a name, a JSON-ready dict of tallies, and a list of
:class:`Violation` — it is ``ok`` exactly when that list is empty.  The
sweep gates (chaos, crash) fold one sub-report per
sampled case into theirs with :meth:`Report.absorb`, so a single
renderer and a single serializer cover every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Violation:
    """One departure from the contract."""

    check: str  # which rule broke: "pair-set", "model", "trichotomy", an invariant name...
    where: str  # the run it broke on: executor and case, scenario and step
    message: str
    payload: Any = None  # the Divergence behind a pair-set diff

    def describe(self) -> str:
        return f"[{self.check}] {self.where}: {self.message}"

    def to_dict(self) -> dict[str, str]:
        return {"check": self.check, "where": self.where, "message": self.message}


@dataclass
class Report:
    """What one gate checked and what it found."""

    gate: str
    counts: dict[str, Any] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, check: str, where: str, message: str, payload: Any = None) -> None:
        self.violations.append(Violation(check, where, message, payload))

    def absorb(self, key: str, other: Report) -> None:
        """Fold one case's sub-report in: its dict joins the list under
        ``counts[key]``, its violations join this report's."""
        self.counts.setdefault(key, []).append(other.to_dict())
        self.violations.extend(other.violations)

    def summary(self) -> str:
        lines = [f"{self.gate}: " + ("PASS" if self.ok else "FAIL")]
        for key, value in self.counts.items():
            if isinstance(value, list):
                # Per-case records stay in the JSON; name lists print.
                value = (
                    len(value)
                    if value and isinstance(value[0], dict)
                    else ", ".join(map(str, value))
                )
            lines.append(f"  {key:<18}: {value}")
        lines.extend(
            "  VIOLATION " + violation.describe().replace("\n", "\n    ")
            for violation in self.violations
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "gate": self.gate,
            "ok": self.ok,
            **self.counts,
            "violations": [violation.to_dict() for violation in self.violations],
        }
