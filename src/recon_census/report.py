"""Pass/fail reports emitted by every verification suite, each one
``VerificationReport``: an immutable NamedTuple, equal by value."""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

SCHEMA_VERSION = "1.0.0"


class VerificationReport(NamedTuple):
    """Outcome of one named check at one order.

    ``counterexample`` holds the first violation found, as a tuple
    ``(k, i, j, lhs, rhs)``.  ``k`` is the deleted point for checks
    quantified over one, and 0 otherwise.  The verdict is read from it,
    not stored: a report fails exactly when a counterexample is present.
    """

    check_name: str
    order: int
    counterexample: Optional[tuple] = None
    checked_count: int = 0
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "check": self.check_name,
            "p": self.order,
            "outcome": "pass" if self.passed else "fail",
            "checked": self.checked_count,
        }
        if self.counterexample is not None:
            k, i, j, lhs, rhs = self.counterexample
            doc["counterexample"] = {"k": k, "i": i, "j": j, "lhs": lhs, "rhs": rhs}
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    def __str__(self) -> str:
        status = "pass" if self.passed else f"FAIL at {self.counterexample}"
        return f"{self.check_name}(p={self.order}): {status} [{self.checked_count} checked]"
