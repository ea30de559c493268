"""Verification reports: exact integer comparisons with a pass flag.

A report holds only what the check computed, no wall-clock time, so its
JSON is byte-identical for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exact check.

    `left` and `right` are the two sides after clearing denominators and
    negative exponents; `passed` is true exactly when they are equal.
    Degenerate identities (e.g. a formula that reduces to x = x) set
    `trivial` and note it.
    """

    claim: str
    inputs: str
    left: int
    right: int
    passed: bool
    trivial: bool = False
    notes: str = ""
    details: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def compare(
        cls,
        claim: str,
        inputs: str,
        left: int,
        right: int,
        *,
        trivial: bool = False,
        notes: str = "",
        details: Mapping[str, Any] | None = None,
    ) -> "VerificationReport":
        if trivial and not notes:
            notes = "trivially true"
        return cls(
            claim=claim,
            inputs=inputs,
            left=left,
            right=right,
            passed=left == right,
            trivial=trivial,
            notes=notes,
            details=dict(details or {}),
        )

    def status(self) -> str:
        if self.passed:
            return "trivially true" if self.trivial else "pass"
        return "FAIL"

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "inputs": self.inputs,
            "left": str(self.left),
            "right": str(self.right),
            "passed": self.passed,
            "status": self.status(),
            "trivial": self.trivial,
            "notes": self.notes,
            "details": _jsonable(self.details),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if hasattr(value, "numerator") and hasattr(value, "denominator"):
        return f"{value.numerator}/{value.denominator}"
    return value if isinstance(value, (str, float)) else str(value)
