"""Verification reports: exact integer comparisons with a pass flag.

A report holds only what the check computed, no wall-clock time, so its
JSON is byte-identical for fixed inputs.  Every integer of the output is
written by `decimal_text`, which has no digit limit.
"""

from __future__ import annotations

from typing import Any, Mapping

from .frozen import Frozen


# below 640, the least int-to-str digit limit Python can be set to
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS


def decimal_text(n: int) -> str:
    """The exact decimal text of an int of any size.

    `str(int)` refuses more digits than Python's int-to-str limit (4300 by
    default); this writes the number in pieces below that limit and leaves
    the limit, which also guards parsing, as it is.
    """
    if n < 0:
        return "-" + decimal_text(-n)
    pieces = []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(f"{low:0{_PIECE_DIGITS}d}")
    pieces.append(str(n))
    return "".join(reversed(pieces))


class VerificationReport(Frozen):
    """Outcome of one exact check.

    `left` and `right` are the two sides after clearing denominators and
    negative exponents; `passed` is true exactly when they are equal.
    Degenerate identities (e.g. a formula that reduces to x = x) set
    `trivial` and note it.
    """

    __slots__ = ("claim", "inputs", "left", "right", "passed", "trivial", "notes", "details")

    def __init__(
        self,
        claim: str,
        inputs: str,
        left: int,
        right: int,
        passed: bool,
        trivial: bool,
        notes: str,
        details: Mapping[str, Any],
    ):
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "trivial", trivial)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "details", details)

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
            "left": decimal_text(self.left),
            "right": decimal_text(self.right),
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
        return decimal_text(value)
    if hasattr(value, "numerator") and hasattr(value, "denominator"):
        return f"{decimal_text(value.numerator)}/{decimal_text(value.denominator)}"
    return value if isinstance(value, (str, float)) else str(value)
