"""Dense univariate polynomials with exact coefficients.

The coefficients are Python ints or cyclotomic integers
(`cyclotomic.CyclotomicInt`): both rings share `+`, `*` and `==`, so one
class serves h(u) in Z[u] and h(u, rho) in Z[zeta_e][u].  Coefficients are
stored as given, low degree first and normalized (no trailing zeros).  The
zero polynomial has an empty coefficient tuple and degree -1.
Interpolation takes samples at consecutive integers and stays in the
integers: forward differences, exact division by k!, Horner's rule in the
falling-factorial basis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InvariantError


def _trim(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPoly:
    """Polynomial in one indeterminate over Z or Z[zeta_e].

    Every operand that is not an `IntPoly` is a scalar of the coefficient
    ring.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = _trim(tuple(coeffs))

    @classmethod
    def const(cls, c) -> "IntPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            other = IntPoly((other,))
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __add__(self, other) -> "IntPoly":
        if not isinstance(other, IntPoly):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "IntPoly":
        return self + (-other)

    def __rsub__(self, other) -> "IntPoly":
        return (-self) + other

    def __mul__(self, other) -> "IntPoly":
        if not isinstance(other, IntPoly):
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        # no product is skipped: every slot then holds a value of the
        # operands' ring, never a bare int 0 among cyclotomic integers
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


def poly_divmod_exact(num: IntPoly, den: IntPoly) -> IntPoly:
    """Exact quotient of integer polynomials; raises if division leaves a remainder."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num.coeffs)
    q = [0] * max(0, len(rem) - len(den.coeffs) + 1)
    d = den.coeffs
    lead = d[-1]
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(d) - 1]
        if c % lead != 0:
            raise InvariantError("inexact polynomial division")
        f = c // lead
        q[k] = f
        if f:
            for i, dc in enumerate(d):
                rem[k + i] -= f * dc
    if any(rem):
        raise InvariantError("inexact polynomial division: nonzero remainder")
    return IntPoly(q)


def forward_differences(values: Sequence[int]) -> list[int]:
    """Leading diagonal of the difference table: values[0], delta values[0], ...

    For samples f(x0), f(x0 + 1), ... the k-th entry is the forward
    difference delta^k f(x0).
    """
    row = list(values)
    out = []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def interpolate_int_poly(x0: int, values: Sequence[int]) -> IntPoly:
    """The integer polynomial of degree < len(values) with f(x0 + k) = values[k].

    Newton's forward form f(x) = sum_k delta^k f(x0) / k! * (x - x0)_k with
    the falling factorial (x - x0)_k = (x - x0)(x - x0 - 1)...(x - x0 - k + 1).
    The falling factorials are a Z-basis of Z[x], so f has integer
    coefficients exactly when every delta^k f(x0) is divisible by k!; a
    remainder raises `InvariantError`.  The expansion is Horner's rule in
    that basis, in integers throughout.
    """
    newton, factorial = [], 1
    for k, diff in enumerate(forward_differences(values)):
        factorial *= max(k, 1)
        if diff % factorial:
            raise InvariantError(f"non-integer coefficient {diff}/{factorial} in interpolation")
        newton.append(diff // factorial)
    out: list[int] = []
    for k in range(len(newton) - 1, -1, -1):
        # out = out * (x - x0 - k) + newton[k]
        nxt = [newton[k]] + out
        for i, c in enumerate(out):
            nxt[i] -= (x0 + k) * c
        out = nxt
    return IntPoly(out)
