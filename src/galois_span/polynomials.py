"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored low degree first and normalized (no trailing
zeros).  The zero polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvariantError


def _trim(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPoly:
    """Polynomial in one indeterminate over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _trim(tuple(int(c) for c in coeffs))

    @classmethod
    def const(cls, c: int) -> "IntPoly":
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
        if isinstance(other, int):
            other = IntPoly((other,))
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __add__(self, other) -> "IntPoly":
        if isinstance(other, int):
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
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other) -> "IntPoly":
        return (-self) + other

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

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


def interpolate_rational(points: Sequence[tuple[int, object]]) -> list[Fraction]:
    """Coefficients (low first) of the unique polynomial through the points.

    Newton divided differences over exact rationals; the points must have
    pairwise distinct abscissae.
    """
    xs = [p[0] for p in points]
    ys = [Fraction(p[1]) for p in points]
    n = len(points)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    # expand Newton form to monomial coefficients
    out = [Fraction(0)] * n
    basis = [Fraction(1)] + [Fraction(0)] * (n - 1)
    deg = 0
    for k in range(n):
        c = coef[k]
        if c:
            for i in range(deg + 1):
                out[i] += c * basis[i]
        if k < n - 1:
            # basis *= (x - xs[k])
            nxt = [Fraction(0)] * n
            for i in range(deg + 1):
                nxt[i + 1] += basis[i]
                nxt[i] -= xs[k] * basis[i]
            basis = nxt
            deg += 1
    while out and out[-1] == 0:
        out.pop()
    return out


def interpolate_int_poly(points: Sequence[tuple[int, int]]) -> IntPoly:
    """Interpolate and assert that every coefficient is an integer."""
    coeffs = interpolate_rational(points)
    for c in coeffs:
        if c.denominator != 1:
            raise InvariantError(f"non-integer coefficient {c} in interpolation")
    return IntPoly(tuple(c.numerator for c in coeffs))
