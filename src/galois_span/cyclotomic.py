"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

Elements are stored reduced modulo the e-th cyclotomic polynomial, so
equality, rational-integer recognition and conjugation are all decided
canonically with integer arithmetic only.  Character values additionally
carry an eigenvalue-multiplicity vector (length e, entries in [0, degree]);
`CyclotomicInt.from_mult_vector` converts it into the reduced form.

There is no polynomial type here: a polynomial over Z[zeta_e] is a
`polynomials.IntPoly` whose coefficients are `CyclotomicInt`s.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CyclotomicError, InvariantError
from .polynomials import IntPoly, poly_divmod_exact


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exactly, by recursive division."""
    if n < 1:
        raise CyclotomicError("cyclotomic polynomial needs n >= 1")
    x_n_minus_1 = IntPoly([-1] + [0] * (n - 1) + [1])
    quotient = x_n_minus_1
    for d in range(1, n):
        if n % d == 0:
            quotient = poly_divmod_exact(quotient, cyclotomic_polynomial(d))
    return quotient


class _Context:
    """Per-conductor reduction tables for Z[x]/Phi_e."""

    def __init__(self, e: int):
        self.e = e
        phi = cyclotomic_polynomial(e)
        self.degree = phi.degree
        d = self.degree
        # x^m mod Phi_e for all m needed by products and root powers
        top = max(e, 2 * d - 1)
        powers: list[tuple[int, ...]] = []
        current = [0] * d
        if d > 0:
            current[0] = 1
        powers.append(tuple(current))
        phi_coeffs = phi.coeffs  # monic of degree d
        for _ in range(1, top):
            shifted = [0] + current[:]
            if len(shifted) > d and shifted[d]:
                lead = shifted[d]
                for i in range(d):
                    shifted[i] -= lead * phi_coeffs[i]
            current = shifted[:d]
            powers.append(tuple(current))
        self.power_table = powers

    def reduce_exponent(self, m: int) -> tuple[int, ...]:
        return self.power_table[m % self.e if m >= self.e else m]


@lru_cache(maxsize=None)
def _context(e: int) -> _Context:
    return _Context(e)


class CyclotomicInt:
    """An element of Z[zeta_e], reduced mod the e-th cyclotomic polynomial."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs):
        ctx = _context(e)
        c = tuple(coeffs)
        if len(c) != ctx.degree:
            raise CyclotomicError(f"expected {ctx.degree} coefficients for e={e}")
        self.e = e
        self.coeffs = c

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_int(cls, e: int, value: int) -> "CyclotomicInt":
        ctx = _context(e)
        coeffs = [0] * ctx.degree
        if ctx.degree > 0:
            coeffs[0] = value
        out = cls.__new__(cls)
        out.e = e
        out.coeffs = tuple(coeffs)
        return out

    @classmethod
    def zero(cls, e: int) -> "CyclotomicInt":
        return cls.from_int(e, 0)

    @classmethod
    def one(cls, e: int) -> "CyclotomicInt":
        return cls.from_int(e, 1)

    @classmethod
    def from_mult_vector(cls, e: int, mult) -> "CyclotomicInt":
        """Value sum_k mult[k] * zeta_e^k from a length-e multiplicity vector."""
        ctx = _context(e)
        acc = [0] * ctx.degree
        for k, m in enumerate(mult):
            if m:
                for i, c in enumerate(ctx.reduce_exponent(k % e)):
                    acc[i] += m * c
        return cls(e, acc)

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other) -> "CyclotomicInt":
        if isinstance(other, CyclotomicInt):
            if other.e != self.e:
                raise CyclotomicError(f"mixed conductors {self.e} and {other.e}")
            return other
        if isinstance(other, int):
            return CyclotomicInt.from_int(self.e, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.e, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.e, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.e, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.e, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ctx = _context(self.e)
        d = ctx.degree
        conv = [0] * (2 * d - 1 if d > 0 else 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    conv[i + j] += a * b
        acc = [0] * d
        for m, c in enumerate(conv):
            if c == 0:
                continue
            if m < d:
                acc[m] += c
            else:
                for i, t in enumerate(ctx.power_table[m]):
                    acc[i] += c * t
        return CyclotomicInt(self.e, acc)

    __rmul__ = __mul__

    def divide_exact(self, k: int) -> "CyclotomicInt":
        """self / k, coordinatewise in the power basis, a Z-basis of Z[zeta_e];
        a coordinate that k does not divide raises `InvariantError`."""
        quotients = [divmod(c, k) for c in self.coeffs]
        if any(rest for _, rest in quotients):
            raise InvariantError(f"{self!r} is not divisible by {k}")
        return CyclotomicInt(self.e, [q for q, _ in quotients])

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational_integer() and self.as_int() == other
        return (
            isinstance(other, CyclotomicInt)
            and self.e == other.e
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        # a rational value equals its int, so it must hash as that int
        if self.is_rational_integer():
            return hash(self.as_int())
        return hash((self.e, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- structure ---------------------------------------------------------------

    def galois(self, k: int) -> "CyclotomicInt":
        """Apply zeta -> zeta^k (k coprime to e not enforced; used with units)."""
        ctx = _context(self.e)
        acc = [0] * ctx.degree
        for i, c in enumerate(self.coeffs):
            if c:
                for j, t in enumerate(ctx.reduce_exponent((i * k) % self.e)):
                    acc[j] += c * t
        return CyclotomicInt(self.e, acc)

    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer():
            raise InvariantError(f"{self!r} is not a rational integer")
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self) -> str:
        return f"CyclotomicInt(e={self.e}, coeffs={list(self.coeffs)})"


def reverse_mult_vector(mult) -> tuple[int, ...]:
    """Multiplicity vector of the complex-conjugate value (index reversal)."""
    e = len(mult)
    return tuple(mult[(e - k) % e] for k in range(e))
