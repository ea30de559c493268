"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

Elements are stored reduced modulo the e-th cyclotomic polynomial, so
equality, rational-integer recognition and conjugation are all decided
canonically with integer arithmetic only.  Character values additionally
carry an eigenvalue-multiplicity vector (length e, entries in [0, degree]);
`CyclotomicInt.from_mult_vector` converts it into the reduced form.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantError
from .polynomials import IntPoly, poly_divmod_exact


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exactly, by recursive division."""
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
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
            raise ValueError(f"expected {ctx.degree} coefficients for e={e}")
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
    def root(cls, e: int, k: int = 1) -> "CyclotomicInt":
        """zeta_e^k."""
        ctx = _context(e)
        return cls(e, ctx.reduce_exponent(k % e))

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
                raise ValueError(f"mixed conductors {self.e} and {other.e}")
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

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational_integer() and self.as_int() == other
        return (
            isinstance(other, CyclotomicInt)
            and self.e == other.e
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
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

    def conjugate(self) -> "CyclotomicInt":
        return self.galois(self.e - 1)

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


class CycloPoly:
    """Polynomial in u with CyclotomicInt coefficients (low degree first)."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs=()):
        self.e = e
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value: CyclotomicInt) -> "CycloPoly":
        return cls(value.e, (value,))

    @classmethod
    def from_int_poly(cls, e: int, poly: IntPoly) -> "CycloPoly":
        return cls(e, tuple(CyclotomicInt.from_int(e, c) for c in poly.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _coerce(self, other) -> "CycloPoly":
        if isinstance(other, CycloPoly):
            if other.e != self.e:
                raise ValueError("mixed conductors")
            return other
        if isinstance(other, CyclotomicInt):
            return CycloPoly(self.e, (other,))
        if isinstance(other, int):
            return CycloPoly(self.e, (CyclotomicInt.from_int(self.e, other),))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        zero = CyclotomicInt.zero(self.e)
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(o.coeffs) + [zero] * (n - len(o.coeffs))
        return CycloPoly(self.e, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return CycloPoly(self.e, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, (int, CyclotomicInt)):
            o = self._coerce(other)
            if not o.coeffs:
                return CycloPoly(self.e)
            scalar = o.coeffs[0]
            return CycloPoly(self.e, tuple(c * scalar for c in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return CycloPoly(self.e)
        zero = CyclotomicInt.zero(self.e)
        out = [zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return CycloPoly(self.e, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloPoly)
            and self.e == other.e
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.e, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, x) -> CyclotomicInt:
        acc = CyclotomicInt.zero(self.e)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, k: int) -> CyclotomicInt:
        if k < len(self.coeffs):
            return self.coeffs[k]
        return CyclotomicInt.zero(self.e)

    def to_int_poly(self) -> IntPoly:
        """Reduce to an integer polynomial; raises if any coefficient is not rational."""
        return IntPoly(tuple(c.as_int() for c in self.coeffs))

    def __repr__(self):
        return f"CycloPoly(e={self.e}, coeffs={list(self.coeffs)})"
