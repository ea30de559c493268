import random

import pytest
from fractions import Fraction

from galois_span.errors import InvariantError
from galois_span.polynomials import (
    IntPoly,
    forward_differences,
    interpolate_int_poly,
    poly_divmod_exact,
)

from helpers import interpolate_rational


def test_basic_arithmetic():
    p = IntPoly([1, 2])  # 1 + 2x
    q = IntPoly([0, 0, 3])  # 3x^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p - p).coeffs == ()
    assert (p - p).degree == -1
    assert (2 * p).coeffs == (2, 4)


def test_evaluation_and_derivative():
    p = IntPoly([1, -4, 3])
    assert p(1) == 0
    assert p(0) == 1
    assert p.derivative().coeffs == (-4, 6)
    assert p.derivative()(1) == 2


def test_exact_division():
    a = IntPoly([-1, 0, 0, 1])  # x^3 - 1
    b = IntPoly([-1, 1])  # x - 1
    assert poly_divmod_exact(a, b).coeffs == (1, 1, 1)
    with pytest.raises(ArithmeticError):
        poly_divmod_exact(IntPoly([1, 1]), IntPoly([-1, 1]))


def test_interpolation_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))]
        p = IntPoly(coeffs)
        values = [p(x) for x in range(-3, max(4, p.degree + 2))]
        assert interpolate_int_poly(-3, values) == p


def test_interpolation_rational_values():
    pts = [(0, Fraction(1, 2)), (1, Fraction(3, 2)), (2, Fraction(9, 2))]
    coeffs = interpolate_rational(pts)
    # 1/2 + 0x + x^2... check by evaluation
    def ev(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    for x, y in pts:
        assert ev(x) == y


def test_integer_interpolation_matches_rational_oracle():
    rng = random.Random(23)
    cases = [(IntPoly(), x0) for x0 in (-7, 0, 7)]
    for degree in range(13):
        for _ in range(4):
            coeffs = [rng.randrange(-30, 31) for _ in range(degree)] + [rng.choice((-5, -1, 1, 7))]
            cases.append((IntPoly(coeffs), rng.randrange(-7, 8)))
    for p, x0 in cases:
        for extra in (0, 2):
            xs = range(x0, x0 + max(p.degree, 0) + 1 + extra)
            got = interpolate_int_poly(x0, [p(x) for x in xs])
            assert got == p
            assert list(got.coeffs) == interpolate_rational([(x, p(x)) for x in xs])


def test_forward_differences_of_a_cubic():
    # f(x) = x^3 at 0..4: delta^3 f = 3! and delta^4 f = 0
    assert forward_differences([0, 1, 8, 27, 64]) == [0, 1, 6, 6, 0]
    assert forward_differences([]) == []


def test_integer_interpolation_rejects_non_integer_coefficients():
    # t(t-1)/2 is integer-valued, but its coefficients are not integers
    with pytest.raises(InvariantError):
        interpolate_int_poly(0, [t * (t - 1) // 2 for t in range(5)])
    with pytest.raises(InvariantError):
        interpolate_int_poly(-3, [t * (t - 1) // 2 for t in range(-3, 1)])
