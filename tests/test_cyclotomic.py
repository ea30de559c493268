import random
from fractions import Fraction

import pytest

from galois_span.cyclotomic import (
    CyclotomicInt,
    cyclotomic_polynomial,
    reverse_mult_vector,
)
from galois_span.errors import CyclotomicError, GaloisSpanError, InvariantError
from galois_span.polynomials import IntPoly
from helpers import conjugate, root


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)
    assert cyclotomic_polynomial(2).coeffs == (1, 1)
    assert cyclotomic_polynomial(3).coeffs == (1, 1, 1)
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    assert cyclotomic_polynomial(6).coeffs == (1, -1, 1)
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)
    # product of Phi_d over d | n is x^n - 1
    for n in (6, 8, 12, 30):
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == IntPoly([-1] + [0] * (n - 1) + [1])


def test_root_powers_and_relations():
    z = root(4)
    assert z * z == CyclotomicInt.from_int(4, -1)
    assert z * z * z * z == 1
    w = root(6)
    # 1 + zeta_6^2 + zeta_6^4 = 0
    assert w.galois(2) + w.galois(4) + 1 == 0
    # zeta_6 - zeta_6^5 is not rational; zeta_6 + zeta_6^5 = 1
    assert not (w - conjugate(w)).is_rational_integer()
    assert (w + conjugate(w)).as_int() == 1


def test_sum_of_all_roots_vanishes():
    for e in (2, 3, 4, 5, 6, 8, 12):
        total = CyclotomicInt.zero(e)
        for k in range(e):
            total = total + root(e, k)
        assert total == 0


def test_mult_vector_roundtrip_and_conjugation():
    rng = random.Random(1)
    for e in (3, 4, 6, 12):
        for _ in range(20):
            mult = tuple(rng.randrange(4) for _ in range(e))
            value = CyclotomicInt.from_mult_vector(e, mult)
            conj = CyclotomicInt.from_mult_vector(e, reverse_mult_vector(mult))
            assert conjugate(value) == conj
            assert conjugate(value * conjugate(value)) == value * conjugate(value)


def test_norm_is_nonnegative_integer():
    rng = random.Random(5)
    for e in (4, 6, 12):
        for _ in range(20):
            mult = tuple(rng.randrange(3) for _ in range(e))
            value = CyclotomicInt.from_mult_vector(e, mult)
            diff = 2 - value - conjugate(value)
            prod = diff * conjugate(diff)
            assert prod == conjugate(prod)


def test_mixed_conductor_rejected():
    with pytest.raises(ValueError):
        root(4) + root(6)


def test_equality_against_int():
    assert CyclotomicInt.from_int(12, 7) == 7
    assert root(12) != 1
    z = root(2)
    assert z == -1


def test_hash_agrees_with_equality_against_int():
    assert len({CyclotomicInt.from_int(4, 7), 7}) == 1
    assert hash(root(2)) == hash(-1)
    assert hash(root(3) + root(3, 2)) == hash(-1)
    assert {CyclotomicInt.zero(5): "zero"}[0] == "zero"
    assert len({root(12), root(12, 5), 1}) == 3


def _random_cyclotomic(rng, e):
    return CyclotomicInt.from_mult_vector(e, [rng.randrange(-3, 4) for _ in range(e)])


def test_intpoly_over_cyclotomic_integers_agrees_pointwise():
    rng = random.Random(7)
    for e in (3, 4, 8, 12):
        for _ in range(15):
            p, q = (
                IntPoly([_random_cyclotomic(rng, e) for _ in range(rng.randrange(6))])
                for _ in range(2)
            )
            z, c = _random_cyclotomic(rng, e), _random_cyclotomic(rng, e)
            assert (p * q)(z) == p(z) * q(z)
            assert (p + q)(z) == p(z) + q(z)
            assert (p - q)(z) == p(z) - q(z)
            assert (p - p).degree == -1
            # a scalar operand is the constant polynomial, on either side
            assert p + c == c + p == p + IntPoly.const(c)
            assert p * c == c * p == p * IntPoly.const(c)
            assert (p * c)(z) == p(z) * c


def test_intpoly_with_rational_coefficients_equals_the_integer_polynomial():
    e = 4
    z = root(e)
    one = CyclotomicInt.one(e)
    # (1 + z u)(1 + z^-1 u) = 1 + (z + z^-1) u + u^2 = 1 + 0u + u^2 over e=4
    p = IntPoly((one, z)) * IntPoly((one, conjugate(z)))
    assert p == IntPoly([1, 0, 1])
    assert p.degree == 2
    assert IntPoly([one, z]) != IntPoly([1, 1])
    assert IntPoly([Fraction(4, 2), Fraction(0), Fraction(3, 1)]) == IntPoly([2, 0, 3])
    assert IntPoly([CyclotomicInt.zero(e), Fraction(0)]) == IntPoly() == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cyclotomic_polynomial(0), "cyclotomic polynomial needs n >= 1"),
        (lambda: CyclotomicInt(4, (1, 2, 3)), "expected 2 coefficients for e=4"),
        (lambda: root(4) * root(6), "mixed conductors 4 and 6"),
    ],
)
def test_cyclotomic_refusals_are_typed(call, message):
    with pytest.raises(CyclotomicError) as exc:
        call()
    assert isinstance(exc.value, GaloisSpanError) and isinstance(exc.value, ValueError)
    assert str(exc.value) == message


def test_divide_exact_is_coordinatewise_and_refuses_a_remainder():
    rng = random.Random(4)
    for e in (1, 3, 4, 12, 15):
        for k in (1, 2, 7):
            x = CyclotomicInt.from_mult_vector(e, [rng.randrange(-9, 10) for _ in range(e)])
            assert (x * k).divide_exact(k) == x
            if k > 1:
                with pytest.raises(InvariantError, match=f"not divisible by {k}$"):
                    (x * k + root(e)).divide_exact(k)
    assert CyclotomicInt(3, (2, -4)).divide_exact(2) == CyclotomicInt(3, (1, -2))
