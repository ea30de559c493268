"""Elementary number theory shared across the library (trial division; the
arguments here are small)."""

from __future__ import annotations

from math import isqrt


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def classical_mobius(n: int) -> int:
    """Number-theoretic Moebius function of n >= 1, by factorization."""
    exponents = [k for _, k in factorize(n)]
    return 0 if any(k > 1 for k in exponents) else (-1) ** len(exponents)
