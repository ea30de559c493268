"""Bouquet voltage families over cyclic groups and the non-existence apparatus.

Two related families use different voltage exponents; the mapping between
them is the source of most confusion, so it is spelled out once:

* the family of the non-existence proof (`family_kappa` in
  `tests/helpers.py`, with the other lemma objects): group Z/p^s, t loops
  with voltage p^(s-b) and one loop with voltage 1.
* `kappa_degree_in_t` checks the degree lemma directly: group Z/p^a,
  t loops with voltage p^b and one loop with voltage 1, whose kappa is a
  polynomial in t of degree p^a * (1 - 1/p^((a-b) join 0)).

Composing the first family with the projection onto Z/p^a gives the second
with b replaced by s-b, which is exactly why the matrix M of the
non-existence certificate carries the exponent (a+b-s) join 0.

kappa values are always computed by Matrix-Tree on explicit derived graphs;
the sine-product factorization from the degree lemma's proof never appears
as code.  Determinants and ranks over Q are exact.
"""

from __future__ import annotations

from fractions import Fraction

from .covers import VoltageAssignment, derived_graph
from .errors import (
    FamilyParameterError,
    InterpolationMismatchError,
    InvariantError,
    LengthMismatchError,
    OrderTooLargeError,
    TooLargeError,
)
from .frozen import Frozen
from .graphs import bouquet, cycle_graph
from .groups import cyclic_group, max_group_order
from .linalg import det_fraction, rank_fraction
from .numtheory import factorize, is_prime
from .polynomials import forward_differences
from .report import VerificationReport

ExponentVector = tuple[int, ...]

# rows of M and of the degree matrix (elimination is cubic in them), and n
# of `nonexistence_certificate` and the primes (all taken by trial division)
GRID_MAX_ROWS = 64
NONEXISTENCE_MAX_N = 10**12


def exp_pow(p: tuple[int, ...], a: ExponentVector) -> int:
    if len(p) != len(a):
        raise LengthMismatchError(f"lengths {len(p)} and {len(a)}")
    out = 1
    for base, exponent in zip(p, a):
        out *= base**exponent
    return out


def exp_sub_floor(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    """(a - b) join 0, componentwise."""
    if len(a) != len(b):
        raise LengthMismatchError(f"lengths {len(a)} and {len(b)}")
    return tuple(max(x - y, 0) for x, y in zip(a, b))


def exponent_grid(s: ExponentVector) -> list[ExponentVector]:
    """All vectors 0 <= a <= s in lexicographic order."""
    out: list[ExponentVector] = [()]
    for bound in s:
        out = [prefix + (k,) for prefix in out for k in range(bound + 1)]
    return out


def _check_grid_rows(s: ExponentVector) -> None:
    """Refuse an s >= 0 whose grid has more than `GRID_MAX_ROWS` nonzero vectors."""
    size = 1
    for sk in s:
        size *= sk + 1
        if size - 1 > GRID_MAX_ROWS:
            raise TooLargeError(
                f"the exponent grid of s={tuple(s)} has more than {GRID_MAX_ROWS} nonzero vectors"
            )


def _check_primes(primes) -> None:
    """Refuse repeated primes and non-primes: the family lemmas need distinct primes."""
    if len(set(primes)) != len(primes):
        raise FamilyParameterError("primes must be pairwise distinct")
    for p in primes:
        if p > NONEXISTENCE_MAX_N:
            raise TooLargeError(f"p={p} is above {NONEXISTENCE_MAX_N}, the bound on p")
        if not is_prime(p):
            raise FamilyParameterError(f"{p} is not prime")


class FamilySpec(Frozen):
    """Distinct primes p, exponent vector s, and family parameter b (0 <= b <= s).

    The family lives on Z/p^s: p^s above `max_group_order()` is refused
    before the primes are checked.
    """

    __slots__ = ("primes", "s", "b")

    def __init__(self, primes: tuple[int, ...], s: ExponentVector, b: ExponentVector):
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "b", b)
        if not (len(self.primes) == len(self.s) == len(self.b)):
            raise LengthMismatchError("primes, s and b must have equal lengths")
        for sk, bk in zip(self.s, self.b):
            if not 0 <= bk <= sk:
                raise FamilyParameterError("need 0 <= b <= s componentwise")
        # with |p| >= 2, an s past the bound's bit length overshoots it
        bound = max_group_order()
        big = any(abs(p) > 1 and sk > bound.bit_length() for p, sk in zip(self.primes, self.s))
        if big or exp_pow(self.primes, self.s) > bound:
            raise OrderTooLargeError(
                f"Z/p^s for p={self.primes}, s={self.s} has order above {bound}, "
                "the bound set by GALOIS_SPAN_MAX_ORDER"
            )
        _check_primes(self.primes)

    @property
    def modulus(self) -> int:
        return exp_pow(self.primes, self.s)


def _bouquet_family_kappa(modulus: int, loop_voltage: int, t: int) -> int:
    """kappa of the derived graph: t loops of `loop_voltage` plus one loop of 1."""
    g = cyclic_group(modulus)
    volt = tuple([loop_voltage % modulus] * t + [1 % modulus])
    alpha = VoltageAssignment(base=bouquet(t + 1), group=g, volt=volt)
    cover = derived_graph(alpha)
    return cover.derived.spanning_tree_count()


def degree_formula(primes, a: ExponentVector, b: ExponentVector) -> int:
    """p^a * (1 - 1/p^((a-b) join 0)), always a nonnegative integer."""
    head = exp_pow(primes, a)
    tail = exp_pow(primes, exp_sub_floor(a, b))
    if head % tail != 0:
        raise InvariantError("degree formula did not produce an integer")
    return head - head // tail


def kappa_degree_in_t(f: FamilySpec, a: ExponentVector) -> int:
    """Interpolated degree of kappa(t) for the lemma family over Z/p^a.

    Builds the family with voltage p^b (the lemma's own parameter) on t
    loops, samples t = 0..D+1 with D the closed-form degree and asserts that
    the last nonzero forward difference of the samples is the D-th.
    """
    if len(a) != len(f.primes):
        raise LengthMismatchError("a has the wrong length")
    if not any(a) or any(x < 0 or x > sk for x, sk in zip(a, f.s)):
        raise FamilyParameterError("need 0 < a <= s")
    expected = degree_formula(f.primes, a, f.b)
    modulus = exp_pow(f.primes, a)
    voltage = exp_pow(f.primes, f.b)
    diffs = forward_differences(
        [_bouquet_family_kappa(modulus, voltage, t) for t in range(expected + 2)]
    )
    # delta^k of a degree-k polynomial is k! times its leading coefficient
    degree = max((k for k, d in enumerate(diffs) if d), default=-1)
    if degree != expected:
        raise InterpolationMismatchError(
            f"kappa(t) has degree {degree}, formula says {expected} "
            f"(p={f.primes}, s={f.s}, b={f.b}, a={a})"
        )
    if diffs[degree] <= 0:
        raise InterpolationMismatchError("kappa(t) must have a positive leading coefficient")
    return degree


# -- the matrix M of the non-existence lemma -------------------------------------


def build_matrix_M(primes, s: ExponentVector) -> list[list[Fraction]]:
    """M = (1 - 1/p^((a+b-s) join 0)) over nonzero a, b <= s, lexicographic."""
    grid = [a for a in exponent_grid(s) if any(a)]
    matrix = []
    for a in grid:
        row = []
        for b in grid:
            over = tuple(max(x + y - z, 0) for x, y, z in zip(a, b, s))
            row.append(1 - Fraction(1, exp_pow(primes, over)))
        matrix.append(row)
    return matrix


def lemma_matrix_check(primes, s: ExponentVector) -> VerificationReport:
    """det(M) != 0 with |det| matching the closed form; signs reported, not judged.

    The printed closed form is (-1)^(T-1) prod (1/p_i - 1)^(s_i T/(s_i+1));
    the check asserts the absolute value and records whether the computed
    sign agrees (it does not always; see the det details).  A negative
    exponent (the closed form divides by s_i + 1), a grid of more than
    `GRID_MAX_ROWS` rows, and repeated or non-prime primes (as `FamilySpec`
    refuses them) are refused before M is built.
    """
    if any(sk < 0 for sk in s):
        raise FamilyParameterError("need s >= 0 componentwise")
    _check_grid_rows(s)
    _check_primes(primes)
    t_size = 1
    for sk in s:
        t_size *= sk + 1
    m = build_matrix_M(primes, s)
    det = det_fraction(m)
    magnitude_expected = Fraction(1)
    closed_form = Fraction(-1) ** (t_size - 1)
    for p, sk in zip(primes, s):
        exponent = sk * t_size // (sk + 1)
        if sk * t_size % (sk + 1) != 0:
            raise InvariantError("closed-form exponent is not an integer")
        magnitude_expected *= abs(Fraction(1, p) - 1) ** exponent
        closed_form *= (Fraction(1, p) - 1) ** exponent
    magnitude = abs(det)
    # compare |det| = expected magnitude as cleared integers
    left = magnitude.numerator * magnitude_expected.denominator
    right = magnitude_expected.numerator * magnitude.denominator
    return VerificationReport.compare(
        "|det M| matches closed form and det M != 0",
        f"p={tuple(primes)}, s={tuple(s)}",
        left,
        right,
        notes="" if det == closed_form else (
            f"sign differs from the printed closed form: computed {det}, printed {closed_form}"
        ),
        details={
            "det": det,
            "closed_form_value": closed_form,
            "nonzero": det != 0,
            "magnitude_matches": magnitude == magnitude_expected,
            "sign_matches_paper": det == closed_form,
        },
    )


def nonexistence_certificate(n: int) -> VerificationReport:
    """Computational re-enactment of the cyclic non-existence proof for Z/n.

    Builds the degree matrix D[b][a] = p^a (1 - 1/p^((a+b-s) join 0)) over
    nonzero a, b (the matrix M scaled by the positive column weights p^a),
    certifies full rank over Q, and records the unbounded-kappa witness that
    kills the remaining exponent: cycle bases give kappa(X) = 3 and 4.
    An n above `NONEXISTENCE_MAX_N` is refused before it is factored, and
    one whose grid has more than `GRID_MAX_ROWS` rows before D is built.
    """
    if n < 2:
        raise FamilyParameterError("need a nontrivial cyclic group")
    if n > NONEXISTENCE_MAX_N:
        raise TooLargeError(f"n={n} is above {NONEXISTENCE_MAX_N}, the bound on n")
    factors = factorize(n)
    primes_t, s_t = tuple(p for p, _ in factors), tuple(k for _, k in factors)
    _check_grid_rows(s_t)
    grid = [a for a in exponent_grid(s_t) if any(a)]
    # M is symmetric: D[b][a] = p^a M[b][a]
    weights = [exp_pow(primes_t, a) for a in grid]
    m = build_matrix_M(primes_t, s_t)
    degree_matrix = [[w * x for w, x in zip(weights, row)] for row in m]
    rank = rank_fraction(degree_matrix)
    full = len(grid)
    witness = [cycle_graph(r).spanning_tree_count() for r in (3, 4)]
    notes = (
        "degree matrix has full rank: every kappa-relation exponent at a nonzero "
        "subgroup index vanishes; cycle bases (kappa = "
        f"{witness[0]}, {witness[1]}) force the remaining exponent and the constant "
        "to be trivial"
    )
    return VerificationReport.compare(
        f"no nontrivial monomial kappa-relation for Z/{n}",
        f"n={n}, factorization p={primes_t}, s={s_t}",
        full,
        rank,
        notes=notes,
        details={
            "matrix_size": full,
            "rank": rank,
            "witness_cycle_kappas": witness,
        },
    )
