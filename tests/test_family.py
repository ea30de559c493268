from fractions import Fraction

import pytest

from galois_span.errors import (
    FamilyParameterError,
    GaloisSpanError,
    InterpolationMismatchError,
    LengthMismatchError,
    OrderTooLargeError,
    TooLargeError,
)
from galois_span import family
from galois_span.family import (
    FamilySpec,
    build_matrix_M,
    degree_formula,
    exp_pow,
    exponent_grid,
    kappa_degree_in_t,
    lemma_matrix_check,
    nonexistence_certificate,
)
from galois_span.linalg import det_fraction
from galois_span.covers import VoltageAssignment, derived_graph
from galois_span.graphs import bouquet
from galois_span.groups import cyclic_group
from galois_span.lfunctions import verify_prop_formula
from helpers import (
    exp_join,
    exp_meet,
    family_kappa,
    j_block,
    k_block,
    k_prime_block,
    kronecker,
    l_block,
    mat_mul_dense,
    mbar_matrix,
    r_block,
)


def test_exponent_vector_ops():
    assert exp_join((1, 0), (0, 2)) == (1, 2)
    assert exp_meet((1, 0), (0, 2)) == (0, 0)
    assert exp_pow((2, 3), (2, 1)) == 12
    with pytest.raises(LengthMismatchError):
        exp_join((1,), (1, 2))


def test_exponent_grid_lexicographic():
    assert exponent_grid((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert exponent_grid((2,)) == [(0,), (1,), (2,)]


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(primes=(4,), s=(1,), b=(0,))
    with pytest.raises(ValueError):
        FamilySpec(primes=(2, 2), s=(1, 1), b=(0, 0))
    with pytest.raises(ValueError):
        FamilySpec(primes=(2,), s=(1,), b=(2,))


def test_family_parameter_errors_are_typed_and_still_value_errors():
    spec = FamilySpec(primes=(2,), s=(2,), b=(1,))
    refusals = [
        (lambda: FamilySpec(primes=(2, 2), s=(1, 1), b=(0, 0)), "primes must be pairwise distinct"),
        (lambda: FamilySpec(primes=(4,), s=(1,), b=(0,)), "4 is not prime"),
        (lambda: FamilySpec(primes=(2,), s=(1,), b=(2,)), "need 0 <= b <= s componentwise"),
        (lambda: family_kappa(spec, -1), "t must be nonnegative"),
        (lambda: kappa_degree_in_t(spec, (3,)), "need 0 < a <= s"),
        (lambda: nonexistence_certificate(1), "need a nontrivial cyclic group"),
    ]
    for call, message in refusals:
        with pytest.raises(FamilyParameterError) as exc:
            call()
        assert isinstance(exc.value, GaloisSpanError) and isinstance(exc.value, ValueError)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "primes, s, message",
    [
        ((0,), (1,), "0 is not prime"),
        ((1,), (1,), "1 is not prime"),
        ((2, 2), (1, 1), "primes must be pairwise distinct"),
        ((2, 6), (1, 1), "6 is not prime"),
    ],
)
def test_matrix_lemma_refuses_repeated_or_non_prime_primes(primes, s, message):
    with pytest.raises(FamilyParameterError) as exc:
        lemma_matrix_check(primes, s)
    assert str(exc.value) == message


def test_matrix_lemma_refuses_a_negative_exponent():
    # the closed-form exponent s*T/(s+1) would divide by zero at s = -1
    for s in ((-1,), (1, -2)):
        with pytest.raises(FamilyParameterError, match=r"^need s >= 0 componentwise$"):
            lemma_matrix_check((2, 3)[: len(s)], s)


def test_family_kappa_closed_form_case():
    spec = FamilySpec(primes=(2,), s=(2,), b=(1,))
    for t in range(6):
        assert family_kappa(spec, t) == (2 + 4 * t) ** 2


def test_family_kappa_t0_is_cycle():
    # single loop of voltage 1: the derived graph is an n-cycle
    for n in (2, 3, 5, 8):
        g = cyclic_group(n)
        cover = derived_graph(VoltageAssignment(base=bouquet(1), group=g, volt=(1,)))
        assert cover.derived.spanning_tree_count() == n


def test_family_kappa_zero_voltage_branch():
    # p=3, s=1, b=0: voltage p^(s-b) = 3 = 0 mod 3; kappa is constant 3
    spec = FamilySpec(primes=(3,), s=(1,), b=(0,))
    assert [family_kappa(spec, t) for t in range(4)] == [3, 3, 3, 3]


def test_family_kappa_matches_product_formula():
    spec = FamilySpec(primes=(2,), s=(2,), b=(1,))
    # t = 0 is the single-loop bouquet (chi = 0): the derived graph is the
    # 4-cycle, outside the product formula's hypothesis
    assert family_kappa(spec, 0) == 4
    for t in range(1, 5):
        g = cyclic_group(4)
        volt = tuple([2] * t + [1])
        cover = derived_graph(VoltageAssignment(base=bouquet(t + 1), group=g, volt=volt))
        assert verify_prop_formula(cover).passed
        assert cover.derived.spanning_tree_count() == family_kappa(spec, t)


def test_degree_formula_edge_cases():
    # b >= a componentwise forces degree 0
    assert degree_formula((2,), (1,), (2,)) == 0
    assert degree_formula((2, 3), (1, 1), (0, 1)) == 3
    assert degree_formula((2,), (2,), (1,)) == 2


def test_kappa_degree_acceptance_cases():
    cases = {
        ((2,), (2,), (1,)): {(1,): 0, (2,): 2},
        ((2,), (3,), (2,)): {(1,): 0, (2,): 0, (3,): 4},
        ((3,), (2,), (1,)): {(1,): 0, (2,): 6},
        ((2, 3), (1, 1), (0, 1)): {(0, 1): 0, (1, 0): 1, (1, 1): 3},
    }
    for (p, s, b), expected in cases.items():
        spec = FamilySpec(primes=p, s=s, b=b)
        for a, want in expected.items():
            assert kappa_degree_in_t(spec, a) == want == degree_formula(p, a, b)


def test_kappa_degree_rejects_bad_a():
    spec = FamilySpec(primes=(2,), s=(2,), b=(1,))
    with pytest.raises(ValueError):
        kappa_degree_in_t(spec, (0,))
    with pytest.raises(ValueError):
        kappa_degree_in_t(spec, (3,))


def test_kappa_degree_rejects_a_wrong_degree_or_sign(monkeypatch):
    import galois_span.family as family

    spec = FamilySpec(primes=(2,), s=(2,), b=(1,))  # a = (2,): the formula says degree 2
    wrong = {
        "has degree 1,": lambda modulus, voltage, t: 5 + t,
        "has degree 3,": lambda modulus, voltage, t: t**3,
        "has degree -1,": lambda modulus, voltage, t: 0,
        "positive leading coefficient": lambda modulus, voltage, t: 7 + t - t * t,
    }
    for message, kappa in wrong.items():
        monkeypatch.setattr(family, "_bouquet_family_kappa", kappa)
        with pytest.raises(InterpolationMismatchError, match=message):
            kappa_degree_in_t(spec, (2,))


def test_interpolated_polynomial_values_are_positive_integers():
    spec = FamilySpec(primes=(2, 3), s=(1, 1), b=(0, 1))
    for a in [(1, 0), (1, 1)]:
        modulus = exp_pow((2, 3), a)
        voltage = exp_pow((2, 3), (0, 1))
        for t in range(4):
            g = cyclic_group(modulus)
            volt = tuple([voltage % modulus] * t + [1])
            cover = derived_graph(
                VoltageAssignment(base=bouquet(t + 1), group=g, volt=volt)
            )
            assert cover.derived.spanning_tree_count() >= 1


def test_build_matrix_m_values():
    assert build_matrix_M((2,), (1,)) == [[Fraction(1, 2)]]
    m = build_matrix_M((2,), (2,))
    assert m == [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(3, 4)]]
    assert det_fraction(m) == Fraction(-1, 4)
    m23 = build_matrix_M((2, 3), (1, 1))
    assert len(m23) == 3
    assert m23[0][0] == Fraction(2, 3)


def test_mbar_kronecker_decomposition():
    # Mbar = J1 x ... x Jl  -  K1 x ... x Kl, entrywise
    for primes, s in [((2,), (2,)), ((3,), (1,)), ((2, 3), (1, 1)), ((2, 3), (2, 1))]:
        mbar = mbar_matrix(primes, s)
        jprod = j_block(s[0])
        kprod = k_block(primes[0], s[0])
        for p, sk in zip(primes[1:], s[1:]):
            jprod = kronecker(jprod, j_block(sk))
            kprod = kronecker(kprod, k_block(p, sk))
        n = len(mbar)
        for i in range(n):
            for j in range(n):
                assert mbar[i][j] == jprod[i][j] - kprod[i][j]


def test_k_prime_pattern():
    for p, s in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)]:
        kp = k_prime_block(p, s)
        n = s + 1
        assert kp[0][0] == 1
        for i in range(1, n):
            assert kp[0][i] == 0 and kp[i][0] == 0
        # anti-triangular lower block: entry (a,b) = 1/p^(a+b-s) - 1 when a+b > s
        for a in range(1, n):
            for b in range(1, n):
                if a + b - s >= 1:
                    assert kp[a][b] == Fraction(1, p ** (a + b - s)) - 1
                else:
                    assert kp[a][b] == 0


def test_l_r_blocks_are_unimodular():
    for s in (1, 2, 3):
        assert det_fraction(l_block(s)) == 1
        assert det_fraction(r_block(s)) == 1
        jp = mat_mul_dense(mat_mul_dense(l_block(s), j_block(s)), r_block(s))
        assert jp[0][0] == 1
        assert all(jp[i][j] == 0 for i in range(s + 1) for j in range(s + 1) if (i, j) != (0, 0))


def test_lemma_matrix_check_cases():
    expectations = {
        ((2,), (1,)): (Fraction(1, 2), True),
        ((2,), (2,)): (Fraction(-1, 4), False),
        ((3,), (1,)): (Fraction(2, 3), True),
        ((2, 3), (1, 1)): (Fraction(-1, 9), True),
        ((2,), (3,)): (Fraction(-1, 8), False),
    }
    for (p, s), (det, sign_matches) in expectations.items():
        report = lemma_matrix_check(p, s)
        assert report.passed
        assert report.details["det"] == det
        assert report.details["nonzero"]
        assert report.details["magnitude_matches"]
        assert report.details["sign_matches_paper"] is sign_matches


def test_nonexistence_certificates():
    for n in (2, 3, 4, 6, 12, 30):
        report = nonexistence_certificate(n)
        assert report.passed
        assert report.details["rank"] == report.details["matrix_size"]
    with pytest.raises(ValueError):
        nonexistence_certificate(1)


def test_degree_matrix_is_scaled_m():
    # scaling the columns of M by p^a preserves invertibility
    primes, s = (2,), (2,)
    m = build_matrix_M(primes, s)
    grid = [a for a in exponent_grid(s) if any(a)]
    report = nonexistence_certificate(4)
    assert report.details["matrix_size"] == len(grid)
    assert det_fraction(m) != 0


def test_family_bounds_admit_their_edges(monkeypatch):
    monkeypatch.delenv("GALOIS_SPAN_MAX_ORDER", raising=False)
    FamilySpec(primes=(2,), s=(7,), b=(0,))  # Z/128, the default order bound
    with pytest.raises(OrderTooLargeError, match="has order above 128"):
        FamilySpec(primes=(2,), s=(8,), b=(0,))
    monkeypatch.setenv("GALOIS_SPAN_MAX_ORDER", "256")
    FamilySpec(primes=(2,), s=(8,), b=(0,))
    # grids of 64 nonzero vectors pass, of 65 or more do not
    for s in ((64,), (4, 12), (3, 3, 3)):
        family._check_grid_rows(s)
    for s in ((65,), (1,) * 7, (4, 4, 4)):
        with pytest.raises(TooLargeError, match="more than 64 nonzero vectors"):
            family._check_grid_rows(s)
    # the largest prime up to the bound on n
    assert nonexistence_certificate(family.NONEXISTENCE_MAX_N - 11).passed
    with pytest.raises(TooLargeError, match="the bound on n"):
        nonexistence_certificate(family.NONEXISTENCE_MAX_N + 1)
