"""End-to-end verifiers for the spanning-tree formulas.

Every check is an exact integer comparison: rational exponents are cleared
by raising both sides to the group order (each index divides it) and
negative exponents by cross-multiplying, so no rational power is ever
evaluated numerically.  When a formula degenerates (a cyclic Galois group
in the cyclic-subgroup formula, a group with a faithful irreducible in the
kernel formula) the report says "trivially true" rather than "pass".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .characters import character_table, induced_trivial_character, is_exceptional, is_irreducibly_represented
from .covers import Cover, conjugate_kappa_check, intermediate_kappa, is_galois
from .errors import (
    EulerZeroError,
    NonCyclicOnEulerZeroError,
    NotABrauerRelationError,
    NotGaloisError,
    WrongGroupError,
)
from .graphs import hashimoto_check
from .groups import Subgroup, all_subgroups, canonical_spec_name, cyclic_subgroups, parse_group_spec
from .posets import BOTTOM_KEY, TOP_KEY, cyclic_poset, kernel_poset, kernel_subgroups, mobius
from .report import VerificationReport
from .table1 import PAPER_DISAGREEMENTS, TABLE1_FLAGS


def _cleared_product_check(
    claim: str,
    inputs: str,
    base_left: int,
    terms: list[tuple[int, int]],
    *,
    trivial: bool,
    notes: str = "",
    details=None,
) -> VerificationReport:
    """Compare base_left * prod(value^e for e<0 cleared) with prod(value^e for e>0).

    `terms` holds (value, exponent) pairs with integer exponents; negative
    exponents multiply into the left side.
    """
    left = base_left
    right = 1
    for value, exponent in terms:
        if exponent > 0:
            right *= value**exponent
        elif exponent < 0:
            left *= value ** (-exponent)
    return VerificationReport.compare(
        claim, inputs, left, right, trivial=trivial, notes=notes, details=details
    )


def verify_kuroda(c: Cover) -> VerificationReport:
    """kappa(Y) = (1/|G|) prod_{kernels H} ([G:H] kappa(X_H))^(-mu(bottom, H))."""
    if not is_galois(c.voltage):
        raise NotGaloisError("the kernel formula needs a Galois cover")
    g = c.group
    table = character_table(g)
    poset = kernel_poset(g, table)
    kernels = kernel_subgroups(g, table)
    mu = mobius(poset)
    terms = []
    term_details = []
    for key in poset.keys:
        if key == BOTTOM_KEY:
            continue
        h = kernels[key]
        exponent = -mu.mu(BOTTOM_KEY, key)
        kappa_h = intermediate_kappa(c, h)
        terms.append((h.index() * kappa_h, exponent))
        term_details.append(
            {
                "subgroup": h.describe(),
                "index": h.index(),
                "kappa": kappa_h,
                "exponent": exponent,
            }
        )
    kappa_y = c.derived.spanning_tree_count()
    trivial = any(len(key) == 1 for key in poset.keys if key != BOTTOM_KEY)
    return _cleared_product_check(
        "kappa(Y) = (1/|G|) prod ([G:H] kappa(X_H))^(-mu)",
        c.describe(),
        g.order * kappa_y,
        terms,
        trivial=trivial,
        notes="trivially true: a faithful irreducible makes every exponent vanish"
        if trivial
        else "",
        details={"kappa_Y": kappa_y, "terms": term_details},
    )


def verify_brauer_kuroda(c: Cover) -> VerificationReport:
    """kappa(X) = prod_{cyclic C} ([G:C] kappa(X_C))^(-mu(C, top)/[G:C]).

    Exponents are cleared by raising both sides to m = |G|, which every
    index divides.
    """
    if not is_galois(c.voltage):
        raise NotGaloisError("the cyclic-subgroup formula needs a Galois cover")
    g = c.group
    m = g.order
    poset = cyclic_poset(g)
    mu = mobius(poset)
    terms = []
    term_details = []
    # conjugate subgroups give isomorphic quotients: one kappa per class
    class_kappa: dict[tuple[int, ...], int] = {}
    for sub in cyclic_subgroups(g):
        exponent = -mu.mu(sub.elements, TOP_KEY) * (m // sub.index())
        key = sub.class_key()
        if key not in class_kappa:
            class_kappa[key] = intermediate_kappa(c, sub)
        kappa_c = class_kappa[key]
        terms.append((sub.index() * kappa_c, exponent))
        term_details.append(
            {
                "subgroup": sub.describe(),
                "index": sub.index(),
                "kappa": kappa_c,
                "cleared_exponent": exponent,
            }
        )
    kappa_x = c.base.spanning_tree_count()
    trivial = g.is_cyclic()
    return _cleared_product_check(
        "kappa(X)^m = prod ([G:C] kappa(X_C))^(-mu m/[G:C])",
        c.describe(),
        kappa_x**m,
        terms,
        trivial=trivial,
        notes="trivially true: cyclic Galois group" if trivial else "",
        details={
            "kappa_X": kappa_x,
            "multiplier": m,
            "exceptional": is_exceptional(g),
            "terms": term_details,
        },
    )


def verify_hmsv(c: Cover) -> VerificationReport:
    """kappa(Y) kappa(X)^(2^m - 2) = 2^(2^m - m - 1) prod kappa(X_i) for (Z/2)^m."""
    g = c.group
    if not g.is_abelian() or g.exponent() > 2:
        raise WrongGroupError("the elementary-abelian formula needs (Z/2)^m")
    if not is_galois(c.voltage):
        raise NotGaloisError("needs a Galois cover")
    m = g.order.bit_length() - 1
    index_two = [h for h in all_subgroups(g) if h.index() == 2]
    kappa_y = c.derived.spanning_tree_count()
    kappa_x = c.base.spanning_tree_count()
    # kappa(X)'s exponent 2^m - 2 is -1 at m = 0: clear it to whichever side
    left = kappa_y * kappa_x ** max(2**m - 2, 0)
    right = 2 ** (2**m - m - 1) * kappa_x ** max(2 - 2**m, 0)
    kappas = []
    for h in index_two:
        k = intermediate_kappa(c, h)
        kappas.append(k)
        right *= k
    return VerificationReport.compare(
        "kappa(Y) kappa(X)^(2^m-2) = 2^(2^m-m-1) prod kappa(X_i)",
        c.describe(),
        left,
        right,
        trivial=(m <= 1),
        details={"m": m, "kappa_Y": kappa_y, "kappa_X": kappa_x, "kappas": kappas},
    )


def verify_custom_relation(c: Cover, coefficients: dict[Subgroup, int]) -> VerificationReport:
    """prod ([G:H] kappa(X_H))^(n_H) = 1 for a verified character relation.

    The relation sum n_H Ind_H^G(1) = 0 is first checked exactly on every
    conjugacy class; anything else is rejected.
    """
    if not is_galois(c.voltage):
        raise NotGaloisError("needs a Galois cover")
    g = c.group
    table = character_table(g)
    total = [Fraction(0)] * table.class_count
    for h, n in coefficients.items():
        if h.parent is not g:
            raise WrongGroupError("subgroup of a different group")
        if n == 0:
            continue
        ind = induced_trivial_character(table, h)
        for i in range(table.class_count):
            total[i] += n * ind.values[i]
    if any(total):
        raise NotABrauerRelationError(
            "sum n_H Ind_H^G(1) != 0: " + ", ".join(str(v) for v in total)
        )
    terms = [
        (h.index() * intermediate_kappa(c, h), n)
        for h, n in coefficients.items()
        if n != 0
    ]
    return _cleared_product_check(
        "prod ([G:H] kappa(X_H))^(n_H) = 1",
        c.describe(),
        1,
        terms,
        trivial=not terms,
    )


def verify_euler_zero(c: Cover) -> VerificationReport:
    """kappa(Y) = |G| kappa(X) for connected covers of a chi = 0 base."""
    if c.base.euler_characteristic() != 0:
        raise EulerZeroError("verifier is for bases with Euler characteristic zero")
    if not is_galois(c.voltage):
        raise NotGaloisError("needs a Galois cover")
    if not c.group.is_cyclic():
        raise NonCyclicOnEulerZeroError(
            "connected cover of a chi = 0 base with a non-cyclic group: construction bug"
        )
    return VerificationReport.compare(
        "kappa(Y) = |G| kappa(X)",
        c.describe(),
        c.derived.spanning_tree_count(),
        c.group.order * c.base.spanning_tree_count(),
    )


@dataclass(frozen=True)
class Table1Row:
    spec: str
    canonical: str | None
    order: int
    irreducibly_represented: bool
    exceptional: bool
    fixture_status: str  # "match" | "mismatch" | "unsupported"
    fixture_flags: tuple[bool, bool] | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "canonical": self.canonical,
            "order": self.order,
            "irreducibly_represented": self.irreducibly_represented,
            "exceptional": self.exceptional,
            "fixture_status": self.fixture_status,
            "fixture_flags": list(self.fixture_flags) if self.fixture_flags else None,
            "note": self.note,
        }


def table1_row(spec: str) -> Table1Row:
    """Both classification flags, computed ab initio and compared to the fixture."""
    g = parse_group_spec(spec)
    canonical = canonical_spec_name(spec)
    irr = is_irreducibly_represented(g)
    exc = is_exceptional(g)
    note = PAPER_DISAGREEMENTS.get(canonical or "", "")
    if canonical is None or canonical not in TABLE1_FLAGS:
        return Table1Row(spec, canonical, g.order, irr, exc, "unsupported", None, note)
    expected = TABLE1_FLAGS[canonical]
    status = "match" if (irr, exc) == expected else "mismatch"
    return Table1Row(spec, canonical, g.order, irr, exc, status, expected, note)


@dataclass
class SuiteSummary:
    seed: int
    iterations: int
    entries: list[dict] = field(default_factory=list)
    failures: int = 0

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "checks": len(self.entries),
            "failures": self.failures,
            "all_passed": self.all_passed,
            "entries": self.entries,
        }


def random_suite(
    seed: int,
    iterations: int,
    group_specs: list[str],
    bases: list,
) -> SuiteSummary:
    """Seeded random covers run through every end-to-end verifier.

    Per-iteration seeds derive deterministically from the master seed, so
    the summary is reproducible.
    """
    from .covers import derived_graph, random_connected_voltage

    summary = SuiteSummary(seed=seed, iterations=iterations)
    if not group_specs or iterations <= 0:
        return summary
    groups = [parse_group_spec(s) for s in group_specs]
    for i in range(iterations):
        iteration_seed = seed * 1_000_003 + i
        g = groups[i % len(groups)]
        base = bases[i % len(bases)]
        alpha = random_connected_voltage(base, g, iteration_seed)
        cover = derived_graph(alpha)
        reports = [
            verify_kuroda(cover),
            verify_brauer_kuroda(cover),
            conjugate_kappa_check(cover),
            hashimoto_check(cover.derived),
        ]
        for r in reports:
            summary.entries.append(
                {
                    "iteration": i,
                    "group": g.name,
                    "cover": cover.describe(),
                    "claim": r.claim,
                    "status": r.status(),
                    "passed": r.passed,
                }
            )
            if not r.passed:
                summary.failures += 1
    return summary
