"""End-to-end verifiers for the spanning-tree formulas.

The Kuroda analogue, the Brauer–Kuroda relation, the elementary-abelian
(HMSV) formula and a custom relation each read prod_H ([G:H] kappa(X_H))^(n_H)
= 1 for a Brauer relation sum_H n_H Ind_H^G(1) = 0, and go through one core.
A report is "trivially true" when the vector, summed within each conjugacy
class of subgroups, is zero.  `verify_eq3` pairs the Brauer–Kuroda vector
with every irreducible character: the identities the cyclic-subgroup formula
rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .characters import (
    character_table,
    induced_trivial_values,
    inner_product,
)
from .covers import (
    Cover,
    conjugate_kappa_check,
    derived_graph,
    intermediate_kappa,
    is_galois,
    random_connected_voltage,
)
from .errors import (
    EulerZeroError,
    InvariantError,
    NotABrauerRelationError,
    NotGaloisError,
    WrongGroupError,
)
from .graphs import hashimoto_check
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    canonical_spec_name,
    cyclic_subgroups,
    is_exceptional,
    is_irreducibly_represented,
    parse_group_spec,
)
from .posets import BOTTOM_KEY, TOP_KEY, cyclic_poset, kernel_poset, kernel_subgroups, mobius
from .report import VerificationReport
from .table1 import PAPER_DISAGREEMENTS, TABLE1_FLAGS


def _relation_values(g: FiniteGroup, terms) -> list[int]:
    """sum n_H Ind_H^G(1) on each conjugacy class of g, over the terms (H, n_H).

    Every H must be a subgroup of g, whatever its coefficient; a subgroup
    may appear in several terms.
    """
    total = [0] * len(g.conjugacy_classes())
    for h, n in terms:
        if h.parent is not g:
            raise WrongGroupError("subgroup of a different group")
        total = [t + n * v for t, v in zip(total, induced_trivial_values(h))]
    return total


def checked_relation(g: FiniteGroup, terms) -> tuple:
    """The terms (H, n_H) as a tuple, once sum n_H Ind_H^G(1) = 0 holds
    exactly on every conjugacy class of g (`_relation_values`)."""
    terms = tuple(terms)
    total = _relation_values(g, terms)
    if any(total):
        raise NotABrauerRelationError(
            "sum n_H Ind_H^G(1) != 0: " + ", ".join(str(v) for v in total)
        )
    return terms


def _relation_sides(c: Cover, relation: tuple) -> tuple[int, int, bool, list[int]]:
    """(left, right, trivial, kappa(X_H) of each term) for a checked relation.

    kappa is taken once per class of conjugate subgroups, whose quotients
    are isomorphic; `trivial` holds when the coefficients summed within
    each class are all zero.
    """
    kappas: dict[tuple[int, ...], int] = {}
    merged: dict[tuple[int, ...], int] = {}
    left = right = 1
    for h, n in relation:
        key = h.class_key()
        if key not in kappas:
            kappas[key] = intermediate_kappa(c, h)
        merged[key] = merged.get(key, 0) + n
        if n > 0:
            left *= (h.index() * kappas[key]) ** n
        elif n < 0:
            right *= (h.index() * kappas[key]) ** -n
    return left, right, not any(merged.values()), [kappas[h.class_key()] for h, _ in relation]


def _kept_relation(g: FiniteGroup, name: str, build) -> tuple:
    """The checked relation `build(g)`, kept on the group under `name`."""
    if name not in g._cache:
        g._cache[name] = checked_relation(g, build(g))
    return g._cache[name]


def _kuroda_terms(g: FiniteGroup) -> list[tuple[Subgroup, int]]:
    """[1] + sum over kernels K of mu(bottom, K) [K], the kernels in poset order."""
    table = character_table(g)
    poset = kernel_poset(table)
    kernels = kernel_subgroups(table)
    mu = mobius(poset)
    terms = [(Subgroup._trusted(g, [g.identity]), 1)]
    terms += [(kernels[key], mu.mu(BOTTOM_KEY, key)) for key in poset.keys if key != BOTTOM_KEY]
    return terms


def _brauer_kuroda_terms(g: FiniteGroup) -> list[tuple[Subgroup, int]]:
    """|G| [G] + sum over cyclic C of mu(C, top) |G|/[G:C] [C]."""
    mu = mobius(cyclic_poset(g))
    terms = [(Subgroup._trusted(g, range(g.order)), g.order)]
    terms += [(h, mu.mu(h.elements, TOP_KEY) * (g.order // h.index())) for h in cyclic_subgroups(g)]
    return terms


def _hmsv_terms(g: FiniteGroup) -> list[tuple[Subgroup, int]]:
    """[1] + (2^m - 2) [G] - sum of the index-two subgroups [X_i], for G = (Z/2)^m."""
    terms = [(Subgroup._trusted(g, [g.identity]), 1), (Subgroup._trusted(g, range(g.order)), g.order - 2)]
    terms += [(h, -1) for h in all_subgroups(g) if h.index() == 2]
    return terms


def verify_kuroda(c: Cover) -> VerificationReport:
    """kappa(Y) = (1/|G|) prod_{kernels H} ([G:H] kappa(X_H))^(-mu(bottom, H))."""
    if not is_galois(c.voltage):
        raise NotGaloisError("the kernel formula needs a Galois cover")
    relation = _kept_relation(c.group, "kuroda_relation", _kuroda_terms)
    left, right, trivial, kappas = _relation_sides(c, relation)
    term_details = [
        {"subgroup": h.describe(), "index": h.index(), "kappa": k, "exponent": -n}
        for (h, n), k in zip(relation[1:], kappas[1:])
    ]
    return VerificationReport.compare(
        "kappa(Y) = (1/|G|) prod ([G:H] kappa(X_H))^(-mu)",
        c.describe(),
        left,
        right,
        trivial=trivial,
        notes="trivially true: a faithful irreducible makes every exponent vanish"
        if trivial
        else "",
        details={"kappa_Y": kappas[0], "terms": term_details},
    )


def verify_brauer_kuroda(c: Cover) -> VerificationReport:
    """kappa(X) = prod_{cyclic C} ([G:C] kappa(X_C))^(-mu(C, top)/[G:C]).

    Exponents are cleared by raising both sides to m = |G|, which every
    index divides.
    """
    if not is_galois(c.voltage):
        raise NotGaloisError("the cyclic-subgroup formula needs a Galois cover")
    g = c.group
    relation = _kept_relation(g, "brauer_kuroda_relation", _brauer_kuroda_terms)
    # relation[1] is the trivial subgroup's term, mu({1}, top) [1]: the
    # closed-form flag must agree with the Moebius table the terms come from
    exceptional = is_exceptional(g)
    if exceptional != (relation[1][1] == 0):
        raise InvariantError(
            f"is_exceptional({g.name}) is {exceptional}, but mu({{1}}, top) is {relation[1][1]}"
        )
    left, right, trivial, kappas = _relation_sides(c, relation)
    term_details = [
        {"subgroup": h.describe(), "index": h.index(), "kappa": k, "cleared_exponent": -n}
        for (h, n), k in zip(relation[1:], kappas[1:])
    ]
    return VerificationReport.compare(
        "kappa(X)^m = prod ([G:C] kappa(X_C))^(-mu m/[G:C])",
        c.describe(),
        left,
        right,
        trivial=trivial,
        notes="trivially true: cyclic Galois group" if trivial else "",
        details={
            "kappa_X": kappas[0],
            "multiplier": g.order,
            "exceptional": exceptional,
            "terms": term_details,
        },
    )


def verify_hmsv(c: Cover) -> VerificationReport:
    """kappa(Y) kappa(X)^(2^m - 2) = 2^(2^m - m - 1) prod kappa(X_i) for (Z/2)^m.

    Both sides of the relation carry [G:1] = 2^m, which is divided out to
    give the formula in this form.
    """
    g = c.group
    if not g.is_abelian() or g.exponent() > 2:
        raise WrongGroupError("the elementary-abelian formula needs (Z/2)^m")
    if not is_galois(c.voltage):
        raise NotGaloisError("needs a Galois cover")
    relation = _kept_relation(g, "hmsv_relation", _hmsv_terms)
    left, right, trivial, kappas = _relation_sides(c, relation)
    return VerificationReport.compare(
        "kappa(Y) kappa(X)^(2^m-2) = 2^(2^m-m-1) prod kappa(X_i)",
        c.describe(),
        left // g.order,
        right // g.order,
        trivial=trivial,
        details={
            "m": g.order.bit_length() - 1,
            "kappa_Y": kappas[0],
            "kappa_X": kappas[1],
            "kappas": kappas[2:],
        },
    )


def verify_custom_relation(c: Cover, coefficients: dict[Subgroup, int]) -> VerificationReport:
    """prod ([G:H] kappa(X_H))^(n_H) = 1 for a relation checked on characters."""
    if not is_galois(c.voltage):
        raise NotGaloisError("needs a Galois cover")
    relation = checked_relation(c.group, coefficients.items())
    # a zero coefficient puts nothing on either side, so its kappa is not taken
    left, right, trivial, _ = _relation_sides(c, tuple((h, n) for h, n in relation if n))
    return VerificationReport.compare(
        "prod ([G:H] kappa(X_H))^(n_H) = 1", c.describe(), left, right, trivial=trivial
    )


def verify_eq3(g: FiniteGroup) -> VerificationReport:
    """Both exact identities behind the cyclic-subgroup spanning-tree formula.

    The Brauer-Kuroda vector (`_brauer_kuroda_terms`) is paired with every
    irreducible rho: <sum n_H Ind_H^G(1), rho> = 0.  rho = 1 gives the unit
    partition -sum_C mu(C, top)/[G:C] = 1, and rho != 1 the annihilation
    sum_C mu(C, top) <Ind_C^G(1), rho> |G|/[G:C] = 0.  The vector is not
    checked first, so a wrong coefficient gives a FAIL report, not an error.
    """
    values = _relation_values(g, _brauer_kuroda_terms(g))
    checks = [
        ("unit partition" if rho.is_trivial() else f"character {idx}", inner_product(values, rho))
        for idx, rho in enumerate(character_table(g).characters)
    ]
    return VerificationReport.compare(
        "eq3 identities",
        f"group {g.name} (order {g.order})",
        len(checks),
        sum(1 for _, value in checks if value == 0),
        notes="; ".join(f"{name}: {value} vs 0" for name, value in checks if value),
        details={"checks": [[name, value, 0] for name, value in checks]},
    )


def verify_euler_zero(c: Cover) -> VerificationReport:
    """kappa(Y) = |G| kappa(X) for connected covers of a chi = 0 base."""
    if c.base.euler_characteristic() != 0:
        raise EulerZeroError("verifier is for bases with Euler characteristic zero")
    if not is_galois(c.voltage):
        raise NotGaloisError("needs a Galois cover")
    if not c.group.is_cyclic():
        # pi_1 of a connected chi = 0 graph is Z, so a connected cover of it
        # has a cyclic group: this is a library fault, not bad input
        raise InvariantError("connected cover of a chi = 0 base with a non-cyclic group")
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
    """Both classification flags, read from the group alone (no character or
    Moebius table; see `groups.is_irreducibly_represented` and
    `groups.is_exceptional`) and compared to the fixture."""
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
    groups: list[FiniteGroup],
    bases: list,
) -> SuiteSummary:
    """Seeded random covers run through every end-to-end verifier.

    Per-iteration seeds derive deterministically from the master seed, so
    the summary is reproducible.  The groups are the caller's, parsed once:
    every cover of one group shares what the group keeps (character table,
    subgroup lists, kept relations, coset plans), which changes no result.
    """
    summary = SuiteSummary(seed=seed, iterations=iterations)
    if not groups or iterations <= 0:
        return summary
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
