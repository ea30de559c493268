"""The kernels of the irreducible characters, read from the group alone.

`groups.character_kernels` walks the normal subgroups N above the centre's
subgroups with cyclic quotient and keeps those for which G/N passes
Gaschütz's criterion; `posets.kernel_subgroups` keeps them on the group.
The oracle in `tests/helpers.py` reads the kernels off the exact character
table.  Products of fixture atoms are fuzzed in `test_fuzz_kernels.py`.
"""

import sys
import time

import pytest

import galois_span.groups as groups
from galois_span.errors import InvariantError
from galois_span.groups import (
    _checked_kernels,
    _kernel_candidates,
    _mask,
    abelian_dual,
    character_kernels,
    is_irreducibly_represented,
    parse_group_spec,
)
from galois_span.posets import kernel_poset, kernel_subgroups
from galois_span.table1 import TABLE1_FLAGS
from helpers import kernel_subgroups_by_characters, run_cli

# groups past Table 1: large centres (C2^5 to C2^7, C8xC8, C4xC4xC4), large
# orders with few kernels (C2^4xD4, C2^4xS3), non-abelian socles (S5, A5)
BEYOND_TABLE1 = [
    "C2xS4", "C4xS4", "S5", "A5", "C2xC2xA4", "C8xC8", "D32", "C2xC2xC2xC2xC2",
    "C2xC2xC2xC2xC2xC2", "C2xC2xC2xC2xC2xC2xC2", "C2xC2xC2xD4", "C2xC2xC2xC2xD4",
    "C2xC2xC2xC2xS3", "C2xC2xC2xQ8", "C4xC4xC4", "C3xC3xC3", "C2xC2xC2xA4",
]
ORDER_128 = ["C2xC2xC2xC2xC2xC2xC2", "C2xC2xC2xC2xD4"]


@pytest.mark.parametrize("spec", sorted(TABLE1_FLAGS) + BEYOND_TABLE1)
def test_kernels_equal_the_table_oracle(spec):
    g = parse_group_spec(spec)
    kernels = kernel_subgroups(g)
    assert dict(kernels) == kernel_subgroups_by_characters(g)
    # the trivial subgroup is a kernel exactly when Table 1's flag is set
    assert ((g.identity,) in kernels) is is_irreducibly_represented(g)


@pytest.mark.parametrize("spec", ["A5xC2xC2", "A5xC3", "S5xC2", "A5xS3"])
def test_kernels_past_the_order_bound_with_a_non_abelian_minimal_normal_subgroup(
    spec, monkeypatch
):
    # the criterion reads the whole socle; A5 in it never decides the answer
    # (A5xC2xC2 has no faithful irreducible, because of its C2xC2)
    monkeypatch.setenv("GALOIS_SPAN_MAX_ORDER", "360")
    g = parse_group_spec(spec)
    kernels = kernel_subgroups(g)
    assert dict(kernels) == kernel_subgroups_by_characters(g)
    assert ((g.identity,) in kernels) is is_irreducibly_represented(g) is (spec != "A5xC2xC2")


@pytest.mark.parametrize(
    "spec, orders",
    [
        ("C1", [1]),
        ("C6", [1, 2, 3, 6]),
        ("C2xC2", [2, 2, 2, 4]),
        ("S3", [1, 3, 6]),
        ("Q8", [1, 4, 4, 4, 8]),
        ("C2xC6", [2, 2, 2, 4, 6, 6, 6, 12]),
    ],
)
def test_kernel_orders(spec, orders):
    assert [h.order for h in character_kernels(parse_group_spec(spec))] == orders


def test_the_dual_group_refuses_a_repeated_product():
    # over all of S3 the products h x^j outnumber the group, so one repeats
    g = parse_group_spec("S3")
    position, exponents = abelian_dual(g, [0, 3, 4], g.exponent())  # A3
    assert len(exponents) == 3 and sorted(position) == [0, 3, 4]
    with pytest.raises(InvariantError, match="^the dual group's elements repeat a product$"):
        abelian_dual(g, range(g.order), g.exponent())


def _q8_kernel_masks():
    g = parse_group_spec("Q8")
    candidates, _ = _kernel_candidates(g)
    return g, candidates, [_mask(h.elements) for h in character_kernels(g)]


def test_the_check_passes_the_kernels_of_q8():
    g, candidates, kernels = _q8_kernel_masks()
    assert _checked_kernels(g, candidates, kernels) == kernels
    # Q8's centre has order 2, so every normal subgroup is a candidate
    assert len(candidates) == 6


def test_the_check_refuses_q8_kernels_without_the_trivial_subgroup():
    g, candidates, kernels = _q8_kernel_masks()
    kernels.remove(1 << g.identity)
    message = "a normal subgroup of order 1 is not the meet of the character kernels that contain it"
    with pytest.raises(InvariantError, match=message):
        _checked_kernels(g, candidates, kernels)


def test_the_check_refuses_more_q8_kernels_than_classes():
    g, candidates, kernels = _q8_kernel_masks()
    centre = next(n for n in candidates if n.bit_count() == 2)
    assert centre not in kernels
    with pytest.raises(InvariantError, match="^6 character kernels but 5 classes$"):
        _checked_kernels(g, candidates, kernels + [centre])


@pytest.mark.parametrize("spec", ["Q8", "S4", "D4", "S5"])
def test_a_criterion_that_drops_the_trivial_kernel_fails_the_check(spec, monkeypatch):
    # the meet check catches a dropped kernel that is not the meet of other
    # kernels, as the trivial subgroup is not in these groups (in C2xS4 it is:
    # the centre meets V4 in 1)
    real = groups._faithful_quotient

    def drop_the_trivial_subgroup(g, elems, joins):
        return len(elems) > 1 and real(g, elems, joins)

    monkeypatch.setattr(groups, "_faithful_quotient", drop_the_trivial_subgroup)
    with pytest.raises(InvariantError, match="order 1 is not the meet of the character kernels"):
        character_kernels(parse_group_spec(spec))


def _refuse_character_tables(monkeypatch):
    """Replace `character_table` under every name a `galois_span` module holds it by."""
    from galois_span import characters

    real = characters.character_table

    def refuse(g):
        raise AssertionError(f"a character table of {g.name} was built")

    for name, module in sorted(sys.modules.items()):
        if name.startswith("galois_span") and getattr(module, "character_table", None) is real:
            monkeypatch.setattr(module, "character_table", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "kuroda", "--base", "bouquet:2", "--group", "C2xC6", "--voltage", "(1,0);(0,1)"],
        ["verify", "kuroda", "--base", "bouquet:2", "--group", "Q8", "--voltage", "a1;a0b"],
        ["poset", "mobius", "--group", "C4xS4", "--poset", "kernel"],
        ["poset", "hasse", "--group", "S4", "--poset", "kernel"],
    ],
)
def test_kuroda_and_the_kernel_poset_build_no_character_table(argv, monkeypatch):
    _refuse_character_tables(monkeypatch)
    assert run_cli(argv) == 0


@pytest.mark.parametrize("spec", ORDER_128)
def test_the_kernel_poset_of_an_order_128_group_takes_under_a_second(spec):
    # an enumeration of every normal subgroup takes a second or more here
    start = time.perf_counter()
    assert run_cli(["poset", "mobius", "--group", spec, "--poset", "kernel"]) == 0
    assert time.perf_counter() - start < 1


def test_the_walk_over_c2_to_the_7_walks_one_join_per_candidate(monkeypatch):
    # the 127 hyperplanes and G are the candidates; over a hyperplane every
    # class outside gives G, of prime index, so one join is walked, not 64
    g = parse_group_spec("C2xC2xC2xC2xC2xC2xC2")
    walked = []
    real = groups._closure
    monkeypatch.setattr(groups, "_closure", lambda *args: walked.append(args) or real(*args))
    kernels = character_kernels(g)
    assert len(kernels) == 128
    # 127 class closures, then a join and a socle for each hyperplane
    assert len(walked) == 127 + 127 + 127


def test_the_kernels_are_kept_on_the_group():
    g = parse_group_spec("S4")
    assert kernel_subgroups(g) is kernel_subgroups(g)
    assert kernel_poset(g) is kernel_poset(g)
    assert list(kernel_poset(g).keys[1:]) == [h.elements for h in character_kernels(g)]
