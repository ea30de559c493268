"""Exact spanning-tree arithmetic for Galois covers of finite graphs.

Build covers from voltage assignments, count spanning trees of every
intermediate graph with integer-only linear algebra, and verify the
kernel-poset and cyclic-subgroup product formulas, the elementary-abelian
special case, and the cyclic non-existence certificates -- all as exact
integer identities.
"""

from .covers import (
    Cover,
    VoltageAssignment,
    conjugate_kappa_check,
    derived_graph,
    intermediate_graph,
    intermediate_kappa,
    is_galois,
    random_connected_voltage,
)
from .characters import (
    CharacterTable,
    character_table,
    induced_trivial_values,
    inner_product,
)
from .cyclotomic import CyclotomicInt, cyclotomic_polynomial
from .family import (
    FamilySpec,
    build_matrix_M,
    exp_pow,
    kappa_degree_in_t,
    lemma_matrix_check,
    nonexistence_certificate,
)
from .graphs import (
    SerreGraph,
    bouquet,
    build_graph,
    complete_graph,
    cycle_graph,
    hashimoto_check,
    path_graph,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    alternating_group,
    cyclic_group,
    cyclic_subgroups,
    dicyclic_group,
    dihedral_group,
    direct_product,
    from_permutations,
    is_exceptional,
    is_irreducibly_represented,
    parse_group_spec,
    quotient_group,
    symmetric_group,
)
from .lfunctions import (
    character_h_polys,
    h_poly,
    verify_factorization,
    verify_inter_rel,
    verify_prop_formula,
)
from .posets import (
    MobiusTable,
    Poset,
    adjoin_bottom,
    adjoin_top,
    cyclic_poset,
    hasse_dot,
    kernel_poset,
    mobius,
)
from .report import VerificationReport
from .theorems import (
    random_suite,
    table1_row,
    verify_brauer_kuroda,
    verify_custom_relation,
    verify_eq3,
    verify_euler_zero,
    verify_hmsv,
    verify_kuroda,
)

__version__ = "0.1.0"
