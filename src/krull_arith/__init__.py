"""Arithmetic of monoids of zero-sum sequences over finitely generated
abelian groups: atoms, factorizations, sets of lengths, and the standard
factorization-theoretic invariants."""

from .atoms import AtomSet, enumerate_atoms
from .errors import (
    AlphabetError,
    ArgumentError,
    BoundExceededError,
    DomainError,
    KrullArithError,
    ShapeError,
)
from .factorizations import (
    CatenaryProfile,
    Factorization,
    catenary_profile,
    distance,
    factorize,
    lengths_of,
)
from .groups import GroupElement, GroupSpec, subgroup_rank
from .invariants import (
    BoundedResult,
    UnionProfile,
    absolutely_irreducible,
    delta_set,
    delta_star,
    elasticity,
    min_abs_irred_witness,
    monoid_catenary,
    monoid_omega,
    monoid_tame,
    omega,
    tame,
    union_profiles,
    unions,
)
from .lengths import (
    additive_closure_probe,
    c3_set,
    c4_set_ap2,
    c4_set_interval,
    collect_length_sets,
    delta_of_set,
    is_length_set_realized,
    member,
    sumset,
)
from .presets import (
    DefiningMatrix,
    Preset,
    build_preset,
    builtin_map,
    check_cofinal,
    check_divisor_theory,
    decompose,
    from_matrix,
    parse_preset,
    preset_families,
)
from .sequences import Alphabet, Sequence, parse_sequence
from .transfer import (
    Characteristic,
    TransferMap,
    check_transfer,
    count_lifted_atoms,
    count_lifted_atoms_brute,
    lengths_preserved,
)

__version__ = "0.1.0"
