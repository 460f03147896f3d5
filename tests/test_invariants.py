"""Invariants: distance sets, unions of length sets, elasticity, omega/tame,
catenary, absolute irreducibility.  The two union engines are cross-checked.
"""

from fractions import Fraction

import pytest

from krull_arith import (
    absolutely_irreducible,
    delta_set,
    delta_star,
    elasticity,
    enumerate_atoms,
    min_abs_irred_witness,
    monoid_catenary,
    monoid_omega,
    monoid_tame,
    omega,
    tame,
    unions,
)
from krull_arith.errors import ArgumentError
from krull_arith.invariants import BoundedResult
from krull_arith.presets import build_preset

from conftest import cyclic_alphabet, int_alphabet


def test_delta_set_cyclic(cyclic4_atoms, cyclic5_atoms):
    res = delta_set(cyclic4_atoms, 3, expected={1, 2})
    assert res.value == frozenset((1, 2))
    assert res.exact
    res5 = delta_set(cyclic5_atoms, 3, expected={1, 2, 3})
    assert res5.value == frozenset((1, 2, 3))
    assert res5.exact
    with pytest.raises(ArgumentError):
        delta_set(cyclic4_atoms, 1)


def test_delta_set_inexact_flag(cyclic5_atoms):
    # Without a matching expectation the sweep is only a lower bound.
    assert not delta_set(cyclic5_atoms, 2).exact
    assert not delta_set(cyclic5_atoms, 2, expected={1, 2}).exact


def test_delta_star_cyclic(cyclic4_atoms, cyclic5_atoms):
    assert delta_star(cyclic4_atoms, 3).value == frozenset((1, 2))
    res = delta_star(cyclic5_atoms, 3)
    assert res.value == frozenset((1, 3))
    assert max(res.value) == 3 and max(res.value - {3}) == 1


def test_delta_star_atom_limit(cyclic5_atoms):
    res = delta_star(cyclic5_atoms, 3, atom_limit=4)
    assert res.value <= frozenset((1, 3))
    assert "skipped" in res.note


def test_union_engines_agree(cyclic4_atoms, cyclic5_atoms, thm74_21):
    _, ats74 = thm74_21
    for atomset in (cyclic4_atoms, cyclic5_atoms, ats74):
        for k in range(1, 5):
            enum = unions(atomset, k, force="enum")
            milp = unions(atomset, k, force="milp")
            assert enum.members == milp.members
            assert enum.rho == milp.rho and enum.lam == milp.lam


def test_union_values_cyclic(cyclic5_atoms):
    u2 = unions(cyclic5_atoms, 2)
    assert u2.members == tuple(range(2, 6))  # U_2 = [2, n]
    assert unions(cyclic5_atoms, 4).rho == 10
    assert unions(cyclic5_atoms, 5).rho == 11
    u0 = unions(cyclic5_atoms, 0)
    assert u0.members == (0,)
    with pytest.raises(ArgumentError):
        unions(cyclic5_atoms, -1)


def test_elasticity(cyclic5_atoms):
    res = elasticity(cyclic5_atoms)
    assert res.value == Fraction(5, 2)
    assert res.exact
    # Non-symmetric alphabet: swept lower bound, flagged inexact.
    ats = enumerate_atoms(int_alphabet(-3, 2))
    res2 = elasticity(ats, bound=4)
    assert res2.value == Fraction(1)
    assert not res2.exact


def test_omega_and_tame_cyclic(cyclic4_atoms, cyclic5_atoms):
    assert monoid_omega(cyclic4_atoms).value == 4
    assert monoid_tame(cyclic4_atoms).value == 4
    assert monoid_omega(cyclic5_atoms).value == 5
    # Computed fact: the tame degree exceeds omega over the full C5.
    assert monoid_tame(cyclic5_atoms).value == 6


def test_omega_of_single_atoms(cyclic3_atoms):
    a = cyclic3_atoms.alphabet
    g = a.spec.element(torsion=(1,))
    zero_atom = a.sequence([(0 * g, 1)])
    assert omega(cyclic3_atoms, zero_atom) == 1  # the zero block is prime
    full = a.sequence([(g, 3)])
    assert omega(cyclic3_atoms, full) == 3
    assert tame(cyclic3_atoms, zero_atom) == 0


def test_monoid_catenary(cyclic4_atoms):
    res = monoid_catenary(cyclic4_atoms, 3, expected=4)
    assert res.value["catenary"] == 4
    assert res.value["monotone"] == 4
    assert res.exact
    with pytest.raises(ArgumentError):
        monoid_catenary(cyclic4_atoms, 1)


def test_absolutely_irreducible(thm74_21, cyclic4_atoms):
    _, ats = thm74_21
    # In the symmetric rank-two preset every atom is absolutely irreducible.
    assert all(absolutely_irreducible(ats, u) for u in ats.atoms)
    a = cyclic4_atoms.alphabet
    g = a.spec.element(torsion=(1,))
    g4 = a.sequence([(g, 4)])
    mixed = a.sequence([(g, 2), (2 * g, 1)])
    assert absolutely_irreducible(cyclic4_atoms, g4)
    assert not absolutely_irreducible(cyclic4_atoms, mixed)


def test_min_abs_irred_witness(thm74_21):
    _, ats = thm74_21
    s, witness = min_abs_irred_witness(ats)
    assert s == 3
    assert sum(k for _, k in witness) == ats.davenport()


def test_bounded_result_json():
    res = BoundedResult(frozenset((2, 1)), True, 3, "sweep")
    assert res.to_json()["value"] == [1, 2]
    frac = BoundedResult(Fraction(5, 2), True)
    assert frac.to_json()["value"] == {"numerator": 5, "denominator": 2}
