"""Atom enumeration: completion procedure against the exhaustive oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from krull_arith import (
    Alphabet,
    GroupSpec,
    atoms_by_exhaustion,
    davenport_constant,
    enumerate_atoms,
)
from krull_arith.atoms import minimal_nonneg_solutions
from krull_arith.errors import BoundExceededError
from krull_arith.presets import build_preset

from conftest import cyclic_alphabet, int_alphabet, small_alphabets


def test_minimal_solutions_kernel():
    # x - y = 0 over N^2: the single minimal solution is (1, 1).
    assert minimal_nonneg_solutions([(1,), (-1,)]) == [(1, 1)]
    # 2x - 3y = 0: minimal solution (3, 2).
    assert minimal_nonneg_solutions([(2,), (-3,)]) == [(3, 2)]
    assert minimal_nonneg_solutions([]) == []
    # x + y = 0 has no nonzero nonnegative solution.
    assert minimal_nonneg_solutions([(1,), (1,)]) == []


def test_minimal_solutions_cap():
    with pytest.raises(BoundExceededError):
        minimal_nonneg_solutions([(101,), (-1,)], caps=64)
    assert minimal_nonneg_solutions([(101,), (-1,)], caps=200) == [(1, 101)]


@pytest.mark.parametrize(
    "alphabet,max_mult",
    [
        (int_alphabet(-1, 1), 3),
        (int_alphabet(-2, -1, 1, 2), 3),
        (int_alphabet(-2, -1, 0, 1, 2), 3),
        (int_alphabet(-3, 2), 4),
        (cyclic_alphabet(3), 3),
        (cyclic_alphabet(4), 4),
        (cyclic_alphabet(5), 5),
    ],
)
def test_completion_matches_exhaustive_oracle(alphabet, max_mult):
    computed = set(enumerate_atoms(alphabet).atoms)
    oracle = set(atoms_by_exhaustion(alphabet, max_mult))
    assert computed == oracle


def test_oracle_on_rank_two_alphabet():
    spec = GroupSpec(2)
    coords = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
    alphabet = Alphabet(spec, [spec.element_from_coords(c) for c in coords])
    computed = set(enumerate_atoms(alphabet).atoms)
    assert computed == set(atoms_by_exhaustion(alphabet, 2))


def test_oracle_on_mixed_free_and_torsion():
    spec = GroupSpec(1, (2,))
    coords = [(1, 1), (-1, 1), (0, 1), (1, 0), (-1, 0)]
    alphabet = Alphabet(spec, [spec.element_from_coords(c) for c in coords])
    computed = set(enumerate_atoms(alphabet).atoms)
    assert computed == set(atoms_by_exhaustion(alphabet, 3))


def test_known_atom_sets():
    ats = enumerate_atoms(int_alphabet(-2, -1, 1, 2))
    rendered = sorted(str(a) for a in ats.atoms)
    assert rendered == ["-1 * 1", "-1^2 * 2", "-2 * 1^2", "-2 * 2"]
    assert ats.davenport() == 3

    # The zero element alone is an atom of length one.
    ats0 = enumerate_atoms(int_alphabet(0))
    assert [str(a) for a in ats0.atoms] == ["0"]
    assert ats0.davenport() == 1


def test_davenport_values():
    for n in range(2, 7):
        assert davenport_constant(cyclic_alphabet(n)) == n
    for r, alpha in [(2, 1), (2, 2), (3, 1)]:
        preset = build_preset("thm74", r, alpha)
        assert davenport_constant(preset.alphabet) == r + alpha


def test_enumeration_cap():
    with pytest.raises(BoundExceededError):
        enumerate_atoms(int_alphabet(-1, 101), cap=64)
    ats = enumerate_atoms(int_alphabet(-1, 101), cap=128)
    assert ats.davenport() == 102


def test_restrict():
    alphabet = int_alphabet(-2, -1, 1, 2)
    ats = enumerate_atoms(alphabet)
    spec = alphabet.spec
    sub = [alphabet.index(spec.element(free=(v,))) for v in (-1, 1)]
    restricted = ats.restrict(sub)
    assert [str(a) for a in restricted] == ["-1 * 1"]


def test_empty_alphabet():
    spec = GroupSpec(1)
    ats = enumerate_atoms(Alphabet(spec, []))
    assert len(ats) == 0
    assert ats.davenport() == 0


def _mixed_alphabets():
    """Strategy: alphabets over Z + Z/n (2 <= n <= 3) with free entries in
    [-2, 2], three to five elements."""

    def build(n, coords):
        spec = GroupSpec(1, (n,))
        return Alphabet(spec, [spec.element_from_coords(c) for c in coords])

    return st.integers(2, 3).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.sets(st.tuples(st.integers(-2, 2), st.integers(0, n - 1)), min_size=3, max_size=5),
        )
    )


def _multiplicity_bound(alphabet):
    """An a-priori bound on the multiplicity of an element in an atom over
    the alphabets drawn here, so that exhaustion up to it finds every atom.

    Over Z with entries in [-k, k], an atom has at most k positive and k
    negative terms (Lambert).  Over Z + Z/n, an atom's free-nonzero part is a
    product of at most n integer atoms, else some proper subproduct would
    also have torsion sum zero; and a free-zero element has order <= n.  So
    k * n bounds every multiplicity, torsion-only alphabets included (k = 1).
    Over Z^2 the sets drawn here are at most three pairs +-g with entries in
    [-1, 1], and zero.  An atom other than g * (-g) or 0 holds at most one
    element of each pair: at most three vectors, no two parallel, whose
    minimal positive relation has entries bounded by their 2 x 2 minors
    (Cramer's rule), which are at most 2."""
    spec = alphabet.spec
    if spec.free_rank == 2:
        return 2
    k = max((abs(c) for g in alphabet.elements for c in g.free), default=1) or 1
    return k * spec.exponent()


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_alphabets(), _mixed_alphabets()))
def test_completion_kernel_matches_exhaustion_and_caps(alphabet):
    """The completion kernel against the exhaustive oracle, and its cap
    never truncates: every cap below D, the largest multiplicity in any atom,
    raises, and every other cap either raises or gives the uncapped atoms.
    Cap D itself may raise: over Z + Z/2 the alphabet {(-1,0), (2,0),
    (-2,1)} has D = 2, yet the completion must pass a candidate with
    multiplicity 3 that no atom divides."""
    atoms = enumerate_atoms(alphabet)
    assert set(atoms) == set(atoms_by_exhaustion(alphabet, _multiplicity_bound(alphabet)))
    top = max((max(a.mults) for a in atoms), default=0)
    for cap in range(top + 3):
        try:
            capped = enumerate_atoms(alphabet, cap=cap)
        except BoundExceededError:
            continue
        assert cap >= top and capped.atoms == atoms.atoms


def test_cap_at_the_largest_multiplicity_can_raise():
    spec = GroupSpec(1, (2,))
    coords = [(-1, 0), (2, 0), (-2, 1)]
    alphabet = Alphabet(spec, [spec.element_from_coords(c) for c in coords])
    atoms = enumerate_atoms(alphabet)
    assert sorted(str(a) for a in atoms) == ["(-1,0)^2 * (2,0)", "(-2,1)^2 * (2,0)^2"]
    with pytest.raises(BoundExceededError):
        enumerate_atoms(alphabet, cap=2)
    assert enumerate_atoms(alphabet, cap=3).atoms == atoms.atoms
