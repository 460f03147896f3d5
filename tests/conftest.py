"""Shared fixtures: small alphabets and atom sets reused across the suite."""

import pytest
from hypothesis import strategies as st

from krull_arith import Alphabet, GroupSpec, enumerate_atoms
from krull_arith.presets import build_preset


def cyclic_alphabet(n):
    spec = GroupSpec(0, (n,))
    return Alphabet(spec, [spec.element(torsion=(i,)) for i in range(n)])


def int_alphabet(*values):
    """Alphabet over Z from plain integers."""
    spec = GroupSpec(1)
    return Alphabet(spec, [spec.element(free=(v,)) for v in values])


def small_alphabets():
    """Strategy: small alphabets whose atoms are few and short enough for
    brute-force references, and many of whose blocks factor in more than one
    way: subsets of Z/n (3 <= n <= 5) with at most two classes left out, and
    negation-closed sets over Z (entries in [-3, 3]) and over Z^2 (entries
    in [-1, 1]), zero optional."""

    def over(spec, coords):
        return Alphabet(spec, [spec.element_from_coords(c) for c in coords])

    def symmetric(spec, vectors, zero):
        coords = set(vectors) | {tuple(-x for x in v) for v in vectors}
        if zero:
            coords.add((0,) * spec.dimension)
        return over(spec, coords)

    cyclic = st.integers(3, 5).flatmap(
        lambda n: st.sets(st.tuples(st.integers(0, n - 1)), min_size=n - 2, max_size=n).map(
            lambda cs: over(GroupSpec(0, (n,)), cs)
        )
    )
    positive = st.tuples(st.integers(1, 3))
    line = st.builds(
        symmetric, st.just(GroupSpec(1)), st.sets(positive, min_size=1, max_size=3), st.booleans()
    )
    nonzero = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(any)
    plane = st.builds(
        symmetric, st.just(GroupSpec(2)), st.sets(nonzero, min_size=1, max_size=3), st.booleans()
    )
    return st.one_of(cyclic, line, plane)


@pytest.fixture(scope="session")
def cyclic3_atoms():
    return enumerate_atoms(cyclic_alphabet(3))


@pytest.fixture(scope="session")
def cyclic4_atoms():
    return enumerate_atoms(cyclic_alphabet(4))


@pytest.fixture(scope="session")
def cyclic5_atoms():
    return enumerate_atoms(cyclic_alphabet(5))


@pytest.fixture(scope="session")
def five_point_atoms():
    return enumerate_atoms(build_preset("five_point").alphabet)


@pytest.fixture(scope="session")
def thm74_21():
    preset = build_preset("thm74", 2, 1)
    return preset, enumerate_atoms(preset.alphabet)
