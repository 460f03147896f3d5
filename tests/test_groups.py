"""Group arithmetic: canonical forms, orders, ranks, serialization."""

from math import lcm

import pytest
from hypothesis import given, strategies as st

from krull_arith import GroupSpec, subgroup_rank
from krull_arith.groups import congruence
from krull_arith.errors import ShapeError


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(-1)
    with pytest.raises(ValueError):
        GroupSpec(0, (1,))
    spec = GroupSpec(2, (3, 4))
    assert spec.dimension == 4
    assert spec.exponent() == 12
    assert GroupSpec(1).exponent() == 1


def test_torsion_reduction():
    spec = GroupSpec(0, (3,))
    assert spec.element(torsion=(5,)).torsion == (2,)
    assert spec.element(torsion=(-1,)).torsion == (2,)
    assert (spec.element(torsion=(2,)) + spec.element(torsion=(2,))).torsion == (1,)


def test_element_arithmetic():
    spec = GroupSpec(1, (4,))
    a = spec.element(free=(2,), torsion=(3,))
    b = spec.element(free=(-1,), torsion=(2,))
    assert (a + b).coords == (1, 1)
    assert (a - b).coords == (3, 1)
    assert (-a).coords == (-2, 1)
    assert (3 * a).coords == (6, 1)
    assert spec.zero().is_zero()
    assert not a.is_zero()


def test_cross_group_operations_rejected():
    a = GroupSpec(1).element(free=(1,))
    b = GroupSpec(0, (2,)).element(torsion=(1,))
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a < b


def test_order():
    spec = GroupSpec(1, (6,))
    assert spec.element(free=(1,), torsion=(0,)).order() == 0
    assert spec.element(free=(0,), torsion=(2,)).order() == 3
    assert spec.element(free=(0,), torsion=(1,)).order() == 6
    assert spec.zero().order() == 1


def test_basis_and_coords():
    spec = GroupSpec(2, (5,))
    assert spec.basis_element(0).coords == (1, 0, 0)
    assert spec.basis_element(2).coords == (0, 0, 1)
    with pytest.raises(IndexError):
        spec.basis_element(3)
    assert spec.element_from_coords((1, 2, 7)).coords == (1, 2, 2)
    with pytest.raises(ShapeError):
        spec.element_from_coords((1, 2))


def test_render():
    assert GroupSpec(1).element(free=(-3,)).render() == "-3"
    assert GroupSpec(1, (2,)).element(free=(1,), torsion=(1,)).render() == "(1,1)"


def test_json_round_trip():
    spec = GroupSpec(1, (4,))
    assert GroupSpec.from_json(spec.to_json()) == spec


def test_subgroup_rank_basics():
    spec = GroupSpec(3)
    es = [spec.basis_element(i) for i in range(3)]
    assert subgroup_rank(es) == 3
    assert subgroup_rank([es[0], -es[0]]) == 1
    assert subgroup_rank([es[0] + es[1], es[1] + es[2], es[0] - es[2]]) == 2
    assert subgroup_rank([]) == 0
    assert subgroup_rank([spec.zero()]) == 0


def test_subgroup_rank_with_torsion():
    spec = GroupSpec(1, (2,))
    mixed = spec.element(free=(1,), torsion=(1,))
    pure_torsion = spec.element(free=(0,), torsion=(1,))
    assert subgroup_rank([mixed]) == 1
    assert subgroup_rank([pure_torsion]) == 0
    assert subgroup_rank([mixed, pure_torsion]) == 1


coords3 = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-20, 20)
)


def _elem(c):
    return GroupSpec(2, (6,)).element(free=c[:2], torsion=c[2:])


@given(coords3, coords3)
def test_addition_commutes(c1, c2):
    assert _elem(c1) + _elem(c2) == _elem(c2) + _elem(c1)


@given(coords3, coords3, coords3)
def test_addition_associates(c1, c2, c3):
    a, b, c = _elem(c1), _elem(c2), _elem(c3)
    assert (a + b) + c == a + (b + c)


@given(coords3)
def test_negation_inverts(c):
    a = _elem(c)
    assert (a + (-a)).is_zero()


@given(st.lists(coords3, min_size=1, max_size=4))
def test_rank_stable_under_dependent_generator(cs):
    gens = [_elem(c) for c in cs]
    total = gens[0]
    for g in gens[1:]:
        total = total + g
    assert subgroup_rank(gens) == subgroup_rank(gens + [total])


@given(st.sampled_from([(7,), (12,), (2, 6), (3, 9), (2, 2, 4)]), st.data())
def test_multipliers_match_every_k(torsion, data):
    spec = GroupSpec(0, torsion)
    coords = st.tuples(*(st.integers(0, n - 1) for n in torsion))
    g = spec.element(torsion=data.draw(coords))
    h = spec.element(torsion=data.draw(coords))
    order = g.order()
    solutions = [k for k in range(order) if k * g == h]
    found = g.multipliers(h)
    if found is None:
        assert solutions == []
    else:
        assert found[1] == order
        assert solutions == [found[0] % order]
    assert g.multipliers(5 * g) == (5 % order, order)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(-50, 50), st.integers(-50, 50))
def test_congruence_matches_a_search(m, n, a, b):
    both = [k for k in range(lcm(m, n)) if k % m == a % m and k % n == b % n]
    joined = congruence(a, m, b, n)
    assert (joined is None) == (not both)
    if joined:
        assert joined == (both[0], lcm(m, n)) and len(both) == 1
