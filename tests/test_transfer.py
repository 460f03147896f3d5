"""Transfer maps between block monoids and atom counting for monoids
described by a class group with multiplicities.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from krull_arith import (
    Alphabet,
    GroupSpec,
    Sequence,
    enumerate_atoms,
)
from krull_arith.errors import DomainError, ShapeError
from krull_arith.presets import build_preset
from krull_arith.transfer import (
    Characteristic,
    TransferMap,
    builtin_map,
    check_transfer,
    count_lifted_atoms,
    count_lifted_atoms_brute,
    _preimages,
    lengths_preserved,
)


def _doubling_map():
    """Positive control: {-e, e} -> C2 with both elements sent to the
    generator.  This is a genuine transfer map."""
    src_spec = GroupSpec(1)
    e = src_spec.element(free=(1,))
    source = Alphabet(src_spec, [e, -e])
    tgt_spec = GroupSpec(0, (2,))
    g = tgt_spec.element(torsion=(1,))
    target = Alphabet(tgt_spec, [g])
    return TransferMap(source, target, {e: g, -e: g})


@st.composite
def _map_and_target(draw):
    """A random map of a small alphabet over Z onto a smaller one, a target
    multiplicity vector, and an optional bounding source vector."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 3))
    images = draw(st.lists(st.integers(0, height - 1), min_size=width, max_size=width))
    target_mults = draw(st.lists(st.integers(0, 3), min_size=height, max_size=height))
    within = draw(
        st.none() | st.lists(st.integers(0, 3), min_size=width, max_size=width)
    )
    spec = GroupSpec(1)
    source = Alphabet(spec, [spec.element(free=(v,)) for v in range(1, width + 1)])
    target = Alphabet(spec, [spec.element(free=(v,)) for v in range(1, height + 1)])
    tmap = TransferMap(
        source, target, {g: target.elements[j] for g, j in zip(source.elements, images)}
    )
    return tmap, tuple(target_mults), within


@settings(max_examples=200, deadline=None)
@given(_map_and_target())
def test_preimages_match_brute_force(case):
    tmap, target_mults, within = case
    got = [d.mults for d in _preimages(tmap, target_mults, within)]
    ranges = [range(target_mults[j] + 1) for j in tmap.images]
    brute = [
        v
        for v in product(*ranges)
        if tmap.apply(Sequence(tmap.source, v)).mults == target_mults
        and (within is None or all(c <= w for c, w in zip(v, within)))
    ]
    assert sorted(got) == sorted(brute)


def test_apply_and_shape_errors():
    tmap = _doubling_map()
    e = tmap.source.spec.element(free=(1,))
    s = tmap.source.sequence([(e, 2), (-e, 2)])
    image = tmap.apply(s)
    assert image.length == 4
    assert image.is_zero_sum()
    other = Alphabet(GroupSpec(1), [GroupSpec(1).element(free=(1,))])
    with pytest.raises(ShapeError):
        tmap.apply(other.sequence([(GroupSpec(1).element(free=(1,)), 1)]))
    with pytest.raises(ShapeError):
        TransferMap(tmap.source, tmap.target, {e: e, -e: e})


def test_preserves_zero_sums():
    assert _doubling_map().preserves_zero_sums()
    for name in ("prop712", "prop713", "collapse"):
        assert builtin_map(name).preserves_zero_sums()
    # A map that is not class-consistent must be caught.
    src_spec = GroupSpec(1)
    e = src_spec.element(free=(1,))
    source = Alphabet(src_spec, [e, -e])
    tgt_spec = GroupSpec(0, (3,))
    g = tgt_spec.element(torsion=(1,))
    target = Alphabet(tgt_spec, [g, 2 * g])
    broken = TransferMap(source, target, {e: g, -e: g})
    assert not broken.preserves_zero_sums()


def test_doubling_map_is_a_transfer_map():
    tmap = _doubling_map()
    report = check_transfer(tmap, 6)
    assert report.ok
    assert report.surjective_on_window and report.divisors_lift_on_window
    ok, failures = lengths_preserved(
        tmap, enumerate_atoms(tmap.source), enumerate_atoms(tmap.target), 6
    )
    assert ok and not failures


def test_prop712_map_fails_divisor_lifting():
    """The rank-one five-element map onto C3 satisfies surjectivity but not
    divisor lifting: -1^3 * 1^3 maps onto 1^3 * 2^3, whose divisor 2^3 has
    no zero-sum preimage dividing the source block.  Consequently it does
    not preserve length sets either: L(-1^3 * 1^3) = {3} while the image
    factors in lengths {2, 3}.
    """
    tmap = builtin_map("prop712")
    report = check_transfer(tmap, 6)
    assert report.surjective_on_window
    assert not report.divisors_lift_on_window
    a, bt = report.failures[0]
    assert str(a) == "-1^3 * 1^3" and str(bt) == "2^3"
    ok, failures = lengths_preserved(
        tmap, enumerate_atoms(tmap.source), enumerate_atoms(tmap.target), 6
    )
    assert not ok
    block, ls, lt = failures[0]
    assert str(block) == "-1^3 * 1^3"
    assert ls == [3] and lt == [2, 3]


def test_prop713_map_fails_divisor_lifting():
    tmap = builtin_map("prop713")
    report = check_transfer(tmap, 6)
    assert report.surjective_on_window
    assert not report.divisors_lift_on_window
    a, bt = report.failures[0]
    assert str(a) == "(0,-1)^4 * (0,2)^2" and str(bt) == "3^4"
    ok, _ = lengths_preserved(
        tmap, enumerate_atoms(tmap.source), enumerate_atoms(tmap.target), 6
    )
    assert not ok
    # The block (0,-1)^4 * (0,1)^4 has the single length 4, but its image
    # g^4 * (3g)^4 also factors as two atoms of length four each.
    from krull_arith import lengths_of

    src_atoms = enumerate_atoms(tmap.source)
    tgt_atoms = enumerate_atoms(tmap.target)
    e2 = tmap.source.spec.element(free=(0, 1))
    block = tmap.source.sequence([(e2, 4), (-e2, 4)])
    assert lengths_of(src_atoms, block) == frozenset((4,))
    assert lengths_of(tgt_atoms, tmap.apply(block)) == frozenset((2, 4))


def test_collapse_map_fails_surjectivity():
    report = check_transfer(builtin_map("collapse"), 3)
    assert not report.surjective_on_window
    assert not report.ok


def test_t1_failures_do_not_crowd_out_t2_failures():
    """At window 19 the collapse map has 10 T1 failures (the odd powers of
    zero) and many T2 failures; each property keeps its first 10, and the
    JSON lists T1 then T2."""
    report = check_transfer(builtin_map("collapse"), 19)
    assert not report.surjective_on_window and not report.divisors_lift_on_window
    assert [b.length for b in report.t1_failures] == list(range(1, 20, 2))
    assert len(report.t2_failures) == 10
    a, bt = report.t2_failures[0]
    assert str(a) == "-1 * 1" and str(bt) == "()"
    failures = report.to_json()["failures"]
    assert failures == [str(f) for f in report.t1_failures + report.t2_failures]


def test_builtin_map_unknown():
    with pytest.raises(DomainError):
        builtin_map("no-such-map")


def test_transfer_report_json():
    report = check_transfer(_doubling_map(), 4)
    data = report.to_json()
    assert data["ok"] is True
    assert data["bound"] == 4
    assert data["failures"] == []


def test_characteristic_validation_and_json():
    spec = GroupSpec(0, (2,))
    zero, one = spec.element(torsion=(0,)), spec.element(torsion=(1,))
    char = Characteristic(spec, [(zero, 2), (one, 3)])
    assert char.multiplicity(one) == 3
    assert char.multiplicity(zero) == 2
    assert len(char.support_alphabet()) == 2
    assert Characteristic.from_json(char.to_json()).classes == char.classes
    with pytest.raises(DomainError):
        Characteristic(spec, [(zero, -1)])
    with pytest.raises(DomainError):
        Characteristic(spec, [(zero, 1), (zero, 2)])
    with pytest.raises(ShapeError):
        Characteristic(spec, [(GroupSpec(1).element(free=(1,)), 1)])


@pytest.mark.parametrize(
    "kind,n",
    [("A", 3), ("A", 4), ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("E6", 0),
     ("E7", 0), ("E8", 0)],
)
def test_lifted_atom_count_formula_matches_brute(kind, n):
    preset = build_preset("hypersurface", kind, n)
    ats = enumerate_atoms(preset.alphabet)
    assert count_lifted_atoms(preset.characteristic, ats) == count_lifted_atoms_brute(
        preset.characteristic
    )


def test_lifted_atom_count_known_values():
    e7 = build_preset("hypersurface", "E7")
    assert count_lifted_atoms_brute(e7.characteristic) == 11
    e8 = build_preset("hypersurface", "E8")
    assert count_lifted_atoms_brute(e8.characteristic) == 9
    # With every multiplicity one the count is just the number of atoms of
    # the full cyclic block monoid.
    from conftest import cyclic_alphabet

    for n in (1, 2, 3, 4):
        preset = build_preset("hypersurface", "A", n)
        spec = GroupSpec(0, (n + 1,))
        full = Alphabet(spec, [spec.element(torsion=(i,)) for i in range(n + 1)])
        assert count_lifted_atoms_brute(preset.characteristic) == len(
            enumerate_atoms(full)
        )


def test_d_even_claimed_count_discrepancy():
    d4 = build_preset("hypersurface", "D", 4)
    d6 = build_preset("hypersurface", "D", 6)
    assert d4.expected["claimed_atom_count"] == count_lifted_atoms_brute(
        d4.characteristic
    )
    assert d6.expected["claimed_atom_count"] == 11
    assert count_lifted_atoms_brute(d6.characteristic) == 10
