"""Transfer maps between block monoids and atom counting for monoids
described by a class group with multiplicities.
"""

import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from krull_arith import (
    Alphabet,
    GroupSpec,
    Sequence,
    enumerate_atoms,
    lengths_of,
)
from krull_arith.errors import DomainError, ShapeError
from krull_arith.presets import build_preset, builtin_map
from krull_arith.transfer import (
    Characteristic,
    TransferMap,
    TransferReport,
    check_transfer,
    count_lifted_atoms,
    count_lifted_atoms_brute,
    lengths_preserved,
    _ZeroSums,
)

from conftest import ZeroSumsByRecursion, check_transfer_by_fibers


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
def _limits_and_total(draw):
    """An alphabet of at most five elements over Z, Z/n, Z^2, Z + Z/n,
    Z/2 + Z/4, Z^2 + Z/n or Z + Z/2 + Z/n (free entries in [-3, 3],
    2 <= n <= 5), a limit per element and a total up to 16.  The groups
    cover every digit layout of the enumerator's sums: one or two torsion
    digits, free digits alone and free digits above torsion digits."""
    n = draw(st.integers(2, 5))
    free, torsion = draw(st.sampled_from(
        [(1, ()), (0, (n,)), (2, ()), (1, (n,)), (0, (2, 4)), (2, (n,)), (1, (2, n))]
    ))
    spec = GroupSpec(free, torsion)
    entries = [st.integers(-3, 3)] * free + [st.integers(0, m - 1) for m in torsion]
    chosen = draw(st.sets(st.tuples(*entries), min_size=1, max_size=5))
    alphabet = Alphabet(spec, [spec.element_from_coords(c) for c in chosen])
    limits = draw(st.lists(st.integers(0, 4), min_size=len(alphabet), max_size=len(alphabet)))
    return alphabet, tuple(limits), draw(st.integers(0, 16))


@settings(max_examples=300, deadline=None)
@given(_limits_and_total())
def test_zero_sum_vectors_match_brute_force(case):
    """The meet-in-the-middle enumerator yields exactly the zero-sum tuples
    a filter of every bounded tuple keeps, in the same (lexicographic)
    order."""
    alphabet, limits, total = case
    brute = [
        v
        for v in product(*[range(m + 1) for m in limits])
        if sum(v) <= total and Sequence(alphabet, v).is_zero_sum()
    ]
    assert list(_ZeroSums(alphabet).vectors(limits, total)) == brute


def _reference_window(alphabet, bound):
    """Zero-sum Sequences of length 1 to ``bound``, in lexicographic order of
    their multiplicity vectors."""
    ranges = [range(bound + 1)] * len(alphabet)
    for v in product(*ranges):
        if 0 < sum(v) <= bound:
            s = Sequence(alphabet, v)
            if s.is_zero_sum():
                yield s


def _reference_lifts(tmap, image, within):
    """Does some zero-sum source Sequence that divides ``within`` (when it is
    given) map onto ``image``?  Brute force over all candidate vectors."""
    ranges = [
        range((image.mults[j] if within is None else min(image.mults[j], within.mults[i])) + 1)
        for i, j in enumerate(tmap.images)
    ]
    for v in product(*ranges):
        d = Sequence(tmap.source, v)
        if tmap.apply(d) == image and d.is_zero_sum():
            return True
    return False


def _reference_check_transfer(tmap, bound):
    """check_transfer by Sequence arithmetic: group sums of Sequences and a
    brute-force lift search, every failure collected, the first 10 of each
    property kept."""
    t1 = [b for b in _reference_window(tmap.target, bound) if not _reference_lifts(tmap, b, None)]
    t2 = []
    for a in _reference_window(tmap.source, bound):
        image = tmap.apply(a)
        for v in product(*[range(m + 1) for m in image.mults]):
            bt = Sequence(tmap.target, v)
            if bt.is_zero_sum() and not _reference_lifts(tmap, bt, a):
                t2.append((a, bt))
    return TransferReport(not t1, not t2, bound, tuple(t1[:10]), tuple(t2[:10]))


@st.composite
def _small_maps(draw, max_bound=5):
    """A map between two small alphabets, each over Z (entries in [-3, 3])
    or over Z/n (2 <= n <= 5), and a window of at most ``max_bound``.  Half of the maps
    send each element to an arbitrary target element; the other half are
    induced by a homomorphism x -> t * x into Z/m, so they keep zero sums."""

    def alphabet(max_size):
        n = draw(st.integers(1, 5))
        spec = GroupSpec(1) if n == 1 else GroupSpec(0, (n,))
        values = range(-3, 4) if n == 1 else range(n)
        chosen = draw(st.sets(st.sampled_from(values), min_size=1, max_size=max_size))
        return Alphabet(spec, [spec.element_from_coords((c,)) for c in chosen])

    source = alphabet(4)
    if draw(st.booleans()):
        target = alphabet(3)
        images = {g: draw(st.sampled_from(target.elements)) for g in source.elements}
    else:
        m = draw(st.integers(2, 5))
        n = source.spec.torsion[0] if source.spec.torsion else 0
        t = draw(st.sampled_from([t for t in range(m) if n * t % m == 0]))
        spec = GroupSpec(0, (m,))
        images = {g: spec.element(torsion=(t * g.coords[0],)) for g in source.elements}
        target = Alphabet(spec, set(images.values()))
    return TransferMap(source, target, images), draw(st.integers(1, max_bound))


def _refusal(tmap, bad):
    """The pattern of the DomainError that refuses ``tmap``: it names
    ``bad``, the first window block whose image is not zero-sum, and that
    image."""
    return re.escape("%s maps onto %s, which is not zero-sum" % (bad, tmap.apply(bad)))


@settings(max_examples=150, deadline=None)
@given(_small_maps())
def test_transfer_kernel_matches_sequence_reference(case):
    """The tuple window checks against Sequence arithmetic: the report and
    the length comparison.  Both raise the same error when theta does not
    keep the zero sums of the window, naming the first block whose image is
    not zero-sum.  Otherwise no length set differs on a window that passes
    T2: the theorem by which ``transfer-check`` reports lengths preserved,
    with ``lengths_of`` as its oracle."""
    tmap, bound = case
    src, tgt = enumerate_atoms(tmap.source), enumerate_atoms(tmap.target)
    window = list(_reference_window(tmap.source, bound))
    bad = next((a for a in window if not tmap.apply(a).is_zero_sum()), None)
    if bad is not None:
        with pytest.raises(DomainError, match=_refusal(tmap, bad)):
            check_transfer(tmap, bound)
        with pytest.raises(DomainError, match=_refusal(tmap, bad)):
            lengths_preserved(tmap, src, tgt, bound)
        return
    report = check_transfer(tmap, bound)
    reference = _reference_check_transfer(tmap, bound)
    assert report == reference
    assert report.to_json() == reference.to_json()
    failures = [
        (a, sorted(lengths_of(src, a)), sorted(lengths_of(tgt, tmap.apply(a)))) for a in window
    ]
    failures = [f for f in failures if f[1] != f[2]]
    assert lengths_preserved(tmap, src, tgt, bound) == (not failures, failures[:10])
    if report.divisors_lift_on_window:
        assert not failures


@pytest.mark.parametrize(
    "name, bound",
    [("prop713", 6), ("prop713", 8), ("prop713", 10), ("prop712", 6), ("prop712", 12),
     ("collapse", 4), ("collapse", 19)],
)
def test_transfer_kernel_matches_fiber_reference(name, bound):
    """The membership tests against the fiber-split search, on the windows
    of the benchmark and of the CI step and on either side of them."""
    tmap = builtin_map(name)
    report, reference = check_transfer(tmap, bound), check_transfer_by_fibers(tmap, bound)
    assert report == reference
    assert report.to_json() == reference.to_json()


@settings(max_examples=500, deadline=None)
@given(_small_maps(max_bound=8))
def test_transfer_kernel_matches_fiber_reference_on_small_maps(case):
    """As above on random small maps; a map that does not keep the zero sums
    of the window is refused, by the recursion's zero-sum test."""
    tmap, bound = case
    source, target = ZeroSumsByRecursion(tmap.source), ZeroSumsByRecursion(tmap.target)
    bad = next((a for a in source.window(bound) if not target(tmap._image(a))), None)
    if bad is not None:
        with pytest.raises(DomainError, match=_refusal(tmap, Sequence(tmap.source, bad))):
            check_transfer(tmap, bound)
        return
    report, reference = check_transfer(tmap, bound), check_transfer_by_fibers(tmap, bound)
    assert report == reference
    assert report.to_json() == reference.to_json()


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


def test_image_table_has_one_image_per_source_element():
    """An image of an element outside the source alphabet, a source element
    with no image, and two image pairs for one source element are each a
    ShapeError naming the element, never silently dropped."""
    tmap = _doubling_map()
    e = tmap.source.spec.element(free=(1,))
    g = tmap.target.elements[0]
    with pytest.raises(ShapeError, match="^image given for 3, which is outside the source alphabet$"):
        TransferMap(tmap.source, tmap.target, {e: g, -e: g, tmap.source.spec.element(free=(3,)): g})
    with pytest.raises(ShapeError, match="^no image given for -1$"):
        TransferMap(tmap.source, tmap.target, {e: g})
    data = {
        "source": tmap.source.to_json(),
        "target": tmap.target.to_json(),
        "images": [[[1], [1]], [[-1], [1]], [[1], [1]]],
    }
    with pytest.raises(ShapeError, match="^two images given for 1$"):
        TransferMap.from_json(data)
    data["images"].pop()
    assert TransferMap.from_json(data).images == tmap.images


def test_doubling_map_is_a_transfer_map():
    tmap = _doubling_map()
    report = check_transfer(tmap, 6)
    assert report.ok
    assert report.surjective_on_window and report.divisors_lift_on_window
    ok, failures = lengths_preserved(
        tmap, enumerate_atoms(tmap.source), enumerate_atoms(tmap.target), 6
    )
    assert ok and not failures


@pytest.mark.parametrize("name", ["prop713", "five_point"])
def test_identity_maps_are_transfer_maps(name):
    """Positive control that scans every block of the window: the identity
    map lifts every target block and every divisor, so no scan stops early.
    It keeps every set of lengths, checked at window 8, which holds the
    smaller windows, and it agrees with the fiber-split reference."""
    alphabet = build_preset(name).alphabet
    tmap = TransferMap(alphabet, alphabet, {g: g for g in alphabet.elements})
    for bound in range(1, 11):
        report = check_transfer(tmap, bound)
        assert report.ok and not report.failures
        if bound <= 6:
            assert report == check_transfer_by_fibers(tmap, bound)
    atoms = enumerate_atoms(tmap.source)
    assert lengths_preserved(tmap, atoms, atoms, 8) == (True, [])


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


def test_characteristic_without_primes():
    """A class the characteristic does not list has multiplicity 0, and with
    no prime the brute count finds no atom; over the trivial group it has
    not even a column to solve for."""
    c3 = GroupSpec(0, (3,))
    char = Characteristic(c3, [(c3.element(torsion=(1,)), 2)])
    assert char.multiplicity(c3.element(torsion=(2,))) == 0
    assert count_lifted_atoms_brute(Characteristic(c3, [])) == 0
    assert count_lifted_atoms_brute(Characteristic(GroupSpec(0, ()), [])) == 0


def test_d_even_claimed_count_discrepancy():
    d4 = build_preset("hypersurface", "D", 4)
    d6 = build_preset("hypersurface", "D", 6)
    assert d4.expected["claimed_atom_count"] == count_lifted_atoms_brute(
        d4.characteristic
    )
    assert d6.expected["claimed_atom_count"] == 11
    assert count_lifted_atoms_brute(d6.characteristic) == 10
