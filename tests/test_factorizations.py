"""Factorizations, length sets, distances, catenary profiles."""

import signal
from itertools import combinations, combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from krull_arith import (
    Alphabet,
    Factorization,
    additive_closure_probe,
    GroupSpec,
    catenary_profile,
    collect_length_sets,
    delta_of_set,
    delta_set,
    delta_star,
    distance,
    enumerate_atoms,
    factorize,
    is_length_set_realized,
    lengths_of,
    min_abs_irred_witness,
    monoid_tame,
    omega,
    parse_preset,
    parse_sequence,
    sumset,
    tame,
    union_profiles,
)
from krull_arith import factorizations, invariants
from krull_arith.errors import BoundExceededError, DomainError, ShapeError
from krull_arith.factorizations import (
    CatenaryProfile,
    PackedAtoms,
    _count_vectors,
    _factorizations,
    _lengths,
    _members,
    factorize_with_profile,
)
from krull_arith.invariants import _length_masks, _union_by_enumeration, product_levels

from conftest import (
    catenary_by_chains,
    closure_probe_by_levels,
    count_vectors_by_reach,
    cyclic_alphabet,
    int_alphabet,
    least_gaps_by_levels,
    lengths_by_lists,
    small_alphabets,
)


def _block(alphabet, text_pairs):
    return alphabet.sequence(
        [(alphabet.spec.element(torsion=(v,)), m) for v, m in text_pairs]
    )


def test_factorize_known_block(cyclic3_atoms):
    a = cyclic3_atoms.alphabet
    block = _block(a, [(1, 3), (2, 3)])
    zs = factorize(cyclic3_atoms, block)
    rendered = sorted(str(z) for z in zs)
    assert rendered == ["(1 * 2)^3", "(2^3) . (1^3)"]
    assert sorted({z.length for z in zs}) == [2, 3]


def test_factorize_rejects_nonzero_sum(cyclic3_atoms):
    block = _block(cyclic3_atoms.alphabet, [(1, 1)])
    with pytest.raises(DomainError):
        factorize(cyclic3_atoms, block)
    with pytest.raises(DomainError):
        lengths_of(cyclic3_atoms, block)


@pytest.mark.parametrize(
    "call, token, text, error",
    [
        (lengths_of, "five_point", "1^2 * -2", ShapeError),
        # Zero-sum over C5: only the alphabet check refuses it.
        (factorize, "cyclic:5", "1^5 * 4^2 * 2", ShapeError),
        (catenary_profile, "cyclic:5", "1^5 * 4^2 * 2", ShapeError),
        (omega, "cyclic:5", "1 * 4", ShapeError),
        (omega, "cyclic:3", "1^3 * 2^3", DomainError),
        (omega, "cyclic:3", "1", DomainError),
        (tame, "cyclic:3", "1", DomainError),
    ],
)
def test_public_functions_check_their_sequence(cyclic3_atoms, call, token, text, error):
    """A sequence over another alphabet, one with nonzero sum, or for omega
    and tame one that is not an atom, is refused, not answered for."""
    with pytest.raises(error):
        call(cyclic3_atoms, parse_sequence(parse_preset(token).alphabet, text))


def test_restricted_atom_sets_refuse_blocks_outside_their_piece(cyclic5_atoms):
    """Over C5 restricted to {1, 4}, a zero-sum block that holds 2 has no
    factorization in the piece: it is refused, not answered for as a block
    with no factorizations, and a memo shared with the full atom set keeps
    the full set's lengths."""
    piece = cyclic5_atoms.restrict((1, 4))
    alphabet = cyclic5_atoms.alphabet
    outside = [parse_sequence(alphabet, "2^5"), parse_sequence(alphabet, "1^5 * 2^5 * 3^5")]
    memo = {}
    for block in outside:
        for call in (factorize, catenary_profile):
            with pytest.raises(DomainError):
                call(piece, block)
        with pytest.raises(DomainError):
            lengths_of(piece, block, memo)
    assert lengths_of(piece, parse_sequence(alphabet, "1^5 * 4^5"), memo) == {2, 5}
    assert [lengths_of(cyclic5_atoms, block, memo) for block in outside] == [{1}, {3, 4, 5, 6}]


def test_factorize_guard(monkeypatch, cyclic3_atoms):
    block = _block(cyclic3_atoms.alphabet, [(1, 3), (2, 3)])
    monkeypatch.setattr(factorizations, "FACTORIZATION_GUARD", 1)
    with pytest.raises(BoundExceededError):
        factorize(cyclic3_atoms, block)
    with pytest.raises(BoundExceededError):
        catenary_profile(cyclic3_atoms, block)


def test_factorization_product_and_length(cyclic3_atoms):
    block = _block(cyclic3_atoms.alphabet, [(1, 6)])
    for z in factorize(cyclic3_atoms, block):
        assert z.product() == block
        assert z.length == sum(z.counts)


def test_lengths_match_factorize_on_sweep(five_point_atoms):
    """L(B) from the memoized recursion equals the lengths read off Z(B)."""
    memo = {}
    alphabet = five_point_atoms.alphabet
    packed = PackedAtoms.for_products(five_point_atoms, 3)
    for level in product_levels(packed.atoms, 3):
        for b in level:
            block = alphabet.from_mults(packed.unpack(b))
            via_z = {z.length for z in factorize(five_point_atoms, block)}
            assert lengths_of(five_point_atoms, block, memo) == frozenset(via_z)


def test_min_length(cyclic4_atoms):
    block = _block(cyclic4_atoms.alphabet, [(1, 4), (3, 4)])
    assert min(lengths_of(cyclic4_atoms, block)) == 2
    assert min(lengths_of(cyclic4_atoms, cyclic4_atoms.alphabet.empty())) == 0


def test_distance():
    ats = enumerate_atoms(int_alphabet(-2, -1, 1, 2))
    spec = ats.alphabet.spec
    block = ats.alphabet.sequence(
        [(spec.element(free=(v,)), 2) for v in (-2, -1, 1, 2)]
    )
    zs = factorize(ats, block)
    for z1 in zs:
        for z2 in zs:
            d = distance(z1, z2)
            assert d == distance(z2, z1)
            assert (d == 0) == (z1 == z2)


def test_distance_values(cyclic3_atoms):
    # (1*2)^3 vs (1^3).(2^3): no common atom, distances 3 and 2.
    block = _block(cyclic3_atoms.alphabet, [(1, 3), (2, 3)])
    z1, z2 = factorize(cyclic3_atoms, block)
    assert distance(z1, z2) == 3


def test_catenary_profile_unique_factorization(cyclic3_atoms):
    block = _block(cyclic3_atoms.alphabet, [(1, 3)])
    prof = catenary_profile(cyclic3_atoms, block)
    assert prof.num_factorizations == 1
    assert prof.catenary == prof.monotone == 0


def test_catenary_profile_known(cyclic3_atoms):
    block = _block(cyclic3_atoms.alphabet, [(1, 3), (2, 3)])
    prof = catenary_profile(cyclic3_atoms, block)
    assert prof.catenary == 3
    assert prof.lengths == (2, 3)
    assert prof.monotone == max(prof.equal, prof.adjacent)


def test_factorization_validation(cyclic3_atoms):
    with pytest.raises(DomainError):
        Factorization(cyclic3_atoms, (1,))


def test_deep_block_has_no_recursion_limit():
    """Over Z/2, g^1200 * 0^1200 = (g^2)^600 * 0^1200 is far deeper than the
    interpreter's recursion limit."""
    atomset = enumerate_atoms(cyclic_alphabet(2))
    g = atomset.alphabet.spec.element(torsion=(1,))
    block = atomset.alphabet.sequence([(g, 1200), (0 * g, 1200)])
    assert lengths_of(atomset, block) == frozenset((1800,))
    assert len(factorize(atomset, block)) == 1


# Independent references built on Sequence arithmetic: the recursions the
# tuple kernels replaced.  The catenary reference, by chains of steps, is
# catenary_by_chains in conftest.


def _reference_factorizations(atomset, block):
    atoms = atomset.atoms
    out = []
    counts = [0] * len(atoms)

    def rec(rem, start):
        if rem.is_empty():
            out.append(tuple(counts))
            return
        for i in range(start, len(atoms)):
            if atoms[i].divides(rem):
                counts[i] += 1
                rec(rem // atoms[i], i)
                counts[i] -= 1

    rec(block, 0)
    return sorted(out)


def _reference_lengths(atomset, block, memo):
    if block.mults not in memo:
        if block.is_empty():
            memo[block.mults] = frozenset((0,))
        else:
            memo[block.mults] = frozenset(
                l + 1
                for u in atomset.atoms
                if u.divides(block)
                for l in _reference_lengths(atomset, block // u, memo)
            )
    return memo[block.mults]


def _reference_tame(atomset, u, memo):
    """t(H, u) from the minimal covers of u, found by Sequence arithmetic:
    the multisets W of at most |u| atoms that share an element with u, such
    that u divides prod(W) and no longer divides it once any one member is
    dropped."""
    meets = [w for w in atomset.atoms if set(w.support()) & set(u.support())]
    covers = []
    for size in range(1, u.length + 1):
        for cover in combinations_with_replacement(meets, size):
            prod = atomset.alphabet.empty()
            for w in cover:
                prod = prod * w
            if u.divides(prod) and not any(u.divides(prod // w) for w in set(cover)):
                covers.append((size, prod))
    if max(size for size, _ in covers) == 1:
        return 0
    return max(max(size, 1 + min(_reference_lengths(atomset, prod // u, memo))) for size, prod in covers)


@st.composite
def _blocks(draw):
    """An atom set over a small alphabet and a product of 3 to 6 of its atoms
    (repeats allowed), as a Sequence."""
    atomset = enumerate_atoms(draw(small_alphabets()))
    if not len(atomset):
        return atomset, atomset.alphabet.empty()
    picks = draw(st.lists(st.sampled_from(atomset.atoms), min_size=3, max_size=6))
    block = atomset.alphabet.empty()
    for u in picks:
        block = block * u
    return atomset, block


@settings(max_examples=150, deadline=None)
@given(_blocks())
def test_kernels_match_sequence_references(case):
    atomset, block = case
    zs = _reference_factorizations(atomset, block)
    assert [z.counts for z in factorize(atomset, block)] == zs
    lengths = _reference_lengths(atomset, block, {})
    assert lengths_of(atomset, block, {}) == lengths
    assert lengths == {sum(z) for z in zs}
    c, equal, adjacent = catenary_by_chains(zs)
    prof = catenary_profile(atomset, block)
    assert prof.num_factorizations == len(zs)
    assert prof.lengths == tuple(sorted(lengths))
    assert (prof.catenary, prof.equal, prof.adjacent) == (c, equal, adjacent)
    assert prof.monotone == max(equal, adjacent)


def _with_zero(alphabet, zero):
    """The alphabet with 0 added (zero=True) or removed."""
    z = alphabet.spec.zero()
    return Alphabet(alphabet.spec, [g for g in alphabet if g != z] + ([z] if zero else []))


@st.composite
def _packed_cases(draw):
    """An atom set over a small alphabet with or without 0, a product of 0 to
    6 of its atoms, and a packing bound at least the block's largest
    multiplicity, so that widths 8, 16 and 32 all occur."""
    atomset = enumerate_atoms(_with_zero(draw(small_alphabets()), draw(st.booleans())))
    picks = draw(st.lists(st.sampled_from(atomset.atoms), max_size=6)) if len(atomset) else []
    block = atomset.alphabet.empty()
    for u in picks:
        block = block * u
    top = max(block.mults, default=0) + draw(st.sampled_from([0, 1, 200, 40_000, 1 << 20]))
    return atomset, block, top


@settings(max_examples=200, deadline=None)
@given(_packed_cases())
def test_packed_kernels_match_sequence_references(case):
    """_factorizations and _lengths on a packed block equal the Sequence
    references, and so does every length set the search left in the memo."""
    atomset, block, top = case
    packed = PackedAtoms(atomset, top)
    b = packed.pack(block.mults)
    assert packed.unpack(b) == block.mults
    assert _factorizations(packed, b) == _reference_factorizations(atomset, block)
    reference = {}
    assert _members(_lengths(packed, b)) == _reference_lengths(atomset, block, reference)
    for key, mask in packed.table.items():
        part = atomset.alphabet.from_mults(packed.unpack(key))
        assert _members(mask) == _reference_lengths(atomset, part, reference)


def _products(atomset, k):
    """The products of exactly k atoms, by Sequence multiplication."""
    out = set()
    for picks in combinations_with_replacement(atomset.atoms, k):
        block = atomset.alphabet.empty()
        for u in picks:
            block = block * u
        out.add(block)
    return out


def _reference_subset_minima(atomset, bound, memo):
    """delta* by one sweep per subset: for each subset G1 of the alphabet
    whose atom set (``AtomSet.restrict``) is nonempty and new, (its atom
    count, min delta over products of 2..``bound`` of its nonzero atoms, or
    None when it has no gap).  A block supported in G1 has the same divisors
    in B(G1) as in B(G0), so one ``_reference_lengths`` memo serves all."""
    n = len(atomset.alphabet)
    seen = set()
    gaps_of = {}  # a multiset of atoms -> the gaps of L(its product)
    out = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            restricted = atomset.restrict(subset)
            if not len(restricted) or restricted.vectors in seen:
                continue
            seen.add(restricted.vectors)
            nonzero = [u for u in restricted.atoms if u.length > 1]
            gaps = set()
            for k in range(2, bound + 1):
                for picks in combinations_with_replacement(nonzero, k):
                    if picks not in gaps_of:
                        block = atomset.alphabet.empty()
                        for u in picks:
                            block = block * u
                        gaps_of[picks] = delta_of_set(_reference_lengths(atomset, block, memo))
                    gaps |= gaps_of[picks]
            out.append((len(restricted), min(gaps, default=None)))
    return out


@settings(max_examples=80, deadline=None)
@given(small_alphabets(), st.booleans())
def test_packed_sweeps_match_sequence_references(alphabet, zero):
    """Product levels, collected length sets, the realizer, unions (one at a
    time and all at once), the delta set, delta* with and without an atom
    limit, and tame degrees, each against products and length sets computed
    by Sequence arithmetic."""
    atomset = enumerate_atoms(_with_zero(alphabet, zero))
    if not len(atomset):
        return
    bound = 3
    products = [_products(atomset, k) for k in range(bound + 1)]
    packed = PackedAtoms.for_products(atomset, bound)
    levels = product_levels(packed.atoms, bound)
    assert [{packed.unpack(b) for b in level} for level in levels] == [
        {block.mults for block in level} for level in products
    ]
    reference = {}
    sets = [{_reference_lengths(atomset, b, reference) for b in level} for level in products]
    memo = {}
    # Each level of the sweep holds the length sets of its products, and
    # every block it lists, zero-shifted ones too, is such a product with
    # that length set.
    for level, swept, level_sets in zip(products, _length_masks(atomset, bound, memo), sets):
        assert set(map(_members, swept)) == level_sets
        for mask, blocks in swept.items():
            for b in blocks:
                block = atomset.alphabet.from_mults(packed.unpack(b))
                assert block in level
                assert _reference_lengths(atomset, block, reference) == _members(mask)
    for probe_bound in (1, 2):
        expected = closure_probe_by_levels(atomset, probe_bound)
        assert additive_closure_probe(atomset, probe_bound, memo) == expected
    collected = collect_length_sets(atomset, bound, memo)
    assert collected == set().union(*sets)
    # A set with minimum m is a length set iff it is L(B) for a product B of
    # exactly m atoms (a factorization of length m).
    candidates = collected | {sumset(a, b) for a in collected for b in collected}
    for t in candidates:
        if min(t) <= bound:
            assert is_length_set_realized(atomset, t, bound, memo) == (t in sets[min(t)])
    expected_unions = []
    for k in range(1, bound + 1):
        union = tuple(sorted(set().union(*(ls for ls in sets[k] if k in ls))))
        assert tuple(sorted(_members(_union_by_enumeration(atomset, k, memo)[-1]))) == union
        expected_unions.append(union)
    assert [u.members for u in union_profiles(atomset, bound, memo=memo)] == expected_unions
    nonzero = [u for u in atomset.atoms if u.length > 1]
    gaps = set()
    for k in (2, 3):
        for picks in combinations_with_replacement(nonzero, k):
            block = atomset.alphabet.empty()
            for u in picks:
                block = block * u
            gaps |= delta_of_set(_reference_lengths(atomset, block, reference))
    assert delta_set(atomset, bound, memo=memo).value == gaps
    minima = _reference_subset_minima(atomset, bound, reference)
    for limit in (None, len(atomset) - 1, len(atomset) // 2):
        kept = [gap for count, gap in minima if limit is None or count <= limit]
        skipped = len(minima) - len(kept)
        result = delta_star(atomset, bound, memo=memo, atom_limit=limit)
        assert result.value == {gap for gap in kept if gap is not None}
        assert result.note == ("%d subsets above the atom limit skipped" % skipped if skipped else "")
    for u in atomset.atoms[:4]:
        assert tame(atomset, u, memo) == _reference_tame(atomset, u, reference)


@settings(max_examples=60, deadline=None)
@given(small_alphabets(), st.booleans())
def test_grouped_search_matches_the_reach_search(alphabet, zero):
    """The search that branches over the atoms starting at the lowest
    element gives the Z(B) of the reach-table search, on every product of at
    most 4 atoms, the atom 0 included."""
    atomset = enumerate_atoms(_with_zero(alphabet, zero))
    packed = PackedAtoms.for_products(atomset, 4)
    for level in product_levels(packed.atoms, 4):
        for b in level:
            y, positions, counts, zs = _count_vectors(packed, b)
            ry, rpositions, rcounts, rzs = count_vectors_by_reach(packed, b)
            assert (y, positions, counts.width, zs) == (ry, rpositions, rcounts.width, rzs)


@settings(max_examples=60, deadline=None)
@given(small_alphabets(), st.booleans())
def test_one_pass_lengths_match_the_list_kernel(alphabet, zero):
    """The one-pass L(B) search writes the table of the search that builds a
    child list and a missing list per node, the same blocks with the same
    masks in the same order, over every product of at most 4 atoms, the atom
    0 included, and each of them times 0^100 when 0 is an atom, swept on one
    table per kernel.  At a floor ``_count_vectors`` reads ``table[...]``
    with no default, so a sub-block the search skipped would be a KeyError
    there."""
    atomset = enumerate_atoms(_with_zero(alphabet, zero))
    packed = PackedAtoms.for_products(atomset, 4)
    reference = PackedAtoms.for_products(atomset, 4)
    assert packed.table is not reference.table
    zeros = (0, 100 << packed.zero[1]) if packed.zero else (0,)
    for level in product_levels(packed.atoms, 4):
        for b in level:
            for y in zeros:
                assert _lengths(packed, b + y) == lengths_by_lists(reference, b + y)
    assert list(packed.table.items()) == list(reference.table.items())


@settings(max_examples=40, deadline=None)
@given(small_alphabets(), st.booleans(), st.integers(2, 4))
# Over C8, on level 2, the support {2, 6} has least gap 2 and {2, 4, 6},
# which holds it, least gap 1: a floor at gap 2 would drop the latter.
@example(cyclic_alphabet(8), False, 2)
def test_delta_star_floor_matches_the_full_sweep(alphabet, zero, bound):
    """delta* with the gap-1 floor gives the value and note of the sweep
    over every product of each maximal atom set, with and without an atom
    limit.  Below it, for all atoms and for two overlapping atom sets, the
    least gap over the supports inside each support the full sweep records
    is that of the full sweep."""
    atomset = enumerate_atoms(_with_zero(alphabet, zero))
    memo = {}
    packed = PackedAtoms.for_products(atomset, bound, memo)
    every = (1 << len(atomset)) - 1
    for atom_sets in ([every], [every & ~1, every & ~2]):
        least = invariants._least_gaps_by_support(packed, atom_sets, bound)
        reference = least_gaps_by_levels(packed, atom_sets, bound)
        for g in reference:
            inside = [min(gap for s, gap in table.items() if s & g == s) for table in (least, reference)]
            assert inside[0] == inside[1]
    for limit in (None, 4):
        result = delta_star(atomset, bound, memo=memo, atom_limit=limit)
        with mock.patch.object(invariants, "_least_gaps_by_support", least_gaps_by_levels):
            expected = delta_star(atomset, bound, memo=memo, atom_limit=limit)
        assert (result.value, result.note) == (expected.value, expected.note)


def test_packing_width_follows_the_largest_multiplicity(cyclic3_atoms):
    widths = [PackedAtoms(cyclic3_atoms, top).width for top in (0, 127, 128, 2**15 - 1, 2**15, 99_999)]
    assert widths == [8, 8, 16, 16, 32, 32]
    packed = PackedAtoms(cyclic3_atoms, 99_999)
    assert packed.unpack(packed.pack((99_999, 0, 2**31 - 1))) == (99_999, 0, 2**31 - 1)
    # Over Z, the one atom of {1, -200} is 1^200 * -200.  Every atom is
    # packed, so the fields are 16 bits wide even when top is 127.
    atomset = enumerate_atoms(int_alphabet(1, -200), cap=256)
    (atom,) = atomset.atoms
    for top in (0, 127, 200):
        packed = PackedAtoms(atomset, top)
        assert packed.width == 16 and packed.atoms == (packed.pack(atom.mults),)
    assert lengths_of(atomset, atom**2) == frozenset((2,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packing_matches_tuple_arithmetic(data):
    """pack, unpack, the order of packed ints, minimum, total, supports,
    overlaps, and key with mover, against the same operations on tuples."""
    top = data.draw(st.sampled_from([1, 127, 128, 40_000]))
    perm = data.draw(st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))))
    row = st.lists(st.integers(0, top), min_size=len(perm), max_size=len(perm))
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    p = factorizations.Packing(len(perm), top)
    x, *others = rows
    px, pothers = p.pack(x), [p.pack(w) for w in others]
    assert p.unpack(px) == tuple(x) and px & p.guard == 0
    for w, pw in zip(others, pothers):
        assert (px < pw) == (tuple(x) < tuple(w))
        assert p.unpack(p.minimum(px, pw)) == tuple(map(min, x, w))
    if sum(x) < p.field:
        assert p.total(px) == sum(x)
        assert p.overlaps(px, pothers) == [sum(map(min, x, w)) for w in others]
    assert p.supports(px) == p.pack([int(m > 0) for m in x]) << (p.width - 1)
    moved = [0] * len(perm)
    for j, m in enumerate(x):
        moved[perm[j]] = m
    if len(perm) > 1:
        assert bytes(p.mover(perm)(p.key(px))) == p.key(p.pack(moved))


def test_multiplicities_past_two_to_the_fifteen():
    """Over Z/3, g^99999 = (g^3)^33333 has one factorization; the block and
    a small one share a memo, each in the table of its own width."""
    atomset = enumerate_atoms(cyclic_alphabet(3))
    g = atomset.alphabet.spec.element(torsion=(1,))
    block = atomset.alphabet.sequence([(g, 99_999)])
    (z,) = factorize(atomset, block)
    assert str(z) == "(1^3)^33333" and z.product() == block
    memo = {}
    assert lengths_of(atomset, block, memo) == frozenset((33_333,))
    assert lengths_of(atomset, atomset.alphabet.sequence([(g, 3), (2 * g, 3)]), memo) == {2, 3}
    assert sorted(width for _, width in memo) == [8, 32]
    with_zeros = block * atomset.alphabet.sequence([(0 * g, 40_000), (g, 1), (2 * g, 1)])
    assert lengths_of(atomset, with_zeros, memo) == frozenset((73_334,))
    assert catenary_profile(atomset, with_zeros).lengths == (73_334,)


def test_count_width_holds_the_longest_factorization():
    """Every multiplicity below fits a field of 8 bits, but the lengths do
    not: the count fields are sized by the longest factorization, so that
    their sum, which gives |z| and every distance, never carries."""
    spec = GroupSpec(3)
    e = [spec.basis_element(i) for i in range(3)]
    pairs = e + [-g for g in e]
    atomset = enumerate_atoms(Alphabet(spec, pairs))
    block = atomset.alphabet.sequence([(g, 127) for g in pairs])
    assert PackedAtoms(atomset, max(block.mults)).width == 8
    prof = catenary_profile(atomset, block)
    assert (prof.lengths, prof.num_factorizations, prof.catenary) == ((381,), 1, 0)
    # (e2 * -e2)^127 (e3 * -e3)^127 times 1^2 (-1)^2 2 (-2) on the first axis,
    # which is (1 * -1)^2 (2 * -2) or (1^2 * -2)(-1^2 * 2): L = {256, 257},
    # and the two factorizations are at distance 3.
    atomset = enumerate_atoms(Alphabet(spec, pairs + [2 * e[0], -2 * e[0]]))
    block = atomset.alphabet.sequence(
        [(g, 127) for g in (e[1], e[2], -e[1], -e[2])]
        + [(e[0], 2), (-e[0], 2), (2 * e[0], 1), (-2 * e[0], 1)]
    )
    prof = catenary_profile(atomset, block)
    assert prof == CatenaryProfile(3, 0, 3, 3, 2, (256, 257))
    assert sorted(z.length for z in factorize(atomset, block)) == [256, 257]


def test_catenary_profile_of_a_block_with_many_factorizations():
    """A block over C7 with 981 factorizations of lengths 6 to 21."""
    atomset = enumerate_atoms(cyclic_alphabet(7))
    block = parse_sequence(atomset.alphabet, "1^14 * 6^14 * 2^7 * 5^7")
    assert catenary_profile(atomset, block) == CatenaryProfile(4, 6, 3, 6, 981, tuple(range(6, 22)))


@pytest.mark.parametrize(
    "token, text",
    [("cyclic:7", "1^14 * 6^14 * 2^7 * 5^7"), ("cyclic:5", "0^2 * 1^5 * 4^5 * 2 * 3"), ("cyclic:3", "0")],
)
def test_factorize_with_profile_enumerates_once(token, text, monkeypatch):
    """factorize_with_profile gives factorize and catenary_profile of the
    block from one enumeration of Z(B)."""
    atomset = enumerate_atoms(parse_preset(token).alphabet)
    block = parse_sequence(atomset.alphabet, text)
    expected = (factorize(atomset, block), catenary_profile(atomset, block))
    calls = []
    count = factorizations._count_vectors
    monkeypatch.setattr(factorizations, "_count_vectors", lambda p, b: calls.append(b) or count(p, b))
    assert factorize_with_profile(atomset, block) == expected
    assert len(calls) == 1


def test_factorization_search_skips_dead_remainders():
    """Over {+-e1, +-2e1, +-e2} in Z^2, the block with every multiplicity
    127 has the 64 factorizations (e1 * -e1)^(127 - 2c) (2e1 * -2e1)^(127 - c)
    (e1^2 * -2e1)^c (-e1^2 * 2e1)^c (e2 * -e2)^127, 0 <= c <= 63, of length
    381 - c, each at distance 3 from the next.  A search that visits every
    sub-multiset of the dividing atoms, most of which no atoms can finish,
    does not end within the alarm."""
    spec = GroupSpec(2)
    e1, e2 = spec.basis_element(0), spec.basis_element(1)
    alphabet = Alphabet(spec, [e1, -e1, 2 * e1, -2 * e1, e2, -e2])
    atomset = enumerate_atoms(alphabet)
    block = alphabet.sequence([(g, 127) for g in alphabet])

    def expire(signum, frame):
        raise TimeoutError

    # The timeout is caught and asserted on here: a traceback through the
    # kernel frames the alarm interrupted can lack line numbers, which
    # pytest fails to render.
    timed_out = False
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        prof = catenary_profile(atomset, block)
        zs = factorize(atomset, block)
    except TimeoutError:
        timed_out = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not timed_out, "factorization search still running after 20 s"
    assert prof == CatenaryProfile(3, 0, 3, 3, 64, tuple(range(318, 382)))
    assert sorted(z.length for z in zs) == list(range(318, 382))
    assert all(z.product() == block for z in zs)


def test_memo_shared_by_alphabets_of_equal_length():
    """cyclic:5 and five_point both have five elements; one memo serves
    each alphabet its own lengths, as fresh memos do."""
    mults = (0, 1, 3, 1, 0)
    cyclic, five = (enumerate_atoms(parse_preset(t).alphabet) for t in ("cyclic:5", "five_point"))
    memo = {}
    assert lengths_of(cyclic, cyclic.alphabet.from_mults(mults), memo) == {2}
    assert lengths_of(five, five.alphabet.from_mults(mults), memo) == {4}
    assert lengths_of(five, five.alphabet.from_mults(mults)) == {4}


@pytest.mark.parametrize("token", ["cyclic:4", "prop713", "thm74:2,1"])
def test_shared_memo_gives_the_values_of_fresh_memos(token):
    """One memo across every sweep of a report gives what a fresh memo per
    call gives."""
    atomset = enumerate_atoms(parse_preset(token).alphabet)

    def values(memo):
        fresh = memo is None
        pick = (lambda: {}) if fresh else (lambda: memo)
        return (
            delta_set(atomset, 4, memo=pick()).value,
            delta_star(atomset, 3, memo=pick(), atom_limit=12).value,
            [u.members for u in union_profiles(atomset, 5, memo=pick())],
            monoid_tame(atomset, memo=pick()).value,
            min_abs_irred_witness(atomset, pick()),
        )

    shared = {}
    assert values(shared) == values(None)
    assert shared
