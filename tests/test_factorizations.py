"""Factorizations, length sets, distances, catenary profiles."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from krull_arith import (
    Factorization,
    catenary_profile,
    distance,
    enumerate_atoms,
    factorize,
    lengths_of,
)
from krull_arith.errors import BoundExceededError, DomainError
from krull_arith.factorizations import min_length
from krull_arith.invariants import product_levels

from conftest import cyclic_alphabet, int_alphabet, small_alphabets


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


def test_factorize_guard(cyclic3_atoms):
    block = _block(cyclic3_atoms.alphabet, [(1, 3), (2, 3)])
    with pytest.raises(BoundExceededError):
        factorize(cyclic3_atoms, block, guard=1)


def test_factorization_product_and_length(cyclic3_atoms):
    block = _block(cyclic3_atoms.alphabet, [(1, 6)])
    for z in factorize(cyclic3_atoms, block):
        assert z.product() == block
        assert z.length == sum(z.counts)


def test_lengths_match_factorize_on_sweep(five_point_atoms):
    """L(B) from the memoized recursion equals the lengths read off Z(B)."""
    memo = {}
    alphabet = five_point_atoms.alphabet
    for level in product_levels(alphabet, five_point_atoms.vectors, 3):
        for mults in level:
            block = alphabet.from_mults(mults)
            via_z = {z.length for z in factorize(five_point_atoms, block)}
            assert lengths_of(five_point_atoms, block, memo) == frozenset(via_z)


def test_min_length(cyclic4_atoms):
    block = _block(cyclic4_atoms.alphabet, [(1, 4), (3, 4)])
    assert min_length(cyclic4_atoms, block) == 2
    assert min_length(cyclic4_atoms, cyclic4_atoms.alphabet.empty()) == 0


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
# tuple kernels replaced, and catenary degrees by threshold connectivity
# instead of spanning trees.


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


def _reference_distance(z1, z2):
    c1, c2 = Counter(dict(enumerate(z1))), Counter(dict(enumerate(z2)))
    return max(sum((c1 - c2).values()), sum((c2 - c1).values()))


def _chain_degree(zs):
    """Smallest N such that any two of zs are joined by a chain of steps of
    distance at most N."""
    for n in range(max((sum(z) for z in zs), default=0) + 1):
        reached = {zs[0]}
        frontier = [zs[0]]
        while frontier:
            z = frontier.pop()
            for w in zs:
                if w not in reached and _reference_distance(z, w) <= n:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) == len(zs):
            return n
    raise AssertionError("no chain degree found")


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
    by_len = {}
    for z in zs:
        by_len.setdefault(sum(z), []).append(z)
    ls = sorted(by_len)
    adjacent = max(
        (
            min(_reference_distance(z1, z2) for z1 in by_len[a] for z2 in by_len[b])
            for a, b in zip(ls, ls[1:])
        ),
        default=0,
    )
    equal = max(_chain_degree(group) for group in by_len.values())
    prof = catenary_profile(atomset, block)
    assert prof.num_factorizations == len(zs)
    assert prof.lengths == tuple(ls)
    assert prof.catenary == _chain_degree(zs)
    assert (prof.equal, prof.adjacent) == (equal, adjacent)
    assert prof.monotone == max(equal, adjacent)
