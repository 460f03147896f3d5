"""Shared fixtures: small alphabets and atom sets reused across the suite,
the exhaustive atom oracle, the level-sweep Delta, union and closure-probe
oracles, and the chain oracle of the catenary degrees."""

from collections import Counter
from functools import reduce
from itertools import islice, product
from operator import or_

import pytest
from hypothesis import strategies as st

from krull_arith import Alphabet, GroupSpec, Sequence, enumerate_atoms
from krull_arith.factorizations import _mask, _members
from krull_arith.invariants import _length_masks, delta_of_set
from krull_arith.lengths import ClosureProbe, sumset
from krull_arith.presets import build_preset


def cyclic_alphabet(n):
    spec = GroupSpec(0, (n,))
    return Alphabet(spec, [spec.element(torsion=(i,)) for i in range(n)])


def int_alphabet(*values):
    """Alphabet over Z from plain integers."""
    spec = GroupSpec(1)
    return Alphabet(spec, [spec.element(free=(v,)) for v in values])


def minimalize(vectors):
    """Drop every vector strictly dominated by another one."""
    vectors = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vectors:
        if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
            kept.append(v)
    return kept


def atoms_by_exhaustion(alphabet, max_mult):
    """Independent oracle: scan every vector with coordinates <= max_mult,
    keep the zero-sum ones, and extract the minimal nonzero ones.

    Exponential; only for cross-checking tiny instances.
    """
    zero_sum = []
    for v in product(range(max_mult + 1), repeat=len(alphabet)):
        if any(v) and Sequence(alphabet, v).is_zero_sum():
            zero_sum.append(v)
    return tuple(Sequence(alphabet, v) for v in minimalize(zero_sum))


def unions_by_levels(atomset, k, memo=None):
    """Reference [U_1, ..., U_k] by the full level sweep: U_i is the OR of
    the length bitmasks of every product of exactly i atoms, level i of
    ``_length_masks``.  Builds every level; only for small instances."""
    levels = islice(_length_masks(atomset, k, memo), 1, None)
    return [_members(reduce(or_, masks, 0)) for masks in levels]


def delta_by_full_sweep(atomset, bound, memo=None):
    """Reference Delta sweep: the gaps of every length set on levels 2 to
    ``bound`` of ``_length_masks``, with no stop at the omega ceiling.
    Builds every level; only for small instances."""
    levels = islice(_length_masks(atomset, bound, memo), 2, None)
    return frozenset(gap for masks in levels for mask in masks for gap in delta_of_set(_members(mask)))


def closure_probe_by_levels(atomset, product_bound, memo=None):
    """Reference ``additive_closure_probe`` by the level sweep: collect the
    length bitmasks of levels 0 to ``product_bound`` of ``_length_masks``,
    and look each sumset up in the level of its minimum, building the levels
    up to twice the bound as the pairs, smallest minimum first, reach them.
    Only for small instances."""
    vbound = 2 * product_bound
    sweep = _length_masks(atomset, vbound, memo)
    levels = list(islice(sweep, product_bound + 1))
    masks = set().union(*levels)
    collected = sorted((_members(mask) for mask in masks), key=lambda s: (min(s), sorted(s)))
    pairs = []
    for i, l1 in enumerate(collected):
        for l2 in collected[i:]:
            pairs.append((min(l1) + min(l2), sorted(l1), sorted(l2), l1, l2))
    pairs.sort(key=lambda p: p[:3])
    for lo, _, _, l1, l2 in pairs:
        while len(levels) <= lo:
            levels.append(next(sweep))
        t = sumset(l1, l2)
        if _mask(t) not in levels[lo]:
            return ClosureProbe(False, (l1, l2, t), product_bound, vbound)
    return ClosureProbe(True, (), product_bound, vbound)


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


def catenary_by_chains(zs):
    """Reference (c, c_eq, c_adj) of a block from its factorizations ``zs``,
    as count tuples: chains over all of Z(B) and within each length class,
    and the least distance between adjacent lengths, each distance taken
    from multiset differences.  Shares no code with the catenary kernel."""
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
    return _chain_degree(zs), max(_chain_degree(group) for group in by_len.values()), adjacent


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
