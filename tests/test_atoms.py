"""Atom enumeration: the completion and the zero-sum free search against
their oracles."""

import hashlib
import json
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from krull_arith import (
    Alphabet,
    GroupSpec,
    count_lifted_atoms_brute,
    enumerate_atoms,
    parse_preset,
)
from krull_arith.atoms import _completion, minimal_nonneg_solutions
from krull_arith.errors import BoundExceededError
from krull_arith.presets import build_preset

from conftest import (
    atoms_by_exhaustion,
    atoms_by_reference,
    completion_reference,
    completion_runs,
    cyclic_alphabet,
    int_alphabet,
    minimalize,
    small_alphabets,
)


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
    # Cap 127 gives 8-bit fields: the candidate past it sits in the guard bit.
    with pytest.raises(BoundExceededError, match="cap 127 exceeded"):
        minimal_nonneg_solutions([(128,), (-1,)], caps=127)
    assert minimal_nonneg_solutions([(127,), (-1,)], caps=127) == [(1, 127)]
    assert minimal_nonneg_solutions([(128,), (-1,)], caps=128) == [(1, 128)]


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
        assert enumerate_atoms(cyclic_alphabet(n)).davenport() == n
    for r, alpha in [(2, 1), (2, 2), (3, 1)]:
        preset = build_preset("thm74", r, alpha)
        assert enumerate_atoms(preset.alphabet).davenport() == r + alpha


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


def test_finite_cap_raises_before_the_search():
    """Over a finite group the cap raises exactly when some element's order
    exceeds it, with no search: Z/70 at the default cap 64 raises at once."""
    with pytest.raises(BoundExceededError, match="cap 64 exceeded at coordinate 1"):
        enumerate_atoms(cyclic_alphabet(70))
    spec = GroupSpec(0, (100,))
    alphabet = Alphabet(spec, [spec.element(torsion=(1,)), spec.element(torsion=(-1,))])
    with pytest.raises(BoundExceededError):
        enumerate_atoms(alphabet, cap=64)
    atoms = enumerate_atoms(alphabet, cap=100)
    assert sorted(str(a) for a in atoms) == ["1 * 99", "1^100", "99^100"]


def _finite_alphabets():
    """Strategy: subsets of one to eight nonzero elements of Z/n
    (2 <= n <= 12), Z/2 + Z/4, Z/2 + Z/6, Z/3 + Z/3 and (Z/2)^3, zero
    optional.  Larger subsets of Z/2 + Z/6 take the reference seconds."""

    def build(moduli, coords, zero):
        spec = GroupSpec(0, moduli)
        elements = [spec.element(torsion=c) for c in coords]
        return Alphabet(spec, elements + [spec.zero()] * zero)

    groups = [(n,) for n in range(2, 13)] + [(2, 4), (2, 6), (3, 3), (2, 2, 2)]
    return st.sampled_from(groups).flatmap(
        lambda moduli: st.builds(
            build,
            st.just(moduli),
            st.sets(
                st.sampled_from([c for c in product(*map(range, moduli)) if any(c)]),
                min_size=1,
                max_size=8,
            ),
            st.booleans(),
        )
    )


@settings(max_examples=80, deadline=None)
@given(_finite_alphabets())
def test_zero_sum_free_search_matches_the_completion(alphabet):
    """The search against ``conftest.atoms_by_reference``, the completion
    reference on the slack-column system, vector for vector; and the cap
    raises exactly below the largest multiplicity in any atom."""
    vectors = enumerate_atoms(alphabet).vectors
    assert vectors == atoms_by_reference(alphabet)
    top = max(map(max, vectors))
    for cap in range(top + 3):
        try:
            capped = enumerate_atoms(alphabet, cap=cap).vectors
        except BoundExceededError:
            assert cap < top
            continue
        assert cap >= top and capped == vectors


def _davenport_by_formula(moduli):
    """D(G) by a closed form: n1 + n2 - 1 for Z/n1 + Z/n2 with n1 | n2, and
    1 + sum(n_i - 1) for a p-group (Olson)."""
    if len(moduli) == 2 and moduli[1] % moduli[0] == 0:
        return sum(moduli) - 1
    p = min(q for q in range(2, moduli[0] + 1) if moduli[0] % q == 0)
    # n is a power of the prime p exactly when n divides p^(bit length of n).
    assert all(p ** n.bit_length() % n == 0 for n in moduli), "no closed form for %r" % (moduli,)
    return 1 + sum(n - 1 for n in moduli)


@pytest.mark.parametrize("moduli,count,davenport", [((3, 6), 2642, 8), ((2,) * 5, 20368, 6)])
def test_atom_counts_of_whole_groups(moduli, count, davenport):
    """The whole of Z/3 + Z/6 and of (Z/2)^5, where the completion needs a
    minute or more: the counts were matched with it once, and D is checked
    against the closed forms."""
    spec = GroupSpec(0, moduli)
    alphabet = Alphabet(spec, [spec.element(torsion=c) for c in product(*map(range, moduli))])
    atoms = enumerate_atoms(alphabet)
    assert (len(atoms), atoms.davenport()) == (count, davenport)
    assert davenport == _davenport_by_formula(moduli)


def _minimal_solutions_by_exhaustion(columns, box):
    """The minimal nonzero x in [0, box]^q with sum x_j * columns[j] = 0."""
    zero_sum = [
        x
        for x in product(range(box + 1), repeat=len(columns))
        if any(x) and all(sum(map(mul, x, row)) == 0 for row in zip(*columns))
    ]
    return sorted(minimalize(zero_sum))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-4, 4).map(lambda a: (a,)), min_size=2, max_size=4))
def test_completion_kernel_matches_exhaustion_on_one_row(columns):
    """The raw kernel on one equation against a search of [0, 4]^q: a
    minimal solution of one equation has no entry above the largest
    |coefficient| (Lambert), here at most 4.  Every cap either raises or
    gives the uncapped solutions, and a cap below their largest entry
    raises."""
    solutions = minimal_nonneg_solutions(columns)
    assert solutions == _minimal_solutions_by_exhaustion(columns, 4)
    top = max((max(x) for x in solutions), default=0)
    for cap in range(1, 6):
        try:
            capped = minimal_nonneg_solutions(columns, caps=cap)
        except BoundExceededError:
            continue
        assert cap >= top and capped == solutions


def test_completion_kernel_widens_uncapped_fields():
    """Uncapped entries start in fields as wide as the largest cap and move
    to wider fields when one reaches the guard bit; a capped entry past its
    cap raises, also after a move."""
    assert minimal_nonneg_solutions([(300,), (-1,)]) == [(1, 300)]  # 16-bit fields
    assert minimal_nonneg_solutions([(70000,), (-1,)]) == [(1, 70000)]  # 32-bit fields
    columns = [(1, 0), (0, 1), (-150, -1), (-1, 0), (0, -1)]
    assert minimal_nonneg_solutions(columns, [None, 2, 2, 3, None]) == [
        (0, 1, 0, 0, 1),
        (1, 0, 0, 1, 0),
        (150, 1, 1, 0, 0),
    ]
    columns = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-300, -1, 0), (0, -2, -70000)]
    assert minimal_nonneg_solutions(columns, [None, 3, None, 1, 2]) == [
        (0, 2, 70000, 0, 1),
        (300, 1, 0, 1, 0),
    ]
    with pytest.raises(BoundExceededError, match="cap 2 exceeded at coordinate 1"):
        minimal_nonneg_solutions([(1, 0), (0, 1), (-150, -3)], [None, 2, 2])
    # The second entry must pass 1 only once the first is at 128.
    assert minimal_nonneg_solutions([(2,), (-255,)], [None, 2]) == [(255, 2)]
    with pytest.raises(BoundExceededError, match="cap 1 exceeded at coordinate 1"):
        minimal_nonneg_solutions([(2,), (-255,)], [None, 1])


def _systems():
    """Strategy: (columns, caps) with one to three rows, two to six columns,
    entries in [-5, 5], and each column's cap None or one of 1..5."""
    return st.tuples(st.integers(1, 3), st.integers(2, 6)).flatmap(
        lambda shape: st.tuples(
            st.lists(
                st.tuples(*[st.integers(-5, 5)] * shape[0]), min_size=shape[1], max_size=shape[1]
            ),
            st.lists(st.sampled_from([None, 1, 2, 3, 4, 5]), min_size=shape[1], max_size=shape[1]),
        )
    )


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_completion_kernel_matches_reference(system):
    """The table of moves by residual and the inherited dead masks change no
    outcome: at every width the kernel and ``conftest.completion_reference``
    find the same basis in the same order, or both outgrow the width, or
    both raise BoundExceededError with the same message."""
    columns, caps = system
    assert completion_runs(_completion, columns, caps) == completion_runs(
        completion_reference, columns, caps
    )


def test_dominated_move_is_skipped_at_the_child():
    """On x - 3y + 3z = 0, (1, 1, 0) finds its move on z dominated by the
    solution (0, 1, 1), and its child (2, 1, 0) inherits the move as dead:
    the candidate (2, 1, 1), at cap 1 in its third entry, is skipped without
    a scan and raises nothing.  A dominated candidate never passes its cap,
    since the solution that divides it agrees with it at the coordinate it
    grows.  Cap 2 on x makes (3, 1, 0) raise in both kernels."""
    columns = [(1,), (-3,), (3,)]
    runs = completion_runs(_completion, columns, [3, 3, 1])
    assert runs == [[(0, 1, 1), (3, 1, 0)]]
    assert runs == completion_runs(completion_reference, columns, [3, 3, 1])
    raised = completion_runs(_completion, columns, [2, 3, 1])
    assert raised == ["multiplicity cap 2 exceeded at coordinate 0"]
    assert raised == completion_runs(completion_reference, columns, [2, 3, 1])


def test_completion_kernel_matches_reference_when_widening():
    """The entry 150 of the first column outgrows the 8-bit fields."""
    columns, caps = [(1, 0), (0, 1), (-150, -1), (-1, 0), (0, -1)], [None, 2, 2, 3, None]
    runs = completion_runs(_completion, columns, caps)
    assert runs[0] is None and runs == completion_runs(completion_reference, columns, caps)


@pytest.mark.parametrize(
    "token,count", [("cyclic:13", 827), ("cyclic:16", 2135), ("full_box:3", 2362)]
)
def test_atom_vectors_match_reference_at_scale(token, count):
    alphabet = parse_preset(token).alphabet
    vectors = enumerate_atoms(alphabet).vectors
    assert len(vectors) == count and vectors == atoms_by_reference(alphabet)


# Atom counts and sha256 of json.dumps of the atoms' multiplicity tuples, in
# AtomSet order, as the tuple-based completion computed them.
PINNED_ATOMS = {
    "cyclic:7": (48, "d4c03467985ac2dbcd364c2ce610c6a062eb3148b8bc15fbc79f9c0995fa0a02"),
    "cyclic:8": (65, "89aee4d253683f8c6fdd6fe75ac2d0bf9cdce9785cee3bcb69c4846f148aec8e"),
    "cyclic:9": (119, "59aef3a00523bd2307f43e733d212091dcc736611f57e305739a650b71e4f486"),
    "cyclic:10": (166, "e12662041209c9df047dd0c8a74d2c73c8f12d9d36f6f0ce18f9ca5cea5ba398"),
    "cyclic:11": (348, "7335c58d3f16a28e13952552220a7953384154aeb28fb5f6155586fe70a670b0"),
    "cyclic:12": (367, "3301cdf6f4e84398c0ba8545788832990f34cd329f9a531fb5b80427754c548b"),
    "cube:3": (42, "d175c70ebe3aa63ce5118ba987c12b22e9cf4c0716afa8930f520c26caf9015b"),
    "full_box:2": (13, "55ec29d6a7ca14426b67ca49a82239ba92a46aaab8657826a8c91a2d8590dd13"),
}


@pytest.mark.parametrize("token", sorted(PINNED_ATOMS))
def test_atom_lists_are_pinned(token):
    mults = [a.mults for a in enumerate_atoms(parse_preset(token).alphabet)]
    digest = hashlib.sha256(json.dumps(mults).encode()).hexdigest()
    assert (len(mults), digest) == PINNED_ATOMS[token]


@pytest.mark.parametrize(
    "token,count", [("hypersurface:D,16", 45), ("hypersurface:A,6", 48), ("hypersurface:E7", 11)]
)
def test_brute_lifted_atom_counts_are_pinned(token, count):
    assert count_lifted_atoms_brute(parse_preset(token).characteristic) == count
