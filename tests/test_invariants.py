"""Invariants: distance sets, unions of length sets, elasticity, omega/tame,
catenary, absolute irreducibility.  The two union engines are cross-checked.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from math import comb, gcd, prod

import os
import signal
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krull_arith import (
    Alphabet,
    GroupElement,
    GroupSpec,
    absolutely_irreducible,
    catenary_profile,
    collect_length_sets,
    delta_set,
    delta_star,
    distance,
    elasticity,
    enumerate_atoms,
    factorize,
    lengths_of,
    min_abs_irred_witness,
    monoid_catenary,
    monoid_omega,
    monoid_tame,
    omega,
    parse_preset,
    tame,
    union_profiles,
    unions,
)
from krull_arith import invariants
from krull_arith.errors import ArgumentError, DomainError
from krull_arith.factorizations import PackedAtoms, _catenary_maxima, _count_vectors, _factorizations, _lengths, _mask, _members
from krull_arith.invariants import (
    ENUM_PRODUCT_GUARD,
    BoundedResult,
    UnionProfile,
    _reaches,
    _union_by_enumeration,
    _union_by_milp,
    product_levels,
)
from krull_arith.presets import build_preset

from conftest import (
    catenary_by_chains,
    delta_by_full_sweep,
    int_alphabet,
    min_delta_by_kernel,
    simplex_alphabet,
    small_alphabets,
    unions_by_levels,
)


def test_delta_set_cyclic(cyclic4_atoms, cyclic5_atoms):
    res = delta_set(cyclic4_atoms, 3)
    assert res.value == frozenset((1, 2))
    assert not res.exact
    res5 = delta_set(cyclic5_atoms, 3)
    assert res5.value == frozenset((1, 2, 3))
    assert not res5.exact
    with pytest.raises(ArgumentError):
        delta_set(cyclic4_atoms, 1)


def test_delta_set_inexact_flag(cyclic5_atoms):
    # A sweep is only a lower bound, whatever value it finds.
    res = delta_set(cyclic5_atoms, 2)
    assert (res.exact, res.bound, res.method) == (False, 2, "product-sweep")


def test_delta_star_cyclic(cyclic4_atoms, cyclic5_atoms):
    assert delta_star(cyclic4_atoms, 3).value == frozenset((1, 2))
    res = delta_star(cyclic5_atoms, 3)
    assert res.value == frozenset((1, 3))
    assert max(res.value) == 3 and max(res.value - {3}) == 1


def test_delta_star_atom_limit(cyclic5_atoms):
    res = delta_star(cyclic5_atoms, 3, atom_limit=4)
    assert res.value <= frozenset((1, 3))
    assert "skipped" in res.note


def test_delta_star_refuses_the_alphabets_it_cannot_sweep():
    """delta* sweeps at most 20 elements, and past 12 only the unions of the
    pairs {g, -g}, so there it needs a negation-closed alphabet."""
    with pytest.raises(ArgumentError, match="alphabets of size 20"):
        delta_star(enumerate_atoms(int_alphabet(*range(1, 22))), 2)
    with pytest.raises(ArgumentError, match="needs a negation-closed alphabet"):
        delta_star(enumerate_atoms(simplex_alphabet(12)), 2)


def _z_plus_z2(with_zero):
    """{(a, b) : -3 <= a <= 3, b in {0, 1}} in Z + Z/2, with or without 0:
    14 or 13 elements, so delta* walks the unions of the groups {g, -g},
    where 0 and (0, 1) are groups of one."""
    spec = GroupSpec(1, (2,))
    coords = [(a, b) for a in range(-3, 4) for b in (0, 1) if with_zero or (a, b) != (0, 0)]
    return Alphabet(spec, [spec.element_from_coords(c) for c in coords])


# delta*(., 3) in the negation-closed mode at atom limits 4, 6 and 8:
# (value, number of skipped subsets) per limit.
RESTRICTED_DELTA_STAR = {
    ("z+z2", True): [((1, 2, 3, 4, 6, 8), 213), ((1, 2, 3, 4, 6, 8), 186), ((1, 2, 3, 4, 6, 8), 168)],
    ("z+z2", False): [((1, 2, 3, 4, 6, 8), 99), ((1, 2, 3, 4, 6, 8), 93), ((1, 2, 3, 4, 6, 8), 84)],
    ("cube3", True): [((), 140), ((1, 2, 3), 93), ((1, 2, 3), 58)],
    ("cube3", False): [((), 70), ((1, 2, 3), 29), ((1, 2, 3), 29)],
}


@pytest.mark.parametrize("family, with_zero", sorted(RESTRICTED_DELTA_STAR))
def test_delta_star_negation_closed_walk(family, with_zero):
    if family == "cube3":
        alphabet = build_preset("cube", 3, include_zero=with_zero).alphabet
    else:
        alphabet = _z_plus_z2(with_zero)
    assert len(alphabet) > 12 and alphabet.is_symmetric()
    atomset = enumerate_atoms(alphabet)
    for limit, (value, skipped) in zip((4, 6, 8), RESTRICTED_DELTA_STAR[family, with_zero]):
        res = delta_star(atomset, 3, atom_limit=limit)
        assert (res.method, sorted(res.value)) == ("symmetric-subset-sweep", list(value))
        assert res.note == "%d subsets above the atom limit skipped" % skipped


def _engine(atomset, k, engine, memo=None):
    """U_k by one engine: the product sweep alone ("enum"), or the MILP
    engine started from U_1, ..., U_{k-1} ("milp")."""
    memo = {} if memo is None else memo
    if engine == "enum":
        mask = _union_by_enumeration(atomset, k, memo)[-1]
    else:
        lower = [_mask(u.members) for u in union_profiles(atomset, k - 1, memo=memo)]
        mask = _union_by_milp(atomset, k, lower)
    members = tuple(sorted(_members(mask)))
    return UnionProfile(k, members, members[-1], members[0], True, engine)


# (preset, AtomSet.restrict piece or None, 0 in G0).  thm74:3,2 has gapped
# unions (U_5 = {2, 5, 8, 11}), so its search tests almost every product;
# on the others the witnesses leave few products to test.
UNION_SEARCH_CASES = [
    ("cyclic:3", None, True),
    ("cyclic:4", None, True),
    ("cyclic:5", None, True),
    ("cyclic:6", None, True),
    ("cyclic:6", (0, 1, 2, 3, 5), True),
    ("thm74:2,1", None, False),
    ("thm74:3,2", None, False),
    ("five_point", None, True),  # the source of the prop712 map
    ("prop713", None, True),
    ("frt_t:2", None, False),
    ("full_box:2", None, True),
]


@pytest.mark.parametrize("token, piece, with_zero", UNION_SEARCH_CASES)
def test_union_search_matches_the_level_sweep(token, piece, with_zero):
    """U_1, ..., U_6 by threshold tests equal the OR of each level of the
    full product sweep."""
    atomset = enumerate_atoms(parse_preset(token).alphabet)
    if piece is not None:
        atomset = atomset.restrict(piece)
    assert any(sum(v) == 1 for v in atomset.vectors) == with_zero
    assert _union_by_enumeration(atomset, 6, {}) == unions_by_levels(atomset, 6, {})


@settings(max_examples=40, deadline=None)
@given(small_alphabets())
def test_pair_ceiling_and_reach_test_on_small_alphabets(alphabet):
    """For every product B of at most four nonzero atoms, max L(B) is at most
    the pair ceiling (|B| + P(B)) / 3, P(B) the sum of min(v_g, v_-g) over
    the atoms g(-g) and of v_g // 2 over the atoms g^2, and ``_reaches``
    answers max L(B) >= t as the full length set does, for every t up to
    max L(B) + 1, with a cold memo table and with a warm one, each search
    keeping one table of failed targets."""
    atomset = enumerate_atoms(alphabet)
    full = PackedAtoms.for_products(atomset, 4, {})
    cold = PackedAtoms.for_products(atomset, 4)
    # (j, l) with g_l = -g_j for each atom g_j g_l; j = l for an atom g_j^2.
    pairs = [(held[0], held[-1]) for held in ([j for j, x in enumerate(v) if x] for v in atomset.vectors if sum(v) == 2)]
    partner = {**dict(pairs), **{l: j for j, l in pairs}}
    mirror = {u: full.pack([v[partner[j]] if j in partner else 0 for j in range(len(v))])
              for u, v in zip(full.atoms, atomset.vectors)}
    failed = {cold: {}, full: {}}
    for count in range(5):
        for atoms in combinations_with_replacement(full.nonzero(), count):
            b, mb = sum(atoms), sum(mirror[u] for u in atoms)
            mults = full.unpack(b)
            top = _lengths(full, b).bit_length() - 1
            assert top >= count
            assert 3 * top <= sum(mults) + sum(min(mults[j], mults[l]) if j != l else mults[j] // 2 for j, l in pairs)
            for packed in (cold, full):
                for t in range(top + 2):
                    assert _reaches(packed, mirror, b, mb, t, failed[packed]) == (top >= t)
    assert cold.table == {0: 1}


def test_union_search_sends_few_products_to_lengths(monkeypatch):
    """On C6 the witnesses prove U_5 up to [2, 13], so only products of five
    atoms with max L(B) >= 14 can add a member.  For U_1, ..., U_5 the full
    level sweep sends 10,559 products to ``_lengths`` and the size floor
    |B| >= 2 max L(B) alone 121; the pair ceiling leaves 58 products for the
    reach test, and 9 of them reach ``_lengths``.  On C7 (U_5 = [2, 15]) a
    ceiling looser by 2/6 would test 1,491 products, not 954."""
    calls = {}

    def counting(name):
        kernel = getattr(invariants, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        return counted

    for name in ("_lengths", "_reaches"):
        monkeypatch.setattr(invariants, name, counting(name))
    for n, reaches, lengths in [(6, 58, 9), (7, 954, 33)]:
        calls.update(_lengths=0, _reaches=0)
        profiles = union_profiles(enumerate_atoms(build_preset("cyclic", n).alphabet), 5)
        assert [u.method for u in profiles] == ["enum"] * 5
        assert profiles[-1].members == tuple(range(2, 2 * n + 2))
        assert calls == {"_lengths": lengths, "_reaches": reaches}


def test_union_engines_agree(monkeypatch, cyclic4_atoms, cyclic5_atoms, thm74_21):
    _, ats74 = thm74_21
    for atomset in (cyclic4_atoms, cyclic5_atoms, ats74):
        for k in range(1, 5):
            enum = _engine(atomset, k, "enum")
            milp = _engine(atomset, k, "milp")
            assert enum.members == milp.members
            assert enum.rho == milp.rho and enum.lam == milp.lam
    # A negation-closed G0 is searched for every k; otherwise the product
    # sweep serves U_k while at most ENUM_PRODUCT_GUARD multisets of k atoms
    # exist.  {-6, -5, -3, 4} has 6 atoms and no pair g(-g), and 6 atoms
    # give 21 pairs, so a guard of 21 sweeps k <= 2.  One pair is not
    # enough: {-6, -5, -3, 3, 4} has the atom 3(-3), but -6, -5 and 4 lie in
    # no atom of size 2, and its 12 atoms pass the guard at k = 2.
    gapped = enumerate_atoms(int_alphabet(-6, -5, -3, 4))
    assert len(gapped) == 6 and not any(sum(v) == 2 for v in gapped.vectors)
    mixed = enumerate_atoms(int_alphabet(-6, -5, -3, 3, 4))
    assert len(mixed) == 12 and sum(sum(v) == 2 for v in mixed.vectors) == 1
    default = {atomset: [u.members for u in union_profiles(atomset, 4)] for atomset in (gapped, mixed)}
    monkeypatch.setattr(invariants, "ENUM_PRODUCT_GUARD", comb(7, 2))
    for atomset, methods in [(gapped, ["enum"] * 2 + ["milp"] * 2), (mixed, ["enum"] + ["milp"] * 3)]:
        profiles = union_profiles(atomset, 4)
        assert [u.method for u in profiles] == methods
        assert [u.members for u in profiles] == default[atomset]
    assert [u.method for u in union_profiles(cyclic5_atoms, 4)] == ["enum"] * 4


def _check_resumed_unions(atomset, order):
    """``unions`` for each k in ``order`` on one memo, then ``elasticity`` at
    bound 8 on it: each profile (members, rho_k, lambda_k, method), every
    profile up to 8 read back from the memo, and the elasticity equal those
    of fresh calls with no memo."""
    memo = {}
    resumed = {k: unions(atomset, k, memo) for k in order}
    rho = elasticity(atomset, 8, memo)
    fresh = union_profiles(atomset, 8)
    assert [resumed[k] for k in sorted(resumed)] == fresh[: len(order)]
    assert rho == elasticity(atomset, 8)
    assert union_profiles(atomset, 8, memo) == fresh


@settings(max_examples=40, deadline=None)
@given(small_alphabets(), st.permutations(range(1, 6)))
def test_unions_resume_from_the_kept_unions(alphabet, order):
    """U_k asked once per k, in any order, on one memo: each call reads the
    kept unions and extends them, and gives what one fresh call gives."""
    atomset = enumerate_atoms(alphabet)
    assume(atomset.vectors)
    _check_resumed_unions(atomset, order)


@settings(max_examples=8, deadline=None)
@given(st.permutations(range(1, 6)))
def test_unions_resume_the_milp_tail(order):
    """With the guard at 21, {-6, -5, -3, 4} is searched for k <= 2 and
    solved by integer programs above, so the kept list is extended by both
    engines, the elasticity sweep to k = 8 by the integer programs alone."""
    atomset = enumerate_atoms(int_alphabet(-6, -5, -3, 4))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "ENUM_PRODUCT_GUARD", comb(7, 2))
        assert [u.method for u in union_profiles(atomset, 3)] == ["enum"] * 2 + ["milp"]
        _check_resumed_unions(atomset, order)


@pytest.mark.parametrize("piece", [(0, 1, 2, 3, 5), (1, 3, 5)])
def test_restricted_piece_keeps_its_own_unions(piece):
    """A piece of cyclic:6 and its parent, on one memo in either order, each
    keep their own unions under a key with their own atoms.  The piece
    (0, 1, 2, 3, 5) has the unions of its parent; (1, 3, 5) has U_2 = {2, 4, 6}, so
    an entry shared with the parent would give it wrong members."""
    parent = enumerate_atoms(parse_preset("cyclic:6").alphabet)
    part = parent.restrict(piece)
    fresh = {atomset: union_profiles(atomset, 5) for atomset in (parent, part)}
    for first, second in [(parent, part), (part, parent)]:
        memo = {}
        union_profiles(first, 4, memo)
        assert union_profiles(second, 5, memo) == fresh[second]
        assert union_profiles(first, 5, memo) == fresh[first]
        kept = {key for key in memo if key[0] == "unions"}
        assert kept == {("unions", a.alphabet, a.vectors) for a in (parent, part)}


@pytest.mark.parametrize("token", ["cyclic:7", "cube:3"])
def test_union_search_serves_negation_closed_g0_past_the_guard(token):
    """cyclic:7 and cube:3 are negation-closed, so the search gives U_4 and
    U_5 though the guard would send them to the MILP engine, which gives
    the same members from the same smaller unions."""
    atomset = enumerate_atoms(parse_preset(token).alphabet)
    assert comb(len(atomset) + 3, 4) > ENUM_PRODUCT_GUARD
    profiles = union_profiles(atomset, 5)
    assert [u.method for u in profiles] == ["enum"] * 5
    lower = [_mask(u.members) for u in profiles]
    for k in (4, 5):
        assert _union_by_milp(atomset, k, lower[: k - 1]) == lower[k - 1]


def test_negation_closed_unions_import_no_integer_programming():
    """U_1, ..., U_5 of cyclic:7 are all "enum", and scipy is never loaded
    (checked in a fresh interpreter).  Over Z, {-12, -7, 3, 5, 8} has no
    pair g(-g) and 42 atoms, past the guard from k = 4: its U_4 and U_5 stay
    "milp"."""
    import krull_arith

    code = (
        "import sys; import krull_arith as ka; "
        "ps = ka.union_profiles(ka.enumerate_atoms(ka.parse_preset('cyclic:7').alphabet), 5); "
        "print([p.method for p in ps], 'scipy' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(krull_arith.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert proc.stdout == "%s False\n" % (["enum"] * 5,)
    atomset = enumerate_atoms(int_alphabet(-12, -7, 3, 5, 8))
    assert len(atomset) == 42
    assert [u.method for u in union_profiles(atomset, 5)] == ["enum"] * 3 + ["milp"] * 2


def _unions_probing_every_m(atomset, k):
    """Reference U_k by integer programming alone: minimize and maximize the
    second length, then probe every m in between."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    na = len(atomset)
    mat = np.array(atomset.vectors, dtype=float).T
    ky = np.hstack([np.zeros(na), np.ones(na)])
    base = [
        LinearConstraint(np.hstack([mat, -mat]), 0, 0),
        LinearConstraint(np.hstack([np.ones(na), np.zeros(na)]), k, k),
    ]

    def solve(c, extra=()):
        return milp(c, integrality=np.ones(2 * na), bounds=Bounds(0, np.inf), constraints=base + list(extra))

    lam = round(solve(ky).fun)
    rho = round(-solve(-ky).fun)
    probes = (m for m in range(lam + 1, rho) if solve(0 * ky, [LinearConstraint(ky, m, m)]).success)
    return tuple(sorted({lam, rho, *probes}))


def _union_alphabets():
    """Strategy: subsets of Z/n (3 <= n <= 5) and subsets of [-3, 3] over Z,
    negation-closed or not, whose atom sets are small."""
    def over_cyclic(n, classes):
        spec = GroupSpec(0, (n,))
        return Alphabet(spec, [spec.element(torsion=(c,)) for c in sorted(classes)])

    cyclic = st.integers(3, 5).flatmap(
        lambda n: st.sets(st.integers(0, n - 1), min_size=2, max_size=n).map(
            lambda cs: over_cyclic(n, cs)
        )
    )
    line = st.sets(st.integers(-3, 3), min_size=2, max_size=5).map(lambda vs: int_alphabet(*sorted(vs)))
    return st.one_of(cyclic, line)


@settings(max_examples=30, deadline=None)
@given(_union_alphabets())
@example(int_alphabet(-6, -5, -3, 4))
def test_union_engines_match_a_probe_every_m_reference(alphabet):
    """The MILP engine, which starts from the unions below k, equals the
    enumeration engine and a MILP that probes every m; every U_k lies in
    [max(2, ceil(2k/D)), kD/2] for k >= 2.  In the explicit example, 3 is a
    member of U_2 that only a probe finds."""
    atomset = enumerate_atoms(alphabet)
    assume(1 <= len(atomset) <= 10)
    d = atomset.davenport()
    memo = {}
    for k in range(1, 6):
        enum = _engine(atomset, k, "enum", memo).members
        assert _engine(atomset, k, "milp", memo).members == enum
        assert _unions_probing_every_m(atomset, k) == enum
        if k > 1 and d > 1:
            assert max(2, -(-2 * k // d)) <= enum[0] and enum[-1] <= k * d // 2


def _count_milp_calls(monkeypatch):
    import scipy.optimize

    calls = []
    solve = scipy.optimize.milp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counted)
    return calls


def test_milp_engine_solves_only_what_smaller_unions_leave_open(monkeypatch):
    """On C7, U_1..U_3 prove U_4 = [2, 14] up to its bound 4*7/2, and U_5 up
    to 15 of its bound 17, so one program shows rho_5 = 15.  Over Z,
    {-70, -1, 1, 70} has U_2 = {2, 71}: nothing below proves 71 or the gap,
    so rho_2 is solved and each m in [3, 70] is probed."""
    calls = _count_milp_calls(monkeypatch)
    atomset = enumerate_atoms(build_preset("cyclic", 7).alphabet)
    memo = {}
    lower = [_mask(u.members) for u in union_profiles(atomset, 3, memo=memo)]
    u4 = _union_by_milp(atomset, 4, lower)
    assert (u4, len(calls)) == (_mask(range(2, 15)), 0)
    u5 = _union_by_milp(atomset, 5, lower + [u4])
    assert (u5, len(calls)) == (_mask(range(2, 16)), 1)
    assert _mask(unions(atomset, 5, memo=memo).members) == u5
    del calls[:]
    gapped = enumerate_atoms(int_alphabet(-70, -1, 1, 70), cap=128)
    assert _engine(gapped, 2, "milp").members == (2, 71)
    assert len(calls) == 1 + 68


def test_milp_engine_probes_gaps_below_a_witnessed_rho(monkeypatch, cyclic4_atoms, cyclic5_atoms):
    """Cut U_i down to {i, rho_i} and, where present, k: the rule m in U_k
    iff k in U_m still reads every member up to k, but the sums
    U_i + U_{k-i} now leave gaps below the rho they witness, which only a
    probe fills.  On C4 and C6 at k = 4 the witnesses reach rho_4 = 2D, so
    no program is solved for rho, and 7 (C4) or 7, 9, 11 (C6) are probed."""
    calls = _count_milp_calls(monkeypatch)
    cyclic6_atoms = enumerate_atoms(build_preset("cyclic", 6).alphabet)
    solved = {}
    for atomset in (cyclic4_atoms, cyclic5_atoms, cyclic6_atoms):
        memo = {}
        full = [_engine(atomset, k, "enum", memo).members for k in range(1, 6)]
        for k in range(2, 6):
            cut = [_mask({i, u[-1]} | ({k} & set(u))) for i, u in enumerate(full[: k - 1], 1)]
            del calls[:]
            assert _union_by_milp(atomset, k, cut) == _mask(full[k - 1])
            solved[atomset.davenport(), k] = len(calls)
    assert solved[4, 4] == 1 and solved[6, 4] == 3


def test_milp_solutions_are_checked_in_integers(monkeypatch, cyclic5_atoms):
    """A solver answer that is no integer witness is refused: here one unit
    of y moves to another atom, which keeps |y| but changes the product."""
    import scipy.optimize

    solve = scipy.optimize.milp

    def corrupted(*args, **kwargs):
        res = solve(*args, **kwargs)
        na = len(res.x) // 2
        i = next(i for i in range(na, 2 * na) if res.x[i] > 0.5)
        res.x[i] -= 1
        res.x[na + (i + 1) % na] += 1
        return res

    monkeypatch.setattr(scipy.optimize, "milp", corrupted)
    with pytest.raises(DomainError):
        _engine(cyclic5_atoms, 2, "milp")


def test_milp_rho_below_a_witness_is_refused(monkeypatch):
    """An integer answer to the rho_k program that is smaller than what the
    unions below k prove is refused: here the solver answers y = x, |y| = 5,
    while U_1, ..., U_4 of C7 prove 15 in U_5."""
    import scipy.optimize

    solve = scipy.optimize.milp

    def trivial(*args, **kwargs):
        res = solve(*args, **kwargs)
        na = len(res.x) // 2
        res.x[na:] = res.x[:na]
        return res

    atomset = enumerate_atoms(build_preset("cyclic", 7).alphabet)
    lower = [_mask(u.members) for u in union_profiles(atomset, 4)]
    monkeypatch.setattr(scipy.optimize, "milp", trivial)
    with pytest.raises(DomainError, match="rho_5 = 5 is below the witness 15"):
        _union_by_milp(atomset, 5, lower)


def test_alphabet_whose_only_atom_is_zero(monkeypatch):
    """With only the atom 0, B(G0) is factorial: U_k = {k}, rho = 1, and no
    program is solved.  Without any atom, U_k is empty for k >= 1."""
    calls = _count_milp_calls(monkeypatch)
    for alphabet in (int_alphabet(0), int_alphabet(0, 3)):
        atomset = enumerate_atoms(alphabet)
        assert atomset.davenport() == 1
        for k in range(1, 5):
            for engine in ("enum", "milp"):
                assert _engine(atomset, k, engine).members == (k,)
        assert elasticity(atomset) == BoundedResult(Fraction(1), True, 0, "closed-form")
    assert not calls
    with pytest.raises(DomainError):
        unions(enumerate_atoms(int_alphabet(1, 2)), 2)


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
    # The cover searches are exhaustive, so both values are exact.
    assert monoid_omega(cyclic5_atoms) == BoundedResult(5, True, 0, "atomwise-covers")
    assert monoid_tame(cyclic5_atoms) == BoundedResult(6, True, 0, "atomwise-covers")


def test_omega_and_tame_of_an_atom_free_monoid():
    """B({1, 2}) over Z is trivial: omega(H) and t(H) are the supremum over
    no atoms, 0, as the catenary sweep's values are."""
    atomset = enumerate_atoms(int_alphabet(1, 2))
    assert len(atomset) == 0
    assert monoid_omega(atomset) == BoundedResult(0, True, 0, "atomwise-covers")
    assert monoid_tame(atomset) == BoundedResult(0, True, 0, "atomwise-covers")
    assert monoid_catenary(atomset, 3).value["catenary"] == 0


def test_omega_of_single_atoms(cyclic3_atoms):
    a = cyclic3_atoms.alphabet
    g = a.spec.element(torsion=(1,))
    zero_atom = a.sequence([(0 * g, 1)])
    assert omega(cyclic3_atoms, zero_atom) == 1  # the zero block is prime
    full = a.sequence([(g, 3)])
    assert omega(cyclic3_atoms, full) == 3
    assert tame(cyclic3_atoms, zero_atom) == 0


def _brute_omega(atomset, u):
    """Largest minimal cover of u among all multisets of at most |u| atoms,
    by Sequence arithmetic.  Only atoms sharing an element with u can lie in
    a minimal cover; a cover is minimal when dropping any one member leaves
    a product that u no longer divides."""
    meets = [w for w in atomset.atoms if set(w.support()) & set(u.support())]
    for size in range(u.length, 0, -1):
        for cover in combinations_with_replacement(meets, size):
            prod = atomset.alphabet.empty()
            for w in cover:
                prod = prod * w
            if u.divides(prod) and not any(u.divides(prod // w) for w in set(cover)):
                return size
    return 0


@settings(max_examples=40, deadline=None)
@given(small_alphabets())
def test_omega_matches_brute_force(alphabet):
    atomset = enumerate_atoms(alphabet)
    for u in atomset.atoms:
        assert omega(atomset, u) == _brute_omega(atomset, u)


def _tame_by_definition(atomset):
    """[t(H, u) for the atoms u] from the definition: the largest, over the
    blocks a with u | a and the z in Z(a), of the least d(z, z') over the
    z' in Z(a) that contain u.  u divides a exactly when some z' in Z(a)
    contains u.  The blocks are the products of at most D(G0) atoms: t(H, u)
    is attained at a = prod(W) for a minimal cover W of u, and
    |W| <= |u| <= D(G0)."""
    blocks = {
        tuple(map(sum, zip(*picks)))
        for size in range(1, atomset.davenport() + 1)
        for picks in combinations_with_replacement(atomset.vectors, size)
    }
    t = [0] * len(atomset)
    for mults in blocks:
        zs = factorize(atomset, atomset.alphabet.from_mults(mults))
        for i in range(len(t)):
            with_u = [w for w in zs if w.counts[i]]
            if with_u:
                t[i] = max(t[i], max(min(distance(z, w) for w in with_u) for z in zs))
    return t


@pytest.mark.parametrize(
    "token", ["cyclic:3", "cyclic:4", "five_point", "four_point", "thm74:2,1", "frt_t:2", "prop713"]
)
def test_tame_matches_its_definition(token):
    atomset = enumerate_atoms(parse_preset(token).alphabet)
    memo = {}
    assert [tame(atomset, u, memo) for u in atomset.atoms] == _tame_by_definition(atomset)


def test_monoid_catenary(cyclic4_atoms):
    res = monoid_catenary(cyclic4_atoms, 3)
    assert res.value["catenary"] == 4
    assert res.value["monotone"] == 4
    assert not res.exact
    with pytest.raises(ArgumentError):
        monoid_catenary(cyclic4_atoms, 1)


def test_sweeps_whose_products_need_a_wider_packing():
    """Over Z, {-70, -1, 1, 70} has the atoms -1*1, -70*70, -70*1^70 and
    -1^70*70; products of two of them reach multiplicity 140, past a field
    of 8 bits.  (-70*1^70)(-1^70*70) = (-1*1)^70 (-70*70) has L = {2, 71}, and
    every other product of two atoms factors uniquely."""
    atomset = enumerate_atoms(int_alphabet(-70, -1, 1, 70), cap=128)
    assert len(atomset) == 4
    assert delta_set(atomset, 2).value == frozenset((69,))
    assert _engine(atomset, 2, "enum").members == (2, 71)
    assert _engine(atomset, 2, "milp").members == (2, 71)
    assert monoid_catenary(atomset, 2).value["catenary"] == 71
    assert frozenset((2, 71)) in collect_length_sets(atomset, 2)
    packed = PackedAtoms.for_products(atomset, 2)
    assert packed.width == 16
    levels = product_levels(packed.nonzero(), 2)
    assert all(b & packed.guard == 0 for level in levels for b in level)


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


# Presets of the sweep-level tests below: products of up to three atoms.
SWEEP_PRESETS = [
    "thm74:2,1", "thm74:3,2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "full_box:2",
    "prop713", "cube:2", "five_point", "four_point", "split1:2", "split2:2",
]


def _apply(packed, block, perm):
    """A packed block with the multiplicity of element j moved to perm[j]."""
    mults = [0] * packed.length
    for j, m in enumerate(packed.unpack(block)):
        mults[perm[j]] = m
    return packed.pack(mults)


@pytest.mark.parametrize(
    "token, count", [("cyclic:5", 3), ("cyclic:6", 1), ("cyclic:7", 5), ("full_box:2", 1)]
)
def test_unit_maps_permute_the_alphabet_and_the_atoms(token, count):
    atomset = enumerate_atoms(parse_preset(token).alphabet)
    alphabet = atomset.alphabet
    maps = alphabet.unit_maps()
    identity = tuple(range(len(alphabet)))
    assert len(maps) == count
    for perm in maps:
        assert perm != identity and sorted(perm) == list(identity)
        moved = set()
        for v in atomset.vectors:
            w = [0] * len(v)
            for j, m in enumerate(v):
                w[perm[j]] = m
            moved.add(tuple(w))
        assert moved == set(atomset.vectors)
    for p in maps:
        for q in maps:
            assert tuple(p[q[j]] for j in identity) in set(maps) | {identity}


def _subsets_of_finite_groups():
    """Strategy: nonempty subsets of small finite abelian groups."""

    def subset(torsion, picks):
        spec = GroupSpec(0, torsion)
        elements = [spec.element(torsion=t) for t in product(*(range(n) for n in torsion))]
        return Alphabet(spec, [g for g, keep in zip(elements, picks) if keep] or elements[:1])

    tors = st.sampled_from([(n,) for n in range(2, 13)] + [(2, 4), (2, 6), (3, 3), (2, 2, 2)])
    return tors.flatmap(
        lambda t: st.lists(st.booleans(), min_size=prod(t), max_size=prod(t)).map(
            lambda picks: subset(t, picks)
        )
    )


@settings(max_examples=150, deadline=None)
@given(_subsets_of_finite_groups())
def test_unit_maps_match_multiplying_by_every_unit(alphabet):
    e = alphabet.spec.exponent()
    identity = tuple(range(len(alphabet)))
    expected = set()
    for k in range(1, e + 1):
        images = [k * g for g in alphabet]
        if gcd(k, e) == 1 and all(h in alphabet for h in images):
            expected.add(tuple(alphabet.index(h) for h in images))
    maps = alphabet.unit_maps()
    assert len(set(maps)) == len(maps)
    assert set(maps) == expected - {identity}


def test_unit_maps_of_a_small_subset_of_a_large_group(monkeypatch):
    """{0, 1, -1} in Z/1000003 has only negation, found without multiplying
    the alphabet by each of the 1,000,002 units."""
    calls = []
    mul = GroupElement.__mul__

    def counted(self, k):
        calls.append(k)
        return mul(self, k)

    monkeypatch.setattr(GroupElement, "__mul__", counted)
    monkeypatch.setattr(GroupElement, "__rmul__", counted)
    spec = GroupSpec(0, (1_000_003,))
    alphabet = Alphabet(spec, [spec.element(torsion=(t,)) for t in (0, 1, -1)])
    assert alphabet.unit_maps() == [tuple(alphabet.negation_table())]
    assert len(calls) < 20
    spec = GroupSpec(0, (5,))
    assert Alphabet(spec, [spec.element(torsion=(t,)) for t in (0, 1, 2)]).unit_maps() == []


# Divisor-closed pieces (alphabet indices) that fewer unit maps keep than
# keep the whole alphabet: cyclic:5 on {1, 2, 3} is kept by no map, and on
# {1, 4} by negation only; the thm74:3,2 piece drops (1,0,0) and (0,0,-1) but
# keeps their negatives, so negation does not keep it.  In cyclic:5 on
# {1, 2, 3}, 2^5 * 3^5 = (2 * 3)^5 has catenary degree 5, and its image
# 1^5 * 4^5 under x -> 2x is not a block of the piece.
PIECES = [("cyclic:5", (1, 2, 3)), ("cyclic:5", (1, 4)), ("thm74:2,1", (0, 1, 2, 5)),
          ("thm74:3,2", (0, 1, 2, 4, 5, 7))]


def _sweep_atomset(token, piece):
    """The atoms of a preset, or of {±1, ±50} in Z for "wide": a product of
    three of its atoms has a count of 150, so its fields are two bytes."""
    alphabet = int_alphabet(-50, -1, 1, 50) if token == "wide" else parse_preset(token).alphabet
    atomset = enumerate_atoms(alphabet)
    return atomset if piece is None else atomset.restrict(piece)


def _kept_maps(atomset, packed):
    """The unit maps that send the packed nonzero atoms onto themselves."""
    atoms = set(packed.nonzero())
    return [
        perm for perm in atomset.alphabet.unit_maps() if {_apply(packed, u, perm) for u in atoms} == atoms
    ]


@pytest.mark.parametrize(
    "token, piece, count",
    [("cyclic:5", None, 3), ("cyclic:5", (1, 2, 3), 0), ("cyclic:5", (1, 4), 1),
     ("thm74:2,1", None, 1), ("thm74:2,1", (0, 1, 2, 5), 0), ("wide", None, 1)],
)
def test_catenary_sweep_uses_only_the_maps_that_keep_the_atoms(token, piece, count):
    """The orbit filter keeps the least block of each orbit of the unit maps
    that keep the atoms, each map applied by multiplicities (``_apply``),
    and of no other map: a restricted atom set is kept by fewer maps."""
    atomset = _sweep_atomset(token, piece)
    packed = PackedAtoms.for_products(atomset, 3)
    assert packed.width == (16 if token == "wide" else 8)
    kept = _kept_maps(atomset, packed)
    assert len(kept) == count
    group = [tuple(range(len(atomset.alphabet)))] + kept
    blocks = {b for level in product_levels(packed.nonzero(), 3) for b in level}
    least = sorted({min(_apply(packed, b, perm) for perm in group) for b in blocks})
    assert sorted(invariants._least_of_orbits(packed, atomset.alphabet, blocks)) == least


SWEEP_CASES = [(token, None) for token in SWEEP_PRESETS + ["wide"]] + PIECES


def _swept_blocks(atomset):
    """(PackedAtoms, the products of two or three nonzero atoms)."""
    packed = PackedAtoms.for_products(atomset, 3)
    return packed, set().union(*product_levels(packed.nonzero(), 3)[2:])


@pytest.mark.parametrize("token, piece", SWEEP_CASES)
def test_monoid_catenary_matches_the_unreduced_sweep(token, piece):
    """Factoring the least block of each orbit gives the largest profile
    over every product of two or three nonzero atoms, each factored by the
    public catenary_profile; also on restricted atom sets, which fewer maps
    keep."""
    atomset = _sweep_atomset(token, piece)
    packed = PackedAtoms.for_products(atomset, 3)
    best = dict.fromkeys(("catenary", "equal", "adjacent", "monotone"), 0)
    for level in product_levels(packed.nonzero(), 3)[2:]:
        for b in level:
            prof = catenary_profile(atomset, atomset.alphabet.from_mults(packed.unpack(b)))
            for name in best:
                best[name] = max(best[name], getattr(prof, name))
    result = monoid_catenary(atomset, 3)
    assert (result.value, result.method) == (best, "product-sweep")


@pytest.mark.parametrize("token, piece", SWEEP_CASES)
def test_catenary_maxima_raise_each_floor_to_the_value(token, piece):
    """The threshold kernel returns max(floor, value) for c, c_eq and c_adj
    of every swept block, the values taken from the chain oracle
    ``catenary_by_chains`` on Z(B), at every floor from 0 to max L(B) + 1:
    all three floors equal, and the three apart."""
    atomset = _sweep_atomset(token, piece)
    packed, blocks = _swept_blocks(atomset)
    for b in blocks:
        zs = _factorizations(packed, b)
        values = catenary_by_chains(zs)
        _, _, counts, packed_zs = _count_vectors(packed, b)
        span = max(map(sum, zs)) + 2
        for f in range(span):
            for floors in ((f, f, f), (f, (f + 1) % span, (f + 2) % span)):
                raised = tuple(max(floor, v) for floor, v in zip(floors, values))
                assert _catenary_maxima(counts, packed_zs, *floors) == raised


@pytest.mark.parametrize("token, piece", SWEEP_CASES)
def test_catenary_values_are_at_most_the_longest_length(token, piece):
    """The bounds the sweep skips by: c(B), c_eq(B) and c_adj(B) are at
    most max L(B), and c_adj(B) = 0 when L(B) has one element."""
    atomset = _sweep_atomset(token, piece)
    packed, blocks = _swept_blocks(atomset)
    for b in blocks:
        prof = catenary_profile(atomset, atomset.alphabet.from_mults(packed.unpack(b)))
        assert max(prof.catenary, prof.equal, prof.adjacent) <= max(prof.lengths)
        assert len(prof.lengths) > 1 or prof.adjacent == 0


def _check_count_floor(atomset):
    """At every floor from 0 to max L(B) + 1, the search of Z(B) gives the
    y, positions and count packing of the full search, and exactly its
    factorizations longer than the floor, on every swept block."""
    packed, blocks = _swept_blocks(atomset)
    for b in blocks:
        y, positions, counts, zs = _count_vectors(packed, b)
        for f in range(max(map(counts.total, zs)) + 2):
            fy, fpositions, fcounts, fzs = _count_vectors(packed, b, f)
            assert (fy, fpositions, fcounts.length, fcounts.width) == (y, positions, counts.length, counts.width)
            assert fzs == [z for z in zs if counts.total(z) > f]


@pytest.mark.parametrize("token, piece", SWEEP_CASES)
def test_count_vectors_floor_matches_the_full_search(token, piece):
    _check_count_floor(_sweep_atomset(token, piece))


@settings(max_examples=40, deadline=None)
@given(small_alphabets())
def test_count_vectors_floor_matches_the_full_search_on_small_alphabets(alphabet):
    _check_count_floor(enumerate_atoms(alphabet))


@pytest.mark.parametrize("token, piece", [("cyclic:5", None), ("cyclic:6", None), ("cyclic:5", (1, 4))])
def test_monoid_catenary_factors_one_block_per_orbit(token, piece, monkeypatch):
    """No block reaches the kernel twice (a block on two levels included),
    each that does is the least block of its orbit, and a least block that
    does not has max L(B) at most the final c and c_eq, and at most the
    final c_adj unless |L(B)| = 1.  The kernel is called with the sweep's
    floor, which ``test_count_vectors_floor_matches_the_full_search`` checks."""
    atomset = _sweep_atomset(token, piece)
    packed, blocks = _swept_blocks(atomset)
    group = [tuple(range(len(atomset.alphabet)))] + _kept_maps(atomset, packed)
    least = {min(_apply(packed, b, perm) for perm in group) for b in blocks}
    factored = []
    count = invariants._count_vectors
    monkeypatch.setattr(invariants, "_count_vectors", lambda p, b, floor=0: factored.append(b) or count(p, b, floor))
    value = monoid_catenary(atomset, 3).value
    assert len(factored) == len(set(factored))
    assert set(factored) <= least
    for b in least - set(factored):
        ls = lengths_of(atomset, atomset.alphabet.from_mults(packed.unpack(b)))
        assert max(ls) <= min(value["catenary"], value["equal"])
        assert len(ls) == 1 or max(ls) <= value["adjacent"]


# The cases of the tests below, which compare a search cut short by a proved
# bound or reduced by symmetry with the full search.
REDUCED_CASES = SWEEP_CASES + [("frt_t:1", None), ("frt_t:2", None)]


def _check_delta_ceiling(atomset):
    """delta_set, which stops once its gaps fill [1, omega(H) - 2], equals
    the full sweep at bounds 2 to 4, whose gaps are all at most
    omega(H) - 2 (Delta(H) lies in [1, c(H) - 2] and c(H) <= omega(H))."""
    ceiling = monoid_omega(atomset).value - 2
    for bound in (2, 3, 4):
        full = delta_by_full_sweep(atomset, bound)
        assert delta_set(atomset, bound) == BoundedResult(full, False, bound, "product-sweep")
        assert all(d <= ceiling for d in full)


@pytest.mark.parametrize("token, piece", REDUCED_CASES)
def test_delta_set_stops_at_the_omega_ceiling(token, piece):
    _check_delta_ceiling(_sweep_atomset(token, piece))


@settings(max_examples=40, deadline=None)
@given(small_alphabets())
def test_delta_set_stops_at_the_omega_ceiling_on_small_alphabets(alphabet):
    _check_delta_ceiling(enumerate_atoms(alphabet))


@pytest.mark.parametrize(
    "values, omega_h, level_2",
    [((-5, -4, -1, 1, 4, 5), 9, {1, 3, 4, 5, 6, 7}), ((-7, -6, 3, 4), 7, {1, 3, 4, 5})],
)
def test_delta_set_stops_on_the_level_that_fills_the_ceiling(values, omega_h, level_2, monkeypatch):
    """Over these subsets of Z the gap 2 first appears on level 3, after
    every other gap of [1, omega(H) - 2]: the sweep reads level 3, and
    builds no level after it."""
    atomset = enumerate_atoms(int_alphabet(*values))
    assert monoid_omega(atomset).value == omega_h
    assert delta_set(atomset, 2).value == frozenset(level_2)
    _check_delta_ceiling(atomset)
    read = []
    sweep = invariants._length_masks

    def counted(*args):
        for level in sweep(*args):
            read.append(level)
            yield level

    monkeypatch.setattr(invariants, "_length_masks", counted)
    assert delta_set(atomset, 6).value == frozenset(range(1, omega_h - 1))
    assert len(read) == 4


def _check_orbit_searches(atomset):
    """monoid_omega and monoid_tame, which search one atom per orbit of the
    unit maps, equal the maxima of omega(H, u) and t(H, u) over all atoms."""
    memo = {}
    assert monoid_omega(atomset).value == max((omega(atomset, u) for u in atomset.atoms), default=0)
    assert monoid_tame(atomset, memo).value == max((tame(atomset, u, memo) for u in atomset.atoms), default=0)


@pytest.mark.parametrize("token, piece", REDUCED_CASES)
def test_omega_and_tame_match_the_all_atom_search(token, piece):
    _check_orbit_searches(_sweep_atomset(token, piece))


@settings(max_examples=40, deadline=None)
@given(small_alphabets())
def test_omega_and_tame_match_the_all_atom_search_on_small_alphabets(alphabet):
    _check_orbit_searches(enumerate_atoms(alphabet))


@pytest.mark.parametrize("token, piece", [("cyclic:5", None), ("cyclic:6", None), ("cyclic:5", (1, 4))])
def test_omega_and_tame_search_one_atom_per_orbit(token, piece, monkeypatch):
    """The cover searches run only on the least atom of each orbit of the
    unit maps that keep the atoms.  Tame searches each of them once.  Omega
    searches them largest |u| first, and skips those left once |u| is at
    most the running maximum, as omega(H, u) <= |u|."""
    atomset = _sweep_atomset(token, piece)
    packed = PackedAtoms.for_products(atomset, atomset.davenport())
    group = [tuple(range(len(atomset.alphabet)))] + _kept_maps(atomset, packed)
    least = sorted({min(_apply(packed, u, perm) for perm in group) for u in packed.atoms})
    assert len(least) < len(atomset)
    searched = []
    search = invariants._omega
    monkeypatch.setattr(invariants, "_omega", lambda p, u, *best: searched.append(u) or search(p, u, *best))
    value = monoid_omega(atomset).value
    sizes = [packed.total(u) for u in searched]
    assert len(set(searched)) == len(searched) and set(searched) <= set(least)
    assert sizes == sorted(sizes, reverse=True)
    assert all(packed.total(u) <= value for u in set(least) - set(searched))
    searched = []
    search = invariants._tame
    monkeypatch.setattr(invariants, "_tame", lambda p, u: searched.append(u) or search(p, u))
    monoid_tame(atomset)
    assert sorted(searched) == least


def test_omega_cover_search_stops_at_the_running_maximum():
    """Over {-12, -7, 3, 5, 8} in Z (42 atoms, D = 17) a cover search of
    each atom from 0 runs for minutes.  Cut at the running maximum, with
    the atoms taken largest first, it ends within the alarm."""
    atomset = enumerate_atoms(int_alphabet(-12, -7, 3, 5, 8))

    def expire(signum, frame):
        raise TimeoutError

    # The timeout is caught and asserted on here: a traceback through the
    # kernel frames the alarm interrupted can lack line numbers, which
    # pytest fails to render.
    timed_out = False
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        result = monoid_omega(atomset)
    except TimeoutError:
        timed_out = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not timed_out, "omega cover search still running after 20 s"
    assert (len(atomset), atomset.davenport()) == (42, 17)
    assert result == BoundedResult(17, True, 0, "atomwise-covers")


@pytest.mark.parametrize("values, omega_h", [((-9, -4, 5, 7), 16), ((-11, -3, 4, 6, 9), 20)])
def test_monoid_omega_over_subsets_of_z(values, omega_h):
    """omega(H) as the search of every atom from 0 gives it."""
    assert monoid_omega(enumerate_atoms(int_alphabet(*values))).value == omega_h


def test_monoid_omega_is_kept_in_the_memo(cyclic5_atoms, monkeypatch):
    """With a memo, Delta's ceiling and a second call share one search, and
    a restricted atom set over the same alphabet gets its own value."""
    memo = {}
    searched = []
    search = invariants._omega
    monkeypatch.setattr(invariants, "_omega", lambda p, u, *best: searched.append(u) or search(p, u, *best))
    delta_set(cyclic5_atoms, 3, memo)
    calls = len(searched)
    assert monoid_omega(cyclic5_atoms, memo) == BoundedResult(5, True, 0, "atomwise-covers")
    assert len(searched) == calls > 0
    piece = cyclic5_atoms.restrict((0,))
    assert monoid_omega(piece, memo).value == monoid_omega(piece).value == 1
    assert len(searched) > calls


# d(H) = min Delta(H) by the kernel oracle, where the gaps that
# delta_set(., 4) sweeps have d(H) as their gcd: 0 means Delta(H) is empty.
MIN_DELTA = {
    "thm74:2,1": 1, "thm74:3,2": 3, "thm74:4,3": 5, "cyclic:5": 1, "cyclic:6": 1, "full_box:2": 1,
    "prop713": 1, "cube:3": 1, "five_point": 1, "four_point": 1, "frt_t:2": 1, "split1:2": 1,
    "split2:2": 1, "frt_t:1": 0,
}


def _check_min_delta(atomset):
    """d(H) divides every gap of the Delta sweep (d = 0 leaves none), and
    returns both."""
    d, gaps = min_delta_by_kernel(atomset), delta_set(atomset, 4).value
    assert all(d and gap % d == 0 for gap in gaps)
    return d, gaps


@pytest.mark.parametrize("token", sorted(set(SWEEP_PRESETS) | set(MIN_DELTA)))
def test_min_delta_divides_the_swept_gaps(token):
    d, gaps = _check_min_delta(enumerate_atoms(parse_preset(token).alphabet))
    if token in MIN_DELTA:
        assert d == MIN_DELTA[token] == reduce(gcd, gaps, 0)


@settings(max_examples=40, deadline=None)
@given(small_alphabets())
def test_min_delta_divides_the_swept_gaps_on_small_alphabets(alphabet):
    _check_min_delta(enumerate_atoms(alphabet))
