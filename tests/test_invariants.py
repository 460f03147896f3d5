"""Invariants: distance sets, unions of length sets, elasticity, omega/tame,
catenary, absolute irreducibility.  The two union engines are cross-checked.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krull_arith import (
    Alphabet,
    GroupSpec,
    absolutely_irreducible,
    collect_length_sets,
    delta_set,
    delta_star,
    elasticity,
    enumerate_atoms,
    min_abs_irred_witness,
    monoid_catenary,
    monoid_omega,
    monoid_tame,
    omega,
    tame,
    union_profiles,
    unions,
)
from krull_arith import invariants
from krull_arith.errors import ArgumentError, DomainError
from krull_arith.invariants import (
    ENUM_PRODUCT_GUARD,
    BoundedResult,
    _profile,
    _union_by_enumeration,
    _union_by_milp,
    _zero_free_sweep,
)
from krull_arith.presets import build_preset

from conftest import int_alphabet, small_alphabets


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
        members = _union_by_enumeration(atomset, k, memo)[-1]
    else:
        lower = [u.members for u in union_profiles(atomset, k - 1, memo=memo)]
        members = _union_by_milp(atomset, k, lower)
    return _profile(k, members, engine)


def test_union_engines_agree(monkeypatch, cyclic4_atoms, cyclic5_atoms, thm74_21):
    _, ats74 = thm74_21
    for atomset in (cyclic4_atoms, cyclic5_atoms, ats74):
        for k in range(1, 5):
            enum = _engine(atomset, k, "enum")
            milp = _engine(atomset, k, "milp")
            assert enum.members == milp.members
            assert enum.rho == milp.rho and enum.lam == milp.lam
    # The product sweep serves U_k while at most ENUM_PRODUCT_GUARD multisets
    # of k atoms exist: 15 atoms give 120 pairs, so a guard of 120 sweeps
    # k <= 2.
    default = [u.members for u in union_profiles(cyclic5_atoms, 4)]
    monkeypatch.setattr(invariants, "ENUM_PRODUCT_GUARD", comb(16, 2))
    profiles = union_profiles(cyclic5_atoms, 4)
    assert [u.method for u in profiles] == ["enum", "enum", "milp", "milp"]
    assert [u.members for u in profiles] == default


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
    assert comb(len(atomset) + 3, 4) > ENUM_PRODUCT_GUARD
    memo = {}
    u4 = union_profiles(atomset, 4, memo=memo)[-1]
    assert (u4.method, u4.members, len(calls)) == ("milp", tuple(range(2, 15)), 0)
    u5 = union_profiles(atomset, 5, memo=memo)[-1]
    assert (u5.method, u5.members, len(calls)) == ("milp", tuple(range(2, 16)), 1)
    assert unions(atomset, 5, memo=memo).members == u5.members
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
            cut = [tuple(sorted({i, u[-1]} | ({k} & set(u)))) for i, u in enumerate(full[: k - 1], 1)]
            del calls[:]
            assert tuple(sorted(_union_by_milp(atomset, k, cut))) == full[k - 1]
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
    packed, levels = _zero_free_sweep(atomset, 2)
    assert packed.width == 16
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
