"""Closed-form length-set families, progression/AAMP fitting, and the
additive-closure probe.
"""

from itertools import combinations

import pytest
from conftest import closure_probe_by_levels

from krull_arith import (
    AAMP,
    Alphabet,
    GroupSpec,
    additive_closure_probe,
    c3_set,
    c4_set_ap2,
    c4_set_interval,
    collect_length_sets,
    delta_of_set,
    enumerate_atoms,
    fit_aamp,
    fit_progression,
    is_length_set_realized,
    member,
    sumset,
)
from krull_arith import invariants, lengths
from krull_arith.errors import ArgumentError
from krull_arith.factorizations import PackedAtoms
from krull_arith.presets import parse_preset


def test_sumset_and_delta():
    assert sumset({2, 3}, {2, 5}) == frozenset((4, 5, 7, 8))
    assert delta_of_set({2, 3, 5}) == frozenset((1, 2))
    assert delta_of_set({4}) == frozenset()


def test_member_interval_family():
    ok, params = member("C3", c3_set(1, 2))
    assert ok and params == {"y": 1, "k": 2}
    assert member("C3", {5, 7})[0] is False  # not an interval
    assert member("C3", {1, 2})[0] is False  # interval but y < 0
    ok, params = member("C3", {7})
    assert ok and params == {"y": 7, "k": 0}
    with pytest.raises(ArgumentError):
        member("C3", set())


def test_member_two_form_family():
    ok, params = member("C4", c4_set_interval(0, 3))
    assert ok and params["form"] == "interval" and params["k"] == 3
    ok, params = member("C4", c4_set_ap2(1, 2))
    assert ok and params["form"] == "ap2" and params == {"form": "ap2", "y": 1, "k": 2}
    assert member("C4", {2, 5})[0] is False
    ok, params = member("C4", {3})
    assert ok and params == {"form": "interval", "y": 2, "k": 0}
    # A singleton {lo} is an interval when lo >= 1 and an ap2 set when lo = 0.
    assert member("C4", {0}) == (True, {"form": "ap2", "y": 0, "k": 0})


def test_member_symmetric_rank_family():
    # Single gap d = r + alpha - 2 and m >= 0.
    ok, params = member("thm74:2,1", {4, 5, 6})
    assert ok and params == {"m": 0, "k*": 2}
    assert member("thm74:2,2", {4, 6, 8})[0] is True
    assert member("thm74:2,2", {4, 5})[0] is False
    assert member("thm74:2,1", {0, 1})[0] is False  # m would be negative
    assert member("thm74:3,2", {5}) == (True, {"m": 5, "k*": 0})  # a singleton has no gap
    with pytest.raises(ArgumentError):
        member("nonsense", {1})
    # A malformed family, or one outside r, alpha >= 1 with r + alpha > 2,
    # is an error rather than a traceback or a miss on every set.
    for family in ("thm74:x", "thm74:2", "thm74:0,0", "thm74:1,1", "thm74:2,1,1"):
        with pytest.raises(ArgumentError):
            member(family, {4, 5, 6})


def test_fit_progression():
    assert fit_progression({3}) == (True, 0)
    assert fit_progression({2, 4, 6}) == (True, 2)
    assert fit_progression({2, 3, 5}) == (False, None)


def test_fit_aamp():
    model = fit_aamp({2, 4, 6}, 2)
    assert isinstance(model, AAMP)
    assert model.m == 0 and model.d == 2
    assert model.to_json()["period"] == [0, 2]
    # One irregular initial element forces a nonzero M.
    model = fit_aamp({1, 4, 6, 8}, 2)
    assert model is not None and model.m >= 1
    with pytest.raises(ArgumentError):
        fit_aamp({1, 2}, 0)


def test_collect_length_sets_stay_in_family(five_point_atoms):
    for lset in collect_length_sets(five_point_atoms, 3):
        assert member("C3", lset)[0]


def test_prop713_length_sets_stay_in_family():
    from krull_arith.presets import build_preset

    ats = enumerate_atoms(build_preset("prop713").alphabet)
    for lset in collect_length_sets(ats, 3):
        assert member("C4", lset)[0]


def test_is_length_set_realized(cyclic5_atoms):
    assert is_length_set_realized(cyclic5_atoms, {2, 5}, 8) is True
    assert is_length_set_realized(cyclic5_atoms, {2}, 8) is True
    # {2,4} + {2,4} = {4,6,8} is a sumset of two realized sets that no block
    # realizes: the first additive-closure failure over the full C5 alphabet.
    assert is_length_set_realized(cyclic5_atoms, {4, 6, 8}, 8) is False
    # {4,7,10} is realized, e.g. by g^10 * (-g)^10.
    assert is_length_set_realized(cyclic5_atoms, {4, 7, 10}, 16) is True
    assert is_length_set_realized(cyclic5_atoms, {20, 25}, 8) is None


@pytest.mark.parametrize("token", ["cyclic:3", "cyclic:4", "five_point"])
def test_collected_length_sets_are_realized(token):
    # Every length set collected from products of at most 3 atoms has minimum
    # at most 3, so the realizer must confirm it at verification bound 3.
    ats = enumerate_atoms(parse_preset(token).alphabet)
    memo = {}
    for lset in collect_length_sets(ats, 3, memo):
        assert is_length_set_realized(ats, lset, 3, memo) is True


def test_closure_probe_closed_small_cyclic(cyclic3_atoms, cyclic4_atoms):
    probe3 = additive_closure_probe(cyclic3_atoms, 3)
    assert probe3.closed_within_bound and not probe3.witness
    probe4 = additive_closure_probe(cyclic4_atoms, 3)
    assert probe4.closed_within_bound
    assert probe4.to_json()["witness"] == []


def test_closure_probe_open_cyclic5(cyclic5_atoms):
    probe = additive_closure_probe(cyclic5_atoms, 4)
    assert not probe.closed_within_bound
    l1, l2, t = probe.witness
    assert sorted(l1) == [2, 4] and sorted(l2) == [2, 4]
    assert t == frozenset((4, 6, 8))


def _sets(text):
    """Sets of one-digit lengths written as digit strings: "0 23" is {0}, {2, 3}."""
    return {frozenset(map(int, word)) for word in text.split()}


def _c7(*residues):
    spec = GroupSpec(0, (7,))
    return Alphabet(spec, [spec.element(torsion=(r,)) for r in residues])


# The subsets of {0, ..., 9} with at most four members that are length sets
# with minimum at most 6, each found by a fresh realizer of an earlier
# version that swept the zero-free atoms and shifted by every run of zeros.
FIVE_POINT_SETS = "0 1 2 3 4 5 6 23 34 45 56 67 456 567 678 6789"
PROP713_SETS = "0 1 2 3 4 5 6 23 24 34 35 45 46 56 57 67 68 345 456 468 567 579 678 4567 5678 6789"
C7_125_SETS = (
    "0 1 2 3 4 5 6 23 24 25 27 34 35 36 38 45 46 47 49 56 57 58 67 68 69 "
    "345 346 356 357 358 368 456 457 467 468 469 479 567 579 578 678 689 "
    "3456 3468 4567 4578 4579 4689 5678 5689 6789"
)


@pytest.mark.parametrize(
    "alphabet, expected",
    [
        (parse_preset("five_point").alphabet, _sets(FIVE_POINT_SETS)),
        (parse_preset("four_point").alphabet, _sets(FIVE_POINT_SETS)),
        (parse_preset("prop713").alphabet, _sets(PROP713_SETS)),
        (parse_preset("cyclic:4").alphabet, _sets(PROP713_SETS)),
        # Over {1, 2, 5} in C7, {4, 6, 7}, {5, 7, 8} and {4, 6, 7, 8} are the
        # length sets of products of 3 and 4 atoms, and no product of 5 or 6
        # atoms has lengths {5, 6, 8} or {6, 7, 9}; with the atom 0, the
        # products 0 * B and 0^2 * B have them.
        (_c7(1, 2, 5), _sets(C7_125_SETS)),
        (_c7(0, 1, 2, 5), _sets(C7_125_SETS + " 568 679")),
    ],
    ids=["five_point", "four_point", "prop713", "cyclic:4", "C7-125", "C7-0125"],
)
def test_realizer_reads_levels_in_any_order(alphabet, expected):
    """is_length_set_realized, with one memo, asked about sets whose minima
    come in the order 4, 2, 6, 0, 5, 3, 1, 9, 7, 8: it answers from the
    level of each set's minimum, whichever levels the memo holds already,
    and None above its bound."""
    atomset = enumerate_atoms(alphabet)
    memo = {}
    candidates = [frozenset(t) for r in range(1, 5) for t in combinations(range(10), r)]
    for lo in (4, 2, 6, 0, 5, 3, 1, 9, 7, 8):
        for t in candidates:
            if min(t) == lo:
                expect = None if lo > 6 else t in expected
                assert is_length_set_realized(atomset, t, 6, memo) is expect, sorted(t)


# Every length set of a product of at most 4 atoms, computed by an earlier
# version whose collection swept the atom 0 with the others.  At bounds 2
# and 3 that version collected the sets below with minimum at most the bound.
COLLECTED_AT_4 = {
    "five_point": "0 1 2 23 3 34 4 45 456",
    "four_point": "0 1 2 23 3 34 4 45 456",
    "prop713": "0 1 2 23 24 3 34 345 35 4 45 456 4567 46 468",
    "cyclic:4": "0 1 2 23 24 3 34 345 35 4 45 456 4567 46 468",
}


@pytest.mark.parametrize("token", sorted(COLLECTED_AT_4))
def test_collection_and_closure_probe_keep_their_values(token):
    """collect_length_sets at bounds 0 to 4, and the closure probe at bounds
    2 to 4, which collects from levels 0 to the bound of its own sweep and
    realizes from the levels above them."""
    atomset = enumerate_atoms(parse_preset(token).alphabet)
    collected = _sets(COLLECTED_AT_4[token])
    memo = {}
    for bound in range(5):
        expected = {s for s in collected if min(s) <= bound}
        assert collect_length_sets(atomset, bound, memo) == expected
    for bound in (2, 3, 4):
        assert additive_closure_probe(atomset, bound).to_json() == {
            "closed_within_bound": True,
            "witness": [],
            "collection_bound": bound,
            "verification_bound": 2 * bound,
            "indeterminate": [],
        }


def test_closure_probe_collects_its_top_level(cyclic5_atoms):
    """Over C5, {2, 4} is the length set of a product of 2 atoms, so the
    probe at bound 2 finds the witness {2, 4} + {2, 4} = {4, 6, 8} only when
    it collects level 2."""
    assert additive_closure_probe(cyclic5_atoms, 2).to_json()["witness"] == [[2, 4], [2, 4], [4, 6, 8]]


# (preset, AtomSet.restrict piece or None, 0 in G0, bounds).  cyclic:5,
# cyclic:6 and the pieces with 0 or of C7 are not closed; at bound 2 the
# cyclic:5 witness {2, 4} + {2, 4} = {4, 6, 8} has minimum 4, above the
# collected levels, and at bound 4 it has minimum 4, inside them.  On the
# piece {1, 2, 3, 6} of C7 at bound 2, {2, 3} + {2, 5} = {4, 5, 7, 8} is a
# length set that no product of realizers has, so level 4 proves it, and
# the witness is the next pair, {2, 3} + {2, 6}.
PROBE_ORACLE_CASES = [
    ("cyclic:3", None, True, (1, 2, 3, 4)),
    ("cyclic:4", None, True, (1, 2, 3, 4)),
    ("cyclic:5", None, True, (1, 2, 3, 4)),
    ("cyclic:6", None, True, (1, 2, 3)),
    ("cyclic:6", (0, 1, 2, 3, 5), True, (1, 2, 3, 4)),
    ("cyclic:6", (1, 3, 5), False, (1, 2, 3, 4)),
    ("cyclic:7", (1, 2, 3, 6), False, (1, 2, 3)),
    ("five_point", None, True, (1, 2, 3, 4)),
    ("four_point", None, False, (1, 2, 3, 4)),
    ("prop713", None, True, (1, 2, 3, 4)),
    ("thm74:2,1", None, False, (1, 2, 3, 4)),
    ("thm74:3,2", None, False, (1, 2, 3, 4)),
    ("frt_t:2", None, False, (1, 2, 3, 4)),
    ("full_box:2", None, True, (1, 2, 3, 4)),
]


@pytest.mark.parametrize(
    "token, piece, with_zero, bounds",
    PROBE_ORACLE_CASES,
    ids=[t if p is None else "%s-piece-%s" % (t, "".join(map(str, p))) for t, p, _, _ in PROBE_ORACLE_CASES],
)
def test_closure_probe_matches_the_level_sweep(token, piece, with_zero, bounds):
    """The probe by realizer products gives the same result, witness
    included, as the probe that reads the level of every sumset's minimum."""
    atomset = enumerate_atoms(parse_preset(token).alphabet)
    if piece is not None:
        atomset = atomset.restrict(piece)
    assert (PackedAtoms(atomset, 0).zero is not None) == with_zero
    memo = {}
    for bound in bounds:
        expected = closure_probe_by_levels(atomset, bound).to_json()
        assert additive_closure_probe(atomset, bound, memo).to_json() == expected, bound


@pytest.mark.parametrize("token", ["prop713", "full_box:2", "thm74:3,2"])
def test_closure_probe_proves_sumsets_by_realizer_products(monkeypatch, token):
    """On these closed presets at bound 4 every sumset with minimum above
    the bound is the length set of a product of two realizers: the probe
    reads no level of its sweep above the bound, and it sends at most 150
    products to ``_lengths``."""
    bound = 4
    atomset = enumerate_atoms(parse_preset(token).alphabet)
    calls = []
    yielded = []

    def counted(packed, block):
        calls.append(block)
        return real_lengths(packed, block)

    def watched(*args, **kwargs):
        for level in real_sweep(*args, **kwargs):
            yielded.append(level)
            yield level

    real_lengths, real_sweep = lengths._lengths, lengths._length_masks
    monkeypatch.setattr(lengths, "_lengths", counted)
    monkeypatch.setattr(lengths, "_length_masks", watched)
    assert additive_closure_probe(atomset, bound).closed_within_bound
    assert len(yielded) <= bound + 1
    assert len(calls) <= 150


def _count_sweep_work(monkeypatch):
    """{"levels": levels of blocks built, "lengths": ``_lengths`` calls}
    of the sweeps in ``invariants``, counted from now on."""
    counts = {"levels": 0, "lengths": 0}
    real_levels, real_lengths = invariants._levels, invariants._lengths

    def levels(atoms):
        for blocks in real_levels(atoms):
            counts["levels"] += 1
            yield blocks

    def counted_lengths(packed, block):
        counts["lengths"] += 1
        return real_lengths(packed, block)

    monkeypatch.setattr(invariants, "_levels", levels)
    monkeypatch.setattr(invariants, "_lengths", counted_lengths)
    return counts


def test_closure_probe_adds_no_memo_entries_to_the_collection(monkeypatch, cyclic5_atoms):
    """The probe reads the levels that collection swept, so after
    ``collect_length_sets`` on the same memo it computes no new length set
    and builds none of levels 0 to 4 again; a sweep of its own over the
    atom 0 would add 587 blocks that hold 0.  Both pack at width 8, and the
    length table of that width is ``memo[(alphabet, 8)]``."""
    counts = _count_sweep_work(monkeypatch)
    memo = {}
    collect_length_sets(cyclic5_atoms, 4, memo)
    table = memo[cyclic5_atoms.alphabet, 8]
    assert len(table) == 1442 and counts["levels"] == 5
    additive_closure_probe(cyclic5_atoms, 4, memo)
    assert len(table) == 1442 and counts["levels"] == 5


def test_realizer_reads_the_kept_sweep(monkeypatch, cyclic5_atoms):
    """After one call at bound 6 that reads level 6, further calls on the
    same memo, for every set with minimum at most 6 drawn from [0, 9],
    build no level and compute no length set; collection at bound 6 on that
    memo gives the same answers, and a set with minimum 7 is None."""
    memo = {}
    assert is_length_set_realized(cyclic5_atoms, {6, 7, 8}, 6, memo) is True
    counts = _count_sweep_work(monkeypatch)
    candidates = [frozenset(t) for r in range(1, 4) for t in combinations(range(10), r) if min(t) <= 6]
    answers = {t: is_length_set_realized(cyclic5_atoms, t, 6, memo) for t in candidates}
    collected = collect_length_sets(cyclic5_atoms, 6, memo)
    assert answers == {t: t in collected for t in candidates}
    assert is_length_set_realized(cyclic5_atoms, {7, 9}, 6, memo) is None
    assert counts == {"levels": 0, "lengths": 0}


def test_negative_bound_is_an_argument_error(cyclic5_atoms):
    with pytest.raises(ArgumentError):
        collect_length_sets(cyclic5_atoms, -1)
    with pytest.raises(ArgumentError):
        additive_closure_probe(cyclic5_atoms, -1)
    with pytest.raises(ArgumentError):
        is_length_set_realized(cyclic5_atoms, {2}, -1)


@pytest.mark.parametrize("lengths_arg", [set(), {-1, 2}])
def test_realizer_rejects_empty_and_negative_sets(cyclic5_atoms, lengths_arg):
    with pytest.raises(ArgumentError):
        is_length_set_realized(cyclic5_atoms, lengths_arg, 4)
