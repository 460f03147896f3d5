"""Closed-form length-set families, progression/AAMP fitting, and the
additive-closure probe.
"""

import pytest

from krull_arith import (
    AAMP,
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
from krull_arith.errors import ArgumentError
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
    assert ok and params["k"] == 0


def test_member_symmetric_rank_family():
    # Single gap d = r + alpha - 2 and m >= 0.
    ok, params = member("thm74:2,1", {4, 5, 6})
    assert ok and params == {"m": 0, "k*": 2}
    assert member("thm74:2,2", {4, 6, 8})[0] is True
    assert member("thm74:2,2", {4, 5})[0] is False
    assert member("thm74:2,1", {0, 1})[0] is False  # m would be negative
    with pytest.raises(ArgumentError):
        member("nonsense", {1})


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
