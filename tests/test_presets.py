"""Preset alphabets, closed-form factorizations, matrix-defined monoids,
and structural checks (divisor theory, cofinality, decomposition).
"""

import random

import pytest

from krull_arith import delta_star, enumerate_atoms, factorize, unions
from krull_arith.errors import ArgumentError, DomainError
from krull_arith.presets import (
    DefiningMatrix,
    build_preset,
    check_cofinal,
    check_divisor_theory,
    decompose,
    fibonacci,
    from_matrix,
    parse_preset,
    preset_families,
    thm74_block,
    thm74_closed_form,
)

from conftest import int_alphabet


def test_all_families_build():
    tokens = {
        "thm74": ("thm74", 2, 1),
        "cube": ("cube", 2),
        "full_box": ("full_box", 1),
        "five_point": ("five_point",),
        "four_point": ("four_point",),
        "prop713": ("prop713",),
        "split1": ("split1", 1),
        "split2": ("split2", 1),
        "cyclic": ("cyclic", 3),
        "frt_t": ("frt_t", 1),
        "hypersurface": ("hypersurface", "E7"),
    }
    assert sorted(tokens) == preset_families()
    for family, args in tokens.items():
        preset = build_preset(*args)
        assert preset.name == family
        assert len(preset.alphabet) >= 1
        assert "alphabet" in preset.to_json()


def test_parse_preset():
    preset = parse_preset("cyclic:5")
    assert preset.params == {"n": 5}
    preset = parse_preset("thm74:2,1")
    assert preset.params == {"r": 2, "alpha": 1}
    preset = parse_preset("thm74", r=3, alpha=2)
    assert preset.params == {"r": 3, "alpha": 2}
    preset = parse_preset("hypersurface:E7")
    assert preset.params["type"] == "E7"
    # Keyword overrides replace token arguments of the same parameter.
    assert parse_preset("cyclic:3", n=4).params == {"n": 4}
    assert parse_preset("thm74:2,1", alpha=3).params == {"r": 2, "alpha": 3}
    assert parse_preset("hypersurface", kind="E6").params["type"] == "E6"
    assert parse_preset("hypersurface:E7", kind="E6").params["type"] == "E6"
    assert parse_preset("hypersurface:D", n=6).params == {"type": "D", "n": 6}
    with pytest.raises(ArgumentError):
        parse_preset("cyclic:3,4")
    # An override naming no parameter of the family is an error, not ignored.
    with pytest.raises(ArgumentError):
        parse_preset("cyclic:3", r=9)
    with pytest.raises(ArgumentError):
        parse_preset("five_point:1")
    with pytest.raises(ArgumentError):
        parse_preset("no-such-family")
    with pytest.raises(ArgumentError):
        parse_preset("cyclic:1")
    with pytest.raises(ArgumentError):
        parse_preset("thm74:1,1")


@pytest.mark.parametrize("r,alpha", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_symmetric_rank_preset_atoms(r, alpha):
    preset = build_preset("thm74", r, alpha)
    ats = enumerate_atoms(preset.alphabet)
    assert len(ats) == preset.expected["num_atoms"] == r + 3
    assert ats.davenport() == preset.expected["davenport"] == r + alpha


@pytest.mark.parametrize("r,alpha", [(2, 1), (2, 2), (3, 1)])
def test_closed_form_matches_brute(r, alpha):
    preset = build_preset("thm74", r, alpha)
    ats = enumerate_atoms(preset.alphabet)
    rng = random.Random(1000 * r + alpha)
    for _ in range(12):
        q = rng.randrange(0, 3)
        l0 = rng.randrange(0, 4)
        ks_rest = [rng.randrange(0, 4) for _ in range(r)]
        ks = [l0 + alpha * q] + ks_rest
        ls = [l0] + [q + k for k in ks_rest]
        block = thm74_block(preset, ks, ls)
        is_zs, facs, lengths = thm74_closed_form(preset, ks, ls)
        assert is_zs == block.is_zero_sum()
        assert is_zs
        zs = factorize(ats, block)
        brute = {
            frozenset((str(a), m) for a, m in zip(ats.atoms, z.counts) if m)
            for z in zs
        }
        closed = {
            frozenset((str(a), m) for a, m in fac) for fac in facs
        }
        assert closed == brute
        assert lengths == {z.length for z in zs}


def test_closed_form_rejects_non_zero_sum():
    preset = build_preset("thm74", 2, 1)
    is_zs, facs, lengths = thm74_closed_form(preset, [1, 0, 0], [0, 0, 0])
    assert not is_zs and not facs and not lengths
    with pytest.raises(ArgumentError):
        thm74_closed_form(preset, [0, 0, 0], [1, 0, 0])


def test_cube_expected_bounds():
    for r in (1, 2, 3):
        preset = build_preset("cube", r)
        assert preset.expected["davenport_lower_bound"] == fibonacci(r + 2)
    assert fibonacci(5) == 5
    ats3 = enumerate_atoms(build_preset("cube", 3).alphabet)
    assert ats3.davenport() == 5
    assert len(build_preset("cube", 1, include_zero=False).alphabet) == 2


def test_from_matrix():
    matrix = DefiningMatrix(
        2,
        (
            ((1, 0), 1),
            ((0, 1), 1),
            ((1, 1), 1),
            ((-1, 0), 1),
            ((0, -1), 1),
            ((-1, -1), 1),
        ),
    )
    preset = from_matrix(matrix)
    assert preset.name == "from_matrix"
    assert len(preset.alphabet) == 6
    # Same alphabet as the elementary split family with one block.
    split = build_preset("split1", 1)
    assert set(preset.alphabet.elements) == set(split.alphabet.elements)
    with pytest.raises(DomainError):
        from_matrix(DefiningMatrix(2, (((1,), 1),)))
    with pytest.raises(DomainError):
        from_matrix(DefiningMatrix(1, ()))


def test_from_matrix_row_reduce():
    # Third row is the sum of the first two; reduction drops it without
    # changing the kernel, so the atoms agree.
    full = DefiningMatrix(
        3, tuple(((a, b, a + b), 1) for a, b in [(1, 0), (0, 1), (-1, -1), (1, 1)])
    )
    reduced = from_matrix(full, row_reduce=True)
    plain = from_matrix(
        DefiningMatrix(2, tuple(((a, b), 1) for a, b in [(1, 0), (0, 1), (-1, -1), (1, 1)]))
    )
    assert reduced.params["rows"] == 2
    a1 = {tuple(s.mults) for s in enumerate_atoms(reduced.alphabet).atoms}
    a2 = {tuple(s.mults) for s in enumerate_atoms(plain.alphabet).atoms}
    assert a1 == a2


def test_defining_matrix_json():
    matrix = DefiningMatrix(2, (((1, -1), 2), ((0, 3), 1)))
    assert DefiningMatrix.from_json(matrix.to_json()) == matrix


def test_check_divisor_theory():
    # {-e, e}: each element is not generated by the other, so the embedding
    # is a divisor theory in rank one only with both signs present and
    # nothing redundant... here e is not a combination of -e alone.
    bad = build_preset("five_point", )
    ok_bad, reasons = check_divisor_theory(
        type(bad)("custom", {}, int_alphabet(-1, 1))
    )
    assert not ok_bad
    assert all("not generated" in r for r in reasons.values())
    ok_four, _ = check_divisor_theory(build_preset("four_point"))
    assert ok_four
    for r, alpha in [(2, 1), (2, 2), (3, 1)]:
        ok, _ = check_divisor_theory(build_preset("thm74", r, alpha))
        assert ok


def test_check_cofinal():
    assert check_cofinal(enumerate_atoms(build_preset("cyclic", 4).alphabet))
    assert not check_cofinal(enumerate_atoms(int_alphabet(1, 2)))


def test_decompose():
    for q in (1, 2, 3):
        split = build_preset("split1", q)
        parts = decompose(enumerate_atoms(split.alphabet))
        assert len(parts) == q == split.expected["components"]
    parts = decompose(enumerate_atoms(build_preset("thm74", 2, 1).alphabet))
    assert len(parts) == 1
    # An element appearing in no atom becomes its own component.
    from krull_arith import Alphabet, GroupSpec

    spec = GroupSpec(2)
    e1, e2 = spec.basis_element(0), spec.basis_element(1)
    parts = decompose(enumerate_atoms(Alphabet(spec, [e1, -e1, e2])))
    assert len(parts) == 2


@pytest.mark.parametrize("token", ["cyclic:4", "cyclic:5", "cube:2"])
def test_delta_star_and_union_expectations(token):
    # Expectation keys the invariants report does not check: delta* from the
    # same sweep the report runs (bound 4, atom limit 12), U_k for k <= 5.
    preset = parse_preset(token)
    expected = preset.expected
    ats = enumerate_atoms(preset.alphabet)
    memo = {}
    dstar = delta_star(ats, 4, memo=memo, atom_limit=12).value
    keys = {"delta_star_max", "delta_star_second_max", "delta_star_superset",
            "unions_are_intervals"} & set(expected)
    assert keys
    if "delta_star_max" in expected:
        assert max(dstar) == expected["delta_star_max"]
    if "delta_star_second_max" in expected:
        assert max(dstar - {max(dstar)}) == expected["delta_star_second_max"]
    if "delta_star_superset" in expected:
        assert dstar >= expected["delta_star_superset"]
    if "unions_are_intervals" in expected:
        for k in range(1, 6):
            u = unions(ats, k, memo=memo)
            is_interval = u.members == tuple(range(u.lam, u.rho + 1))
            assert is_interval == expected["unions_are_intervals"]
