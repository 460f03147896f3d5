"""Preset alphabets, closed-form factorizations, matrix-defined monoids,
and structural checks (divisor theory, cofinality, decomposition).
"""

import random

import pytest

from krull_arith import delta_star, enumerate_atoms, factorize, union_profiles
from krull_arith.errors import ArgumentError, DomainError
from krull_arith.presets import (
    DefiningMatrix,
    Preset,
    build_preset,
    check_cofinal,
    check_divisor_theory,
    decompose,
    fibonacci,
    from_matrix,
    parse_preset,
    preset_families,
)

from conftest import int_alphabet, thm74_block, thm74_closed_form


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
    preset = parse_preset("thm74:3,2")
    assert preset.params == {"r": 3, "alpha": 2}
    preset = parse_preset("hypersurface:E7")
    assert preset.params == {"type": "E7", "n": 0}
    assert parse_preset("hypersurface:D,6").params == {"type": "D", "n": 6}
    # include_zero is a flag: 0/1/true/false give a real bool.
    for token in ("cube:2,false", "cube:2,0"):
        preset = parse_preset(token)
        assert preset.params == {"r": 2, "include_zero": False}
        assert preset.params["include_zero"] is False
        assert len(preset.alphabet) == 6
    assert parse_preset("cube:2,true").params["include_zero"] is True
    assert len(parse_preset("cube:2").alphabet) == 7
    # A missing, extra or malformed argument is an error, never a traceback
    # or a silently kept default.
    for token in (
        "cyclic:abc", "thm74:2", "cube:2,maybe", "cyclic:5,", "cyclic:3,4",
        "thm74", "five_point:1", "hypersurface:D,x", "hypersurface:E6,7",
        "hypersurface:E7,1", "hypersurface:E8,9",
    ):
        with pytest.raises(ArgumentError):
            parse_preset(token)
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


def _patch_milp(monkeypatch, answer):
    """Make scipy.optimize.milp return answer(result of the real solver)."""
    import scipy.optimize

    solve = scipy.optimize.milp
    monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **kw: answer(solve(*a, **kw)))


def test_classes_with_several_primes_pass_the_divisor_theory_check():
    """Every class of hypersurface:E6 carries at least two primes, so each
    passes with no submonoid test."""
    ok, reasons = check_divisor_theory(build_preset("hypersurface", "E6"))
    assert ok and list(reasons.values()) == ["multiple primes in class"] * 3


def test_divisor_theory_refuses_a_corrupted_solver_answer(monkeypatch):
    def corrupted(res):
        res.x[0] += 1
        return res

    _patch_milp(monkeypatch, corrupted)
    with pytest.raises(DomainError):
        check_divisor_theory(build_preset("four_point"))


def test_divisor_theory_solver_failure_is_no_verdict(monkeypatch):
    """A failure other than infeasibility proves nothing either way."""
    from scipy.optimize import OptimizeResult

    def failed(res):
        return OptimizeResult(status=1, success=False, message="time limit reached", x=None)

    _patch_milp(monkeypatch, failed)
    with pytest.raises(DomainError):
        check_divisor_theory(Preset("custom", {}, int_alphabet(-1, 1)))


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


def test_cofinal_and_decompose_read_vectors(monkeypatch):
    # Both take supports from the atom vectors and build no Sequence.  The
    # atom 0 is prime, so {0} is a component of its own.
    from krull_arith.sequences import Sequence

    atomset = enumerate_atoms(parse_preset("cyclic:12").alphabet)
    built = []
    init = Sequence.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Sequence, "__init__", counting_init)
    assert [len(part) for part in decompose(atomset)] == [1, 11]
    assert check_cofinal(atomset)
    assert built == []


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
        for u in union_profiles(ats, 5, memo=memo):
            is_interval = u.members == tuple(range(u.lam, u.rho + 1))
            assert is_interval == expected["unions_are_intervals"]
