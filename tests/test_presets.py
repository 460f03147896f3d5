"""Preset alphabets, closed-form factorizations, matrix-defined monoids,
and structural checks (divisor theory, cofinality, decomposition).
"""

import hashlib
import json
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
from krull_arith.report import canonical_json

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


# sha256 of canonical_json(preset.to_json()) followed by the expected dict
# as JSON, per token: every family, every hypersurface type (the kind is read
# case-blind, and E_n with n = 0 is E_n), and both forms of cube.
PRESET_PINS = {
    'thm74:2,1': 'adb646c5e249522ae62d096dcdb57ce232c71963d788f57280ab67bdc131ce6b',
    'thm74:3,2': '1fa980e61fba00d29272507a722c46892b70fcdbab98e15218a34b1d1d82b23f',
    'thm74:1,2': 'c5a238c7bb44f10f67870a278d5557e220f37224c5fd34a460b7887122195afd',
    'thm74:2,3': 'e0d27b9b9c222c90b2506b5475fc2d80da708bc0ee2fbad1aab9cb64b9875a8d',
    'cube:1': '879e42dc00f1fce703d8e4248164fb9e001ae5abc21b5e436e66f1285edc3792',
    'cube:2': 'd29b16f4252d7bdfacb2559e0c9b2776300e59d3b88d4174172a231bf3cc45b9',
    'cube:3': '956bcfe92380a96249abb4086b72c9e3e4aee1af3266a7d758105b327f65be7c',
    'cube:2,false': '80a96a1cb134ece654d9a56292215d9407ee954081a5de186d1869cab5f626e5',
    'cube:1,0': '493dbac942edfe8409689a3fab60df2155c8e37b6bee1f0a1dc4d8a1e94f1f8b',
    'cube:3,true': '956bcfe92380a96249abb4086b72c9e3e4aee1af3266a7d758105b327f65be7c',
    'full_box:1': '2cb68bb36308cb14714439fd0db182eb0cdba5994598f0c9eeba56f36e28de8d',
    'full_box:2': 'd72bd821abf2664faef834143df50a0832764c4cdda6f332990fab697341630a',
    'five_point': '35a2f61515347152ca77824a9c4ed55349ffcca86e95a3ff42766ac554df2ce1',
    'four_point': 'c49f26316d9c1489a880b2d719e6077b0389193fa921a40c154907a8aa24628d',
    'prop713': '410da7e02d7b2f06c1006b7036025ff6c76a3276314c11f444515c8f4be63717',
    'split1:1': '8bac45d940c76e2356e67a6bc1abca61c7e3df20a56d01c663216f543fe3ebe0',
    'split1:2': 'd4f55b7406ce5884089e48d2b2b803fd89f4c0adc29a9ba0f3c4c7cc000eed11',
    'split1:3': '7988ef7342b6589f2299c5b9952a6ca892171a4c09df053f022910f2e0140421',
    'split2:1': '914f2669d32e5ea3c15c40af5a640420e66b1e5cb22fb6f5cfbea846765deabc',
    'split2:2': '973b07974892547e1537c79e97728db24af1f73f0255ad3b6601a5c9aa970d4c',
    'split2:3': '082d8114bb4170a318c4faf7c58ddd9868c5e3582fc26238746125e9cd020f1c',
    'cyclic:2': '80f288407212840c6a0cfbfcc833a1af7c0965ff9d39dc23458ba00206a8c0d1',
    'cyclic:5': 'b415283c41437e4e1e7fb47c5256e6bf2246f66b7052e3154e1b7e0692764df6',
    'frt_t:1': 'c3f6e4fb973341840fd64c4c638780a1ab951287fcd295d556ffd210f7705258',
    'frt_t:2': '91180a787d17e10120a30c42ecfc2c133ad428362b8c8c486066854ef695d760',
    'hypersurface:A,1': '881a2845bc5a824d0d231b903be369c05225c4e1e28a0111fa35d6b160e6f7ec',
    'hypersurface:A,6': 'c5cd77c431ee4697b283c2980a53b39ce8d106bd9f469dbd3abe9f7f89102bb2',
    'hypersurface:D,4': '0effd429e28c66198adaed243898804abcb2a56bcbc47383927431de68bb5b44',
    'hypersurface:D,6': '875021c1ef67943efdb323d44cc111934b17f1eb6e6e7a22ad80f7364ab64c0f',
    'hypersurface:D,16': '0e65842c400def07af937c3b33f3e0a63ad0d26ec80e5d623e09bffdec6dada0',
    'hypersurface:D,5': '12081f367af596a7d1d9270ea2f5ccc1b98deff15c98bfe9723d436bc22c7659',
    'hypersurface:D,7': 'f5fad0d153fd5ede5f41940ff4f19095d756cfdf4db315954ddca18d6471214c',
    'hypersurface:E6': '2dfb2db1d08fb8429d227806c29284e47ac36813984a4de4069c3aa0793e8c22',
    'hypersurface:E7': '2118d44f0180dab68575f0177b7ac2914c93096217dfa4d91db95263c348a5da',
    'hypersurface:E8': '1978d179ab97a380b785534d4af12953098c8e5553f74aa0b588e4d60d2722af',
    'hypersurface:e7': '2118d44f0180dab68575f0177b7ac2914c93096217dfa4d91db95263c348a5da',
    'hypersurface:E6,0': '2dfb2db1d08fb8429d227806c29284e47ac36813984a4de4069c3aa0793e8c22',
}

# The ArgumentError of each malformed token, word for word.
PRESET_ERRORS = {
    'nope': "unknown preset family 'nope'",
    'thm74': "preset 'thm74': the form is thm74:r,alpha",
    'thm74:2': "preset 'thm74:2': the form is thm74:r,alpha",
    'thm74:1,1': 'need r, alpha >= 1 with r + alpha > 2',
    'thm74:0,3': 'need r, alpha >= 1 with r + alpha > 2',
    'cube:0': 'need r >= 1',
    'cube:2,maybe': "preset 'cube:2,maybe': include_zero must be 0, 1, false or true, not 'maybe'",
    'full_box:0': 'need q >= 1',
    'five_point:1': "preset 'five_point:1': the form is five_point",
    'prop713:': "preset 'prop713:': the form is prop713",
    'split1:0': 'need q >= 1',
    'split2:x': "preset 'split2:x': q must be an integer, not 'x'",
    'cyclic:1': 'need n >= 2',
    'cyclic:abc': "preset 'cyclic:abc': n must be an integer, not 'abc'",
    'cyclic:5,': "preset 'cyclic:5,': the form is cyclic:n",
    'cyclic:3,4': "preset 'cyclic:3,4': the form is cyclic:n",
    'frt_t:3': 'spl must be 1 or 2',
    'frt_t:0': 'spl must be 1 or 2',
    'hypersurface': "preset 'hypersurface': the form is hypersurface:kind[,n]",
    'hypersurface:A': 'A_n needs n >= 1',
    'hypersurface:A,0': 'A_n needs n >= 1',
    'hypersurface:D': 'D_n needs n >= 4',
    'hypersurface:D,2': 'D_n needs n >= 4',
    'hypersurface:D,3': 'odd D_n needs n >= 5',
    'hypersurface:D,x': "preset 'hypersurface:D,x': n must be an integer, not 'x'",
    'hypersurface:E6,7': 'hypersurface type E6 takes no n',
    'hypersurface:e7,1': 'hypersurface type E7 takes no n',
    'hypersurface:E8,9': 'hypersurface type E8 takes no n',
    'hypersurface:F4': "unknown hypersurface type 'F4'",
    'hypersurface:b,2': "unknown hypersurface type 'B'",
}


def _expected_json(expected):
    def tagged(value):
        return [type(value).__name__, sorted(value) if isinstance(value, frozenset) else str(value)]

    return json.dumps(expected, sort_keys=True, default=tagged)


@pytest.mark.parametrize("token", sorted(PRESET_PINS))
def test_preset_outputs_are_pinned(token):
    preset = parse_preset(token)
    text = canonical_json(preset.to_json()) + _expected_json(preset.expected)
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_PINS[token]


def test_preset_error_messages_are_pinned():
    for token, message in PRESET_ERRORS.items():
        with pytest.raises(ArgumentError) as err:
            parse_preset(token)
        assert str(err.value) == message, token
