"""End-to-end command line tests via the click test runner."""

import contextlib
import gc
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

from krull_arith import cli, invariants, report as reporting
from krull_arith.cli import main, run_invariants
from krull_arith.presets import Preset, builtin_map, parse_preset
from krull_arith.report import canonical_json

from conftest import int_alphabet, simplex_alphabet


@pytest.fixture()
def runner():
    return CliRunner()


def test_atoms_command(runner):
    result = runner.invoke(
        main, ["atoms", "--group", '{"free_rank": 1}', "--set", "[[1], [-1]]"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["rendered"] == ["-1 * 1"]
    assert data["davenport"] == 2


def test_atoms_of_a_preset_match_its_alphabet(runner):
    """``atoms --preset`` answers as the preset's alphabet does through
    --group and --set."""
    by_preset = runner.invoke(main, ["atoms", "--preset", "cyclic:5"])
    assert by_preset.exit_code == 0
    alphabet = parse_preset("cyclic:5").alphabet.to_json()
    by_json = runner.invoke(
        main,
        ["atoms", "--group", json.dumps(alphabet["group"]), "--set", json.dumps(alphabet["elements"])],
    )
    assert by_json.exit_code == 0
    assert by_preset.output == by_json.output
    assert json.loads(by_preset.output)["davenport"] == 5


def test_atoms_requires_both_arguments(runner):
    result = runner.invoke(main, ["atoms", "--group", '{"free_rank": 1}'])
    assert result.exit_code != 0


def test_factorize_command(runner):
    result = runner.invoke(
        main, ["factorize", "--preset", "cyclic:3", "--element", "1^3 * 2^3"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["lengths"] == [2, 3]
    assert data["delta"] == [1]
    assert data["catenary"]["c"] == 3
    assert len(data["factorizations"]) == 2
    # Delta(L) is a set: L = {4, 5, 6} has the one distance 1, not [1, 1].
    result = runner.invoke(
        main, ["factorize", "--preset", "cyclic:3", "--element", "1^6 * 2^6"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["lengths"] == [4, 5, 6]
    assert data["delta"] == [1]


def test_invariants_deterministic_and_cached(runner, tmp_path):
    args = [
        "--cache-dir",
        str(tmp_path),
        "invariants",
        "--preset",
        "thm74:2,1",
    ]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    second = runner.invoke(main, args)
    assert second.exit_code == 0
    assert first.output == second.output  # byte-identical, served from cache
    assert any(p.suffix == ".json" for p in tmp_path.iterdir())
    data = json.loads(first.output)
    assert data["expectations_ok"] is True
    assert data["atoms"]["count"] == 5
    names = {c["name"] for c in data["expectations"]}
    assert {"davenport", "delta", "elasticity", "omega", "tame"} <= names


# sha256 of canonical_json(run_invariants(...)) with the default bounds,
# and the names of the report's expectation checks in order.
GOLDEN_REPORTS = {
    "thm74:2,1": (
        "a1b4369543a1da705aa8654781401bc352eb9b47f244a6ff4ddaaeca4f139319",
        ["num_atoms", "davenport", "delta", "elasticity", "catenary",
         "monotone_catenary", "omega", "tame", "lambda_1", "rho_2", "lambda_2",
         "rho_3", "lambda_3", "rho_4", "lambda_4", "rho_5", "lambda_5",
         "min_abs_irred_witness"],
    ),
    "cube:2": (
        "99837bd17c0f723e998f0f0b61392265a5218403d6a7ba8cb879b6af9c6baece",
        ["davenport_lower_bound"],
    ),
    "cyclic:5": (
        "776154fde816d6aa855ae75740048506e05794d7efdb434941472ae9d2115694",
        ["davenport", "delta", "elasticity", "catenary", "omega", "rho_2", "rho_3",
         "rho_4", "rho_5", "lambda_5"],
    ),
    # U_4 and U_5 of the negation-closed C7 come from the search ("enum").
    "cyclic:7": (
        "d5f388eea48e6667066812292d2691aaaee21e67b6bcb9cf2c8d3a754e0bf930",
        ["davenport", "delta", "elasticity", "catenary", "omega", "rho_2", "rho_3",
         "rho_4", "rho_5"],
    ),
    # 27 elements: delta* sweeps the unions of the pairs {g, -g}
    # ("symmetric-subset-sweep"), which no bench preset reaches.
    "cube:3": (
        "a29c231fac72af362241b798671ccece2b81f63f596e7ef8445d62e91e176d55",
        ["davenport_lower_bound"],
    ),
    "cyclic:8": (
        "1d05e2e1dff7d92ce8c5bb21ec6c324c1fba5ef7036768a29f0d4f91f8129b4b",
        ["davenport", "delta", "elasticity", "catenary", "omega", "rho_2", "rho_3",
         "rho_4", "rho_5"],
    ),
    # With thm74:2,1 and cyclic:5 above, these are the report presets of the
    # benchmark, and each digest is the one bench/refs.json holds for it.
    "thm74:3,2": (
        "d3b5519e3787d7618e7db249c7fb24f4d2571364eacda297a988fd45ac606143",
        ["num_atoms", "davenport", "delta", "elasticity", "catenary",
         "monotone_catenary", "omega", "tame", "lambda_1", "rho_2", "lambda_2",
         "rho_3", "lambda_3", "rho_4", "lambda_4", "rho_5", "lambda_5",
         "min_abs_irred_witness"],
    ),
    "cyclic:6": (
        "20a14957f2a2f5665f70322277d69846cc0bba7f80911bf326e00a249f1c6f3e",
        ["davenport", "delta", "elasticity", "catenary", "omega", "rho_2", "rho_3",
         "rho_4", "rho_5"],
    ),
    "full_box:2": ("e5bf0d46e7fe4051a148bb8fdd66a7989d7f1879fbf2e7cd09e52ad0cf573cc0", []),
    "prop713": ("b7c81865af835738d34354ab2106c2a6e4712b148d8d6891f6ade555ac34a887", []),
}


@pytest.mark.parametrize("token", sorted(GOLDEN_REPORTS))
def test_run_invariants_golden(token):
    digest, names = GOLDEN_REPORTS[token]
    data = run_invariants(parse_preset(token))
    assert [c["name"] for c in data["expectations"]] == names
    assert data["expectations_ok"] is True
    assert hashlib.sha256(canonical_json(data).encode()).hexdigest() == digest


def test_run_invariants_golden_with_milp_unions(monkeypatch):
    """The report on {-12, -7, 3, 5, 8} in Z, as --group '{"free_rank": 1}'
    --set '[[-12], [-7], [3], [5], [8]]' gives it: no pair g(-g) is an atom,
    so past ENUM_PRODUCT_GUARD U_4 and U_5 come from the integer programs,
    the only pinned report that reaches them.  Its omega(H) = 17 searches
    42 atoms with D = 17.  The elasticity sweep to k = 8 extends the
    report's U_1, ..., U_5 kept in the memo: one search (U_1..U_3) and five
    MILP unions (U_4..U_8), with 7 integer programs; recomputing U_1..U_5
    would take 2, 7 and 11."""
    calls = {"_union_by_enumeration": 0, "_union_by_milp": 0, "_integer_point": 0}

    def counting(name):
        kernel = getattr(invariants, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(invariants, name, counting(name))
    data = run_invariants(Preset("custom", {}, int_alphabet(-12, -7, 3, 5, 8)))
    inv = data["invariants"]
    assert [inv["unions"][k]["method"] for k in "12345"] == ["enum"] * 3 + ["milp"] * 2
    assert inv["omega"]["value"] == 17 and data["expectations"] == []
    digest = "36712dab1642915725771ec6157e230be8da8678439e7a85bb94783e44d0e93c"
    assert hashlib.sha256(canonical_json(data).encode()).hexdigest() == digest
    assert calls == {"_union_by_enumeration": 1, "_union_by_milp": 5, "_integer_point": 7}


def test_report_exact_flags_follow_the_check_table():
    """The report's "exact" flag of delta, catenary, omega and tame is the
    pass of its check when the preset has one, and the library's flag
    otherwise: False for the sweeps, True for the cover searches."""
    p = parse_preset("cyclic:4")
    p.expected = {"delta": frozenset((7,)), "omega": 99}
    data = run_invariants(p, bound=3, max_k=2)
    checks = {c["name"]: c["pass"] for c in data["expectations"]}
    assert checks == {"delta": False, "omega": False}
    inv = data["invariants"]
    flags = {name: inv[name]["exact"] for name in ("delta", "catenary", "omega", "tame")}
    assert flags == {"delta": False, "catenary": False, "omega": False, "tame": True}
    p.expected = {"delta": frozenset((1, 2)), "catenary": 4, "omega": 4, "tame": 4}
    inv = run_invariants(p, bound=3, max_k=2)["invariants"]
    assert all(inv[name]["exact"] for name in ("delta", "catenary", "omega", "tame"))


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_warm_report_and_report_file_match_the_cold_report(runner, tmp_path, fmt):
    """In every format, the report served from the cache and the file that
    --report writes, cold or warm, hold the bytes of the cold stdout."""
    tail = ["--format", fmt, "invariants", "--preset", "thm74:2,1"]
    runs = [runner.invoke(main, ["--cache-dir", str(tmp_path / "a")] + tail) for _ in range(2)]
    for name in ("cold", "warm"):
        path = tmp_path / name
        runs.append(runner.invoke(main, ["--cache-dir", str(tmp_path / "b")] + tail + ["--report", str(path)]))
        assert runs[-1].stdout_bytes == b""
        runs[-1].stdout_bytes = path.read_bytes()
    assert [r.exit_code for r in runs] == [0] * 4
    assert len({r.stdout_bytes for r in runs}) == 1


def test_truncated_cache_file_is_a_miss(runner, tmp_path, monkeypatch):
    args = ["--cache-dir", str(tmp_path), "invariants", "--preset", "cyclic:4"]
    cold = runner.invoke(main, args)
    (cached,) = tmp_path.glob("*.json")
    text = cached.read_text()
    cached.write_text(text[: len(text) // 2])
    computed = []
    compute = cli.run_invariants
    monkeypatch.setattr(cli, "run_invariants", lambda *a: computed.append(a) or compute(*a))
    again = runner.invoke(main, args)
    assert (again.exit_code, again.output, len(computed)) == (0, cold.output, 1)
    assert cached.read_text() == text


def test_failed_expectation_exits_2_cold_and_warm(runner, tmp_path, monkeypatch):
    """The exit code is read from the report, also when it comes from the
    cache."""
    parse = cli.parse_preset

    def failing(token, **params):
        p = parse(token, **params)
        p.expected = dict(p.expected, omega=99)
        return p

    monkeypatch.setattr(cli, "parse_preset", failing)
    args = ["--cache-dir", str(tmp_path), "invariants", "--preset", "cyclic:4"]
    cold, warm = runner.invoke(main, args), runner.invoke(main, args)
    assert (cold.exit_code, warm.exit_code) == (2, 2)
    assert warm.output == cold.output
    assert json.loads(cold.output)["expectations_ok"] is False


def test_invariants_env_cache(runner, tmp_path):
    env = {"KRULL_ARITH_CACHE": str(tmp_path / "envcache")}
    result = runner.invoke(
        main, ["invariants", "--preset", "cyclic:3"], env=env
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "envcache").is_dir()
    assert list((tmp_path / "envcache").glob("*.json"))


def test_invariants_report_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        [
            "--cache-dir",
            str(tmp_path / "c"),
            "invariants",
            "--preset",
            "cyclic:4",
            "--report",
            str(out),
        ],
    )
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["atoms"]["davenport"] == 4


def test_transfer_check_collapse_meets_expectation(runner):
    result = runner.invoke(main, ["transfer-check", "--map", "builtin:collapse"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["result"]["ok"] is False
    assert data["expectations_ok"] is True


def test_transfer_check_prop712_refuted_without_expectation(runner):
    # On a window wide enough to contain the counterexample the divisor
    # lifting property fails.  A window check can only refute, so the result
    # carries no expectation and the command exits 0.
    result = runner.invoke(
        main, ["--bound", "6", "transfer-check", "--map", "builtin:prop712"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["result"]["surjective_on_window"] is True
    assert data["result"]["divisors_lift_on_window"] is False
    assert "expectations_ok" not in data


def test_transfer_check_passed_window_checks_lengths(runner, tmp_path):
    """prop712 passes the window of size 5, so the command also reports the
    sets of lengths preserved there, by the theorem of ``check_transfer``
    (T2 on the window keeps every length set); the same map read from a
    JSON file gives the same report."""
    result = runner.invoke(main, ["--bound", "5", "transfer-check", "--map", "builtin:prop712"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["result"]["ok"] is True
    assert data["lengths_preserved"] is True and data["length_failures"] == []
    tmap = builtin_map("prop712")
    images = [
        [list(g.coords), list(tmap.target.elements[j].coords)]
        for g, j in zip(tmap.source.elements, tmap.images)
    ]
    path = tmp_path / "prop712.json"
    path.write_text(
        json.dumps({"source": tmap.source.to_json(), "target": tmap.target.to_json(), "images": images})
    )
    result = runner.invoke(main, ["--bound", "5", "transfer-check", "--map", str(path)])
    assert result.exit_code == 0
    from_file = json.loads(result.output)
    assert from_file.pop("map") == str(path)
    data.pop("map")
    assert from_file == data


def test_transfer_check_refuses_a_map_that_breaks_zero_sums(runner):
    """{2, -2} in Z onto {1} in Z, both to 1: 2 * -2 is zero-sum and its
    image 1^2 is not, so theta is no homomorphism of block monoids and the
    command is one error line naming that block, before any length set."""
    tmap = {
        "source": {"group": {"free_rank": 1}, "elements": [[2], [-2]]},
        "target": {"group": {"free_rank": 1}, "elements": [[1]]},
        "images": [[[2], [1]], [[-2], [1]]],
    }
    result = runner.invoke(main, ["--bound", "3", "transfer-check", "--map", json.dumps(tmap)])
    _assert_one_line_error(result)
    assert result.output == "Error: -2 * 2 maps onto 1^2, which is not zero-sum\n"


def _identity_map(elements):
    """The identity map of the subset of Z^r with these coordinates, as
    ``--map`` JSON."""
    alphabet = {"group": {"free_rank": len(elements[0])}, "elements": elements}
    return json.dumps({"source": alphabet, "target": alphabet, "images": [[c, c] for c in elements]})


def test_transfer_check_reads_lengths_from_the_window(runner):
    """The identity map of {1, -1, -100} in Z passes the window of size 4,
    so its sets of lengths are preserved there.  The command lists no atom:
    the atom 1^100 * -100, far outside the window, is above the default
    multiplicity cap."""
    result = runner.invoke(main, ["--bound", "4", "transfer-check", "--map", _identity_map([[1], [-1], [-100]])])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert data["result"]["ok"] is True
    assert data["lengths_preserved"] is True and data["length_failures"] == []


def test_transfer_check_computes_no_atoms_or_lengths(runner, monkeypatch):
    """transfer-check runs the window check and nothing else: with the atom
    step and the length kernel made to raise, the identity map of prop713
    still passes at window 6 with its lengths preserved."""
    from krull_arith import transfer

    def refuse(*args, **kwargs):
        raise AssertionError("transfer-check computed atoms or lengths")

    monkeypatch.setattr(cli, "enumerate_atoms", refuse)
    monkeypatch.setattr(transfer, "_lengths", refuse)
    elements = parse_preset("prop713").alphabet.to_json()["elements"]
    result = runner.invoke(main, ["--bound", "6", "transfer-check", "--map", _identity_map(elements)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["lengths_preserved"] is True


def test_transfer_check_refuses_an_image_outside_the_source(runner):
    """An image pair for 3, which is not in the source {2, -2}, is one error
    line, not a pair silently dropped."""
    tmap = json.loads(_identity_map([[2], [-2]]))
    tmap["images"].append([[3], [2]])
    result = runner.invoke(main, ["--bound", "3", "transfer-check", "--map", json.dumps(tmap)])
    _assert_one_line_error(result)
    assert result.output == "Error: image given for 3, which is outside the source alphabet\n"


def test_transfer_check_unknown_builtin_map(runner):
    result = runner.invoke(main, ["transfer-check", "--map", "builtin:nosuch"])
    _assert_one_line_error(result)
    assert result.output == "Error: unknown built-in map 'nosuch'\n"


def test_failed_expectation_exits_2_with_the_report(runner):
    result = runner.invoke(main, ["--bound", "4", "lengths", "--preset", "prop713", "--family", "C3"])
    assert result.exit_code == 2
    data = json.loads(result.output)
    assert data["expectations_ok"] is False
    assert data["family_misses"][:2] == [[2, 4], [3, 4, 5]]


def test_atom_count_formula_and_brute(runner):
    result = runner.invoke(main, ["atom-count", "--preset", "hypersurface:E7"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["formula_count"] == 11
    assert data["brute_count"] == 11
    assert data["brute_matches_formula"] is True


def test_atom_count_flagged_discrepancy(runner):
    result = runner.invoke(
        main, ["atom-count", "--preset", "hypersurface:D,6"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["formula_count"] == 10
    assert data["claimed_value"] == 11
    assert data["flagged"] is True


def test_atom_count_inline_characteristic(runner):
    char = {
        "group": {"free_rank": 0, "torsion": [2]},
        "classes": [
            {"element": [0], "multiplicity": 5},
            {"element": [1], "multiplicity": 3},
        ],
    }
    result = runner.invoke(main, ["atom-count", "--characteristic", json.dumps(char)])
    assert result.exit_code == 0
    assert json.loads(result.output)["formula_count"] == 11


def test_preset_list_and_build(runner):
    result = runner.invoke(main, ["preset", "list"])
    assert result.exit_code == 0
    families = json.loads(result.output)["families"]
    assert "cyclic" in families and "from_matrix" not in families
    result = runner.invoke(main, ["preset", "build", "--family", "thm74:2,1"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["name"] == "thm74"
    assert len(data["alphabet"]["elements"]) == 6


def test_preset_build_hypersurface_type(runner):
    result = runner.invoke(main, ["preset", "build", "--family", "hypersurface:E6"])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert data["params"] == {"type": "E6", "n": 0}
    assert data["alphabet"]["group"]["torsion"] == [3]


def test_preset_build_from_matrix(runner):
    matrix = {
        "rows": 2,
        "columns": [
            {"vec": [1, 0]},
            {"vec": [0, 1]},
            {"vec": [1, 1]},
            {"vec": [-1, 0]},
            {"vec": [0, -1]},
            {"vec": [-1, -1]},
        ],
    }
    result = runner.invoke(
        main,
        ["preset", "build", "--family", "from_matrix", "--matrix", json.dumps(matrix)],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["name"] == "from_matrix"
    assert len(data["alphabet"]["elements"]) == 6
    result = runner.invoke(main, ["preset", "build", "--family", "from_matrix"])
    assert result.exit_code != 0  # --matrix is required


def test_lengths_command_with_probe(runner):
    result = runner.invoke(
        main,
        ["--bound", "3", "lengths", "--preset", "five_point", "--closure-probe"],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["family"] == "C3"
    assert data["family_misses"] == []
    assert data["closure_probe"]["closed_within_bound"] is True


def test_decompose_command(runner):
    result = runner.invoke(main, ["decompose", "--preset", "split1:2"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["num_components"] == 2
    assert data["cofinal"] is True


def test_divisor_theory_command(runner):
    result = runner.invoke(
        main,
        ["divisor-theory", "--group", '{"free_rank": 1}', "--set", "[[1], [-1]]"],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["is_divisor_theory"] is False
    result = runner.invoke(main, ["divisor-theory", "--preset", "four_point"])
    assert result.exit_code == 0
    assert json.loads(result.output)["is_divisor_theory"] is True


def test_output_formats(runner, tmp_path):
    base = ["--cache-dir", str(tmp_path), "--format"]
    tail = ["invariants", "--preset", "cyclic:3"]
    csv_out = runner.invoke(main, base + ["csv"] + tail)
    assert csv_out.exit_code == 0
    assert csv_out.output.startswith("key,value")
    md_out = runner.invoke(main, base + ["markdown"] + tail)
    assert md_out.exit_code == 0
    assert md_out.output.startswith("| key | value |")


def _assert_one_line_error(result):
    """A package error reaches the user as one ``Error: ...`` line, exit 1."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1
    assert "Traceback" not in result.output


def test_unknown_preset_is_an_error(runner):
    _assert_one_line_error(runner.invoke(main, ["invariants", "--preset", "nope"]))
    # The preset token is the only way to set a family's arguments.
    for option in ("--r", "--alpha", "--n", "--q", "--spl", "--type", "--include-zero"):
        for args in (["invariants", "--preset"], ["preset", "build", "--family"]):
            result = runner.invoke(main, args + ["cyclic:3", option, "9"])
            assert result.exit_code == 2
            assert "No such option '%s'" % option in result.output


@pytest.mark.parametrize("token", ["cyclic:abc", "thm74:2", "cube:2,maybe", "cyclic:5,"])
def test_malformed_preset_token_is_an_error(runner, token):
    _assert_one_line_error(runner.invoke(main, ["invariants", "--preset", token]))
    _assert_one_line_error(runner.invoke(main, ["preset", "build", "--family", token]))


@pytest.mark.parametrize("family", ["thm74:x", "thm74:2", "thm74:0,0"])
def test_malformed_length_family_is_an_error(runner, family):
    result = runner.invoke(main, ["lengths", "--preset", "cyclic:3", "--family", family])
    _assert_one_line_error(result)


@pytest.mark.parametrize("element", ["x", "1^-2", "(a)"])
def test_unparsable_element_is_an_error(runner, element):
    result = runner.invoke(main, ["factorize", "--preset", "cyclic:3", "--element", element])
    _assert_one_line_error(result)
    assert "cannot parse sequence term" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["factorize", "--preset", "cyclic:3", "--element", "1^2"],
        ["atoms", "--group", '{"free_rank": 1}', "--set", "[[1], [-101]]"],
        ["atoms", "--group", '{"free_rank": 1}', "--set", "[[1, 2]]"],
        # Neither inline JSON nor an existing file, and malformed inline JSON.
        ["invariants", "--group", "Z", "--set", "1,2"],
        ["atoms", "--group", '{"free_rank": 1}', "--set", "[[1], [-1]"],
        # Valid JSON of the wrong shape, and numbers that are not integers.
        ["atoms", "--group", "[1]", "--set", "[[1]]"],
        ["atoms", "--group", '{"free_rank": 1}', "--set", "[1, 2]"],
        ["atoms", "--group", '{"free_rank": -1}', "--set", "[[1]]"],
        ["atoms", "--group", '{"torsion": [1]}', "--set", "[[1]]"],
        ["atoms", "--group", '{"free_rank": 1}', "--set", '[["a"]]'],
        ["atoms", "--group", '{"free_rank": 1}', "--set", "[[1.5], [-1]]"],
        ["atom-count", "--characteristic", '{"group": {"torsion": [3]}}'],
        ["preset", "build", "--family", "from_matrix", "--matrix", '{"rows": 1}'],
        [
            "preset", "build", "--family", "from_matrix", "--matrix",
            '{"rows": 1, "columns": [{"vec": [1.5]}, {"vec": [-1]}]}',
        ],
        ["transfer-check", "--map", '{"source": 1}'],
    ],
)
def test_package_errors_are_one_line_click_errors(runner, args):
    _assert_one_line_error(runner.invoke(main, args))


def test_package_error_prints_no_traceback():
    import krull_arith

    src = os.path.dirname(os.path.dirname(os.path.abspath(krull_arith.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "krull_arith.cli", "invariants", "--preset", "nope"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == "Error: unknown preset family 'nope'\n"
    assert proc.stdout == ""


def test_report_cached_under_another_schema_or_version_is_a_miss(runner, tmp_path, monkeypatch):
    args = ["--cache-dir", str(tmp_path), "invariants", "--preset", "cyclic:3"]
    first = runner.invoke(main, args)
    assert first.exit_code == 0
    (cached,) = tmp_path.glob("*.json")
    # A report written by code with another layout: same inputs, other bytes.
    # The cache writes canonical JSON, and a hit prints the file as it is.
    cached.write_text(canonical_json({"stale": True}))
    assert runner.invoke(main, args).output == json.dumps({"stale": True}, indent=2) + "\n"
    monkeypatch.setattr(reporting, "REPORT_SCHEMA", reporting.REPORT_SCHEMA + 1)
    fresh = runner.invoke(main, args)
    assert fresh.exit_code == 0
    assert fresh.output == first.output
    assert len(list(tmp_path.glob("*.json"))) == 2
    # The package version is part of the key too.
    monkeypatch.setattr(cli, "__version__", "0.0.0+other")
    assert runner.invoke(main, args).output == first.output
    assert len(list(tmp_path.glob("*.json"))) == 3


@pytest.mark.parametrize(
    "args",
    [
        [
            "decompose", "--preset", "split1:2",
            "--group", '{"free_rank":1}', "--set", "[[1],[-1]]",
        ],
        ["decompose", "--preset", "split1:2", "--set", "[[1],[-1]]"],
        ["atoms", "--preset", "cyclic:5", "--set", "[[1]]"],
        [
            "atom-count", "--characteristic",
            '{"group": {"torsion": [2]}, "classes": [{"element": [1], "multiplicity": 2}]}',
            "--preset", "hypersurface:E7",
        ],
        [
            "preset", "build", "--family", "cyclic:3",
            "--matrix", '{"rows": 1, "columns": [{"vec": [1], "mult": 1}]}', "--row-reduce",
        ],
        ["preset", "build", "--family", "cyclic:3", "--row-reduce"],
    ],
)
def test_inputs_of_two_kinds_are_a_usage_error(runner, args):
    """--preset with --group or --set, --characteristic with --preset, and
    --matrix or --row-reduce with a family other than from_matrix would
    each answer for an input other than the one typed."""
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Usage:" in result.output and "Error:" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["invariants"], "provide --preset, or --group together with --set"),
        (["atom-count", "--preset", "thm74:2,1"], "preset has no characteristic"),
        (["atom-count"], "provide --characteristic or --preset"),
    ],
)
def test_missing_input_is_a_usage_error(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Usage:" in result.output and message in result.output


def test_delta_star_error_is_a_report_row():
    """An alphabet of 13 to 20 elements that is not negation-closed gets a
    Delta* row naming the error, and the rest of its report."""
    inv = run_invariants(Preset("custom", {}, simplex_alphabet(12)))["invariants"]
    assert inv["delta_star"] == {"error": "restricted delta_star sweep needs a negation-closed alphabet"}
    assert inv["unions"]["5"]["members"] == [5]


def test_threads_flag_is_gone(runner):
    result = runner.invoke(main, ["--threads", "4", "preset", "list"])
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["invariants", "--bound", "3", "--preset", "cube:2"],
        ["lengths", "--bound", "3", "--preset", "cube:2"],
        ["transfer-check", "--bound", "3", "--map", "builtin:collapse"],
    ],
)
def test_bound_is_a_global_option_only(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["lengths", "--preset", "cyclic:5", "--closure-probe"],
        ["transfer-check", "--map", "builtin:collapse"],
    ],
)
def test_negative_bound_is_a_usage_error(runner, args):
    """A negative bound sweeps nothing, so it would report C5 closed and
    the collapse map a transfer homomorphism."""
    result = runner.invoke(main, ["--bound", "-1"] + args)
    assert result.exit_code == 2
    assert "Usage:" in result.output and "--bound" in result.output


def test_negative_max_k_is_a_usage_error(runner, tmp_path):
    """A negative max_k computes no union, so the report would drop every
    rho_k and lambda_k check and the cache would keep it."""
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), "invariants", "--preset", "cyclic:5", "--max-k", "-1"])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "--max-k" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["atoms", "invariants"])
def test_cap_below_one_is_a_usage_error(runner, tmp_path, command):
    """A cap of 0 admits no atom, which is no fault of the input, so it is
    refused before any atom is enumerated, and nothing is cached."""
    result = runner.invoke(main, ["--cache-dir", str(tmp_path), command, "--preset", "cyclic:5", "--cap", "0"])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "--cap" in result.output
    assert "exceeded" not in result.output
    assert not any(tmp_path.iterdir())


def test_global_bound_reaches_the_report(runner, tmp_path):
    result = runner.invoke(
        main, ["--cache-dir", str(tmp_path), "--bound", "3", "invariants", "--preset", "cube:2"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["bounds"]["product_bound"] == 3
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == "0a8ca073da86d7a21fbcdc5aedeab41d4310708a5987970a02820613873ce7e7"


def _readme_commands():
    """The command lines of README's "Command line" section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("krull-arith ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_commands_run(runner, tmp_path, line):
    """Each README command runs: exit 0, or 2 for a failed expectation, and
    no click error or traceback (an option the CLI lost is a usage error)."""
    args = shlex.split(line)[1:]
    if "--cache-dir" in args:
        args[args.index("--cache-dir") + 1] = str(tmp_path)
    else:
        args = ["--cache-dir", str(tmp_path)] + args
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 2), result.output
    assert "Error:" not in result.output and "Traceback" not in result.output


def test_in_process_runs_do_not_keep_the_redirected_stdout(tmp_path):
    # Each in-process run writes its report to a fresh stream; none of them
    # may outlive its run, or memory grows with every run.
    args = ["--cache-dir", str(tmp_path), "invariants", "--preset", "cyclic:3"]
    refs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main.main(args, prog_name="krull-arith", standalone_mode=False)
        assert json.loads(out.getvalue())["atoms"]["count"] == 4
        refs.append(weakref.ref(out))
        del out
    gc.collect()
    assert [r() for r in refs] == [None, None]
