"""End-to-end command line tests via the click test runner."""

import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from krull_arith.cli import JobConfig, main, run_invariants
from krull_arith.presets import parse_preset
from krull_arith.report import canonical_json


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


def test_invariants_deterministic_and_cached(runner, tmp_path):
    args = [
        "--cache-dir",
        str(tmp_path),
        "invariants",
        "--preset",
        "thm74",
        "--r",
        "2",
        "--alpha",
        "1",
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


# sha256 of canonical_json(run_invariants(...)) with the default JobConfig,
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
}


@pytest.mark.parametrize("token", sorted(GOLDEN_REPORTS))
def test_run_invariants_golden(token):
    digest, names = GOLDEN_REPORTS[token]
    data = run_invariants(JobConfig(preset=parse_preset(token)))
    assert [c["name"] for c in data["expectations"]] == names
    assert data["expectations_ok"] is True
    assert hashlib.sha256(canonical_json(data).encode()).hexdigest() == digest


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


def test_transfer_check_prop712_fails_expectation(runner):
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
    result = runner.invoke(
        main, ["preset", "build", "--family", "thm74", "--r", "2", "--alpha", "1"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["name"] == "thm74"
    assert len(data["alphabet"]["elements"]) == 6


def test_preset_build_hypersurface_type(runner):
    result = runner.invoke(
        main, ["preset", "build", "--family", "hypersurface", "--type", "E6"]
    )
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
    result = runner.invoke(main, ["decompose", "--preset", "split1", "--q", "2"])
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


def test_unknown_preset_is_an_error(runner):
    result = runner.invoke(main, ["invariants", "--preset", "nope"])
    assert result.exit_code != 0
    # cyclic has no parameter r, so --r is rejected rather than dropped.
    result = runner.invoke(main, ["preset", "build", "--family", "cyclic:3", "--r", "9"])
    assert result.exit_code != 0


def test_threads_flag_is_gone(runner):
    result = runner.invoke(main, ["--threads", "4", "preset", "list"])
    assert result.exit_code == 2
    assert "No such option" in result.output
