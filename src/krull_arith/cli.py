"""Command-line front end: one-shot computations over preset or user-supplied
alphabets, with deterministic reports and a content-addressed result cache.

Exit codes: 0 success, 1 error, 2 = computation succeeded but at least one
known closed-form expectation failed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import click

from . import report as reporting
from .atoms import enumerate_atoms
from .errors import KrullArithError
from .factorizations import catenary_profile, factorize
from .groups import GroupSpec
from .invariants import (
    delta_set,
    delta_star,
    elasticity,
    min_abs_irred_witness,
    monoid_catenary,
    monoid_omega,
    monoid_tame,
    unions,
)
from .lengths import additive_closure_probe, collect_length_sets, member
from .presets import (
    DefiningMatrix,
    check_cofinal,
    check_divisor_theory,
    decompose,
    from_matrix,
    parse_preset,
    preset_families,
    Preset,
)
from .sequences import Alphabet, parse_sequence
from .transfer import (
    Characteristic,
    TransferMap,
    builtin_map,
    check_transfer,
    count_lifted_atoms,
    count_lifted_atoms_brute,
    lengths_preserved,
)

TAME_ATOM_LIMIT = 16


@dataclass
class JobConfig:
    preset: object = None
    bound: int = 4
    max_k: int = 5
    cap: int = 64


def _load_json_arg(value):
    """Inline JSON or a path to a JSON file."""
    value = value.strip()
    if value.startswith(("[", "{")):
        return json.loads(value)
    with open(value) as fh:
        return json.load(fh)


def _alphabet_from_args(group, elements):
    spec = GroupSpec.from_json(_load_json_arg(group))
    coords = _load_json_arg(elements)
    return Alphabet(spec, [spec.element_from_coords(c) for c in coords])


def _resolve_input(preset, group, elements, **params):
    if preset:
        return parse_preset(preset, **params)
    if group and elements:
        return Preset("custom", {}, _alphabet_from_args(group, elements))
    raise click.UsageError("provide --preset, or --group together with --set")


def _fraction_json(value):
    if isinstance(value, Fraction):
        return {"numerator": value.numerator, "denominator": value.denominator}
    return value


def _compare(name, expected, computed):
    if isinstance(expected, frozenset):
        expected = sorted(expected)
    if isinstance(computed, frozenset):
        computed = sorted(computed)
    return {
        "name": name,
        "expected": _fraction_json(expected),
        "computed": _fraction_json(computed),
        "pass": expected == computed,
    }


def _compare_ge(name, lower, computed):
    return {
        "name": name,
        "expected": ">= %s" % lower,
        "computed": computed,
        "pass": computed >= lower,
    }


def run_invariants(config):
    """Compute the invariant report for one alphabet; pure function of the
    config, used by both the CLI and the tests."""
    preset = config.preset
    atomset = enumerate_atoms(preset.alphabet, cap=config.cap)
    memo = {}
    data = {
        "input": preset.to_json(),
        "bounds": {"product_bound": config.bound, "max_k": config.max_k, "cap": config.cap},
        # The program runs on one thread.  The field stays because the pinned
        # report hashes in bench/refs.json cover these bytes.
        "threads": 1,
        "atoms": {
            "count": len(atomset),
            "davenport": atomset.davenport(),
            "list": [str(a) for a in atomset.atoms],
        },
    }
    expected = preset.expected
    inv = {}
    inv["delta"] = delta_set(
        atomset, config.bound, expected.get("delta"), memo
    ).to_json()
    if len(preset.alphabet) <= 20:
        try:
            inv["delta_star"] = delta_star(
                atomset, min(config.bound, 4), None, memo, atom_limit=12
            ).to_json()
        except KrullArithError as exc:
            inv["delta_star"] = {"error": str(exc)}
    uk = {}
    for k in range(1, config.max_k + 1):
        uk[str(k)] = unions(atomset, k, memo=memo).to_json()
    inv["unions"] = uk
    rho = elasticity(atomset, memo=memo)
    inv["elasticity"] = rho.to_json()
    inv["catenary"] = monoid_catenary(
        atomset, min(config.bound, 3), expected.get("catenary")
    ).to_json()
    inv["omega"] = monoid_omega(atomset, expected.get("omega")).to_json()
    if len(atomset) <= TAME_ATOM_LIMIT:
        inv["tame"] = monoid_tame(atomset, expected.get("tame"), memo).to_json()
    else:
        inv["tame"] = {"skipped": "atom count above tame enumeration threshold"}
    data["invariants"] = inv

    # The computed value behind each expectation key, in report order.
    computed = {
        "num_atoms": len(atomset),
        "davenport": atomset.davenport(),
        "davenport_lower_bound": atomset.davenport(),
        "delta": frozenset(inv["delta"]["value"]),
        "elasticity": rho.value,
        "catenary": inv["catenary"]["value"]["catenary"],
        "monotone_catenary": inv["catenary"]["value"]["monotone"],
        "omega": inv["omega"]["value"],
    }
    if "value" in inv["tame"]:
        computed["tame"] = inv["tame"]["value"]
    wanted = dict(expected)
    for k in range(1, config.max_k + 1):
        for key in ("rho", "lambda"):
            computed["%s_%d" % (key, k)] = uk[str(k)][key]
            if k in expected.get(key, {}):
                wanted["%s_%d" % (key, k)] = expected[key][k]
    if "min_abs_irred_witness" in expected:
        computed["min_abs_irred_witness"] = min_abs_irred_witness(atomset, memo)[0]
    checks = [
        (_compare_ge if name == "davenport_lower_bound" else _compare)(
            name, wanted[name], value
        )
        for name, value in computed.items()
        if name in wanted
    ]
    data["expectations"] = checks
    data["expectations_ok"] = all(c["pass"] for c in checks)
    return data


def _emit(ctx, data, out_path=None):
    fmt = ctx.obj["fmt"]
    text = reporting.emit(data, fmt)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _exit_on_expectations(data):
    if not data.get("expectations_ok", True):
        sys.exit(2)


@click.group()
@click.option("--cache-dir", default=None, help="Cache directory (overrides KRULL_ARITH_CACHE).")
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv", "markdown"]), show_default=True)
@click.option("--bound", default=4, show_default=True, help="Default product/size bound.")
@click.pass_context
def main(ctx, cache_dir, fmt, bound):
    """Arithmetic of monoids of zero-sum sequences over finitely generated
    abelian groups: atoms, factorizations, and invariants."""
    ctx.ensure_object(dict)
    ctx.obj.update(cache_dir=cache_dir, fmt=fmt, bound=bound)


_PARAM_OPTIONS = [
    click.option("--r", "r", type=int, default=None),
    click.option("--alpha", type=int, default=None),
    click.option("--n", type=int, default=None),
    click.option("--q", type=int, default=None),
    click.option("--spl", type=int, default=None),
    click.option("--type", "kind", default=None),
    click.option("--include-zero/--no-include-zero", "include_zero", default=None),
]


def _with_params(fn):
    for opt in reversed(_PARAM_OPTIONS):
        fn = opt(fn)
    return fn


@main.command()
@click.option("--group", required=True, help="Group spec JSON.")
@click.option("--set", "elements", required=True, help="Alphabet JSON (inline or file).")
@click.option("--cap", default=64, show_default=True)
@click.pass_context
def atoms(ctx, group, elements, cap):
    """Enumerate the atoms of B(G0) and the Davenport constant."""
    alphabet = _alphabet_from_args(group, elements)
    atomset = enumerate_atoms(alphabet, cap=cap)
    data = {
        "atoms": [a.to_json() for a in atomset.atoms],
        "rendered": [str(a) for a in atomset.atoms],
        "davenport": atomset.davenport(),
        "alphabet": alphabet.to_json(),
    }
    _emit(ctx, data)


@main.command()
@click.option("--preset", default=None)
@click.option("--group", default=None)
@click.option("--set", "elements", default=None)
@click.option("--element", required=True, help='Sequence text, e.g. "1^2 * -1^2".')
@_with_params
@click.pass_context
def factorize_cmd(ctx, preset, group, elements, element, **params):
    """Factor one zero-sum sequence and report its catenary data."""
    p = _resolve_input(preset, group, elements, **params)
    atomset = enumerate_atoms(p.alphabet)
    block = parse_sequence(p.alphabet, element)
    zs = factorize(atomset, block)
    prof = catenary_profile(atomset, block)
    lengths = sorted({z.length for z in zs})
    data = {
        "element": str(block),
        "factorizations": [str(z) for z in zs],
        "lengths": lengths,
        "delta": [b - a for a, b in zip(lengths, lengths[1:])],
        "catenary": {
            "c": prof.catenary,
            "c_eq": prof.equal,
            "c_adj": prof.adjacent,
            "c_mon": prof.monotone,
        },
    }
    _emit(ctx, data)


main.add_command(factorize_cmd, name="factorize")


@main.command()
@click.option("--preset", default=None)
@click.option("--group", default=None)
@click.option("--set", "elements", default=None)
@click.option("--bound", default=None, type=int, help="Product bound (default: global --bound).")
@click.option("--max-k", default=5, show_default=True)
@click.option("--cap", default=64, show_default=True)
@click.option("--report", "report_path", default=None, help="Write the report to this path.")
@click.option("--timing/--no-timing", default=False, help="Include wall-clock timing (breaks byte-identical reports).")
@_with_params
@click.pass_context
def invariants(ctx, preset, group, elements, bound, max_k, cap, report_path, timing, **params):
    """Compute the invariant suite for a preset or custom alphabet."""
    import time

    p = _resolve_input(preset, group, elements, **params)
    config = JobConfig(
        preset=p,
        bound=bound if bound is not None else ctx.obj["bound"],
        max_k=max_k,
        cap=cap,
    )
    cache_directory = reporting.cache_dir(ctx.obj["cache_dir"])
    key = reporting.cache_key(
        {
            "command": "invariants",
            "alphabet": p.alphabet.to_json(),
            "preset": p.to_json(),
            "bound": config.bound,
            "max_k": config.max_k,
            "cap": config.cap,
        }
    )
    data = reporting.cache_get(cache_directory, key)
    if data is None:
        start = time.monotonic()
        data = run_invariants(config)
        elapsed = time.monotonic() - start
        reporting.cache_put(cache_directory, key, data)
    else:
        elapsed = 0.0
    if timing:
        data = dict(data)
        data["timing_seconds"] = round(elapsed, 3)
    _emit(ctx, data, report_path)
    _exit_on_expectations(data)


@main.command("transfer-check")
@click.option("--map", "map_name", required=True, help="builtin:prop712|prop713 (candidate maps of an external transfer claim; T2 refutes both at --bound >= 6), builtin:collapse (negative control), or a JSON file.")
@click.option("--bound", default=None, type=int)
@click.pass_context
def transfer_check(ctx, map_name, bound):
    """Verify the transfer properties of a map on a bounded window."""
    bound = bound if bound is not None else ctx.obj["bound"]
    name = map_name.split(":", 1)[1] if map_name.startswith("builtin:") else map_name
    if name in ("prop712", "prop713", "collapse"):
        tmap = builtin_map(name)
    else:
        raw = _load_json_arg(name)
        source = Alphabet.from_json(raw["source"])
        target = Alphabet.from_json(raw["target"])
        images = {
            source.spec.element_from_coords(pair[0]): target.spec.element_from_coords(pair[1])
            for pair in raw["images"]
        }
        tmap = TransferMap(source, target, images)
    result = check_transfer(tmap, bound)
    data = {"map": name, "result": result.to_json()}
    if result.ok:
        src_atoms = enumerate_atoms(tmap.source)
        tgt_atoms = enumerate_atoms(tmap.target)
        ok, failures = lengths_preserved(tmap, src_atoms, tgt_atoms, bound)
        data["lengths_preserved"] = ok
        data["length_failures"] = [str(f[0]) for f in failures]
    # A window check can only refute, so the one expectation is that the
    # negative control fails; prop712/prop713 pass small windows and fail
    # from window 6 on, and neither outcome is expected.
    expectations = {"collapse": False}
    if name in expectations:
        data["expectations_ok"] = result.ok == expectations[name]
    _emit(ctx, data)
    _exit_on_expectations(data)


@main.command("atom-count")
@click.option("--characteristic", "char_path", default=None, help="Characteristic JSON (inline or file).")
@click.option("--preset", default=None, help="hypersurface preset token, e.g. hypersurface:E7.")
@click.option("--brute-limit", default=40, show_default=True, help="Skip brute force above this many labelled primes.")
@click.pass_context
def atom_count(ctx, char_path, preset, brute_limit):
    """Count the atoms of the monoid given by a characteristic."""
    expected = {}
    if char_path:
        char = Characteristic.from_json(_load_json_arg(char_path))
    elif preset:
        p = parse_preset(preset)
        if p.characteristic is None:
            raise click.UsageError("preset has no characteristic")
        char = p.characteristic
        expected = p.expected
    else:
        raise click.UsageError("provide --characteristic or --preset")
    atomset = enumerate_atoms(char.support_alphabet())
    formula = count_lifted_atoms(char, atomset)
    total_primes = sum(m for _, m in char.classes)
    data = {
        "characteristic": char.to_json(),
        "formula_count": formula,
        "block_atoms": len(atomset),
    }
    if total_primes <= brute_limit:
        data["brute_count"] = count_lifted_atoms_brute(char)
        data["brute_matches_formula"] = data["brute_count"] == formula
    if "claimed_atom_count" in expected:
        data["claimed_value"] = expected["claimed_atom_count"]
        data["claimed_value_matches"] = expected["claimed_atom_count"] == formula
        data["flagged"] = not data["claimed_value_matches"]
    if "atom_count" in expected:
        data["expectations_ok"] = formula == expected["atom_count"]
    _emit(ctx, data)
    _exit_on_expectations(data)


@main.group()
def preset():
    """List or build preset alphabets."""


@preset.command("list")
@click.pass_context
def preset_list(ctx):
    data = {"families": preset_families()}
    _emit(ctx, data)


@preset.command("build")
@click.option("--family", required=True)
@click.option("--matrix", default=None, help="Matrix JSON {rows, columns:[{vec, mult}]} for from_matrix.")
@click.option("--row-reduce/--no-row-reduce", default=False)
@click.option("--out", default=None)
@_with_params
@click.pass_context
def preset_build(ctx, family, matrix, row_reduce, out, **params):
    if family == "from_matrix":
        if not matrix:
            raise click.UsageError("from_matrix needs --matrix")
        p = from_matrix(DefiningMatrix.from_json(_load_json_arg(matrix)), row_reduce)
    else:
        p = parse_preset(family, **params)
    _emit(ctx, p.to_json(), out)


@main.command()
@click.option("--preset", "preset_token", default=None)
@click.option("--group", default=None)
@click.option("--set", "elements", default=None)
@click.option("--closure-probe/--no-closure-probe", default=False)
@click.option("--family", default=None, help="Check collected length sets against this closed-form family.")
@click.option("--bound", default=None, type=int)
@_with_params
@click.pass_context
def lengths(ctx, preset_token, group, elements, closure_probe, family, bound, **params):
    """Collect length sets; optionally probe additive closure."""
    p = _resolve_input(preset_token, group, elements, **params)
    bound = bound if bound is not None else ctx.obj["bound"]
    atomset = enumerate_atoms(p.alphabet)
    memo = {}
    data = {"input": p.to_json(), "bound": bound}
    collected = sorted(
        collect_length_sets(atomset, bound, memo), key=lambda s: (min(s), sorted(s))
    )
    data["length_sets"] = [sorted(s) for s in collected]
    family = family or p.expected.get("length_family")
    if family:
        misses = [sorted(s) for s in collected if not member(family, s)[0]]
        data["family"] = family
        data["family_misses"] = misses
        data["expectations_ok"] = not misses
    if closure_probe:
        data["closure_probe"] = additive_closure_probe(atomset, bound, memo).to_json()
    _emit(ctx, data)
    _exit_on_expectations(data)


@main.command("decompose")
@click.option("--preset", "preset_token", default=None)
@click.option("--group", default=None)
@click.option("--set", "elements", default=None)
@_with_params
@click.pass_context
def decompose_cmd(ctx, preset_token, group, elements, **params):
    """Finest direct-product decomposition of the block monoid."""
    p = _resolve_input(preset_token, group, elements, **params)
    atomset = enumerate_atoms(p.alphabet)
    parts = decompose(atomset)
    data = {
        "input": p.to_json(),
        "components": [[str(g) for g in part] for part in parts],
        "num_components": len(parts),
        "cofinal": check_cofinal(atomset),
    }
    if "components" in p.expected:
        data["expectations_ok"] = len(parts) == p.expected["components"]
    _emit(ctx, data)
    _exit_on_expectations(data)


@main.command("divisor-theory")
@click.option("--preset", "preset_token", default=None)
@click.option("--group", default=None)
@click.option("--set", "elements", default=None)
@_with_params
@click.pass_context
def divisor_theory(ctx, preset_token, group, elements, **params):
    """Check whether the embedding over the prime divisors is a divisor theory."""
    p = _resolve_input(preset_token, group, elements, **params)
    ok, reasons = check_divisor_theory(p)
    data = {
        "input": p.to_json(),
        "is_divisor_theory": ok,
        "reasons": {str(g): why for g, why in sorted(reasons.items(), key=lambda kv: kv[0].key())},
    }
    if "divisor_theory" in p.expected:
        data["expectations_ok"] = ok == p.expected["divisor_theory"]
    _emit(ctx, data)
    _exit_on_expectations(data)


if __name__ == "__main__":
    main()
