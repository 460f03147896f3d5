"""Command-line front end: one-shot computations over preset or user-supplied
alphabets, with deterministic reports and a content-addressed result cache.

Exit codes: 0 success, 1 error, 2 = computation succeeded but at least one
known closed-form expectation failed (or, from click, a usage error).  A
package error is reported as one ``Error: ...`` line, without a traceback.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import __version__, report as reporting
from .atoms import enumerate_atoms
from .errors import ArgumentError, KrullArithError
from .factorizations import factorize_with_profile
from .groups import GroupSpec
from .invariants import (
    DELTA_STAR_SWEEP_LIMIT,
    delta_of_set,
    delta_set,
    delta_star,
    elasticity,
    json_value,
    min_abs_irred_witness,
    monoid_catenary,
    monoid_omega,
    monoid_tame,
    union_profiles,
)
from .lengths import additive_closure_probe, collect_length_sets, member
from .presets import (
    DefiningMatrix,
    builtin_map,
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
    BRUTE_PRIME_LIMIT,
    Characteristic,
    TransferMap,
    check_transfer,
    count_lifted_atoms,
    count_lifted_atoms_brute,
)

TAME_ATOM_LIMIT = 16


def _json_input(option, value, build):
    """``build`` applied to the JSON given to ``option``: inline JSON or a
    path to a JSON file.  Every number in these inputs (a coordinate, a
    multiplicity, a rank, a modulus or a matrix entry) must be a JSON
    integer.  Input that is not JSON, holds any other scalar, or has the
    wrong shape for ``build`` is an ArgumentError naming the option."""
    text = value = value.strip()
    if not value.startswith(("[", "{")):
        try:
            with open(value) as fh:
                text = fh.read()
        except OSError as exc:
            raise ArgumentError(
                "%s: %r is neither inline JSON nor a readable JSON file: %s"
                % (option, value, exc.strerror)
            ) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArgumentError("%s: %r does not hold valid JSON: %s" % (option, value, exc)) from None
    stack = [data]
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list)):
            stack.extend(item.values() if isinstance(item, dict) else item)
        elif type(item) is not int:
            raise ArgumentError("%s: %s is not an integer" % (option, json.dumps(item)))
    try:
        return build(data)
    except KrullArithError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ArgumentError(
            "%s has the wrong shape (%s: %s)" % (option, type(exc).__name__, exc)
        ) from None


def _check(name, expected, computed):
    """One expectation of the report, rendered like a BoundedResult value.
    ``davenport_lower_bound`` passes when the computed value reaches it."""
    if name == "davenport_lower_bound":
        expected, ok = ">= %s" % expected, computed >= expected
    else:
        expected, computed = json_value(expected), json_value(computed)
        ok = expected == computed
    return {"name": name, "expected": expected, "computed": computed, "pass": ok}


def run_invariants(preset, bound=4, max_k=5, cap=64):
    """Compute the invariant report for one preset; a pure function of its
    arguments, used by both the CLI and the tests.  The check table at its
    end is the only place where a value is compared with the preset's
    expectations."""
    atomset = enumerate_atoms(preset.alphabet, cap=cap)
    memo = {}
    data = {
        "input": preset.to_json(),
        "bounds": {"product_bound": bound, "max_k": max_k, "cap": cap},
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
    inv["delta"] = delta_set(atomset, bound, memo).to_json()
    if len(preset.alphabet) <= DELTA_STAR_SWEEP_LIMIT:
        try:
            inv["delta_star"] = delta_star(atomset, min(bound, 4), memo, atom_limit=12).to_json()
        except KrullArithError as exc:
            inv["delta_star"] = {"error": str(exc)}
    uk = {str(u.k): u.to_json() for u in union_profiles(atomset, max_k, memo=memo)}
    inv["unions"] = uk
    rho = elasticity(atomset, memo=memo)
    inv["elasticity"] = rho.to_json()
    inv["catenary"] = monoid_catenary(atomset, min(bound, 3), memo).to_json()
    inv["omega"] = monoid_omega(atomset, memo).to_json()
    if len(atomset) <= TAME_ATOM_LIMIT:
        inv["tame"] = monoid_tame(atomset, memo).to_json()
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
    for k in range(1, max_k + 1):
        for key in ("rho", "lambda"):
            computed["%s_%d" % (key, k)] = uk[str(k)][key]
            if k in expected.get(key, {}):
                wanted["%s_%d" % (key, k)] = expected[key][k]
    if "min_abs_irred_witness" in expected:
        computed["min_abs_irred_witness"] = min_abs_irred_witness(atomset, memo)[0]
    checks = [
        _check(name, wanted[name], value) for name, value in computed.items() if name in wanted
    ]
    # Report schema 2 (reporting.REPORT_SCHEMA) pins these bytes: there the
    # "exact" flag of these four values is the pass of their check when the
    # preset has one.  ROADMAP item 6 deletes this loop at the schema bump.
    for c in checks:
        if c["name"] in ("delta", "catenary", "omega", "tame"):
            inv[c["name"]]["exact"] = c["pass"]
    data["expectations"] = checks
    data["expectations_ok"] = all(c["pass"] for c in checks)
    return data


def _emit(ctx, data, text=None, out_path=None):
    """Write ``data`` in the chosen format to ``out_path`` or stdout, then
    exit with code 2 when it records a failed expectation.  ``text``, when
    given, is ``data`` as canonical JSON, written as it is for JSON."""
    fmt = ctx.obj["fmt"]
    text = text if text is not None and fmt == "json" else reporting.emit(data, fmt)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        # An explicit stream: without one, click.echo caches a wrapper of
        # sys.stdout in a WeakKeyDictionary whose value is sys.stdout itself,
        # so every stream that stdout was redirected to in-process is kept
        # alive for good.
        click.echo(text, nl=False, file=click.get_text_stream("stdout"))
    if not data.get("expectations_ok", True):
        sys.exit(2)


class _Main(click.Group):
    """The command group; turns a package error raised by any subcommand
    into a click error: one ``Error: ...`` line and exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KrullArithError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.option("--cache-dir", default=None, help="Cache directory (overrides KRULL_ARITH_CACHE).")
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv", "markdown"]), show_default=True)
@click.option("--bound", default=4, type=click.IntRange(min=0), show_default=True, help="Product/size bound of every command that sweeps.")
@click.pass_context
def main(ctx, cache_dir, fmt, bound):
    """Arithmetic of monoids of zero-sum sequences over finitely generated
    abelian groups: atoms, factorizations, and invariants."""
    ctx.ensure_object(dict)
    ctx.obj.update(cache_dir=cache_dir, fmt=fmt, bound=bound)


def _input_options(fn):
    """Give a command --preset, or --group with --set, and pass it the
    resolved Preset as ``p``.  Flags of the other kind of input are a usage
    error, never silently ignored."""

    @click.option("--preset", default=None, help="Preset token, e.g. cyclic:5 or cube:2,false.")
    @click.option("--group", default=None, help="Group spec JSON (inline or file), with --set.")
    @click.option("--set", "elements", default=None, help="Alphabet JSON (inline or file), with --group.")
    @functools.wraps(fn)
    def command(*args, preset, group, elements, **kwargs):
        if preset and (group or elements):
            raise click.UsageError("--preset excludes --group and --set")
        if preset:
            p = parse_preset(preset)
        elif group and elements:
            spec = _json_input("--group", group, GroupSpec.from_json)
            members = _json_input("--set", elements, lambda cs: [spec.element_from_coords(c) for c in cs])
            p = Preset("custom", {}, Alphabet(spec, members))
        else:
            raise click.UsageError("provide --preset, or --group together with --set")
        return fn(*args, p=p, **kwargs)

    return command


@main.command()
@_input_options
@click.option("--cap", default=64, type=click.IntRange(min=1), show_default=True)
@click.pass_context
def atoms(ctx, p, cap):
    """Enumerate the atoms of B(G0) and the Davenport constant."""
    atomset = enumerate_atoms(p.alphabet, cap=cap)
    data = {
        "atoms": [a.to_json() for a in atomset.atoms],
        "rendered": [str(a) for a in atomset.atoms],
        "davenport": atomset.davenport(),
        "alphabet": p.alphabet.to_json(),
    }
    _emit(ctx, data)


@main.command("factorize")
@_input_options
@click.option("--element", required=True, help='Sequence text, e.g. "1^2 * -1^2".')
@click.pass_context
def factorize_cmd(ctx, p, element):
    """Factor one zero-sum sequence and report its catenary data."""
    atomset = enumerate_atoms(p.alphabet)
    block = parse_sequence(p.alphabet, element)
    zs, prof = factorize_with_profile(atomset, block)
    data = {
        "element": str(block),
        "factorizations": [str(z) for z in zs],
        "lengths": list(prof.lengths),
        "delta": sorted(delta_of_set(prof.lengths)),
        "catenary": {
            "c": prof.catenary,
            "c_eq": prof.equal,
            "c_adj": prof.adjacent,
            "c_mon": prof.monotone,
        },
    }
    _emit(ctx, data)


@main.command()
@_input_options
@click.option("--max-k", default=5, type=click.IntRange(min=0), show_default=True)
@click.option("--cap", default=64, type=click.IntRange(min=1), show_default=True)
@click.option("--report", "report_path", default=None, help="Write the report to this path.")
@click.pass_context
def invariants(ctx, p, max_k, cap, report_path):
    """Compute the invariant suite for a preset or custom alphabet."""
    bound = ctx.obj["bound"]
    cache_directory = reporting.cache_dir(ctx.obj["cache_dir"])
    key = reporting.cache_key(
        {
            "command": "invariants",
            "version": __version__,
            "schema": reporting.REPORT_SCHEMA,
            "alphabet": p.alphabet.to_json(),
            "preset": p.to_json(),
            "bound": bound,
            "max_k": max_k,
            "cap": cap,
        }
    )
    hit = reporting.cache_get(cache_directory, key)
    if hit is None:
        data = run_invariants(p, bound, max_k, cap)
        hit = data, reporting.cache_put(cache_directory, key, data)
    _emit(ctx, *hit, out_path=report_path)


@main.command("transfer-check")
@click.option("--map", "map_name", required=True, help="builtin:prop712|prop713 (candidate maps of an external transfer claim; T2 refutes both at --bound >= 6), builtin:collapse (negative control), or a JSON file.")
@click.pass_context
def transfer_check(ctx, map_name):
    """Verify the transfer properties of a map on a bounded window.  A
    window on which divisors lift keeps every set of lengths (proved in
    transfer.check_transfer), so no atom or length set is computed."""
    bound = ctx.obj["bound"]
    name = map_name.removeprefix("builtin:")
    if name != map_name:
        tmap = builtin_map(name)
    else:
        tmap = _json_input("--map", name, TransferMap.from_json)
    result = check_transfer(tmap, bound)
    data = {"map": name, "result": result.to_json()}
    if result.ok:
        data["lengths_preserved"] = True
        data["length_failures"] = []
    # A window check can only refute, so the one expectation is that the
    # negative control fails; prop712/prop713 pass small windows and fail
    # from window 6 on, and neither outcome is expected.
    if map_name == "builtin:collapse":
        data["expectations_ok"] = not result.ok
    _emit(ctx, data)


@main.command("atom-count")
@click.option("--characteristic", "char_path", default=None, help="Characteristic JSON (inline or file).")
@click.option("--preset", default=None, help="hypersurface preset token, e.g. hypersurface:E7.")
@click.pass_context
def atom_count(ctx, char_path, preset):
    """Count the atoms of the monoid given by a characteristic."""
    expected = {}
    if char_path and preset:
        raise click.UsageError("--characteristic excludes --preset")
    if char_path:
        char = _json_input("--characteristic", char_path, Characteristic.from_json)
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
    if total_primes <= BRUTE_PRIME_LIMIT:
        data["brute_count"] = count_lifted_atoms_brute(char)
        data["brute_matches_formula"] = data["brute_count"] == formula
    if "claimed_atom_count" in expected:
        data["claimed_value"] = expected["claimed_atom_count"]
        data["claimed_value_matches"] = expected["claimed_atom_count"] == formula
        data["flagged"] = not data["claimed_value_matches"]
    if "atom_count" in expected:
        data["expectations_ok"] = formula == expected["atom_count"]
    _emit(ctx, data)


@main.group()
def preset():
    """List or build preset alphabets."""


@preset.command("list")
@click.pass_context
def preset_list(ctx):
    data = {"families": preset_families()}
    _emit(ctx, data)


@preset.command("build")
@click.option("--family", required=True, help="Preset token, e.g. thm74:2,1, or from_matrix with --matrix.")
@click.option("--matrix", default=None, help="Matrix JSON {rows, columns:[{vec, mult}]} for from_matrix.")
@click.option("--row-reduce/--no-row-reduce", default=False)
@click.option("--out", default=None)
@click.pass_context
def preset_build(ctx, family, matrix, row_reduce, out):
    if family == "from_matrix":
        if not matrix:
            raise click.UsageError("from_matrix needs --matrix")
        p = from_matrix(_json_input("--matrix", matrix, DefiningMatrix.from_json), row_reduce)
    elif matrix or row_reduce:
        raise click.UsageError("--matrix and --row-reduce need --family from_matrix")
    else:
        p = parse_preset(family)
    _emit(ctx, p.to_json(), out_path=out)


@main.command()
@_input_options
@click.option("--closure-probe/--no-closure-probe", default=False)
@click.option("--family", default=None, help="Check collected length sets against this closed-form family.")
@click.pass_context
def lengths(ctx, p, closure_probe, family):
    """Collect length sets; optionally probe additive closure."""
    bound = ctx.obj["bound"]
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


@main.command("decompose")
@_input_options
@click.pass_context
def decompose_cmd(ctx, p):
    """Finest direct-product decomposition of the block monoid."""
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


@main.command("divisor-theory")
@_input_options
@click.pass_context
def divisor_theory(ctx, p):
    """Check whether the embedding over the prime divisors is a divisor theory."""
    ok, reasons = check_divisor_theory(p)
    data = {
        "input": p.to_json(),
        "is_divisor_theory": ok,
        "reasons": {str(g): why for g, why in sorted(reasons.items(), key=lambda kv: kv[0].key())},
    }
    if "divisor_theory" in p.expected:
        data["expectations_ok"] = ok == p.expected["divisor_theory"]
    _emit(ctx, data)


if __name__ == "__main__":
    main()
