"""Case lists of the three benchmark workloads and the checks on their outputs.

A case is a function ``run(stopwatch) -> (summary, problems)``.  It makes its
calls into krull_arith inside ``with stopwatch:`` blocks, so that only program
work is timed; building inputs and checking outputs happen outside them.
``summary`` is a JSON value compared with the stored reference of the case
(``None`` for seed-drawn inputs, which are checked structurally instead), and
``problems`` lists every check the case failed.

Why each workload exists, and which layers it loads, is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile

# Program functions are called as attributes of the package, so that the
# tracer's wrappers (tracer.py) see the calls made from here.
import krull_arith as ka
from krull_arith import cli

WORKLOADS = ("report", "enumerate", "lengths")

REPORT_PRESETS = ("thm74:2,1", "thm74:3,2", "cyclic:5", "cyclic:6", "full_box:2", "prop713")
ATOM_PRESETS = ("cyclic:11", "cyclic:12")
COUNT_PRESETS = ("hypersurface:D,16", "hypersurface:A,6", "hypersurface:E7")
TRANSFER_MAPS = (("prop713", 8), ("prop712", 12))
PROBE_PRESETS = ("prop713", "cyclic:5")
PROBE_BOUND = 4
UNIONS_PRESET = "cyclic:7"
UNIONS_MAX_K = 5

# Seed-drawn alphabets: RANDOM_ALPHABETS sets {+-v_1, ..., +-v_5} in Z^2 with
# coordinates in [-RANDOM_RADIUS, RANDOM_RADIUS].  The radius keeps their share
# of a pass small, so that the seed changes the inputs but hardly the pass time.
RANDOM_ALPHABETS = 8
RANDOM_PAIRS = 5
RANDOM_RADIUS = 2
# The symmetries of the square other than the identity: unimodular maps that
# keep coordinates in range.
SQUARE_SYMMETRIES = (
    ((0, 1), (1, 0)),
    ((-1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((0, -1), (1, 0)),
    ((0, 1), (-1, 0)),
    ((0, -1), (-1, 0)),
    ((-1, 0), (0, -1)),
)


def sha256_json(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def build(workload, seed, scratch_dir):
    """The workload's cases as (label, run) pairs, in the seed's order.

    Presets and random alphabets are built here, before timing starts.
    ``scratch_dir`` is where the report workload puts its cache directories.
    """
    rng = random.Random(seed)
    if workload == "report":
        # The CLI parses its own presets; they are built here too so that
        # set-up covers the same steps in every workload.
        for token in REPORT_PRESETS:
            ka.parse_preset(token)
        cases = [("report " + t, _report_case(t, scratch_dir)) for t in REPORT_PRESETS]
    elif workload == "enumerate":
        cases = [("atoms " + t, _atoms_case(ka.parse_preset(t))) for t in ATOM_PRESETS]
        for i in range(RANDOM_ALPHABETS):
            vectors, symmetry = _draw_alphabet(rng)
            cases.append(("random %d" % i, _random_atoms_case(vectors, symmetry)))
        cases += [("count " + t, _count_case(ka.parse_preset(t))) for t in COUNT_PRESETS]
        cases += [
            ("transfer %s %d" % (name, bound), _transfer_case(name, bound))
            for name, bound in TRANSFER_MAPS
        ]
    elif workload == "lengths":
        cases = [("probe " + t, _probe_case(ka.parse_preset(t))) for t in PROBE_PRESETS]
        cases.append(("unions " + UNIONS_PRESET, _unions_case(ka.parse_preset(UNIONS_PRESET))))
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(cases)
    return cases


def _report_case(token, scratch_dir):
    """``krull-arith invariants`` with default bounds, cold into a fresh cache
    directory and then warm from it; the two outputs must be byte-identical."""
    args = ["invariants", "--preset", token]

    def invoke(cache_dir):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                cli.main.main(
                    ["--cache-dir", cache_dir] + args,
                    prog_name="krull-arith",
                    standalone_mode=False,
                )
                code = 0
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def run(sw):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch_dir)
        try:
            with sw:
                cold_code, cold = invoke(cache_dir)
                warm_code, warm = invoke(cache_dir)
        finally:
            shutil.rmtree(cache_dir)
        problems = []
        if cold_code or warm_code:
            problems.append("exit codes %s cold, %s warm" % (cold_code, warm_code))
        if warm != cold:
            problems.append("warm report differs from the cold one")
        return {"sha256": hashlib.sha256(cold.encode()).hexdigest()}, problems

    return run


def _atoms_case(preset):
    def run(sw):
        with sw:
            atomset = ka.enumerate_atoms(preset.alphabet)
        mults = [a.mults for a in atomset]
        return {"count": len(mults), "sha256": sha256_json(mults)}, []

    return run


def _draw_alphabet(rng):
    vectors = set()
    while len(vectors) < RANDOM_PAIRS:
        v = (rng.randint(-RANDOM_RADIUS, RANDOM_RADIUS), rng.randint(-RANDOM_RADIUS, RANDOM_RADIUS))
        if v != (0, 0) and (-v[0], -v[1]) not in vectors:
            vectors.add(v)
    vectors = sorted(vectors)
    vectors += [(-x, -y) for x, y in vectors]
    # Negation maps a negation-closed alphabet onto itself, so the count check
    # uses a non-trivial symmetry of Z^2 instead.
    symmetry = rng.choice(SQUARE_SYMMETRIES)
    return vectors, symmetry


def _random_atoms_case(vectors, symmetry):
    """Atoms of a seed-drawn alphabet, checked without trusting the kernel:
    every atom is a nonzero zero-sum vector, no atom divides another, and the
    image of the alphabet under a unimodular map has exactly the images of
    these atoms as its atoms."""
    spec = ka.GroupSpec(2)
    (a, b), (c, d) = symmetry
    mapped = {v: (a * v[0] + b * v[1], c * v[0] + d * v[1]) for v in vectors}
    alphabet = ka.Alphabet(spec, [spec.element_from_coords(v) for v in vectors])
    image = ka.Alphabet(spec, [spec.element_from_coords(w) for w in mapped.values()])

    def as_multisets(atomset):
        coords = [g.coords for g in atomset.alphabet.elements]
        return [
            {coords[i]: m for i, m in enumerate(atom.mults) if m} for atom in atomset
        ]

    def run(sw):
        with sw:
            atomset = ka.enumerate_atoms(alphabet)
            image_atomset = ka.enumerate_atoms(image)
        atoms, image_atoms = as_multisets(atomset), as_multisets(image_atomset)
        problems = []
        for atom in atoms:
            total = [sum(m * v[j] for v, m in atom.items()) for j in (0, 1)]
            if not atom or total != [0, 0]:
                problems.append("atom %s is not a nonzero zero-sum sequence" % atom)
        for i, u in enumerate(atoms):
            for v in atoms[i + 1 :]:
                small, big = (u, v) if sum(u.values()) <= sum(v.values()) else (v, u)
                if all(big.get(g, 0) >= m for g, m in small.items()):
                    problems.append("atom %s divides atom %s" % (small, big))
        keyed = lambda ms: sorted(sorted(m.items()) for m in ms)
        if keyed({mapped[g]: m for g, m in atom.items()} for atom in atoms) != keyed(image_atoms):
            problems.append(
                "the images of the %d atoms under %s are not the %d atoms of the image"
                % (len(atoms), symmetry, len(image_atoms))
            )
        return None, problems

    return run


def _count_case(preset):
    """Lifted-atom count by the multiset formula and by labelled-prime brute
    force; the two must agree."""
    char = preset.characteristic

    def run(sw):
        with sw:
            formula = ka.count_lifted_atoms(char, ka.enumerate_atoms(char.support_alphabet()))
            brute = ka.count_lifted_atoms_brute(char)
        problems = [] if formula == brute else ["formula %d != brute %d" % (formula, brute)]
        return {"formula": formula, "brute": brute}, problems

    return run


def _transfer_case(name, bound):
    tmap = ka.builtin_map(name)

    def run(sw):
        with sw:
            result = ka.check_transfer(tmap, bound)
        return result.to_json(), []

    return run


def _probe_case(preset):
    """Length sets of all products of at most PROBE_BOUND atoms, then the
    additive-closure probe over them, sharing one memo."""

    def run(sw):
        with sw:
            atomset = ka.enumerate_atoms(preset.alphabet)
            memo = {}
            sets = ka.collect_length_sets(atomset, PROBE_BOUND, memo)
            probe = ka.additive_closure_probe(atomset, PROBE_BOUND, memo)
        sets = sorted(sorted(s) for s in sets)
        summary = {"length_sets": len(sets), "sha256": sha256_json(sets), "probe": probe.to_json()}
        return summary, []

    return run


def _unions_case(preset):
    """U_k for k = 1..UNIONS_MAX_K, sharing one memo; rho_k and lambda_k must
    also match the preset's closed-form expectations where it has them."""

    def run(sw):
        with sw:
            atomset = ka.enumerate_atoms(preset.alphabet)
            memo = {}
            profiles = [ka.unions(atomset, k, memo=memo) for k in range(1, UNIONS_MAX_K + 1)]
        problems = []
        for p in profiles:
            for key, value in (("rho", p.rho), ("lambda", p.lam)):
                expected = preset.expected.get(key, {}).get(p.k)
                if expected is not None and expected != value:
                    problems.append("%s_%d = %d, expected %d" % (key, p.k, value, expected))
        summary = {
            "rho": [p.rho for p in profiles],
            "lambda": [p.lam for p in profiles],
            "members_sha256": sha256_json([list(p.members) for p in profiles]),
        }
        return summary, problems

    return run
