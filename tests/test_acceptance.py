"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every numeric target is an exact integer (or exact rational) equality; swept
quantities use the product bounds stated inline.  Each test prints a single
"criterion N: PASS/FAIL" line before asserting so the transcript always shows
the outcome of every criterion.
"""

import random
from fractions import Fraction

from krull_arith import (
    additive_closure_probe,
    c3_set,
    c4_set_ap2,
    c4_set_interval,
    delta_of_set,
    distance,
    enumerate_atoms,
    factorize,
    is_length_set_realized,
    lengths_of,
    member,
    min_abs_irred_witness,
    sumset,
)
from krull_arith.factorizations import catenary_profile
from krull_arith.invariants import (
    delta_set,
    delta_star,
    elasticity,
    monoid_catenary,
    monoid_omega,
    monoid_tame,
    unions,
)
from krull_arith.presets import (
    build_preset,
    check_divisor_theory,
    decompose,
    fibonacci,
    thm74_block,
    thm74_closed_form,
)
from krull_arith.transfer import (
    builtin_map,
    check_transfer,
    count_lifted_atoms,
    count_lifted_atoms_brute,
    lengths_preserved,
)
from conftest import int_alphabet

TAME_ATOM_LIMIT = 16


def _report(num, ok, detail):
    print("criterion %d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def _add(problems, ok, label):
    if not ok:
        problems.append(label)
    return ok


def test_criterion_1_symmetric_rank_suite():
    """Full invariant suite for the symmetric rank presets."""
    problems = []
    for r, alpha in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        tag = "(%d,%d)" % (r, alpha)
        d = r + alpha
        preset = build_preset("thm74", r, alpha)
        ats = enumerate_atoms(preset.alphabet)
        memo = {}
        _add(problems, len(ats) == r + 3, tag + " atom count")
        _add(problems, ats.davenport() == d, tag + " davenport")
        _add(
            problems,
            delta_set(ats, 6, {d - 2}, memo).value == frozenset((d - 2,)),
            tag + " delta",
        )
        cat = monoid_catenary(ats, 3, d).value
        _add(problems, cat["catenary"] == d, tag + " catenary")
        _add(problems, cat["monotone"] == d, tag + " monotone catenary")
        _add(problems, monoid_omega(ats).value == d, tag + " omega")
        _add(problems, monoid_tame(ats, None, memo).value == d, tag + " tame")
        for k in range(1, 4):
            _add(
                problems,
                unions(ats, 2 * k, memo=memo).rho == k * d,
                tag + " rho_%d" % (2 * k),
            )
            _add(
                problems,
                unions(ats, 2 * k + 1, memo=memo).rho == k * d + 1,
                tag + " rho_%d" % (2 * k + 1),
            )
        for l in range(3):
            for j in range(d):
                idx = l * d + j
                if idx < 1:
                    continue
                _add(
                    problems,
                    unions(ats, idx, memo=memo).lam == 2 * l + j,
                    tag + " lambda_%d" % idx,
                )
    ok = _report(
        1,
        not problems,
        "symmetric rank presets (2,1),(2,2),(3,1),(3,2): atoms, D, delta, "
        "catenary, omega, tame, rho/lambda tables"
        + ("; failed: %s" % ", ".join(problems) if problems else ""),
    )
    assert ok, problems


def _closed_form_matches(preset, ats, ks, ls):
    block = thm74_block(preset, ks, ls)
    is_zs, facs, lengths = thm74_closed_form(preset, ks, ls)
    if is_zs != block.is_zero_sum():
        return False
    if not is_zs:
        return True
    zs = factorize(ats, block)
    brute = {
        frozenset((str(a), m) for a, m in zip(ats.atoms, z.counts) if m) for z in zs
    }
    closed = {frozenset((str(a), m) for a, m in fac) for fac in facs}
    return closed == brute and lengths == {z.length for z in zs}


def test_criterion_2_closed_form_oracle_equivalence():
    """Brute-force Z(B)/L(B) equal the closed forms on random blocks."""
    problems = []
    for r, alpha in [(2, 1), (2, 2)]:
        preset = build_preset("thm74", r, alpha)
        ats = enumerate_atoms(preset.alphabet)
        rng = random.Random(7400 + 10 * r + alpha)
        done = 0
        while done < 50:
            q = rng.randrange(0, 3)
            l0 = rng.randrange(0, 4)
            rest = [rng.randrange(0, 4) for _ in range(r)]
            ks = [l0 + alpha * q] + rest
            ls = [l0] + [q + k for k in rest]
            if sum(ks) + sum(ls) > 14:
                continue
            if not _closed_form_matches(preset, ats, ks, ls):
                problems.append("(%d,%d) ks=%s ls=%s" % (r, alpha, ks, ls))
            done += 1
        # Arbitrary exponent vectors: the zero-sum verdicts must agree too.
        for _ in range(20):
            ks = [rng.randrange(0, 4) for _ in range(r + 1)]
            ls = [rng.randrange(0, 4) for _ in range(r + 1)]
            if ks[0] < ls[0]:
                ks, ls = ls, ks
            if sum(ks) + sum(ls) > 14 or sum(ks) + sum(ls) == 0:
                continue
            if not _closed_form_matches(preset, ats, ks, ls):
                problems.append("(%d,%d) ks=%s ls=%s" % (r, alpha, ks, ls))
    ok = _report(
        2,
        not problems,
        "50 random blocks per preset, |B| <= 14: brute Z(B)/L(B) == closed form"
        + ("; failed: %s" % ", ".join(problems[:5]) if problems else ""),
    )
    assert ok, problems


def test_criterion_3_cyclic_suite():
    """Full invariant suite over the whole cyclic group of order 3..7."""
    problems = []
    for n in range(3, 8):
        tag = "n=%d" % n
        preset = build_preset("cyclic", n)
        ats = enumerate_atoms(preset.alphabet)
        memo = {}
        _add(problems, ats.davenport() == n, tag + " davenport")
        _add(problems, monoid_omega(ats).value == n, tag + " omega")
        _add(
            problems,
            monoid_catenary(ats, 2).value["catenary"] == n,
            tag + " catenary",
        )
        _add(
            problems,
            delta_set(ats, 3, memo=memo).value == frozenset(range(1, n - 1)),
            tag + " delta",
        )
        _add(
            problems,
            unions(ats, 2, memo=memo).members == tuple(range(2, n + 1)),
            tag + " U_2",
        )
        for k in (1, 2):
            for j in (0, 1):
                idx = 2 * k + j
                _add(
                    problems,
                    unions(ats, idx, memo=memo).rho == k * n + j,
                    tag + " rho_%d" % idx,
                )
        for idx, lam in preset.expected["lambda"].items():
            if idx < 2 * n:  # the l = 1 row of the table
                _add(
                    problems,
                    unions(ats, idx, memo=memo).lam == lam,
                    tag + " lambda_%d" % idx,
                )
        ds = sorted(delta_star(ats, 3, memo=memo, atom_limit=12).value)
        if n >= 4:
            _add(problems, ds[-1] == n - 2, tag + " max delta*")
        if n >= 5:
            _add(problems, ds[-2] == n // 2 - 1, tag + " second max delta*")
    ok = _report(
        3,
        not problems,
        "cyclic n=3..7: D, c, omega, delta, U_2, rho/lambda, delta* extremes"
        + ("; failed: %s" % ", ".join(problems) if problems else ""),
    )
    assert ok, problems


def test_criterion_4_transfer_maps():
    """The two candidate maps onto C3/C4 of the external transfer claim pass
    T1 on the window of size 8 but fail T2 and length-set preservation there;
    the collapse map must fail surjectivity.

    The claim that they are transfer maps is refuted, and no alphabet map on
    these sources could be one: theta(e) and theta(-e) must be a nonzero
    inverse pair, and then e^n * (-e)^n (n = 3 over C3, n = 4 over C4) has
    L = {n} while its image also factors into two atoms, L = {2, n}.  The
    first counterexamples are pinned: only the atom 1 * (-1) divides
    -1^3 * 1^3, so L = {3}, while its image g^3 * (2g)^3 over C3 factors as
    g^3 * (2g)^3 and as (g * 2g)^3; and (0,-1)^4 * (0,1)^2 * (0,2) has L = {3}
    while its image (3g)^4 * g^2 * 2g over C4 has L = {2, 3}."""
    expected = {
        # name: (first T2 failure (A, B'), first length failure (A, L(A), L(theta A)))
        "prop712": (("-1^3 * 1^3", "2^3"), ("-1^3 * 1^3", [3], [2, 3])),
        "prop713": (
            ("(0,-1)^4 * (0,2)^2", "3^4"),
            ("(0,-1)^4 * (0,1)^2 * (0,2)", [3], [2, 3]),
        ),
    }
    problems = []
    details = []
    for name, (t2_pin, length_pin) in expected.items():
        tmap = builtin_map(name)
        report = check_transfer(tmap, 8)
        _add(problems, report.surjective_on_window, name + " T1")
        _add(problems, not report.divisors_lift_on_window, name + " T2 must fail")
        first = tuple(map(str, report.t2_failures[0])) if report.t2_failures else None
        if not _add(problems, first == t2_pin, name + " T2 counterexample"):
            details.append("%s T2 first failure %s, expected %s" % (name, first, t2_pin))
        ok_l, fails = lengths_preserved(
            tmap, enumerate_atoms(tmap.source), enumerate_atoms(tmap.target), 8
        )
        _add(problems, not ok_l, name + " length sets must differ")
        first = (str(fails[0][0]), fails[0][1], fails[0][2]) if fails else None
        if not _add(problems, first == length_pin, name + " length counterexample"):
            details.append("%s lengths first failure %s, expected %s" % (name, first, length_pin))
    collapse = check_transfer(builtin_map("collapse"), 4)
    _add(problems, not collapse.surjective_on_window, "collapse T1 must fail")
    ok = _report(
        4,
        not problems,
        "candidate maps onto C3/C4 pass T1 and fail T2 and length preservation "
        "at bound 8 (prop712: -1^3 * 1^3 has L {3}, image {2, 3}; prop713: "
        "(0,-1)^4 * (0,1)^2 * (0,2) has L {3}, image {2, 3}); collapse fails T1"
        + ("; failed: %s [%s]" % (", ".join(problems), "; ".join(details)) if problems else ""),
    )
    assert ok, problems


def test_criterion_5_additive_closure():
    """Interval/progression systems are additively closed; over the full C5
    the sumset {2,5}+{2,5} = {4,7,10} is realized by g^10 * (-g)^10, whose
    factorizations (g^5)^a * ((-g)^5)^a * (g * (-g))^(10-5a), a = 0, 1, 2,
    have lengths 10, 7 and 4.  C5 is not closed: {2,4} is realized, but the
    closure-probe witness {2,4}+{2,4} = {4,6,8} is unrealized at
    verification bound 16."""
    problems = []
    for n, family in ((3, "C3"), (4, "C4")):
        ats = enumerate_atoms(build_preset("cyclic", n).alphabet)
        probe = additive_closure_probe(ats, 8)
        _add(problems, probe.closed_within_bound, "cyclic %d probe" % n)
    rng = random.Random(75)
    for _ in range(200):
        y1, y2 = rng.randrange(0, 7), rng.randrange(0, 7)
        k1, k2 = rng.randrange(0, 7), rng.randrange(0, 7)
        s = sumset(c3_set(y1, k1), c3_set(y2, k2))
        _add(problems, member("C3", s)[0], "C3 identity y=%d,%d k=%d,%d" % (y1, y2, k1, k2))
        builders = (c4_set_interval, c4_set_ap2)
        s1 = builders[rng.randrange(2)](y1, k1)
        s2 = builders[rng.randrange(2)](y2, k2)
        s = sumset(s1, s2)
        _add(problems, member("C4", s)[0], "C4 identity %s+%s" % (sorted(s1), sorted(s2)))
    ats5 = enumerate_atoms(build_preset("cyclic", 5).alphabet)
    two_five = is_length_set_realized(ats5, {2, 5}, 8)
    _add(problems, two_five is True, "{2,5} realized over C5")
    _add(problems, sumset({2, 5}, {2, 5}) == {4, 7, 10}, "{2,5}+{2,5} = {4,7,10}")
    realized = is_length_set_realized(ats5, {4, 7, 10}, 16)
    _add(problems, realized is True, "{4,7,10} realized over C5 (by g^10 * (-g)^10)")
    _add(problems, is_length_set_realized(ats5, {2, 4}, 8) is True, "{2,4} realized over C5")
    _add(problems, sumset({2, 4}, {2, 4}) == {4, 6, 8}, "{2,4}+{2,4} = {4,6,8}")
    witness = is_length_set_realized(ats5, {4, 6, 8}, 16)
    _add(problems, witness is False, "{4,6,8} unrealized over C5")
    ok = _report(
        5,
        not problems,
        "C3/C4 systems closed at bound 8, 200 sampled closure identities; "
        "C5 realizes {2,5}+{2,5}={4,7,10}; C5 witness {2,4}+{2,4}={4,6,8} "
        "unrealized at bound 16"
        + ("; failed: %s" % ", ".join(problems) if problems else ""),
    )
    assert ok, problems


def test_criterion_6_cube_family():
    problems = []
    davenports = {}
    for r in (1, 2, 3):
        ats = enumerate_atoms(build_preset("cube", r).alphabet)
        davenports[r] = ats.davenport()
        if r == 3:
            cube3 = ats
    _add(problems, davenports[3] >= fibonacci(5) == 5, "D(cube 3) >= F_5")
    _add(
        problems,
        davenports[3] >= davenports[2] + davenports[1] - 1,
        "superadditivity",
    )
    ds = delta_star(cube3, 6, atom_limit=10)
    _add(problems, frozenset((1, 2, 3)) <= ds.value, "delta* contains [1,3]")
    ok = _report(
        6,
        not problems,
        "cube rank 3: D=%d >= F_5=5, superadditive over ranks, delta* >= [1,3] "
        "(found %s)" % (davenports[3], sorted(ds.value))
        + ("; failed: %s" % ", ".join(problems) if problems else ""),
    )
    assert ok, problems


def test_criterion_7_lifted_atom_counts():
    problems = []
    small_order = [("A", 1), ("A", 2), ("A", 3), ("D", 4), ("D", 5), ("D", 6),
                   ("D", 7), ("E6", 0), ("E7", 0), ("E8", 0)]
    for kind, n in small_order:
        preset = build_preset("hypersurface", kind, n)
        char = preset.characteristic
        ats = enumerate_atoms(preset.alphabet)
        _add(
            problems,
            count_lifted_atoms(char, ats) == count_lifted_atoms_brute(char),
            "%s_%d formula==brute" % (kind, n),
        )
    e8 = build_preset("hypersurface", "E8").characteristic
    _add(problems, count_lifted_atoms_brute(e8) == 9, "E8 count 9")
    from krull_arith import Alphabet, GroupSpec

    for n in (1, 2, 3, 4):
        char = build_preset("hypersurface", "A", n).characteristic
        spec = GroupSpec(0, (n + 1,))
        full = Alphabet(spec, [spec.element(torsion=(i,)) for i in range(n + 1)])
        _add(
            problems,
            count_lifted_atoms_brute(char) == len(enumerate_atoms(full)),
            "A_%d == |A(C_%d)|" % (n, n + 1),
        )
    d6 = build_preset("hypersurface", "D", 6)
    claimed = d6.expected["claimed_atom_count"]
    computed = count_lifted_atoms_brute(d6.characteristic)
    _add(problems, claimed == 11 and computed == 10, "D_6 discrepancy flagged")
    _add(problems, d6.expected["claimed_count_check"], "D_even flag present")
    ok = _report(
        7,
        not problems,
        "lifted-atom formula == brute for all order <= 4 characteristics; "
        "E8 = 9; A_n == |A(C_{n+1})|; D_6 claimed 11 vs computed 10, flagged"
        + ("; failed: %s" % ", ".join(problems) if problems else ""),
    )
    assert ok, problems


def test_criterion_8_structural_checks():
    problems = []
    from krull_arith.presets import Preset

    ok_pm, _ = check_divisor_theory(Preset("custom", {}, int_alphabet(-1, 1)))
    _add(problems, not ok_pm, "{-e,e} not a divisor theory")
    ok_fp, _ = check_divisor_theory(build_preset("four_point"))
    _add(problems, ok_fp, "four_point divisor theory")
    for r, alpha in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        ok_t, _ = check_divisor_theory(build_preset("thm74", r, alpha))
        _add(problems, ok_t, "thm74(%d,%d) divisor theory" % (r, alpha))
        parts = decompose(enumerate_atoms(build_preset("thm74", r, alpha).alphabet))
        _add(problems, len(parts) == 1, "thm74(%d,%d) indecomposable" % (r, alpha))
    for family in ("split1", "split2"):
        for q in (1, 2, 3):
            parts = decompose(enumerate_atoms(build_preset(family, q).alphabet))
            _add(problems, len(parts) == q, "%s(%d) components" % (family, q))
    ok = _report(
        8,
        not problems,
        "divisor theory false for {-e,e}, true for four_point and thm74; "
        "split presets decompose into q components, thm74 into one"
        + ("; failed: %s" % ", ".join(problems) if problems else ""),
    )
    assert ok, problems


_HARNESS_PRESETS = [
    ("thm74", 2, 1), ("thm74", 2, 2), ("thm74", 3, 1), ("thm74", 3, 2),
    ("cyclic", 3), ("cyclic", 4), ("cyclic", 5), ("cyclic", 6), ("cyclic", 7),
    ("five_point",), ("four_point",), ("frt_t", 1), ("frt_t", 2),
    ("prop713",), ("cube", 1), ("cube", 2),
]


def test_criterion_9_universal_inequalities():
    """Every monoid in the suite satisfies the general inequality chains:
    c <= omega <= t <= omega^2, max{2, rho} <= omega when not factorial,
    rho <= D/2, k <= rho_k <= k*rho, k/rho <= lambda_k <= k, per-block
    2 + max gap <= c(B), and 2 + ||z|-|z'|| <= d(z, z')."""
    problems = []
    for spec in _HARNESS_PRESETS:
        tag = "%s%s" % (spec[0], spec[1:] if len(spec) > 1 else "")
        preset = build_preset(*spec)
        ats = enumerate_atoms(preset.alphabet)
        memo = {}
        d = ats.davenport()
        rho = elasticity(ats, memo=memo)
        assert rho.exact  # all harness alphabets are negation-closed
        _add(problems, rho.value <= Fraction(d, 2), tag + " rho <= D/2")
        omega_v = monoid_omega(ats).value
        tame_v = None
        if len(ats) <= TAME_ATOM_LIMIT:
            tame_v = monoid_tame(ats, None, memo).value
        sweep_bound = 2 if len(ats) > 18 else 3
        block_problems, factorial, max_c = _per_block_checks(ats, sweep_bound, tag)
        problems.extend(block_problems)
        _add(problems, max_c <= omega_v, tag + " c <= omega")
        if tame_v is not None and tame_v > 0:
            _add(problems, omega_v <= tame_v <= omega_v ** 2, tag + " omega <= t <= omega^2")
        if not factorial:
            _add(problems, 2 <= omega_v, tag + " 2 <= omega")
            _add(problems, rho.value <= omega_v, tag + " rho <= omega")
        for k in range(1, 6):
            u = unions(ats, k, memo=memo)
            _add(problems, k <= u.rho <= k * rho.value, tag + " k <= rho_%d <= k*rho" % k)
            _add(
                problems,
                Fraction(k) / rho.value <= u.lam <= k,
                tag + " k/rho <= lambda_%d <= k" % k,
            )
    ok = _report(
        9,
        not problems,
        "%d monoids: c <= omega <= t <= omega^2, rho <= D/2, max{2,rho} <= "
        "omega (non-factorial), rho_k/lambda_k bounds k <= 5, per-block gap "
        "and distance bounds" % len(_HARNESS_PRESETS)
        + ("; failed: %s" % ", ".join(problems[:8]) if problems else ""),
    )
    assert ok, problems


def _per_block_checks(ats, sweep_bound, tag):
    """Sweep products of <= sweep_bound atoms: per-block catenary and
    distance lower bounds; returns (problems, is_factorial, max c(B))."""
    from krull_arith.invariants import product_levels

    problems = []
    factorial = True
    max_c = 0
    memo = {}
    for level in product_levels(ats.alphabet, ats.vectors, sweep_bound):
        for mults in level:
            block = ats.alphabet.from_mults(mults)
            prof = catenary_profile(ats, block)
            if prof.num_factorizations > 1:
                factorial = False
            max_c = max(max_c, prof.catenary)
            gaps = delta_of_set(lengths_of(ats, block, memo))
            if gaps:
                _add(
                    problems,
                    2 + max(gaps) <= prof.catenary,
                    tag + " 2+max gap <= c(B) at %s" % block,
                )
            if 1 < prof.num_factorizations <= 40:
                zs = factorize(ats, block)
                for i, z1 in enumerate(zs):
                    for z2 in zs[i + 1 :]:
                        if not 2 + abs(z1.length - z2.length) <= distance(z1, z2):
                            _add(problems, False, tag + " distance bound at %s" % block)
    return problems, factorial, max_c


def test_criterion_10_minimal_abs_irreducible_witness():
    problems = []
    results = {}
    for r, alpha in [(2, 1), (3, 1), (2, 2)]:
        ats = enumerate_atoms(build_preset("thm74", r, alpha).alphabet)
        s, _ = min_abs_irred_witness(ats)
        results[(r, alpha)] = s
        _add(problems, s == r + 1, "(%d,%d) witness %d != %d" % (r, alpha, s, r + 1))
    ok = _report(
        10,
        not problems,
        "minimal absolutely-irreducible support witness = r+1: %s"
        % sorted(results.items())
        + ("; failed: %s" % ", ".join(problems) if problems else ""),
    )
    assert ok, problems
