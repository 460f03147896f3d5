"""Arithmetic invariants of B(G0): sets of distances, unions of length sets,
elasticities, omega and tame degrees, catenary degrees, and absolutely
irreducible elements.

Everything here is computed by unbounded-exact or bounded-sweep methods; a
BoundedResult records which.  Sweeps walk deduplicated products of atoms
level by level.  For unions of sets of lengths there is a second, exact
engine based on integer programming that is used when the product sweep
would be too large.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import ArgumentError, DomainError
from .factorizations import catenary_profile, lengths_of
from .groups import subgroup_rank

ENUM_PRODUCT_GUARD = 120_000
DELTA_STAR_FULL_LIMIT = 12
DELTA_STAR_SWEEP_LIMIT = 20


@dataclass(frozen=True)
class BoundedResult:
    """A computed value plus the honesty bit: is it certified exact, and if
    not, what bound was swept."""

    value: object
    exact: bool
    bound: int = 0
    method: str = ""
    note: str = ""

    def to_json(self):
        value = self.value
        if isinstance(value, frozenset):
            value = sorted(value)
        elif isinstance(value, Fraction):
            value = {"numerator": value.numerator, "denominator": value.denominator}
        return {
            "value": value,
            "exact": self.exact,
            "bound": self.bound,
            "method": self.method,
            "note": self.note,
        }


def _nonzero_atoms(atomset):
    """Atoms other than the singleton over the zero element."""
    zi = atomset.alphabet.zero_index()
    if zi is None:
        return list(atomset.atoms)
    return [a for a in atomset.atoms if not (a.length == 1 and a.mults[zi] == 1)]


def next_level(level, atoms):
    """All products b * a of a block b in ``level`` with one of the atoms."""
    return {b * a for b in level for a in atoms}


def product_levels(alphabet, atoms, max_count):
    """levels[k] = set of all products of exactly k of the given atoms."""
    levels = [{alphabet.empty()}]
    for _ in range(max_count):
        levels.append(next_level(levels[-1], atoms))
    return levels


def delta_of_set(lengths):
    """Successive gaps of a set of integers."""
    ls = sorted(lengths)
    return frozenset(b - a for a, b in zip(ls, ls[1:]))


def _gaps(atomset, bound, memo):
    """Every gap of L(B) over products B of 2..``bound`` nonzero atoms."""
    gaps = set()
    for level in product_levels(atomset.alphabet, _nonzero_atoms(atomset), bound)[2:]:
        for b in level:
            gaps.update(delta_of_set(lengths_of(atomset, b, memo)))
    return gaps


def delta_set(atomset, bound, expected=None, memo=None):
    """The set of distances of B(G0), swept over products of at most
    ``bound`` atoms.  Blocks of zeros only translate length sets, so the
    zero atom is left out of the sweep.
    """
    if bound < 2:
        raise ArgumentError("delta_set needs bound >= 2")
    if memo is None:
        memo = {}
    value = frozenset(_gaps(atomset, bound, memo))
    exact = expected is not None and value == frozenset(expected)
    return BoundedResult(value, exact, bound, "product-sweep")


def _symmetric_subsets(alphabet):
    """Subsets closed under negation (zero optional), as index tuples."""
    table = alphabet.negation_table()
    zi = alphabet.zero_index()
    pairs = []
    seen = set()
    for i in range(len(alphabet)):
        if i == zi or i in seen:
            continue
        j = table[i]
        seen.update((i, j))
        pairs.append((i,) if i == j else (i, j))
    for mask in range(1, 1 << len(pairs)):
        base = []
        for p, pair in enumerate(pairs):
            if mask >> p & 1:
                base.extend(pair)
        yield tuple(sorted(base))
        if zi is not None:
            yield tuple(sorted(base + [zi]))


def delta_star(atomset, bound, expected=None, memo=None, atom_limit=None):
    """{min delta(B(G1)) : G1 a subset of G0 with nonempty delta set}.

    Atoms of each subset monoid are the ambient atoms with matching support,
    so atoms are enumerated once.  Alphabets larger than 12 are swept over
    negation-closed subsets only (and must be closed under negation).
    ``atom_limit`` skips subsets with more atoms than that (their minima may
    be missed; the result is then a certified subset of delta*).
    """
    n = len(atomset.alphabet)
    if n > DELTA_STAR_SWEEP_LIMIT:
        raise ArgumentError("delta_star sweep limited to alphabets of size 20")
    if memo is None:
        memo = {}
    restricted = n > DELTA_STAR_FULL_LIMIT
    if restricted:
        if not atomset.alphabet.is_symmetric():
            raise ArgumentError(
                "restricted delta_star sweep needs a negation-closed alphabet"
            )
        subsets = _symmetric_subsets(atomset.alphabet)
    else:
        indices = range(n)
        subsets = (
            s for size in range(1, n + 1) for s in combinations(indices, size)
        )
    mins = set()
    seen_atom_sets = set()
    skipped = 0
    for sub in subsets:
        atoms = atomset.restrict(sub)
        if not atoms:
            continue
        key = frozenset(atoms)
        if key in seen_atom_sets:
            continue
        seen_atom_sets.add(key)
        if atom_limit is not None and len(atoms) > atom_limit:
            skipped += 1
            continue
        # One memo serves every subset: a block supported in G1 has the same
        # divisors in B(G1) as in B(G0).
        gaps = _gaps(atoms, bound, memo)
        if gaps:
            mins.add(min(gaps))
    value = frozenset(mins)
    exact = expected is not None and value == frozenset(expected)
    method = "symmetric-subset-sweep" if restricted else "subset-sweep"
    note = "%d subsets above the atom limit skipped" % skipped if skipped else ""
    return BoundedResult(value, exact, bound, method, note)


@dataclass(frozen=True)
class UnionProfile:
    k: int
    members: tuple
    rho: int
    lam: int
    exact: bool
    method: str

    def to_json(self):
        return {
            "k": self.k,
            "members": list(self.members),
            "rho": self.rho,
            "lambda": self.lam,
            "exact": self.exact,
            "method": self.method,
        }


def _union_by_enumeration(atomset, k, memo):
    """U_k as the union of L(B) over all products B of exactly k atoms."""
    zi = atomset.alphabet.zero_index()
    atoms = _nonzero_atoms(atomset)
    levels = product_levels(atomset.alphabet, atoms, k)
    core = []
    for j in range(k + 1):
        acc = set()
        for b in levels[j]:
            acc.update(lengths_of(atomset, b, memo))
        core.append(acc)
    if zi is None:
        return core[k]
    members = set()
    for j in range(k + 1):
        members.update(m + j for m in core[k - j])
    return members


def _union_by_milp(atomset, k):
    """U_k by integer programming: m is a member iff some block is at once a
    product of k atoms and of m atoms.  Variables are the two exponent
    vectors; equality of the products is imposed coordinatewise.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    atoms = atomset.atoms
    na = len(atoms)
    ng = len(atomset.alphabet)
    mat = np.array([a.mults for a in atoms], dtype=float).T  # ng x na
    eq = np.hstack([mat, -mat])
    kx = np.hstack([np.ones(na), np.zeros(na)])
    ky = np.hstack([np.zeros(na), np.ones(na)])
    base = [
        LinearConstraint(eq, np.zeros(ng), np.zeros(ng)),
        LinearConstraint(kx, k, k),
    ]
    integrality = np.ones(2 * na)

    def solve(c, extra=None):
        res = milp(
            c=c,
            constraints=base + (extra or []),
            integrality=integrality,
            bounds=Bounds(0, np.inf),
        )
        return res

    lo = solve(ky)
    hi = solve(-ky)
    if not lo.success or not hi.success:
        raise DomainError("union-of-lengths program infeasible for k=%d" % k)
    lam = round(lo.fun)
    rho = round(-hi.fun)
    members = set()
    for m in range(lam, rho + 1):
        if m in (lam, rho):
            members.add(m)
            continue
        probe = solve(np.zeros(2 * na), [LinearConstraint(ky, m, m)])
        if probe.success:
            members.add(m)
    return members


def unions(atomset, k, guard=ENUM_PRODUCT_GUARD, memo=None, force=None):
    """U_k(H), the union of all length sets containing k, with rho_k = max
    and lambda_k = min.  Exact by either engine; the product sweep is used
    while the number of atom multisets stays under ``guard``.
    """
    if k < 0:
        raise ArgumentError("k must be nonnegative")
    if k == 0:
        return UnionProfile(0, (0,), 0, 0, True, "trivial")
    if memo is None:
        memo = {}
    method = force
    if method is None:
        method = "enum" if comb(len(atomset) + k - 1, k) <= guard else "milp"
    if method == "enum":
        members = _union_by_enumeration(atomset, k, memo)
    elif method == "milp":
        members = _union_by_milp(atomset, k)
    else:
        raise ArgumentError("unknown union engine %r" % method)
    members = tuple(sorted(members))
    return UnionProfile(k, members, members[-1], members[0], True, method)


def elasticity(atomset, bound=8, memo=None):
    """rho(H).  For a negation-closed G0 this is D(G0)/2 exactly (pair every
    atom with its negative); otherwise sup rho_k / k is reported as a swept
    lower bound.
    """
    d = atomset.davenport()
    if atomset.alphabet.is_symmetric():
        return BoundedResult(Fraction(d, 2), True, 0, "closed-form")
    best = Fraction(1)
    for k in range(1, bound + 1):
        u = unions(atomset, k, memo=memo)
        best = max(best, Fraction(u.rho, k))
    return BoundedResult(best, False, bound, "rho_k-sweep")


def _minimal_covers(atomset, u):
    """All minimal covering multisets of the atom u: multisets W of atoms
    with u | prod(W) such that no proper sub-multiset still covers.

    DFS adds atoms in nondecreasing index order and only when the new atom
    meets a still-deficient coordinate of u; every minimal cover survives
    this pruning because each of its members must meet a deficient
    coordinate at the moment it is inserted, in any insertion order.
    Yields (counts, product) pairs.
    """
    atoms = atomset.atoms
    n = len(atoms)
    supp = u.support()
    target = u.mults

    def deficient(prod):
        return [i for i in supp if prod.mults[i] < target[i]]

    def covers(counts):
        prod = atomset.alphabet.empty()
        for i, c in enumerate(counts):
            if c:
                prod = prod * (atoms[i] ** c)
        return u.divides(prod)

    counts = [0] * n
    out = []

    def rec(prod, start):
        deficit = deficient(prod)
        if not deficit:
            for i in range(n):
                if counts[i]:
                    counts[i] -= 1
                    ok = covers(counts)
                    counts[i] += 1
                    if ok:
                        return
            out.append((tuple(counts), prod))
            return
        for i in range(start, n):
            a = atoms[i]
            if any(a.mults[j] for j in deficit):
                counts[i] += 1
                rec(prod * a, i)
                counts[i] -= 1

    rec(atomset.alphabet.empty(), 0)
    return out


def omega(atomset, u):
    """omega(H, u) for an atom u: the largest size of a minimal covering
    multiset of u.

    Branch and bound instead of full cover enumeration: every member of a
    minimal cover contributes at least one unit of u, so a partial cover of
    size s with total deficit f can finish at size at most s + f; branches
    that cannot beat the best minimal cover found so far are cut.  Atoms are
    tried smallest-overlap first so the bound |u| is usually hit
    immediately.
    """
    alphabet = atomset.alphabet
    supp = u.support()
    target = u.mults

    def overlap(a):
        return sum(min(a.mults[i], target[i]) for i in supp)

    atoms = sorted(
        (a for a in atomset.atoms if overlap(a)),
        key=lambda a: (overlap(a), a.mults),
    )
    n = len(atoms)
    counts = [0] * n
    best = 0
    limit = u.length

    def is_minimal(prod):
        for i in range(n):
            if counts[i]:
                trimmed = prod // atoms[i]
                if u.divides(trimmed):
                    return False
        return True

    def rec(prod, size, start):
        nonlocal best
        deficit = sum(
            target[i] - prod.mults[i] for i in supp if prod.mults[i] < target[i]
        )
        if deficit == 0:
            if size > best and is_minimal(prod):
                best = size
            return
        if size + deficit <= best:
            return
        for i in range(start, n):
            a = atoms[i]
            if any(a.mults[j] and prod.mults[j] < target[j] for j in supp):
                counts[i] += 1
                rec(prod * a, size + 1, i)
                counts[i] -= 1
                if best >= limit:
                    return

    rec(alphabet.empty(), 0, 0)
    return best


def tame(atomset, u, memo=None):
    """t(H, u) for an atom u: 0 when u is prime in the sweep sense
    (omega = 1); otherwise the worst over minimal covers W of
    max(|W|, 1 + min L(prod(W) / u))."""
    if memo is None:
        memo = {}
    covers = _minimal_covers(atomset, u)
    sizes = [sum(c) for c, _ in covers]
    if max(sizes) == 1:
        return 0
    best = 0
    for (counts, prod), size in zip(covers, sizes):
        rest = prod // u
        ls = lengths_of(atomset, rest, memo)
        best = max(best, max(size, 1 + min(ls)))
    return best


def monoid_omega(atomset, expected=None):
    value = max(omega(atomset, u) for u in atomset.atoms)
    exact = True if expected is None else value == expected
    return BoundedResult(value, exact, 0, "atomwise-covers")


def monoid_tame(atomset, expected=None, memo=None):
    if memo is None:
        memo = {}
    value = max(tame(atomset, u, memo) for u in atomset.atoms)
    exact = True if expected is None else value == expected
    return BoundedResult(value, exact, 0, "atomwise-covers")


def monoid_catenary(atomset, bound, expected=None):
    """Catenary degrees of H swept over products of at most ``bound`` atoms
    (zeros stripped; they pad every factorization identically)."""
    if bound < 2:
        raise ArgumentError("monoid_catenary needs bound >= 2")
    atoms = _nonzero_atoms(atomset)
    c = c_eq = c_adj = c_mon = 0
    for level in product_levels(atomset.alphabet, atoms, bound)[2:]:
        for b in level:
            p = catenary_profile(atomset, b)
            c = max(c, p.catenary)
            c_eq = max(c_eq, p.equal)
            c_adj = max(c_adj, p.adjacent)
            c_mon = max(c_mon, p.monotone)
    exact = expected is not None and c == expected
    value = {"catenary": c, "equal": c_eq, "adjacent": c_adj, "monotone": c_mon}
    return BoundedResult(value, exact, bound, "product-sweep")


def absolutely_irreducible(atomset, u):
    """An atom u is absolutely irreducible iff the subgroup generated by its
    support has rank |supp(u)| - 1."""
    supp = u.support_elements()
    return subgroup_rank(supp) == len(supp) - 1


def min_abs_irred_witness(atomset, memo=None):
    """Smallest s for which some absolutely irreducible atoms w_1..w_s and
    exponents k_i >= 1 with k_1 + ... + k_s = D(G0) give a block with
    2 in L(w_1^k_1 ... w_s^k_s).  Returns (s, witness) with the witness as
    ((atom, exponent), ...), or (None, None) when no such block exists.
    """
    if memo is None:
        memo = {}
    d = atomset.davenport()
    irr = [a for a in atomset.atoms if absolutely_irreducible(atomset, a)]

    def has_two(block):
        return 2 in lengths_of(atomset, block, memo)

    for s in range(1, min(d, len(irr)) + 1):
        for subset in combinations(irr, s):
            # Positive compositions of d into s parts, as s - 1 cut points.
            for cuts in combinations(range(1, d), s - 1):
                ends = (0,) + cuts + (d,)
                ks = tuple(b - a for a, b in zip(ends, ends[1:]))
                block = atomset.alphabet.empty()
                for w, k in zip(subset, ks):
                    block = block * (w**k)
                if has_two(block):
                    return s, tuple(zip(subset, ks))
    return None, None
