"""Arithmetic invariants of B(G0): sets of distances, unions of length sets,
elasticities, omega and tame degrees, catenary degrees, and absolutely
irreducible elements.

Everything here is computed by unbounded-exact or bounded-sweep methods; a
BoundedResult records which.  Sweeps walk the products of atoms level by
level, and one sweep serves many values: delta* sweeps the
largest atom sets it keeps at once, recording the least gap of L(B) for
each block support, so that min delta(B(G1)) of a kept subset G1 is the
least gap recorded for a support inside G1.  A gap is at least 1, so once
a support has least gap 1, every G1 holding it has min delta 1, and that
sweep drops every block whose support holds it, with all its multiples.
The delta sweep stops at the omega ceiling: delta(H) lies in
[1, c(H) - 2] (Geroldinger-Halter-Koch 2006, Thm. 1.6.3) and
c(H) <= omega(H) (Geroldinger-Hassler, *JPAA* 212, 2008), so once the gaps
found fill [1, omega(H) - 2] no later block adds one.

Unions of sets of lengths have two exact engines, and both start from what
the smaller unions prove (Geroldinger-Halter-Koch, *Non-Unique
Factorizations*, 2006, 1.4; Freeze-Geroldinger, "Unions of sets of
lengths", *Funct. Approx.* 39, 2008): m is in U_k exactly when k is in U_m,
and U_i + U_{k-i} lies in U_k (``_witnessed``).  This fixes U_k up to k and
holds the lengths of every product with the atom 0, a prime.  Each U_k is
one bitmask in one list, from the engine that finds it to the profile
returned.  The search ("enum") factors only products of k nonzero atoms
whose pair ceiling admits a length the witnesses leave open; the
integer-programming engine ("milp") solves only for what they leave open,
and checks every solution exactly in integers.  ``union_profiles`` alone
picks the engine: the search serves every k when each element of a nonzero
atom has a partner in the one pair table ``_partners`` (the atoms g(-g) and
g^2), as for a negation-closed G0, and otherwise while there are at most
ENUM_PRODUCT_GUARD multisets of k atoms.  Both give the same U_k.  With
D = D(G0), a nonzero atom has length at least 2 and the atom 0 has length
1, so for k >= 2 and D >= 2

    U_k  lies in  [max(2, ceil(2k/D)), floor(kD/2)],

the lower end following from the upper one by the symmetry above; for
D <= 1 the only atom is 0 and U_k = {k}.

Inside the sweeps a block and an atom are ints packed by one
``factorizations.PackedAtoms``, wide enough for every product the sweep
builds; the packed kernels of ``factorizations`` are called on them
directly, since every swept block is a product of atoms and so has zero sum.
Length sets stay bitmasks until a value is returned.  Delta streams the
multisets of nonzero atoms, largest |u| first, summing each to its block,
and reads none past the block that fills its ceiling; the catenary sweep
needs every distinct block, and takes the blocks from ``product_levels``,
the sets of these sums.  Delta* keys each block by the atom sets it is
swept for, so each of its levels grows from the one below.
Omega and tame search covers packed for products of D(G0) atoms, the most a
minimal cover holds.  ``Sequence`` is used only where a public function
takes or returns one.

The catenary sweep factors one block per orbit, and omega and tame search
one atom per orbit, of the maps x -> kx that send G0 onto itself
(``Alphabet.unit_maps``; k a unit mod exp(G), or k = -1 for an infinite G)
and the atoms onto themselves (a restricted AtomSet can be kept by fewer
maps than its alphabet).  Each is an automorphism of G that keeps G0, hence
of B(G0): it permutes the atoms and keeps Z(B), L(B) and every distance, so
an orbit shares its catenary data, or its omega(H, u) and t(H, u).  The kept
maps form a group and permute the atoms and the swept blocks, so
``_least_of_orbits`` keeps one block or atom per orbit, the least packed
int, and the maxima over these are the maxima over all.  The Delta and
Delta* sweeps and the union search stay unreduced, since their repeated
blocks are memo hits in ``_lengths``.  As d(z, z') <= max(|z|, |z'|), c(B),
c_eq(B) and c_adj(B) are at most max L(B), and c_adj(B) = 0 when
|L(B)| = 1; so the kept blocks are taken largest max L(B) first, and
``_catenary_maxima`` factors those that can still raise a running maximum.
A block that can raise only c_eq, its lengths at most the running c and
one or at most the running c_adj, is factored only above the running c_eq
(``_count_vectors`` at that floor): c and c_adj stay as they are, and
every length class above c_eq is complete.  A block with one listed
factorization raises no maximum, so ``_catenary_maxima`` skips it.

A shared memo keeps, besides the length table of each alphabet and width,
what the sweeps build, so that a later call picks up where an earlier one
stopped: the one ``PackedAtoms`` of each atom set and width under
("packed", alphabet, vectors, width), on which hang the union search's
pair tables and failed table and the unit-map moves of
``_least_of_orbits``; U_1, U_2, ... of ``union_profiles`` under ("unions",
alphabet, vectors); and omega(H), which the Delta ceiling reads, under
("omega", alphabet, vectors).  Each key holds the atom vectors, so a
restricted AtomSet never shares an entry with its parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, combinations_with_replacement
from math import comb

from .atoms import _integer_point
from .errors import ArgumentError, DomainError
from .factorizations import PackedAtoms, _catenary_maxima, _checked, _count_vectors, _lengths, _members
from .groups import subgroup_rank

ENUM_PRODUCT_GUARD = 120_000
DELTA_STAR_FULL_LIMIT = 12
DELTA_STAR_SWEEP_LIMIT = 20


def json_value(value):
    """A value as it appears in a report: a frozenset as a sorted list, a
    Fraction as {numerator, denominator}, anything else unchanged."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, Fraction):
        return {"numerator": value.numerator, "denominator": value.denominator}
    return value


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
        return {
            "value": json_value(self.value),
            "exact": self.exact,
            "bound": self.bound,
            "method": self.method,
            "note": self.note,
        }


def product_levels(atoms, max_count):
    """levels[k] = set of all products of exactly k of the given packed
    atoms, as packed blocks, for k = 0, ..., ``max_count``: the sums of the
    multisets of k atoms.  The packing must hold every product of
    ``max_count`` atoms (``PackedAtoms.for_products``)."""
    return [set(map(sum, combinations_with_replacement(atoms, k))) for k in range(max_count + 1)]


def delta_of_set(lengths):
    """Successive gaps of a set of integers."""
    ls = sorted(lengths)
    return frozenset(b - a for a, b in zip(ls, ls[1:]))


def delta_set(atomset, bound, memo=None):
    """The set of distances of B(G0), swept over products of at most
    ``bound`` atoms, so never certified exact.  Products of 0 or 1 atoms
    have one length, so the gaps are those of the products of k = 2, ...,
    ``bound`` atoms, streamed as multisets, largest |u| first, and read
    until they fill [1, omega(H) - 2] (module docstring; omega(H) from
    ``monoid_omega`` on the same memo), each new length set once.  The
    atom 0 is left out: a product with 0 has the lengths of a product of
    one atom fewer, shifted by 1, and so the same gaps."""
    if bound < 2:
        raise ArgumentError("delta_set needs bound >= 2")
    ceiling = set(range(1, monoid_omega(atomset, memo).value - 1))
    packed = PackedAtoms.for_products(atomset, bound, memo)
    # A stable sort: atoms of equal size stay in AtomSet order.
    atoms = sorted(packed.nonzero(), key=packed.total, reverse=True)
    blocks = chain.from_iterable(map(sum, combinations_with_replacement(atoms, k)) for k in range(2, bound + 1))
    gaps, seen = set(), set()
    while gaps != ceiling and (block := next(blocks, None)) is not None:
        if (mask := _lengths(packed, block)) not in seen:
            seen.add(mask)
            gaps |= delta_of_set(_members(mask))
    return BoundedResult(frozenset(gaps), False, bound, "product-sweep")


def _unions_of_groups(packed, groups):
    """The nonempty unions of the given groups of alphabet indices, each as
    the ``packed.supports`` of its elements."""
    unions = [0]
    for group in groups:
        mask = packed.supports(packed.pack([int(j in group) for j in range(packed.length)]))
        unions += [u | mask for u in unions]
    return unions[1:]


def _least_gaps_by_support(packed, atom_sets, bound):
    """{support: least gap of L(B)} over the products B of at most ``bound``
    nonzero atoms from any one of ``atom_sets`` (masks of AtomSet indices),
    each support as ``packed.supports`` gives it, but for the blocks whose
    support holds one of least gap 1.  A level maps each product to the mask
    of the sets it is a product of atoms of.  Once a support o has least gap
    1, every G1 holding o has min Delta(B(G1)) = 1, so a block whose support
    holds o is dropped, with its multiples on later levels."""
    zero = packed.zero[0] if packed.zero else None
    guard, lift = packed.guard, packed.guard - packed.ones
    atoms = [(u, held) for i, u in enumerate(packed.atoms)
             if i != zero and (held := sum(1 << j for j, m in enumerate(atom_sets) if m >> i & 1))]
    level = {0: (1 << len(atom_sets)) - 1}
    least, by_mask, floor, dead = {}, {}, [], {}
    for _ in range(bound):
        below, level = level, {}
        for b, sets in below.items():
            for a, held in atoms:
                if sets & held:
                    level[b + a] = level.get(b + a, 0) | (sets & held)
        for b in list(level):
            # (b + lift) & guard is packed.supports(b), inlined.
            support = (b + lift) & guard
            hit = dead.get(support)
            if hit is None:
                hit = dead[support] = any(o & support == o for o in floor)
            if hit:
                del level[b]
                continue
            mask = _lengths(packed, b)
            if mask not in by_mask:
                by_mask[mask] = min(delta_of_set(_members(mask)), default=None)
            gap = by_mask[mask]
            if gap is not None and gap < least.get(support, gap + 1):
                least[support] = gap
                if gap == 1:
                    floor.append(support)
                    dead.clear()
                    del level[b]
    return least


def delta_star(atomset, bound, memo=None, atom_limit=None):
    """{min delta(B(G1)) : G1 a subset of G0 with nonempty delta set}, swept
    over products of at most ``bound`` atoms, so never certified exact.

    Atoms of each subset monoid are the ambient atoms with matching support,
    so atoms are enumerated once.  Alphabets larger than 12 are swept over
    the unions of the pairs {g, -g} only (and must be closed under
    negation; 0 and each g = -g form a group of one).  ``atom_limit`` skips
    subsets with more atoms than that (their minima may be missed; the
    result is then a certified subset of delta*).

    A product of atoms supported in G1 is a product of atoms of B(G1), with
    the same length set in both.  So one sweep of the maximal kept atom sets
    serves every subset: min delta(B(G1)) is the least gap it records over
    supports inside G1.
    """
    n = len(atomset.alphabet)
    if n > DELTA_STAR_SWEEP_LIMIT:
        raise ArgumentError("delta_star sweep limited to alphabets of size %d" % DELTA_STAR_SWEEP_LIMIT)
    restricted = n > DELTA_STAR_FULL_LIMIT
    if restricted:
        table = atomset.alphabet.negation_table()
        if table is None:
            raise ArgumentError(
                "restricted delta_star sweep needs a negation-closed alphabet"
            )
        groups = sorted({tuple(sorted({i, j})) for i, j in enumerate(table)})
    else:
        groups = [(i,) for i in range(n)]
    packed = PackedAtoms.for_products(atomset, bound, memo)
    supports = [packed.supports(u) for u in packed.atoms]
    # Each kept subset G1 as (mask of its atoms, supports of its elements).
    kept, seen_atom_sets, skipped = [], set(), 0
    for allowed in _unions_of_groups(packed, groups):
        atoms = sum(1 << i for i, s in enumerate(supports) if s & allowed == s)
        if not atoms or atoms in seen_atom_sets:
            continue
        seen_atom_sets.add(atoms)
        if atom_limit is not None and atoms.bit_count() > atom_limit:
            skipped += 1
            continue
        kept.append((atoms, allowed))
    maximal = []
    for atoms, _ in sorted(kept, key=lambda kg: kg[0].bit_count(), reverse=True):
        if all(atoms & m != atoms for m in maximal):
            maximal.append(atoms)
    least = sorted(_least_gaps_by_support(packed, maximal, bound).items(), key=lambda sg: sg[1])
    mins = {next((gap for s, gap in least if s & g1 == s), None) for _, g1 in kept} - {None}
    method = "symmetric-subset-sweep" if restricted else "subset-sweep"
    note = "%d subsets above the atom limit skipped" % skipped if skipped else ""
    return BoundedResult(frozenset(mins), False, bound, method, note)


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


def _witnessed(lower, k):
    """The members of U_k that U_1, ..., U_{k-1} (``lower``, as bitmasks)
    prove, as a bitmask: m < k with k in U_m, k itself, and every sum in
    U_i + U_{k-i}.  This is U_k up to k exactly, and it holds L(B) of every
    product B of k atoms that contains the atom 0, a prime: B = 0^j B' with
    L(B) = j + L(B') in U_j + U_{k-j}, or B = 0^k."""
    witnessed = 1 << k
    for i, mask in enumerate(lower[: k - 1], 1):
        witnessed |= (mask >> k & 1) << i
        if 2 * i <= k:
            for a in _members(lower[k - i - 1]):
                witnessed |= mask << a
    return witnessed


def _partners(atomset):
    """{j: l} over the alphabet indices that an atom of size 2 holds: g_l =
    -g_j for an atom g_j g_l, and l = j for an atom g_j^2."""
    partner = {}
    for held in ([j for j, x in enumerate(v) if x] for v in atomset.vectors if sum(v) == 2):
        partner.update(zip(held, reversed(held)))
    return partner


def _reaches(packed, mirror, block, mirrored, target, failed):
    """Whether max L(B) >= ``target`` for a zero-free packed B with m(B) =
    ``mirrored``, depth first over the pivot atoms as ``_lengths`` branches.
    One pass over a node's pivots pushes each child that meets its pair
    ceiling, above a marker that records the node in ``failed`` (the least
    target each block misses, a fact about the block that holds across
    searches) once its children are done.  A popped node is answered by one
    memo lookup (a miss reads as 0, which still answers t < 0), or by
    ``failed``.  A block whose 2|B| alone meets the ceiling 6t skips the
    fieldwise minimum of P2(B); |B| is ``Packing.total``, B % field."""
    get, guard, pivots, minimum, field = packed.table.get, packed.guard, packed.pivots, packed.minimum, packed.field
    if (size := 2 * (block % field)) < 6 * target and size + minimum(block, mirrored) % field < 6 * target:
        return False
    # (block, its mirror, target), or the marker (block, None, target) under its children,
    # which are pushed in reverse so that the first pivot's child is popped first
    stack = [(block, mirrored, target)]
    while stack:
        b, mb, t = stack.pop()
        if mb is None:
            failed[b] = t
            continue
        if (m := get(b, 0)).bit_length() > t:
            return True
        if m or failed.get(b, t + 1) <= t:
            continue
        stack.append((b, None, t))
        held, floor = b | guard, 6 * t - 6
        for u in reversed(pivots[b.bit_length()]):
            if (d := held - u) & guard == guard and (
                (size := 2 * ((d := d ^ guard) % field)) >= floor
                or size + minimum(d, mb - mirror[u]) % field >= floor
            ):
                stack.append((d, mb - mirror[u], t - 1))
    return False


def _pair_tables(packed, atomset):
    """(mirror, sizes, atoms, grows) of the union search, kept on ``packed``
    as ``packed.pairs``: m(u) for each packed atom, and the atoms of size at
    least 2, largest first, with their sizes and ``grows``."""
    if packed.pairs is None:
        # m moves field g to field -g when g(-g) (g^2 if 2g = 0) is an atom, and drops the rest.
        partner = _partners(atomset)
        mirror = {u: packed.pack([v[partner[j]] if j in partner else 0 for j in range(len(v))])
                  for u, v in zip(packed.atoms, atomset.vectors)}
        by_size = sorted(((sum(v), u) for v, u in zip(atomset.vectors, packed.atoms) if sum(v) > 1), reverse=True)
        # grows[t] bounds what one of the atoms t, t + 1, ... adds to 2|B| + P2(B).
        grows = list(accumulate((2 * s + 2 * packed.total(mirror[u]) for s, u in reversed(by_size)), max))[::-1]
        packed.pairs = mirror, [s for s, _ in by_size], [u for _, u in by_size], grows
    return packed.pairs


def _union_by_enumeration(atomset, k, memo, lower=()):
    """[U_1, ..., U_k] as bitmasks, k >= 1, each U_i from U_1, ..., U_{i-1}
    by threshold tests, starting after the given U_1, ..., U_j (``lower``).
    U_1 = {1} needs no test: 1 in L(B) makes B an atom, whose only length
    is 1.

    ``_witnessed`` proves U_i up to i and every length of a product with the
    atom 0, so with (i, c] the run of proved lengths above i, a product B of
    i nonzero atoms adds a member only when max L(B) > c.  A factorization
    holds at most P2(B) / 2 atoms g(-g) or g^2, P2(B) = |minimum(B, m(B))|,
    and other atoms have at least three elements: this gives the pair
    ceiling 6 max L(B) <= 2|B| + P2(B) <= 3|B|.  A depth-first search over
    multisets of the nonzero atoms, larger first, carries m along, cuts each
    branch that cannot reach c + 1, and hands each product left to
    ``_reaches``, which answers a product met again from the memo or from
    ``failed``.  A memo hit below c + 1 adds nothing: its lengths up to i
    are witnessed and those in (i, c] are proved.  ``failed`` and the pair
    tables hang on the ``PackedAtoms`` that ``memo`` keeps, since its packed
    blocks are read at one packing width."""
    # The fields hold |B| <= kD, so ``Packing.total`` is exact.
    packed = PackedAtoms.shared(atomset, k * atomset.davenport(), memo)
    mirror, sizes, atoms, grows = _pair_tables(packed, atomset)
    failed = packed.failed
    unions = list(lower) or [1 << 1]
    for i in range(len(unions) + 1, k + 1):
        proved = _witnessed(unions, i)
        # (product, its mirror, its size, least index it may still take, atoms left)
        stack = [(0, 0, 0, 0, i)] if atoms else []
        while stack:
            b, mb, size, start, left = stack.pop()
            open_above = ~proved >> (i + 1)
            need = i + (open_above & -open_above).bit_length()
            pairs = 2 * size + packed.total(packed.minimum(b, mb))
            end = start
            while end < len(atoms) and min(pairs + left * grows[end], 3 * (size + left * sizes[end])) >= 6 * need:
                end += 1
            if left > 1:
                stack += [(b + atoms[t], mb + mirror[atoms[t]], size + sizes[t], t, left - 1)
                          for t in reversed(range(start, end))]
            else:
                # The last atoms share this node's need; a lower need only tests more products.
                for u in atoms[start:end]:
                    if _reaches(packed, mirror, (block := b + u), mb + mirror[u], need, failed):
                        proved |= _lengths(packed, block)
        unions.append(proved)
    return unions


def _union_by_milp(atomset, k, lower):
    """U_k as a bitmask, from U_1, ..., U_{k-1} (``lower``, bitmasks) and
    integer programs for what their witnesses leave open: rho_k, only when
    they stop short of its bound (module docstring), and then each m between
    k and rho_k that none proves.  A program asks for a block that is at
    once a product of k atoms (counts x) and of m atoms (counts y); for
    rho_k it maximizes |y|.  ``atoms._integer_point`` checks each answer
    exactly in integers, and scipy is imported only when one is solved."""
    members = _witnessed(lower, k)
    d = atomset.davenport()
    top = k * d // 2 if k > 1 and d > 1 else k
    rho = members.bit_length() - 1
    open_ms = [m for m in range(k + 1, rho) if not members >> m & 1]
    if rho == top and not open_ms:
        return members
    vectors, n = atomset.vectors, len(atomset.alphabet)
    na = len(vectors)
    rows = [[v[j] for v in vectors] + [-v[j] for v in vectors] for j in range(n)] + [[1] * na + [0] * na]
    rhs = [0] * n + [k]
    ys = [0] * na + [1] * na
    if rho < top:
        point = _integer_point(rows, rhs, ys)
        found = None if point is None else sum(point[na:])
        if found is None or found < rho:
            raise DomainError("MILP rho_%d = %s is below the witness %d" % (k, found, rho))
        open_ms += range(rho + 1, found)
        members |= 1 << found
    for m in open_ms:
        if _integer_point(rows + [ys], rhs + [m]) is not None:
            members |= 1 << m
    return members


def unions(atomset, k, memo=None):
    """U_k(H), the union of all length sets containing k, with rho_k = max
    and lambda_k = min: the last of ``union_profiles(atomset, k)``, so its
    method is "enum" or "milp" as that picks."""
    if k < 0:
        raise ArgumentError("k must be nonnegative")
    if k == 0:
        return UnionProfile(0, (0,), 0, 0, True, "trivial")
    return union_profiles(atomset, k, memo)[-1]


def union_profiles(atomset, max_k, memo=None):
    """[U_1, ..., U_max_k] in one pass, sharing one memo, each exact.  This
    is the one place that picks the engine.  The search ("enum") serves
    every k when each element that a nonzero atom holds has a partner
    (``_partners``), and otherwise while there are at most
    ENUM_PRODUCT_GUARD multisets of k atoms; each U_k after that prefix is
    found by the MILP engine ("milp"), starting from the unions below it.
    The rule only picks the engine: both give the same U_k.  Whether U_k is
    "enum" does not depend on ``max_k``.

    ``memo`` keeps [U_1, U_2, ...] as bitmasks under ("unions", alphabet,
    vectors).  A call reads the kept unions up to ``max_k`` and finds only
    those above them, each engine starting from the kept list, so calling
    ``unions`` once per k costs one call of ``union_profiles``:

    >>> from krull_arith import enumerate_atoms, parse_preset
    >>> atomset, memo = enumerate_atoms(parse_preset("cyclic:4").alphabet), {}
    >>> [u.members for u in union_profiles(atomset, 4, memo)]
    [(1,), (2, 3, 4), (2, 3, 4, 5), (2, 3, 4, 5, 6, 7, 8)]
    >>> kept = memo["unions", atomset.alphabet, atomset.vectors]
    >>> unions(atomset, 2, memo).members, _members(kept[1]), len(kept)
    ((2, 3, 4), frozenset({2, 3, 4}), 4)
    """
    if max_k < 1:
        return []
    if not atomset.vectors:
        raise DomainError("B(G0) has no atoms, so U_k is empty for every k >= 1")
    memo = {} if memo is None else memo
    masks = memo.setdefault(("unions", atomset.alphabet, atomset.vectors), [])
    partner = _partners(atomset)
    swept = max_k if all(j in partner for v in atomset.vectors if sum(v) > 1 for j, x in enumerate(v) if x) else 0
    while swept < max_k and comb(len(atomset) + swept, swept + 1) <= ENUM_PRODUCT_GUARD:
        swept += 1
    if len(masks) < swept:
        masks[:] = _union_by_enumeration(atomset, swept, memo, masks)
    while len(masks) < max_k:
        masks.append(_union_by_milp(atomset, len(masks) + 1, masks))
    return [UnionProfile(k, tuple(sorted(_members(mask))), mask.bit_length() - 1, (mask & -mask).bit_length() - 1,
                         True, "enum" if k <= swept else "milp") for k, mask in enumerate(masks[:max_k], 1)]


def elasticity(atomset, bound=8, memo=None):
    """rho(H).  For a negation-closed G0 this is D(G0)/2 exactly (pair every
    atom with its negative); with no atom but 0 (D(G0) <= 1) B(G0) is
    factorial and rho = 1; otherwise sup rho_k / k is reported as a swept
    lower bound.
    """
    d = atomset.davenport()
    if d <= 1 or atomset.alphabet.is_symmetric():
        return BoundedResult(Fraction(max(d, 2), 2), True, 0, "closed-form")
    ratios = [Fraction(u.rho, u.k) for u in union_profiles(atomset, bound, memo=memo)]
    return BoundedResult(max(ratios + [Fraction(1)]), False, bound, "rho_k-sweep")


def _minimal_covers(packed, u, prune):
    """Minimal covers of the packed atom u: multisets W of atoms with
    u | prod(W) such that no proper sub-multiset still covers.  Yields
    (|W|, prod(W)) pairs, prod(W) packed.  ``packed`` must hold every
    product of |u| atoms, which bounds |W|.

    Depth first, adding atoms in nondecreasing index order and only when the
    new atom meets a still-deficient element of u; every minimal cover
    survives this pruning because each of its members must meet a deficient
    element at the moment it is inserted, in any insertion order.  Atoms
    are tried smallest-overlap first.  ``prune(size, deficit)``, checked as
    each partial cover is entered, cuts the branch when it returns True;
    ``deficit`` is how many units of u are still missing.
    """
    minimum, supports, total = packed.minimum, packed.supports, packed.total
    overlap = {a: total(minimum(a, u)) for a in packed.atoms}
    cands = sorted((a for a in packed.atoms if overlap[a]), key=lambda a: (overlap[a], a))
    held = [supports(a) for a in cands]
    stack = [(0, 0, 0, ())]
    while stack:
        prod, size, start, used = stack.pop()
        missing = u - minimum(prod, u)
        if prune(size, total(missing)):
            continue
        if not missing:
            if not any(minimum(prod - cands[i], u) == u for i in set(used)):
                yield size, prod
            continue
        short = supports(missing)
        for i in reversed(range(start, len(cands))):
            if held[i] & short:
                stack.append((prod + cands[i], size + 1, i, used + (i,)))


def _omega(packed, u, best=0):
    """max(best, omega(H, u)), every cover that cannot beat ``best`` cut."""
    for size, _ in _minimal_covers(packed, u, lambda size, deficit: size + deficit <= best):
        best = size
        if best >= packed.total(u):
            break
    return best


def omega(atomset, u):
    """omega(H, u) for an atom u: the largest size of a minimal covering
    multiset of u.

    Branch and bound over the minimal covers: every member of a minimal cover
    contributes at least one unit of u, so a partial cover of size s with
    total deficit f can finish at size at most s + f; branches that cannot
    beat the best minimal cover found so far are cut, and the search stops
    once a cover of size |u| is found.
    """
    packed = PackedAtoms.for_products(atomset, atomset.davenport())
    return _omega(packed, packed.pack(_checked(atomset, u, atom=True)))


def _tame(packed, u):
    covers = list(_minimal_covers(packed, u, lambda size, deficit: False))
    if max(size for size, _ in covers) == 1:
        return 0
    best = 0
    for size, prod in covers:
        mask = _lengths(packed, prod - u)
        # mask & -mask is the lowest set bit, 1 << min L(prod(W) / u).
        best = max(best, size, (mask & -mask).bit_length())
    return best


def tame(atomset, u, memo=None):
    """t(H, u) for an atom u: 0 when u is prime in the sweep sense
    (omega = 1); otherwise the worst over minimal covers W of
    max(|W|, 1 + min L(prod(W) / u))."""
    packed = PackedAtoms.for_products(atomset, atomset.davenport(), memo)
    return _tame(packed, packed.pack(_checked(atomset, u, atom=True)))


def monoid_omega(atomset, memo=None):
    """omega(H), the largest omega(H, u) over the atoms, or 0 if none: exact,
    since the cover search of each atom is exhaustive up to the best found.

    Each member of a minimal cover of u holds a unit of u that no other
    member needs, so omega(H, u) <= |u|.  The atoms are searched largest
    |u| first, each cut at the running maximum (``_omega``), until |u| is
    at most that maximum.  The result is kept in ``memo`` under a key of
    three entries, which no (alphabet, width) table key matches, so that a
    report and its Delta ceiling search once."""
    key = ("omega", atomset.alphabet, atomset.vectors)
    if memo is not None and key in memo:
        return memo[key]
    packed = PackedAtoms.for_products(atomset, atomset.davenport(), memo)
    best = 0
    for u in sorted(_least_of_orbits(packed, atomset.alphabet, packed.atoms), key=packed.total, reverse=True):
        if packed.total(u) <= best:
            break
        best = _omega(packed, u, best)
    result = BoundedResult(best, True, 0, "atomwise-covers")
    if memo is not None:
        memo[key] = result
    return result


def monoid_tame(atomset, memo=None):
    """t(H), the largest t(H, u) over the atoms: exact, like monoid_omega."""
    packed = PackedAtoms.for_products(atomset, atomset.davenport(), memo)
    atoms = _least_of_orbits(packed, atomset.alphabet, packed.atoms)
    return BoundedResult(max((_tame(packed, u) for u in atoms), default=0), True, 0, "atomwise-covers")


def _least_of_orbits(packed, alphabet, blocks):
    """The least of each orbit in ``blocks``, a union of orbits of the group
    of unit maps of ``alphabet`` that send the packed nonzero atoms onto
    themselves (a restricted AtomSet can be kept by fewer maps than its
    alphabet): the blocks that no such map sends to a smaller packed int.
    The maps' moves on packed keys are kept on ``packed`` as ``packed.moves``."""
    if packed.moves is None:
        keys = {packed.key(u) for u in packed.nonzero()}
        packed.moves = [move for move in map(packed.mover, alphabet.unit_maps())
                        if all(bytes(move(k)) in keys for k in keys)]
    moves = packed.moves
    keyed = ((b, packed.key(b)) for b in blocks)
    return [b for b, key in keyed if not any(bytes(move(key)) < key for move in moves)]


def monoid_catenary(atomset, bound, memo=None):
    """Catenary degrees of H swept over products of at most ``bound`` atoms
    (zeros stripped; they pad every factorization identically), so never
    certified exact.  Only the least block of each orbit of the unit maps
    that keep the atoms, and only when it can raise a running maximum, is
    factored (module docstring); this gives the maxima of the whole sweep."""
    if bound < 2:
        raise ArgumentError("monoid_catenary needs bound >= 2")
    packed = PackedAtoms.for_products(atomset, bound, memo)
    levels = product_levels(packed.nonzero(), bound)
    # A block with lengths 2 and 3 lies on two levels; it is kept once.
    least = [(_lengths(packed, b), b) for b in _least_of_orbits(packed, atomset.alphabet, set().union(*levels[2:]))]
    c = c_eq = c_adj = 0
    # Larger masks first: max L(B) = mask.bit_length() - 1 does not increase.
    for mask, b in sorted(least, reverse=True):
        top = mask.bit_length() - 1
        others = top > c or (mask & (mask - 1) and top > c_adj)
        if others or top > c_eq:
            # A block that can raise only c_eq needs only its factorizations longer than c_eq.
            _, _, counts, zs = _count_vectors(packed, b, 0 if others else c_eq)
            # One listed factorization raises no maximum.
            if len(zs) > 1:
                c, c_eq, c_adj = _catenary_maxima(counts, zs, c, c_eq, c_adj)
    value = {"catenary": c, "equal": c_eq, "adjacent": c_adj, "monotone": max(c_eq, c_adj)}
    return BoundedResult(value, False, bound, "product-sweep")


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
    d = atomset.davenport()
    packed = PackedAtoms.for_products(atomset, d, memo)
    irr = [(a, u) for a, u in zip(atomset, packed.atoms) if absolutely_irreducible(atomset, a)]
    for s in range(1, min(d, len(irr)) + 1):
        for subset in combinations(irr, s):
            # Positive compositions of d into s parts, as s - 1 cut points.
            for cuts in combinations(range(1, d), s - 1):
                ends = (0,) + cuts + (d,)
                ks = tuple(b - a for a, b in zip(ends, ends[1:]))
                block = sum(k * u for k, (_, u) in zip(ks, subset))
                if _lengths(packed, block) >> 2 & 1:
                    return s, tuple((a, k) for k, (a, _) in zip(ks, subset))
    return None, None
