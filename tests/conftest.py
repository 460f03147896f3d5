"""Shared fixtures: small alphabets and atom sets reused across the suite,
the exhaustive atom oracle, the closed-form Z(S) and L(S) of Theorem 7.4,
the level-sweep Delta, Delta*, union and closure-probe oracles, the
list-building L(B) search, the reach-table Z(B) search, the kernel oracle
of min Delta, the chain oracle of the catenary degrees, the reference atom
completion, and the fiber-split transfer window check."""

from collections import Counter
from functools import reduce
from itertools import islice, product
from math import gcd
from operator import add, mul, or_

import pytest
from hypothesis import strategies as st

from krull_arith import Alphabet, GroupSpec, Sequence, enumerate_atoms
from krull_arith.atoms import _zero_sum_columns
from krull_arith.errors import ArgumentError, BoundExceededError
from krull_arith.factorizations import Packing, _lengths, _mask, _members
from krull_arith.invariants import delta_of_set, product_levels
from krull_arith.lengths import ClosureProbe, _length_masks, sumset
from krull_arith.presets import _thm74_basis, build_preset
from krull_arith.transfer import TransferReport


def cyclic_alphabet(n):
    spec = GroupSpec(0, (n,))
    return Alphabet(spec, [spec.element(torsion=(i,)) for i in range(n)])


def int_alphabet(*values):
    """Alphabet over Z from plain integers."""
    spec = GroupSpec(1)
    return Alphabet(spec, [spec.element(free=(v,)) for v in values])


def simplex_alphabet(r):
    """e_1, ..., e_r and -(e_1 + ... + e_r) in Z^r: r + 1 elements, not
    closed under negation, whose one atom holds each of them once."""
    spec = GroupSpec(r)
    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    return Alphabet(spec, [spec.element(free=v) for v in basis + [(-1,) * r]])


def minimalize(vectors):
    """Drop every vector strictly dominated by another one."""
    vectors = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vectors:
        if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
            kept.append(v)
    return kept


def atoms_by_exhaustion(alphabet, max_mult):
    """Independent oracle: scan every vector with coordinates <= max_mult,
    keep the zero-sum ones, and extract the minimal nonzero ones.

    Exponential; only for cross-checking tiny instances.
    """
    zero_sum = []
    for v in product(range(max_mult + 1), repeat=len(alphabet)):
        if any(v) and Sequence(alphabet, v).is_zero_sum():
            zero_sum.append(v)
    return tuple(Sequence(alphabet, v) for v in minimalize(zero_sum))


def completion_reference(columns, caps, packing):
    """Reference ``atoms._completion``: the same completion with no table of
    moves and no dead masks.  It takes <Ax, Ae_j> for every column of every
    frontier vector and tests every candidate against its bucket, so it
    checks that the kernel's skipped candidates are exactly those the bucket
    scan rejects.  Returns the packed basis in the order it is found, or None
    when an uncapped entry reaches its guard bit."""
    guard, shifts = packing.guard, packing.shifts
    units = [1 << t for t in shifts]
    masks = [packing.field << t for t in shifts]
    limits = [(packing.field >> 1 if cap is None else cap) << t for cap, t in zip(caps, shifts)]
    basis = []
    by_entry = {}
    frontier = dict(zip(units, columns))
    while frontier:
        growing = []
        for x, s in frontier.items():
            if any(s):
                growing.append((x, s))
                continue
            basis.append(x)
            for mask in masks:
                if x & mask:
                    by_entry.setdefault(x & mask, []).append(x)
        nxt = {}
        for x, s in growing:
            for j, column in enumerate(columns):
                if sum(map(mul, s, column)) >= 0:
                    continue
                y = x + units[j]
                if y in nxt:
                    continue
                entry = y & masks[j]
                held = y | guard
                for b in by_entry.get(entry, ()):
                    if (held - b) & guard == guard:
                        break
                else:
                    if entry > limits[j]:
                        if caps[j] is None:
                            return None
                        raise BoundExceededError(
                            "multiplicity cap %d exceeded at coordinate %d" % (caps[j], j)
                        )
                    nxt[y] = tuple(map(add, s, column))
        frontier = nxt
    return basis


def completion_runs(kernel, columns, caps):
    """The outcome of ``kernel`` (``atoms._completion`` or
    ``completion_reference``) at each width that ``minimal_nonneg_solutions``
    tries on a system with every cap at least 1: None for each width that
    an uncapped entry outgrows, then the basis as unpacked tuples in the
    order found, or the message of the BoundExceededError raised."""
    packing = Packing(len(columns), max((cap for cap in caps if cap is not None), default=0))
    runs = []
    while True:
        try:
            basis = kernel(columns, caps, packing)
        except BoundExceededError as exc:
            return runs + [str(exc)]
        if basis is not None:
            return runs + [[packing.unpack(b) for b in basis]]
        runs.append(None)
        packing = Packing(len(columns), packing.field)


def atoms_by_reference(alphabet, cap=64):
    """The atom vectors of ``alphabet`` in AtomSet order, from
    ``completion_reference`` on the columns ``enumerate_atoms`` builds."""
    k = len(alphabet)
    cols = _zero_sum_columns(alphabet.spec, alphabet.elements)
    basis = completion_runs(completion_reference, cols, [cap] * k + [None] * (len(cols) - k))[-1]
    return tuple(sorted(v[:k] for v in basis))


def thm74_atoms_symbolic(preset):
    """(e_0..e_r, V, [U_0, ..., U_r]) for a thm74 preset: its basis and the
    atoms V = (-e_0)^alpha e_1...e_r and U_i = (-e_i)e_i, as sequences over
    the preset alphabet."""
    r = preset.params["r"]
    alpha = preset.params["alpha"]
    alphabet = preset.alphabet
    es = _thm74_basis(alphabet.spec, r, alpha)
    v = alphabet.sequence([(-es[0], alpha)] + [(e, 1) for e in es[1:]])
    us = [alphabet.sequence([(e, 1), (-e, 1)]) for e in es]
    return es, v, us


def thm74_block(preset, ks, ls):
    """The sequence prod e_i^{k_i} (-e_i)^{l_i} over a thm74 alphabet."""
    es, _, _ = thm74_atoms_symbolic(preset)
    pairs = []
    for e, k, l in zip(es, ks, ls):
        pairs.append((e, k))
        pairs.append((-e, l))
    return preset.alphabet.sequence(pairs)


def thm74_closed_form(preset, ks, ls):
    """Closed-form Z(S) and L(S) for S = prod e_i^{k_i}(-e_i)^{l_i}.

    Returns (is_zero_sum, factorizations, lengths) where each factorization
    is a sequence over the alphabet (the product is reassembled from the
    symbolic atoms); factorizations are reported as multisets of atoms.
    S must satisfy k_0 >= l_0 (negate first otherwise).
    """
    r = preset.params["r"]
    alpha = preset.params["alpha"]
    k0, l0 = ks[0], ls[0]
    if k0 < l0:
        raise ArgumentError("closed form stated for k_0 >= l_0; negate first")
    if (k0 - l0) % alpha != 0:
        return False, (), frozenset()
    q = (k0 - l0) // alpha
    if any(ls[i] != q + ks[i] for i in range(1, r + 1)):
        return False, (), frozenset()
    _, v, us = thm74_atoms_symbolic(preset)
    kstar = min(ks[1:])
    top = min(l0 // alpha, kstar)
    facs = []
    lengths = set()
    for nu in range(top + 1):
        parts = [(v, nu), (v.negate(), q + nu), (us[0], l0 - alpha * nu)]
        parts += [(us[i], ks[i] - nu) for i in range(1, r + 1)]
        facs.append(tuple((a, m) for a, m in parts if m))
        lengths.add(q + l0 + sum(ks[1:]) - (r + alpha - 2) * nu)
    return True, tuple(facs), frozenset(lengths)


def unions_by_levels(atomset, k, memo=None):
    """Reference [U_1, ..., U_k] as bitmasks by the full level sweep: U_i is
    the OR of the length bitmasks of every product of exactly i atoms, level
    i of ``_length_masks``.  Builds every level; only for small instances."""
    levels = islice(_length_masks(atomset, k, memo), 1, None)
    return [reduce(or_, masks, 0) for masks in levels]


def delta_by_full_sweep(atomset, bound, memo=None):
    """Reference Delta sweep: the gaps of every length set on levels 2 to
    ``bound`` of ``_length_masks``, with no stop at the omega ceiling.
    Builds every level; only for small instances."""
    levels = islice(_length_masks(atomset, bound, memo), 2, None)
    return frozenset(gap for masks in levels for mask in masks for gap in delta_of_set(_members(mask)))


def lengths_by_lists(packed, block):
    """Reference ``factorizations._lengths``: the same pivot search, where a
    node builds the list of its children and the list of those missing from
    the table, is pushed back with the first list under the missing
    children, and ORs the children's masks when it is popped again.  A node
    already in the table when it is popped is expanded again."""
    table = packed.table
    hit = table.get(block)
    if hit is not None:
        return hit
    y, rest = packed.split_zeros(block)
    if y:
        table[block] = mask = lengths_by_lists(packed, rest) << y
        return mask
    guard, pivots = packed.guard, packed.pivots
    stack = [(block, None)]
    while stack:
        b, rests = stack.pop()
        if rests is None:
            held = b | guard
            rests = [
                d ^ guard for u in pivots[b.bit_length()] if (d := held - u) & guard == guard
            ]
            missing = [r for r in rests if r not in table]
            if missing:
                stack.append((b, rests))
                stack.extend((r, None) for r in missing)
                continue
        mask = 0
        for r in rests:
            mask |= table[r]
        table[b] = mask << 1
    return table[block]


def count_vectors_by_reach(packed, block):
    """Reference ``factorizations._count_vectors``, with no guard on |Z(B)|:
    a depth-first search over every dividing atom in nondecreasing index,
    pushing a remainder only when each of its elements lies in ``reach[i]``,
    the supports of the atoms i, i + 1, ...  Returns the same (y, positions,
    counts, zs)."""
    y, block = packed.split_zeros(block)
    guards, supports = packed.guard, packed.supports
    held = block | guards
    positions = [p for p, u in enumerate(packed.atoms) if (held - u) & guards == guards]
    atoms = [packed.atoms[p] for p in positions]
    reach = [0] * (len(atoms) + 1)
    for i in reversed(range(len(atoms))):
        reach[i] = reach[i + 1] | supports(atoms[i])
    counts = Packing(len(atoms), sum(packed.unpack(block)) // 2)
    ones = [1 << s for s in counts.shifts]
    out = []
    stack = [(block, 0, 0)]
    while stack:
        rem, start, z = stack.pop()
        if not rem:
            out.append(z)
            continue
        held = rem | guards
        for i in range(start, len(atoms)):
            d = held - atoms[i]
            if d & guards == guards:
                rest = d ^ guards
                if supports(rest) | reach[i] == reach[i]:
                    stack.append((rest, i, z + ones[i]))
    out.sort()
    return y, positions, counts, out


def least_gaps_by_levels(packed, atom_sets, bound):
    """Reference ``invariants._least_gaps_by_support`` with no floor:
    {support: least gap of L(B)} over every product B of 2..``bound``
    nonzero atoms from any one of ``atom_sets`` (masks of AtomSet indices),
    the blocks taken from ``product_levels`` of each set."""
    zero = packed.zero[0] if packed.zero else None
    blocks = set()
    for atoms in atom_sets:
        chosen = [u for i, u in enumerate(packed.atoms) if atoms >> i & 1 and i != zero]
        for level in product_levels(chosen, bound)[2:]:
            blocks |= level
    least = {}
    for b in blocks:
        gap = min(delta_of_set(_members(_lengths(packed, b))), default=None)
        if gap is not None:
            support = packed.supports(b)
            if gap < least.get(support, gap + 1):
                least[support] = gap
    return least


def kernel_basis(columns):
    """A basis of the integer kernel {z : sum z_i c_i = 0} of the integer
    vectors ``columns``, by unimodular column reduction of [A; I], A the
    matrix with these columns: Euclid on each row of A, by swapping columns
    and subtracting integer multiples of one from another, keeps the lower
    part the unimodular transformation, so the lower parts of the columns
    whose upper part ends at zero form a basis of the kernel."""
    height, n = len(columns[0]) if columns else 0, len(columns)
    cols = [list(c) + [int(i == j) for j in range(n)] for i, c in enumerate(columns)]
    done = 0
    for row in range(height):
        while len(live := [j for j in range(done, n) if cols[j][row]]) > 1:
            pivot = min(live, key=lambda j: abs(cols[j][row]))
            for j in live:
                if j != pivot:
                    q = cols[j][row] // cols[pivot][row]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[pivot])]
        if live:
            cols[done], cols[live[0]] = cols[live[0]], cols[done]
            done += 1
    return [c[height:] for c in cols[done:]]


def min_delta_by_kernel(atomset):
    """d(H) = gcd{|x| - |y| : x, y in Z(a), a in H}, which is min Delta(H) =
    gcd Delta(H) (Geroldinger-Halter-Koch 2006, Prop. 1.4.4), or 0 when
    Delta(H) is empty.  Each such x - y is an integer kernel vector z of the
    atom matrix (the atom multiplicity vectors as columns), and every z is
    one, split into its positive and negative parts; |x| - |y| = sum(z) is
    linear in z, so the gcd over a kernel basis is d(H)."""
    return reduce(gcd, (sum(z) for z in kernel_basis(atomset.vectors)), 0)


def closure_probe_by_levels(atomset, product_bound, memo=None):
    """Reference ``additive_closure_probe`` by the level sweep: collect the
    length bitmasks of levels 0 to ``product_bound`` of ``_length_masks``,
    and look each sumset up in the level of its minimum, building the levels
    up to twice the bound as the pairs, smallest minimum first, reach them.
    Only for small instances."""
    vbound = 2 * product_bound
    sweep = _length_masks(atomset, vbound, memo)
    levels = list(islice(sweep, product_bound + 1))
    masks = set().union(*levels)
    collected = sorted((_members(mask) for mask in masks), key=lambda s: (min(s), sorted(s)))
    pairs = []
    for i, l1 in enumerate(collected):
        for l2 in collected[i:]:
            pairs.append((min(l1) + min(l2), sorted(l1), sorted(l2), l1, l2))
    pairs.sort(key=lambda p: p[:3])
    for lo, _, _, l1, l2 in pairs:
        while len(levels) <= lo:
            levels.append(next(sweep))
        t = sumset(l1, l2)
        if _mask(t) not in levels[lo]:
            return ClosureProbe(False, (l1, l2, t), product_bound, vbound)
    return ClosureProbe(True, (), product_bound, vbound)


def _reference_distance(z1, z2):
    c1, c2 = Counter(dict(enumerate(z1))), Counter(dict(enumerate(z2)))
    return max(sum((c1 - c2).values()), sum((c2 - c1).values()))


def _chain_degree(zs):
    """Smallest N such that any two of zs are joined by a chain of steps of
    distance at most N."""
    for n in range(max((sum(z) for z in zs), default=0) + 1):
        reached = {zs[0]}
        frontier = [zs[0]]
        while frontier:
            z = frontier.pop()
            for w in zs:
                if w not in reached and _reference_distance(z, w) <= n:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) == len(zs):
            return n
    raise AssertionError("no chain degree found")


def catenary_by_chains(zs):
    """Reference (c, c_eq, c_adj) of a block from its factorizations ``zs``,
    as count tuples: chains over all of Z(B) and within each length class,
    and the least distance between adjacent lengths, each distance taken
    from multiset differences.  Shares no code with the catenary kernel."""
    by_len = {}
    for z in zs:
        by_len.setdefault(sum(z), []).append(z)
    ls = sorted(by_len)
    adjacent = max(
        (
            min(_reference_distance(z1, z2) for z1 in by_len[a] for z2 in by_len[b])
            for a, b in zip(ls, ls[1:])
        ),
        default=0,
    )
    return _chain_degree(zs), max(_chain_degree(group) for group in by_len.values()), adjacent


class ZeroSumsByRecursion:
    """Zero-sum tests and enumeration on multiplicity tuples by a recursion
    that carries the prefix's group sum and tests it at each leaf."""

    def __init__(self, alphabet):
        spec = alphabet.spec
        self.rows = [g.coords for g in alphabet.elements]
        self.columns = list(zip(*self.rows))
        self.mods = (0,) * spec.free_rank + spec.torsion

    def _zero(self, sums):
        return not any(s % n if n else s for s, n in zip(sums, self.mods))

    def __call__(self, mults):
        return self._zero(sum(map(mul, mults, column)) for column in self.columns)

    def vectors(self, limits, total):
        """The zero-sum v <= limits with sum(v) <= total, in lexicographic
        order."""
        rows, width = self.rows, len(self.rows)

        def rec(i, remaining, sums, prefix):
            if i == width:
                if self._zero(sums):
                    yield prefix
                return
            row = rows[i]
            for m in range(min(limits[i], remaining) + 1):
                yield from rec(i + 1, remaining - m, sums, prefix + (m,))
                sums = tuple(map(add, sums, row))

        return rec(0, total, (0,) * len(self.mods), ())

    def window(self, bound):
        return (v for v in self.vectors((bound,) * len(self.rows), bound) if any(v))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def preimages_by_fibers(tmap, target_mults, within=None):
    """All source tuples d with theta(d) = target_mults, dividing ``within``
    when it is given: each target multiplicity split over its fiber."""
    fibers = [[] for _ in target_mults]
    for i, j in enumerate(tmap.images):
        if within is None or within[i]:
            fibers[j].append(i)
    slots = [(fibers[j], m) for j, m in enumerate(target_mults) if m]
    if not all(idxs for idxs, _ in slots):
        return
    choices = [
        [
            tuple(zip(idxs, split))
            for split in _compositions(m, len(idxs))
            if within is None or all(c <= within[i] for i, c in zip(idxs, split))
        ]
        for idxs, m in slots
    ]
    for pick in product(*choices):
        d = [0] * len(tmap.source)
        for part in pick:
            for i, c in part:
                d[i] = c
        yield tuple(d)


def check_transfer_by_fibers(tmap, bound):
    """Reference check_transfer: each target window sequence (T1) and each
    zero-sum divisor B' of theta(A) (T2) is split over the fibers of theta,
    and the splits are searched for a zero-sum one; the scan of a property
    stops at its 10th failure."""
    source, target = ZeroSumsByRecursion(tmap.source), ZeroSumsByRecursion(tmap.target)
    t1 = (b for b in target.window(bound) if not any(map(source, preimages_by_fibers(tmap, b))))
    t2 = (
        (a, bt)
        for a in source.window(bound)
        for bt in target.vectors(tmap._image(a), bound)
        if not any(map(source, preimages_by_fibers(tmap, bt, within=a)))
    )
    t1_failures = tuple(Sequence(tmap.target, b) for b in islice(t1, 10))
    t2_failures = tuple(
        (Sequence(tmap.source, a), Sequence(tmap.target, bt)) for a, bt in islice(t2, 10)
    )
    return TransferReport(not t1_failures, not t2_failures, bound, t1_failures, t2_failures)


def small_alphabets():
    """Strategy: small alphabets whose atoms are few and short enough for
    brute-force references, and many of whose blocks factor in more than one
    way: subsets of Z/n (3 <= n <= 5) with at most two classes left out, and
    negation-closed sets over Z (entries in [-3, 3]) and over Z^2 (entries
    in [-1, 1]), zero optional."""

    def over(spec, coords):
        return Alphabet(spec, [spec.element_from_coords(c) for c in coords])

    def symmetric(spec, vectors, zero):
        coords = set(vectors) | {tuple(-x for x in v) for v in vectors}
        if zero:
            coords.add((0,) * spec.dimension)
        return over(spec, coords)

    cyclic = st.integers(3, 5).flatmap(
        lambda n: st.sets(st.tuples(st.integers(0, n - 1)), min_size=n - 2, max_size=n).map(
            lambda cs: over(GroupSpec(0, (n,)), cs)
        )
    )
    positive = st.tuples(st.integers(1, 3))
    line = st.builds(
        symmetric, st.just(GroupSpec(1)), st.sets(positive, min_size=1, max_size=3), st.booleans()
    )
    nonzero = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(any)
    plane = st.builds(
        symmetric, st.just(GroupSpec(2)), st.sets(nonzero, min_size=1, max_size=3), st.booleans()
    )
    return st.one_of(cyclic, line, plane)


@pytest.fixture(scope="session")
def cyclic3_atoms():
    return enumerate_atoms(cyclic_alphabet(3))


@pytest.fixture(scope="session")
def cyclic4_atoms():
    return enumerate_atoms(cyclic_alphabet(4))


@pytest.fixture(scope="session")
def cyclic5_atoms():
    return enumerate_atoms(cyclic_alphabet(5))


@pytest.fixture(scope="session")
def five_point_atoms():
    return enumerate_atoms(build_preset("five_point").alphabet)


@pytest.fixture(scope="session")
def thm74_21():
    preset = build_preset("thm74", 2, 1)
    return preset, enumerate_atoms(preset.alphabet)
