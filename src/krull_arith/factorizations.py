"""Factorizations of zero-sum sequences into atoms.

A factorization is a multiset of atoms; it is stored as a count vector
parallel to an AtomSet.  This module enumerates Z(B), computes the usual
distance between factorizations, the set of lengths L(B) (by a memoized
search that never materializes Z(B) and branches only on the atoms holding
the block's lowest element), and the catenary data of a block.

The kernels (``_lengths``, ``_factorizations``, ``_catenary_profile``) work
on packed blocks: ``PackedAtoms`` turns a multiplicity tuple into one int
with a fixed-width field per alphabet element, so that B * u is one addition
and the test u | B with the quotient B / u is one subtraction and one mask
test, and holds the atoms of an AtomSet in that form.  A set of lengths is a
bitmask int, bit l set for l in L(B).  A factorization inside the kernels is
a packed int too, of atom counts (``PackedCounts``), whose fields are wide
enough for the longest factorization, at most |B|/2 for a zero-free B, and
not only for each count: then the fieldwise minimum gcd(z, z') is one
guard-bit subtraction, and one multiplication by the all-ones field pattern
reads |z| or |gcd(z, z')|, so d(z, z') = max(|z|, |z'|) - |gcd(z, z')| is a
few int operations ("SIMD within a register", Lamport, *CACM* 18, 1975).
The kernels use explicit stacks, so their depth is not limited by the
interpreter's recursion limit.
``Sequence``, multiplicity tuples and ``frozenset`` appear only at the API
boundary, where the public functions check the zero sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundExceededError, DomainError

FACTORIZATION_GUARD = 10**6


class Factorization:
    """A multiset of atoms from a fixed AtomSet."""

    __slots__ = ("atomset", "counts")

    def __init__(self, atomset, counts):
        counts = tuple(int(c) for c in counts)
        if len(counts) != len(atomset):
            raise DomainError("count vector does not match atom set")
        self.atomset = atomset
        self.counts = counts

    @property
    def length(self):
        return sum(self.counts)

    def product(self):
        mults = [0] * len(self.atomset.alphabet)
        for v, c in zip(self.atomset.vectors, self.counts):
            for j, x in enumerate(v):
                mults[j] += c * x
        return self.atomset.alphabet.from_mults(mults)

    def __eq__(self, other):
        return (
            isinstance(other, Factorization)
            and self.atomset is other.atomset
            and self.counts == other.counts
        )

    def __hash__(self):
        return hash(self.counts)

    def __lt__(self, other):
        return self.counts < other.counts

    def to_json(self):
        return list(self.counts)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.counts):
            if c:
                a = "(%s)" % self.atomset[i]
                parts.append(a if c == 1 else "%s^%d" % (a, c))
        return " . ".join(parts) if parts else "empty"

    def __repr__(self):
        return "Factorization(%s)" % (str(self),)


class PackedAtoms:
    """Blocks over an alphabet packed into ints, and the atoms of an AtomSet
    packed the same way.

    Coordinate j is the field of ``width`` bits at bit ``j * width``; its top
    bit is a guard bit, 0 in every packed block.  The width is the smallest
    of 8, 16, 32, ... whose fields hold ``top``, so products with
    multiplicities at most ``top`` never carry across fields.  With
    ``guard`` the int of all guard bits, d = (B | guard) - u keeps every
    guard bit exactly when u | B, and then B / u = d ^ guard.

    ``atoms`` holds the packed atoms, ``indices`` their AtomSet indices; an
    atom with a multiplicity too large for a field divides no such block and
    is left out.  ``zero`` is (AtomSet index, bit offset) of the atom 0, or None.
    ``pivots[(B & -B).bit_length()]`` lists the packed atoms that hold the
    lowest element of a nonzero block B, the element of B's lowest nonzero
    field.  ``table``, the memo of length bitmasks, is
    ``memo[(alphabet, width)]``, so that blocks over other alphabets or
    packed at other widths never share a table.
    """

    __slots__ = (
        "length", "width", "field", "guard", "size", "atoms", "indices", "zero", "pivots", "table",
    )

    def __init__(self, atomset, top, memo=None):
        width = 8
        while top >> (width - 1):
            width *= 2
        self.length = len(atomset.alphabet)
        self.width = width
        self.field = (1 << width) - 1
        self.guard = sum(1 << (j * width + width - 1) for j in range(self.length))
        kept = [(i, v) for i, v in enumerate(atomset.vectors) if max(v) >> (width - 1) == 0]
        self.size = len(atomset.vectors)
        self.indices = tuple(i for i, _ in kept)
        self.atoms = tuple(self.pack(v) for _, v in kept)
        self.zero = next(((i, v.index(1) * width) for i, v in kept if sum(v) == 1), None)
        holding = [[u for u, (_, v) in zip(self.atoms, kept) if v[j]] for j in range(self.length)]
        self.pivots = [()] + [held for held in holding for _ in range(width)]
        memo = {} if memo is None else memo
        self.table = memo.setdefault((atomset.alphabet, width), {0: 1})

    @classmethod
    def for_products(cls, atomset, count, memo=None):
        """Packed wide enough for every product of at most ``count`` atoms."""
        top = max((max(v) for v in atomset.vectors), default=0)
        return cls(atomset, count * top, memo)

    def pack(self, mults):
        width = self.width
        return sum(m << (j * width) for j, m in enumerate(mults))

    def nonzero(self):
        """The packed atoms other than the atom 0."""
        if self.zero is None:
            return list(self.atoms)
        zero = 1 << self.zero[1]
        return [u for u in self.atoms if u != zero]

    def split_zeros(self, block):
        """(v_0(B), B without its zeros).  Zero lies in no other atom, so
        every factorization of B contains the atom 0 exactly v_0(B) times."""
        if self.zero is None:
            return 0, block
        shift = self.zero[1]
        y = block >> shift & self.field
        return y, block ^ (y << shift)


def _members(mask):
    """The set of lengths a bitmask holds."""
    return frozenset(l for l in range(mask.bit_length()) if mask >> l & 1)


class PackedCounts:
    """Count vectors over ``m`` atoms packed into ints, with the first atom in
    the highest field, so that the order of the packed counts is the order
    of the count tuples.

    Each field is ``width`` bits wide, the smallest of 8, 16, 32, ... whose
    fields hold ``longest`` below their top (guard) bit.  With ``longest`` at
    least every length |z|, no field and no sum of fields ever carries:
    the product z * ones holds |z| in field m - 1, and the guard-bit
    subtraction of ``PackedAtoms`` gives the fieldwise minimum gcd(z, z'),
    whose length the same product reads.  A bound on the counts alone is
    not enough for the sums: m counts of 127 fit 8-bit fields, their sum
    does not.
    """

    __slots__ = ("field", "top", "guard", "ones", "shift", "shifts")

    def __init__(self, m, longest):
        width = 8
        while longest >> (width - 1):
            width *= 2
        self.field = (1 << width) - 1
        self.top = width - 1
        self.guard = sum(1 << (i * width + width - 1) for i in range(m))
        self.ones = sum(1 << (i * width) for i in range(m))
        self.shift = width * max(m - 1, 0)
        self.shifts = [width * (m - 1 - i) for i in range(m)]

    def unpack(self, z):
        field = self.field
        return tuple(z >> s & field for s in self.shifts)

    def lengths(self, zs):
        """|z| for each packed z."""
        ones, shift, field = self.ones, self.shift, self.field
        return [(z * ones) >> shift & field for z in zs]

    def overlaps(self, z, others):
        """|gcd(z, w)| for each packed w in ``others``.  The guard bit of a
        field of (z | guard) - w stays set exactly when z's count there is
        at least w's; spread to a mask, it picks w's count there, and z's
        elsewhere."""
        guard, top, ones, shift, field = self.guard, self.top, self.ones, self.shift, self.field
        held = z | guard
        return [
            ((z ^ ((z ^ w) & ((f := (held - w) & guard) - (f >> top)))) * ones) >> shift & field
            for w in others
        ]


def _count_vectors(packed, block):
    """Z(B) for a packed block: (y, positions, counts, zs) with y = v_0(B),
    positions the indices into ``packed.atoms`` of the nonzero atoms dividing
    B, and zs the factorizations of B without its zeros, sorted, as counts
    of those atoms packed by the ``PackedCounts`` ``counts``.

    The atoms are filtered once, at the root: an atom that does not divide B
    divides no part of it.  The search is depth first over atoms in
    nondecreasing order, so each multiset is produced once.  A nonzero atom
    has at least two elements, so no factorization of the zero-free part is
    longer than half its size, which sets the count width."""
    y, block = packed.split_zeros(block)
    guards = packed.guard
    held = block | guards
    positions = [p for p, u in enumerate(packed.atoms) if (held - u) & guards == guards]
    atoms = [packed.atoms[p] for p in positions]
    width, field = packed.width, packed.field
    size = sum(block >> s & field for s in range(0, packed.length * width, width))
    counts = PackedCounts(len(atoms), size // 2)
    ones = [1 << s for s in counts.shifts]
    out = []
    stack = [(block, 0, 0)]
    while stack:
        rem, start, z = stack.pop()
        if not rem:
            out.append(z)
            if len(out) > FACTORIZATION_GUARD:
                raise BoundExceededError("more than %d factorizations" % FACTORIZATION_GUARD)
            continue
        held = rem | guards
        for i in range(start, len(atoms)):
            d = held - atoms[i]
            if d & guards == guards:
                stack.append((d ^ guards, i, z + ones[i]))
    out.sort()
    return y, positions, counts, out


def _factorizations(packed, block):
    """Z(B) of a packed block as sorted count tuples over the AtomSet."""
    y, positions, counts, zs = _count_vectors(packed, block)
    base = [0] * packed.size
    if y:
        base[packed.zero[0]] = y
    slots = [packed.indices[p] for p in positions]
    out = []
    for z in zs:
        row = base[:]
        for i, c in zip(slots, counts.unpack(z)):
            row[i] = c
        out.append(tuple(row))
    return out


def _packed(atomset, block, memo=None):
    """(PackedAtoms fitted to the block, the packed block)."""
    packed = PackedAtoms(atomset, max(block.mults, default=0), memo)
    return packed, packed.pack(block.mults)


def factorize(atomset, block):
    """All factorizations Z(B) of a zero-sum sequence, sorted canonically.

    Raises BoundExceededError past FACTORIZATION_GUARD results.
    """
    if not block.is_zero_sum():
        raise DomainError("cannot factor a sequence with nonzero sum")
    counts = _factorizations(*_packed(atomset, block))
    return tuple(Factorization(atomset, c) for c in counts)


def distance(z1, z2):
    """d(z, z') = max length of the two parts left after cancelling gcd(z, z')."""
    return max(z1.length, z2.length) - sum(map(min, z1.counts, z2.counts))


def _lengths(packed, block):
    """L(B) of a packed block as a bitmask.  L(B) = L(B without its zeros)
    shifted by v_0(B).  For a zero-free B it is the OR of L(B/u) << 1 over
    the atoms u | B that hold B's lowest element: every factorization of B
    has an atom holding that element, so these branches reach every length.
    The pivot depends only on the block, never on the atom set, so tables
    shared by restricted atom sets stay valid.  Memoized in ``packed.table``
    and evaluated children first with an explicit stack."""
    table = packed.table
    hit = table.get(block)
    if hit is not None:
        return hit
    y, rest = packed.split_zeros(block)
    if y:
        table[block] = mask = _lengths(packed, rest) << y
        return mask
    guard, pivots = packed.guard, packed.pivots
    stack = [(block, None)]
    while stack:
        b, rests = stack.pop()
        if rests is None:
            if b in table:
                continue
            held = b | guard
            rests = [
                d ^ guard for u in pivots[(b & -b).bit_length()] if (d := held - u) & guard == guard
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


def lengths_of(atomset, block, memo=None):
    """The set of lengths L(B) = {|z| : z in Z(B)}, as a frozenset.

    ``memo`` is a dict the kernels fill: for each alphabet and packing width,
    a table from packed blocks to length bitmasks.  It may be shared across
    blocks and alphabets, as long as each alphabet keeps one atom set or atom
    sets restricted from it by ``AtomSet.restrict``.
    """
    if not block.is_zero_sum():
        raise DomainError("length set of a non-zero-sum sequence")
    return _members(_lengths(*_packed(atomset, block, memo)))


def _mst_bottleneck(counts, nodes, lengths):
    """Largest edge on a minimum spanning tree of the complete graph on the
    packed counts ``nodes``, weighted by distance (Prim); ``lengths[i]`` is
    the length of ``nodes[i]``, and d(z, z') = max(|z|, |z'|) - |gcd(z, z')|."""
    if len(nodes) <= 1:
        return 0
    node, length = nodes[0], lengths[0]
    nodes, lengths = nodes[1:], lengths[1:]
    best = [max(length, l) - o for l, o in zip(lengths, counts.overlaps(node, nodes))]
    bottleneck = 0
    while best:
        d = min(best)
        i = best.index(d)
        bottleneck = max(bottleneck, d)
        best.pop(i)
        node, length = nodes.pop(i), lengths.pop(i)
        best = [
            min(b, max(length, l) - o)
            for b, l, o in zip(best, lengths, counts.overlaps(node, nodes))
        ]
    return bottleneck


@dataclass(frozen=True)
class CatenaryProfile:
    catenary: int
    equal: int
    adjacent: int
    monotone: int
    num_factorizations: int
    lengths: tuple

    def to_json(self):
        return {
            "catenary": self.catenary,
            "equal": self.equal,
            "adjacent": self.adjacent,
            "monotone": self.monotone,
            "num_factorizations": self.num_factorizations,
            "lengths": list(self.lengths),
        }


def _catenary_profile(packed, block):
    """catenary_profile() on a packed block.  The atom 0 occurs equally often
    in every factorization, so distances are taken on the packed counts of
    the nonzero atoms and only the lengths add v_0(B)."""
    y, _, counts, zs = _count_vectors(packed, block)
    sizes = counts.lengths(zs)
    by_len = {}
    for z, l in zip(zs, sizes):
        by_len.setdefault(l, []).append(z)
    lengths = tuple(sorted(l + y for l in by_len))
    if len(zs) <= 1:
        return CatenaryProfile(0, 0, 0, 0, len(zs), lengths)
    c = _mst_bottleneck(counts, zs, sizes)
    c_eq = max(_mst_bottleneck(counts, group, [l] * len(group)) for l, group in by_len.items())
    c_adj = 0
    ls = sorted(by_len)
    for a, b in zip(ls, ls[1:]):
        # For |z| = a < b = |z'|, d(z, z') = b - |gcd(z, z')|.
        common = max(max(counts.overlaps(z, by_len[b])) for z in by_len[a])
        c_adj = max(c_adj, b - common)
    return CatenaryProfile(c, c_eq, c_adj, max(c_eq, c_adj), len(zs), lengths)


def catenary_profile(atomset, block):
    """Catenary data of one block: c(B) (bottleneck over all of Z(B)),
    the equal-length and adjacent-length refinements, and their maximum
    (the monotone catenary degree of the block).
    """
    if not block.is_zero_sum():
        raise DomainError("cannot factor a sequence with nonzero sum")
    return _catenary_profile(*_packed(atomset, block))
