"""Factorizations of zero-sum sequences into atoms.

A factorization is a multiset of atoms; it is stored as a count vector
parallel to an AtomSet.  This module enumerates Z(B), computes the usual
distance between factorizations, the set of lengths L(B) (by a memoized
search that never materializes Z(B) and branches only on the atoms holding
the block's lowest element), and the catenary data of a block.

The kernels (``_lengths``, ``_count_vectors``, ``_catenary_maxima``) work
on packed ints, all in the one layout of ``Packing``: a tuple of
nonnegative ints is one int with a fixed-width field per entry.
``PackedAtoms`` packs blocks that way, one field per alphabet element, so
that B * u is one addition and the test u | B with the quotient B / u is
one subtraction and one mask test, and holds every atom of an AtomSet in
that form, in AtomSet order.  A memo keeps one PackedAtoms per AtomSet and
packing width (``PackedAtoms.shared``), and the tables that the sweeps
derive from its atoms hang on it, so each is built once per memo.  A set
of lengths is a bitmask int, bit l set for l in L(B).  A factorization
inside the kernels is a packed tuple of atom counts, whose fields are wide
enough for the longest factorization, at most |B|/2 for a zero-free B,
and not only for each count: then the fieldwise minimum gcd(z, z'), |z| and |gcd(z, z')| are a few int
operations each, and so is d(z, z') = max(|z|, |z'|) - |gcd(z, z')|.
The kernels use explicit stacks, so their depth is not limited by the
interpreter's recursion limit.  The length kernels (``_lengths`` and the
threshold test ``invariants._reaches``) expand a node in one pass over its
pivot atoms and build no list per node: a child is looked up once, and
either answers for the node or is pushed.
``Sequence``, multiplicity tuples and ``frozenset`` appear only at the API
boundary, where the public functions check their sequence (``_checked``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import BoundExceededError, DomainError, ShapeError

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

    def __str__(self):
        parts = []
        for i, c in enumerate(self.counts):
            if c:
                a = "(%s)" % self.atomset[i]
                parts.append(a if c == 1 else "%s^%d" % (a, c))
        return " . ".join(parts) if parts else "empty"

    def __repr__(self):
        return "Factorization(%s)" % (str(self),)


def _width(top):
    """The field width of a ``Packing`` of entries at most ``top``."""
    width = 8
    while top >> (width - 1):
        width *= 2
    return width


class Packing:
    """Tuples of ``length`` nonnegative ints packed into one int, each entry
    in a field of ``width`` bits, the first entry in the highest field, so
    that packed ints order like their tuples.

    The width is the smallest of 8, 16, 32, ... whose fields hold ``top``
    below their top bit, the guard bit, which is 0 in every packed tuple
    with entries at most ``top``; ``guard`` is the int of all guard bits.
    Fieldwise operations are then a few int operations ("SIMD within a
    register", Lamport, *CACM* 18, 1975): d = (x | guard) - y keeps the
    guard bit of exactly the fields where x's entry is at least y's, so
    y <= x fieldwise when d keeps every guard bit, and then x - y = d ^ guard.

    >>> p = Packing(3, 5)
    >>> x, y = p.pack((3, 0, 5)), p.pack((1, 2, 5))
    >>> p.width, p.unpack(x), p.unpack(p.minimum(x, y)), p.total(x), x < y
    (8, (3, 0, 5), (1, 0, 5), 8, False)
    >>> p.unpack(p.supports(x) >> (p.width - 1))
    (1, 0, 1)
    """

    __slots__ = ("length", "width", "field", "guard", "ones", "shifts")

    def __init__(self, length, top):
        width = self.width = _width(top)
        self.length = length
        self.field = (1 << width) - 1
        self.shifts = [width * (length - 1 - j) for j in range(length)]
        self.ones = sum(1 << s for s in self.shifts)
        self.guard = self.ones << (width - 1)

    def pack(self, entries):
        return sum(m << s for m, s in zip(entries, self.shifts))

    def unpack(self, x):
        field = self.field
        return tuple(x >> s & field for s in self.shifts)

    def total(self, x):
        """The sum of the entries, when it is below ``field`` = 2**width - 1:
        2**width is 1 modulo ``field``, so x is its sum of entries modulo
        ``field``, as a number is its sum of decimal digits modulo 9."""
        return x % self.field

    def minimum(self, x, y):
        """The fieldwise minimum.  The guard bit of a field of
        (x | guard) - y stays set exactly when x's entry there is at least
        y's; spread to a mask, it picks y's entry there, and x's elsewhere."""
        f = ((x | self.guard) - y) & self.guard
        return x ^ ((x ^ y) & (f - (f >> (self.width - 1))))

    def supports(self, x):
        """The guard bits of the nonzero fields of x: an entry below the
        guard bit plus 2**(width - 1) - 1 reaches the guard bit exactly when
        it is nonzero, and never carries into the next field."""
        return (x + self.guard - self.ones) & self.guard

    def overlaps(self, z, others):
        """|minimum(z, w)| for each w in ``others``, as ``total`` and
        ``minimum`` compute it, inlined for the catenary kernels."""
        guard, top, field = self.guard, self.width - 1, self.field
        held = z | guard
        return [(z ^ ((z ^ w) & ((f := (held - w) & guard) - (f >> top)))) % field for w in others]

    def key(self, x):
        """The big-endian bytes of a packed tuple.  Fields are whole bytes,
        so a permutation of the entries moves bytes (``mover``), and of two
        packed tuples the smaller int has the smaller key."""
        return x.to_bytes(self.width // 8 * self.length, "big")

    def mover(self, perm):
        """An ``itemgetter`` on keys that moves entry j to entry perm[j]:
        ``bytes(move(key(x)))`` is the key of the permuted tuple.  For a
        ``perm`` other than the identity a key has at least two bytes, so
        ``itemgetter`` returns a tuple."""
        step = self.width // 8
        inverse = sorted(range(self.length), key=perm.__getitem__)
        return itemgetter(*(j * step + t for j in inverse for t in range(step)))


class PackedAtoms(Packing):
    """Blocks over an alphabet packed into ints, one field per alphabet
    element (``Packing``), and every atom of an AtomSet packed the same way,
    in AtomSet order, as ``atoms``.

    The fields hold ``top`` and every atom entry, so products with
    multiplicities at most ``top`` never carry across fields.  ``zero`` is
    (AtomSet index, bit offset) of the atom 0, or None.
    ``pivots[B.bit_length()]`` lists the packed atoms that hold the lowest
    element of a nonzero block B, the element of B's highest nonzero field.
    ``table`` is the memo of length bitmasks.  ``shared`` keeps one
    instance per memo, AtomSet and width, and the tables derived from the
    packed atoms hang on it, each built once per memo: ``counts``, the count
    packings of ``_count_vectors`` by (length, width); ``levels``, of
    ``lengths._length_masks``; ``failed`` and ``pairs``, of the union
    search; and ``moves``, of ``invariants._least_of_orbits``.
    """

    __slots__ = ("atoms", "zero", "pivots", "table", "counts", "levels", "failed", "pairs", "moves")

    def __init__(self, atomset, top, table=None):
        vectors = atomset.vectors
        super().__init__(len(atomset.alphabet), max(top, max(map(max, vectors), default=0)))
        width = self.width
        self.atoms = tuple(map(self.pack, vectors))
        self.zero = next(((i, self.shifts[v.index(1)]) for i, v in enumerate(vectors) if sum(v) == 1), None)
        holding = [[u for u, v in zip(self.atoms, vectors) if v[j]] for j in range(self.length)]
        self.pivots = [()] + [held for held in reversed(holding) for _ in range(width)]
        self.table = {0: 1} if table is None else table
        # [levels built, zero-free blocks of the last one]
        self.levels = [[], {0}]
        self.counts, self.failed, self.pairs, self.moves = {}, {}, None, None

    @classmethod
    def shared(cls, atomset, top, memo=None):
        """The PackedAtoms of ``atomset`` whose fields hold ``top``: a new one
        without a memo, else the one ``memo`` keeps under ("packed",
        alphabet, vectors, width).  Its length table is
        ``memo[(alphabet, width)]``, which a restricted AtomSet shares with
        its parent, and blocks over other alphabets or widths never share."""
        if memo is None:
            return cls(atomset, top)
        width = _width(max(top, max(map(max, atomset.vectors), default=0)))
        key = ("packed", atomset.alphabet, atomset.vectors, width)
        packed = memo.get(key)
        if packed is None:
            packed = memo[key] = cls(atomset, top, memo.setdefault((atomset.alphabet, width), {0: 1}))
        return packed

    @classmethod
    def for_products(cls, atomset, count, memo=None):
        """Packed wide enough for every product of at most ``count`` atoms."""
        top = max((max(v) for v in atomset.vectors), default=0)
        return cls.shared(atomset, count * top, memo)

    def counting(self, length, top):
        """The ``Packing`` of ``length`` counts up to ``top``, one per length and width."""
        key = length, _width(top)
        counts = self.counts.get(key)
        if counts is None:
            counts = self.counts[key] = Packing(length, top)
        return counts

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


def _mask(lengths):
    """The bitmask of a set of lengths, the inverse of ``_members``."""
    return sum(1 << l for l in lengths)


def _count_vectors(packed, block, floor=0):
    """Z(B) for a packed block: (y, positions, counts, zs) with y = v_0(B),
    positions the indices into ``packed.atoms`` (AtomSet indices) of the
    nonzero atoms dividing B, and zs the factorizations of B without its
    zeros longer than ``floor``, sorted, as tuples of counts of those atoms
    packed by the ``Packing`` ``counts``.

    The atoms are filtered once, at the root: an atom that does not divide B
    divides no part of it.  A remainder has no element below its lowest one,
    so the atoms covering that element start there.  The search is depth
    first over those atoms only, in nondecreasing index while the same
    element stays lowest and from the first again once it moves on, so each
    multiset has one path.  A nonzero atom has at least two elements, so no
    factorization of the zero-free part is longer than half its size, which
    sets the count width.

    A floor drops each branch whose atoms taken plus max L(remainder) are at
    most the floor.  Each remainder is a sub-block of the pivot recursion
    of ``_lengths``, since the atoms covering its lowest element are its
    pivots, so ``packed.table`` holds its L once ``_lengths`` has the block;
    at floor 0 the table is not read."""
    y, block = packed.split_zeros(block)
    if floor:
        _lengths(packed, block)
    table, guards, width = packed.table, packed.guard, packed.width
    held = block | guards
    positions = [p for p, u in enumerate(packed.atoms) if (held - u) & guards == guards]
    counts = packed.counting(len(positions), sum(packed.unpack(block)) // 2)
    # starting[f]: (atom, its unit count) for the atoms whose lowest element is in field f, from the least significant.
    starting = [[] for _ in range(packed.length)]
    for u, s in zip(map(packed.atoms.__getitem__, positions), counts.shifts):
        starting[(u.bit_length() - 1) // width].append((u, 1 << s))
    out = []
    # (remainder, field of the last atom's lowest element, that atom's index
    # in its group, counts, floor less the atoms taken)
    stack = [(block, -1, 0, 0, floor)]
    while stack:
        rem, field, start, z, left = stack.pop()
        if not rem:
            out.append(z)
            if len(out) > FACTORIZATION_GUARD:
                raise BoundExceededError("more than %d factorizations" % FACTORIZATION_GUARD)
            continue
        low = (rem.bit_length() - 1) // width
        group = starting[low]
        held = rem | guards
        for t in range(start if low == field else 0, len(group)):
            u, one = group[t]
            d = held - u
            # The bit length of L(d) is 1 + max L(d).
            if d & guards == guards and (left < 1 or table[d ^ guards].bit_length() > left):
                stack.append((d ^ guards, low, t, z + one, left - 1))
    out.sort()
    return y, positions, counts, out


def _factorizations(packed, block, vectors=None):
    """Z(B) of a packed block, from its ``_count_vectors`` if given, as sorted count tuples over the AtomSet."""
    y, positions, counts, zs = vectors or _count_vectors(packed, block)
    base = [0] * len(packed.atoms)
    if y:
        base[packed.zero[0]] = y
    out = []
    for z in zs:
        row = base[:]
        for i, c in zip(positions, counts.unpack(z)):
            row[i] = c
        out.append(tuple(row))
    return out


def _checked(atomset, block, atom=False):
    """The multiplicities of a public function's block, which must be a
    zero-sum sequence over the atoms' alphabet, each of whose elements some
    atom holds (a restricted AtomSet factors no block outside its piece),
    and with ``atom`` an atom."""
    if block.alphabet != atomset.alphabet:
        raise ShapeError("sequence over another alphabet than the atoms")
    if not block.is_zero_sum():
        raise DomainError("sequence with nonzero sum")
    if any(m and not any(v[j] for v in atomset.vectors) for j, m in enumerate(block.mults)):
        raise DomainError("%s holds an element that no atom holds" % block)
    if atom and block.mults not in atomset.vectors:
        raise DomainError("%s is not an atom" % block)
    return block.mults


def _packed(atomset, block, memo=None):
    """(PackedAtoms fitted to the checked block, the packed block)."""
    mults = _checked(atomset, block)
    packed = PackedAtoms.shared(atomset, max(mults, default=0), memo)
    return packed, packed.pack(mults)


def factorize(atomset, block):
    """All factorizations Z(B) of a zero-sum sequence, sorted canonically.

    Raises BoundExceededError past FACTORIZATION_GUARD results.
    """
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
    shared by restricted atom sets stay valid.  Memoized in ``packed.table``,
    children first on a stack of blocks: one pass over a node's pivots ORs
    each child in the table into its mask and pushes each missing one, and
    the node stores mask << 1 on the pass where every child hits.  A node
    is pushed only when it is missing from the table, and it is still
    missing when it comes up: every node searched above a pending child
    B'/a lies under a sibling B'/c, and reaching B'/a there would make the
    atom c a proper divisor of the atom a."""
    table = packed.table
    hit = table.get(block)
    if hit is not None:
        return hit
    if packed.zero is not None and (y := block >> (shift := packed.zero[1]) & packed.field):
        table[block] = mask = _lengths(packed, block ^ (y << shift)) << y
        return mask
    get, guard, pivots = table.get, packed.guard, packed.pivots
    stack = [block]
    while stack:
        b = stack[-1]
        held, mask, n = b | guard, 0, len(stack)
        for u in pivots[b.bit_length()]:
            if (d := held - u) & guard == guard:
                if (m := get(d := d ^ guard)) is None:
                    stack.append(d)
                else:
                    mask |= m
        if len(stack) == n:
            table[b] = mask << 1
            stack.pop()
    return table[block]


def lengths_of(atomset, block, memo=None):
    """The set of lengths L(B) = {|z| : z in Z(B)}, as a frozenset.

    ``memo`` is a dict the kernels fill: for each alphabet and packing width,
    a table from packed blocks to length bitmasks, and for each atom set and
    width, its ``PackedAtoms``.  It may be shared across blocks and
    alphabets, as long as each alphabet keeps one atom set or atom sets
    restricted from it by ``AtomSet.restrict``.
    """
    return _members(_lengths(*_packed(atomset, block, memo)))


@dataclass(frozen=True)
class CatenaryProfile:
    catenary: int
    equal: int
    adjacent: int
    monotone: int
    num_factorizations: int
    lengths: tuple


def _joined(counts, nodes, lengths, m):
    """max(m, c), c the least N such that steps of distance at most N join
    the packed counts ``nodes`` of lengths ``lengths``: Prim's algorithm,
    taking every node within the threshold m at once.  Each reached node is
    compared once with the unreached ones, each keeping its least distance
    to the reached set, from the longest length as d(z, z') <= max(|z|, |z'|);
    m rises to the least kept distance only when none is within m."""
    top = max(lengths, default=0)
    rest = [(top, z, l) for z, l in zip(nodes, lengths)]
    near = [rest.pop()] if rest else []
    while rest:
        if near:
            _, z, l = near.pop()
        else:
            m, z, l = node = min(rest)
            rest.remove(node)
        kept = []
        for node, o in zip(rest, counts.overlaps(z, [w for _, w, _ in rest])):
            d, w, k = node
            e = (l if l > k else k) - o
            if e <= m or d <= m:
                near.append(node)
            else:
                kept.append((e, w, k) if e < d else node)
        rest = kept
    return m


def _catenary_maxima(counts, zs, c=0, c_eq=0, c_adj=0):
    """(max(c, c(B)), max(c_eq, c_eq(B)), max(c_adj, c_adj(B))) for Z(B) as
    ``_count_vectors`` packs it, at floors 0 or a sweep's running maxima.  Only
    length classes longer than c_eq can raise it, and adjacent lengths a < b are
    scanned until an overlap reaches b - c_adj, as d(z, z') = b - |gcd(z, z')|."""
    sizes = [counts.total(z) for z in zs]
    by_len = {}
    for z, l in zip(zs, sizes):
        by_len.setdefault(l, []).append(z)
    c = _joined(counts, zs, sizes, c)
    for l, group in by_len.items():
        if l > c_eq:
            c_eq = _joined(counts, group, [l] * len(group), c_eq)
    ls = sorted(by_len)
    for a, b in zip(ls, ls[1:]):
        common = 0
        for z in by_len[a]:
            if common >= b - c_adj:
                break
            common = max(common, *counts.overlaps(z, by_len[b]))
        c_adj = max(c_adj, b - common)
    return c, c_eq, c_adj


def _profile(y, _, counts, zs):
    c, c_eq, c_adj = _catenary_maxima(counts, zs)
    lengths = tuple(sorted({counts.total(z) + y for z in zs}))
    return CatenaryProfile(c, c_eq, c_adj, max(c_eq, c_adj), len(zs), lengths)


def catenary_profile(atomset, block):
    """Catenary data of one block: c(B) (bottleneck over all of Z(B)),
    the equal-length and adjacent-length refinements, and their maximum
    (the monotone catenary degree of the block).  The atom 0 occurs v_0(B)
    times in every factorization, so it adds to the lengths only."""
    return _profile(*_count_vectors(*_packed(atomset, block)))


def factorize_with_profile(atomset, block):
    """(factorize(atomset, block), catenary_profile(atomset, block)) from one enumeration of Z(B)."""
    packed, b = _packed(atomset, block)
    vectors = _count_vectors(packed, b)
    return tuple(Factorization(atomset, c) for c in _factorizations(packed, b, vectors)), _profile(*vectors)
