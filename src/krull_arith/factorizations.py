"""Factorizations of zero-sum sequences into atoms.

A factorization is a multiset of atoms; it is stored as a count vector
parallel to an AtomSet.  This module enumerates Z(B), computes the usual
distance between factorizations, the set of lengths L(B) (by a memoized
search that never materializes Z(B)), and the catenary data of a block.

The kernels (``_lengths``, ``_factorizations``, ``_catenary_profile``) work
on multiplicity tuples: a block is its ``mults`` tuple and an atom is its
vector (``AtomSet.vectors``).  They use explicit stacks, so their depth is
not limited by the interpreter's recursion limit.  ``Sequence`` appears only
at the API boundary, where the public functions check the zero sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

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
        alphabet = self.atomset.alphabet
        return alphabet.from_mults(_product(len(alphabet), self.atomset.vectors, self.counts))

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


def _product(width, vectors, counts):
    """The block prod v_i^c_i as a multiplicity tuple of the given width."""
    block = [0] * width
    for v, c in zip(vectors, counts):
        if c:
            for j, x in enumerate(v):
                block[j] += c * x
    return tuple(block)


def _zero_atom(atoms, block):
    """(i, v_0(B), B without its zeros) with i the index of the atom 0, or
    None when B has no zeros.  Zero lies in no other atom, so every
    factorization of B contains atom i exactly v_0(B) times."""
    for i, u in enumerate(atoms):
        if sum(u) == 1:
            j = u.index(1)
            return (i, block[j], block[:j] + (0,) + block[j + 1 :]) if block[j] else None
    return None


def _factorizations(atoms, block, guard=FACTORIZATION_GUARD):
    """Z(B) as sorted count tuples.  Zeros are split off first; the rest is
    searched depth first over atoms in nondecreasing index order, so each
    multiset is produced once."""
    n = len(atoms)
    counts = [0] * n
    zero = _zero_atom(atoms, block)
    if zero is not None:
        i, counts[i], block = zero
    out = []
    stack = [(block, 0, tuple(counts))]
    while stack:
        rem, start, counts = stack.pop()
        if not any(rem):
            out.append(counts)
            if len(out) > guard:
                raise BoundExceededError("more than %d factorizations" % guard)
            continue
        for i in range(start, n):
            rest = tuple(map(sub, rem, atoms[i]))
            if min(rest) >= 0:
                stack.append((rest, i, counts[:i] + (counts[i] + 1,) + counts[i + 1 :]))
    out.sort()
    return out


def factorize(atomset, block, guard=FACTORIZATION_GUARD):
    """All factorizations Z(B) of a zero-sum sequence, sorted canonically.

    Raises BoundExceededError past ``guard`` results.
    """
    if not block.is_zero_sum():
        raise DomainError("cannot factor a sequence with nonzero sum")
    counts = _factorizations(atomset.vectors, block.mults, guard)
    return tuple(Factorization(atomset, c) for c in counts)


def _distance(c1, c2):
    """distance() on count tuples."""
    return max(sum(c1), sum(c2)) - sum(map(min, c1, c2))


def distance(z1, z2):
    """d(z, z') = max length of the two parts left after cancelling gcd(z, z')."""
    return _distance(z1.counts, z2.counts)


def _lengths(atoms, block, memo):
    """L(B) = v_0(B) + L(B without its zeros); for a zero-free B it is the
    union over atoms u | B of 1 + L(B/u), memoized on the tuple and evaluated
    children first with an explicit stack."""
    hit = memo.get(block)
    if hit is not None:
        return hit
    zero = _zero_atom(atoms, block)
    if zero is not None:
        _, y, rest = zero
        memo[block] = frozenset(l + y for l in _lengths(atoms, rest, memo))
        return memo[block]
    stack = [(block, None)]
    while stack:
        b, rests = stack.pop()
        if rests is None:
            if b in memo:
                continue
            rests = [r for r in (tuple(map(sub, b, u)) for u in atoms) if min(r) >= 0]
            missing = [r for r in rests if r not in memo]
            if missing:
                stack.append((b, rests))
                stack.extend((r, None) for r in missing)
                continue
        if any(b):
            memo[b] = frozenset(l + 1 for r in rests for l in memo[r])
        else:
            memo[b] = frozenset((0,))
    return memo[block]


def lengths_of(atomset, block, memo=None):
    """The set of lengths L(B) = {|z| : z in Z(B)}, as a frozenset.

    ``memo`` maps multiplicity tuples to length sets and may be shared
    across many blocks over the same atom set.
    """
    if not block.is_zero_sum():
        raise DomainError("length set of a non-zero-sum sequence")
    return _lengths(atomset.vectors, block.mults, {} if memo is None else memo)


def min_length(atomset, block, memo=None):
    ls = lengths_of(atomset, block, memo)
    return min(ls) if ls else None


def _mst_bottleneck(nodes):
    """Largest edge on a minimum spanning tree of the complete graph on the
    count tuples, weighted by distance (Prim)."""
    if len(nodes) <= 1:
        return 0
    best = {i: _distance(nodes[0], nodes[i]) for i in range(1, len(nodes))}
    bottleneck = 0
    while best:
        i = min(best, key=best.get)
        bottleneck = max(bottleneck, best.pop(i))
        for j in best:
            d = _distance(nodes[i], nodes[j])
            if d < best[j]:
                best[j] = d
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


def _catenary_profile(atoms, block, guard=FACTORIZATION_GUARD):
    """catenary_profile() on a multiplicity tuple."""
    zs = _factorizations(atoms, block, guard)
    by_len = {}
    for z in zs:
        by_len.setdefault(sum(z), []).append(z)
    lengths = tuple(sorted(by_len))
    if len(zs) <= 1:
        return CatenaryProfile(0, 0, 0, 0, len(zs), lengths)
    c = _mst_bottleneck(zs)
    c_eq = max(_mst_bottleneck(group) for group in by_len.values())
    c_adj = 0
    for a, b in zip(lengths, lengths[1:]):
        gap = min(_distance(z1, z2) for z1 in by_len[a] for z2 in by_len[b])
        c_adj = max(c_adj, gap)
    return CatenaryProfile(c, c_eq, c_adj, max(c_eq, c_adj), len(zs), lengths)


def catenary_profile(atomset, block, guard=FACTORIZATION_GUARD):
    """Catenary data of one block: c(B) (bottleneck over all of Z(B)),
    the equal-length and adjacent-length refinements, and their maximum
    (the monotone catenary degree of the block).
    """
    if not block.is_zero_sum():
        raise DomainError("cannot factor a sequence with nonzero sum")
    return _catenary_profile(atomset.vectors, block.mults, guard)
