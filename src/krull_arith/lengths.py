"""Closed-form systems of sets of lengths and additive-closure probing.

The two hand-computable systems are

  C3 family:  y + 2k + {0,...,k}                 (an interval)
  C4 family:  y + k+1 + {0,...,k}                (an interval)
              or  y + 2k + {0,2,...,2k}          (a difference-2 progression)

with y, k nonnegative; a third family covers the symmetric rank-r presets,
whose length sets are m + {2k* + d*lam : lam in [0,k*]} with d the single
distance value.

Collection, realization and the closure probe read the levels of
``_length_masks``, one per number of atoms, in order: each maps a length
bitmask to blocks that realize it, and a set with minimum m is realized
exactly when it is the length set of a product of m atoms.  The levels,
with the blocks of the last one, hang on the one ``PackedAtoms`` that the
memo keeps for the atoms and packing width, so on one memo each level is
built once.  The probe proves a sumset realized by a product of two
realizers whose length set is the sumset; it reads a level above its
collection bound only for a sumset no such product proves.  Length sets are bitmasks inside the sweeps
and frozensets in what the functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, islice

from .errors import ArgumentError
from .factorizations import PackedAtoms, _lengths, _mask, _members
from .invariants import delta_of_set
from .presets import parse_preset


def sumset(l1, l2):
    return frozenset(a + b for a in l1 for b in l2)


def member(family, lengths):
    """Does the finite set belong to the named closed-form family?  Returns
    (bool, params) with the witness parameters on success."""
    if not lengths or min(lengths) < 0:
        raise ArgumentError("need a nonempty set of nonnegative integers")
    members = frozenset(lengths)
    ls = sorted(members)
    lo, hi = ls[0], ls[-1]
    if family == "C3":
        k = hi - lo
        y = lo - 2 * k
        if y >= 0 and c3_set(y, k) == members:
            return True, {"y": y, "k": k}
        return False, None
    if family == "C4":
        k = hi - lo
        y = lo - k - 1
        if y >= 0 and c4_set_interval(y, k) == members:
            return True, {"form": "interval", "y": y, "k": k}
        k = (hi - lo) // 2
        y = lo - 2 * k
        if y >= 0 and c4_set_ap2(y, k) == members:
            return True, {"form": "ap2", "y": y, "k": k}
        return False, None
    if family.startswith("thm74:"):
        # The preset parser checks the arguments and the rule r, alpha >= 1,
        # r + alpha > 2.
        params = parse_preset(family).params
        d = params["r"] + params["alpha"] - 2
        if len(ls) == 1:
            return True, {"m": lo, "k*": 0}
        gaps = delta_of_set(ls)
        if gaps != {d}:
            return False, None
        kstar = (hi - lo) // d
        m = lo - 2 * kstar
        return (m >= 0), ({"m": m, "k*": kstar} if m >= 0 else None)
    raise ArgumentError("unknown length-set family %r" % family)


def c3_set(y, k):
    return frozenset(y + 2 * k + v for v in range(k + 1))


def c4_set_interval(y, k):
    return frozenset(y + k + 1 + v for v in range(k + 1))


def c4_set_ap2(y, k):
    return frozenset(y + 2 * k + 2 * v for v in range(k + 1))


def _length_masks(atomset, count, memo=None):
    """For i = 0, ..., ``count`` in turn, {L(B) bitmask: [blocks B]} over
    the products B of exactly i atoms, packed for ``count`` atoms, each level
    swept only when it is read.  Every zero-free product is listed under its
    mask.  The atom 0 is prime, so a product of i atoms is 0^j times a
    zero-free product of i - j atoms, with its lengths shifted by j: when 0
    is in G0, each mask m of level i - 1 is also on level i as m << 1,
    realized by the first block of m times 0.

    The levels hang on the ``PackedAtoms`` that ``memo`` keeps
    (``packed.levels``: [levels built, the set of zero-free blocks of the
    last one], starting from [[], {0}]): a later sweep of the same atoms at
    the same packing width reads those levels and builds only the ones
    above them, each once, each set of blocks from the one below."""
    packed = PackedAtoms.for_products(atomset, count, memo)
    atoms = packed.nonzero()
    kept = packed.levels
    levels = kept[0]
    for i in range(count + 1):
        if i == len(levels):
            if levels:
                kept[1] = {b + a for b in kept[1] for a in atoms}
            level = {}
            for b in kept[1]:
                level.setdefault(_lengths(packed, b), []).append(b)
            if packed.zero is not None and levels:
                zero = 1 << packed.zero[1]
                for m, realizers in levels[-1].items():
                    level.setdefault(m << 1, []).append(realizers[0] + zero)
            levels.append(level)
        yield levels[i]


def _check_bound(bound):
    if bound < 0:
        raise ArgumentError("bound must be nonnegative, got %d" % bound)


def collect_length_sets(atomset, product_bound, memo=None):
    """All L(B) for B a product of at most ``product_bound`` atoms."""
    _check_bound(product_bound)
    masks = set().union(*_length_masks(atomset, product_bound, memo))
    return {_members(mask) for mask in masks}


def is_length_set_realized(atomset, lengths, vbound, memo=None):
    """Is the finite set the length set of some block of B(G0)?  Decided
    exhaustively when min(lengths) <= vbound (a realizing block is a product
    of exactly that many atoms, so the set is looked up in that level of the
    sweep, which ``memo`` keeps for later calls); returns None when the
    minimum exceeds the verification bound."""
    _check_bound(vbound)
    t = frozenset(lengths)
    if not t or min(t) < 0:
        raise ArgumentError("need a nonempty set of nonnegative integers")
    lo = min(t)
    if lo > vbound:
        return None
    return _mask(t) in next(islice(_length_masks(atomset, vbound, memo), lo, None))


@dataclass(frozen=True)
class ClosureProbe:
    closed_within_bound: bool
    witness: tuple  # (L1, L2, sumset) or ()
    collection_bound: int
    verification_bound: int

    def to_json(self):
        return {
            "closed_within_bound": self.closed_within_bound,
            "witness": [sorted(s) for s in self.witness],
            "collection_bound": self.collection_bound,
            "verification_bound": self.verification_bound,
            # Every probed sumset is decided within the verification bound.
            "indeterminate": [],
        }


def additive_closure_probe(atomset, product_bound, memo=None):
    """Collect all length sets from products of <= product_bound atoms and
    look for a pair whose sumset is not the length set of any block, checked
    exhaustively up to a verification bound of twice the collection bound.
    Pairs are tried smallest sumset first, so the first reported witness is
    minimal in that order.

    Collection reads levels 0 to ``product_bound`` of the ``_length_masks``
    sweep that ``memo`` keeps, so after ``collect_length_sets`` on the same
    memo (and packing width) it builds none of them again.  A set l is a
    length set exactly when it is L(B) for a product B of min(l) atoms, so
    level min(l) lists the blocks that realize it, and a sumset with minimum
    at most ``product_bound`` is realized exactly when it was collected.
    Above that, a product of a realizer of each summand whose length set is
    the sumset proves it realized (``_proves``).  Only a sumset that no such
    product proves is looked up in the level of its minimum, which the same
    sweep builds in order as it is first read.
    """
    _check_bound(product_bound)
    vbound = 2 * product_bound
    packed = PackedAtoms.for_products(atomset, vbound, memo)
    sweep = _length_masks(atomset, vbound, memo)
    levels = list(islice(sweep, product_bound + 1))
    # Pairs by the sumset's minimum, then by the sorted members of l1 and of
    # l2: a stable sort of the pairs of sets in order of sorted members.
    collected = sorted(map(_members, set().union(*levels)), key=sorted)
    pairs = sorted(combinations_with_replacement(collected, 2), key=lambda p: min(p[0]) + min(p[1]))
    for l1, l2 in pairs:
        lo = min(l1) + min(l2)
        t = sumset(l1, l2)
        mask = _mask(t)
        if lo > product_bound and _proves(packed, levels[min(l1)][_mask(l1)], levels[min(l2)][_mask(l2)], mask):
            continue
        while len(levels) <= lo:
            levels.append(next(sweep))
        if mask not in levels[lo]:
            return ClosureProbe(False, (l1, l2, t), product_bound, vbound)
    return ClosureProbe(True, (), product_bound, vbound)


def _proves(packed, firsts, seconds, mask):
    """Is ``mask`` the length set of the first block of ``firsts`` times a
    block of ``seconds``, or of a block of ``firsts`` times the first of
    ``seconds``?  Equality is needed: L(B1 B2) holds L(B1) + L(B2) for
    every B1, B2, and may hold more."""
    b1, b2 = firsts[0], seconds[0]
    products = chain((b1 + b for b in seconds), (b + b2 for b in firsts[1:]))
    return any(_lengths(packed, b) == mask for b in products)
