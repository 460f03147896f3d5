"""Closed-form systems of sets of lengths, progression/AAMP fitting, and
additive-closure probing.

The two hand-computable systems are

  C3 family:  y + 2k + {0,...,k}                 (an interval)
  C4 family:  y + k+1 + {0,...,k}                (an interval)
              or  y + 2k + {0,2,...,2k}          (a difference-2 progression)

with y, k nonnegative; a third family covers the symmetric rank-r presets,
whose length sets are m + {2k* + d*lam : lam in [0,k*]} with d the single
distance value.

Collection and realization sweep products of atoms as multiplicity tuples
and call the tuple kernel ``factorizations._lengths`` on them directly;
every swept block is a product of atoms, so it has zero sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError
from .factorizations import _lengths
from .invariants import _nonzero_atoms, delta_of_set, next_level, product_levels


def sumset(l1, l2):
    return frozenset(a + b for a in l1 for b in l2)


@dataclass(frozen=True)
class AAMP:
    """y + (L' u L* u L'') with L* = (period + d*N0) capped at the central
    range and the irregular ends inside M of the ends."""

    y: int
    d: int
    period: tuple
    m: int
    central_length: int

    def to_json(self):
        return {
            "y": self.y,
            "d": self.d,
            "period": list(self.period),
            "M": self.m,
            "central_length": self.central_length,
        }


def _is_interval(ls):
    return ls == list(range(ls[0], ls[-1] + 1))


def member(family, lengths):
    """Does the finite set belong to the named closed-form family?  Returns
    (bool, params) with the witness parameters on success."""
    if not lengths or min(lengths) < 0:
        raise ArgumentError("need a nonempty set of nonnegative integers")
    ls = sorted(set(lengths))
    lo, hi = ls[0], ls[-1]
    if family == "C3":
        if not _is_interval(ls):
            return False, None
        k = hi - lo
        y = lo - 2 * k
        return (y >= 0), ({"y": y, "k": k} if y >= 0 else None)
    if family == "C4":
        if _is_interval(ls):
            k = hi - lo
            y = lo - k - 1
            if y >= 0:
                return True, {"form": "interval", "y": y, "k": k}
        if all(x == lo + 2 * i for i, x in enumerate(ls)):
            k = (hi - lo) // 2
            y = lo - 2 * k
            if y >= 0:
                return True, {"form": "ap2", "y": y, "k": k}
        if len(ls) == 1 and lo >= 0:
            return True, {"form": "ap2", "y": lo, "k": 0}
        return False, None
    if family.startswith("thm74:"):
        r, alpha = (int(x) for x in family.split(":")[1].split(","))
        d = r + alpha - 2
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


def fit_progression(lengths):
    """(is_AP, d): an AP has at most one distinct gap."""
    gaps = delta_of_set(lengths)
    if not gaps:
        return True, 0
    if len(gaps) == 1:
        return True, next(iter(gaps))
    return False, None


def fit_aamp(lengths, d):
    """Minimal-M representation of the set as an AAMP with difference d,
    scanning every candidate central window; ties broken by smaller period.
    Returns None when no window yields a valid periodic center."""
    if d < 1:
        raise ArgumentError("difference must be positive")
    ls = sorted(set(lengths))
    best = None
    for i in range(len(ls)):
        for j in range(i, len(ls)):
            y = ls[i]
            span = ls[j] - y
            window = [x - y for x in ls[i : j + 1]]
            period = sorted({x % d for x in window} | {0, d})
            if period[-2] > d:
                continue
            model = sorted(
                {
                    p + d * q
                    for p in period
                    for q in range(span // d + 2)
                    if p + d * q <= span
                }
            )
            if model != window:
                continue
            m = max(y - ls[0], ls[-1] - ls[j])
            cand = AAMP(y, d, tuple(period), m, span)
            if best is None or (cand.m, len(cand.period)) < (best.m, len(best.period)):
                best = cand
    return best


def collect_length_sets(atomset, product_bound, memo=None):
    """All L(B) for B a product of at most ``product_bound`` atoms."""
    if memo is None:
        memo = {}
    out = set()
    for level in product_levels(atomset.alphabet, atomset.vectors, product_bound):
        for b in level:
            out.add(_lengths(atomset.vectors, b, memo))
    return out


def _realizer(atomset, vbound, memo):
    """The test "is this finite set the length set of some block of B(G0)?"
    as a function returning True, False, or None when the set's minimum
    exceeds ``vbound``.

    A set with minimum m is a length set exactly when it is the length set
    of a product of m zero-free atoms, or, when 0 is in G0, a shift by y of
    the length set of a product of m - y zero-free atoms (the rest of the
    block is a run of y zeros).  Levels of products are built only as far as
    the largest minimum asked about; the function keeps the current level
    and the length sets realized at each level reached.
    """
    atoms = _nonzero_atoms(atomset)
    zero_free = atomset.alphabet.zero_index() is None
    level = {(0,) * len(atomset.alphabet)}
    realized_at = [{frozenset((0,))}]

    def realized(t):
        nonlocal level
        lo = min(t)
        if lo > vbound:
            return None
        while len(realized_at) <= lo:
            level = next_level(level, atoms)
            realized_at.append({_lengths(atomset.vectors, b, memo) for b in level})
        shifts = (0,) if zero_free else range(lo + 1)
        return any(frozenset(x - y for x in t) in realized_at[lo - y] for y in shifts)

    return realized


def is_length_set_realized(atomset, lengths, vbound, memo=None):
    """Is the finite set the length set of some block of B(G0)?  Decided
    exhaustively when min(lengths) <= vbound (a realizing block is a product
    of exactly that many zero-free atoms, up to a run of zeros); returns
    None when the minimum exceeds the verification bound."""
    if memo is None:
        memo = {}
    return _realizer(atomset, vbound, memo)(frozenset(lengths))


@dataclass(frozen=True)
class ClosureProbe:
    closed_within_bound: bool
    witness: tuple  # (L1, L2, sumset) or ()
    collection_bound: int
    verification_bound: int
    indeterminate: tuple  # sumsets too large to decide

    def to_json(self):
        return {
            "closed_within_bound": self.closed_within_bound,
            "witness": [sorted(s) for s in self.witness],
            "collection_bound": self.collection_bound,
            "verification_bound": self.verification_bound,
            "indeterminate": [sorted(s) for s in self.indeterminate],
        }


def additive_closure_probe(atomset, product_bound, memo=None):
    """Collect all length sets from products of <= product_bound atoms and
    look for a pair whose sumset is not the length set of any block, checked
    exhaustively up to a verification bound of twice the collection bound.
    Pairs are tried smallest sumset first, so the first reported witness is
    minimal in that order.

    Realization is decided per level: a set with minimum m is the length set
    of some block exactly when it is the length set of a product of m
    zero-free atoms (plus a run of zeros for the shifted variants), so only
    levels up to the minimum of the probed sumset are ever materialized.
    """
    if memo is None:
        memo = {}
    collected = sorted(
        collect_length_sets(atomset, product_bound, memo), key=lambda s: (min(s), sorted(s))
    )
    vbound = 2 * product_bound
    is_realized = _realizer(atomset, vbound, memo)

    pairs = []
    for i, l1 in enumerate(collected):
        for l2 in collected[i:]:
            pairs.append((min(l1) + min(l2), sorted(l1), sorted(l2), l1, l2))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    indeterminate = []
    for _, _, _, l1, l2 in pairs:
        t = sumset(l1, l2)
        hit = is_realized(t)
        if hit is None:
            indeterminate.append(t)
        elif not hit:
            return ClosureProbe(False, (l1, l2, t), product_bound, vbound, ())
    return ClosureProbe(True, (), product_bound, vbound, tuple(indeterminate))
