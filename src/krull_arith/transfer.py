"""Transfer homomorphisms between block monoids, and atom counting for
monoids given by a class group with multiplicities.

A TransferMap is induced by a map theta on the alphabets; it is checked
against two finite-window criteria:

  T1  every zero-sum target sequence (up to the window) lifts to a zero-sum
      source sequence;
  T2  for every zero-sum source block A (up to the window) and every
      zero-sum divisor of theta(A), some zero-sum divisor of A maps onto it.

Together these are the defining properties of a transfer homomorphism,
verified on a bounded window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .atoms import _zero_sum_columns, minimal_nonneg_solutions
from .errors import DomainError, ShapeError
from .factorizations import lengths_of
from .groups import GroupSpec
from .sequences import Alphabet, Sequence


class TransferMap:
    """A map of alphabets theta: G0 -> G0' extended multiplicatively."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images):
        """``images`` maps each source element to a target element."""
        self.source = source
        self.target = target
        table = []
        for g in source.elements:
            h = images[g]
            if h not in target:
                raise ShapeError("image %s outside the target alphabet" % h)
            table.append(target.index(h))
        self.images = tuple(table)

    def apply(self, seq):
        if seq.alphabet != self.source:
            raise ShapeError("sequence not over the source alphabet")
        mult = [0] * len(self.target)
        for i, m in enumerate(seq.mults):
            mult[self.images[i]] += m
        return Sequence(self.target, mult)

    def preserves_zero_sums(self):
        """Does theta send zero-sum sequences to zero-sum sequences?  A
        bounded check: every zero-sum source sequence of length at most 4 is
        mapped and tested, so True is not a proof for longer sequences.
        """
        for mults in _mult_vectors(len(self.source), 4):
            s = Sequence(self.source, mults)
            if s.is_zero_sum() and not self.apply(s).is_zero_sum():
                return False
        return True


def _mult_vectors(width, total_max):
    """All multiplicity vectors of the given width with sum in [1, total_max]."""

    def rec(i, remaining):
        if i == width:
            yield ()
            return
        for m in range(remaining + 1):
            for rest in rec(i + 1, remaining - m):
                yield (m,) + rest

    for v in rec(0, total_max):
        if any(v):
            yield v


def _zero_sum_sequences(alphabet, max_length):
    for v in _mult_vectors(len(alphabet), max_length):
        s = Sequence(alphabet, v)
        if s.is_zero_sum():
            yield s


def _preimages(tmap, target_mults, within=None):
    """All source sequences d with theta(d) = target_mults, limited to the
    divisors of ``within`` (a source multiplicity vector) when it is given.

    Each target multiplicity is split over the fiber of source elements
    mapping onto it."""
    fibers = [[] for _ in target_mults]
    for i, j in enumerate(tmap.images):
        if within is None or within[i]:
            fibers[j].append(i)
    slots = [(fibers[j], m) for j, m in enumerate(target_mults) if m]
    if not all(idxs for idxs, _ in slots):
        return

    def rec(k):
        if k == len(slots):
            yield [0] * len(tmap.source)
            return
        idxs, m = slots[k]
        for split in _compositions(m, len(idxs)):
            if within is not None and any(c > within[i] for i, c in zip(idxs, split)):
                continue
            for rest in rec(k + 1):
                for i, c in zip(idxs, split):
                    rest[i] += c
                yield rest

    for v in rec(0):
        yield Sequence(tmap.source, v)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _zero_sum_divisors(seq):
    ranges = [range(m + 1) for m in seq.mults]
    for v in product(*ranges):
        d = Sequence(seq.alphabet, v)
        if d.is_zero_sum():
            yield d


@dataclass(frozen=True)
class TransferReport:
    """Window verdicts.  T1 failures are target sequences with no zero-sum
    lift; T2 failures are pairs (A, B') with B' a zero-sum divisor of
    theta(A) onto which no zero-sum divisor of A maps."""

    surjective_on_window: bool
    divisors_lift_on_window: bool
    bound: int
    t1_failures: tuple
    t2_failures: tuple

    @property
    def ok(self):
        return self.surjective_on_window and self.divisors_lift_on_window

    @property
    def failures(self):
        return self.t1_failures + self.t2_failures

    def to_json(self):
        return {
            "surjective_on_window": self.surjective_on_window,
            "divisors_lift_on_window": self.divisors_lift_on_window,
            "ok": self.ok,
            "bound": self.bound,
            "failures": [str(f) for f in self.failures],
        }


def check_transfer(tmap, bound):
    """Verify the two transfer properties on the window of sequences of
    length at most ``bound``, keeping the first 10 failures of each."""
    t1_failures = [
        b
        for b in _zero_sum_sequences(tmap.target, bound)
        if not any(lift.is_zero_sum() for lift in _preimages(tmap, b.mults))
    ]
    t2_failures = [
        (a, bt)
        for a in _zero_sum_sequences(tmap.source, bound)
        for bt in _zero_sum_divisors(tmap.apply(a))
        if not any(d.is_zero_sum() for d in _preimages(tmap, bt.mults, within=a.mults))
    ]
    return TransferReport(
        not t1_failures, not t2_failures, bound, tuple(t1_failures[:10]), tuple(t2_failures[:10])
    )


def lengths_preserved(tmap, source_atoms, target_atoms, bound, memo_s=None, memo_t=None):
    """Check L(A) = L(theta(A)) for all zero-sum source sequences of length
    at most ``bound``; returns (ok, failures)."""
    if memo_s is None:
        memo_s = {}
    if memo_t is None:
        memo_t = {}
    failures = []
    for a in _zero_sum_sequences(tmap.source, bound):
        ls = lengths_of(source_atoms, a, memo_s)
        lt = lengths_of(target_atoms, tmap.apply(a), memo_t)
        if ls != lt:
            failures.append((a, sorted(ls), sorted(lt)))
    return not failures, failures[:10]


class Characteristic:
    """A finite abelian group together with a multiplicity m_g >= 0 on each
    class; classes with m_g >= 1 carry that many prime divisors."""

    __slots__ = ("spec", "classes")

    def __init__(self, spec, classes):
        """``classes`` is a list of (element, multiplicity) pairs."""
        seen = {}
        for g, m in classes:
            if g.spec != spec:
                raise ShapeError("class outside the declared group")
            if m < 0:
                raise DomainError("negative multiplicity")
            if g in seen:
                raise DomainError("duplicate class %s" % g)
            seen[g] = int(m)
        self.spec = spec
        self.classes = tuple(sorted(seen.items(), key=lambda p: p[0].key()))

    def support_alphabet(self):
        return Alphabet(self.spec, [g for g, m in self.classes if m >= 1])

    def multiplicity(self, g):
        for h, m in self.classes:
            if h == g:
                return m
        return 0

    def to_json(self):
        return {
            "group": self.spec.to_json(),
            "classes": [
                {"element": list(g.coords), "multiplicity": m} for g, m in self.classes
            ],
        }

    @classmethod
    def from_json(cls, data):
        spec = GroupSpec.from_json(data["group"])
        classes = [
            (spec.element_from_coords(c["element"]), int(c["multiplicity"]))
            for c in data["classes"]
        ]
        return cls(spec, classes)


def count_lifted_atoms(char, atomset):
    """Number of atoms of the monoid described by ``char``: each atom U of
    the block monoid over the supported classes lifts in
    prod_g binom(m_g + v_g(U) - 1, v_g(U)) ways (multisets of m_g labelled
    primes in each class)."""
    alphabet = atomset.alphabet
    mult = [char.multiplicity(g) for g in alphabet.elements]
    total = 0
    for u in atomset.atoms:
        ways = 1
        for m, v in zip(mult, u.mults):
            if v:
                ways *= comb(m + v - 1, v)
        total += ways
    return total


def count_lifted_atoms_brute(char, cap=64):
    """Independent count: one column per labelled prime (m_g copies of each
    class), minimal zero-sum solutions counted directly."""
    primes = [g for g, m in char.classes for _ in range(m)]
    cols = _zero_sum_columns(char.spec, primes)
    k = len(primes)
    caps = [cap] * k + [None] * (len(cols) - k)
    if not cols:
        return 0
    solutions = minimal_nonneg_solutions(cols, caps)
    return len({v[:k] for v in solutions})


def builtin_map(name):
    """The named built-in alphabet maps.

    ``prop712`` (onto C3) and ``prop713`` (onto C4) are the candidate maps of
    an external claim that they are transfer maps; ``check_transfer`` refutes
    both by divisor lifting (T2) on every window of size >= 6.  ``collapse``
    (onto the trivial group) is a negative control that fails surjectivity.
    """
    if name == "prop712":
        src_spec = GroupSpec(1)
        e = src_spec.element(free=(1,))
        source = Alphabet(src_spec, [0 * e, e, -e, 2 * e, -2 * e])
        tgt_spec = GroupSpec(0, (3,))
        g = tgt_spec.element(torsion=(1,))
        target = Alphabet(tgt_spec, [0 * g, g, 2 * g])
        images = {0 * e: 0 * g, e: g, -2 * e: g, -e: 2 * g, 2 * e: 2 * g}
        return TransferMap(source, target, images)
    if name == "prop713":
        src_spec = GroupSpec(2)
        e1 = src_spec.element(free=(1, 0))
        e2 = src_spec.element(free=(0, 1))
        elems = [e1, e2, 2 * e2, e1 + 2 * e2]
        source = Alphabet(
            src_spec, [src_spec.zero()] + elems + [-x for x in elems]
        )
        tgt_spec = GroupSpec(0, (4,))
        g = tgt_spec.element(torsion=(1,))
        target = Alphabet(tgt_spec, [0 * g, g, 2 * g, 3 * g])
        images = {
            src_spec.zero(): 0 * g,
            e1: g,
            e2: g,
            -(e1 + 2 * e2): g,
            -e1: 3 * g,
            -e2: 3 * g,
            e1 + 2 * e2: 3 * g,
            2 * e2: 2 * g,
            -2 * e2: 2 * g,
        }
        return TransferMap(source, target, images)
    if name == "collapse":
        src_spec = GroupSpec(1)
        e = src_spec.element(free=(1,))
        source = Alphabet(src_spec, [e, -e])
        tgt_spec = GroupSpec(0, ())
        target = Alphabet(tgt_spec, [tgt_spec.zero()])
        images = {e: tgt_spec.zero(), -e: tgt_spec.zero()}
        return TransferMap(source, target, images)
    raise DomainError("unknown built-in map %r" % name)
