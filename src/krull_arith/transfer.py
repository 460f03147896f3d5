"""Transfer homomorphisms between block monoids, and atom counting for
monoids given by a class group with multiplicities.

A TransferMap is induced by a map theta on the alphabets that keeps zero
sums; it is checked against two finite-window criteria:

  T1  every zero-sum target sequence (up to the window) lifts to a zero-sum
      source sequence;
  T2  for every zero-sum source block A (up to the window) and every
      zero-sum divisor of theta(A), some zero-sum divisor of A maps onto it.

Together these are the defining properties of a transfer homomorphism,
verified on a bounded window.

Transfer homomorphisms preserve sets of lengths (Geroldinger and
Halter-Koch, *Non-Unique Factorizations*, 2006, Section 3.2), and so does
a map that passes T2 on the window W of zero-sum blocks of length 1 to
``bound``: L(A) = L(theta(A)) for every A in W.  Proof.  W is
divisor-closed, and theta keeps the zero sums of W (a block whose image
is not zero-sum is refused), so each zero-sum divisor of A lies in W and
maps onto a zero-sum sequence of the same length.

  (a) theta sends each atom u of W to an atom: a proper nonempty zero-sum
      divisor of theta(u) would lift by T2 to a proper nonempty zero-sum
      divisor of u.  So a factorization of A maps onto one of theta(A) of
      the same length.
  (b) Every factorization v1 ... vk of theta(A) lifts.  T2 gives a zero-sum
      B1 | A with theta(B1) = v1.  B1 is an atom, because a split of B1
      maps onto a split of the atom v1.  Induction on A / B1 does the rest.

T1 is not used.  ``transfer-check`` reads the lengths off this theorem;
``lengths_preserved`` computes them, as the tests' oracle.

One enumerator, ``_ZeroSums.vectors``, lists each window once, and the
zero-sum divisors of each theta(A), by meeting in the middle on group sums
kept as one int.  Each source block is packed (``Packing``) under its image;
an image that is not zero-sum raises ``DomainError``.  A lift of a target
sequence B has length |B|, so it lies in the source window: B fails T1
exactly when no block is packed under it, and (A, B') fails T2 exactly when
no block packed under B' divides A, one guard-bit subtraction each.
``lengths_preserved`` packs each window tuple for the ``factorizations``
length kernel.  ``Sequence`` is built only for the failures a report lists
and for the refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, prod
from operator import mul

from .atoms import _zero_sum_columns, minimal_nonneg_solutions
from .errors import DomainError, ShapeError
from .factorizations import PackedAtoms, Packing, _lengths, _members
from .groups import GroupSpec
from .sequences import Alphabet, Sequence

BRUTE_CAP = 64
# atom-count checks the formula by brute force up to this many labelled primes.
BRUTE_PRIME_LIMIT = 40


class TransferMap:
    """A map of alphabets theta: G0 -> G0' extended multiplicatively."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images):
        """``images`` maps each source element, and nothing else, to a
        target element."""
        self.source = source
        self.target = target
        for g in images:
            if g not in source:
                raise ShapeError("image given for %s, which is outside the source alphabet" % g)
        table = []
        for g in source.elements:
            if g not in images:
                raise ShapeError("no image given for %s" % g)
            h = images[g]
            if h not in target:
                raise ShapeError("image %s outside the target alphabet" % h)
            table.append(target.index(h))
        self.images = tuple(table)

    @classmethod
    def from_json(cls, data):
        """{source, target, images}: two alphabets as ``Alphabet.to_json``
        writes them, and images as [source coords, target coords] pairs, one
        pair for each source element."""
        source = Alphabet.from_json(data["source"])
        target = Alphabet.from_json(data["target"])
        images = {}
        for pair in data["images"]:
            g = source.spec.element_from_coords(pair[0])
            if g in images:
                raise ShapeError("two images given for %s" % g)
            images[g] = target.spec.element_from_coords(pair[1])
        return cls(source, target, images)

    def _image(self, mults):
        """theta on a source multiplicity tuple."""
        image = [0] * len(self.target)
        for j, m in zip(self.images, mults):
            image[j] += m
        return tuple(image)

    def apply(self, seq):
        if seq.alphabet != self.source:
            raise ShapeError("sequence not over the source alphabet")
        return Sequence(self.target, self._image(seq.mults))


class _ZeroSums:
    """Zero-sum tests and zero-sum enumeration on multiplicity tuples over
    one alphabet: each element's coordinates, each coordinate's modulus (0
    for a free coordinate), and the largest absolute entry of each
    coordinate."""

    __slots__ = ("rows", "mods", "spans")

    def __init__(self, alphabet):
        self.rows = [g.coords for g in alphabet.elements]
        self.mods = (0,) * alphabet.spec.free_rank + alphabet.spec.torsion
        self.spans = [max(map(abs, column)) for column in zip(*self.rows)]

    def __call__(self, mults):
        """Is the sequence with these multiplicities zero-sum?"""
        sums = (sum(map(mul, mults, column)) for column in zip(*self.rows))
        return not any(s % n if n else s for s, n in zip(sums, self.mods))

    def vectors(self, limits, total):
        """The zero-sum v with v[i] <= limits[i] and sum(v) <= total, the zero
        vector included, in lexicographic order.

        Meet in the middle: the tuples over the second half of the alphabet
        are listed under their group sums, and each prefix over the first
        half, in lexicographic order, is completed by the tuples listed under
        minus its sum.  A sum is one int, a step one int addition.  A torsion
        coordinate of modulus n is a low digit of radix n * (total + 1): each
        element adds its entry, in [0, n - 1], and each negated element n
        minus it, in [1, n], so a half's digit stays below the radix, and
        ``_tuples`` reduces it modulo n.  A free coordinate is a digit above
        them, balanced in radix 2 * total * span + 1, which holds a half's
        sum there, within +-total * span.  So equal keys are equal sums."""
        radices = [n * (total + 1) if n else 2 * total * span + 1 for n, span in zip(self.mods, self.spans)]
        weights = [prod(radices[c + 1:]) for c in range(len(radices))]
        torsion = [w * n for w, n in zip(weights, self.mods) if n]
        steps = [sum(map(mul, row, weights)) for row in self.rows]
        mid = len(steps) // 2
        tails = {}
        for t, count, key in _tuples(steps[mid:], limits[mid:], total, torsion):
            tails.setdefault(key, []).append((t, count))
        negated = [sum(torsion) - step for step in steps[:mid]]
        for prefix, count, key in _tuples(negated, limits[:mid], total, torsion):
            room = total - count
            for t, c in tails.get(key, ()):
                if c <= room:
                    yield prefix + t

    def window(self, bound):
        """The zero-sum sequences of length 1 to ``bound``: all but the first."""
        return islice(self.vectors((bound,) * len(self.rows), bound), 1, None)


def _tuples(steps, limits, total, torsion):
    """Every t <= limits with sum(t) <= total, in lexicographic order, as
    (t, sum(t), sum of t[i] * steps[i]).  For each w * n in ``torsion``, the
    digit at w is reduced modulo n by taking away w * n times its quotient
    by n, which is the digit of radix total + 1 at w * n."""
    level = [((), 0, 0)]
    for step, limit in zip(steps, limits):
        grown = []
        for t, count, key in level:
            for m in range(min(limit, total - count) + 1):
                grown.append((t + (m,), count + m, key))
                key += step
        level = grown
    for s in torsion:
        level = [(t, count, key - key // s % (total + 1) * s) for t, count, key in level]
    return level


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


def _not_zero_sum(tmap, a, image):
    """The refusal of a map that sends the window block ``a`` onto ``image``."""
    a, image = Sequence(tmap.source, a), Sequence(tmap.target, image)
    return DomainError("%s maps onto %s, which is not zero-sum" % (a, image))


def check_transfer(tmap, bound):
    """Verify the two transfer properties on the window of sequences of
    length at most ``bound``; each scan stops at its 10th failure.  The
    first block, in window order, whose image is not zero-sum raises
    ``DomainError``.  T2 lists the divisors of theta(A) as it reaches A.

    A report with no T2 failure proves L(A) = L(theta(A)) for every block A
    of the window, which is divisor-closed and whose zero sums theta keeps:
    by T2, theta sends atoms to atoms, since a split of theta(u) would lift
    to a split of u, and a factorization v1 ... vk of theta(A) lifts, since
    T2 gives a zero-sum B1 | A onto v1, an atom because a split of B1 would
    split v1, and induction on A / B1 lifts the rest (module docstring)."""
    source, target = _ZeroSums(tmap.source), _ZeroSums(tmap.target)
    image, packing = tmap._image, Packing(len(tmap.source), bound)
    window = list(source.window(bound))
    preimages = {}
    for a in window:
        preimages.setdefault(image(a), []).append(packing.pack(a))
    for b, blocks in preimages.items():
        if not target(b):
            raise _not_zero_sum(tmap, packing.unpack(blocks[0]), b)
    t1 = (b for b in target.window(bound) if b not in preimages)

    def t2():
        # The zero vector, listed first, is the image of the empty divisor.
        guard = packing.guard
        for a in window:
            held = packing.pack(a) | guard
            for bt in islice(target.vectors(image(a), bound), 1, None):
                if not any((held - d) & guard == guard for d in preimages.get(bt, ())):
                    yield a, bt

    t1_failures = tuple(Sequence(tmap.target, b) for b in islice(t1, 10))
    t2_failures = tuple(
        (Sequence(tmap.source, a), Sequence(tmap.target, bt)) for a, bt in islice(t2(), 10)
    )
    return TransferReport(not t1_failures, not t2_failures, bound, t1_failures, t2_failures)


def lengths_preserved(tmap, source_atoms, target_atoms, bound):
    """Check L(A) = L(theta(A)) for all zero-sum source sequences of length
    at most ``bound``; returns (ok, failures) with the first 10 failures.
    The first block whose image is not zero-sum raises ``check_transfer``'s
    ``DomainError``.  A window sequence and its image have multiplicities at
    most ``bound``, the ``top`` of both packings.

    This is the computed check.  Where ``check_transfer`` finds no T2
    failure it returns (True, []) by the theorem of the module docstring,
    on which ``transfer-check`` relies instead of calling it."""
    packed_s = PackedAtoms(source_atoms, bound)
    packed_t = PackedAtoms(target_atoms, bound)
    target = _ZeroSums(tmap.target)
    failures = []
    for a in _ZeroSums(tmap.source).window(bound):
        image = tmap._image(a)
        if not target(image):
            raise _not_zero_sum(tmap, a, image)
        ls = _lengths(packed_s, packed_s.pack(a))
        lt = _lengths(packed_t, packed_t.pack(image))
        if ls != lt:
            failures.append(
                (Sequence(tmap.source, a), sorted(_members(ls)), sorted(_members(lt)))
            )
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
    for vector in atomset.vectors:
        ways = 1
        for m, v in zip(mult, vector):
            if v:
                ways *= comb(m + v - 1, v)
        total += ways
    return total


def count_lifted_atoms_brute(char):
    """Independent count: one column per labelled prime (m_g copies of each
    class), minimal zero-sum solutions counted directly, with each prime's
    multiplicity capped at BRUTE_CAP.  It stays on the completion, also for
    a finite class group, so that it is an oracle independent of the
    zero-sum free search by which ``enumerate_atoms`` finds the atoms that
    ``count_lifted_atoms`` lifts."""
    primes = [g for g, m in char.classes for _ in range(m)]
    cols = _zero_sum_columns(char.spec, primes)
    k = len(primes)
    caps = [BRUTE_CAP] * k + [None] * (len(cols) - k)
    if not cols:
        return 0
    solutions = minimal_nonneg_solutions(cols, caps)
    return len({v[:k] for v in solutions})

