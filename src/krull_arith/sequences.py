"""Sequences (finite multisets) over a finite subset G0 of an abelian group.

A Sequence stores one dense multiplicity vector parallel to its Alphabet.
Alphabets keep their elements in the canonical total order, so equal
multisets always compare and hash equal.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import AlphabetError, ArgumentError, ShapeError
from .groups import GroupElement, GroupSpec, congruence


class Alphabet:
    """An ordered set G0 of distinct group elements.  An alphabet never
    changes, so its negation table and unit maps are computed once."""

    __slots__ = ("spec", "elements", "_index", "_negation", "_unit_maps")

    def __init__(self, spec, elements):
        elements = sorted(elements, key=lambda g: g.key())
        for g in elements:
            if g.spec != spec:
                raise ShapeError("alphabet element outside the declared group")
        self.spec = spec
        self.elements = tuple(elements)
        self._index = {g: i for i, g in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise AlphabetError("duplicate alphabet elements")
        negation = tuple(self._index.get(-g) for g in self.elements)
        self._negation = None if None in negation else negation
        self._unit_maps = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._index

    def index(self, g):
        try:
            return self._index[g]
        except KeyError:
            raise AlphabetError("%s is not in the alphabet" % g) from None

    def negation_table(self):
        """Index map i -> index of -element[i], as a tuple, or None if not closed."""
        return self._negation

    def is_symmetric(self):
        return self.negation_table() is not None

    def unit_maps(self):
        """The maps x -> kx of the group that send G0 onto itself, other than
        the identity, as index permutations: ``perm[i]`` is the index of
        k * element[i].  Each is an automorphism of the group, so it permutes
        the atoms of B(G0) and keeps every length and distance.

        k runs over the units mod exp(G) for a finite group, and over k = -1
        otherwise.  On G0 such a map depends only on k mod L, the exponent of
        the subgroup that G0 generates, and distinct k mod L give distinct
        maps.  The units k mod L with k * G0 in G0 are found element by
        element, largest order first: a class k0 mod m either fixes the
        image of the next element g already (ord(g) divides m), or is split
        by the multipliers k with k * g = h over the h in G0.  So the whole
        alphabet is never multiplied by every unit.

        >>> spec = GroupSpec(0, (5,))
        >>> Alphabet(spec, [spec.element(torsion=(i,)) for i in range(5)]).unit_maps()
        [(0, 2, 4, 1, 3), (0, 3, 1, 4, 2), (0, 4, 3, 2, 1)]
        """
        if self._unit_maps is None:
            self._unit_maps = self._find_unit_maps()
        return self._unit_maps

    def _find_unit_maps(self):
        if self.spec.free_rank:
            table = self._negation
            return [table] if table and table != tuple(range(len(self))) else []
        nonzero = sorted((g for g in self.elements if not g.is_zero()), key=lambda g: -g.order())
        classes = [(0, 1)]
        for g in nonzero:
            order = g.order()
            split = []
            for k, m in classes:
                if m % order == 0:
                    if k * g in self._index:
                        split.append((k, m))
                    continue
                for h in self.elements:
                    found = g.multipliers(h)
                    joined = found and congruence(k, m, *found)
                    if joined and gcd(*joined) == 1:
                        split.append(joined)
            classes = split
        return [
            tuple(self._index[k * g] for g in self.elements) for k, m in sorted(classes) if (k - 1) % m
        ]

    def empty(self):
        return Sequence(self, (0,) * len(self.elements))

    def sequence(self, pairs):
        """Sequence from (element, multiplicity) pairs.

        >>> spec = GroupSpec(1)
        >>> a = Alphabet(spec, [spec.element(free=(1,)), spec.element(free=(-1,))])
        >>> str(a.sequence([(spec.element(free=(1,)), 2)]))
        '1^2'
        """
        mult = [0] * len(self.elements)
        for g, k in pairs:
            if k < 0:
                raise ValueError("negative multiplicity")
            mult[self.index(g)] += k
        return Sequence(self, mult)

    def from_mults(self, mults):
        return Sequence(self, mults)

    def to_json(self):
        return {
            "group": self.spec.to_json(),
            "elements": [list(g.coords) for g in self.elements],
        }

    @classmethod
    def from_json(cls, data):
        spec = GroupSpec.from_json(data["group"])
        return cls(spec, [spec.element_from_coords(c) for c in data["elements"]])

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.spec == other.spec
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.spec, self.elements))

    def __repr__(self):
        return "Alphabet(%s; %s)" % (self.spec, ", ".join(str(g) for g in self.elements))


class Sequence:
    __slots__ = ("alphabet", "mults")

    def __init__(self, alphabet, mults):
        mults = tuple(int(m) for m in mults)
        if len(mults) != len(alphabet):
            raise ShapeError("multiplicity vector does not match alphabet")
        if any(m < 0 for m in mults):
            raise ValueError("negative multiplicity")
        self.alphabet = alphabet
        self.mults = mults

    @property
    def length(self):
        return sum(self.mults)

    def support(self):
        return tuple(i for i, m in enumerate(self.mults) if m)

    def support_elements(self):
        return tuple(self.alphabet.elements[i] for i in self.support())

    def is_empty(self):
        return not any(self.mults)

    def multiplicity(self, g):
        return self.mults[self.alphabet.index(g)]

    def sigma(self):
        """Sum of the sequence in the group.

        >>> spec = GroupSpec(0, (3,))
        >>> a = Alphabet(spec, [spec.element(torsion=(i,)) for i in range(3)])
        >>> g = spec.element(torsion=(1,))
        >>> str(a.sequence([(g, 2), (2 * g, 1)]).sigma())
        '1'
        """
        total = self.alphabet.spec.zero()
        for i, m in enumerate(self.mults):
            if m:
                total = total + m * self.alphabet.elements[i]
        return total

    def is_zero_sum(self):
        return self.sigma().is_zero()

    def _check(self, other):
        if not isinstance(other, Sequence) or other.alphabet != self.alphabet:
            raise ShapeError("sequences over different alphabets")

    def divides(self, other):
        self._check(other)
        return all(a <= b for a, b in zip(self.mults, other.mults))

    def __mul__(self, other):
        self._check(other)
        return Sequence(self.alphabet, (a + b for a, b in zip(self.mults, other.mults)))

    def __pow__(self, k):
        return Sequence(self.alphabet, (k * a for a in self.mults))

    def __floordiv__(self, other):
        """Exact quotient; raises if other does not divide self."""
        self._check(other)
        if not other.divides(self):
            raise ValueError("quotient would have negative multiplicities")
        return Sequence(self.alphabet, (a - b for a, b in zip(self.mults, other.mults)))

    def gcd(self, other):
        self._check(other)
        return Sequence(self.alphabet, (min(a, b) for a, b in zip(self.mults, other.mults)))

    def negate(self):
        table = self.alphabet.negation_table()
        if table is None:
            raise AlphabetError("alphabet is not closed under negation")
        mult = [0] * len(self.mults)
        for i, m in enumerate(self.mults):
            mult[table[i]] = m
        return Sequence(self.alphabet, mult)

    def __eq__(self, other):
        return (
            isinstance(other, Sequence)
            and self.alphabet == other.alphabet
            and self.mults == other.mults
        )

    def __hash__(self):
        return hash(self.mults)

    def __lt__(self, other):
        self._check(other)
        return self.mults < other.mults

    def to_json(self):
        return list(self.mults)

    def __repr__(self):
        return "Sequence(%s)" % (str(self),)

    def __str__(self):
        if self.is_empty():
            # "1" denotes the empty product unless the alphabet contains an
            # element that itself renders as "1"; then "()" is used instead.
            if any(g.render() == "1" for g in self.alphabet.elements):
                return "()"
            return "1"
        parts = []
        for i in self.support():
            g = self.alphabet.elements[i].render()
            m = self.mults[i]
            parts.append(g if m == 1 else "%s^%d" % (g, m))
        return " * ".join(parts)


_TERM_RE = re.compile(
    r"^(?P<elem>\((?:\s*-?\d+(?:\s*,\s*-?\d+)*)?\s*\)|-?\d+)(?:\^(?P<exp>\d+))?$"
)


def parse_sequence(alphabet, text):
    """Parse the rendered form "g1^k1 * g2^k2 * ..." back into a Sequence.

    >>> spec = GroupSpec(1)
    >>> a = Alphabet(spec, [spec.element(free=(1,)), spec.element(free=(-1,))])
    >>> parse_sequence(a, "1^2 * -1^2").length
    4
    """
    text = text.strip()
    if text == "":
        return alphabet.empty()
    if text == "1":
        # Ambiguous token: prefer the group element rendering as "1" when
        # the alphabet contains one, otherwise it is the empty product.
        for g in alphabet.elements:
            if g.render() == "1":
                return alphabet.sequence([(g, 1)])
        return alphabet.empty()
    if text == "()":
        # Empty product over an alphabet where "1" names an element; in the
        # trivial group "()" is the zero element itself.
        for g in alphabet.elements:
            if g.render() == "()":
                return alphabet.sequence([(g, 1)])
        return alphabet.empty()
    pairs = []
    for term in text.split("*"):
        m = _TERM_RE.match(term.strip())
        if not m:
            raise ArgumentError("cannot parse sequence term %r" % term.strip())
        raw = m.group("elem")
        inner = raw.strip("()")
        coords = [int(c) for c in inner.split(",") if c.strip()] if raw.startswith("(") else [int(raw)]
        g = alphabet.spec.element_from_coords(coords)
        pairs.append((g, int(m.group("exp") or 1)))
    return alphabet.sequence(pairs)
