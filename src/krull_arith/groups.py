"""Exact arithmetic in finitely generated abelian groups Z^r + Z/n1 + ... + Z/nt.

Elements are stored in canonical form: arbitrary-precision integers for the
free part, torsion residues reduced into [0, n_i).  A total (lexicographic)
order on canonical forms is exposed so that every module downstream can
iterate deterministically.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ShapeError


class GroupSpec:
    """The group Z^free_rank + Z/torsion[0] + ... + Z/torsion[-1]."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank=0, torsion=()):
        free_rank = int(free_rank)
        torsion = tuple(int(n) for n in torsion)
        if free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        if any(n < 2 for n in torsion):
            raise ValueError("torsion moduli must be >= 2")
        self.free_rank = free_rank
        self.torsion = torsion

    @property
    def dimension(self):
        return self.free_rank + len(self.torsion)

    def element(self, free=(), torsion=()):
        """Build an element, reducing torsion coordinates.

        >>> GroupSpec(0, (3,)).element(torsion=(5,))
        GroupElement(free=(), torsion=(2,))
        """
        return GroupElement(self, free, torsion)

    def zero(self):
        return GroupElement(self, (0,) * self.free_rank, (0,) * len(self.torsion))

    def basis_element(self, i):
        """The i-th canonical generator (free first, then torsion)."""
        free = [0] * self.free_rank
        tors = [0] * len(self.torsion)
        if i < self.free_rank:
            free[i] = 1
        elif i < self.dimension:
            tors[i - self.free_rank] = 1
        else:
            raise IndexError(i)
        return GroupElement(self, free, tors)

    def element_from_coords(self, coords):
        """Element from one flat coordinate vector (free then torsion)."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.dimension:
            raise ShapeError(
                "expected %d coordinates, got %d" % (self.dimension, len(coords))
            )
        r = self.free_rank
        return GroupElement(self, coords[:r], coords[r:])

    def exponent(self):
        """lcm of the torsion moduli (1 when torsion-free)."""
        return lcm(*self.torsion) if self.torsion else 1

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, data):
        return cls(data.get("free_rank", 0), data.get("torsion", ()))

    def __eq__(self, other):
        return (
            isinstance(other, GroupSpec)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        return "GroupSpec(free_rank=%d, torsion=%r)" % (self.free_rank, self.torsion)

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % n for n in self.torsion)
        return " + ".join(parts) if parts else "0"


class GroupElement:
    __slots__ = ("spec", "free", "torsion")

    def __init__(self, spec, free=(), torsion=()):
        free = tuple(int(x) for x in free)
        torsion = tuple(int(x) % n for x, n in zip(torsion, spec.torsion))
        if len(free) != spec.free_rank or len(torsion) != len(spec.torsion):
            raise ShapeError("coordinate vector does not match %r" % spec)
        self.spec = spec
        self.free = free
        self.torsion = torsion

    @property
    def coords(self):
        return self.free + self.torsion

    def is_zero(self):
        return not any(self.free) and not any(self.torsion)

    def _check(self, other):
        if not isinstance(other, GroupElement) or other.spec != self.spec:
            raise ShapeError("elements belong to different groups")

    def __add__(self, other):
        self._check(other)
        return GroupElement(
            self.spec,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __neg__(self):
        return GroupElement(
            self.spec,
            tuple(-a for a in self.free),
            tuple(-a for a in self.torsion),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k):
        k = int(k)
        return GroupElement(
            self.spec,
            tuple(k * a for a in self.free),
            tuple(k * a for a in self.torsion),
        )

    __rmul__ = __mul__

    def order(self):
        """Smallest k >= 1 with k*a = 0, or 0 for infinite order.

        >>> GroupSpec(0, (3,)).element(torsion=(1,)).order()
        3
        >>> GroupSpec(1).element(free=(2,)).order()
        0
        """
        if any(self.free):
            return 0
        k = 1
        for x, n in zip(self.torsion, self.spec.torsion):
            k = lcm(k, n // gcd(x, n))
        return k

    def multipliers(self, other):
        """The integers k with k * self = other in a finite group, as (k0, m):
        exactly the k = k0 mod m, where m = self.order().  None when other
        is not a multiple of self.

        >>> g = GroupSpec(0, (2, 6)).element(torsion=(1, 2))
        >>> g.multipliers(5 * g), g.multipliers(GroupSpec(0, (2, 6)).element(torsion=(0, 1)))
        ((5, 6), None)
        """
        k, m = 0, 1
        for x, y, n in zip(self.torsion, other.torsion, self.spec.torsion):
            d = gcd(x, n)
            if y % d:
                return None
            step = n // d
            joined = congruence(k, m, y // d * pow(x // d, -1, step), step)
            if joined is None:
                return None
            k, m = joined
        return k, m

    def key(self):
        return (self.free, self.torsion)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.spec == other.spec
            and self.free == other.free
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free, self.torsion))

    def __lt__(self, other):
        self._check(other)
        return self.key() < other.key()

    def __le__(self, other):
        self._check(other)
        return self.key() <= other.key()

    def to_json(self):
        return {"free": list(self.free), "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, spec, data):
        if isinstance(data, (list, tuple)):
            return spec.element_from_coords(data)
        return cls(spec, data.get("free", ()), data.get("torsion", ()))

    def render(self):
        """Compact text form: a bare integer in dimension 1, a tuple otherwise."""
        coords = self.coords
        if len(coords) == 1:
            return str(coords[0])
        return "(" + ",".join(str(c) for c in coords) + ")"

    def __repr__(self):
        return "GroupElement(free=%r, torsion=%r)" % (self.free, self.torsion)

    def __str__(self):
        return self.render()


def congruence(a, m, b, n):
    """The k with k = a mod m and k = b mod n, as (c, lcm(m, n)) meaning
    exactly the k = c mod lcm(m, n); None when there are none (Chinese
    remainder theorem for moduli that need not be coprime)."""
    d = gcd(m, n)
    if (b - a) % d:
        return None
    step = m // d
    t = (b - a) // d * pow(step, -1, n // d) % (n // d)
    return (a + m * t) % (step * n), step * n


def _row_reduce(rows):
    """Integer row echelon form (unimodular row operations only); zero rows
    dropped.  The kernel of the matrix is unchanged."""
    rows = [list(r) for r in rows]
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    top = 0
    for c in range(cols):
        pivots = [i for i in range(top, m) if rows[i][c]]
        if not pivots:
            continue
        while len(pivots) > 1 or abs(rows[pivots[0]][c]) != min(
            abs(rows[i][c]) for i in pivots
        ):
            pivots.sort(key=lambda i: abs(rows[i][c]))
            p = pivots[0]
            for i in pivots[1:]:
                f = rows[i][c] // rows[p][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[p])]
            pivots = [i for i in pivots if rows[i][c]]
        p = pivots[0]
        rows[top], rows[p] = rows[p], rows[top]
        if rows[top][c] < 0:
            rows[top] = [-a for a in rows[top]]
        for i in range(m):
            if i != top and rows[i][c]:
                f = rows[i][c] // rows[top][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        top += 1
    return [r for r in rows if any(r)]


def subgroup_rank(gens):
    """Torsion-free rank of the subgroup generated by the given elements.

    Each generator with a nonzero torsion part is scaled by the order of that
    torsion part (killing the torsion relations); the rank of the resulting
    free parts is then the rank of an integer matrix, the number of nonzero
    rows of its echelon form.
    """
    gens = list(gens)
    if not gens:
        return 0
    spec = gens[0].spec
    for g in gens[1:]:
        if g.spec != spec:
            raise ShapeError("generators belong to different groups")
    no_free = (0,) * spec.free_rank
    rows = []
    for g in gens:
        scale = spec.element(no_free, g.torsion).order()
        rows.append([scale * x for x in g.free])
    return len(_row_reduce(rows))
