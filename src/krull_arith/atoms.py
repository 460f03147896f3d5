"""Enumeration of atoms (minimal zero-sum sequences) over a finite alphabet.

The kernel is a completion procedure for the minimal nonnegative solutions of
a homogeneous linear Diophantine system: atoms of B(G0) are exactly the
minimal nonzero v in N^G0 with sum v_g * g = 0.  Torsion congruences are
turned into exact equations with one slack column per cyclic factor.

The completion keeps one invariant: no frontier vector is dominated by a
solution found so far.  Zero-sum vectors of a level join the basis before
any vector of that level is extended, so a solution b that divides a new
candidate x + e_j agrees with it at j (otherwise b would divide x).  The
basis is therefore indexed by (coordinate, entry), and a candidate is tested
only against the solutions in one bucket.

Two cuts spare work and change no candidate's fate.  The move test <Ax,
Ae_j> < 0 reads only the residual s = Ax, so the moves allowed at each
distinct s, each with its residual after the move, are listed once.  And a
frontier vector carries a mask of the moves j with x + e_j divided by a
solution b, which its children inherit: b <= x + e_j and x <= x' give b <=
x' + e_j, so those candidates are rejected with no bucket scan.

Because torsion residues are stored in [0, n), the slack a zero-sum vector
needs is a monotone function of the vector: x <= x' gives slack(x) <=
slack(x').  So the minimal solutions of the extended system project one to
one onto the minimal zero-sum vectors, and the projection needs no second
minimalization.

Frontier and basis vectors are packed ints (``factorizations.Packing``):
y = x + e_j is one addition, the bucket key is field j of y masked in place,
and b divides y when ((y | guard) - b) & guard == guard.  Fields start as
wide as the largest cap needs; a candidate past its cap raises before its
entry passes the guard bit, and no basis vector divides it.  Uncapped
columns, such as the torsion slack columns, are never truncated: when such
an entry would reach its guard bit, the completion reruns at the next width.
"""

from __future__ import annotations

from operator import add, mul

from .errors import BoundExceededError, DomainError
from .factorizations import Packing
from .sequences import Sequence


def minimal_nonneg_solutions(columns, caps=None):
    """All minimal nonzero x in N^q with sum x_j * columns[j] = 0.

    ``columns`` is a list of equal-length integer vectors.  ``caps`` bounds
    each coordinate (an int applies to all); a candidate that no solution
    found so far divides and that must exceed its cap raises
    BoundExceededError rather than returning a truncated answer.

    Completion procedure: grow candidate vectors from the unit vectors,
    extending x by e_j only when <Ax, A e_j> < 0 (which strictly decreases
    |Ax|^2 along some path), and harvesting solutions as they appear.  Every
    minimal solution is reached this way.  The module docstring says how
    candidates are tested against the solutions found so far.
    """
    q = len(columns)
    if q == 0:
        return []
    if caps is None or isinstance(caps, int):
        caps = [caps] * q
    for j, cap in enumerate(caps):
        if cap is not None and cap < 1:
            raise BoundExceededError("multiplicity cap %d exceeded at coordinate %d" % (cap, j))
    packing = Packing(q, max((cap for cap in caps if cap is not None), default=0))
    while (basis := _completion(columns, caps, packing)) is None:
        packing = Packing(q, packing.field)
    return [packing.unpack(b) for b in sorted(basis)]


def _completion(columns, caps, packing):
    """The packed minimal solutions, with candidates packed by ``packing``,
    or None when an uncapped entry reaches its guard bit."""
    guard, field = packing.guard, packing.field
    # Move j: unit, field mask, limit past the cap or at the guard bit, j, dead-mask bit.
    moves = [
        (1 << t, field << t, (field >> 1 if cap is None else cap) << t, j, 1 << j)
        for j, (cap, t) in enumerate(zip(caps, packing.shifts))
    ]
    basis = []
    # field i of b, masked in place -> the basis vectors b with that field
    by_entry = {}
    # residual Ax -> its allowed moves, each with the residual after it
    steps = {}
    # x -> (Ax, the mask of the moves j with x + e_j dominated)
    frontier = {move[0]: (tuple(column), 0) for move, column in zip(moves, columns)}
    while frontier:
        growing = []
        for x, (s, dead) in frontier.items():
            if any(s):
                growing.append((x, s, dead))
                continue
            basis.append(x)
            for move in moves:
                if x & move[1]:
                    by_entry.setdefault(x & move[1], []).append(x)
        nxt = {}
        for x, s, dead in growing:
            if (allowed := steps.get(s)) is None:
                allowed = steps[s] = [
                    (*move, tuple(map(add, s, column)))
                    for move, column in zip(moves, columns)
                    if sum(map(mul, s, column)) < 0
                ]
            kids = []
            for unit, mask, limit, j, bit, t in allowed:
                if dead & bit or (y := x + unit) in nxt:
                    continue
                entry = y & mask
                held = y | guard
                for b in by_entry.get(entry, ()):
                    if (held - b) & guard == guard:
                        dead |= bit
                        break
                else:
                    if entry > limit:
                        if caps[j] is None:
                            return None
                        raise BoundExceededError(
                            "multiplicity cap %d exceeded at coordinate %d" % (caps[j], j)
                        )
                    kids.append((y, t))
            for y, t in kids:
                nxt[y] = (t, dead)
        frontier = nxt
    return basis


class AtomSet:
    """The atoms of B(G0): an alphabet and the atoms' multiplicity tuples,
    ``vectors``, sorted canonically.  The kernels read only ``vectors``,
    which ``factorizations.PackedAtoms`` packs; ``atoms``, iteration and
    indexing build ``Sequence``s each time they are read."""

    __slots__ = ("alphabet", "vectors")

    def __init__(self, alphabet, vectors):
        self.alphabet = alphabet
        self.vectors = tuple(sorted(vectors))

    @property
    def atoms(self):
        return tuple(self)

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return (Sequence(self.alphabet, v) for v in self.vectors)

    def __getitem__(self, i):
        return Sequence(self.alphabet, self.vectors[i])

    def davenport(self):
        """Largest atom length (the Davenport constant of G0); 0 if atom-free."""
        return max(map(sum, self.vectors), default=0)

    def restrict(self, support_indices):
        """The atoms supported inside the given index set (a divisor-closed
        piece), as an AtomSet over the same alphabet."""
        outside = set(range(len(self.alphabet))) - set(support_indices)
        return AtomSet(self.alphabet, (v for v in self.vectors if not any(v[i] for i in outside)))


def _zero_sum_columns(spec, elements):
    """Exact-equation columns, one per element (repeats allowed), plus one
    torsion slack column per cyclic factor of the group."""
    r = spec.free_rank
    t = len(spec.torsion)
    cols = [list(g.free) + list(g.torsion) for g in elements]
    for j, n in enumerate(spec.torsion):
        slack = [0] * (r + t)
        slack[r + j] = -n
        cols.append(slack)
    return cols


def _integer_point(rows, rhs, maximize=None):
    """A nonnegative integer x with rows . x = rhs, maximizing maximize . x
    when ``maximize`` is given, or None when the system has no such x.

    Solved by scipy's MILP, imported here so that only a caller that solves
    a program loads scipy.  The answer is rounded and checked exactly in
    Python ints; an answer that fails the check, and any solver failure
    other than infeasibility, raise DomainError.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(rows[0])
    c = np.zeros(n) if maximize is None else -np.array(maximize, dtype=float)
    equations = LinearConstraint(np.array(rows, dtype=float), rhs, rhs)
    res = milp(c, integrality=np.ones(n), bounds=Bounds(0, np.inf), constraints=[equations])
    if res.status == 2:  # infeasible
        return None
    if not res.success:
        raise DomainError("integer program failed: %s" % res.message)
    x = [round(v) for v in res.x]
    if min(x) < 0 or any(sum(map(mul, row, x)) != b for row, b in zip(rows, rhs)):
        raise DomainError("integer program answer %s does not solve the system" % x)
    return x


def enumerate_atoms(alphabet, cap=64):
    """Atoms of B(G0) for a finite G0, as an AtomSet.

    ``cap`` bounds the multiplicity of each alphabet element in the
    completion's candidates, and so in every atom; a candidate that must pass
    it raises BoundExceededError (no silent truncation).  A cap equal to the
    largest multiplicity in any atom can still raise.
    """
    k = len(alphabet)
    if k == 0:
        return AtomSet(alphabet, ())
    cols = _zero_sum_columns(alphabet.spec, alphabet.elements)
    caps = [cap] * k + [None] * (len(cols) - k)
    return AtomSet(alphabet, (v[:k] for v in minimal_nonneg_solutions(cols, caps)))


def davenport_constant(alphabet, cap=64):
    return enumerate_atoms(alphabet, cap).davenport()

