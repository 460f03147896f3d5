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

Because torsion residues are stored in [0, n), the slack a zero-sum vector
needs is a monotone function of the vector: x <= x' gives slack(x) <=
slack(x').  So the minimal solutions of the extended system project one to
one onto the minimal zero-sum vectors, and the projection needs no second
minimalization.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .errors import BoundExceededError, DomainError
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
    minimal solution is reached this way.

    Each level takes two passes: its zero-sum vectors join the basis, then
    the others are extended.  The module docstring says why a candidate
    y = x + e_j is tested only against basis vectors b with b[j] == y[j].
    """
    q = len(columns)
    if q == 0:
        return []
    columns = [tuple(c) for c in columns]
    if caps is None:
        caps = [None] * q
    elif isinstance(caps, int):
        caps = [caps] * q
    basis = []
    # (j, m) -> supports [(i, b[i]), ...] of the basis vectors b with b[j] == m
    by_entry = {}
    frontier = {}
    for j in range(q):
        if caps[j] is not None and caps[j] < 1:
            raise BoundExceededError("multiplicity cap %d exceeded at coordinate %d" % (caps[j], j))
        x = tuple(1 if i == j else 0 for i in range(q))
        frontier[x] = columns[j]
    while frontier:
        growing = []
        for x, s in frontier.items():
            if any(s):
                growing.append((x, s))
                continue
            basis.append(x)
            support = [(i, m) for i, m in enumerate(x) if m]
            for i, m in support:
                by_entry.setdefault((i, m), []).append(support)
        nxt = {}
        for x, s in growing:
            for j, column in enumerate(columns):
                if sum(map(mul, s, column)) >= 0:
                    continue
                y = x[:j] + (x[j] + 1,) + x[j + 1 :]
                if y in nxt:
                    continue
                bucket = by_entry.get((j, y[j]))
                if bucket and any(all(y[i] >= m for i, m in b) for b in bucket):
                    continue
                if caps[j] is not None and y[j] > caps[j]:
                    raise BoundExceededError(
                        "multiplicity cap %d exceeded at coordinate %d" % (caps[j], j)
                    )
                nxt[y] = tuple(a + b for a, b in zip(s, column))
        frontier = nxt
    return sorted(basis)


def _minimalize(vectors):
    """Drop every vector strictly dominated by another one."""
    vectors = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vectors:
        if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
            kept.append(v)
    return kept


class AtomSet:
    """The atoms of B(G0), sorted canonically.  ``vectors`` holds their
    multiplicity tuples, which ``factorizations.PackedAtoms`` packs for the
    factorization kernels."""

    __slots__ = ("alphabet", "atoms", "vectors", "cap")

    def __init__(self, alphabet, atoms, cap):
        self.alphabet = alphabet
        self.atoms = tuple(sorted(atoms, key=lambda a: a.mults))
        self.vectors = tuple(a.mults for a in self.atoms)
        self.cap = cap

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __getitem__(self, i):
        return self.atoms[i]

    def davenport(self):
        """Largest atom length (the Davenport constant of G0); 0 if atom-free."""
        return max((a.length for a in self.atoms), default=0)

    def restrict(self, support_indices):
        """The atoms supported inside the given index set (a divisor-closed
        piece), as an AtomSet over the same alphabet."""
        allowed = set(support_indices)
        return AtomSet(
            self.alphabet,
            (a for a in self.atoms if set(a.support()) <= allowed),
            self.cap,
        )

    def to_json(self):
        return {
            "alphabet": self.alphabet.to_json(),
            "atoms": [a.to_json() for a in self.atoms],
            "cap": self.cap,
        }


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
        return AtomSet(alphabet, (), cap)
    cols = _zero_sum_columns(alphabet.spec, alphabet.elements)
    caps = [cap] * k + [None] * (len(cols) - k)
    atoms = [Sequence(alphabet, v[:k]) for v in minimal_nonneg_solutions(cols, caps)]
    return AtomSet(alphabet, atoms, cap)


def davenport_constant(alphabet, cap=64):
    return enumerate_atoms(alphabet, cap).davenport()


def atoms_by_exhaustion(alphabet, max_mult):
    """Independent oracle: scan every vector with coordinates <= max_mult,
    keep the zero-sum ones, and extract the minimal nonzero ones.

    Exponential; only for cross-checking tiny instances in tests.
    """
    zero_sum = []
    for v in product(range(max_mult + 1), repeat=len(alphabet)):
        if any(v) and Sequence(alphabet, v).is_zero_sum():
            zero_sum.append(v)
    return tuple(Sequence(alphabet, v) for v in _minimalize(zero_sum))
