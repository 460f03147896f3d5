"""Enumeration of atoms (minimal zero-sum sequences) over a finite alphabet.

The kernel is a completion procedure for the minimal nonnegative solutions of
a homogeneous linear Diophantine system: atoms of B(G0) are exactly the
minimal nonzero v in N^G0 with sum v_g * g = 0.  Torsion congruences are
turned into exact equations with one slack column per cyclic factor; because
torsion residues are stored in [0, n), slack values grow monotonically with
the sequence vector, so minimal solutions of the extended system project
bijectively onto atoms.
"""

from __future__ import annotations

from itertools import product

from .errors import BoundExceededError
from .sequences import Sequence


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _dominates(small, big):
    return all(a <= b for a, b in zip(small, big)) and small != big


def minimal_nonneg_solutions(columns, caps=None):
    """All minimal nonzero x in N^q with sum x_j * columns[j] = 0.

    ``columns`` is a list of equal-length integer vectors.  ``caps`` bounds
    each coordinate (an int applies to all); a candidate that must exceed its
    cap raises BoundExceededError rather than returning a truncated answer.

    Completion procedure: grow candidate vectors from the unit vectors,
    extending x by e_j only when <Ax, A e_j> < 0 (which strictly decreases
    |Ax|^2 along some path), and harvesting solutions as they appear.  Every
    minimal solution is reached this way.
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
    frontier = {}
    for j in range(q):
        x = tuple(1 if i == j else 0 for i in range(q))
        frontier[x] = columns[j]
    while frontier:
        nxt = {}
        for x, s in frontier.items():
            if not any(s):
                if not any(_dominates(b, x) for b in basis):
                    basis.append(x)
                continue
            for j in range(q):
                if _dot(s, columns[j]) >= 0:
                    continue
                if caps[j] is not None and x[j] + 1 > caps[j]:
                    raise BoundExceededError(
                        "multiplicity cap %d exceeded at coordinate %d" % (caps[j], j)
                    )
                y = x[:j] + (x[j] + 1,) + x[j + 1 :]
                if y in nxt:
                    continue
                if any(_dominates(b, y) or b == y for b in basis):
                    continue
                nxt[y] = tuple(a + b for a, b in zip(s, columns[j]))
        frontier = nxt
    return sorted(basis)


def _minimalize(vectors):
    """Drop every vector strictly dominated by another one."""
    vectors = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vectors:
        if not any(_dominates(u, v) for u in kept):
            kept.append(v)
    return kept


class AtomSet:
    """The atoms of B(G0), sorted canonically."""

    __slots__ = ("alphabet", "atoms", "cap")

    def __init__(self, alphabet, atoms, cap):
        self.alphabet = alphabet
        self.atoms = tuple(sorted(atoms, key=lambda a: a.mults))
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


def enumerate_atoms(alphabet, cap=64):
    """Atoms of B(G0) for a finite G0, as an AtomSet.

    ``cap`` bounds the multiplicity of each alphabet element inside a single
    atom; hitting it raises BoundExceededError (no silent truncation).
    """
    k = len(alphabet)
    if k == 0:
        return AtomSet(alphabet, (), cap)
    cols = _zero_sum_columns(alphabet.spec, alphabet.elements)
    caps = [cap] * k + [None] * (len(cols) - k)
    solutions = minimal_nonneg_solutions(cols, caps)
    projected = _minimalize([v[:k] for v in solutions])
    atoms = [Sequence(alphabet, v) for v in projected]
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
