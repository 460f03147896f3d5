"""Enumeration of atoms (minimal zero-sum sequences) over a finite alphabet.

``enumerate_atoms`` has two exact paths, picked by whether the group is
finite.  Over a finite group a depth-first search walks the zero-sum free
sequences S over G0 and records S * (-sigma(S)) when -sigma(S) is in G0 and
not before the last element of S.  If S is zero-sum free, S * (-sigma(S))
is a minimal zero-sum sequence: a proper zero-sum subsequence T * g would
give sigma(T) = sigma(S), so S less T would sum to zero.  And each atom is
reached from exactly one S, itself less one copy of its last element.

With a free part the kernel is a completion procedure for the minimal
nonnegative solutions of a homogeneous linear Diophantine system: atoms of
B(G0) are exactly the minimal nonzero v in N^G0 with sum v_g * g = 0.
Torsion congruences are turned into exact equations with one slack column
per cyclic factor.  The completion reaches every minimal solution.

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

from math import prod
from operator import add, mod, mul

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


def _zero_sum_free_search(alphabet, cap):
    """The atom vectors of B(G0) for G0 in a finite group.

    An atom holds g at most ord(g) times, and g^ord(g) is an atom, so the
    cap raises before any search exactly when some ord(g) exceeds it.

    G0 splits into blocks: elements that share a nonzero coordinate are in
    one block.  The blocks generate independent subgroups, so every atom
    lies in one block, and each block is searched in the factors it uses.
    """
    elements = alphabet.elements
    for j, g in enumerate(elements):
        if cap is not None and g.order() > cap:
            raise BoundExceededError("multiplicity cap %d exceeded at coordinate %d" % (cap, j))
    blocks = []
    for j, g in enumerate(elements):
        axes, members = {i for i, x in enumerate(g.torsion) if x}, [j]
        for block in [b for b in blocks if b[0] & axes]:
            blocks.remove(block)
            axes |= block[0]
            members += block[1]
        blocks.append((axes, members))
    atoms = []
    for axes, members in blocks:
        atoms += _block_atoms(elements, members, sorted(axes), alphabet.spec.torsion)
    return atoms


def _block_atoms(elements, members, axes, moduli):
    """The atom vectors over the alphabet indices ``members``, whose
    elements are nonzero only in the cyclic factors ``axes``, by the search
    of the module docstring.

    The subset sums of S, the empty sum included, are one int bitmask over
    those factors in mixed radix.  S takes g != 0 exactly when the bit of -g
    is clear, and the sums of S * g are those of S and their translate by g:
    per nonzero coordinate a masked shift up and a masked shift down, a
    rotation in that factor.  A zero-sum free S is shorter than D(G), so the
    search needs no cap.
    """
    mods = [moduli[i] for i in axes]
    weights = [prod(mods[i + 1 :]) for i in range(len(mods))]
    full = (1 << prod(mods)) - 1
    atoms = []
    # Move q: alphabet index, bit of -g, (keep, up, wrap, down) per nonzero coordinate, g.
    moves = []
    # sigma -> the move q with g = -sigma
    closing = {}
    for j in members:
        g = tuple(elements[j].torsion[i] for i in axes)
        if not any(g):
            atoms.append(tuple(int(i == j) for i in range(len(elements))))
            continue
        shifts = []
        for x, n, w in zip(g, mods, weights):
            if x:
                down = (n - x) * w
                keep = ((1 << down) - 1) * (full // ((1 << n * w) - 1))
                shifts.append((keep, x * w, full ^ keep, down))
        neg = tuple(-x % n for x, n in zip(g, mods))
        closing[neg] = len(moves)
        moves.append((j, 1 << sum(map(mul, neg, weights)), shifts, g))
    # (sums of S, sigma(S), last move of S, |S|); S is path[:|S|]
    stack = [(1, (0,) * len(mods), 0, 0)]
    path = []
    while stack:
        sums, sigma, last, depth = stack.pop()
        if depth:
            del path[depth - 1 :]
            path.append(moves[last][0])
            q = closing.get(sigma)
            if q is not None and q >= last:
                atom = [0] * len(elements)
                for j in path:
                    atom[j] += 1
                atom[moves[q][0]] += 1
                atoms.append(tuple(atom))
        for q in range(last, len(moves)):
            _, bit, shifts, g = moves[q]
            if sums & bit:
                continue
            moved = sums
            for keep, up, wrap, down in shifts:
                moved = (moved & keep) << up | (moved & wrap) >> down
            stack.append((sums | moved, tuple(map(mod, map(add, sigma, g), mods)), q, depth + 1))
    return atoms


def enumerate_atoms(alphabet, cap=64):
    """Atoms of B(G0) for a finite G0, as an AtomSet.

    ``cap`` bounds the multiplicity of each alphabet element in every atom;
    past it BoundExceededError is raised (no silent truncation).  For a
    finite group the zero-sum free search serves, and the cap raises exactly
    when cap < max ord(g), which is the largest multiplicity in any atom.
    With a free part the completion serves, and the cap bounds its
    candidates: a cap equal to the largest multiplicity in any atom can
    still raise.
    """
    k = len(alphabet)
    if k == 0:
        return AtomSet(alphabet, ())
    if not alphabet.spec.free_rank:
        return AtomSet(alphabet, _zero_sum_free_search(alphabet, cap))
    cols = _zero_sum_columns(alphabet.spec, alphabet.elements)
    caps = [cap] * k + [None] * (len(cols) - k)
    return AtomSet(alphabet, (v[:k] for v in minimal_nonneg_solutions(cols, caps)))


def davenport_constant(alphabet, cap=64):
    return enumerate_atoms(alphabet, cap).davenport()

