"""Named alphabet families with their known closed-form invariant values,
matrix-defined Diophantine monoids, and structural checks (divisor theory,
cofinality, direct-product decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .atoms import _zero_sum_columns
from .errors import ArgumentError, DomainError
from .groups import GroupSpec, _row_reduce
from .sequences import Alphabet
from .transfer import Characteristic


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@dataclass
class Preset:
    name: str
    params: dict
    alphabet: Alphabet
    characteristic: object = None
    expected: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "name": self.name,
            "params": dict(self.params),
            "alphabet": self.alphabet.to_json(),
        }
        if self.characteristic is not None:
            out["characteristic"] = self.characteristic.to_json()
        return out


def _thm74_basis(spec, r, alpha):
    """e_0..e_{r-1} the standard basis of Z^r and
    e_r = alpha*e_0 - e_1 - ... - e_{r-1}."""
    es = [spec.basis_element(i) for i in range(r)]
    last = alpha * es[0]
    for e in es[1:]:
        last = last - e
    es.append(last)
    return es


def _thm74(r, alpha):
    """Symmetric set {+-e_0, ..., +-e_r} in Z^r where (e_1,...,e_r) is an
    independent family with e_1 + ... + e_r = alpha * e_0.  Coordinates:
    e_0..e_{r-1} are the standard basis and e_r = alpha*e_0 - e_1 - ... -
    e_{r-1}, which keeps everything integral for every alpha."""
    if r < 1 or alpha < 1 or r + alpha <= 2:
        raise ArgumentError("need r, alpha >= 1 with r + alpha > 2")
    spec = GroupSpec(r)
    es = _thm74_basis(spec, r, alpha)
    elements = es + [-e for e in es]
    d = r + alpha
    delta = frozenset((d - 2,)) if d > 2 else frozenset()
    expected = {
        "num_atoms": r + 3,
        "davenport": d,
        "delta": delta,
        "elasticity": Fraction(d, 2),
        "catenary": d,
        "monotone_catenary": d,
        "omega": d,
        "tame": d,
        "rho": {k: (k // 2) * d + k % 2 for k in range(2, 8)},
        "lambda": {
            l * d + j: 2 * l + j
            for l in range(3)
            for j in range(d)
            if l * d + j >= 1
        },
        "min_abs_irred_witness": r + 1,
        "length_family": "thm74:%d,%d" % (r, alpha),
        "divisor_theory": True,
        "components": 1,
    }
    return Preset("thm74", {"r": r, "alpha": alpha}, Alphabet(spec, elements), None, expected)


def thm74_atoms_symbolic(preset):
    """The atoms V = (-e_0)^alpha e_1...e_r and U_i = (-e_i)e_i, returned as
    sequences over the preset alphabet (V first, then U_0..U_r, then -V)."""
    r = preset.params["r"]
    alpha = preset.params["alpha"]
    alphabet = preset.alphabet
    es = _thm74_basis(alphabet.spec, r, alpha)
    v = alphabet.sequence([(-es[0], alpha)] + [(e, 1) for e in es[1:]])
    us = [alphabet.sequence([(e, 1), (-e, 1)]) for e in es]
    return es, v, us


def thm74_block(preset, ks, ls):
    """The sequence prod e_i^{k_i} (-e_i)^{l_i} over a thm74 alphabet."""
    es, _, _ = thm74_atoms_symbolic(preset)
    pairs = []
    for e, k, l in zip(es, ks, ls):
        pairs.append((e, k))
        pairs.append((-e, l))
    return preset.alphabet.sequence(pairs)


def thm74_closed_form(preset, ks, ls):
    """Closed-form Z(S) and L(S) for S = prod e_i^{k_i}(-e_i)^{l_i}.

    Returns (is_zero_sum, factorizations, lengths) where each factorization
    is a sequence over the alphabet (the product is reassembled from the
    symbolic atoms); factorizations are reported as multisets of atoms.
    S must satisfy k_0 >= l_0 (negate first otherwise).
    """
    r = preset.params["r"]
    alpha = preset.params["alpha"]
    k0, l0 = ks[0], ls[0]
    if k0 < l0:
        raise ArgumentError("closed form stated for k_0 >= l_0; negate first")
    if (k0 - l0) % alpha != 0:
        return False, (), frozenset()
    q = (k0 - l0) // alpha
    if any(ls[i] != q + ks[i] for i in range(1, r + 1)):
        return False, (), frozenset()
    _, v, us = thm74_atoms_symbolic(preset)
    kstar = min(ks[1:])
    top = min(l0 // alpha, kstar)
    facs = []
    lengths = set()
    for nu in range(top + 1):
        parts = [(v, nu), (v.negate(), q + nu), (us[0], l0 - alpha * nu)]
        parts += [(us[i], ks[i] - nu) for i in range(1, r + 1)]
        facs.append(tuple((a, m) for a, m in parts if m))
        lengths.add(q + l0 + sum(ks[1:]) - (r + alpha - 2) * nu)
    return True, tuple(facs), frozenset(lengths)


def _cube(r, include_zero=True):
    if r < 1:
        raise ArgumentError("need r >= 1")
    spec = GroupSpec(r)
    elements = set()
    for eps in product((0, 1), repeat=r):
        g = spec.element_from_coords(eps)
        if g.is_zero() and not include_zero:
            continue
        elements.add(g)
        elements.add(-g)
    expected = {
        "davenport_lower_bound": fibonacci(r + 2),
        "delta_star_superset": frozenset(range(1, max(2 * r - 3, 0) + 1)),
        "components": 1,
    }
    return Preset(
        "cube", {"r": r, "include_zero": include_zero}, Alphabet(spec, elements), None, expected
    )


def _full_box(q):
    if q < 1:
        raise ArgumentError("need q >= 1")
    spec = GroupSpec(q)
    elements = [spec.element_from_coords(c) for c in product((-1, 0, 1), repeat=q)]
    return Preset("full_box", {"q": q}, Alphabet(spec, elements))


def _five_point():
    spec = GroupSpec(1)
    e = spec.element(free=(1,))
    alphabet = Alphabet(spec, [0 * e, e, -e, 2 * e, -2 * e])
    expected = {"length_family": "C3", "davenport": 3, "delta": frozenset((1,))}
    return Preset("five_point", {}, alphabet, None, expected)


def _four_point():
    spec = GroupSpec(1)
    e = spec.element(free=(1,))
    alphabet = Alphabet(spec, [e, -e, 2 * e, -2 * e])
    return Preset("four_point", {}, alphabet, None, {"divisor_theory": True})


def _prop713():
    spec = GroupSpec(2)
    e1 = spec.element(free=(1, 0))
    e2 = spec.element(free=(0, 1))
    half = [e1, e2, 2 * e2, e1 + 2 * e2]
    alphabet = Alphabet(spec, [spec.zero()] + half + [-x for x in half])
    return Preset("prop713", {}, alphabet, None, {"length_family": "C4"})


def _split_block(kind, spec, k):
    e1 = spec.basis_element(2 * k)
    e2 = spec.basis_element(2 * k + 1)
    if kind == 1:
        half = [e1, e2, e1 + e2]
    else:
        half = [e1, e2, 2 * e2, e1 + 2 * e2]
    return half + [-x for x in half]


def _split(kind, q):
    if q < 1:
        raise ArgumentError("need q >= 1")
    spec = GroupSpec(2 * q)
    elements = []
    for k in range(q):
        elements.extend(_split_block(kind, spec, k))
    name = "split1" if kind == 1 else "split2"
    return Preset(name, {"q": q}, Alphabet(spec, elements), None, {"components": q})


def _cyclic(n):
    if n < 2:
        raise ArgumentError("need n >= 2")
    spec = GroupSpec(0, (n,))
    elements = [spec.element(torsion=(i,)) for i in range(n)]
    alphabet = Alphabet(spec, elements)
    char = Characteristic(spec, [(g, 1) for g in elements])
    expected = {
        "davenport": n,
        "elasticity": Fraction(n, 2),
        "catenary": n,
        "omega": n,
        "delta": frozenset(range(1, n - 1)),
        "unions_are_intervals": True,
        "rho": {2 * k + j: k * n + j for k in range(1, 4) for j in (0, 1)},
        "lambda": {
            n + j: (2 + j if j <= 1 else 4) for j in range(n) if n + j >= 1
        },
    }
    if n >= 4:
        expected["delta_star_max"] = n - 2
        expected["delta_star_second_max"] = n // 2 - 1
    return Preset("cyclic", {"n": n}, alphabet, char, expected)


def _frt_t(spl):
    if spl == 1:
        spec = GroupSpec(1)
        e = spec.element(free=(1,))
        alphabet = Alphabet(spec, [-e, 0 * e, e])
        return Preset("frt_t", {"spl": 1}, alphabet, None, {"delta": frozenset()})
    if spl == 2:
        spec = GroupSpec(2)
        half = [
            spec.element_from_coords((1, 1)),
            spec.element_from_coords((1, 0)),
            spec.element_from_coords((0, 1)),
        ]
        alphabet = Alphabet(spec, half + [-x for x in half])
        return Preset(
            "frt_t", {"spl": 2}, alphabet, None,
            {"davenport": 3, "delta": frozenset((1,))},
        )
    raise ArgumentError("spl must be 1 or 2")


def _hypersurface(kind, n=0):
    kind = kind.upper()
    if kind == "A":
        if n < 1:
            raise ArgumentError("A_n needs n >= 1")
        spec = GroupSpec(0, (n + 1,))
        classes = [(spec.element(torsion=(i,)), 1) for i in range(n + 1)]
        expected = {}
    elif kind == "D" and n % 2 == 0:
        if n < 4:
            raise ArgumentError("D_n needs n >= 4")
        spec = GroupSpec(0, (2, 2))
        classes = [
            (spec.element(torsion=(0, 0)), n // 2),
            (spec.element(torsion=(1, 0)), 1),
            (spec.element(torsion=(0, 1)), 1),
            (spec.element(torsion=(1, 1)), (n - 2) // 2),
        ]
        expected = {"claimed_atom_count": (n * n + 8) // 4, "claimed_count_check": True}
    elif kind == "D":
        if n < 5:
            raise ArgumentError("odd D_n needs n >= 5")
        spec = GroupSpec(0, (4,))
        classes = [
            (spec.element(torsion=(0,)), (n - 1) // 2),
            (spec.element(torsion=(1,)), 1),
            (spec.element(torsion=(2,)), (n - 1) // 2),
            (spec.element(torsion=(3,)), 1),
        ]
        expected = {}
    elif kind == "E6":
        spec = GroupSpec(0, (3,))
        classes = [
            (spec.element(torsion=(0,)), 3),
            (spec.element(torsion=(1,)), 2),
            (spec.element(torsion=(2,)), 2),
        ]
        expected = {}
    elif kind == "E7":
        spec = GroupSpec(0, (2,))
        classes = [
            (spec.element(torsion=(0,)), 5),
            (spec.element(torsion=(1,)), 3),
        ]
        expected = {"atom_count": 11}
    elif kind == "E8":
        spec = GroupSpec(0, ())
        classes = [(spec.zero(), 9)]
        expected = {"atom_count": 9}
    else:
        raise ArgumentError("unknown hypersurface type %r" % kind)
    char = Characteristic(spec, classes)
    alphabet = char.support_alphabet()
    return Preset(
        "hypersurface", {"type": kind, "n": n}, alphabet, char, expected
    )


_FAMILIES = {
    "thm74": (_thm74, ("r", "alpha")),
    "cube": (_cube, ("r", "include_zero")),
    "full_box": (_full_box, ("q",)),
    "five_point": (_five_point, ()),
    "four_point": (_four_point, ()),
    "prop713": (_prop713, ()),
    "split1": (lambda q: _split(1, q), ("q",)),
    "split2": (lambda q: _split(2, q), ("q",)),
    "cyclic": (_cyclic, ("n",)),
    "frt_t": (_frt_t, ("spl",)),
    "hypersurface": (_hypersurface, ("kind", "n")),
}


def preset_families():
    return sorted(_FAMILIES)


def build_preset(family, *args, **kwargs):
    if family not in _FAMILIES:
        raise ArgumentError("unknown preset family %r" % family)
    fn, _ = _FAMILIES[family]
    return fn(*args, **kwargs)


def parse_preset(token, **overrides):
    """Parse 'family' or 'family:a,b' tokens (e.g. 'cyclic:5', 'thm74:2,1').
    Token arguments bind to the family's parameters by position; keyword
    overrides that are not None replace them, and one that names no
    parameter of the family is an error."""
    name, _, argstr = token.partition(":")
    if name not in _FAMILIES:
        raise ArgumentError("unknown preset family %r" % name)
    fn, param_names = _FAMILIES[name]
    args = []
    if argstr:
        for raw in argstr.split(","):
            raw = raw.strip()
            args.append(int(raw) if raw.lstrip("-").isdigit() else raw)
    if len(args) > len(param_names):
        raise ArgumentError(
            "preset family %r takes at most %d arguments" % (name, len(param_names))
        )
    kwargs = dict(zip(param_names, args))
    for k, v in overrides.items():
        if v is None:
            continue
        if k not in param_names:
            raise ArgumentError("preset family %r has no parameter %r" % (name, k))
        kwargs[k] = v
    return fn(**kwargs)


@dataclass
class DefiningMatrix:
    """A q-row integer matrix with column multiplicities."""

    rows: int
    columns: tuple  # of (vector, multiplicity)

    @classmethod
    def from_json(cls, data):
        cols = tuple(
            (tuple(int(x) for x in c["vec"]), int(c.get("mult", 1)))
            for c in data["columns"]
        )
        return cls(int(data["rows"]), cols)

    def to_json(self):
        return {
            "rows": self.rows,
            "columns": [{"vec": list(v), "mult": m} for v, m in self.columns],
        }


def from_matrix(matrix, row_reduce=False):
    """Preset for the Diophantine monoid ker(M) cap N^cols: group Z^q, one
    class per distinct column, multiplicities = column repetition counts."""
    if not matrix.columns:
        raise DomainError("matrix needs at least one column")
    cols = []
    for v, m in matrix.columns:
        if len(v) != matrix.rows:
            raise DomainError("column length does not match row count")
        cols.extend([list(v)] * m)
    q = matrix.rows
    if row_reduce:
        rows = _row_reduce([[c[i] for c in cols] for i in range(q)])
        q = len(rows) if rows else 1
        if not rows:
            rows = [[0] * len(cols)]
        cols = [[rows[i][j] for i in range(q)] for j in range(len(cols))]
    spec = GroupSpec(q)
    counts = {}
    for c in cols:
        g = spec.element_from_coords(c)
        counts[g] = counts.get(g, 0) + 1
    char = Characteristic(spec, sorted(counts.items(), key=lambda p: p[0].key()))
    alphabet = char.support_alphabet()
    return Preset("from_matrix", {"rows": q}, alphabet, char)


def _in_submonoid(target, generators):
    """Is target a nonnegative integer combination of the generators?
    Feasibility as an integer program (torsion congruences via slacks)."""
    if not generators:
        return target.is_zero()
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    cols = _zero_sum_columns(target.spec, generators)
    a = np.array(cols, dtype=float).T
    rhs = np.array(list(target.free) + list(target.torsion), dtype=float)
    res = milp(
        c=np.zeros(len(cols)),
        constraints=[LinearConstraint(a, rhs, rhs)],
        integrality=np.ones(len(cols)),
        bounds=Bounds(0, np.inf),
    )
    return bool(res.success)


def check_divisor_theory(preset):
    """Is the natural embedding into the free monoid over the prime divisors
    a divisor theory?  Classes carrying at least two prime divisors pass
    automatically; a class with a single prime divisor must be reachable as
    a nonnegative combination of the other classes.  Returns (ok, reasons).
    """
    alphabet = preset.alphabet
    char = preset.characteristic
    reasons = {}
    ok = True
    for g in alphabet.elements:
        if char is not None and char.multiplicity(g) >= 2:
            reasons[g] = "multiple primes in class"
            continue
        others = [h for h in alphabet.elements if h != g]
        if _in_submonoid(g, others):
            reasons[g] = "generated by the other classes"
        else:
            reasons[g] = "not generated by the other classes"
            ok = False
    return ok, reasons


def check_cofinal(atomset):
    """True iff every alphabet element occurs in some atom (equivalently no
    proper subset supports every block)."""
    used = set()
    for a in atomset.atoms:
        used.update(a.support())
    return len(used) == len(atomset.alphabet)


def decompose(atomset):
    """Finest splitting of the alphabet such that every atom is supported
    inside a single part; the block monoid is the direct product over the
    parts.  Elements in no atom become singleton parts."""
    n = len(atomset.alphabet)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in atomset.atoms:
        supp = a.support()
        for i in supp[1:]:
            parent[find(supp[0])] = find(i)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    parts = sorted(tuple(sorted(g)) for g in groups.values())
    return tuple(
        tuple(atomset.alphabet.elements[i] for i in part) for part in parts
    )
