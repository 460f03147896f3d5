"""Named alphabet families with their known closed-form invariant values,
the built-in alphabet maps between them, matrix-defined Diophantine monoids,
and structural checks (divisor theory, cofinality, direct-product
decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .atoms import _integer_point, _zero_sum_columns
from .errors import ArgumentError, DomainError
from .groups import GroupSpec, _row_reduce
from .sequences import Alphabet
from .transfer import Characteristic, TransferMap


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


def _symmetric(name, params, half, zero, expected):
    """The preset on the alphabet ±half of Z^d, with 0 when ``zero``.
    ``half`` holds coordinate tuples of length d."""
    spec = GroupSpec(len(half[0]))
    half = [spec.element_from_coords(c) for c in half]
    elements = half + [-g for g in half] + ([spec.zero()] if zero else [])
    return Preset(name, params, Alphabet(spec, elements), None, dict(expected))


def _thm74(r, alpha):
    """Symmetric set {+-e_0, ..., +-e_r} in Z^r where (e_1,...,e_r) is an
    independent family with e_1 + ... + e_r = alpha * e_0.  Coordinates:
    e_0..e_{r-1} are the standard basis and e_r = alpha*e_0 - e_1 - ... -
    e_{r-1}, which keeps everything integral for every alpha."""
    if r < 1 or alpha < 1 or r + alpha <= 2:
        raise ArgumentError("need r, alpha >= 1 with r + alpha > 2")
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
    half = [g.coords for g in _thm74_basis(GroupSpec(r), r, alpha)]
    return _symmetric("thm74", {"r": r, "alpha": alpha}, half, False, expected)


def _cube(r, include_zero=True):
    if r < 1:
        raise ArgumentError("need r >= 1")
    expected = {
        "davenport_lower_bound": fibonacci(r + 2),
        "delta_star_superset": frozenset(range(1, max(2 * r - 3, 0) + 1)),
        "components": 1,
    }
    half = list(product((0, 1), repeat=r))[1:]  # the nonzero 0/1 vectors
    return _symmetric("cube", {"r": r, "include_zero": include_zero}, half, include_zero, expected)


def _full_box(q):
    if q < 1:
        raise ArgumentError("need q >= 1")
    spec = GroupSpec(q)
    elements = [spec.element_from_coords(c) for c in product((-1, 0, 1), repeat=q)]
    return Preset("full_box", {"q": q}, Alphabet(spec, elements))


# The half of each split block in its two coordinates: e1, e2, e1 + e2 for
# split1, and e1, e2, 2e2, e1 + 2e2 for split2.
_SPLIT = {1: ((1, 0), (0, 1), (1, 1)), 2: ((1, 0), (0, 1), (0, 2), (1, 2))}

# The fixed alphabets ±half: (half, with 0, expected).
_FIXED = {
    "five_point": (((1,), (2,)), True, {"length_family": "C3", "davenport": 3, "delta": frozenset((1,))}),
    "four_point": (((1,), (2,)), False, {"divisor_theory": True}),
    "prop713": (_SPLIT[2], True, {"length_family": "C4"}),
    "frt_t:1": (((1,),), True, {"delta": frozenset()}),
    "frt_t:2": (_SPLIT[1], False, {"davenport": 3, "delta": frozenset((1,))}),
}


def _split(kind, q):
    if q < 1:
        raise ArgumentError("need q >= 1")
    half = [(0, 0) * k + c + (0, 0) * (q - 1 - k) for k in range(q) for c in _SPLIT[kind]]
    return _symmetric("split%d" % kind, {"q": q}, half, False, {"components": q})


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
    if spl not in (1, 2):
        raise ArgumentError("spl must be 1 or 2")
    return _symmetric("frt_t", {"spl": spl}, *_FIXED["frt_t:%d" % spl])


# E6, E7 and E8: (torsion of the class group, primes per class in key order,
# expected).
_E_TYPES = {
    "E6": ((3,), (3, 2, 2), {}),
    "E7": ((2,), (5, 3), {"atom_count": 11}),
    "E8": ((), (9,), {"atom_count": 9}),
}


def _hypersurface(kind, n=0):
    """The class group and the number of primes in each class of the
    hypersurface type A_n, D_n, E6, E7 or E8."""
    kind = kind.upper()
    if kind in _E_TYPES:
        if n:
            raise ArgumentError("hypersurface type %s takes no n" % kind)
        torsion, primes, expected = _E_TYPES[kind]
    elif kind == "A":
        if n < 1:
            raise ArgumentError("A_n needs n >= 1")
        torsion, primes, expected = (n + 1,), (1,) * (n + 1), {}
    elif kind == "D" and n % 2 == 0:
        if n < 4:
            raise ArgumentError("D_n needs n >= 4")
        torsion, primes = (2, 2), (n // 2, 1, 1, (n - 2) // 2)
        expected = {"claimed_atom_count": (n * n + 8) // 4}
    elif kind == "D":
        if n < 5:
            raise ArgumentError("odd D_n needs n >= 5")
        torsion, primes, expected = (4,), ((n - 1) // 2, 1) * 2, {}
    else:
        raise ArgumentError("unknown hypersurface type %r" % kind)
    spec = GroupSpec(0, torsion)
    classes = [spec.element(torsion=t) for t in product(*map(range, torsion))]
    char = Characteristic(spec, zip(classes, primes, strict=True))
    return Preset("hypersurface", {"type": kind, "n": n}, char.support_alphabet(), char, dict(expected))


# family -> (builder, parameter names in token order, number of required
# arguments).
_FAMILIES = {
    "thm74": (_thm74, ("r", "alpha"), 2),
    "cube": (_cube, ("r", "include_zero"), 1),
    "full_box": (_full_box, ("q",), 1),
    "five_point": (lambda: _symmetric("five_point", {}, *_FIXED["five_point"]), (), 0),
    "four_point": (lambda: _symmetric("four_point", {}, *_FIXED["four_point"]), (), 0),
    "prop713": (lambda: _symmetric("prop713", {}, *_FIXED["prop713"]), (), 0),
    "split1": (lambda q: _split(1, q), ("q",), 1),
    "split2": (lambda q: _split(2, q), ("q",), 1),
    "cyclic": (_cyclic, ("n",), 1),
    "frt_t": (_frt_t, ("spl",), 1),
    "hypersurface": (_hypersurface, ("kind", "n"), 1),
}

# How a token argument is read, by parameter: (parse, what it accepts).
# Every parameter not listed is an integer.
_TOKEN_ARGS = {
    "include_zero": ({"0": False, "1": True, "false": False, "true": True}.__getitem__, "0, 1, false or true"),
    "kind": (str, None),
}


def preset_families():
    return sorted(_FAMILIES)


def build_preset(family, *args, **kwargs):
    if family not in _FAMILIES:
        raise ArgumentError("unknown preset family %r" % family)
    return _FAMILIES[family][0](*args, **kwargs)


def parse_preset(token):
    """Parse 'family' or 'family:a,b' tokens (e.g. 'cyclic:5', 'thm74:2,1',
    'cube:2,false', 'hypersurface:D,16').  Token arguments bind to the
    family's parameters by position.  A missing, extra or malformed
    argument is an ArgumentError."""
    name, colon, argstr = token.partition(":")
    if name not in _FAMILIES:
        raise ArgumentError("unknown preset family %r" % name)
    fn, params, required = _FAMILIES[name]
    raws = argstr.split(",") if colon else []
    if not required <= len(raws) <= len(params):
        form = ",".join(params[:required])
        if required < len(params):
            form += "[,%s]" % ",".join(params[required:])
        raise ArgumentError("preset %r: the form is %s" % (token, name + ":" + form if form else name))
    kwargs = {}
    for param, raw in zip(params, raws):
        parse, accepts = _TOKEN_ARGS.get(param, (int, "an integer"))
        try:
            kwargs[param] = parse(raw.strip())
        except (KeyError, ValueError):
            raise ArgumentError(
                "preset %r: %s must be %s, not %r" % (token, param, accepts, raw)
            ) from None
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
    rows = list(zip(*_zero_sum_columns(target.spec, generators)))
    return _integer_point(rows, list(target.free) + list(target.torsion)) is not None


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


# The built-in alphabet maps: name -> (source preset, target preset, {source
# coordinates: target coordinates}).  The source alphabet is the elements of
# the source preset that the table maps.
_MAPS = {
    "prop712": ("five_point", "cyclic:3", {(0,): (0,), (1,): (1,), (-2,): (1,), (-1,): (2,), (2,): (2,)}),
    "prop713": ("prop713", "cyclic:4", {
        (0, 0): (0,), (1, 0): (1,), (0, 1): (1,), (-1, -2): (1,), (-1, 0): (3,),
        (0, -1): (3,), (1, 2): (3,), (0, 2): (2,), (0, -2): (2,),
    }),
    "collapse": ("frt_t:1", "hypersurface:E8", {(1,): (), (-1,): ()}),
}


def builtin_map(name):
    """The named built-in alphabet maps.

    ``prop712`` (five_point onto C3) and ``prop713`` (prop713 onto C4) are
    the candidate maps of an external claim that they are transfer maps;
    ``check_transfer`` refutes both by divisor lifting (T2) on every window
    of size >= 6.  ``collapse`` ({1, -1} in Z onto the trivial group) is a
    negative control that fails surjectivity.
    """
    if name not in _MAPS:
        raise DomainError("unknown built-in map %r" % name)
    source, target, coords = _MAPS[name]
    source, target = parse_preset(source).alphabet, parse_preset(target).alphabet
    images = {source.spec.element_from_coords(a): target.spec.element_from_coords(b) for a, b in coords.items()}
    return TransferMap(Alphabet(source.spec, [g for g in source if g in images]), target, images)


def check_cofinal(atomset):
    """True iff every alphabet element occurs in some atom (equivalently no
    proper subset supports every block)."""
    used = {i for v in atomset.vectors for i, m in enumerate(v) if m}
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

    for v in atomset.vectors:
        supp = [i for i, m in enumerate(v) if m]
        for i in supp[1:]:
            parent[find(supp[0])] = find(i)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    parts = sorted(tuple(sorted(g)) for g in groups.values())
    return tuple(
        tuple(atomset.alphabet.elements[i] for i in part) for part in parts
    )
