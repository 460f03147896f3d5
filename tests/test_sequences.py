"""Sequences over an alphabet: multiset algebra, parsing, serialization."""

import pytest
from hypothesis import given, strategies as st

from krull_arith import Alphabet, GroupSpec, Sequence, parse_sequence
from krull_arith.errors import AlphabetError, ArgumentError, ShapeError

from conftest import cyclic_alphabet, int_alphabet


def test_alphabet_orders_and_deduplicates():
    a = int_alphabet(2, -1, 1)
    assert [g.coords for g in a.elements] == [(-1,), (1,), (2,)]
    with pytest.raises(AlphabetError):
        int_alphabet(1, 1)


def test_alphabet_lookup():
    a = int_alphabet(-1, 0, 1)
    spec = a.spec
    assert a.index(spec.element(free=(1,))) == 2
    with pytest.raises(AlphabetError):
        a.index(spec.element(free=(5,)))


def test_negation_table_and_symmetry():
    assert int_alphabet(-2, -1, 1, 2).is_symmetric()
    assert not int_alphabet(1, 2).is_symmetric()
    assert int_alphabet(1, 2).negation_table() is None


def test_sequence_basics():
    a = cyclic_alphabet(4)
    g = a.spec.element(torsion=(1,))
    s = a.sequence([(g, 2), (2 * g, 1)])
    assert s.length == 3
    assert s.multiplicity(g) == 2
    assert s.sigma() == 0 * g
    assert s.is_zero_sum()
    assert s.support_elements() == (g, 2 * g)
    assert not a.empty().support()


def test_sequence_algebra():
    a = int_alphabet(-1, 1)
    spec = a.spec
    e = spec.element(free=(1,))
    s = a.sequence([(e, 3), (-e, 1)])
    t = a.sequence([(e, 1), (-e, 1)])
    assert (s * t).mults == (2, 4)
    assert (t**3).mults == (3, 3)
    assert t.divides(s)
    assert not s.divides(t)
    assert (s // t).mults == (0, 2)
    with pytest.raises(ValueError):
        t // s
    assert s.gcd(t) == t
    assert s.negate().mults == (3, 1)


def test_sequence_validation():
    a = int_alphabet(-1, 1)
    with pytest.raises(ShapeError):
        Sequence(a, (1, 2, 3))
    with pytest.raises(ValueError):
        Sequence(a, (-1, 0))
    b = int_alphabet(1, 2)
    with pytest.raises(ShapeError):
        a.empty() * b.empty()
    with pytest.raises(AlphabetError):
        b.sequence([(b.spec.element(free=(1,)), 1)]).negate()


def test_str_and_parse():
    a = int_alphabet(-1, 1)
    e = a.spec.element(free=(1,))
    s = a.sequence([(e, 2), (-e, 1)])
    assert str(s) == "-1 * 1^2"
    assert parse_sequence(a, str(s)) == s
    # "1" names the element here, so the empty product renders as "()".
    assert parse_sequence(a, "1") == a.sequence([(e, 1)])
    assert str(a.empty()) == "()"
    assert parse_sequence(a, "()") == a.empty()
    b = int_alphabet(-2, 2)
    assert str(b.empty()) == "1"
    assert parse_sequence(b, "1") == b.empty()
    with pytest.raises(ValueError):
        parse_sequence(a, "nonsense")


def test_parse_tuple_elements():
    spec = GroupSpec(2)
    a = Alphabet(spec, [spec.element_from_coords(c) for c in [(1, 0), (-1, -2)]])
    s = parse_sequence(a, "(1,0)^3 * (-1,-2)")
    assert s.length == 4
    assert str(s) == "(-1,-2) * (1,0)^3"


def test_parse_malformed_terms_and_the_trivial_group():
    spec = GroupSpec(2)
    a = Alphabet(spec, [spec.element_from_coords(c) for c in [(1, 0), (-1, 0)]])
    assert parse_sequence(a, "( 1 , 0 )^2 * (-1,0)") == parse_sequence(a, "(-1,0) * (1,0)^2")
    for text in ["(a)", "(1,)", "(,)", "1^-2", "x"]:
        with pytest.raises(ArgumentError):
            parse_sequence(a, text)
    trivial = GroupSpec(0, ())
    b = Alphabet(trivial, [trivial.zero()])
    s = b.sequence([(trivial.zero(), 2)])
    assert str(s) == "()^2" and parse_sequence(b, str(s)) == s


def test_json_round_trip():
    a = int_alphabet(-2, 0, 2)
    assert Alphabet.from_json(a.to_json()) == a
    s = a.sequence([(a.spec.element(free=(2,)), 4)])
    assert a.from_mults(s.to_json()) == s


mults = st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))


@given(mults)
def test_parse_round_trips(m):
    a = int_alphabet(-1, 1, 3)
    s = Sequence(a, m)
    assert parse_sequence(a, str(s)) == s


@given(mults, mults)
def test_gcd_divides_both(m1, m2):
    a = int_alphabet(-1, 1, 3)
    s, t = Sequence(a, m1), Sequence(a, m2)
    g = s.gcd(t)
    assert g.divides(s) and g.divides(t)


@given(mults, mults)
def test_product_quotient_cancel(m1, m2):
    a = int_alphabet(-1, 1, 3)
    s, t = Sequence(a, m1), Sequence(a, m2)
    assert (s * t) // t == s
    assert (s * t).sigma() == s.sigma() + t.sigma()
