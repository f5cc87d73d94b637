"""The exact polynomial type: ring laws against Fraction arithmetic at
rational points, pruning of zero terms, and equality with numbers."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korbit.poly import Poly

RATIONALS = st.fractions(-5, 5, max_denominator=7)
MONOMIALS = st.lists(st.integers(0, 2), max_size=3).map(lambda m: tuple(sorted(m)))
POLYS = st.dictionaries(MONOMIALS, RATIONALS, max_size=4).map(Poly)
#: Polys and the plain numbers they mix with on either side.
OPERANDS = st.one_of(POLYS, st.integers(-5, 5), RATIONALS)
POINTS = st.tuples(RATIONALS, RATIONALS, RATIONALS)


def _value(x, point):
    return x(point) if isinstance(x, Poly) else x


@settings(max_examples=200, deadline=None)
@given(a=OPERANDS, b=OPERANDS, point=POINTS)
def test_ring_laws_hold_at_rational_points(a, b, point):
    if not isinstance(a, Poly) and not isinstance(b, Poly):
        a = Poly() + a
    x, y = _value(a, point), _value(b, point)
    assert (a + b)(point) == x + y
    assert (a - b)(point) == x - y
    assert (a * b)(point) == x * y
    for p in (a, b):
        if isinstance(p, Poly):
            assert (-p)(point) == -_value(p, point)


def test_variables_and_constants():
    x, y = Poly.variable(0), Poly.variable(1)
    p = (1 + x) * (y - Fraction(1, 2))
    assert p((Fraction(2), Fraction(3))) == Fraction(15, 2)
    assert p.terms == {(): Fraction(-1, 2), (0,): Fraction(-1, 2), (1,): 1, (0, 1): 1}
    assert 2 * x * x == x * 2 * x and (x * x).terms == {(0, 0): 1}
    assert Poly() + 3 == 3 and Fraction(3) == Poly() + 3
    assert x != 0 and x != y and x == Poly.variable(0)


def test_zero_terms_are_pruned():
    x = Poly.variable(0)
    for zero in (x - x, x * 0, Poly({(0,): 0, (): Fraction(0)}), (1 + x) - 1 - x):
        assert not zero
        assert zero == 0 and zero.terms == {}
    assert Poly()(()) == 0


def test_poly_is_unhashable():
    with pytest.raises(TypeError):
        hash(Poly.variable(0))


def test_floats_do_not_mix():
    with pytest.raises(TypeError):
        Poly.variable(0) + 0.5


def test_degree_is_the_longest_monomial():
    x, y = Poly.variable(0), Poly.variable(1)
    assert Poly().degree == 0
    assert (Poly() + 3).degree == 0
    assert (2 + x).degree == 1
    assert (x * x * y - y + 1).degree == 3
    assert (x * y - y * x).degree == 0


@settings(max_examples=100, deadline=None)
@given(a=POLYS, b=POLYS)
def test_degree_of_a_product_adds(a, b):
    if a and b:
        assert (a * b).degree == a.degree + b.degree
