"""Exact polynomials with rational coefficients in numbered variables.

A Poly maps each monomial to its nonzero coefficient, an int or a
Fraction (integers stay ints, whose arithmetic is several times faster
than Fraction's); a monomial is the sorted tuple of its variables'
indices, one index per power, so x0²·x1 is (0, 0, 1) and the constant
term is ().  Arithmetic mixes Polys with ints and Fractions on either
side, which lets exact code built for numbers
(catalog.build, liecore._jacobiator) run on symbolic parameters.
"""
from __future__ import annotations

import math
from fractions import Fraction


class Poly:
    """A polynomial with exact rational coefficients."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms: dict[tuple[int, ...], int | Fraction] | None = None):
        self.terms = {
            m: c if type(c) is int else Fraction(c) for m, c in (terms or {}).items() if c
        }

    @classmethod
    def variable(cls, i: int) -> Poly:
        """The polynomial x_i."""
        return cls({(i,): 1})

    @property
    def degree(self) -> int:
        """Total degree; 0 for a constant, the zero polynomial included."""
        return max(map(len, self.terms), default=0)

    @staticmethod
    def _lift(x) -> Poly | None:
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return Poly({(): x})
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms: dict[tuple[int, ...], Fraction] = {}
        for m, c in self.terms.items():
            for n, d in other.terms.items():
                key = tuple(sorted(m + n))
                terms[key] = terms.get(key, 0) + c * d
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __call__(self, point: tuple[Fraction, ...]) -> Fraction:
        """The exact value at a rational point, x_i taking point[i]."""
        return Fraction(sum(c * math.prod(point[i] for i in m) for m, c in self.terms.items()))
