"""Catalog of the sixteen seven-dimensional solvable families.

Every family extends the same five-dimensional nilradical, whose only
nonzero brackets are [e1, e2] = e4 and [e1, e3] = e5, by two commuting
derivations (up to a central correction in one family).  derivation_pair
records how the two extra generators act on the nilradical, row j giving
the image of nilradical generator j.  record holds the other per-family
facts that several modules read, and the module-level tables are views of
those records.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Callable

from .liecore import LieAlgebra7, ParameterError, UnsupportedFamilyError


@dataclass(frozen=True)
class FamilyRecord:
    """The catalog facts about one family that the other modules read.

    ``clauses`` pairs the text of each parameter constraint with the
    predicate, taking the parameters as arguments, that it states; the
    listing joins the texts and validate_params quotes the violated one.
    ``manifold`` names the foliated manifold (V1, V2 or V3), which
    topology maps to its enum.  ``cataloged`` says whether the family has
    a closed-form rank-six predicate and a generating field system.
    ``swapped`` says whether the printed field system lists the second
    derivation of derivation_pair before the first.
    """

    param_names: tuple[str, ...] = ()
    clauses: tuple[tuple[str, Callable[..., bool]], ...] = ()
    representative: tuple[Fraction, ...] = ()
    grid: tuple[tuple[Fraction, ...], ...] = ((),)
    manifold: str = "V1"
    exponential: bool = True
    cataloged: bool = True
    swapped: bool = False

    @property
    def arity(self) -> int:
        return len(self.param_names)

    @property
    def constraint(self) -> str:
        """The listing text of the parameter constraints."""
        return "; ".join(text for text, _ in self.clauses)


_ZERO, _HALF, _ONE, _TWO = Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)
_SCALE = (_ZERO, _HALF, _ONE, _TWO)
_LINE = tuple((s,) for s in _SCALE)
_PLANE = tuple((l1, l2) for l1 in _SCALE for l2 in _SCALE)
#: G4's grid drops the catalog violations and the rank-degenerate diagonal.
_G4_GRID = tuple((l1, l2) for l1, l2 in _PLANE if l2 != l1 + 1 and l1 != l2)
_L = ("λ",)
_L12 = ("λ1", "λ2")
_REAL = (("λ ∈ R", lambda lam: True),)
_NONNEGATIVE = (("λ ≥ 0", lambda lam: lam >= 0),)

_RECORDS: dict[str, FamilyRecord] = {
    "G1": FamilyRecord(_L, _REAL, (_ONE,), ((_ZERO,), (_ONE,)), swapped=True),
    "G2": FamilyRecord(cataloged=False),
    "G3": FamilyRecord(cataloged=False),
    "G4": FamilyRecord(
        _L12,
        (
            ("(λ1,λ2) ≠ (−1,0)", lambda l1, l2: (l1, l2) != (-1, 0)),
            ("λ2 ≠ λ1 + 1", lambda l1, l2: l2 != l1 + 1),
        ),
        (_ZERO, _TWO),
        _G4_GRID,
    ),
    "G5": FamilyRecord(),
    "G6": FamilyRecord(_L, _REAL, (_HALF,), _LINE, swapped=True),
    "G7": FamilyRecord(),
    "G8": FamilyRecord(_L, _REAL, (_HALF,), _LINE),
    "G9": FamilyRecord(cataloged=False),
    "G10": FamilyRecord(_L, _REAL, (_HALF,), _LINE, cataloged=False),
    "G11": FamilyRecord(),
    "G12": FamilyRecord(
        _L, (("λ ∈ R \\ {−1}", lambda lam: lam != -1),), (_HALF,), _LINE, manifold="V2"
    ),
    "G13": FamilyRecord(_L, _NONNEGATIVE, (_HALF,), _LINE, manifold="V3", exponential=False),
    "G14": FamilyRecord(
        _L12,
        (("λ1 ≠ −1", lambda l1, l2: l1 != -1), ("λ2 ≥ 0", lambda l1, l2: l2 >= 0)),
        (_HALF, _ONE),
        _PLANE,
        manifold="V3",
        exponential=False,
    ),
    "G15": FamilyRecord(manifold="V3", exponential=False),
    "G16": FamilyRecord(_L, _NONNEGATIVE, (_HALF,), _LINE, manifold="V3", exponential=False),
}

FAMILIES: tuple[str, ...] = tuple(_RECORDS)

PARAM_ARITY: dict[str, int] = {name: r.arity for name, r in _RECORDS.items()}

PARAM_NAMES: dict[str, tuple[str, ...]] = {
    name: r.param_names for name, r in _RECORDS.items() if r.param_names
}

#: Families with a cataloged rank-six predicate and generating field system.
CATALOGED_FAMILIES: frozenset[str] = frozenset(
    name for name, r in _RECORDS.items() if r.cataloged
)


def record(family: str) -> FamilyRecord:
    """The catalog record of a family."""
    try:
        return _RECORDS[family]
    except KeyError:
        raise UnsupportedFamilyError(f"unknown family {family!r}") from None


def validate_params(family: str, params: tuple[Real, ...]) -> None:
    """Raise ParameterError naming the violated catalog condition."""
    fam = record(family)
    if len(params) != fam.arity:
        raise ParameterError(f"{family} takes {fam.arity} parameter(s), got {len(params)}")
    for text, holds in fam.clauses:
        if not holds(*params):
            raise ParameterError(f"{family} requires {text}")


def _zeros5() -> list[list[Real]]:
    return [[0] * 5 for _ in range(5)]


def _diag(*vals: Real) -> list[list[Real]]:
    m = _zeros5()
    for i, v in enumerate(vals):
        m[i][i] = v
    return m


def _put(m: list[list[Real]], row: int, col: int, val: Real) -> list[list[Real]]:
    m[row - 1][col - 1] = m[row - 1][col - 1] + val
    return m


def _rotation_block(m: list[list[Real]], row: int, a: Real, b: Real) -> list[list[Real]]:
    """Install the 2x2 block [[a, b], [-b, a]] at rows (row, row + 1)."""
    i = row - 1
    m[i][i] = a
    m[i][i + 1] = b
    m[i + 1][i] = -b
    m[i + 1][i + 1] = a
    return m


def derivation_pair(family: str, params: tuple[Real, ...]):
    """Actions of the two extra generators on the nilradical.

    Returns (a, b, central) where a[j][k] is the e_{k+1} coefficient of
    the first generator acting on e_{j+1}, b is the same for the second
    generator, and ``central`` lists the coordinates of their bracket.
    """
    validate_params(family, params)
    central: list[Real] = [0] * 5
    if family == "G1":
        (lam,) = params
        a = _diag(1, -1, 0, 0, 1)
        b = _diag(0, 0, 1, 0, 1)
        central[3] = lam
    elif family == "G2":
        a = _diag(1, 0, 0, 1, 1)
        b = _diag(0, 0, 1, 0, 1)
    elif family == "G3":
        a = _diag(0, 1, 0, 1, 0)
        b = _diag(0, 0, 1, 0, 1)
    elif family == "G4":
        l1, l2 = params
        a = _diag(1, 0, l1, 1, 1 + l1)
        b = _diag(0, 1, l2, 1, l2)
    elif family == "G5":
        a = _diag(0, 0, 1, 0, 1)
        b = _put(_diag(1, 1, 0, 2, 1), 1, 2, 1)
    elif family == "G6":
        (lam,) = params
        a = _diag(1, 1, lam, 2, 1 + lam)
        b = _put(_diag(0, 0, 1, 0, 1), 1, 2, 1)
    elif family == "G7":
        a = _diag(0, 1, 1, 1, 1)
        b = _put(_diag(1, 1, 0, 2, 1), 2, 5, 1)
    elif family == "G8":
        (lam,) = params
        a = _diag(1, 1 + lam, lam, 2 + lam, 1 + lam)
        b = _put(_diag(0, 1, 1, 1, 1), 2, 5, 1)
    elif family == "G9":
        a = _diag(0, 0, 1, 0, 1)
        b = _put(_diag(0, 1, 0, 1, 0), 3, 5, 1)
    elif family == "G10":
        (lam,) = params
        a = _diag(0, 1, lam, 1, lam)
        b = _put(_diag(0, 0, 1, 0, 1), 3, 5, 1)
    elif family == "G11":
        a = _diag(0, 1, 1, 1, 1)
        b = _put(_put(_diag(1, 0, 0, 1, 1), 2, 3, 1), 4, 5, 1)
    elif family == "G12":
        (lam,) = params
        a = _diag(1, lam, lam, 1 + lam, 1 + lam)
        b = _put(_put(_diag(0, 1, 1, 1, 1), 2, 3, 1), 4, 5, 1)
    elif family == "G13":
        (lam,) = params
        a = _diag(0, 1, 1, 1, 1)
        b = _rotation_block(_rotation_block(_diag(lam, 0, 0, 0, 0), 2, 0, 1), 4, lam, 1)
    elif family == "G14":
        l1, l2 = params
        a = _diag(1, l1, l1, 1 + l1, 1 + l1)
        b = _rotation_block(_rotation_block(_zeros5(), 2, l2, 1), 4, l2, 1)
    elif family == "G15":
        a = _rotation_block(_rotation_block(_zeros5(), 2, 0, 1), 4, 0, 1)
        b = _put(_put(_diag(0, 1, 1, 1, 1), 2, 5, 1), 3, 4, -1)
    else:  # G16
        (lam,) = params
        a = _put(_rotation_block(_rotation_block(_zeros5(), 2, 0, 1), 4, 0, 1), 2, 5, 1)
        b = _put(_put(_diag(0, 1, 1, 1, 1), 2, 5, lam), 3, 4, -lam)
    return a, b, central


def build(family: str, params: tuple[Real, ...] = ()) -> LieAlgebra7:
    """Assemble the Lie algebra of a catalog family.

    Pass fractions as parameters to keep the structure constants exact;
    floats are carried through unchanged.
    """
    params = tuple(params)
    a, b, central = derivation_pair(family, params)
    brackets: dict[tuple[int, int], dict[int, Real]] = {
        (0, 1): {3: 1},
        (0, 2): {4: 1},
    }
    for row in range(5):
        img_a = {k: a[row][k] for k in range(5) if a[row][k] != 0}
        img_b = {k: b[row][k] for k in range(5) if b[row][k] != 0}
        if img_a:
            brackets[(row, 5)] = {k: -v for k, v in img_a.items()}
        if img_b:
            brackets[(row, 6)] = {k: -v for k, v in img_b.items()}
    img_c = {k: central[k] for k in range(5) if central[k] != 0}
    if img_c:
        brackets[(5, 6)] = img_c
    return LieAlgebra7(family=family, params=params, brackets=brackets)


def default_parameter_grid(family: str) -> tuple[tuple[Fraction, ...], ...]:
    """Exact parameter tuples used by the verification campaigns."""
    return record(family).grid


def grid_algebras(family: str) -> tuple[LieAlgebra7, ...]:
    """Algebras for every default parameter choice of a family."""
    return tuple(build(family, p) for p in default_parameter_grid(family))
