"""Generating vector fields of the orbit foliations and orbit invariants.

Each family whose catalog record lists a generating system carries six
affine vector fields on orbit space whose span at every point of the
foliated manifold equals the tangent space of the orbit through that
point.  Three of the fields are coordinate translations and one is a fixed
shear; the other two are derived, not transcribed: they are the family's
two derivations from catalog.derivation_pair acting on the second through
fifth coordinates, in the order the catalog record gives.  The module also
evaluates the closed-form flows printed for three representative families
and the scalar invariant that labels the leaves of each foliation.

The two foliation checks decide most points without an SVD.  The Pfaffian
vector p of the pairing matrix K (ker K = span p, in the closed form that
the g5,2 nilradical gives it in liecore._certify, the certificate of
liecore.kirillov_rank) and the normal n of the six field values, the 4-D
cross product of the three non-translation fields on coordinates 2..5,
bound the singular-value ratios that numeric ranks compare with their
tolerance, by Weyl's bound and interlacing (Golub & Van Loan, *Matrix
Computations*, section 8.6): distribution_decision certifies the three
ranks from them, and involutivity_decision measures each bracket along n.
Only the points the bounds cannot decide reach the SVD, so the verdicts
equal the SVD verdicts point by point.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from . import catalog, topology
from .catalog import ClosedForm
from .liecore import (
    DIM,
    PAIRING_TOL_FLOOR,
    DomainError,
    LieAlgebra7,
    _certify,
    kirillov_rank,
    numeric_rank,
)

#: Families with a cataloged generating system of vector fields.
SYSTEM_FAMILIES: frozenset[str] = catalog.families_with(ClosedForm.FIELDS)


@dataclass(frozen=True, eq=False)
class LinearVectorField:
    """Affine vector field v ↦ linear · v + const on orbit space."""

    linear: np.ndarray
    const: np.ndarray

    def __post_init__(self) -> None:
        linear = np.asarray(self.linear, dtype=float)
        const = np.asarray(self.const, dtype=float)
        linear.setflags(write=False)
        const.setflags(write=False)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "const", const)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.einsum("ij,...j->...i", self.linear, v) + self.const

    def bracket(self, other: LinearVectorField) -> LinearVectorField:
        """Lie bracket of two affine fields, again an affine field."""
        a, b = self.linear, self.const
        c, d = other.linear, other.const
        return LinearVectorField(c @ a - a @ c, c @ b - a @ d)


def _constant_field(index: int) -> LinearVectorField:
    const = np.zeros(DIM)
    const[index] = 1.0
    return LinearVectorField(np.zeros((DIM, DIM)), const)


def _derivation_field(derivation: list[list[Real]]) -> LinearVectorField:
    linear = np.zeros((DIM, DIM))
    linear[1:5, 1:5] = np.asarray(derivation, dtype=float)[1:5, 1:5]
    return LinearVectorField(linear, np.zeros(DIM))


def system_fields(family: str, params: tuple[Real, ...] = ()) -> tuple[LinearVectorField, ...]:
    """The six generating fields of the family's orbit foliation.

    Fields one, five, and six translate the first, sixth, and seventh
    coordinates; field four shears the second and third by the fourth and
    fifth; fields two and three are the family's two derivations from
    catalog.derivation_pair, restricted to coordinates two through five,
    in the order of the catalog record.
    """
    a, b, _ = catalog.derivation_pair(family, tuple(params))
    catalog.require(family, ClosedForm.FIELDS)
    m2, m3 = (b, a) if catalog.record(family).swapped else (a, b)
    shear = np.zeros((DIM, DIM))
    shear[1, 3] = 1.0
    shear[2, 4] = 1.0
    return (
        _constant_field(0),
        _derivation_field(m2),
        _derivation_field(m3),
        LinearVectorField(shear, np.zeros(DIM)),
        _constant_field(5),
        _constant_field(6),
    )


def field_values(fields: Sequence[LinearVectorField], v: np.ndarray) -> np.ndarray:
    """Values of the fields at points v, stacked on axis -2.

    The fields' linear parts are stacked into one (m*7, 7) matrix, so a
    batch of points takes one matrix product.
    """
    v = np.asarray(v, dtype=float)
    linear = np.concatenate([f.linear for f in fields])
    const = np.stack([f.const for f in fields])
    flat = v.reshape(-1, DIM) @ linear.T
    return flat.reshape(v.shape[:-1] + const.shape) + const


def flow_closed(
    family: str,
    params: tuple[Real, ...],
    field_index: int,
    t: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Closed-form flow of one generating field, for the three families
    whose flows are cataloged.

    ``field_index`` is one-based, matching the order of system_fields.
    Broadcasts over leading axes of ``t`` and ``v``.
    """
    catalog.require(family, ClosedForm.FLOWS)
    catalog.validate_params(family, tuple(params))
    if field_index not in range(1, 7):
        raise ValueError("field_index must be between 1 and 6")
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.array(np.broadcast_to(v, np.broadcast_shapes(t.shape + (1,), v.shape)), copy=True)
    t = np.broadcast_to(t, out.shape[:-1])
    if field_index in (1, 5, 6):
        out[..., {1: 0, 5: 5, 6: 6}[field_index]] += t
        return out
    x2, x3, x4, x5 = (np.array(out[..., i], copy=True) for i in range(1, 5))
    if field_index == 4:
        out[..., 1] = x2 + x4 * t
        out[..., 2] = x3 + x5 * t
        return out
    if family == "G4":
        l1, l2 = (float(p) for p in params)
        if field_index == 2:
            out[..., 2] = x3 * np.exp(l1 * t)
            out[..., 3] = x4 * np.exp(t)
            out[..., 4] = x5 * np.exp((1 + l1) * t)
        else:
            out[..., 1] = x2 * np.exp(t)
            out[..., 2] = x3 * np.exp(l2 * t)
            out[..., 3] = x4 * np.exp(t)
            out[..., 4] = x5 * np.exp(l2 * t)
        return out
    if family == "G12":
        (lam,) = (float(p) for p in params)
        if field_index == 2:
            grow = np.exp(lam * t)
            out[..., 1] = x2 * grow
            out[..., 2] = x3 * grow
            out[..., 3] = x4 * np.exp((lam + 1) * t)
            out[..., 4] = x5 * np.exp((lam + 1) * t)
        else:
            grow = np.exp(t)
            out[..., 1] = (x2 + x3 * t) * grow
            out[..., 2] = x3 * grow
            out[..., 3] = (x4 + x5 * t) * grow
            out[..., 4] = x5 * grow
        return out
    (lam,) = (float(p) for p in params)
    if field_index == 2:
        grow = np.exp(t)
        for i, col in enumerate((x2, x3, x4, x5)):
            out[..., 1 + i] = col * grow
        return out
    cos, sin = np.cos(t), np.sin(t)
    spiral = np.exp(lam * t)
    out[..., 1] = x2 * cos + x3 * sin
    out[..., 2] = -x2 * sin + x3 * cos
    out[..., 3] = (x4 * cos + x5 * sin) * spiral
    out[..., 4] = (-x4 * sin + x5 * cos) * spiral
    return out


def flow_numeric(
    field: LinearVectorField,
    t: np.ndarray,
    v: np.ndarray,
    steps: int = 1000,
) -> np.ndarray:
    """Classical fourth-order Runge-Kutta flow of an affine field.

    Broadcasts over leading axes of ``t`` and ``v``; the step count applies
    to every sample, so the global error scales as (t/steps)^4.

    For y' = Ay + b, write the field as the 8×8 augmented matrix
    M = [[A, b], [0, 0]] acting on (y, 1) (Van Loan 1978, IEEE TAC 23(3)).
    One RK4 step of size h is then exactly multiplication by the method's
    stability polynomial R(hM) = I + hM + (hM)²/2 + (hM)³/6 + (hM)⁴/24
    (Hairer, Nørsett and Wanner, *Solving ODEs I*), here in Horner form,
    and ``steps`` steps are R(hM)^steps, formed by binary powering in at
    most 2·log₂(steps) batched matrix products.  This is the truncated RK4
    map, not exp(tM): the flow check stays independent of ``exp_matrix``,
    whose own accuracy is checked against the golden exponential table.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    hm = np.zeros(t.shape + (DIM + 1, DIM + 1))
    hm[..., :DIM, :DIM] = field.linear
    hm[..., :DIM, DIM] = field.const
    hm *= (t / steps)[..., None, None]
    eye = np.eye(DIM + 1)
    step = eye + hm / 4.0
    for k in (3.0, 2.0, 1.0):
        step = eye + (hm @ step) / k
    power = np.linalg.matrix_power(step, steps)
    return (power[..., :DIM, :DIM] @ v[..., None])[..., 0] + power[..., :DIM, DIM]


def invariant(family: str, params: tuple[Real, ...], v: np.ndarray) -> np.ndarray:
    """Scalar leaf label, constant along every generic orbit of the family.

    Raises DomainError off the family's foliated manifold and
    UnsupportedFamilyError where no closed form is cataloged.  Fractional
    powers act on absolute values, so every sign component is covered; the
    angle-bearing forms jump across their branch loci, which orbit+-sampling
    campaigns must reject.
    """
    catalog.require(family, ClosedForm.INVARIANT)
    catalog.validate_params(family, tuple(params))
    v = np.asarray(v, dtype=float)
    if not np.all(topology.contains(topology.manifold_of(family), v)):
        raise DomainError(f"point lies outside {topology.manifold_of(family).value}")
    x2, x3, x4, x5 = v[..., 1], v[..., 2], v[..., 3], v[..., 4]
    if family == "G1":
        return np.array(x4, copy=True)
    if family in ("G13", "G14", "G15", "G16"):
        dd = x4 * x4 + x5 * x5
        ratio = (x2 * x5 - x3 * x4) / dd
        angle = topology.ratio_angle(x4, x5)
        if family == "G13":
            (lam,) = (float(p) for p in params)
            return ratio * np.exp(lam * angle)
        if family == "G14":
            l1, l2 = (float(p) for p in params)
            return ratio * dd ** (0.5 / (1 + l1)) * np.exp(-l2 * angle / (1 + l1))
        if family == "G15":
            return ratio - np.log(dd) / 2
        (lam,) = (float(p) for p in params)
        return ratio - lam * np.log(dd) / 2 - angle / 2 - x4 * x5 / (2 * dd)
    q = x2 - x3 * x4 / x5
    if family == "G2":
        return q
    if family == "G4":
        l1, l2 = (float(p) for p in params)
        denom = l2 - l1 - 1.0
        return q * np.abs(x4) ** ((1 + l1) / denom) / np.abs(x5) ** (1.0 / denom)
    if family == "G7":
        return q / x5 + np.log(np.abs(x5 / x4))
    if family == "G8":
        (lam,) = (float(p) for p in params)
        return q / x5 + (1 + lam) * np.log(np.abs(x4)) - (2 + lam) * np.log(np.abs(x5))
    if family == "G11":
        return np.exp(x4 / x5) * q / x5
    (lam,) = (float(p) for p in params)
    return q / (np.abs(x5) ** (lam / (1 + lam)) * np.exp(x4 / ((1 + lam) * x5)))


def _foliated(family: str, v: np.ndarray) -> np.ndarray:
    """v as floats, or DomainError unless every point is finite and on the
    family's foliated manifold (topology.contains tests both)."""
    v = np.asarray(v, dtype=float)
    if not np.all(topology.contains(topology.manifold_of(family), v)):
        raise DomainError("point is not finite or lies outside the foliated manifold")
    return v


#: Index pairs (i, j), i < j, of the fifteen field brackets.
_PAIRS = tuple((i, j) for i in range(DIM - 1) for j in range(i + 1, DIM - 1))

#: Values of fields one, five and six (rows 0, 4 and 5) of every system.
_TRANSLATIONS = np.eye(DIM)[[0, 5, 6]]


def _normal(span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal vector of six field values, with |S|_F^6.

    For a stack of 6x7 matrices S, each divided by its largest entry s so
    that nothing overflows, n_j = (-1)^j det(S without column j), columns
    counted from 0, the expansion of det [S; x] = n . x along its last row.
    n is normal to the rows of S and |n| = s1 s2 ... s6 (Cauchy-Binet), so
    for every unit x

        s6 / s1 >= |n . x| / s1^6 >= |n . x| / |S|_F^6,

    which is scale-free.  Rows one, five and six of S are the translations
    e1, e6 and e7, here 1/s times unit rows; row operations with them clear
    columns 0, 5 and 6 from the other rows, so det [S; x] = s^-3 det [T; x']
    for the values T of fields two to four on coordinates 2..5 (columns 1
    to 4) and x' = x[1:5].  n is therefore s^-3 times the 4-D cross product
    of T's rows a, b, c, four 3x3 determinants, in columns 1 to 4.  Each is
    a sum of 6 products of size at most |a||b||c|, and by AM-GM over the
    six squared row norms of S, three of them 1/s^2,
    s^-3 |a||b||c| <= (|S|_F^2 / 6)^3 = |S|_F^6 / 216, so n is computed to
    a few eps |S|_F^6.  Where the three rows are not exactly e1, e6, e7
    (no catalog system), n is set to 0, which no bound certifies.
    """
    flat = span.reshape(-1, DIM - 1, DIM)
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = 1.0 / np.abs(flat).max(axis=(-2, -1))
        t = flat * inverse[:, None, None]
        normal = np.zeros((len(flat), DIM))
        rows = t[:, 1:4, 1:5]
        for j in range(1, 5):
            minor = np.delete(rows, j - 1, axis=-1)
            triple = np.einsum("ni,ni->n", minor[:, 0], np.cross(minor[:, 1], minor[:, 2]))
            normal[:, j] = (-1) ** j * triple
        normal *= (inverse**3)[:, None]
        frob6 = np.einsum("nij,nij->n", t, t) ** 3
    normal[~np.all(flat[:, [0, 4, 5]] == _TRANSLATIONS, axis=(-2, -1))] = 0.0
    return normal, frob6


def _span_certificate(
    algebra: LieAlgebra7, points: np.ndarray, span: np.ndarray, pairing: np.ndarray, tol: float
) -> np.ndarray:
    """Points where closed-form bounds prove all three ranks of
    distribution_decision to be six at tol; see its docstring."""
    if not tol >= PAIRING_TOL_FLOOR or algebra.pairing_operand is None:
        return np.zeros(len(points), dtype=bool)
    certified, p = _certify(algebra.pairing_operand @ points.T, tol)
    normal, span_frob6 = _normal(span)
    # Uncertified forms and zero rows give NaN, which fails every comparison.
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = (p / np.linalg.norm(p, axis=0)).T
        stacked = np.concatenate([span, pairing], axis=-2)
        stacked /= np.abs(stacked.reshape(-1, (2 * DIM - 1) * DIM)).max(axis=-1)[:, None, None]
        frob = np.sqrt(np.einsum("nij,nij->n", stacked, stacked))
        image = np.linalg.norm(stacked @ unit[..., None], axis=(-2, -1))
    certified &= np.sqrt(DIM) * image <= 0.5 * tol * frob
    certified &= np.abs(np.einsum("nj,nj->n", normal, unit)) > 2.0 * tol * span_frob6
    return certified


def distribution_decision(
    algebra: LieAlgebra7,
    v: np.ndarray,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """distribution_equiv's verdict at each point of v, and whether a
    closed-form certificate decided it without an SVD.

    The verdict is True when the stacked field values S (6x7), the pairing
    matrix K of v (7x7), and their concatenation [S; K] all have numeric
    rank six.  Where tol >= liecore.PAIRING_TOL_FLOOR, three bounds decide
    a point without an SVD, each with a factor-2 margin against tol.  They
    use the Pfaffian vector p of K, with unit vector p^ (ker K = span p),
    and the normal n of S from _normal, det [S; x] = n . x:

    - rank K = 6, certified as liecore.kirillov_rank certifies it, from
      the closed form of p on the g5,2 pattern of the pairing entries of
      v, by 2^(3/2) |p| / |K|_F^3 > 2 tol;
    - rank S = 6: s6(S) / s1(S) >= |det [S; p^]| / |S|_F^6 = |n . p^| /
      |S|_F^6 > 2 tol;
    - rank [S; K] <= 6: s7 <= |[S; K] p^| and s1 >= |[S; K]|_F / sqrt(7),
      so s7 / s1 <= sqrt(7) |[S; K] p^| / |[S; K]|_F <= tol / 2.

    rank [S; K] >= 6 then needs no bound of its own.  Rows added to a
    matrix do not lower its singular values (interlacing), so
    s6([S; K]) >= max(s6(S), s6(K)) > 2 tol max(s1(S), s1(K)), which is at
    least sqrt(2) tol s1([S; K]) since s1([S; K])^2 <= s1(S)^2 + s1(K)^2.
    By Weyl's bound on perturbed singular values (Golub & Van Loan,
    *Matrix Computations*, section 8.6, for it and for interlacing), the
    SVD ranks of a certified point are then six, as in kirillov_rank.
    Every other point, every point below the floor, and every point of an
    algebra without the g5,2 pattern (pairing_operand is None), is ranked
    by the SVDs of liecore.numeric_rank and by kirillov_rank, so the
    verdict equals those three ranks point by point.

    Raises DomainError unless every point is finite and on the family's
    foliated manifold.  Batched over leading axes.
    """
    fields = system_fields(algebra.family, algebra.params)
    v = _foliated(algebra.family, v)
    points = v.reshape(-1, DIM)
    span = field_values(fields, points)
    pairing = algebra.kirillov(points)
    certified = _span_certificate(algebra, points, span, pairing, tol)
    spans = certified.copy()
    rest = ~certified
    if rest.any():
        span, pairing = span[rest], pairing[rest]
        stacked = np.concatenate([span, pairing], axis=-2)
        spans[rest] = (
            (numeric_rank(span, tol) == 6)
            & (kirillov_rank(algebra, points[rest], tol) == 6)
            & (numeric_rank(stacked, tol) == 6)
        )
    return spans.reshape(v.shape[:-1]), certified.reshape(v.shape[:-1])


def distribution_equiv(
    algebra: LieAlgebra7,
    v: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray | bool:
    """Whether the generating fields span the orbit tangent space at v.

    True when the stacked field values, the pairing matrix of v, and their
    concatenation all have numeric rank six; distribution_decision gives
    the bounds that decide most points without an SVD.  Raises DomainError
    unless every point is finite and on the family's foliated manifold.
    Batched over leading axes; a single point gives a bool.
    """
    spans = distribution_decision(algebra, v, tol)[0]
    if spans.ndim == 0:
        return bool(spans)
    return spans


def involutivity_decision(
    family: str,
    params: tuple[Real, ...],
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """involutivity_residual at each point of v, and whether the normal
    vector, rather than an SVD, gave it.

    The fifteen pairwise brackets of the affine fields are computed exactly
    and stacked into one (15, 7, 7) / (15, 7) affine stack.  Where the six
    field values S have rank six, the component of a bracket value w
    orthogonal to their span is (n^ . w) n^, for the unit vector n^ along
    the normal n of S, the 4-D cross product of fields two to four on
    coordinates 2..5 (see _normal), so the residual is the largest
    |n^ . w|; the stack gives all fifteen n . w in one matrix product.
    That holds at every point whose n certifies s6(S) / s1(S) >
    2 liecore.PAIRING_TOL_FLOOR by the bound |n| / |S|_F^6 (see
    distribution_decision).  Every other point keeps the projection onto
    the six right singular vectors of S.

    Raises DomainError unless every point is finite and on the family's
    foliated manifold.  Batched over leading axes.
    """
    fields = system_fields(family, tuple(params))
    v = _foliated(family, v)
    points = v.reshape(-1, DIM)
    brackets = [fields[i].bracket(fields[j]) for i, j in _PAIRS]
    span = field_values(fields, points)
    normal, frob6 = _normal(span)
    size = np.linalg.norm(normal, axis=-1)
    certified = size > 2.0 * PAIRING_TOL_FLOOR * frob6
    # n . (A v + b) for all fifteen brackets at once, as n (x) v against
    # the stacked linear parts A plus n against the constants b.
    linear = np.stack([b.linear for b in brackets]).reshape(len(_PAIRS), DIM * DIM)
    const = np.stack([b.const for b in brackets])
    outer = (normal[:, :, None] * points[:, None, :]).reshape(-1, DIM * DIM)
    # Uncertified points get NaN or inf here, and the SVD value below.
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = np.abs(outer @ linear.T + normal @ const.T).max(axis=-1) / size
    rest = ~certified
    if rest.any():
        _, _, vh = np.linalg.svd(span[rest], full_matrices=False)
        w = field_values(brackets, points[rest])
        tangent = (w @ vh.transpose(0, 2, 1)) @ vh
        residual[rest] = np.linalg.norm(w - tangent, axis=-1).max(axis=-1)
    return residual.reshape(v.shape[:-1]), certified.reshape(v.shape[:-1])


def involutivity_residual(family: str, params: tuple[Real, ...], v: np.ndarray) -> np.ndarray:
    """Largest out-of-span component of any pairwise field bracket at v.

    The bracket of two affine fields is computed exactly; the residual is
    the norm of its component orthogonal to the span of the six field
    values, maximized over all fifteen pairs; involutivity_decision gives
    the closed form that replaces the SVD projection at most points.
    Raises DomainError unless every point is finite and on the family's
    foliated manifold.  Batched over leading axes.
    """
    return involutivity_decision(family, params, v)[0]


def annihilation_residual(
    family: str,
    params: tuple[Real, ...],
    v: np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Largest directional derivative of the invariant along the three
    non-constant fields, by central differences of size ``step``.

    The constant fields act on coordinates the invariant never reads, so
    only the second, third, and fourth fields are probed.
    """
    fields = system_fields(family, tuple(params))
    v = np.asarray(v, dtype=float)
    worst = np.zeros(v.shape[:-1])
    for field in fields[1:4]:
        direction = field(v)
        upper = invariant(family, params, v + step * direction)
        lower = invariant(family, params, v - step * direction)
        worst = np.maximum(worst, np.abs(upper - lower) / (2 * step))
    return worst
