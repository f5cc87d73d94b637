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

Span and involutivity are exact polynomial identities in the functional
and the parameters (span_certificate, bracket_certificate), decided for
every point and parameter value at once, so each family's identities
are decided once per process and every caller gets fresh dicts.  The
fields and the Kirillov form both come from catalog.derivation_pair, so
they certify the derivation rule, not its transcription from the source,
which verify's golden tables check.  distribution_equiv and
involutivity_residual are their float references at given points.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import catalog, liecore, topology
from .catalog import ClosedForm
from .liecore import DIM, DomainError, LieAlgebra7, numeric_rank
from .poly import Poly

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
        """Lie bracket of two affine fields, again an affine field: _bracket
        on the augmented matrices [L | c], the fields' values at (x, 1)."""
        a = np.column_stack([self.linear, self.const])
        c = np.column_stack([other.linear, other.const])
        out = _bracket(self.linear, a, other.linear, c)
        return LinearVectorField(out[:, :DIM], out[:, DIM])


def _bracket(li, fi, lj, fj, apply=np.matmul):
    """[F_i, F_j] = L_j F_i - L_i F_j, the Lie bracket of the affine fields
    F_i and F_j with linear parts L_i and L_j, given by their values F_i
    and F_j.  ``apply`` is the matrix-vector product: np.matmul on floats,
    _apply on exact entries."""
    return apply(lj, fi) - apply(li, fj)


def system_matrices(family: str, params: tuple[Real, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The linear parts, shape (6, 7, 7), and constants, shape (6, 7), of
    the family's six generating fields as exact object arrays (Polys for
    Poly parameters).  Fields one, five, and six translate the first,
    sixth, and seventh coordinates; field four shears the second and third
    by the fourth and fifth; fields two and three are the family's
    derivations, on coordinates two through five, in record order.
    """
    a, b, _ = catalog.derivation_pair(family, tuple(params))
    catalog.require(family, ClosedForm.FIELDS)
    m2, m3 = (b, a) if catalog.record(family).swapped else (a, b)
    linear = np.zeros((6, DIM, DIM), dtype=object)
    const = np.zeros((6, DIM), dtype=object)
    const[0, 0] = const[4, 5] = const[5, 6] = 1
    linear[1, 1:5, 1:5] = np.array(m2, dtype=object)[1:5, 1:5]
    linear[2, 1:5, 1:5] = np.array(m3, dtype=object)[1:5, 1:5]
    linear[3, 1, 3] = linear[3, 2, 4] = 1
    return linear, const


def system_fields(family: str, params: tuple[Real, ...] = ()) -> tuple[LinearVectorField, ...]:
    """The six generating fields of the family's orbit foliation, the
    matrices of system_matrices in floats."""
    return tuple(LinearVectorField(*field) for field in zip(*system_matrices(family, params)))


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

    Raises UnsupportedFamilyError where no closed form is cataloged,
    ParameterError on parameters the catalog rejects, and DomainError
    unless every point is finite and on the family's foliated manifold;
    then evaluates invariant_formula.  Fractional powers act on absolute
    values, so every sign component is covered; the angle-bearing forms
    jump across their branch loci, which orbit-sampling campaigns must
    reject.
    """
    catalog.require(family, ClosedForm.INVARIANT)
    catalog.validate_params(family, tuple(params))
    v = np.asarray(v, dtype=float)
    if not np.all(topology.contains(topology.manifold_of(family), v)):
        raise DomainError(f"point lies outside {topology.manifold_of(family).value}")
    return invariant_formula(family, params, v)


def invariant_formula(family: str, params: tuple[Real, ...], v: np.ndarray) -> np.ndarray:
    """The formula core of invariant, without its checks: the family's
    printed invariant at every row of v, batched over leading axes.

    The family must catalog an invariant and the parameters must be valid.
    Rows off the foliated manifold, or non-finite, give whatever the
    formula's floats give there (inf, NaN or a number) and may emit
    numpy's RuntimeWarnings; the constancy campaigns evaluate it on whole
    grids under np.errstate and mask those rows out.
    """
    v = np.asarray(v, dtype=float)
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


def _dot(u, v) -> Poly:
    """The exact dot product of u and v, skipping zero factors."""
    return sum((a * b for a, b in zip(u, v) if a and b), Poly())


def _apply(matrix: np.ndarray, v) -> np.ndarray:
    """matrix @ v on exact entries, as an object array.  numpy's object
    matmul forms every product, zeros included, which took twice as long
    over the twelve systems' certificates (2-core x86-64)."""
    return np.array([_dot(row, v) for row in matrix], dtype=object)


def _exact_system(family: str):
    """The linear parts (a Poly per parameter), the values F_i(x) at the
    symbolic functional x, p, the normal n of the values, and how n
    relates to p.  When fields one, five and six are the unit rows e1, e6,
    e7, det [F_1(x); ...; F_6(x); y] = ±n . y for the 4-D cross product n
    of fields two to four on coordinates 2..5; otherwise n is left zero.
    """
    x, params = liecore.geometry_variables(catalog.PARAM_ARITY[family])
    linear, const = system_matrices(family, params)
    values = np.stack([_apply(m, x) + c for m, c in zip(linear, const)])
    p = np.array(liecore.pfaffian_polynomials(family), dtype=object)
    n = np.array([Poly()] * DIM, dtype=object)
    units = np.eye(DIM, dtype=int)[[0, 5, 6]]
    if any(linear[[0, 4, 5]].flat) or not (const[[0, 4, 5]] == units).all():
        return linear, values, p, n, "fields 1, 5, 6 are not e1, e6, e7, so n is no normal"
    rows = values[1:4, 1:5]
    for j in range(1, 5):
        a, b, c = np.delete(rows, j - 1, axis=1)
        n[j] = (-1) ** j * _dot(a, np.cross(b, c))
    if not any(n):
        relation = "n ≡ 0"
    elif (n == p).all():
        relation = "n = +p ≢ 0"
    elif (n == -p).all():
        relation = "n = −p ≢ 0"
    else:
        relation = "n ≠ ±p"
    return linear, values, p, n, relation


#: (identity, holds) pairs, in the order the certificates list them.
_Identities = tuple[tuple[str, bool], ...]


@functools.cache
def _certificates(family: str) -> tuple[_Identities, _Identities, str]:
    """The span and bracket identities of span_certificate and
    bracket_certificate as (identity, holds) pairs, and how n relates to
    p, all decided from one _exact_system.  Cached per family: the pairs
    and the string are immutable, so no caller can change another's
    answer, and a family without a system raises on every call."""
    linear, values, p, n, relation = _exact_system(family)
    span = [(f"F{i + 1}·p ≡ 0", not _dot(value, p)) for i, value in enumerate(values)]
    span.append(("n = ±p ≢ 0", relation in ("n = +p ≢ 0", "n = −p ≢ 0")))
    brackets = []
    for i, j in itertools.combinations(range(len(values)), 2):
        w = _bracket(linear[i], values[i], linear[j], values[j], _apply)
        brackets.append((f"[F{i + 1}, F{j + 1}]·n ≡ 0", any(n) and not _dot(w, n)))
    return tuple(span), tuple(brackets), relation


def span_certificate(family: str) -> tuple[dict[str, bool], str]:
    """The seven span identities, each mapped to whether it holds, and how
    the fields' normal n relates to the Pfaffian vector p (ker K = span p
    where K has rank six).  F_i . p ≡ 0 makes each field tangent; n = ±p ≢ 0
    makes the six values independent exactly where K has rank six, and
    there they span the orbit's tangent space, p's orthogonal complement.
    Decided once per family per process; each call returns a fresh dict.
    """
    span, _, relation = _certificates(family)
    return dict(span), relation


def bracket_certificate(family: str) -> tuple[dict[str, bool], str]:
    """The fifteen involutivity identities [F_i, F_j] . n ≡ 0, each mapped
    to whether it holds, and how n relates to p.  They keep every bracket
    in the fields' span; with n ≡ 0, or no normal, every one fails rather
    than hold vacuously.  Decided once per family per process; each call
    returns a fresh dict.
    """
    _, brackets, relation = _certificates(family)
    return dict(brackets), relation


def distribution_equiv(
    algebra: LieAlgebra7,
    v: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray | bool:
    """Whether the generating fields span the orbit tangent space at v: the
    field values S, the pairing matrix K of v, and [S; K] all have SVD
    rank six at tol.  Raises DomainError unless every point is finite and
    on the family's foliated manifold.  Batched over leading axes; a
    single point gives a bool.
    """
    fields = system_fields(algebra.family, algebra.params)
    v = _foliated(algebra.family, v)
    points = v.reshape(-1, DIM)
    span = np.stack([field(points) for field in fields], axis=-2)
    pairing = algebra.kirillov(points)
    spans = (
        (numeric_rank(span, tol) == 6)
        & (numeric_rank(pairing, tol) == 6)
        & (numeric_rank(np.concatenate([span, pairing], axis=-2), tol) == 6)
    ).reshape(v.shape[:-1])
    if spans.ndim == 0:
        return bool(spans)
    return spans


def involutivity_residual(family: str, params: tuple[Real, ...], v: np.ndarray) -> np.ndarray:
    """Largest out-of-span component of any pairwise field bracket at v:
    the norm of its component off the six right singular vectors of the
    field values, maximized over all fifteen pairs.  Raises DomainError
    unless every point is finite and on the family's foliated manifold.
    Batched over leading axes.
    """
    fields = system_fields(family, tuple(params))
    v = _foliated(family, v)
    points = v.reshape(-1, DIM)
    span = np.stack([field(points) for field in fields], axis=-2)
    _, _, vh = np.linalg.svd(span, full_matrices=False)
    w = np.stack([f.bracket(g)(points) for f, g in itertools.combinations(fields, 2)], axis=-2)
    tangent = (w @ vh.transpose(0, 2, 1)) @ vh
    residual = np.linalg.norm(w - tangent, axis=-1).max(axis=-1, initial=0.0)
    return residual.reshape(v.shape[:-1])


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
