"""Generating vector fields of the orbit foliations and orbit invariants.

Each family with a cataloged generating system carries six affine vector
fields on orbit space whose span at every point of the foliated manifold
equals the tangent space of the orbit through that point.  Three of the
fields are coordinate translations and one is a fixed shear; the other two
are derived, not transcribed: they are the family's two derivations from
catalog.derivation_pair acting on the second through fifth coordinates,
in the order the catalog record gives.  The module also
evaluates the closed-form flows printed for three representative families
and the scalar invariant that labels the leaves of each foliation.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import catalog, topology
from .liecore import (
    DIM,
    DomainError,
    LieAlgebra7,
    UnsupportedFamilyError,
    numeric_rank,
    pairing_rank,
)

#: Families with a cataloged generating system of vector fields.
SYSTEM_FAMILIES: frozenset[str] = catalog.CATALOGED_FAMILIES

#: Families with a cataloged closed-form orbit invariant.
INVARIANT_FAMILIES: frozenset[str] = frozenset(
    {"G1", "G2", "G4", "G7", "G8", "G11", "G12", "G13", "G14", "G15", "G16"}
)

#: Families whose closed-form flows are cataloged for every field.
FLOW_FAMILIES: frozenset[str] = frozenset({"G4", "G12", "G13"})


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
    fam = catalog.record(family)
    if not fam.cataloged:
        raise UnsupportedFamilyError(f"no cataloged generating system for {family}")
    m2, m3 = (b, a) if fam.swapped else (a, b)
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


def field_values(fields: tuple[LinearVectorField, ...], v: np.ndarray) -> np.ndarray:
    """Values of the fields at points v, stacked on axis -2."""
    v = np.asarray(v, dtype=float)
    return np.stack([f(v) for f in fields], axis=-2)


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
    if family not in FLOW_FAMILIES:
        raise UnsupportedFamilyError(f"no cataloged closed-form flows for {family}")
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
    if family not in INVARIANT_FAMILIES:
        raise UnsupportedFamilyError(f"no cataloged orbit invariant for {family}")
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


def distribution_equiv(
    algebra: LieAlgebra7,
    v: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray | bool:
    """Whether the generating fields span the orbit tangent space at v.

    True when the stacked field values, the pairing matrix of v, and their
    concatenation all have numeric rank six.  The two non-antisymmetric
    stacks are ranked by the SVD of liecore.numeric_rank; the pairing
    matrix by liecore.pairing_rank, which certifies rank six by its
    principal Pfaffians and gives the same rank.  Batched over leading
    axes.
    """
    fields = system_fields(algebra.family, algebra.params)
    v = np.asarray(v, dtype=float)
    if not np.all(topology.contains(topology.manifold_of(algebra.family), v)):
        raise DomainError("point lies outside the foliated manifold")
    span = field_values(fields, v)
    pairing = algebra.kirillov(v)
    stacked = np.concatenate([span, pairing], axis=-2)
    ok = (
        (numeric_rank(span, tol) == 6)
        & (pairing_rank(pairing, tol) == 6)
        & (numeric_rank(stacked, tol) == 6)
    )
    if np.ndim(ok) == 0:
        return bool(ok)
    return ok


def involutivity_residual(family: str, params: tuple[Real, ...], v: np.ndarray) -> np.ndarray:
    """Largest out-of-span component of any pairwise field bracket at v.

    The bracket of two affine fields is computed exactly; the residual is
    the norm of its component orthogonal to the span of the six field
    values, maximized over all fifteen pairs.  Batched over leading axes.
    """
    fields = system_fields(family, tuple(params))
    v = np.asarray(v, dtype=float)
    span = field_values(fields, v)
    _, _, vh = np.linalg.svd(span, full_matrices=False)
    worst = np.zeros(v.shape[:-1])
    for i in range(6):
        for j in range(i + 1, 6):
            w = fields[i].bracket(fields[j])(v)
            coords = np.einsum("...kj,...j->...k", vh, w)
            tangent = np.einsum("...kj,...k->...j", vh, coords)
            worst = np.maximum(worst, np.linalg.norm(w - tangent, axis=-1))
    return worst


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
