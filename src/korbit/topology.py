"""Foliated manifolds, leaf-preserving maps, and topological classification.

The six-dimensional orbit foliations of the catalog families live on one of
three open subsets of orbit space, cut out by the fourth and fifth
coordinates.  This module houses the membership predicates and sign
components of those subsets, the eleven closed-form coordinate maps that
carry one family's leaves onto another's, the representative fibration of
each topological type, and the operator-algebra descriptor strings.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from numbers import Real

import numpy as np

from . import catalog
from .liecore import DomainError


class Manifold(Enum):
    """Open dense subsets of orbit space carrying the foliations."""

    V1 = "V1"  # fourth and fifth coordinates both nonzero
    V2 = "V2"  # fifth coordinate nonzero
    V3 = "V3"  # fourth and fifth coordinates not both zero


class FoliationType(Enum):
    """Topological equivalence classes of the sixteen foliations."""

    F1 = "F1"
    F2 = "F2"
    F3 = "F3"


COMPONENT_LABELS: dict[Manifold, tuple[str, ...]] = {
    Manifold.V1: ("++", "-+", "--", "+-"),
    Manifold.V2: ("+", "-"),
    Manifold.V3: ("single",),
}

CSTAR_DESCRIPTORS: dict[FoliationType, str] = {
    FoliationType.F1: "(C0(R)^⊕4) ⊗ K",
    FoliationType.F2: "(C0(R)^⊕2) ⊗ K",
    FoliationType.F3: "C0(R) ⊗ K",
}

MANIFOLD_OF_TYPE: dict[FoliationType, Manifold] = {
    FoliationType.F1: Manifold.V1,
    FoliationType.F2: Manifold.V2,
    FoliationType.F3: Manifold.V3,
}


def manifold_of(family: str) -> Manifold:
    """Foliated manifold carrying the family's generic orbits."""
    return Manifold(catalog.record(family).manifold)


def classify(family: str) -> FoliationType:
    """Topological type of the family's orbit foliation."""
    manifold = manifold_of(family)
    return next(t for t, m in MANIFOLD_OF_TYPE.items() if m is manifold)


def cstar_descriptor(t: FoliationType) -> str:
    """Isomorphism-class label of the foliation's operator algebra."""
    return CSTAR_DESCRIPTORS[t]


def contains(manifold: Manifold, v: np.ndarray) -> np.ndarray | bool:
    """Membership of points (batched over leading axes) in the manifold.

    A point with a non-finite coordinate is never a member.
    """
    v = np.asarray(v, dtype=float)
    x4, x5 = v[..., 3], v[..., 4]
    if manifold is Manifold.V1:
        ok = (x4 != 0) & (x5 != 0)
    elif manifold is Manifold.V2:
        ok = x5 != 0
    else:
        ok = (x4 != 0) | (x5 != 0)
    finite = np.isfinite(v)
    # One test over the whole batch first: the per-point test on 7-wide
    # rows costs five to ten times as much, and batches are almost always
    # finite.
    if not finite.all():
        ok &= np.all(finite, axis=-1)
    if np.ndim(ok) == 0:
        return bool(ok)
    return ok


def boundary_margin(manifold: Manifold, v: np.ndarray) -> np.ndarray:
    """Distance of the deciding coordinates from the manifold's boundary.

    Sampling campaigns keep points whose margin clears a threshold so that
    strict sign predicates stay numerically unambiguous.
    """
    v = np.asarray(v, dtype=float)
    x4, x5 = v[..., 3], v[..., 4]
    if manifold is Manifold.V1:
        return np.minimum(np.abs(x4), np.abs(x5))
    if manifold is Manifold.V2:
        return np.abs(x5)
    return np.hypot(x4, x5)


def component_of(manifold: Manifold, v: np.ndarray) -> str:
    """Connected-component label of a single point of the manifold."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("component_of labels one point at a time")
    if not contains(manifold, v):
        raise DomainError(f"point lies outside {manifold.value}")
    x4, x5 = float(v[3]), float(v[4])
    if manifold is Manifold.V1:
        return ("+" if x4 > 0 else "-") + ("+" if x5 > 0 else "-")
    if manifold is Manifold.V2:
        return "+" if x5 > 0 else "-"
    return "single"


def ratio_angle(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """arctan(num/den) extended by its one-sided limit at den = 0."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    safe = np.where(den != 0, den, 1.0)
    return np.where(den != 0, np.arctan(num / safe), np.sign(num) * (np.pi / 2))


def fibration_value(t: FoliationType, v: np.ndarray) -> np.ndarray:
    """Representative fibration of the type, evaluated pointwise.

    Each map is a surjective submersion of the type's manifold whose fibers
    are connected unions of leaves over each component.
    """
    v = np.asarray(v, dtype=float)
    inside = contains(MANIFOLD_OF_TYPE[t], v)
    if not np.all(inside):
        raise DomainError(f"point lies outside {MANIFOLD_OF_TYPE[t].value}")
    x2, x3, x4, x5 = v[..., 1], v[..., 2], v[..., 3], v[..., 4]
    if t is FoliationType.F1:
        return x2 - x3 * x4 / x5
    if t is FoliationType.F2:
        return (x2 - x3 * x4 / x5) * np.exp(-x4 / x5)
    return (x2 * x5 - x3 * x4) / (x4 * x4 + x5 * x5)


def fibration_gradient(t: FoliationType, v: np.ndarray) -> np.ndarray:
    """Central-difference gradient of the representative fibration."""
    v = np.asarray(v, dtype=float)
    step = 1e-6
    grads = []
    for i in range(7):
        offset = np.zeros(7)
        offset[i] = step
        grads.append(
            (fibration_value(t, v + offset) - fibration_value(t, v - offset)) / (2 * step)
        )
    return np.stack(grads, axis=-1)


# Leaf-preserving maps.  Every map but the h1 shear sends the second and
# third coordinates to s * ((x2, x3) + o), with the scale s and the offset
# o = (o2, o3) functions of the fourth and fifth (_action), and fixes the
# rest; the shear rewrites the fourth.  Each map's facts live in its
# LeafMap record in _LEAF_MAPS.


def _with_columns(v: np.ndarray, **cols: np.ndarray) -> np.ndarray:
    out = np.array(v, dtype=float, copy=True)
    for name, value in cols.items():
        out[..., int(name[1:])] = value
    return out


def _safe_log_abs(x: np.ndarray) -> np.ndarray:
    return np.log(np.abs(np.where(x != 0, x, 1.0)))


def _v3_branches(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks for the two degenerate branches (x4 = 0 and x5 = 0)."""
    x4, x5 = v[..., 3], v[..., 4]
    return (x4 == 0) & (x5 != 0), (x4 != 0) & (x5 == 0)


def _action(
    name: str, params: tuple[Real, ...], v: np.ndarray
) -> tuple[np.ndarray | float, ...]:
    """(s, o2, o3) of the named map at the points v."""
    x4, x5 = v[..., 3], v[..., 4]
    if name == "h2":
        l1, l2 = (float(p) for p in params)
        denom = l2 - l1 - 1.0
        return np.abs(x5) ** (1.0 / denom) / np.abs(x4) ** ((1.0 + l1) / denom), 0.0, 0.0
    if name == "h5":
        return x5 * np.exp(-x4 / x5), 0.0, 0.0
    if name == "h6":
        return 1.0 / np.sqrt(np.abs(x4)), 0.0, 0.0
    if name == "h7":
        (lam,) = (float(p) for p in params)
        ratio = lam / (1.0 + lam)
        return np.abs(x5) ** ratio * np.exp(-ratio * x4 / x5), 0.0, 0.0
    if name == "h8":
        (lam,) = (float(p) for p in params)
        main = (x4 != 0) & (x5 != 0)
        angle = np.arctan(np.where(main, x4, 0.0) / np.where(main, x5, 1.0))
        return np.where(main, np.exp(-lam * angle), 1.0), 0.0, 0.0
    if name == "h9":
        l1, l2 = (float(p) for p in params)
        dd = x4 * x4 + x5 * x5
        angle = ratio_angle(x4, x5)
        return dd ** (-0.5 / (1.0 + l1)) * np.exp(l2 * angle / (1.0 + l1)), 0.0, 0.0
    log4, log5 = _safe_log_abs(x4), _safe_log_abs(x5)
    safe4 = np.where(x4 != 0, x4, 1.0)
    safe5 = np.where(x5 != 0, x5, 1.0)
    if name == "h3":
        return x5, log4, x5 * log5 / safe4
    if name == "h4":
        (lam,) = (float(p) for p in params)
        return x5, -(1.0 + lam) * log4, -(2.0 + lam) * x5 * log5 / safe4
    zero4, zero5 = _v3_branches(v)
    main = ~zero4 & ~zero5
    dd = x4 * x4 + x5 * x5
    dlogd = dd * np.log(np.where(dd > 0, dd, 1.0))
    if name == "h10":
        off2 = np.where(main, dlogd / (2.0 * safe5), np.where(zero4, x5 * log5, 0.0))
        off3 = np.where(zero5, -x4 * log4, 0.0)
        return 1.0, off2, off3
    if name == "h11":
        (lam,) = (float(p) for p in params)
        angle = ratio_angle(x5, x4)
        off2 = np.where(
            main,
            x4 / 2.0 + angle / 2.0 + lam * dlogd / (2.0 * safe4),
            np.where(zero4, lam * x5 * log5, 0.0),
        )
        off3 = np.where(zero5, -lam * x4 * log4, 0.0)
        return 1.0, off2, off3
    raise ValueError(f"{name} is not an affine leaf map")


@dataclass(frozen=True)
class LeafMap:
    """One of the eleven closed-form leaf-preserving coordinate maps, with
    every fact the verification campaigns read about it.

    For h7 and h8 the source is the parameter-zero member of the target's
    own family; h6 carries the same source foliation onto two families at
    once and is recorded against the first of them.

    ``shear`` marks h1, which rewrites the fourth coordinate; every other
    map scales and offsets the second and third (_action).  ``check``
    names the campaign that tests leaf preservation: "residual" where the
    target invariant is cataloged, "constancy" where it is pulled back
    from the source, None where neither applies.  ``locus`` is the branch
    locus of the pulled-back invariant in the form of
    ``catalog.FamilyRecord.locus``, and ``graded`` marks a map whose
    constancy failure is reported as a finding about the catalog rather
    than breaking the run.
    """

    name: str
    source: str
    target: str
    params: tuple[Real, ...]
    check: str | None = None
    locus: tuple[str, int] | None = None
    graded: bool = False
    shear: bool = False

    @property
    def manifold(self) -> Manifold:
        """The manifold the map acts on, the target family's (and the
        source's)."""
        return manifold_of(self.target)

    def _check(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if not np.all(contains(self.manifold, v)):
            raise DomainError(f"{self.name} needs points of {self.manifold.value}")
        return v

    def margin(self, v: np.ndarray) -> np.ndarray:
        """Distance of points from where the map's formulas degenerate:
        the manifold's boundary margin, min(|x4|, |x5|) on the third
        manifold (whose degenerate branches are sampled separately), and
        for the shear also |x3|, which its inverse divides by."""
        v = np.asarray(v, dtype=float)
        if self.manifold is Manifold.V3:
            margin = np.minimum(np.abs(v[..., 3]), np.abs(v[..., 4]))
        else:
            margin = boundary_margin(self.manifold, v)
        if self.shear:
            margin = np.minimum(margin, np.abs(v[..., 2]))
        return margin

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Forward map, batched over leading axes."""
        v = self._check(v)
        x2, x3 = v[..., 1], v[..., 2]
        if self.shear:
            return _with_columns(v, c3=x2 - x3 * v[..., 3] / v[..., 4])
        s, o2, o3 = _action(self.name, self.params, v)
        return _with_columns(v, c1=(x2 + o2) * s, c2=(x3 + o3) * s)

    def invert(self, v: np.ndarray) -> np.ndarray:
        """Closed-form inverse, batched over leading axes."""
        v = self._check(v)
        x2, x3 = v[..., 1], v[..., 2]
        if self.shear:
            if np.any(x3 == 0):
                raise DomainError(f"{self.name} inverse needs a nonzero third coordinate")
            return _with_columns(v, c3=(x2 - v[..., 3]) * v[..., 4] / x3)
        s, o2, o3 = _action(self.name, self.params, v)
        return _with_columns(v, c1=x2 / s - o2, c2=x3 / s - o3)


_HALF = Fraction(1, 2)

#: The eleven maps at their default parameters; a map's arity is the
#: length of its default parameter tuple.
_LEAF_MAPS: dict[str, LeafMap] = {
    m.name: m
    for m in (
        LeafMap("h1", "G2", "G1", (), "constancy", shear=True),
        LeafMap("h2", "G2", "G4", (Fraction(0), Fraction(2)), "residual"),
        LeafMap("h3", "G2", "G7", (), "constancy"),
        LeafMap("h4", "G2", "G8", (_HALF,), "constancy"),
        LeafMap("h5", "G2", "G11", (), "constancy"),
        LeafMap("h6", "G3", "G5", ()),
        LeafMap("h7", "G12", "G12", (_HALF,), "residual"),
        LeafMap("h8", "G13", "G13", (_HALF,), "residual"),
        LeafMap("h9", "G13", "G14", (_HALF, Fraction(1)), "constancy", ("a", 6)),
        LeafMap("h10", "G13", "G15", (), "constancy"),
        LeafMap("h11", "G13", "G16", (_HALF,), "constancy", ("b", 5), True),
    )
}

LEAF_MAP_NAMES: tuple[str, ...] = tuple(_LEAF_MAPS)


def leaf_map(name: str, params: tuple[Real, ...] | None = None) -> LeafMap:
    """The named leaf map at its default parameters, or at ``params``
    after validating them against the target family.

    Maps whose formulas carry no parameter take an empty tuple even when
    the target family itself is parameterized.
    """
    if name not in _LEAF_MAPS:
        raise ValueError(f"unknown leaf map {name!r}")
    default = _LEAF_MAPS[name]
    if params is None:
        return default
    params = tuple(params)
    arity = len(default.params)
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(params)}")
    if arity:
        catalog.validate_params(default.target, params)
    return replace(default, params=params)
