"""Coadjoint action, orbit dimensions, and rank-six predicates.

The simply connected group acts on functionals through transposed matrix
exponentials of adjoint representatives.  Orbit dimension is the numeric
rank of the pairing form, and the families whose catalog record lists the
rank predicate carry a closed form for where that rank reaches six.
"""
from __future__ import annotations

import enum

import numpy as np

from . import catalog, rng, topology
from .catalog import ClosedForm
from .liecore import DomainError, LieAlgebra7, exp_matrix, kirillov_rank

#: Families with a cataloged closed-form rank-six predicate.
RANK_CONDITION_FAMILIES: frozenset[str] = catalog.families_with(ClosedForm.PREDICATE)


def orbit_dimension(algebra: LieAlgebra7, f: np.ndarray, tol: float = 1e-9) -> np.ndarray | int:
    """Dimension of the coadjoint orbit through f (rank of the pairing).

    The rank of the Kirillov form comes from liecore.kirillov_rank, which
    certifies ranks six, four, two and zero by the form's principal
    Pfaffians, in closed form on the pairing entries that the g5,2
    nilradical leaves, and sends only the functionals that no certificate
    decides to the SVD of numeric_rank(algebra.kirillov(f), tol), with the
    same result row by row.  Batched over leading axes of f; one
    functional gives an int.  Raises DomainError naming the first
    functional with a non-finite coordinate.
    """
    f = np.asarray(f, dtype=float)
    finite = np.isfinite(f)
    if not finite.all():
        first = np.argmin(np.all(finite, axis=-1).reshape(-1))
        culprit = f.reshape(-1, f.shape[-1])[first]
        raise DomainError(f"orbit dimension needs a finite functional, got {culprit.tolist()}")
    return kirillov_rank(algebra, f, tol)


def coadjoint_act(algebra: LieAlgebra7, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Images of every functional in f under every group element exp(u), in
    shape ``u.shape[:-1] + f.shape[:-1] + (7,)``: one matrix product per
    element, with the functionals as rows.

    For up to seven functionals the images take no more room than the 7x7
    exponentials, and the products are taken chunk by chunk as exp_matrix
    hands the exponentials over, so no stack of them is kept.  A wider
    grid is formed from the stack instead, so that it is not held at once
    with exp_matrix's work rows: holding both for 500 elements x 50
    functionals pushed the heap top past glibc's trim threshold, and a
    benchmark verify-all pass on a 2-core x86-64 Linux machine took about
    7,000 minor page faults against 800.  The images are the same floats
    either way.  Raises DomainError naming the first element of u whose
    exponential overflows."""
    f = np.asarray(f, dtype=float)
    functionals = f.reshape(-1, 7)
    elements = np.asarray(u, dtype=float).reshape(-1, 7)

    def fold(lo: int, hi: int, exps: np.ndarray) -> None:
        np.matmul(functionals, exps, out=images[lo:hi])

    try:
        if len(functionals) > 7:
            images = np.matmul(functionals, exp_matrix(algebra.ad(elements)))
        else:
            images = np.empty((len(elements), len(functionals), 7))
            exp_matrix(algebra.ad(elements), fold=fold)
    except DomainError:
        for element in elements:
            try:
                exp_matrix(algebra.ad(element))
            except DomainError as err:
                raise DomainError(f"{err} for algebra element {element.tolist()}") from None
        raise
    return images.reshape(np.shape(u)[:-1] + f.shape[:-1] + (7,))


def jacobian_check(algebra: LieAlgebra7, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinant of the action matrix alongside exp of the adjoint trace.

    The two agree identically; returning both lets callers measure the
    numerical gap.  The determinant is taken chunk by chunk as exp_matrix
    hands the exponentials over: on an algebra whose exponentials are
    block triangular (LieAlgebra7.block_triangular, every catalog family)
    as the closed-form determinants of the (e1, e2, e3) and (e4, e5)
    blocks, and otherwise by LU (np.linalg.det).
    """
    ad = algebra.ad(u)
    det = np.empty(ad.shape[:-2])
    flat = det.reshape(-1)
    det_of = _block_det if algebra.block_triangular else np.linalg.det

    def fold(lo: int, hi: int, exps: np.ndarray) -> None:
        flat[lo:hi] = det_of(exps)

    exp_matrix(ad, fold=fold)
    exp_trace = np.exp(np.trace(ad, axis1=-2, axis2=-1))
    return det[()], exp_trace


def _block_det(e: np.ndarray) -> np.ndarray:
    """det(e[:, 0:3, 0:3]) det(e[:, 3:5, 3:5]) for a stack of 7x7 matrices,
    the 3x3 determinant by cofactors along its first row."""
    a, b = e[:, 0:3, 0:3], e[:, 3:5, 3:5]
    minors = (
        a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1],
        a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0],
        a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0],
    )
    cubic = a[:, 0, 0] * minors[0] - a[:, 0, 1] * minors[1] + a[:, 0, 2] * minors[2]
    return cubic * (b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0])


def rank_condition(family: str, f: np.ndarray) -> np.ndarray | bool:
    """Closed-form predicate for a six-dimensional orbit through f.

    Comparisons are exact float tests, so points must sit either safely off
    the decision boundary or exactly on the intended zero locus.  Raises
    UnsupportedFamilyError for the four families without a cataloged form.
    """
    catalog.require(family, ClosedForm.PREDICATE)
    f = np.asarray(f, dtype=float)
    a2, a3, a4, a5 = f[..., 1], f[..., 2], f[..., 3], f[..., 4]
    # (a, b) != 0 as (a != 0) | (b != 0): hypot(a, b) != 0 on every float,
    # signed zeros, NaN, infinities and subnormals included.  Likewise
    # a b != 0 as (a != 0) & (b != 0): the float product underflows to zero
    # and makes NaN of inf times zero.
    if family == "G1":
        out = (a5 != 0) & ((a2 != 0) | (a4 != 0))
    elif family in ("G4", "G5", "G6"):
        out = np.where(a4 == 0, (a2 != 0) & (a5 != 0), (a3 != 0) | (a5 != 0))
    elif family in ("G7", "G8", "G11", "G12"):
        out = (a5 != 0) | ((a3 != 0) & (a4 != 0))
    else:  # G13..G16
        out = (a4 != 0) | (a5 != 0)
    if np.ndim(out) == 0:
        return bool(out)
    return out


def condition_margin(family: str, f: np.ndarray) -> np.ndarray:
    """How robustly the rank predicate is decided at f.

    Small values flag proximity to a rank boundary (or, for the first
    family, to the locus where the cataloged form and the true rank
    disagree); infinity marks points whose deciding products vanish exactly,
    where the verdict is structural rather than marginal.  Raises
    UnsupportedFamilyError where rank_condition does.
    """
    catalog.require(family, ClosedForm.PREDICATE)
    f = np.asarray(f, dtype=float)
    a2, a3, a4, a5 = f[..., 1], f[..., 2], f[..., 3], f[..., 4]
    if family == "G1":
        return np.where(
            a5 == 0, np.inf, np.minimum(np.abs(a5), np.abs(a3 * a4 - a2 * a5))
        )
    if family in ("G4", "G5", "G6"):
        axial = np.where((a2 == 0) | (a5 == 0), np.inf, np.abs(a2 * a5))
        rot = np.hypot(a3, a5)
        off = np.minimum(np.abs(a4), np.where(rot == 0, np.inf, rot))
        return np.where(a4 == 0, axial, off)
    if family in ("G7", "G8", "G11", "G12"):
        strength = np.maximum(np.abs(a5), np.abs(a3 * a4))
        return np.where((a5 == 0) & ((a3 == 0) | (a4 == 0)), np.inf, strength)
    norm = np.hypot(a4, a5)  # G13..G16
    return np.where(norm == 0, np.inf, norm)


class OrbitType(enum.Enum):
    """Coarse classification of a coadjoint orbit by dimension and locus."""

    GENERIC = "Generic"
    MAXIMAL_NONGENERIC = "Type1MaxNonGeneric"
    LOWER_DIMENSIONAL = "LowerDimensional"


def orbit_type(algebra: LieAlgebra7, f: np.ndarray, *, dimension: int | None = None) -> OrbitType:
    """Classify the orbit through a single functional f.

    Six-dimensional orbits through the foliated manifold are generic;
    six-dimensional orbits outside it are maximal without being generic;
    everything else is lower dimensional.  A caller that already holds
    orbit_dimension(algebra, f) passes it as dimension, and it is not
    computed again.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise ValueError("orbit_type classifies one functional at a time")
    if dimension is None:
        dimension = orbit_dimension(algebra, f)
    if dimension < 6:
        return OrbitType.LOWER_DIMENSIONAL
    if topology.contains(topology.manifold_of(algebra.family), f):
        return OrbitType.GENERIC
    return OrbitType.MAXIMAL_NONGENERIC


def sample_orbit(algebra: LieAlgebra7, f: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw n points of the orbit through f from exponentials of algebra
    elements with coordinates uniform in [-r, r], r = rng.COORDINATE_RADIUS:
    orbit_points at orbit_elements(algebra, n, seed)."""
    return orbit_points(algebra, f, orbit_elements(algebra, n, seed))


def orbit_points(algebra: LieAlgebra7, f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The images of one functional f under the exponentials of the algebra
    elements u, as coadjoint_act gives them.

    Raises DomainError naming the offending element if the action
    overflows, which large parameters can provoke.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (7,):
        raise ValueError("orbit points need a single functional")
    with np.errstate(over="ignore", invalid="ignore"):
        points = coadjoint_act(algebra, u, f)
    bad = ~np.all(np.isfinite(points), axis=-1)
    if np.any(bad):
        culprit = np.asarray(u)[np.unravel_index(np.argmax(bad), bad.shape)]
        raise DomainError(f"orbit point overflowed for algebra element {culprit.tolist()}")
    return points


def orbit_elements(algebra: LieAlgebra7, n: int, seed: int) -> np.ndarray:
    """The n algebra elements whose exponentials sample_orbit applies, in
    the order of its points."""
    gen = rng.generator(seed, "orbit", algebra.family, *algebra.params)
    radius = rng.COORDINATE_RADIUS
    return gen.uniform(-radius, radius, size=(n, 7))
