"""Coadjoint action, orbit dimensions, predicates, and orbit types."""
from __future__ import annotations

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from korbit import catalog, coadjoint, liecore, rng, verify
from korbit.liecore import (
    PAIRING_TOL_FLOOR,
    DomainError,
    LieAlgebra7,
    UnsupportedFamilyError,
    numeric_rank,
)

HALF = Fraction(1, 2)
REL = 1e-12


def test_coadjoint_known_value_doubles_both_tail_coordinates():
    """Moving along the first extra direction by ln 2 doubles the fourth
    and fifth coordinates of this G4 functional."""
    algebra = catalog.build("G4", (0, 2))
    u = np.zeros(7)
    u[5] = math.log(2.0)
    f = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        coadjoint.coadjoint_act(algebra, u, f), [0, 0, 0, 2, 2, 0, 0], atol=1e-14
    )


def test_coadjoint_known_value_scales_by_e():
    """Moving along the second extra direction by one scales this G12
    functional's tail by e and feeds the fourth coordinate."""
    algebra = catalog.build("G12", (0,))
    u = np.zeros(7)
    u[6] = 1.0
    f = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    moved = coadjoint.coadjoint_act(algebra, u, f)
    assert math.isclose(moved[3], math.e, rel_tol=REL)
    assert math.isclose(moved[4], math.e, rel_tol=REL)


def test_coadjoint_identity_at_zero():
    """The zero group element acts as the identity."""
    algebra = catalog.build("G15", ())
    f = rng.sample_functionals(0, 5, "identity")
    np.testing.assert_array_equal(coadjoint.coadjoint_act(algebra, np.zeros(7), f), f)


def test_action_matrix_determinant_equals_trace_exponential():
    """det exp(ad_U) = exp(tr ad_U), checked against a hand value."""
    algebra = catalog.build("G4", (1, 0))
    u = np.zeros(7)
    u[5] = 1.0
    det, exp_trace = coadjoint.jacobian_check(algebra, u)
    assert math.isclose(float(det), math.exp(5.0), rel_tol=REL)
    assert math.isclose(float(exp_trace), math.exp(5.0), rel_tol=REL)


#: jacobian_check's determinant against np.linalg.det of the same
#: exponentials, relative: the block cofactors and LU round differently.
DET_REL = 1e-13

#: An algebra without the block structure: [e6, e7] = e6 leaves [g, g]
#: outside span(e1..e5).
UNSTRUCTURED = LieAlgebra7("T", (), {(5, 6): {5: 1}})


def _on_cores(monkeypatch, cores):
    """Make exp_matrix see `cores` cores, whatever the machine has."""
    monkeypatch.setattr(liecore.os, "sched_getaffinity", lambda pid: set(range(cores)))


def _refuse(*args, **kwargs):
    raise AssertionError("called off its path")


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_jacobian_check_block_determinant_matches_lu_on_every_family(family, monkeypatch):
    """On every catalog algebra exp(ad u) is block triangular, and
    jacobian_check's det, from the (e1, e2, e3) and (e4, e5) blocks without
    LU, matches np.linalg.det of the exponentials on 10k elements."""
    algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
    assert algebra.block_triangular
    u = rng.sample_coordinates(0, 10_000, "block-det", family)
    exps = liecore.exp_matrix(algebra.ad(u))
    assert not exps[:, 0:3, 3:5].any() and not exps[:, 5:, 0:5].any()
    assert np.array_equal(exps[:, 5:, 5:], np.broadcast_to(np.eye(2), (10_000, 2, 2)))
    lu = np.linalg.det(exps)
    monkeypatch.setattr(np.linalg, "det", _refuse)
    det, exp_trace = coadjoint.jacobian_check(algebra, u)
    assert np.abs(det / lu - 1.0).max() <= DET_REL
    assert np.array_equal(exp_trace, np.exp(np.trace(algebra.ad(u), axis1=-2, axis2=-1)))


def test_jacobian_check_by_lu_without_the_block_structure(monkeypatch):
    """An algebra whose [g, g] leaves span(e1..e5) takes the LU path, and
    its det is np.linalg.det of the exponentials, to the bit."""
    assert not UNSTRUCTURED.block_triangular
    u = rng.sample_coordinates(0, 2_000, "lu-det", "T")
    expected = np.linalg.det(liecore.exp_matrix(UNSTRUCTURED.ad(u)))
    monkeypatch.setattr(coadjoint, "_block_det", _refuse)
    det, exp_trace = coadjoint.jacobian_check(UNSTRUCTURED, u)
    assert np.array_equal(det, expected)
    assert np.abs(det / exp_trace - 1.0).max() <= DET_REL


@pytest.mark.parametrize("algebra", [catalog.build("G4", (0, 2)), UNSTRUCTURED], ids=["G4", "T"])
@pytest.mark.parametrize("shape", [(7,), (5, 7), (2, 3, 7), (0, 7)])
def test_jacobian_check_shapes_and_types(algebra, shape):
    """One element gives numpy scalars, a batch arrays of its leading
    shape, on both determinant paths."""
    u = rng.sample_coordinates(0, math.prod(shape[:-1]), "shapes").reshape(shape)
    det, exp_trace = coadjoint.jacobian_check(algebra, u)
    for value in (det, exp_trace):
        if len(shape) == 1:
            assert type(value) is np.float64
        else:
            assert type(value) is np.ndarray and value.dtype == float
            assert value.shape == shape[:-1]


@pytest.mark.parametrize("call", ["coadjoint_act", "jacobian_check"])
def test_coadjoint_act_and_jacobian_check_keep_no_stack_of_exponentials(call, monkeypatch):
    """On one core, acting by 10k elements, or taking their determinants,
    peaks below two (10k, 7, 7) float stacks: the ad stack, the work rows
    and the outputs, but no stack of exponentials and no copy of |ad|."""
    algebra = catalog.build("G13", verify.REPRESENTATIVE_PARAMS["G13"])
    u = rng.sample_coordinates(0, 10_000, "allocation", "G13")
    f = rng.sample_functionals(0, 1, "allocation", "G13")[0]
    _on_cores(monkeypatch, 1)
    args = (algebra, u, f) if call == "coadjoint_act" else (algebra, u)
    tracemalloc.start()
    try:
        getattr(coadjoint, call)(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * u.shape[0] * 7 * 7 * 8, peak / (u.shape[0] * 7 * 7 * 8)


def test_adjoint_trace_of_rotation_family():
    """G13's adjoint trace is 4x + 3 lambda y."""
    lam = 0.7
    algebra = catalog.build("G13", (Fraction(7, 10),))
    gen = np.random.default_rng(11)
    for _ in range(5):
        u = gen.uniform(-1.5, 1.5, 7)
        assert math.isclose(
            float(np.trace(algebra.ad(u))), 4 * u[5] + 3 * lam * u[6], rel_tol=1e-13, abs_tol=1e-13
        )


def test_orbit_dimension_six_at_generic_functional():
    """The documented generic functional of G4 has a rank-six pairing."""
    algebra = catalog.build("G4", (0, 2))
    f = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    assert int(coadjoint.orbit_dimension(algebra, f)) == 6


def test_orbit_dimension_zero_at_origin():
    """The zero functional is a fixed point."""
    algebra = catalog.build("G7", ())
    assert int(coadjoint.orbit_dimension(algebra, np.zeros(7))) == 0


def _rank_pool(seed, n, *key):
    """Uniform functionals, the rank campaigns' planted zeros in
    coordinates (3,), (4,) and (2, 4), and the zero functional."""
    pool = [rng.sample_functionals(seed, n, "pairing-oracle", *key), np.zeros((1, 7))]
    for pattern in ((3,), (4,), (2, 4)):
        probe = rng.sample_functionals(seed, n // 4, "pairing-probe", *key, *pattern)
        probe[:, list(pattern)] = 0.0
        pool.append(probe)
    return np.concatenate(pool)


def _probe_points(*key):
    """Generic functionals, all fifteen coordinate strata of x2..x5 (the
    zero functional among them for some families), and the G1 quadric
    x2 = x3 x4 / x5, each also scaled by 1e-150 and 1e150."""
    generic = rng.sample_functionals(0, 200, "pairing-probe-points", *key)
    pool = [generic]
    for size in range(1, 5):
        for zeros in itertools.combinations(range(1, 5), size):
            stratum = generic[:20].copy()
            stratum[:, list(zeros)] = 0.0
            pool.append(stratum)
    quadric = generic[:40].copy()
    quadric[:, 1] = quadric[:, 2] * quadric[:, 3] / quadric[:, 4]
    pool.append(quadric)
    points = np.concatenate(pool)
    return np.concatenate([points, points * 1e-150, points * 1e150])


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_orbit_dimension_equals_svd_rank_on_every_grid_entry(family):
    """The Pfaffian-certified orbit dimension equals the SVD rank of the
    Kirillov form row by row, at the representative parameters and at
    every default grid entry, planted zeros, coordinate strata, the G1
    quadric, scaled points and the origin included, at the default tol
    and at 1e-13, below the floor, where the SVD ranks every row."""
    grid = (verify.REPRESENTATIVE_PARAMS[family],) + catalog.default_parameter_grid(family)
    for params in grid:
        algebra = catalog.build(family, params)
        f = np.concatenate([_rank_pool(0, 800, family, *params), _probe_points(family, *params)])
        k = algebra.kirillov(f)
        for tol in (1e-9, 1e-13):
            np.testing.assert_array_equal(
                coadjoint.orbit_dimension(algebra, f, tol),
                numeric_rank(k, tol),
                err_msg=f"{family} {params} {tol}",
            )


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_orbit_dimension_certifies_every_stratum_without_svd(family, monkeypatch):
    """On _probe_points at every default grid entry (generic functionals,
    the fifteen coordinate strata of x2..x5, the G1 quadric, each scaled by
    1, 1e-150 and 1e150), at tol 1e-9 and PAIRING_TOL_FLOOR, the orbit
    dimension is the SVD rank row by row, and the certificates decide
    every row, so none goes to the SVD."""
    sent = []

    def counting(m, tol=1e-9):
        sent.append(len(m))
        return numeric_rank(m, tol)

    monkeypatch.setattr(liecore, "numeric_rank", counting)
    for params in catalog.default_parameter_grid(family):
        algebra = catalog.build(family, params)
        f = _probe_points(family, *params)
        k = algebra.kirillov(f)
        for tol in (1e-9, PAIRING_TOL_FLOOR):
            np.testing.assert_array_equal(
                coadjoint.orbit_dimension(algebra, f, tol),
                numeric_rank(k, tol),
                err_msg=f"{family} {params} {tol}",
            )
    assert sent == [], family


def test_orbit_dimension_shapes():
    """One functional gives an int, stacks keep their leading axes and
    empty batches stay empty, above and below the floor."""
    algebra = catalog.build("G13", verify.REPRESENTATIVE_PARAMS["G13"])
    f = rng.sample_functionals(0, 40, "orbit-dimension-shapes").reshape(8, 5, 7)
    f[0, 0, [3, 4]] = 0.0
    for tol in (1e-9, 1e-13):
        single = coadjoint.orbit_dimension(algebra, f[0, 1], tol)
        assert single == 6 and isinstance(single, int)
        dims = coadjoint.orbit_dimension(algebra, f, tol)
        assert dims.shape == (8, 5)
        np.testing.assert_array_equal(dims, numeric_rank(algebra.kirillov(f), tol))
        assert dims[0, 0] < 6
        assert np.shape(coadjoint.orbit_dimension(algebra, np.zeros((0, 7)), tol)) == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_functionals_raise_domain_error(bad):
    """A NaN or infinite coordinate makes orbit_dimension and orbit_type
    raise DomainError naming the first such functional, where the SVD
    used to raise LinAlgError."""
    algebra = catalog.build("G13", verify.REPRESENTATIVE_PARAMS["G13"])
    f = rng.sample_functionals(0, 6, "non-finite-functionals")
    f[2, 3] = f[4, 0] = bad
    first = re.escape(str(f[2].tolist()))
    with pytest.raises(DomainError, match=first):
        coadjoint.orbit_dimension(algebra, f)
    with pytest.raises(DomainError, match=first):
        coadjoint.orbit_dimension(algebra, f.reshape(2, 3, 7), 1e-13)
    with pytest.raises(DomainError, match=first):
        coadjoint.orbit_type(algebra, f[2])


@pytest.mark.parametrize("lam", [0, 1])
def test_orbit_dimension_equals_svd_rank_on_first_family_hypersurface(lam):
    """On a3 a4 = a2 a5, where the G1 rank drops to four, the certificate
    stays silent and the SVD decides, planted exactly or to rounding."""
    algebra = catalog.build("G1", (Fraction(lam),))
    gen = np.random.default_rng(29)
    exact = gen.integers(-8, 9, (400, 7)).astype(float)
    exact[:, 1] = gen.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0], 400)
    exact[:, 4] = exact[:, 2] * exact[:, 3] / exact[:, 1]
    rounded = gen.uniform(-3.0, 3.0, (400, 7))
    rounded[:, 4] = rounded[:, 2] * rounded[:, 3] / rounded[:, 1]
    assert np.all(exact[:, 2] * exact[:, 3] == exact[:, 1] * exact[:, 4])
    assert np.all(np.asarray(coadjoint.orbit_dimension(algebra, exact)) < 6)
    for f in (exact, rounded):
        np.testing.assert_array_equal(
            coadjoint.orbit_dimension(algebra, f), numeric_rank(algebra.kirillov(f))
        )


def test_rank_condition_matches_rank_on_random_draws():
    """The closed-form predicates agree with SVD ranks away from margins."""
    for family in sorted(coadjoint.RANK_CONDITION_FAMILIES):
        params = (HALF, Fraction(2))[: catalog.PARAM_ARITY[family]]
        algebra = catalog.build(family, params)
        f = rng.sample_functionals(1, 400, "predicate", family)
        kept = f[coadjoint.condition_margin(family, f) > 0.05]
        predicted = np.asarray(coadjoint.rank_condition(family, kept))
        observed = np.asarray(coadjoint.orbit_dimension(algebra, kept)) == 6
        np.testing.assert_array_equal(predicted, observed)


def test_rank_condition_on_degenerate_strata():
    """Planted zeros exercise the piecewise branches of the predicates."""
    algebra = catalog.build("G4", (0, 2))
    f = np.array([0.3, 0.8, 0.9, 0.0, 0.7, 0.2, -0.4])
    assert bool(coadjoint.rank_condition("G4", f))
    assert int(coadjoint.orbit_dimension(algebra, f)) == 6
    f = np.array([0.3, 0.8, 0.0, 0.0, 0.0, 0.2, -0.4])
    assert not bool(coadjoint.rank_condition("G4", f))
    assert int(coadjoint.orbit_dimension(algebra, f)) < 6


def test_first_family_predicate_margin_excludes_its_bad_hypersurface():
    """The G1 predicate is wrong exactly on a codimension-one set, which
    the margin filter removes; on it the true rank drops."""
    algebra = catalog.build("G1", (1,))
    f = np.array([0.5, 2.0, 3.0, 1.0, 1.5, 0.2, 0.1])
    assert abs(f[2] * f[3] - f[1] * f[4]) < 1e-12
    assert bool(coadjoint.rank_condition("G1", f))
    assert int(coadjoint.orbit_dimension(algebra, f)) < 6
    assert float(coadjoint.condition_margin("G1", f)) < 0.05


#: Known faults of the cataloged rank predicates, as (family, parameters,
#: functional): G1 on its quadric a3 a4 = a2 a5, G4 at lambda1 = lambda2
#: on a5 = 0, and G4 at lambda1 = -1 and G8 at lambda = -1 on a4 = 0.
PREDICATE_FAULTS = [
    ("G1", (1,), (0.2, 0.25, 0.5, 0.75, 1.5, 0.3, 0.1)),
    ("G4", (1, 1), (0.3, 0.7, -0.4, 0.5, 0.0, 0.1, 0.2)),
    ("G4", (-1, 1), (0.3, 0.7, -0.4, 0.0, 1.25, 0.1, 0.2)),
    ("G8", (-1,), (0.3, 0.7, -0.4, 0.0, 1.25, 0.1, 0.2)),
]


@pytest.mark.parametrize("family, params, point", PREDICATE_FAULTS)
def test_rank_predicate_faults_as_they_stand(family, params, point):
    """At each known fault the closed-form Pfaffian vector is exactly zero,
    so the rank-six certificate stays silent and the bounds in S1, S2 and
    S3 certify rank four, the orbit dimension, while the cataloged
    predicate says six.  A corrected predicate changes the last
    assertion."""
    algebra = catalog.build(family, params)
    f = np.array(point)
    u = algebra.pairing_operand @ f
    u = u * (1.0 / np.abs(u).max())
    assert not np.any(liecore._pfaffian(u[0], u[1], u[4:12:2], u[5:12:2]))
    for tol in (1e-9, PAIRING_TOL_FLOOR):
        assert liecore._certify(algebra.pairing_operand @ f[:, None], tol)[0] == 4
    assert coadjoint.orbit_dimension(algebra, f) == 4
    assert coadjoint.rank_condition(family, f) is True


def _hypot_rank_condition(family, f):
    """rank_condition with the pairs (a, b) != 0 tested as
    np.hypot(a, b) != 0 and the products a b != 0 as
    np.fmin(|a|, |b|) != 0: the oracle of the comparisons with zero."""
    a2, a3, a4, a5 = f[..., 1], f[..., 2], f[..., 3], f[..., 4]

    def product_nonzero(a, b):
        return np.fmin(np.abs(a), np.abs(b)) != 0

    if family == "G1":
        return (a5 != 0) & (np.hypot(a2, a4) != 0)
    if family in ("G4", "G5", "G6"):
        return np.where(a4 == 0, product_nonzero(a2, a5), np.hypot(a3, a5) != 0)
    if family in ("G7", "G8", "G11", "G12"):
        return (a5 != 0) | product_nonzero(a3, a4)
    return np.hypot(a4, a5) != 0


@pytest.mark.parametrize("family", sorted(coadjoint.RANK_CONDITION_FAMILIES))
def test_rank_condition_equals_the_hypot_form_on_special_floats(family):
    """Every combination of +-0.0, NaN, +-inf, the smallest subnormal and
    1.0 in a2..a5 gets the verdict of the hypot form."""
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0]
    f = np.zeros((len(special) ** 4, 7))
    f[:, 1:5] = list(itertools.product(special, repeat=4))
    np.testing.assert_array_equal(
        coadjoint.rank_condition(family, f), _hypot_rank_condition(family, f)
    )


@pytest.mark.parametrize(
    "family, f",
    [
        ("G4", [0.0, 1e-200, 1e-200, 0.0, 1e-200, 0.0, 0.0]),
        ("G8", [0.0, 0.0, 1e-200, 1e-200, 0.0, 0.0, 0.0]),
    ],
)
@pytest.mark.parametrize("scale", [1.0, 1e190])
def test_rank_condition_decides_products_that_underflow(family, f, scale):
    """a2 a5 and a3 a4 underflow to zero at 1e-200, yet the orbit is
    six-dimensional: the predicate tests each factor, so it agrees with
    the orbit dimension there and at the same points scaled by 1e190."""
    f = scale * np.array(f)
    algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
    assert coadjoint.orbit_dimension(algebra, f) == 6
    assert coadjoint.rank_condition(family, f) is True


def test_orbit_dimension_ranks_finite_functionals_whose_sum_overflows():
    """Entries of +-1.5e308 are finite, though their sum is not: the
    functionals are ranked, as their signs are, with no DomainError and
    no RuntimeWarning, on every family, including those whose pairing
    entries overflow at that scale."""
    for family in catalog.FAMILIES:
        algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
        signs = np.sign(rng.sample_functionals(0, 50, "huge-functionals", family))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite((1.5e308 * signs).sum())
        np.testing.assert_array_equal(
            coadjoint.orbit_dimension(algebra, 1.5e308 * signs),
            coadjoint.orbit_dimension(algebra, signs),
            err_msg=family,
        )


def test_rank_condition_rejects_unsupported_family():
    """Families without a cataloged predicate raise."""
    with pytest.raises(UnsupportedFamilyError):
        coadjoint.rank_condition("G2", np.ones(7))


def test_orbit_types_at_boundary():
    """Generic inside the foliated manifold, maximal non-generic on its
    boundary, lower dimensional at degenerate functionals."""
    algebra = catalog.build("G4", (0, 2))
    assert (
        coadjoint.orbit_type(algebra, np.array([1.0, 1, 1, 1, 1, 0, 0]))
        is coadjoint.OrbitType.GENERIC
    )
    assert (
        coadjoint.orbit_type(algebra, np.array([1.0, 1, 1, 0, 1, 0, 0]))
        is coadjoint.OrbitType.MAXIMAL_NONGENERIC
    )
    assert (
        coadjoint.orbit_type(algebra, np.zeros(7))
        is coadjoint.OrbitType.LOWER_DIMENSIONAL
    )


def test_orbit_type_values_are_stable_strings():
    """Orbit type names serialize to the documented strings."""
    assert coadjoint.OrbitType.GENERIC.value == "Generic"
    assert coadjoint.OrbitType.MAXIMAL_NONGENERIC.value == "Type1MaxNonGeneric"
    assert coadjoint.OrbitType.LOWER_DIMENSIONAL.value == "LowerDimensional"


def test_sample_orbit_reproducible_and_sign_preserving():
    """Orbit samples are seed-deterministic, and the G4 action preserves
    the signs of the fourth and fifth coordinates."""
    algebra = catalog.build("G4", (0, 2))
    f = np.array([0.4, -0.3, 1.1, 0.8, -0.9, 0.0, 0.0])
    first = coadjoint.sample_orbit(algebra, f, 64, seed=9)
    second = coadjoint.sample_orbit(algebra, f, 64, seed=9)
    np.testing.assert_array_equal(first, second)
    assert np.all(first[:, 3] * f[3] > 0)
    assert np.all(first[:, 4] * f[4] > 0)


def test_sample_orbit_sign_behavior_of_shear_family():
    """G11 preserves the fifth coordinate's sign but can flip the fourth."""
    algebra = catalog.build("G11", ())
    f = np.array([0.4, -0.3, 1.1, 0.8, -0.9, 0.0, 0.0])
    points = coadjoint.sample_orbit(algebra, f, 256, seed=9)
    assert np.all(points[:, 4] * f[4] > 0)


def test_empty_batches_give_empty_results():
    """Zero orbit points and zero group elements give empty arrays, as the
    orbit dimension of an empty batch already does."""
    algebra = catalog.build("G4", (0, 2))
    f = np.array([0.4, -0.3, 1.1, 0.8, -0.9, 0.0, 0.0])
    assert coadjoint.sample_orbit(algebra, f, 0, seed=9).shape == (0, 7)
    det, exp_trace = coadjoint.jacobian_check(algebra, np.zeros((0, 7)))
    assert det.shape == exp_trace.shape == (0,)
    assert np.shape(coadjoint.orbit_dimension(algebra, np.zeros((0, 7)))) == (0,)


GRID_SHAPES = {
    "one-by-one": ((7,), (7,), (7,)),
    "one-by-batch": ((7,), (5, 7), (5, 7)),
    "batch-by-one": ((6, 7), (7,), (6, 7)),
    "batch-by-batch": ((6, 7), (5, 7), (6, 5, 7)),
    "stack-by-batch": ((2, 3, 7), (4, 7), (2, 3, 4, 7)),
    "batch-by-wide-batch": ((6, 7), (9, 7), (6, 9, 7)),
    "empty-u": ((0, 7), (5, 7), (0, 5, 7)),
    "empty-f": ((6, 7), (0, 7), (6, 0, 7)),
}


@pytest.mark.parametrize("family", catalog.FAMILIES)
@pytest.mark.parametrize(
    "u_shape, f_shape, image_shape", GRID_SHAPES.values(), ids=GRID_SHAPES.keys()
)
def test_coadjoint_act_images_every_functional_under_every_element(
    family, u_shape, f_shape, image_shape
):
    """coadjoint_act returns the (group element x functional) grid of
    images, bit for bit the matrix products of the functionals with the
    stack of action matrices."""
    algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
    u = rng.sample_coordinates(0, math.prod(u_shape[:-1]), "grid-u", family).reshape(u_shape)
    f = rng.sample_functionals(0, math.prod(f_shape[:-1]), "grid-f", family).reshape(f_shape)
    images = coadjoint.coadjoint_act(algebra, u, f)
    assert images.shape == image_shape
    actions = liecore.exp_matrix(algebra.ad(u.reshape(-1, 7)))
    expected = np.matmul(f.reshape(-1, 7), actions).reshape(image_shape)
    assert np.array_equal(images, expected)


def test_sample_orbit_names_the_first_element_whose_exponential_overflows():
    """At a huge parameter the action overflows; the error names the first
    orbit element whose own exponential overflows."""
    algebra = catalog.build("G12", (1e300,))
    f = np.array([0.4, -0.3, 1.1, 0.8, -0.9, 0.0, 0.0])
    with pytest.raises(DomainError) as exc:
        coadjoint.sample_orbit(algebra, f, 50, seed=9)
    named = [float(x) for x in re.search(r"\[(.*)\]", str(exc.value))[1].split(",")]

    def overflows(element: np.ndarray) -> bool:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                liecore.exp_matrix(algebra.ad(element))
        except DomainError:
            return True
        return False

    elements = coadjoint.orbit_elements(algebra, 50, seed=9)
    first = next(k for k, element in enumerate(elements) if overflows(element))
    assert named == elements[first].tolist()


def test_coadjoint_act_on_a_wide_grid_names_the_first_element_whose_exponential_overflows():
    """Nine functionals take the stacked path, whose overflow check sits in
    exp_matrix's spans; the error still names the first element whose own
    exponential overflows, not merely one of the grid's."""
    algebra = catalog.build("G12", (1e300,))
    f = np.random.default_rng(9).normal(size=(9, 7))
    elements = coadjoint.orbit_elements(algebra, 50, seed=9)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError) as exc:
            coadjoint.coadjoint_act(algebra, elements, f)
        overflowing = []
        for k, element in enumerate(elements):
            try:
                liecore.exp_matrix(algebra.ad(element))
            except DomainError:
                overflowing.append(k)
    assert overflowing and overflowing[0] > 0, overflowing
    message = str(exc.value)
    assert message.startswith("matrix exponential overflowed for algebra element ["), message
    named = [float(x) for x in re.search(r"\[(.*)\]", message)[1].split(",")]
    assert named == elements[overflowing[0]].tolist()


def test_orbit_points_name_the_overflowing_element_over_several_leading_axes():
    """Elements with two leading axes: the error names the one element whose
    image overflows, as it does for the same elements flattened."""
    algebra = catalog.build("G13", (HALF,))
    u = np.zeros((2, 3, 7))
    u[1, 2, 5] = 1.0
    f = np.full(7, 1e308)
    for elements in (u, u.reshape(6, 7)):
        with pytest.raises(DomainError, match=re.escape(str(u[1, 2].tolist()))):
            coadjoint.orbit_points(algebra, f, elements)
