"""Coadjoint action, orbit dimensions, predicates, and orbit types."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from korbit import catalog, coadjoint, rng, verify
from korbit.liecore import UnsupportedFamilyError, numeric_rank

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


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_orbit_dimension_equals_svd_rank_on_every_grid_entry(family):
    """The Pfaffian-certified orbit dimension equals the SVD rank of the
    Kirillov form row by row, at the representative parameters and at
    every default grid entry, planted zeros and the origin included."""
    grid = (verify.REPRESENTATIVE_PARAMS[family],) + catalog.default_parameter_grid(family)
    for params in grid:
        algebra = catalog.build(family, params)
        f = _rank_pool(0, 800, family, *params)
        np.testing.assert_array_equal(
            coadjoint.orbit_dimension(algebra, f),
            numeric_rank(algebra.kirillov(f)),
            err_msg=f"{family} {params}",
        )


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
