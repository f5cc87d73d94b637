"""Generating vector fields, flows, and orbit invariants."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korbit import catalog, coadjoint, foliation, rng, topology, verify
from korbit.liecore import (
    PAIRING_TOL_FLOOR,
    DomainError,
    LieAlgebra7,
    UnsupportedFamilyError,
    numeric_rank,
)

HALF = Fraction(1, 2)
FLOW_TOL = 1e-9
RK4_ORACLE_ATOL = 1e-11
INVOLUTIVITY_TOL = 1e-9


def test_system_has_six_affine_fields():
    """Every supported family generates with exactly six affine fields."""
    for family in sorted(foliation.SYSTEM_FAMILIES):
        fields = foliation.system_fields(family, verify.REPRESENTATIVE_PARAMS[family])
        assert len(fields) == 6
        for field in fields:
            assert field.linear.shape == (7, 7)
            assert field.const.shape == (7,)


def test_middle_fields_are_the_derivations_in_record_order():
    """Fields two and three are the derivations on coordinates 2..5; G1
    lists the second derivation first."""
    fields = foliation.system_fields("G1", (1,))
    np.testing.assert_array_equal(fields[1].linear[1:5, 1:5], np.diag([0.0, 1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(fields[2].linear[1:5, 1:5], np.diag([-1.0, 0.0, 0.0, 1.0]))
    for field in fields[1:3]:
        linear = field.linear.copy()
        linear[1:5, 1:5] = 0.0
        assert not linear.any() and not field.const.any()


def test_translation_fields_are_constant():
    """The first, fifth, and sixth fields translate fixed coordinates."""
    fields = foliation.system_fields("G7", ())
    v = rng.sample_coordinates(2, 4, "translation")
    values = foliation.field_values(fields, v)
    for slot, coord in ((0, 0), (4, 5), (5, 6)):
        expected = np.zeros(7)
        expected[coord] = 1.0
        np.testing.assert_array_equal(values[:, slot], np.broadcast_to(expected, (4, 7)))


def test_field_bracket_of_affine_fields():
    """The bracket of two affine fields follows the matrix commutator."""
    a = foliation.LinearVectorField(np.diag(np.arange(7.0)), np.ones(7))
    b = foliation.LinearVectorField(np.eye(7, k=1), np.zeros(7))
    bracket = a.bracket(b)
    expected_linear = b.linear @ a.linear - a.linear @ b.linear
    np.testing.assert_array_equal(bracket.linear, expected_linear)
    np.testing.assert_array_equal(bracket.const, b.linear @ np.ones(7))


def test_closed_flow_known_values():
    """Hand-computed flow points for the scaling and rotation families."""
    out = foliation.flow_closed("G4", (1, 0), 2, math.log(2.0), np.array([0.0, 0, 1, 1, 1, 0, 0]))
    np.testing.assert_allclose(out, [0, 0, 2, 2, 4, 0, 0], atol=1e-14)
    out = foliation.flow_closed("G13", (0,), 3, math.pi / 2, np.array([0.0, 1, 0, 1, 0, 0, 0]))
    np.testing.assert_allclose(out, [0, 0, -1, 0, -1, 0, 0], atol=1e-13)
    out = foliation.flow_closed("G12", (HALF,), 4, 2.0, np.array([0.0, 0, 0, 1, 1, 0, 0]))
    np.testing.assert_allclose(out[1:3], [2.0, 2.0], atol=1e-14)


def test_closed_flows_match_numeric_integration():
    """Closed-form flows track Runge-Kutta integration of the fields."""
    for family in sorted(catalog.families_with(catalog.ClosedForm.FLOWS)):
        params = verify.REPRESENTATIVE_PARAMS[family]
        fields = foliation.system_fields(family, params)
        t = rng.generator(4, "t", family).uniform(-1, 1, 20)
        v = rng.sample_coordinates(4, 20, "start", family)
        for index in range(1, 7):
            closed = foliation.flow_closed(family, params, index, t, v)
            numeric = foliation.flow_numeric(fields[index - 1], t, v, steps=400)
            np.testing.assert_allclose(closed, numeric, atol=2e-8)


def _rk4_loop(field, t, v, steps):
    """Reference: the step-by-step RK4 loop that flow_numeric must equal."""
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    y = np.array(np.broadcast_to(v, np.broadcast_shapes(t.shape + (1,), v.shape)), copy=True)
    h = (np.broadcast_to(t, y.shape[:-1]) / steps)[..., None]
    for _ in range(steps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_flow_numeric_matches_rk4_loop():
    """The powered step matrix equals the step-by-step RK4 loop for every
    field of four families, at step counts that are and are not powers of
    two."""
    for family in ("G4", "G12", "G13", "G16"):
        params = verify.REPRESENTATIVE_PARAMS[family]
        t = rng.generator(6, "t", family).uniform(-1, 1, 12)
        v = rng.sample_coordinates(6, 12, "start", family)
        for field in foliation.system_fields(family, params):
            for steps in (1, 2, 7, 400, 512, 1000):
                np.testing.assert_allclose(
                    foliation.flow_numeric(field, t, v, steps),
                    _rk4_loop(field, t, v, steps),
                    rtol=0,
                    atol=RK4_ORACLE_ATOL,
                )


def test_flow_numeric_broadcasts_like_rk4_loop():
    """Scalar, negative and 2-D times broadcast against the starts exactly
    as the loop does, and a zero time returns the starts unchanged."""
    field = foliation.system_fields("G13", (HALF,))[2]
    v = rng.sample_coordinates(7, 4, "broadcast")
    for t in (0.7, -0.9, np.array([[0.3], [-0.5], [1.0]])):
        numeric = foliation.flow_numeric(field, t, v, 7)
        expected = _rk4_loop(field, t, v, 7)
        assert numeric.shape == expected.shape
        np.testing.assert_allclose(numeric, expected, rtol=0, atol=RK4_ORACLE_ATOL)
    assert foliation.flow_numeric(field, -0.4, v[0], 9).shape == (7,)
    np.testing.assert_array_equal(foliation.flow_numeric(field, 0.0, v, 512), v)
    with pytest.raises(ValueError):
        foliation.flow_numeric(field, 0.5, v, steps=0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    t=st.floats(min_value=-1.0, max_value=1.0),
    steps=st.integers(min_value=1, max_value=64),
)
def test_flow_numeric_matches_rk4_loop_on_random_affine_fields(seed, t, steps):
    """Any affine field with entries in [-1, 1] integrates like the loop,
    relative to the size of the endpoint."""
    gen = np.random.default_rng(seed)
    field = foliation.LinearVectorField(gen.uniform(-1, 1, (7, 7)), gen.uniform(-1, 1, 7))
    v = gen.uniform(-2, 2, (5, 7))
    expected = _rk4_loop(field, t, v, steps)
    scale = 1.0 + float(np.abs(expected).max())
    np.testing.assert_allclose(
        foliation.flow_numeric(field, t, v, steps), expected, rtol=0, atol=RK4_ORACLE_ATOL * scale
    )


def test_flow_result_fails_on_a_nan_residual(monkeypatch):
    """A NaN endpoint fails the flow check and is reported as the worst
    sample, even after finite residuals from earlier fields."""
    family, params, starts, planted = "G13", (HALF,), 20, 13
    real = foliation.flow_numeric
    calls = []

    def flow_with_nan(field, t, v, steps=1000):
        out = real(field, t, v, steps)
        calls.append(field)
        if len(calls) == 4:
            out[planted, 2] = np.nan
        return out

    monkeypatch.setattr(foliation, "flow_numeric", flow_with_nan)
    result = verify.flow_result(family, params, starts=starts)
    v = rng.sample_coordinates(0, starts, "flow-start", family, *params)
    assert len(calls) == 6
    assert not result.passed
    assert math.isnan(result.max_residual)
    assert result.worst_sample == tuple(float(x) for x in v[planted])
    assert result.n_evaluated == 6 * starts


def test_flow_group_property():
    """Flowing for s then t equals flowing for s + t."""
    params = (HALF,)
    s, t = 0.4, -0.9
    v = rng.sample_coordinates(5, 8, "group")
    once = foliation.flow_closed("G12", params, 2, s + t, v)
    twice = foliation.flow_closed("G12", params, 2, t, foliation.flow_closed("G12", params, 2, s, v))
    np.testing.assert_allclose(once, twice, rtol=1e-12, atol=1e-12)


def test_invariant_known_values():
    """Hand-computed invariant values for three families."""
    assert math.isclose(
        float(foliation.invariant("G4", (0, 2), np.array([0.0, 2, 0, 1, 1, 0, 0]))), 2.0
    )
    assert math.isclose(
        float(foliation.invariant("G12", (0,), np.array([0.0, 3, 0, 0, 1, 0, 0]))), 3.0
    )
    assert math.isclose(
        float(foliation.invariant("G13", (0,), np.array([0.0, 1, 0, 0, 1, 0, 0]))), 1.0
    )


def test_invariant_requires_the_foliated_manifold():
    """Evaluating the invariant off its manifold raises DomainError."""
    with pytest.raises(DomainError):
        foliation.invariant("G4", (0, 2), np.array([1.0, 1, 1, 0, 1, 0, 0]))
    with pytest.raises(UnsupportedFamilyError):
        foliation.invariant("G3", (), np.ones(7))


def test_invariant_constant_along_closed_flows():
    """The cataloged invariants are first integrals of the closed flows."""
    cases = (("G4", (0, 2)), ("G12", (HALF,)), ("G13", (HALF,)))
    t = 0.37
    for family, params in cases:
        v = rng.sample_coordinates(6, 40, "firstintegral", family)
        v = v[topology.boundary_margin(topology.manifold_of(family), v) > 0.1]
        base = foliation.invariant(family, params, v)
        for index in range(1, 7):
            moved = foliation.flow_closed(family, params, index, t, v)
            keep = topology.boundary_margin(topology.manifold_of(family), moved) > 1e-6
            if family == "G13" and index == 3:
                # the rotation advances the angle in the invariant by
                # exactly t, so drop starts whose angle branch would change
                phase = np.arctan2(v[:, 3], v[:, 4])
                edge = math.pi / 2
                keep &= np.floor((phase - edge) / math.pi) == np.floor(
                    (phase + t - edge) / math.pi
                )
            value = foliation.invariant(family, params, moved[keep])
            np.testing.assert_allclose(value, base[keep], rtol=1e-9, atol=1e-9)


def test_distribution_matches_pairing_rank():
    """Field span equals the pairing image at generic points."""
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        algebra = catalog.build(family, params)
        v = rng.sample_coordinates(7, 300, "span", family)
        keep = topology.boundary_margin(topology.manifold_of(family), v) > 0.05
        keep &= coadjoint.condition_margin(family, v) > 0.05
        assert np.all(foliation.distribution_equiv(algebra, v[keep]))


def test_involutivity_residual_small_on_generic_points():
    """All fifteen field brackets stay in the span at sampled points."""
    for family in ("G1", "G11", "G13", "G16"):
        params = verify.REPRESENTATIVE_PARAMS[family]
        v = rng.sample_coordinates(8, 200, "involutivity", family)
        keep = topology.boundary_margin(topology.manifold_of(family), v) > 0.05
        residual = foliation.involutivity_residual(family, params, v[keep])
        assert float(residual.max()) <= INVOLUTIVITY_TOL


def _span_points(family: str, count: int = 120) -> np.ndarray:
    """Points on the family's manifold of every kind the span certificate
    must decide as the SVD does: generic points, each coordinate stratum
    (a subset of x2..x5 set to zero), the G1 quadric x2 = x3 x4 / x5 (where
    G1's pairing matrix has rank 4), and generic points scaled by 1e-6."""
    base = rng.sample_coordinates(11, count, "span-certificate", family)
    quadric = base.copy()
    quadric[:, 1] = base[:, 2] * base[:, 3] / base[:, 4]
    sets = [base, quadric, base * 1e-6]
    for size in range(1, 5):
        for zeros in itertools.combinations(range(1, 5), size):
            planted = base.copy()
            planted[:, list(zeros)] = 0.0
            sets.append(planted)
    v = np.concatenate(sets)
    return v[topology.contains(topology.manifold_of(family), v)]


def _three_ranks(algebra, v: np.ndarray, tol: float) -> np.ndarray:
    """Reference: the field values, the pairing matrix and their stack each
    have SVD rank six, field by field and without any certificate."""
    fields = foliation.system_fields(algebra.family, algebra.params)
    span = np.stack([field(v) for field in fields], axis=-2)
    pairing = algebra.kirillov(v)
    stacked = np.concatenate([span, pairing], axis=-2)
    return (
        (numeric_rank(span, tol) == 6)
        & (numeric_rank(pairing, tol) == 6)
        & (numeric_rank(stacked, tol) == 6)
    )


def _svd_projection(family: str, params, v: np.ndarray) -> np.ndarray:
    """Reference: the largest norm of a bracket's component off the span of
    the six right singular vectors of the field values, pair by pair."""
    fields = foliation.system_fields(family, tuple(params))
    v = np.asarray(v, dtype=float)
    span = np.stack([field(v) for field in fields], axis=-2)
    _, _, vh = np.linalg.svd(span, full_matrices=False)
    worst = np.zeros(v.shape[:-1])
    for i in range(6):
        for j in range(i + 1, 6):
            w = fields[i].bracket(fields[j])(v)
            coords = np.einsum("...kj,...j->...k", vh, w)
            tangent = np.einsum("...kj,...k->...j", vh, coords)
            worst = np.maximum(worst, np.linalg.norm(w - tangent, axis=-1))
    return worst


def _planted(monkeypatch, slot: int, field) -> None:
    """Replace field ``slot`` of every generating system with ``field``."""
    original = foliation.system_fields

    def planted(family, params=()):
        fields = list(original(family, params))
        fields[slot] = field(fields)
        return tuple(fields)

    monkeypatch.setattr(foliation, "system_fields", planted)


def _non_involutive(fields):
    """A field whose brackets leave the span and whose values leave the
    orbit tangent space: a fixed random linear field in place of the shear."""
    linear = np.random.default_rng(5).standard_normal((7, 7))
    return foliation.LinearVectorField(linear, np.zeros(7))


def _repeated_translation(fields):
    """The sixth coordinate's translation again in place of the seventh's,
    so the six values span five dimensions, all of them tangent, and every
    bracket stays inside those five."""
    return fields[4]


def _tilted_translation(fields):
    """A translation along e6 + e2/2 in place of the sixth coordinate's.
    Wherever e2 is tangent the six values span the same distribution as
    before, but the row is not the unit row e6 that the closed-form normal
    relies on."""
    const = np.zeros(7)
    const[[1, 5]] = 0.5, 1.0
    return foliation.LinearVectorField(np.zeros((7, 7)), const)


def _determinant_normal(span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: n_j = (-1)^j det(S without column j), columns counted
    from 0, by LU determinants of S scaled by its largest entry, and the
    scaled S's |S|_F^6."""
    scaled = span / np.abs(span).max(axis=(-2, -1), keepdims=True)
    normal = np.stack(
        [(-1) ** j * np.linalg.det(np.delete(scaled, j, axis=-1)) for j in range(7)], axis=-1
    )
    return normal, np.sum(scaled * scaled, axis=(-2, -1)) ** 3


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
@pytest.mark.parametrize(
    ("slot", "plant"),
    [(None, None), (3, _non_involutive), (5, _repeated_translation)],
    ids=["catalog", "non-tangent", "five-dimensional"],
)
def test_normal_equals_the_determinant_expansion(slot, plant, scale):
    """On generic, stratum, quadric and scaled points of all twelve
    systems, and of two planted ones, the closed-form normal is the signed
    6x6 determinant expansion to 1e-14 |S|_F^6, point by point."""
    for family in sorted(foliation.SYSTEM_FAMILIES):
        fields = list(foliation.system_fields(family, verify.REPRESENTATIVE_PARAMS[family]))
        if plant is not None:
            fields[slot] = plant(fields)
        span = foliation.field_values(fields, _span_points(family) * scale)
        normal, frob6 = foliation._normal(span)
        reference, reference_frob6 = _determinant_normal(span)
        assert np.all(np.isfinite(normal)) and np.all(np.isfinite(frob6)), family
        np.testing.assert_allclose(frob6, reference_frob6, rtol=1e-14, atol=0, err_msg=family)
        error = np.abs(normal - reference).max(axis=-1)
        assert np.all(error <= 1e-14 * reference_frob6), family


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-13])
def test_distribution_decision_equals_three_svd_ranks(tol):
    """On generic, stratum, quadric and scaled points of all twelve
    families the verdict is the three-SVD verdict, point by point; below
    the floor no point is certified."""
    decided = 0
    for family in sorted(foliation.SYSTEM_FAMILIES):
        algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
        v = _span_points(family)
        spans, certified = foliation.distribution_decision(algebra, v, tol)
        np.testing.assert_array_equal(spans, _three_ranks(algebra, v, tol), err_msg=family)
        assert np.all(spans[certified]), family
        decided += int(np.count_nonzero(certified))
    if tol < PAIRING_TOL_FLOOR:
        assert decided == 0
    else:
        assert decided > 0


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_distribution_decision_equals_three_svd_ranks_on_scaled_points(scale):
    """The points of test_distribution_decision_equals_three_svd_ranks
    scaled by 1e+-100, at tol 1e-9, 1e-12 (the floor) and 1e-13: the
    verdict is the three-SVD verdict, point by point, and only points with
    rank six are certified, none below the floor."""
    for family in sorted(foliation.SYSTEM_FAMILIES):
        algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
        v = _span_points(family) * scale
        for tol in (1e-9, 1e-12, 1e-13):
            message = f"{family} {scale} {tol}"
            spans, certified = foliation.distribution_decision(algebra, v, tol)
            np.testing.assert_array_equal(spans, _three_ranks(algebra, v, tol), err_msg=message)
            assert np.all(spans[certified]), message
            assert tol >= PAIRING_TOL_FLOOR or not certified.any(), message


def test_distribution_decision_without_the_g52_pattern_uses_the_svd():
    """An algebra whose nilradical generators pair off the g5,2 pattern
    (here G13 with [e2, e3] = e6 added, not a Lie algebra) has no pairing
    operand, so no point is certified and the SVDs give the verdict."""
    g13 = catalog.build("G13", verify.REPRESENTATIVE_PARAMS["G13"])
    brackets = {**g13.brackets, (1, 2): {5: 1}}
    algebra = LieAlgebra7(g13.family, g13.params, brackets)
    assert g13.pairing_operand is not None and algebra.pairing_operand is None
    v = _span_points("G13")
    spans, certified = foliation.distribution_decision(algebra, v)
    assert not certified.any()
    np.testing.assert_array_equal(spans, _three_ranks(algebra, v, 1e-9))


def test_distribution_certifies_every_campaign_point():
    """Every point distribution_result draws is decided without SVD at
    its default tolerance, and G1's quadric points, whose pairing matrix
    has rank 4, fail."""
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        algebra = catalog.build(family, params)
        points = verify._foliation_points(family, params, 500, 0, "distribution")
        spans, certified = foliation.distribution_decision(algebra, points)
        assert spans.all() and certified.all(), family
    algebra = catalog.build("G1", verify.REPRESENTATIVE_PARAMS["G1"])
    v = rng.sample_coordinates(12, 200, "quadric")
    v[:, 1] = v[:, 2] * v[:, 3] / v[:, 4]
    assert not np.any(foliation.distribution_equiv(algebra, v))


@pytest.mark.parametrize(
    ("slot", "plant"),
    [(3, _non_involutive), (5, _repeated_translation)],
    ids=["non-tangent", "five-dimensional"],
)
def test_distribution_decision_equals_three_svd_ranks_on_planted_systems(slot, plant, monkeypatch):
    """A system whose values leave the tangent space, and one whose values
    span only five dimensions, fail where the SVD says they fail."""
    _planted(monkeypatch, slot, plant)
    for family in sorted(foliation.SYSTEM_FAMILIES):
        algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
        v = _span_points(family, count=40)
        spans = foliation.distribution_equiv(algebra, v)
        np.testing.assert_array_equal(spans, _three_ranks(algebra, v, 1e-9), err_msg=family)
        assert not spans.all(), family


def test_distribution_equiv_shapes():
    """A single point gives a bool, an empty batch an empty array, and a
    batch keeps its leading axes."""
    algebra = catalog.build("G13", verify.REPRESENTATIVE_PARAMS["G13"])
    v = rng.sample_coordinates(13, 12, "span-shapes", "G13")
    assert foliation.distribution_equiv(algebra, v[0]) is True
    empty = foliation.distribution_equiv(algebra, np.zeros((0, 7)))
    assert empty.shape == (0,) and empty.dtype == bool
    assert foliation.distribution_equiv(algebra, v.reshape(3, 4, 7)).shape == (3, 4)
    params = verify.REPRESENTATIVE_PARAMS["G13"]
    assert foliation.involutivity_residual("G13", params, v[0]).shape == ()
    empty = foliation.involutivity_residual("G13", params, np.zeros((0, 7)))
    assert empty.shape == (0,)
    assert foliation.involutivity_residual("G13", params, v.reshape(3, 4, 7)).shape == (3, 4)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(foliation.SYSTEM_FAMILIES)),
    coords=st.lists(st.floats(-4.0, 4.0), min_size=7, max_size=7),
    zeros=st.sets(st.integers(1, 4)),
    scale=st.sampled_from([1.0, 1e-6]),
    tol=st.sampled_from([1e-9, 1e-13]),
)
def test_distribution_equiv_matches_three_svd_ranks_property(family, coords, zeros, scale, tol):
    """Any point, with any stratum planted and at either scale, gets the
    three-SVD verdict, or DomainError off the manifold."""
    algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
    v = np.array(coords)
    v[list(zeros)] = 0.0
    v *= scale
    if not topology.contains(topology.manifold_of(family), v):
        with pytest.raises(DomainError):
            foliation.distribution_equiv(algebra, v, tol)
        return
    assert foliation.distribution_equiv(algebra, v, tol) == bool(_three_ranks(algebra, v, tol))


def test_involutivity_matches_the_svd_projection():
    """On generic, stratum, quadric and scaled points of all twelve
    families the residual is the SVD projection's to 1e-13."""
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        v = _span_points(family)
        residual, certified = foliation.involutivity_decision(family, params, v)
        np.testing.assert_allclose(residual, _svd_projection(family, params, v), rtol=0, atol=1e-13)
        assert certified.any(), family


def test_planted_non_involutive_system_fails_with_the_svd_residual(monkeypatch):
    """Brackets that leave the span give the SVD projection's residual to
    1e-12 relative, and the involutivity check fails."""
    _planted(monkeypatch, 3, _non_involutive)
    params = verify.REPRESENTATIVE_PARAMS["G13"]
    v = rng.sample_coordinates(14, 300, "planted-brackets", "G13")
    residual, certified = foliation.involutivity_decision("G13", params, v)
    assert certified.all()
    reference = _svd_projection("G13", params, v)
    np.testing.assert_allclose(residual, reference, rtol=1e-12, atol=0)
    assert reference.min() > 1e-3
    result = verify.involutivity_result("G13", params, samples=200)
    assert not result.passed and result.max_residual > 1e-3


def test_rank_deficient_system_keeps_the_svd_projection(monkeypatch):
    """Where the six values span five dimensions the minors vector is zero,
    so every point goes to the SVD, whose residual stays at rounding level
    since the brackets stay in those five dimensions."""
    _planted(monkeypatch, 5, _repeated_translation)
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        v = _span_points(family, count=40)
        residual, certified = foliation.involutivity_decision(family, params, v)
        assert not certified.any(), family
        np.testing.assert_allclose(residual, _svd_projection(family, params, v), rtol=0, atol=1e-13)


def test_tilted_translation_goes_to_the_svd(monkeypatch):
    """A translation that is not a unit row gives no closed-form normal, so
    neither check certifies a point: the span verdicts are the three-SVD
    verdicts, some of them true, and the residuals the SVD projection's."""
    _planted(monkeypatch, 4, _tilted_translation)
    spanned = 0
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        algebra = catalog.build(family, params)
        v = _span_points(family, count=40)
        spans, certified = foliation.distribution_decision(algebra, v)
        assert not certified.any(), family
        np.testing.assert_array_equal(spans, _three_ranks(algebra, v, 1e-9), err_msg=family)
        spanned += int(np.count_nonzero(spans))
        residual, certified = foliation.involutivity_decision(family, params, v)
        assert not certified.any(), family
        np.testing.assert_allclose(residual, _svd_projection(family, params, v), rtol=0, atol=1e-13)
    assert spanned > 0


@pytest.mark.parametrize(
    "point",
    [[1.0, 2.0, 3.0, 0.0, 0.0, 1.0, 1.0], [1.0, 2.0, 3.0, math.nan, 1.0, 1.0, 1.0]],
    ids=["off-manifold", "nan"],
)
def test_foliation_checks_raise_off_the_manifold(point):
    """G13 at x4 = x5 = 0, where the fields span less than six dimensions,
    and a NaN coordinate raise DomainError instead of a residual."""
    params = verify.REPRESENTATIVE_PARAMS["G13"]
    with pytest.raises(DomainError):
        foliation.involutivity_residual("G13", params, np.array(point))
    with pytest.raises(DomainError):
        foliation.distribution_equiv(catalog.build("G13", params), np.array(point))


def test_fields_annihilate_the_invariant():
    """Directional derivatives of the invariant along the fields vanish."""
    for family, params in (("G4", (0, 2)), ("G13", (HALF,))):
        v = rng.sample_coordinates(9, 100, "annihilate", family)
        keep = topology.boundary_margin(topology.manifold_of(family), v) > 0.25
        residual = foliation.annihilation_residual(family, params, v[keep])
        assert float(np.max(residual)) < 1e-6


def test_unsupported_system_families_raise():
    """Families without a cataloged system are rejected by name."""
    with pytest.raises(UnsupportedFamilyError):
        foliation.system_fields("G2", ())
    with pytest.raises(UnsupportedFamilyError):
        foliation.flow_closed("G7", (), 1, 0.5, np.zeros(7))
