"""Generating vector fields, flows, and orbit invariants."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korbit import catalog, coadjoint, foliation, rng, topology, verify
from korbit.liecore import DomainError, UnsupportedFamilyError

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
    for family in sorted(foliation.FLOW_FAMILIES):
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
