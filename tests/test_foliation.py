"""Generating vector fields, flows, and orbit invariants."""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korbit import catalog, coadjoint, foliation, liecore, rng, topology, verify
from korbit.liecore import DomainError, UnsupportedFamilyError, numeric_rank

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
    values = np.stack([field(v) for field in fields], axis=-2)
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


def _three_ranks(algebra, v: np.ndarray, tol: float) -> np.ndarray:
    """Reference: the field values, the pairing matrix and their stack each
    have SVD rank six, field by field."""
    fields = foliation.system_fields(algebra.family, algebra.params)
    span = np.stack([field(v) for field in fields], axis=-2)
    pairing = algebra.kirillov(v)
    stacked = np.concatenate([span, pairing], axis=-2)
    return (
        (numeric_rank(span, tol) == 6)
        & (numeric_rank(pairing, tol) == 6)
        & (numeric_rank(stacked, tol) == 6)
    )


def _pair_projections(family: str, params, v: np.ndarray) -> list[np.ndarray]:
    """Reference: for each of the fifteen brackets, in certificate order,
    the norm of its component off the span of the six right singular
    vectors of the field values at each point."""
    fields = foliation.system_fields(family, tuple(params))
    span = np.stack([field(v) for field in fields], axis=-2)
    _, _, vh = np.linalg.svd(span, full_matrices=False)
    out = []
    for f, g in itertools.combinations(fields, 2):
        w = f.bracket(g)(v)
        tangent = np.einsum("...kj,...k->...j", vh, np.einsum("...kj,...j->...k", vh, w))
        out.append(np.linalg.norm(w - tangent, axis=-1))
    return out


def _generic_points(family: str, count: int = 60) -> np.ndarray:
    v = rng.sample_coordinates(8, count, "certificate", family)
    return v[topology.boundary_margin(topology.manifold_of(family), v) > 0.05]


def _span_points(family: str, count: int = 120) -> np.ndarray:
    """Points on the family's manifold of every kind a float reference
    must get right: generic points, each coordinate stratum (a subset of
    x2..x5 set to zero), the G1 quadric x2 = x3 x4 / x5 (where G1's
    pairing matrix has rank 4), and generic points scaled by 1e-6."""
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


def _svd_projection(family: str, params, v: np.ndarray) -> np.ndarray:
    """Reference: the largest of the fifteen _pair_projections."""
    return np.max(_pair_projections(family, params, v), axis=0)


def _rational_points(family: str, count: int = 12) -> list[tuple[Fraction, ...]]:
    """Rational points on the family's manifold: generic ones with
    coordinates in quarters, each coordinate stratum of them (a subset of
    x2..x5 set to zero), and their G1 quadric x2 = x3 x4 / x5."""
    gen = np.random.default_rng(17)
    points = []
    for _ in range(count):
        base = [Fraction(int(k), 4) for k in gen.integers(-16, 17, 7)]
        if base[4]:
            points.append((base[0], base[2] * base[3] / base[4], *base[2:]))
        for size in range(5):
            for zeros in itertools.combinations(range(1, 5), size):
                points.append(tuple(0 if i in zeros else x for i, x in enumerate(base)))
    keep = topology.contains(topology.manifold_of(family), np.array(points, dtype=float))
    return [point for point, kept in zip(points, keep) if kept]


def _assert_catalog_certificates_hold() -> None:
    for family in sorted(foliation.SYSTEM_FAMILIES):
        span, relation = foliation.span_certificate(family)
        brackets, bracket_relation = foliation.bracket_certificate(family)
        assert len(span) == 7 and all(span.values()), (family, span)
        assert len(brackets) == 15 and all(brackets.values()), (family, brackets)
        sign = "+" if catalog.record(family).swapped else "−"
        assert relation == bracket_relation == f"n = {sign}p ≢ 0", family


def test_every_cataloged_system_holds_every_identity():
    """All seven span identities and all fifteen bracket identities hold
    on the twelve systems, for every parameter value; n = +p on the two
    records that list the second derivation first, n = -p elsewhere."""
    _assert_catalog_certificates_hold()
    assert {f for f in foliation.SYSTEM_FAMILIES if catalog.record(f).swapped} == {"G1", "G6"}


def test_pfaffian_polynomials_equal_the_float_certificate():
    """p from pfaffian_polynomials at random rational functionals, divided
    by the cube of the largest pairing entry, is to rounding the float p
    that _pfaffian gives on the pairing entries divided by the largest, on
    all sixteen families."""
    gen = np.random.default_rng(3)
    for family in catalog.FAMILIES:
        params = verify.REPRESENTATIVE_PARAMS[family]
        algebra = catalog.build(family, params)
        polynomials = liecore.pfaffian_polynomials(family)
        for _ in range(5):
            f = tuple(Fraction(int(k), 7) for k in gen.integers(-20, 21, 7))
            entries = algebra.pairing_operand @ np.array(f, dtype=float)[:, None]
            scale = np.abs(entries).max()
            u = entries[:, 0] * (1.0 / scale)
            p = np.array([0.0, *liecore._pfaffian(u[0], u[1], u[4:12:2], u[5:12:2]), 0.0, 0.0])
            exact = np.array([float(q(f + params)) for q in polynomials]) / scale**3
            np.testing.assert_allclose(p, exact, rtol=0, atol=1e-14, err_msg=family)


def test_exact_matrices_are_the_float_fields():
    """system_fields is system_matrices in floats, field by field, at the
    representative parameters and every default grid entry."""
    for family in sorted(foliation.SYSTEM_FAMILIES):
        grid = (verify.REPRESENTATIVE_PARAMS[family],) + catalog.default_parameter_grid(family)
        for params in grid:
            linear, const = foliation.system_matrices(family, params)
            fields = foliation.system_fields(family, params)
            for field, l, c in zip(fields, linear, const, strict=True):
                np.testing.assert_array_equal(field.linear, l.astype(float))
                np.testing.assert_array_equal(field.const, c.astype(float))


@pytest.mark.parametrize("family", sorted(foliation.SYSTEM_FAMILIES))
def test_p_decides_the_float_span_at_rational_points(family):
    """n = ±p says the six fields span exactly where p ≠ 0, that is where
    the pairing matrix has rank six.  At rational points on the manifold,
    generic, on every stratum of x2..x5 and on G1's quadric, the float
    ranks of distribution_equiv agree with p's exact value, point by
    point.  p vanishes on G1's manifold exactly on the quadric
    x2 x5 = x3 x4, some strata included, and nowhere on the others'."""
    params = verify.REPRESENTATIVE_PARAMS[family]
    points = _rational_points(family)
    polynomials = liecore.pfaffian_polynomials(family)
    exact = np.array([any(q(point + params) for q in polynomials) for point in points])
    spans = foliation.distribution_equiv(
        catalog.build(family, params), np.array(points, dtype=float)
    )
    np.testing.assert_array_equal(spans, exact)
    assert any(0 in point[1:5] for point in points)
    off_quadric = [x2 * x5 != x3 * x4 for _, x2, x3, x4, x5, _, _ in points]
    np.testing.assert_array_equal(exact, off_quadric if family == "G1" else True)


def _planted(monkeypatch, slot: int, plant) -> None:
    """Replace field ``slot`` of every generating system, exact and float,
    by plant(linear, const), which returns its linear part and constant.
    The certificates get a fresh cache, so no answer decided before the
    plant masks it, and the monkeypatch's undo restores the real cache,
    which never saw the plant."""
    original = foliation.system_matrices

    def planted(family, params=()):
        linear, const = original(family, params)
        linear[slot], const[slot] = plant(linear, const)
        return linear, const

    monkeypatch.setattr(foliation, "system_matrices", planted)
    monkeypatch.setattr(
        foliation, "_certificates", functools.cache(foliation._certificates.__wrapped__)
    )


def _random_rational_field(linear, const):
    """A fixed random rational linear field, whose values leave the orbit
    tangent space and whose brackets leave the span."""
    entries = np.random.default_rng(5).integers(-9, 10, (7, 7))
    return np.vectorize(lambda k: Fraction(int(k), 3), otypes=[object])(entries), np.zeros(7, int)


def _repeated_translation(linear, const):
    """The sixth coordinate's translation again, so the six values span
    five dimensions, all of them tangent, and n ≡ 0."""
    return linear[4], const[4]


def _tilted_translation(linear, const):
    """A translation along e6 + e2/2, which is not the unit row e6 that the
    normal's formula relies on."""
    tilted = np.zeros(7, dtype=object)
    tilted[[1, 5]] = Fraction(1, 2), 1
    return np.zeros((7, 7), dtype=int), tilted


def test_a_random_field_in_place_of_the_shear_fails_both_certificates(monkeypatch):
    """The planted field is not tangent and n is no longer ±p, and the
    failing bracket identities are the five pairs with field four, exactly
    those whose float SVD projection leaves the span; the campaigns name
    each failing identity."""
    _planted(monkeypatch, 3, _random_rational_field)
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        span, relation = foliation.span_certificate(family)
        assert relation == "n ≠ ±p", family
        failing = [name for name, holds in span.items() if not holds]
        assert failing == ["F4·p ≡ 0", "n = ±p ≢ 0"], family
        brackets, _ = foliation.bracket_certificate(family)
        failing = [name for name, holds in brackets.items() if not holds]
        assert failing == [name for name in brackets if "F4" in name], (family, failing)
        v = _generic_points(family)
        for (name, holds), residual in zip(brackets.items(), _pair_projections(family, params, v)):
            assert (residual.max() < 1e-9) == holds, (family, name, residual.max())
        result = verify.involutivity_result(family, params)
        assert not result.passed and result.max_residual == len(failing)
        assert result.details.endswith(f"{len(failing)} of 15 fail: " + ", ".join(failing))
        result = verify.distribution_result(family, params)
        assert not result.passed and result.max_residual == 2
        assert result.details.endswith("2 of 7 fail: F4·p ≡ 0, n = ±p ≢ 0")


def test_a_plant_is_never_masked_by_the_cache():
    """Certificates decided before a plant do not hide it: with both
    certificates of all twelve systems already decided, the random field
    in place of the shear still fails F4·p ≡ 0, n = ±p ≢ 0 and the five
    pairs with F4, and once the plant is undone every catalog identity
    holds again."""
    _assert_catalog_certificates_hold()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _planted(monkeypatch, 3, _random_rational_field)
        for family in sorted(foliation.SYSTEM_FAMILIES):
            span, relation = foliation.span_certificate(family)
            brackets, _ = foliation.bracket_certificate(family)
            assert relation == "n ≠ ±p", family
            assert [name for name, holds in span.items() if not holds] == [
                "F4·p ≡ 0",
                "n = ±p ≢ 0",
            ], family
            failing = [name for name, holds in brackets.items() if not holds]
            assert failing == [f"[F{i}, F4]·n ≡ 0" for i in (1, 2, 3)] + [
                f"[F4, F{j}]·n ≡ 0" for j in (5, 6)
            ], family
    _assert_catalog_certificates_hold()


def test_cached_certificates_equal_the_uncached_ones_and_are_not_shared():
    """On all twelve systems the cached identities and relation are those
    of the uncached computation; a caller that mutates its dict changes
    no later answer; and a family without a system raises on every call,
    with nothing cached for it."""
    for family in sorted(foliation.SYSTEM_FAMILIES):
        uncached = foliation._certificates.__wrapped__(family)
        assert foliation._certificates(family) == uncached, family
        span, brackets, relation = uncached
        for certificate, pairs in (
            (foliation.span_certificate, span),
            (foliation.bracket_certificate, brackets),
        ):
            identities, got = certificate(family)
            assert identities == dict(pairs) and got == relation, family
            identities.clear()
            identities["planted"] = False
            assert certificate(family) == (dict(pairs), relation), family
    size = foliation._certificates.cache_info().currsize
    for _ in range(3):
        for certificate in (foliation.span_certificate, foliation.bracket_certificate):
            with pytest.raises(UnsupportedFamilyError):
                certificate("G2")
    assert foliation._certificates.cache_info().currsize == size


def test_a_repeated_translation_fails_both_certificates(monkeypatch):
    """With n ≡ 0 the span identity fails, and so does every bracket
    identity rather than hold vacuously; every field is still tangent, and
    the float ranks agree that the six values never span."""
    _planted(monkeypatch, 3, _repeated_translation)
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        span, relation = foliation.span_certificate(family)
        assert relation == "n ≡ 0", family
        assert [name for name, holds in span.items() if not holds] == ["n = ±p ≢ 0"]
        brackets, _ = foliation.bracket_certificate(family)
        assert not any(brackets.values()), family
        assert verify.distribution_result(family, params).max_residual == 1
        assert verify.involutivity_result(family, params).max_residual == 15
        algebra = catalog.build(family, params)
        assert not foliation.distribution_equiv(algebra, _generic_points(family)).any(), family


def test_a_tilted_translation_fails_the_unit_row_identity(monkeypatch):
    """Without the unit rows e1, e6, e7 the cross product is no normal: the
    span identity fails and every bracket identity with it."""
    _planted(monkeypatch, 4, _tilted_translation)
    for family in sorted(foliation.SYSTEM_FAMILIES):
        span, relation = foliation.span_certificate(family)
        assert relation == "fields 1, 5, 6 are not e1, e6, e7, so n is no normal", family
        assert not span["n = ±p ≢ 0"], family
        brackets, _ = foliation.bracket_certificate(family)
        assert not any(brackets.values()), family


@pytest.mark.parametrize(
    "plant",
    [None, _random_rational_field, _repeated_translation],
    ids=["catalog", "non-tangent", "five-dimensional"],
)
def test_exact_normal_equals_the_determinant_expansion(plant, monkeypatch):
    """With the unit rows e1, e6, e7 in place, the certificate's n is the
    cofactor vector of the six field values: at generic, stratum, quadric
    and scaled points of all twelve systems, and of two planted ones with
    another field in place of the shear, det [F_1(v); ...; F_6(v); e_j] is
    s n_j(v) for one sign s per system, to 1e-12 |S|_F^6."""
    if plant is not None:
        _planted(monkeypatch, 3, plant)
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        n = foliation._exact_system(family)[3]
        v = _span_points(family, count=20)
        span = np.stack([field(v) for field in foliation.system_fields(family, params)], axis=-2)
        cofactors = np.stack(
            [
                np.linalg.det(np.concatenate([span, np.broadcast_to(unit, (len(v), 1, 7))], axis=-2))
                for unit in np.eye(7)[:, None, :]
            ],
            axis=-1,
        )
        normal = np.array([[float(q(tuple(point) + params)) for q in n] for point in v])
        sign = 1.0 if np.sum(cofactors * normal) >= 0 else -1.0
        bound = 1e-12 * np.sum(span * span, axis=(-2, -1)) ** 3
        assert np.all(np.abs(cofactors - sign * normal).max(axis=-1) <= bound), family
        assert np.any(normal) == (plant is not _repeated_translation), family


def test_involutivity_matches_the_svd_projection():
    """On generic, stratum, quadric and scaled points of all twelve
    families the residual is the SVD projection's to 1e-13."""
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        v = _span_points(family)
        residual = foliation.involutivity_residual(family, params, v)
        np.testing.assert_allclose(residual, _svd_projection(family, params, v), rtol=0, atol=1e-13)


def test_planted_non_involutive_system_fails_with_the_svd_residual(monkeypatch):
    """Brackets that leave the span give the SVD projection's residual to
    1e-12 relative, and the involutivity check fails."""
    _planted(monkeypatch, 3, _random_rational_field)
    params = verify.REPRESENTATIVE_PARAMS["G13"]
    v = rng.sample_coordinates(14, 300, "planted-brackets", "G13")
    v = v[topology.contains(topology.manifold_of("G13"), v)]
    residual = foliation.involutivity_residual("G13", params, v)
    reference = _svd_projection("G13", params, v)
    np.testing.assert_allclose(residual, reference, rtol=1e-12, atol=0)
    assert reference.min() > 1e-3
    result = verify.involutivity_result("G13", params)
    assert not result.passed and result.max_residual > 0


def test_rank_deficient_system_keeps_the_svd_projection(monkeypatch):
    """Where the six values span five dimensions the residual is still the
    SVD projection's, at rounding level, since the brackets stay in those
    five dimensions."""
    _planted(monkeypatch, 5, _repeated_translation)
    for family in sorted(foliation.SYSTEM_FAMILIES):
        params = verify.REPRESENTATIVE_PARAMS[family]
        v = _span_points(family, count=40)
        residual = foliation.involutivity_residual(family, params, v)
        np.testing.assert_allclose(residual, _svd_projection(family, params, v), rtol=0, atol=1e-13)
        assert residual.max() <= INVOLUTIVITY_TOL, family


@pytest.mark.parametrize(
    ("slot", "plant"),
    [(3, _random_rational_field), (5, _repeated_translation)],
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


def test_distribution_matches_three_svd_ranks_on_the_g1_quadric():
    """Where G1's pairing matrix has rank 4, on the quadric
    x2 = x3 x4 / x5, the float reference finds no span, as n = p = 0
    there says."""
    algebra = catalog.build("G1", verify.REPRESENTATIVE_PARAMS["G1"])
    v = rng.sample_coordinates(12, 200, "quadric")
    v[:, 1] = v[:, 2] * v[:, 3] / v[:, 4]
    spans = foliation.distribution_equiv(algebra, v)
    assert not spans.any()
    np.testing.assert_array_equal(spans, _three_ranks(algebra, v, 1e-9))


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
