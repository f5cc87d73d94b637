"""Property-based invariants of the algebra builders and group calculus."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from korbit import catalog, coadjoint
from korbit.liecore import DIM, exp_matrix, numeric_rank, verify_jacobi

JACOBI_EXACT = 0
RANK_CEILING = 6
DET_TRACE_RTOL = 1e-10

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


def _valid_params(family: str, raw: tuple[Fraction, ...]) -> tuple[Fraction, ...] | None:
    arity = len(catalog.record(family).param_names)
    params = raw[:arity]
    try:
        catalog.validate_params(family, params)
    except Exception:
        return None
    return params


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(catalog.FAMILIES),
    raw=st.tuples(rationals, rationals),
)
def test_jacobi_holds_for_every_member(family, raw):
    """Any valid member of any family is exactly a Lie algebra."""
    params = _valid_params(family, raw)
    if params is None:
        return
    worst, violations = verify_jacobi(catalog.build(family, params))
    assert worst == JACOBI_EXACT
    assert violations == []


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(catalog.FAMILIES),
    raw=st.tuples(rationals, rationals),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_kirillov_rank_never_exceeds_six(family, raw, seed):
    """The antisymmetric pairing matrix has a one-dimensional kernel
    slot forced by the center, so its rank stays at or below six."""
    params = _valid_params(family, raw)
    if params is None:
        return
    algebra = catalog.build(family, params)
    state = np.random.default_rng(seed)
    f = state.uniform(-2.0, 2.0, size=DIM)
    assert int(numeric_rank(algebra.kirillov(f))) <= RANK_CEILING


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(catalog.FAMILIES),
    raw=st.tuples(rationals, rationals),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_coadjoint_jacobian_determinant_is_exp_trace(family, raw, seed):
    """det of the transposed-exponential map equals exp(trace ad)."""
    params = _valid_params(family, raw)
    if params is None:
        return
    algebra = catalog.build(family, params)
    state = np.random.default_rng(seed)
    u = state.uniform(-1.0, 1.0, size=DIM)
    ad = algebra.ad(u)
    det = float(np.linalg.det(exp_matrix(ad)))
    np.testing.assert_allclose(det, float(np.exp(np.trace(ad))), rtol=DET_TRACE_RTOL)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=0.1, max_value=1.5),
)
def test_exponential_inverts_at_negated_argument(seed, scale):
    """exp(A) exp(-A) = identity for the matrices the engine produces."""
    algebra = catalog.build("G4", (Fraction(1, 2), 2))
    state = np.random.default_rng(seed)
    u = scale * state.uniform(-1.0, 1.0, size=DIM)
    ad = algebra.ad(u)
    product = exp_matrix(ad) @ exp_matrix(-ad)
    np.testing.assert_allclose(product, np.eye(DIM), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_coadjoint_action_is_a_group_action(seed):
    """Acting by u then by u again equals acting once at doubled
    parameter whenever u commutes with itself, which it always does."""
    algebra = catalog.build("G6", (Fraction(3, 4),))
    state = np.random.default_rng(seed)
    u = state.uniform(-0.8, 0.8, size=DIM)
    f = state.uniform(-2.0, 2.0, size=DIM)
    once = coadjoint.coadjoint_act(algebra, u, f)
    twice = coadjoint.coadjoint_act(algebra, u, once)
    direct = coadjoint.coadjoint_act(algebra, 2.0 * u, f)
    np.testing.assert_allclose(twice, direct, rtol=1e-9, atol=1e-11)


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(catalog.FAMILIES),
    raw=st.tuples(rationals, rationals),
    f=arrays(
        float,
        (4, DIM),
        elements=st.just(0.0) | st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
    ),
    scale=st.sampled_from([1.0, 1e-150, 1e150]),
)
def test_orbit_dimension_equals_svd_rank(family, raw, f, scale):
    """The orbit dimension certified from the functional equals the SVD
    rank of its Kirillov form, on any member, functional and scale."""
    params = _valid_params(family, raw)
    if params is None:
        return
    algebra = catalog.build(family, params)
    f = f * scale
    np.testing.assert_array_equal(
        coadjoint.orbit_dimension(algebra, f), numeric_rank(algebra.kirillov(f))
    )
