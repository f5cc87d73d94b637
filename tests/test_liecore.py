"""Core linear algebra: exponentials, ranks, and exact Jacobi sums."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from korbit import catalog, rng, verify
from korbit.liecore import (
    DIM,
    DomainError,
    LieAlgebra7,
    exp_matrix,
    numeric_rank,
    phi1,
    verify_jacobi,
)

EXP_RTOL = 1e-12
#: Paterson-Stockmeyer may widen the det(exp ad_u) vs exp(tr ad_u) gap of
#: the term-by-term loop by at most this factor.
DET_GAP_FACTOR = 1.5
INVERSE_RTOL = 1e-12
#: Without squaring the two evaluations differ by rounding alone, which
#: leaves room to see a lost term of degree 12 or more (about 5e-13).
UNSCALED_RTOL = 1e-14


def _exp_loop(m):
    """Reference: the term-by-term degree-18 Taylor loop with the same
    squaring count that exp_matrix must equal."""
    m = np.asarray(m, dtype=float)
    top = float(np.abs(m).sum(axis=-1).max())
    squarings = max(0, int(np.ceil(np.log2(top / 0.5)))) if top > 0.5 else 0
    scaled = m / float(2**squarings)
    eye = np.broadcast_to(np.eye(m.shape[-1]), m.shape).copy()
    out = eye.copy()
    term = eye
    for k in range(1, 19):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _relative_gap(a, b):
    """Largest entry of |a - b| over the largest entry of |b|, per matrix."""
    return np.abs(a - b).max(axis=(-2, -1)) / np.abs(b).max(axis=(-2, -1))


def _ad_stack(family, n, seed):
    algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
    u = rng.generator(seed, "exp-oracle", family).uniform(
        -rng.COORDINATE_RADIUS, rng.COORDINATE_RADIUS, (n, DIM)
    )
    return algebra.ad(u)


def test_exp_matrix_of_zero_is_identity():
    """The exponential of the zero matrix is the identity."""
    np.testing.assert_array_equal(exp_matrix(np.zeros((DIM, DIM))), np.eye(DIM))


def test_exp_matrix_matches_diagonal_closed_form():
    """Diagonal matrices exponentiate entrywise."""
    d = np.diag([0.3, -1.2, 2.0, 0.0, -0.7, 1.5, -2.5])
    np.testing.assert_allclose(exp_matrix(d), np.diag(np.exp(np.diag(d))), rtol=EXP_RTOL)


def test_exp_matrix_matches_rotation_closed_form():
    """A rotation generator exponentiates to cosine and sine blocks."""
    theta = 1.234
    m = np.zeros((DIM, DIM))
    m[1, 2], m[2, 1] = -theta, theta
    result = exp_matrix(m)
    assert math.isclose(result[1, 1], math.cos(theta), rel_tol=EXP_RTOL)
    assert math.isclose(result[2, 1], math.sin(theta), rel_tol=EXP_RTOL)


def test_exp_matrix_group_law_on_commuting_elements():
    """exp(a) exp(b) = exp(a+b) when a and b commute."""
    gen = np.random.default_rng(3)
    a = np.diag(gen.uniform(-2, 2, DIM))
    b = np.diag(gen.uniform(-2, 2, DIM))
    np.testing.assert_allclose(exp_matrix(a) @ exp_matrix(b), exp_matrix(a + b), rtol=1e-11)


def test_exp_matrix_batched_agrees_with_loop():
    """Batched input produces the same matrices as one-at-a-time calls."""
    gen = np.random.default_rng(5)
    batch = gen.uniform(-1.5, 1.5, (4, DIM, DIM))
    together = exp_matrix(batch)
    for i in range(4):
        np.testing.assert_allclose(together[i], exp_matrix(batch[i]), rtol=EXP_RTOL)


def test_exp_matrix_rejects_non_finite_input():
    """Non-finite entries raise DomainError instead of propagating NaN."""
    bad = np.zeros((DIM, DIM))
    bad[0, 0] = np.inf
    with pytest.raises(DomainError):
        exp_matrix(bad)


def test_exp_matrix_rejects_overflow():
    """A finite argument whose exponential overflows raises DomainError."""
    with np.errstate(over="ignore"), pytest.raises(DomainError):
        exp_matrix(800 * np.eye(DIM))


@pytest.mark.parametrize("n", [1, 100, 10_000])
def test_exp_matrix_matches_term_by_term_loop_on_adjoint_stacks(n):
    """Paterson-Stockmeyer equals the term-by-term loop on ad(u) stacks of
    every family, one squaring count per stack as in the loop."""
    for family in catalog.FAMILIES:
        ad = _ad_stack(family, n, seed=n)
        gap = _relative_gap(exp_matrix(ad), _exp_loop(ad))
        assert gap.max() <= EXP_RTOL, family


def test_exp_matrix_matches_term_by_term_loop_on_gaussian_matrices():
    """Dense Gaussian matrices, one at a time and as a stack, agree with
    the loop."""
    gen = np.random.default_rng(17)
    for scale in (0.1, 1.0, 3.0):
        batch = gen.normal(0.0, scale, (200, DIM, DIM))
        assert _relative_gap(exp_matrix(batch), _exp_loop(batch)).max() <= EXP_RTOL
        for m in batch[:5]:
            assert _relative_gap(exp_matrix(m), _exp_loop(m)) <= EXP_RTOL


def test_exp_matrix_matches_term_by_term_loop_without_squaring():
    """At infinity norm 1/2 nothing is squared, and the polynomials agree to
    rounding, high-degree terms included: half a signed permutation matrix
    keeps norm 2^-k in its k-th power."""
    gen = np.random.default_rng(19)
    batch = np.zeros((200, DIM, DIM))
    for m in batch:
        m[np.arange(DIM), gen.permutation(DIM)] = gen.choice([-0.5, 0.5], DIM)
    assert _relative_gap(exp_matrix(batch), _exp_loop(batch)).max() <= UNSCALED_RTOL


def test_exp_matrix_det_trace_gap_no_wider_than_loop():
    """det(exp ad_u) = exp(tr ad_u) holds as closely as with the loop."""
    for family in catalog.FAMILIES:
        ad = _ad_stack(family, 10_000, seed=0)
        exp_trace = np.exp(np.trace(ad, axis1=-2, axis2=-1))
        new = np.abs(np.linalg.det(exp_matrix(ad)) / exp_trace - 1.0).max()
        old = np.abs(np.linalg.det(_exp_loop(ad)) / exp_trace - 1.0).max()
        assert new <= DET_GAP_FACTOR * old, family


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        (DIM, DIM),
        elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
)
def test_exp_matrix_inverse_is_exp_of_negative(a):
    """exp(A) exp(-A) = I, up to rounding scaled by both norms."""
    forward, backward = exp_matrix(a), exp_matrix(-a)
    scale = np.abs(forward).sum(axis=-1).max() * np.abs(backward).sum(axis=-1).max()
    assert np.abs(forward @ backward - np.eye(DIM)).max() <= INVERSE_RTOL * scale


def test_phi1_known_value_and_small_argument_branch():
    """phi1(ln 2) = 1/ln 2 and the Taylor branch is smooth through zero."""
    assert math.isclose(float(phi1(np.log(2.0))), 1.0 / math.log(2.0), rel_tol=1e-15)
    xs = np.array([-1e-5, -1e-9, 0.0, 1e-9, 1e-5])
    values = phi1(xs)
    assert float(values[2]) == 1.0
    assert np.all(np.abs(values - 1.0) < 1e-4)


def test_phi1_matches_expm1_quotient_outside_taylor_window():
    """Above the Taylor window phi1 equals expm1(x)/x."""
    xs = np.array([-4.0, -0.3, 0.01, 2.5])
    np.testing.assert_allclose(phi1(xs), np.expm1(xs) / xs, rtol=1e-15)


def test_numeric_rank_counts_significant_singular_values():
    """Rank of a projector-like diagonal equals its nonzero count."""
    m = np.diag([3.0, 2.0, 1e-3, 1e-12, 0.0, 0.0, 0.0])
    assert int(numeric_rank(m)) == 3
    batch = np.stack([m, np.eye(DIM)])
    np.testing.assert_array_equal(numeric_rank(batch), [3, 7])


def test_verify_jacobi_is_exactly_zero_on_catalog_members():
    """Catalog structure constants satisfy Jacobi exactly, not just nearly."""
    for family in catalog.FAMILIES:
        params = tuple(
            Fraction(1, 2) for _ in range(catalog.PARAM_ARITY[family])
        )
        if family == "G4":
            params = (Fraction(1, 2), Fraction(3))
        worst, violations = verify_jacobi(catalog.build(family, params))
        assert worst == 0
        assert violations == []


def test_verify_jacobi_flags_an_inconsistent_bracket_table():
    """Breaking one structure constant produces a named violation."""
    broken = LieAlgebra7(
        family="G2",
        params=(),
        brackets={(0, 1): {3: 1}, (0, 2): {4: 1}, (1, 5): {2: 1}, (0, 5): {1: 1}},
    )
    worst, violations = verify_jacobi(broken)
    assert worst > 0
    assert violations
