"""Core linear algebra: exponentials, ranks, and exact Jacobi sums."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from korbit import catalog, liecore, rng, verify
from korbit.liecore import (
    DIM,
    PAIRING_TOL_FLOOR,
    DomainError,
    LieAlgebra7,
    exp_matrix,
    numeric_rank,
    pairing_rank,
    phi1,
    verify_jacobi,
)

EXP_RTOL = 1e-12
#: Paterson-Stockmeyer may widen the det(exp ad_u) vs exp(tr ad_u) gap of
#: the term-by-term loop by at most this factor.
DET_GAP_FACTOR = 1.5
INVERSE_RTOL = 1e-12
#: |p| = s1 s3 s5 holds to rounding; the Pfaffians are computed to a few
#: hundred eps of the largest entry.
PFAFFIAN_RTOL = 1e-12
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


def test_exp_matrix_of_an_empty_stack_is_empty():
    """An empty stack exponentiates to an empty stack of the same shape."""
    for shape in [(0, DIM, DIM), (3, 0, DIM, DIM), (0, 0)]:
        out = exp_matrix(np.zeros(shape))
        assert out.shape == shape and out.dtype == np.float64


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


def _antisymmetric(sigmas, seed):
    """Q blockdiag(s J, ...) Q^T for a random orthogonal Q: an antisymmetric
    7x7 matrix whose singular values are the given pairs and a zero."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(DIM, DIM)))
    core = np.zeros((DIM, DIM))
    for n, s in enumerate(sigmas):
        core[2 * n, 2 * n + 1], core[2 * n + 1, 2 * n] = s, -s
    k = q @ core @ q.T
    return (k - k.T) / 2


def _adjugate(m):
    """Transposed cofactor matrix, one 6x6 determinant per entry."""
    out = np.empty_like(m)
    for i in range(DIM):
        for j in range(DIM):
            minor = np.delete(np.delete(m, j, axis=0), i, axis=1)
            out[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return out


def _pfaffians(k):
    """The vector p of principal Pfaffians, as pairing_rank computes it."""
    k = np.asarray(k, dtype=float).reshape(-1, DIM * DIM)
    return liecore._principal_pfaffians(k.T[liecore._UPPER])


def test_principal_pfaffians_norm_is_product_of_paired_singular_values():
    """|p| = s1 s3 s5 and adj K = p p^T, on matrices of known spectrum."""
    gen = np.random.default_rng(23)
    for seed in range(50):
        sigmas = np.sort(gen.uniform(0.5, 2.0, 3))[::-1]
        k = _antisymmetric(sigmas, seed)
        p = _pfaffians(k)[:, 0]
        assert math.isclose(np.linalg.norm(p), np.prod(sigmas), rel_tol=PFAFFIAN_RTOL)
        np.testing.assert_allclose(np.outer(p, p), _adjugate(k), atol=1e-12)


def test_principal_pfaffians_norm_matches_svd_on_kirillov_forms():
    """|p| = s1 s3 s5 against the SVD on well-conditioned Kirillov forms of
    every family."""
    for family in catalog.FAMILIES:
        algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
        k = algebra.kirillov(rng.sample_functionals(0, 500, "pfaffian-identity", family))
        s = np.linalg.svd(k, compute_uv=False)
        conditioned = s[:, 4] > 1e-2 * s[:, 0]
        assert np.count_nonzero(conditioned) > 100, family
        norm = np.linalg.norm(_pfaffians(k[conditioned]), axis=0)
        product = (s[:, 0] * s[:, 2] * s[:, 4])[conditioned]
        assert np.abs(norm / product - 1.0).max() <= PFAFFIAN_RTOL, family


def _sent_to_svd(monkeypatch):
    """Record the number of matrices each numeric_rank call receives."""
    sent = []

    def counting(m, tol=1e-9):
        sent.append(math.prod(np.shape(m)[:-2]))
        return numeric_rank(m, tol)

    monkeypatch.setattr(liecore, "numeric_rank", counting)
    return sent


def test_pairing_rank_certifies_most_generic_forms(monkeypatch):
    """Generic G13 forms are certified without SVD; those that are not go
    to numeric_rank, and the ranks agree row by row."""
    algebra = catalog.build("G13", verify.REPRESENTATIVE_PARAMS["G13"])
    k = algebra.kirillov(rng.sample_functionals(0, 5000, "pairing-certified"))
    expected = numeric_rank(k)
    sent = _sent_to_svd(monkeypatch)
    np.testing.assert_array_equal(pairing_rank(k), expected)
    assert sum(sent) < 0.05 * len(k)


def test_pairing_rank_below_floor_sends_every_form_to_svd(monkeypatch):
    """At tol = 1e-15, below the floor, every form goes to numeric_rank."""
    assert PAIRING_TOL_FLOOR > 1e-15
    algebra = catalog.build("G8", verify.REPRESENTATIVE_PARAMS["G8"])
    k = algebra.kirillov(rng.sample_functionals(0, 2000, "pairing-floor"))
    expected = numeric_rank(k, 1e-15)
    sent = _sent_to_svd(monkeypatch)
    np.testing.assert_array_equal(pairing_rank(k, 1e-15), expected)
    assert sent == [len(k)]


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_pairing_rank_equals_numeric_rank_on_scaled_forms(scale, monkeypatch):
    """Forms scaled by 1e+-150 get their SVD ranks, and are certified as
    often as unscaled ones: the Pfaffians of the form divided by its
    largest entry neither overflow nor underflow."""
    for family in catalog.FAMILIES:
        algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
        f = rng.sample_functionals(0, 300, "pairing-scaled", family)
        f[:100, [3, 4]] = 0.0
        k = algebra.kirillov(f)
        expected = numeric_rank(k * scale)
        with monkeypatch.context() as patch:
            sent = _sent_to_svd(patch)
            np.testing.assert_array_equal(pairing_rank(k * scale), expected, err_msg=family)
            pairing_rank(k)
        assert sent[0] == sent[1], family


def test_pairing_rank_non_finite_forms_behave_as_numeric_rank():
    """A NaN form makes the SVD fail as it does in numeric_rank; an
    infinite form gets numeric_rank's rank."""
    algebra = catalog.build("G4", verify.REPRESENTATIVE_PARAMS["G4"])
    k = algebra.kirillov(rng.sample_functionals(0, 20, "pairing-nan"))
    k[3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        numeric_rank(k)
    with pytest.raises(np.linalg.LinAlgError):
        pairing_rank(k)
    k[3] = 0.0
    k[3, 0, 1], k[3, 1, 0] = np.inf, -np.inf
    np.testing.assert_array_equal(pairing_rank(k), numeric_rank(k))


def test_pairing_rank_sends_non_antisymmetric_matrices_to_svd():
    """The certificate holds only for antisymmetric forms; a nonzero
    diagonal entry or a broken mirror entry keeps the SVD's answer."""
    k = _antisymmetric([2.0, 1.0, 0.5], seed=1)
    diagonal, mirror = k.copy(), k.copy()
    diagonal[6, 6] = 1.0
    mirror[0, 1] += 1e-3
    stack = np.stack([k, diagonal, mirror, np.random.default_rng(2).normal(size=(DIM, DIM))])
    np.testing.assert_array_equal(pairing_rank(stack), numeric_rank(stack))
    assert pairing_rank(diagonal) == 7


def test_pairing_rank_shapes():
    """One form gives an int, stacks keep their leading axes, and anything
    but 7x7 is refused."""
    k = _antisymmetric([2.0, 1.0, 0.5], seed=3)
    assert pairing_rank(k) == 6 and isinstance(pairing_rank(k), int)
    assert pairing_rank(np.zeros((DIM, DIM))) == 0
    stack = np.stack([k, np.zeros((DIM, DIM)), _antisymmetric([1.0, 1.0, 0.0], seed=4)])
    np.testing.assert_array_equal(pairing_rank(stack.reshape(1, 3, DIM, DIM)), [[6, 0, 4]])
    assert pairing_rank(np.zeros((0, DIM, DIM))).shape == (0,)
    with pytest.raises(ValueError):
        pairing_rank(np.zeros((6, 6)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-10.0, max_value=-8.0),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1e-100, max_value=1e100),
)
def test_pairing_rank_equals_numeric_rank_near_the_bound(seed, log_gap, middle, scale):
    """Q blockdiag(s1 J, s3 J, s5 J, 0) Q^T with s5 / s1 from 1e-10 to
    1e-8, around tol = 1e-9: certified or not, the rank is the SVD's."""
    sigmas = scale * np.array([1.0, max(middle, 10.0**log_gap), 10.0**log_gap])
    k = _antisymmetric(sigmas, seed)
    assert pairing_rank(k) == numeric_rank(k)
    assert pairing_rank(k, 1e-12) == numeric_rank(k, 1e-12)


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


#: A G2-like bracket table with one inconsistent structure constant.
BROKEN_BRACKETS = {(0, 1): {3: 1}, (0, 2): {4: 1}, (1, 5): {2: 1}, (0, 5): {1: 1}}


def test_verify_jacobi_flags_an_inconsistent_bracket_table():
    """Breaking one structure constant produces a named violation."""
    broken = LieAlgebra7(family="G2", params=(), brackets=BROKEN_BRACKETS)
    worst, violations = verify_jacobi(broken)
    assert worst > 0
    assert violations


def _entries(brackets):
    return {(i, j, k): v for (i, j), coeffs in brackets.items() for k, v in coeffs.items()}


@pytest.mark.parametrize("factor", [1, Fraction(2, 3)])
def test_integer_jacobi_form_matches_the_loop_on_a_broken_table(factor):
    """B(C, C) on the scaled int64 tensor, divided by the squared scale, has
    verify_jacobi's worst residual and its violating triples, and like the
    Jacobiator it is antisymmetric in (i, j, k)."""
    brackets = {pair: {k: factor * v for k, v in c.items()} for pair, c in BROKEN_BRACKETS.items()}
    stack, scale = liecore._integer_tensors([_entries(brackets)])
    assert scale == Fraction(factor).denominator
    jacobiator = liecore._jacobi_form(stack[0], stack[0])
    assert np.array_equal(jacobiator, -jacobiator.transpose(1, 0, 2, 3))
    assert np.array_equal(jacobiator, -jacobiator.transpose(0, 2, 1, 3))
    worst, violations = verify_jacobi(LieAlgebra7(family="G2", params=(), brackets=brackets))
    assert Fraction(int(np.abs(jacobiator).max()), scale * scale) == worst
    triples = sorted({(i, j, k) for i, j, k, _ in zip(*np.nonzero(jacobiator)) if i < j < k})
    assert triples == [(i, j, k) for i, j, k, _ in violations]


def test_integer_jacobi_form_is_zero_on_every_family():
    for family in catalog.FAMILIES:
        algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
        stack, _ = liecore._integer_tensors([_entries(algebra.brackets)])
        assert not np.any(liecore._jacobi_form(stack[0], stack[0])), family


def test_integer_jacobi_form_broadcasts_over_stacks():
    """B(A, B) on stacks equals B on each pair."""
    a = catalog.build("G8", (Fraction(0),)).brackets
    b = catalog.build("G8", (Fraction(1, 3),)).brackets
    stack, scale = liecore._integer_tensors([_entries(a), _entries(b)])
    assert scale == 3
    form = liecore._jacobi_form(stack[:, None], stack[None, :])
    assert form.shape == (2, 2) + (DIM,) * 4
    for x in range(2):
        for y in range(2):
            assert np.array_equal(form[x, y], liecore._jacobi_form(stack[x], stack[y]))


def test_integer_jacobi_form_refuses_entries_that_could_overflow():
    big = np.zeros((DIM, DIM, DIM), dtype=np.int64)
    big[0, 1, 3], big[1, 0, 3] = 2**30, -(2**30)
    small = big // 2**30
    assert not np.any(liecore._jacobi_form(big, small))
    with pytest.raises(OverflowError):
        liecore._jacobi_form(big, big)


#: Leading shapes and vector scales on which the contractions must equal
#: the einsum reference entry for entry.
CONTRACTION_SHAPES = [(), (40,), (8, 5)]
CONTRACTION_SCALES = [1e-3, 1.0, 1e3]


def _grid_algebras():
    """Every family at every entry of its default parameter grid."""
    return [
        catalog.build(family, params)
        for family in catalog.FAMILIES
        for params in catalog.default_parameter_grid(family)
    ]


@pytest.mark.parametrize("shape", CONTRACTION_SHAPES)
def test_ad_and_kirillov_equal_the_einsum_contractions(shape):
    """ad and kirillov give exactly the floats of the einsum contractions
    of the structure tensor, and every Kirillov form is exactly
    antisymmetric, on every family and grid entry."""
    for algebra in _grid_algebras():
        gen = rng.generator(0, "contraction", algebra.family, *algebra.params)
        for scale in CONTRACTION_SCALES:
            u = gen.uniform(-scale, scale, shape + (DIM,))
            ad = algebra.ad(u)
            k = algebra.kirillov(u)
            assert ad.shape == k.shape == shape + (DIM, DIM)
            assert np.array_equal(ad, np.einsum("...i,ijk->...kj", u, algebra.tensor))
            assert np.array_equal(k, np.einsum("ijk,...k->...ij", algebra.tensor, u))
            assert not np.any(k + k.swapaxes(-1, -2)), algebra.family


def test_bracket_of_small_integer_vectors_is_exact():
    """bracket equals the exact sum of the bracket coefficients on
    small-integer vectors, broadcasting a single vector against a batch."""
    for algebra in _grid_algebras():
        gen = rng.generator(0, "bracket", algebra.family, *algebra.params)
        u = gen.integers(-3, 4, (20, DIM))
        v = gen.integers(-3, 4, DIM)
        exact = np.zeros((20, DIM))
        for n in range(20):
            acc = [Fraction(0)] * DIM
            for i in range(DIM):
                for j in range(DIM):
                    coeffs = liecore.bracket_coefficients(algebra.brackets, i, j)
                    for k, c in coeffs.items():
                        acc[k] += int(u[n, i]) * int(v[j]) * Fraction(c)
            exact[n] = [float(x) for x in acc]
        assert np.array_equal(algebra.bracket(u, v), exact), algebra.family
        assert np.array_equal(algebra.bracket(u[0], v), exact[0])


def test_contractions_of_list_and_int_input_are_float64():
    """Lists and integer arrays are read as float vectors."""
    algebra = catalog.build("G4", (0, 2))
    e5 = [0, 0, 0, 0, 0, 1, 0]
    for out in (
        algebra.ad(e5),
        algebra.kirillov(np.array([e5, e5])),
        algebra.bracket(e5, [0, 0, 0, 1, 0, 0, 0]),
    ):
        assert out.dtype == np.float64
    assert np.array_equal(algebra.ad(e5), algebra.ad(np.array(e5, dtype=float)))


def test_contraction_operands_are_cached_and_read_only():
    """The operands behind ad and kirillov are built once and cannot be
    written through."""
    algebra = catalog.build("G13", (Fraction(1, 2),))
    for name in ("ad_operand", "kirillov_operand"):
        operand = getattr(algebra, name)
        assert operand is getattr(algebra, name)
        assert operand.shape == (DIM, DIM * DIM) and not operand.flags.writeable
        with pytest.raises(ValueError):
            operand[0, 0] = 1.0
