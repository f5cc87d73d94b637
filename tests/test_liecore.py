"""Core linear algebra: exponentials, ranks, and exact Jacobi sums."""
from __future__ import annotations

import itertools
import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from korbit import catalog, liecore, rng, verify
from korbit.liecore import (
    DIM,
    PAIRING_TOL_FLOOR,
    DomainError,
    LieAlgebra7,
    exp_matrix,
    kirillov_rank,
    numeric_rank,
    phi1,
    verify_jacobi,
)

EXP_RTOL = 1e-12
#: Paterson-Stockmeyer may widen the det(exp ad_u) vs exp(tr ad_u) gap of
#: the term-by-term loop, and its error against the exact reference, by at
#: most this factor.
DET_GAP_FACTOR = 1.5
INVERSE_RTOL = 1e-12
#: |p| = s1 s3 s5 holds to rounding on forms with s5 > 1e-2 s1; p is
#: computed to 16 eps of the largest entry cubed, and the SVD to a few eps.
PFAFFIAN_RTOL = 1e-12
#: On forms divided by their largest entry: the closed-form p against the
#: recursive Pfaffians (each a sum of 15 products of three entries), and
#: p p^T against 6x6 determinants.
PFAFFIAN_ATOL = 1e-14
ADJUGATE_ATOL = 1e-13
#: Without squaring the two evaluations differ by rounding alone, which
#: leaves room to see a lost term of degree 12 or more (about 5e-13).
UNSCALED_RTOL = 1e-14


def _taylor18(m):
    """The degree-18 Taylor polynomial of m, summed term by term."""
    eye = np.broadcast_to(np.eye(m.shape[-1]), m.shape).copy()
    out = eye.copy()
    term = eye
    for k in range(1, 19):
        term = term @ m / k
        out = out + term
    return out


def _exp_loop(m):
    """Reference: the term-by-term degree-18 Taylor loop under exp_matrix's
    earlier squaring rule, one count for the whole stack, from its largest
    infinity norm down to 1/2.  exp_matrix now scales each chunk by its own
    norm down to 1, so the two agree to rounding, and the exact reference
    below holds exp_matrix to this loop's accuracy."""
    m = np.asarray(m, dtype=float)
    top = float(np.abs(m).sum(axis=-1).max())
    squarings = max(0, int(np.ceil(np.log2(top / 0.5)))) if top > 0.5 else 0
    out = _taylor18(m / float(2**squarings))
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


def test_exp_matrix_of_finite_entries_whose_row_sum_overflows():
    """Row 0 = (-1e308, 1e308, 0, ...) has an infinite row sum, yet its
    exponential is finite: row 0 = (0, 1, 0, ...) and the identity's rows
    below, with and without a fold.  A non-finite entry beside it still
    raises."""
    m = np.zeros((DIM, DIM))
    m[0, :2] = (-1e308, 1e308)
    expected = np.eye(DIM)
    expected[0, :2] = (0.0, 1.0)
    np.testing.assert_array_equal(exp_matrix(m), expected)
    folded = []
    exp_matrix(m[None], fold=lambda lo, hi, exps: folded.append(exps.copy()))
    np.testing.assert_array_equal(folded[0][0], expected)
    m[3, 3] = np.inf
    with pytest.raises(DomainError, match="finite entries"):
        exp_matrix(m)


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
    """Paterson-Stockmeyer with per-chunk scaling agrees to rounding with
    the term-by-term loop under the earlier rule on ad(u) stacks of every
    family."""
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


#: Fraction bits of the exact reference exponential's fixed point.
REFERENCE_BITS = 200
#: The largest error against the exact reference on the catalog's ad(u)
#: draws and on Gaussian matrices of scale up to 1; the worst seen is 3.8e-15.
#: Gaussian matrices of scale 3 have infinity norms near 20, and their five
#: squarings multiply the rounding to 1.1e-14 (the loop: 2.8e-14), so they
#: are held only to the loop's accuracy.
REFERENCE_TOL = 1e-14


def _fixed(x):
    """The float x in fixed point, as the int floor(x 2^REFERENCE_BITS);
    exact wherever |x| >= 2^-147."""
    numerator, denominator = float(x).as_integer_ratio()
    return (numerator << REFERENCE_BITS) // denominator


def _exp_reference(m):
    """exp(m) of one float matrix in fixed point: a matrix of Python ints,
    entry r standing for r / 2^REFERENCE_BITS.

    A float is a dyadic rational, so m enters exactly (entries below
    2^-147 up to 2^-200).  The matrix is halved h times, to infinity norm
    at most 1/2, its Taylor series is summed to degree 40, whose tail is
    below 2^-40 / 40! < 2^-198, and the sum is squared h times.  Each
    product and quotient rounds down by less than one unit of 2^-200, and
    the h squarings multiply what has built up by about 2^h |exp(m)|, so
    with the h <= 7 that the tests' draws need, the reference is exact to
    far below 1e-40 of 1 + |exp(m)|: its error does not show in a float's.
    """
    n = len(m)
    one = 1 << REFERENCE_BITS
    a = np.array([[_fixed(x) for x in row] for row in m], dtype=object)
    norm = max(sum(abs(x) for x in row) for row in a)
    halvings = max(0, norm.bit_length() - REFERENCE_BITS + 1)
    x = a >> halvings
    eye = np.array([[one if i == j else 0 for j in range(n)] for i in range(n)], dtype=object)
    term = total = eye
    for k in range(1, 41):
        term = (term @ x >> REFERENCE_BITS) // k
        total = total + term
    for _ in range(halvings):
        total = total @ total >> REFERENCE_BITS
    return total


def _reference_error(exps, m):
    """Worst |exp - ref| / (1 + |ref|) over the stack m, with exps its
    float exponentials, ref the exact reference and |.| the largest entry
    of a matrix, the normwise error that rounding in scaling and squaring
    bounds; the difference is taken exactly."""
    worst = 0.0
    for e, m_i in zip(exps, m):
        ref = _exp_reference(m_i).ravel()
        delta = max(abs(_fixed(x) - r) for x, r in zip(e.ravel(), ref))
        worst = max(worst, delta / ((1 << REFERENCE_BITS) + max(abs(r) for r in ref)))
    return worst


def test_exp_matrix_is_no_less_accurate_than_the_loop_against_an_exact_reference():
    """Against the exact reference, exp_matrix's worst error on every
    family's ad(u) stack at REPRESENTATIVE_PARAMS and on Gaussian matrices
    of scale 0.1, 1 and 3 is within DET_GAP_FACTOR of the term-by-term
    loop's under the earlier squaring rule, and under REFERENCE_TOL on all
    but the scale-3 draws."""
    gen = np.random.default_rng(23)
    draws = {family: _ad_stack(family, 40, seed=23) for family in catalog.FAMILIES}
    draws.update({scale: gen.normal(0.0, scale, (40, DIM, DIM)) for scale in (0.1, 1.0, 3.0)})
    worst = 0.0
    for name, stack in draws.items():
        new = _reference_error(exp_matrix(stack), stack)
        old = _reference_error(_exp_loop(stack), stack)
        assert new <= DET_GAP_FACTOR * old, (name, new, old)
        if name != 3.0:
            worst = max(worst, new)
    assert worst <= REFERENCE_TOL, worst


def test_exp_matrix_reference_is_exact_on_closed_forms():
    """The reference itself: exp of a diagonal matrix and of a nilpotent
    one, in fixed point, against math.exp and I + N."""
    d = np.diag([0.3, -1.2, 2.0, 0.0, -0.7, 1.5, -2.5])
    ref = _exp_reference(d)
    for i in range(DIM):
        assert math.isclose(ref[i, i] / (1 << REFERENCE_BITS), math.exp(d[i, i]), rel_tol=1e-15)
    nilpotent = np.zeros((DIM, DIM))
    nilpotent[0, 3], nilpotent[1, 4] = 3.0, -0.25
    expected = (np.eye(DIM) + nilpotent).ravel()
    assert [_fixed(x) for x in expected] == list(_exp_reference(nilpotent).ravel())


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_exp_matrix_scales_each_chunk_by_its_own_norm(cores, monkeypatch):
    """On a 1,537-row stack whose chunks differ in norm, each chunk's
    exponentials are the same bits as that chunk's exponentiated alone,
    with and without a fold, on 1, 2 and 3 spans: a chunk's squaring count
    comes from its own largest norm, not the stack's."""
    bounds = [0, 512, 1024, 1536, 1537]
    stack = np.random.default_rng(1537).normal(0.0, 1.0, (1537, DIM, DIM))
    for lo, hi, scale in zip(bounds, bounds[1:], (0.05, 30.0, 1.0, 4.0)):
        stack[lo:hi] *= scale
    _on_cores(monkeypatch, cores)
    whole = exp_matrix(stack)
    folded, _ = _folded(stack)
    for lo, hi in zip(bounds, bounds[1:]):
        alone = exp_matrix(stack[lo:hi])
        assert np.array_equal(whole[lo:hi], alone), (cores, lo)
        assert np.array_equal(folded[lo:hi], alone), (cores, lo)


def test_exp_matrix_halves_to_norm_at_most_one():
    """The squaring count is the least s >= 0 with norm <= 2^s, exactly at
    powers of two."""
    cases = [
        (0.0, 0), (2.0**-1074, 0), (0.5, 0), (1.0, 0), (np.nextafter(1.0, 2.0), 1),
        (2.0, 1), (3.0, 2), (4.0, 2), (np.nextafter(4.0, 5.0), 3), (1e308, 1024),
    ]
    assert [liecore._halvings(norm) for norm, _ in cases] == [s for _, s in cases]


def test_exp_matrix_does_not_square_at_norm_one(monkeypatch):
    """Full signed permutation matrices have infinity norm 1, where the
    degree-18 tail is below 8.7e-18: no chunk is halved, and the result is
    the term-by-term polynomial to rounding, which leaves room to see a
    lost Paterson-Stockmeyer block (its terms start at 1/16! > 4e-14)."""
    counts = []
    inner = liecore._halvings

    def recording(norm):
        counts.append(inner(norm))
        return counts[-1]

    monkeypatch.setattr(liecore, "_halvings", recording)
    gen = np.random.default_rng(29)
    batch = np.zeros((1200, DIM, DIM))
    for m in batch:
        m[np.arange(DIM), gen.permutation(DIM)] = gen.choice([-1.0, 1.0], DIM)
    result = exp_matrix(batch)
    assert counts == [0, 0, 0]
    assert _relative_gap(result, _taylor18(batch)).max() <= UNSCALED_RTOL


def test_exp_matrix_raises_on_a_nan_in_the_last_chunk(monkeypatch):
    """A NaN in the last chunk raises DomainError with and without a fold,
    on 1, 2 and 3 spans.  Each span checks its own chunks, so the chunks
    before it may reach the fold first, but no non-finite chunk does."""
    stack = np.zeros((2000, DIM, DIM))
    stack[-1, 2, 3] = np.nan
    handed = []

    def fold(lo, hi, exps):
        handed.append((lo, hi, bool(np.isfinite(exps).all())))

    for cores in (1, 2, 3):
        _on_cores(monkeypatch, cores)
        for kwargs in ({}, {"fold": fold}):
            with pytest.raises(DomainError, match="finite entries"):
                exp_matrix(stack, **kwargs)
    assert all(finite and hi <= 1536 for _, hi, finite in handed), handed


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


EXP_STACK_SIZES = [1, 511, 512, 513, 1000, 1537, 3072, 10_000]


def _on_cores(monkeypatch, cores):
    """Make exp_matrix see `cores` cores, whatever the machine has."""
    monkeypatch.setattr(liecore.os, "sched_getaffinity", lambda pid: set(range(cores)))


def _folded(stack):
    """The exponentials of a stack as exp_matrix's fold collects them, and
    how often each row reached the fold."""
    flat = np.full((len(stack), DIM, DIM), np.nan)
    arrivals = np.zeros(len(stack), dtype=int)

    def fold(lo, hi, exps):
        flat[lo:hi] = exps
        arrivals[lo:hi] += 1

    assert exp_matrix(stack, fold=fold) is None
    return flat, arrivals


@pytest.mark.parametrize("n", EXP_STACK_SIZES)
def test_exp_matrix_is_the_same_on_one_two_and_three_spans(n, monkeypatch):
    """Splitting the chunks over 2 or 3 spans changes no bit of the
    exponentials, on every family's ad stack and on Gaussian stacks, and
    a fold collects those same exponentials, each row exactly once."""
    gen = np.random.default_rng(n)
    stacks = [_ad_stack(family, n, seed=n) for family in catalog.FAMILIES]
    stacks += [gen.normal(0.0, scale, (n, DIM, DIM)) for scale in (0.1, 1.0, 3.0)]
    _on_cores(monkeypatch, 1)
    reference = [exp_matrix(stack) for stack in stacks]
    for cores in (1, 2, 3):
        _on_cores(monkeypatch, cores)
        for stack, expected in zip(stacks, reference):
            assert np.array_equal(exp_matrix(stack), expected), (cores, n)
            folded, arrivals = _folded(stack)
            assert np.array_equal(folded, expected), (cores, n)
            assert np.all(arrivals == 1), (cores, n)


@pytest.mark.parametrize(
    "n, cores, spans",
    [
        (1, 3, [(0, 1)]),
        (512, 2, [(0, 512)]),
        (1536, 3, [(0, 1536)]),
        (1537, 3, [(0, 1024), (1024, 1537)]),
        (3072, 3, [(0, 1024), (1024, 2048), (2048, 3072)]),
        (10_000, 3, [(0, 3072), (3072, 6656), (6656, 10_000)]),
    ],
)
def test_exp_matrix_splits_whole_chunks_into_one_span_per_core(n, cores, spans, monkeypatch):
    """Spans of at least two whole chunks, one per core: the calling
    thread takes the first and one thread each the others; a stack of up
    to three chunks starts no thread, and every thread has finished when
    the call returns."""
    seen = []
    inner = liecore._exp_chunks

    def recording(mats, fold, lo, hi):
        seen.append((lo, hi, threading.current_thread()))
        inner(mats, fold, lo, hi)

    monkeypatch.setattr(liecore, "_exp_chunks", recording)
    _on_cores(monkeypatch, cores)
    before = threading.active_count()
    exp_matrix(np.zeros((n, DIM, DIM)))
    assert threading.active_count() == before
    assert sorted((lo, hi) for lo, hi, _ in seen) == spans
    callers = [thread for lo, _, thread in seen if lo == 0]
    assert callers == [threading.current_thread()]
    # seen keeps every Thread object alive, so distinct threads stay
    # distinct objects even where the system reuses a finished one's ident.
    assert len({thread for _, _, thread in seen}) == len(spans)


def test_exp_matrix_overflow_on_several_spans_keeps_the_callers_error_state(monkeypatch):
    """Under the caller's errstate(over="ignore"), an overflow in any span
    warns nowhere and ends in DomainError, as on one span, with or without
    a fold; a fold is handed only finite chunks."""
    overflowing = np.broadcast_to(800 * np.eye(DIM), (2000, DIM, DIM))
    # Rows 0..1499 exponentiate to the identity and the rest overflow, so
    # the first two chunks are finite and the last two are not.
    partly = np.zeros((2000, DIM, DIM))
    partly[1500:] = 800 * np.eye(DIM)
    handed = []

    def fold(lo, hi, exps):
        handed.append((lo, hi, bool(np.isfinite(exps).all())))

    for cores in (1, 2, 3):
        _on_cores(monkeypatch, cores)
        for stack in (overflowing, partly):
            for kwargs in ({}, {"fold": fold}):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with np.errstate(over="ignore"), pytest.raises(DomainError):
                        exp_matrix(stack, **kwargs)
                assert not caught, (cores, [str(w.message) for w in caught])
    assert handed and all(finite and hi <= 1024 for _, hi, finite in handed), handed


class _Planted(Exception):
    pass


def test_exp_matrix_raises_what_a_span_thread_raised(monkeypatch):
    """An exception in a thread's span reaches the caller, after every
    thread has finished."""
    inner = liecore._exp_chunks

    def planted(mats, fold, lo, hi):
        if lo > 0:
            raise _Planted(f"span from row {lo}")
        inner(mats, fold, lo, hi)

    monkeypatch.setattr(liecore, "_exp_chunks", planted)
    _on_cores(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(_Planted, match="span from row 1024"):
        exp_matrix(np.zeros((2048, DIM, DIM)))
    assert threading.active_count() == before


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
    """Transposed cofactor matrices of a stack, one 6x6 determinant per entry."""
    out = np.empty_like(m)
    for i in range(DIM):
        for j in range(DIM):
            minor = np.delete(np.delete(m, j, axis=-2), i, axis=-1)
            out[..., i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return out


def _pfaffian(k):
    """Pfaffians of a stack of antisymmetric matrices of even size, by
    expansion along the first row."""
    n = k.shape[-1]
    if n == 0:
        return np.ones(k.shape[:-2])
    total = np.zeros(k.shape[:-2])
    for j in range(1, n):
        rest = [i for i in range(1, n) if i != j]
        total += (-1) ** (j - 1) * k[..., 0, j] * _pfaffian(k[..., rest, :][..., rest])
    return total


def _principal_pfaffians(k):
    """Reference vector p with adj K = p p^T, on the last axis: the
    principal Pfaffian that omits index i (0-based), signed (-1)^i."""
    return np.stack(
        [(-1) ** i * _pfaffian(np.delete(np.delete(k, i, -2), i, -1)) for i in range(DIM)],
        axis=-1,
    )


def _g52_forms(count, seed):
    """Random antisymmetric 7x7 forms on the g5,2 pattern: standard normal
    entries at liecore._PAIRING_ENTRIES, zeros elsewhere."""
    k = np.zeros((count, DIM, DIM))
    rows, cols = zip(*liecore._PAIRING_ENTRIES)
    k[:, rows, cols] = np.random.default_rng(seed).normal(size=(count, len(rows)))
    return k - k.transpose(0, 2, 1)


def _scaled_pfaffians(u):
    """The float Pfaffian vectors p, shape (forms, 7), of the forms given by
    their entries at liecore._PAIRING_ENTRIES, one form per column of u:
    liecore._pfaffian on the entries divided by each form's largest, with
    p1 = p6 = p7 = 0."""
    u = u * (1.0 / np.abs(u).max(axis=0))
    p = np.zeros((DIM, u.shape[1]))
    p[1:5] = liecore._pfaffian(u[0], u[1], u[4:12:2], u[5:12:2])
    return p.T


def _assert_pfaffians(k, p, message):
    """p is the Pfaffian vector of each form divided by its largest entry:
    it equals the recursive principal Pfaffians, adj K = p p^T, and on
    forms with s5 > 1e-2 s1 |p| = s1 s3 s5.  Returns how many forms were
    that well conditioned."""
    scaled = k / np.abs(k).max(axis=(-2, -1))[:, None, None]
    np.testing.assert_allclose(
        p, _principal_pfaffians(scaled), rtol=0, atol=PFAFFIAN_ATOL, err_msg=message
    )
    np.testing.assert_allclose(
        p[:, :, None] * p[:, None, :], _adjugate(scaled), rtol=0, atol=ADJUGATE_ATOL, err_msg=message
    )
    s = np.linalg.svd(scaled, compute_uv=False)
    conditioned = s[:, 4] > 1e-2 * s[:, 0]
    norm = np.linalg.norm(p[conditioned], axis=-1)
    product = (s[:, 0] * s[:, 2] * s[:, 4])[conditioned]
    assert np.abs(norm / product - 1.0).max(initial=0.0) <= PFAFFIAN_RTOL, message
    return int(np.count_nonzero(conditioned))


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_certificate_pfaffians_on_catalog_forms(family):
    """The closed-form p of the certificate, read through pairing_operand,
    on the Kirillov forms of every family at its representative parameters
    and every default grid entry, coordinate strata and functionals scaled
    by 1e+-150 included."""
    grid = (verify.REPRESENTATIVE_PARAMS[family],) + catalog.default_parameter_grid(family)
    for params in grid:
        algebra = catalog.build(family, params)
        f = rng.sample_functionals(0, 200, "pfaffian-closed-form", family, *params)
        f[:40, 4] = 0.0
        f[40:80, 3] = 0.0
        f[80:120, 1:3] = 0.0
        f = np.concatenate([f, f * 1e-150, f * 1e150])
        p = _scaled_pfaffians(algebra.pairing_operand @ f.T)
        conditioned = _assert_pfaffians(algebra.kirillov(f), p, f"{family} {params}")
        assert conditioned > 100, (family, params)


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_certificate_pfaffians_on_random_g52_forms(scale):
    """The closed-form p on random g5,2-pattern forms, scaled by 1e+-100:
    p1 = p6 = p7 = 0, and p is the Pfaffian vector of the form divided by
    its largest entry."""
    k = _g52_forms(2000, 29) * scale
    rows, cols = zip(*liecore._PAIRING_ENTRIES)
    p = _scaled_pfaffians(k[:, rows, cols].T)
    assert _assert_pfaffians(k, p, str(scale)) > 1500


def _sent_to_svd(monkeypatch):
    """Record the number of matrices each numeric_rank call receives."""
    sent = []

    def counting(m, tol=1e-9):
        sent.append(math.prod(np.shape(m)[:-2]))
        return numeric_rank(m, tol)

    monkeypatch.setattr(liecore, "numeric_rank", counting)
    return sent


def _form_algebra(*forms):
    """A seven-dimensional bracket (not a Lie algebra) whose Kirillov form at
    the basis functional e_(n+1) is forms[n], exactly: the e_(n+1)
    coefficient of [e_i, e_j] is forms[n][i, j]."""
    brackets = {
        (i, j): {n: k[i, j] for n, k in enumerate(forms)}
        for i in range(DIM)
        for j in range(i + 1, DIM)
    }
    return LieAlgebra7("forms", (), brackets)


def test_pairing_rank_certifies_most_generic_forms(monkeypatch):
    """kirillov_rank certifies generic G13 functionals without SVD; those it
    does not go to numeric_rank, and the ranks agree row by row."""
    algebra = catalog.build("G13", verify.REPRESENTATIVE_PARAMS["G13"])
    f = rng.sample_functionals(0, 5000, "pairing-certified")
    expected = numeric_rank(algebra.kirillov(f))
    sent = _sent_to_svd(monkeypatch)
    np.testing.assert_array_equal(kirillov_rank(algebra, f), expected)
    assert sum(sent) < 0.05 * len(f)


def test_pairing_rank_below_floor_sends_every_form_to_svd(monkeypatch):
    """At tol = 1e-15, below the floor, every functional goes to numeric_rank."""
    assert PAIRING_TOL_FLOOR > 1e-15
    algebra = catalog.build("G8", verify.REPRESENTATIVE_PARAMS["G8"])
    f = rng.sample_functionals(0, 2000, "pairing-floor")
    expected = numeric_rank(algebra.kirillov(f), 1e-15)
    sent = _sent_to_svd(monkeypatch)
    np.testing.assert_array_equal(kirillov_rank(algebra, f, 1e-15), expected)
    assert sent == [len(f)]


def test_pairing_rank_from_tol_one_half_sends_every_form_to_svd(monkeypatch):
    """From tol = 1/2 on the margins of 2 leave no room: every functional
    goes to numeric_rank, which at tol >= 1 ranks every form zero, where
    the rank-two bound would hold."""
    algebra = catalog.build("G8", verify.REPRESENTATIVE_PARAMS["G8"])
    f = rng.sample_functionals(0, 2000, "pairing-ceiling")
    f[:500, 1:5] = 0.0
    sent = _sent_to_svd(monkeypatch)
    for tol in (0.5, 1.0, 2.0):
        np.testing.assert_array_equal(
            kirillov_rank(algebra, f, tol), numeric_rank(algebra.kirillov(f), tol)
        )
    assert sent == [len(f)] * 3


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_pairing_rank_equals_numeric_rank_on_scaled_forms(scale, monkeypatch):
    """Functionals scaled by 1e+-150 get the SVD ranks of their forms, and
    are certified, planted rank drops included, as unscaled ones are: the
    Pfaffians of the form divided by its largest entry neither overflow
    nor underflow, and no row of either goes to the SVD."""
    for family in catalog.FAMILIES:
        algebra = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family])
        f = rng.sample_functionals(0, 300, "pairing-scaled", family)
        f[:100, [3, 4]] = 0.0
        expected = numeric_rank(algebra.kirillov(f * scale))
        with monkeypatch.context() as patch:
            sent = _sent_to_svd(patch)
            np.testing.assert_array_equal(
                kirillov_rank(algebra, f * scale), expected, err_msg=family
            )
            kirillov_rank(algebra, f)
        assert sent == [], family


def test_pairing_rank_non_finite_forms_behave_as_numeric_rank():
    """A NaN or an infinite functional makes the SVD fail as it does in
    numeric_rank of its Kirillov form (inf times a zero operand entry is
    NaN there)."""
    algebra = catalog.build("G4", verify.REPRESENTATIVE_PARAMS["G4"])
    f = rng.sample_functionals(0, 20, "pairing-nan")
    for bad in (np.nan, np.inf):
        f[3, 4] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                numeric_rank(algebra.kirillov(f))
            with pytest.raises(np.linalg.LinAlgError):
                kirillov_rank(algebra, f)


def _strata_points(*key):
    """Generic functionals, the fifteen coordinate strata of x2..x5 and the
    G1 quadric x2 = x3 x4 / x5."""
    generic = rng.sample_functionals(0, 100, "pretest-strata", *key)
    pool = [generic]
    for size in range(1, 5):
        for zeros in itertools.combinations(range(1, 5), size):
            stratum = generic[:10].copy()
            stratum[:, list(zeros)] = 0.0
            pool.append(stratum)
    quadric = generic[:20].copy()
    quadric[:, 1] = quadric[:, 2] * quadric[:, 3] / quadric[:, 4]
    pool.append(quadric)
    return np.concatenate(pool)


@pytest.mark.parametrize("family", catalog.FAMILIES)
def test_p4_pretest_only_narrows_the_rank_six_test(family):
    """_certify's pretest, p4^2 > 4 tol^2 S1^3 on the entries as given,
    reads the same floats as _pfaffian's third entry, and every form it
    certifies the test of S3 = |p|^2 certifies too, on the strata points at
    the representative parameters and every default grid entry, scaled by
    1, 1e+-150, 2^-151 and 2^149, at tol 1e-9 and 1e-12; the pretest
    decides every generic functional at scale 1.  kirillov_rank equals
    numeric_rank of the Kirillov forms row by row."""
    grid = (verify.REPRESENTATIVE_PARAMS[family],) + catalog.default_parameter_grid(family)
    for params in grid:
        algebra = catalog.build(family, params)
        points = _strata_points(family, *params)
        for scale in (1.0, 1e150, 1e-150, 2.0**-151, 2.0**149):
            f = points * scale
            u = algebra.pairing_operand @ f.T
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                s1 = np.einsum("ij,ij->j", u, u)
                p = np.array(liecore._pfaffian(u[0], u[1], u[4:12:2], u[5:12:2]))
                p4 = liecore._pfaffian_p4(u[0], u[1], u[4:12:2], u[5:12:2])
                s3 = np.einsum("ij,ij->j", p, p)
                inside = (2.0**-300 < s1) & (s1 < 2.0**300)
                np.testing.assert_array_equal(p4, p[2])
                for tol in (1e-9, 1e-12):
                    bound = 4.0 * tol * tol * s1 * s1 * s1
                    pretest = inside & (p4 * p4 > bound)
                    assert np.all(s3[pretest] > bound[pretest]), (family, params, scale, tol)
                    if scale == 1.0:
                        assert pretest[:100].all(), (family, params, tol)
            for tol in (1e-9, 1e-12):
                np.testing.assert_array_equal(
                    kirillov_rank(algebra, f, tol),
                    numeric_rank(algebra.kirillov(f), tol),
                    err_msg=f"{family} {params} {scale} {tol}",
                )


def test_pairing_rank_shapes():
    """One functional gives an int, stacks keep their leading axes, and
    anything but length-7 functionals is refused."""
    k = _antisymmetric([2.0, 1.0, 0.5], seed=3)
    algebra = _form_algebra(k, np.zeros((DIM, DIM)), _antisymmetric([1.0, 1.0, 0.0], seed=4))
    basis = np.eye(DIM)
    single = kirillov_rank(algebra, basis[0])
    assert single == 6 and isinstance(single, int)
    assert kirillov_rank(algebra, basis[1]) == 0
    np.testing.assert_array_equal(kirillov_rank(algebra, basis[:3].reshape(1, 3, DIM)), [[6, 0, 4]])
    assert kirillov_rank(algebra, np.zeros((0, DIM))).shape == (0,)
    with pytest.raises(ValueError):
        kirillov_rank(algebra, np.zeros((3, 6)))


def _boundary_form(seed, boundary):
    """A g5,2-pattern form on a rank boundary, a direction w off it, and
    the index of the singular value that w moves off zero, linearly in its
    weight: for "s5", a form whose (., 7) column is c times its (., 6)
    column, with w in that column; for "s5-wide", the same with s3 / s1 at
    least 0.1; for "s3", the rank-two form a ^ (e6 + c e7), with a generic
    g5,2-pattern w."""
    gen = np.random.default_rng((seed, 1))
    if boundary == "s3":
        base = np.zeros((DIM, DIM))
        a, c = gen.normal(size=5), gen.normal()
        base[:5, 5], base[:5, 6] = a, c * a
        return base - base.T, _g52_forms(1, (seed, 2))[0], 2
    c, *direction = gen.normal(size=6)
    base = _g52_forms(1, seed)[0]
    base[:5, 6] = c * base[:5, 5]
    base[6, :5] = -base[:5, 6]
    if boundary == "s5-wide":
        s = np.linalg.svd(base, compute_uv=False)
        assume(s[2] >= 0.1 * s[0])
    w = np.zeros((DIM, DIM))
    w[:5, 6] = direction
    return base, w - w.T, 4


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([("s5", -10.0), ("s5-wide", -13.0), ("s3", -13.0)]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-100, max_value=1e100),
)
def test_pairing_rank_equals_numeric_rank_near_the_bound(seed, case, position, scale):
    """Forms from _boundary_form, with w weighted for s / s1 = 10^log_gap,
    where s is s5 or s3, as the Kirillov form at e1: certified or not, the
    rank is the SVD's at tol = 1e-9 and 1e-12.  For "s5", log_gap runs
    from -10 to -8, around 1e-9, where |p| / S1^(3/2) certifies rank six;
    for "s5-wide" and "s3" from -13 to -8, around both tols, across the
    rank-six/four and rank-four/two bounds in S1, S2 and S3."""
    boundary, low = case
    log_gap = low + position * (-8.0 - low)
    base, w, index = _boundary_form(seed, boundary)

    def ratio(delta):
        s = np.linalg.svd(base + delta * w, compute_uv=False)
        return s[index] / s[0]

    delta = 1e-9 * 10.0**log_gap / ratio(1e-9)
    assert math.isclose(ratio(delta), 10.0**log_gap, rel_tol=1e-2)
    k = scale * (base + delta * w)
    algebra, e1 = _form_algebra(k), np.eye(DIM)[0]
    assert algebra.pairing_operand is not None
    np.testing.assert_array_equal(algebra.kirillov(e1), k)
    assert kirillov_rank(algebra, e1) == numeric_rank(k)
    assert kirillov_rank(algebra, e1, 1e-12) == numeric_rank(k, 1e-12)


def test_kirillov_rank_certifies_catalog_functionals_without_kirillov(monkeypatch):
    """Generic G13 functionals and planted rank drops are certified from
    the pruned entries: no Kirillov form is built and no SVD runs.  Below
    the floor every row goes to numeric_rank(kirillov(...))."""
    algebra = catalog.build("G13", verify.REPRESENTATIVE_PARAMS["G13"])
    f = rng.sample_functionals(0, 3000, "kirillov-rank-certified")
    f[:7, [3, 4]] = 0.0
    expected = numeric_rank(algebra.kirillov(f))
    assert np.all(expected[:7] < 6) and np.all(expected[7:] == 6)
    built, kirillov = [], LieAlgebra7.kirillov

    def counting(self, g):
        built.append(len(g))
        return kirillov(self, g)

    monkeypatch.setattr(LieAlgebra7, "kirillov", counting)
    sent = _sent_to_svd(monkeypatch)
    np.testing.assert_array_equal(kirillov_rank(algebra, f), expected)
    assert built == sent == []
    kirillov_rank(algebra, f, 1e-13)
    assert built == sent == [len(f)]


def test_kirillov_rank_on_hand_built_algebras(monkeypatch):
    """Outside the catalog: the seven-dimensional Heisenberg algebra,
    [e_i, e_(i+3)] = e_7 for i = 1, 2, 3, has orbit dimension six exactly
    where f7 is nonzero, and the abelian algebra has orbit dimension zero
    everywhere.  The Heisenberg algebra pairs e1 with e4, off the g5,2
    pattern, so it has no pairing operand, and the SVD ranks every one of
    its functionals.  The abelian algebra's operand is zero, and so every
    Kirillov form: above the floor they are certified rank zero."""
    heisenberg = LieAlgebra7("h7", (), {(0, 3): {6: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}})
    abelian = LieAlgebra7("abelian", (), {})
    f = rng.sample_functionals(0, 400, "hand-built")
    f[:50, 6] = 0.0
    assert heisenberg.pairing_operand is None
    assert abelian.pairing_operand.shape == (13, DIM) and not abelian.pairing_operand.any()
    for tol in (1e-9, 1e-13):
        rank = kirillov_rank(heisenberg, f, tol)
        np.testing.assert_array_equal(rank, np.where(f[:, 6] == 0, 0, 6))
        np.testing.assert_array_equal(rank, numeric_rank(heisenberg.kirillov(f), tol))
        np.testing.assert_array_equal(kirillov_rank(abelian, f, tol), np.zeros(len(f)))
    sent = _sent_to_svd(monkeypatch)
    kirillov_rank(heisenberg, f)
    kirillov_rank(abelian, f)
    assert sent == [len(f)]
    kirillov_rank(abelian, f, 1e-13)
    assert sent == [len(f), len(f)]
    with pytest.raises(ValueError):
        kirillov_rank(heisenberg, np.zeros((3, 6)))


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


def _sparse_sum(*tables):
    """Entrywise sum of sparse tables, without the entries that cancel."""
    out = {}
    for table in tables:
        for key, value in table.items():
            out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value}


def _dense(brackets):
    """The exact antisymmetric structure tensor of a bracket table, as
    nested lists: c[i][j][k] is the e_k coefficient of [e_i, e_j]."""
    c = [[[0] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for (i, j), coeffs in brackets.items():
        for k, v in coeffs.items():
            c[i][j][k], c[j][i][k] = v, -v
    return c


def _reference_jacobiator(inner, outer):
    """The cyclic sum of [e_a, [e_b, e_c]] over every triple i < j < k and
    every e_l, term by term on the dense tensors."""
    dense_inner, dense_outer = _dense(inner), _dense(outer)
    out = {}
    for i in range(DIM):
        for j in range(i + 1, DIM):
            for k in range(j + 1, DIM):
                for l in range(DIM):
                    x = sum(
                        dense_inner[b][c][m] * dense_outer[a][m][l]
                        for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                        for m in range(DIM)
                    )
                    if x:
                        out[i, j, k, l] = x
    return out


@pytest.mark.parametrize("factor", [1, Fraction(2, 3)])
def test_jacobiator_matches_the_loop_on_a_broken_table(factor):
    """J(C, C) is the term-by-term cyclic sum on the dense tensor, and has
    verify_jacobi's worst residual and its violating triples."""
    brackets = {pair: {k: factor * v for k, v in c.items()} for pair, c in BROKEN_BRACKETS.items()}
    jacobiator = liecore._jacobiator(brackets, brackets)
    assert jacobiator == _reference_jacobiator(brackets, brackets)
    worst, violations = verify_jacobi(LieAlgebra7(family="G2", params=(), brackets=brackets))
    assert max(abs(x) for x in jacobiator.values()) == worst > 0
    triples = sorted({(i, j, k) for i, j, k, _ in jacobiator})
    assert triples == [(i, j, k) for i, j, k, _ in violations]


def test_jacobiator_is_the_term_by_term_sum_on_planted_families():
    """On every family with e1 planted in [e2, e6] and e1 + e2/2 in
    [e6, e7], J(C, C) and the cross term J(C0, C) against the unplanted
    table are the term-by-term sums on the dense tensors, and some entries
    are nonzero on e1."""
    on_e1 = 0
    for family in catalog.FAMILIES:
        unplanted = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family]).brackets
        planted = {pair: dict(coeffs) for pair, coeffs in unplanted.items()}
        for pair, k, v in (((1, 5), 0, 1), ((5, 6), 0, 1), ((5, 6), 1, Fraction(1, 2))):
            coeffs = planted.setdefault(pair, {})
            coeffs[k] = coeffs.get(k, 0) + v
        for inner, outer in ((planted, planted), (unplanted, planted)):
            jacobiator = liecore._jacobiator(inner, outer)
            assert jacobiator == _reference_jacobiator(inner, outer), family
            on_e1 += any(l == 0 for *_, l in jacobiator)
    assert on_e1


def _inversions(seq):
    return sum(a > b for n, a in enumerate(seq) for b in seq[n + 1:])


@pytest.mark.parametrize(
    "perm", [(1, 0, 2, 3, 4, 5, 6), (0, 2, 5, 1, 3, 6, 4), (6, 5, 4, 3, 2, 1, 0)]
)
def test_jacobiator_is_antisymmetric_in_its_triple(perm):
    """Relabelling e_i as e_perm(i) moves entry (i, j, k, l) to the sorted
    (perm(i), perm(j), perm(k)) and perm(l), with the sign of the sort:
    the entries are those of a form antisymmetric in (i, j, k)."""
    relabelled = {}
    for (i, j), coeffs in BROKEN_BRACKETS.items():
        sign = (-1) ** _inversions((perm[i], perm[j]))
        pair = tuple(sorted((perm[i], perm[j])))
        relabelled[pair] = {perm[k]: sign * v for k, v in coeffs.items()}
    expected = {}
    for (i, j, k, l), x in liecore._jacobiator(BROKEN_BRACKETS, BROKEN_BRACKETS).items():
        triple = (perm[i], perm[j], perm[k])
        expected[tuple(sorted(triple)) + (perm[l],)] = (-1) ** _inversions(triple) * x
    assert liecore._jacobiator(relabelled, relabelled) == expected


def test_jacobiator_is_zero_on_every_family():
    for family in catalog.FAMILIES:
        brackets = catalog.build(family, verify.REPRESENTATIVE_PARAMS[family]).brackets
        assert liecore._jacobiator(brackets, brackets) == {}, family


def test_jacobiator_is_bilinear():
    """J(A + B, A + B) = J(A, A) + J(A, B) + J(B, A) + J(B, B), with nonzero
    cross terms."""
    a = {pair: {k: Fraction(2, 3) * v for k, v in c.items()} for pair, c in BROKEN_BRACKETS.items()}
    b = catalog.build("G8", (Fraction(1, 3),)).brackets
    total = {pair: _sparse_sum(a.get(pair, {}), b.get(pair, {})) for pair in a.keys() | b.keys()}
    cross = [liecore._jacobiator(a, b), liecore._jacobiator(b, a)]
    assert cross == [_reference_jacobiator(a, b), _reference_jacobiator(b, a)]
    assert all(cross)
    assert liecore._jacobiator(total, total) == _sparse_sum(
        liecore._jacobiator(a, a), *cross, liecore._jacobiator(b, b)
    )


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
