"""Core linear algebra for seven-dimensional Lie algebras.

The basis is fixed once and for all: five nilradical generators followed by
two complementary generators.  Structure constants are stored exactly (as
ints or fractions whenever the family parameters are exact), and every
numerical routine works on dense float arrays derived from them.
"""
from __future__ import annotations

import contextvars
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Callable, Mapping

import numpy as np

from .poly import Poly

DIM = 7


class UnsupportedFamilyError(ValueError):
    """The requested operation is not available for this family."""


class DomainError(ValueError):
    """A point lies outside the domain of the requested computation."""


class ParameterError(ValueError):
    """Family parameters violate a catalog constraint."""


Brackets = Mapping[tuple[int, int], Mapping[int, Real]]


def bracket_coefficients(brackets: Brackets, i: int, j: int) -> dict[int, Real]:
    """Coefficients of [e_i, e_j] in the basis, for any index order."""
    if i == j:
        return {}
    if i < j:
        return dict(brackets.get((i, j), {}))
    return {k: -c for k, c in brackets.get((j, i), {}).items()}


@dataclass(frozen=True)
class LieAlgebra7:
    """A seven-dimensional Lie algebra given by exact structure constants.

    ``brackets`` maps index pairs (i, j) with i < j to the coefficients of
    [e_i, e_j]; missing pairs bracket to zero.  ``tensor`` is the dense
    float counterpart with tensor[i, j, k] the e_k coefficient of [e_i, e_j].

    The contractions are matrix products on the flattened input, so a
    batch runs as one BLAS matmul: ``ad`` and ``kirillov`` against the
    read-only 7x49 operands cached from ``tensor``, ``bracket`` against
    ``tensor`` viewed as 49x7.  ``ad`` and ``kirillov`` give the same
    floats as the einsum contractions they replaced, entry for entry, on
    every family and default grid entry.  ``pairing_operand`` holds the
    Kirillov form's entries that can be nonzero on the g5,2 nilradical
    pattern, from which kirillov_rank certifies orbit dimensions.
    """

    family: str
    params: tuple[Real, ...]
    brackets: Brackets

    @cached_property
    def tensor(self) -> np.ndarray:
        c = np.zeros((DIM, DIM, DIM))
        for (i, j), coeffs in self.brackets.items():
            for k, val in coeffs.items():
                c[i, j, k] = float(val)
                c[j, i, k] = -float(val)
        c.setflags(write=False)
        return c

    @cached_property
    def ad_operand(self) -> np.ndarray:
        """Read-only 7x49 matrix with row i holding tensor[i, j, k] at 7k + j."""
        return _frozen(self.tensor.transpose(0, 2, 1).reshape(DIM, DIM * DIM))

    @cached_property
    def kirillov_operand(self) -> np.ndarray:
        """Read-only 7x49 matrix with row k holding tensor[i, j, k] at 7i + j."""
        return _frozen(self.tensor.reshape(DIM * DIM, DIM).T)

    @cached_property
    def pairing_operand(self) -> np.ndarray | None:
        """Read-only 13x7 matrix whose rows are the columns of
        kirillov_operand at _PAIRING_ENTRIES, so that pairing_operand @ f
        gives the entries of kirillov(f) that the rank certificate reads.

        None when the nilradical generators pair otherwise than in g5,2,
        that is, when an entry (i, j) with i < j < 5 outside
        _PAIRING_ENTRIES is not identically zero.
        """
        nilradical = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        if any(self.tensor[i, j].any() for i, j in nilradical if (i, j) not in _PAIRING_ENTRIES):
            return None
        return _frozen(self.kirillov_operand[:, [DIM * i + j for i, j in _PAIRING_ENTRIES]].T)

    @cached_property
    def block_triangular(self) -> bool:
        """Whether every exp(ad u) has det(E) = det(E[0:3, 0:3]) det(E[3:5, 3:5]).

        True when the structure tensor has exact zeros at [g, g] in the e6
        and e7 coordinates ([g, g] lies in span(e1..e5)) and at
        [g, span(e4, e5)] in the e1..e3 coordinates (span(e4, e5) is an
        ideal).  Then ad u, and every product of such matrices, is zero in
        rows 6-7 and at rows 1-3 x columns 4-5, so exp(ad u) is block
        triangular with the identity on the (e6, e7) block; the products
        in exp_matrix keep those zeros exact, as sums of products with a
        zero factor.  All sixteen catalog families have this structure.
        """
        t = self.tensor
        return not t[:, :, 5:].any() and not t[:, 3:5, 0:3].any()

    def bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Bracket of two coordinate vectors, [u, v].

        Broadcasts over leading axes of ``u`` and ``v``.  Nothing in korbit
        calls it; it stays as the library's bracket of vectors, and the
        benchmark's tracer times it with ``ad`` and ``kirillov``.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        outer = u[..., :, None] * v[..., None, :]
        flat = outer.reshape(-1, DIM * DIM) @ self.tensor.reshape(DIM * DIM, DIM)
        return flat.reshape(outer.shape[:-2] + (DIM,))

    def ad(self, u: np.ndarray) -> np.ndarray:
        """Matrix of ad_u in column convention.

        Column j holds the coordinates of [u, e_j], so batching over a
        leading axis of ``u`` yields a stack of matrices.
        """
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1, DIM) @ self.ad_operand
        return flat.reshape(u.shape[:-1] + (DIM, DIM))

    def kirillov(self, f: np.ndarray) -> np.ndarray:
        """Antisymmetric pairing matrix of a functional f.

        Entry (i, j) is the value of f on [e_i, e_j].  The linear span of
        its rows is the tangent space of the orbit through f.
        """
        f = np.asarray(f, dtype=float)
        flat = f.reshape(-1, DIM) @ self.kirillov_operand
        return flat.reshape(f.shape[:-1] + (DIM, DIM))


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only C-ordered copy of a.

    The order matters: with numpy 2.4 on a 2-core x86-64 machine, a
    (10k x 7) batch times the transposed view tensor.reshape(49, 7).T took
    5 ms, against 0.3 ms for its C-ordered copy.
    """
    out = np.array(a, order="C")
    out.setflags(write=False)
    return out


def _jacobiator(inner: Brackets, outer: Brackets) -> dict[tuple[int, int, int, int], Real]:
    """The bilinear form behind the Jacobiator, on exact bracket tables.

    Entry (i, j, k, l), for i < j < k, is the e_l coefficient of the cyclic
    sum of [e_a, [e_b, e_c]] over (a, b, c) = (i, j, k), (j, k, i),
    (k, i, j), with the inner bracket read from ``inner`` and the outer one
    from ``outer``.  With both tables equal to C it is the Jacobiator of C,
    and it is linear in each table.  Only nonzero entries are returned, in
    sorted order.

    The sum runs over the entries of ``inner``: [e_a, [e_b, e_c]] with
    b < c counts toward the sorted triple of (a, b, c), with the sign of
    the sort, which is odd exactly when b < a < c.
    """
    acc: dict[tuple[int, int, int, int], Real] = {}
    for (b, c), coeffs in inner.items():
        for m, w in coeffs.items():
            for a in range(DIM):
                if a == b or a == c:
                    continue
                triple = tuple(sorted((a, b, c)))
                sign = -1 if b < a < c else 1
                for l, w2 in bracket_coefficients(outer, a, m).items():
                    acc[triple + (l,)] = acc.get(triple + (l,), 0) + sign * w * w2
    return {index: acc[index] for index in sorted(acc) if acc[index]}


def verify_jacobi(algebra: LieAlgebra7) -> tuple[Real, list[tuple[int, int, int, Real]]]:
    """Exact Jacobi residual over all basis triples.

    Returns the largest absolute coefficient of the cyclic sum
    [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] together with the
    list of violating triples.  With exact (int or fraction) structure
    constants the residual is exactly zero for a Lie algebra.
    """
    residuals: dict[tuple[int, int, int], Real] = {}
    for (i, j, k, _), x in _jacobiator(algebra.brackets, algebra.brackets).items():
        residuals[i, j, k] = max(residuals.get((i, j, k), 0), abs(x))
    violations = [(i, j, k, r) for (i, j, k), r in residuals.items()]
    return max(residuals.values(), default=0), violations


#: Weights of the Paterson-Stockmeyer blocks behind exp_matrix, applied to
#: the work rows (X^3, X^2, X, I).  Row j < 4 makes the block
#: B_j = sum over i < 4 of X^i / (4j+i)!, and row 4 the block B_4 of the
#: degree 16..18 terms, with which Horner's rule in X^4 starts.
_EXP_BLOCKS = np.array(
    [[1.0 / math.factorial(4 * j + i) for i in (3, 2, 1, 0)] for j in range(4)]
    + [[0.0] + [1.0 / math.factorial(k) for k in (18, 17, 16)]]
)


#: Matrices per chunk in exp_matrix.  The ten work rows of a chunk of 512
#: 7x7 matrices take 2.0 MB, about a 2 MB L2 cache.  On a 2-core x86-64
#: machine, spread over both cores, the medians of 12 rounds over 16
#: families' 10k ad stacks were 75 ms at 256 per chunk, 68 ms at 384,
#: 66 ms at 512, 67 ms at 768 and 94 ms at 1024.
_EXP_CHUNK = 512

#: A consumer of exponentials: fold(lo, hi, exps) receives the exponentials
#: of rows lo..hi of the flattened stack.
Fold = Callable[[int, int, np.ndarray], None]


def exp_matrix(m: np.ndarray, fold: Fold | None = None) -> np.ndarray | None:
    """Matrix exponential by scaling and squaring of a truncated series.

    A stack is worked through in chunks of _EXP_CHUNK matrices, so that
    the powers stay in cache, and each chunk scales itself: its matrices
    are halved s times, for the least s that brings the chunk's largest
    infinity norm to at most 1, and the degree-18 Taylor polynomial of the
    scaled matrices X is squared s times (Moler & Van Loan 2003).  At
    |X| <= 1 the truncated tail is at most the sum over k >= 19 of 1/k!,
    below 8.7e-18 and so far under rounding (Higham, *Functions of
    Matrices*, 2008, section 4.2).  The polynomial is evaluated by
    Paterson-Stockmeyer (Paterson & Stockmeyer 1973; Higham 2008, section
    4.2): with X^2, X^3 and X^4 formed once, one matrix product of the
    weights _EXP_BLOCKS with the stacked (X^3, X^2, X, I) forms all the
    blocks B_j = sum over i < 4 of X^i / (4j+i)!, which Horner's rule
    combines in X^4, smallest terms first, each step one stacked product
    by X^4 and one add.  That is 3 + 4 matrix products before the
    squarings, where term-by-term summation takes 18.  The norm is taken
    in the chunk's work rows just before scaling, so a chunk's
    exponentials depend on its own matrices alone.  Where finite entries
    have a row sum beyond the largest float, the norm is taken on the
    chunk halved k times, 2^k > n, and the k halvings count toward s.

    The chunks are split into contiguous spans, one per core the process
    may run on and at most one per two chunks.  The calling thread works
    through the first span and one thread per further span the others,
    each with work rows it allocates itself; numpy's matrix products
    release the interpreter lock, so the spans run side by side.  The
    chunks start at the same rows whatever the number of spans, so the
    result is the same to the bit on any number of cores.  The threads run
    under the caller's numpy error state, and an exception raised in one is
    raised here once all have finished.

    Each chunk's exponentials, once checked finite, are handed to
    fold(lo, hi, exps) straight from the span's work rows, as a
    (hi - lo, n, n) view valid only during the call, where lo..hi are the
    chunk's rows in the stack flattened to (-1, n, n).  Each row reaches
    fold exactly once, in the thread of its span, so folds run side by
    side on disjoint row ranges.  With ``fold``, returns None and builds no
    stack.  Without it, the fold copies each chunk into a stack, which is
    returned in the shape of ``m``; the exponentials are the same floats
    either way.

    Supports stacks of matrices on leading axes; an empty stack gives an
    empty stack of the same shape, and no fold call.  Raises DomainError
    for non-finite input and when the result overflows.  Each span checks
    its chunks as it reaches them, so the chunks that come before a
    non-finite or overflowing chunk in its span, and chunks of other spans,
    may have reached fold when DomainError is raised; no chunk with a
    non-finite entry or an overflowed exponential reaches fold.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return None if fold is not None else np.empty(m.shape)
    n = m.shape[-1]
    mats = m.reshape(-1, n, n)
    chunks = -(-len(mats) // _EXP_CHUNK)
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    # At least two chunks per span.  On a 2-core x86-64 machine two spans
    # were no faster than one on stacks of two or three chunks (median over
    # 16 families: 1,500 against 1,576 us at 1,000 matrices, 2,142 against
    # 2,299 us at 1,536) and 9-13 % faster on four: a thread's start and
    # the interpreter-lock handoff at each of its products cost what the
    # second core saves.
    spans = max(1, min(cores, chunks // 2))
    # Row bounds of each span, on chunk boundaries.
    bounds = [min(len(mats), _EXP_CHUNK * (chunks * i // spans)) for i in range(spans + 1)]
    stack = None
    if fold is None:
        stack = np.empty(mats.shape)

        def fold(lo: int, hi: int, exps: np.ndarray) -> None:
            stack[lo:hi] = exps

    errors: list[BaseException] = []

    def span(context: contextvars.Context, i: int) -> None:
        try:
            context.run(_exp_chunks, mats, fold, bounds[i], bounds[i + 1])
        except BaseException as err:  # raised again in the calling thread
            errors.append(err)

    threads = [
        threading.Thread(target=span, args=(contextvars.copy_context(), i))
        for i in range(1, spans)
    ]
    try:
        for thread in threads:
            thread.start()
        _exp_chunks(mats, fold, bounds[0], bounds[1])
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
    return None if stack is None else stack.reshape(m.shape)


def _halvings(norm: float) -> int:
    """How often exp_matrix halves a chunk of largest infinity norm
    ``norm``: the least s >= 0 with norm <= 2^s, read exactly off the
    binary exponent of norm = mantissa 2^exponent, 1/2 <= mantissa < 1."""
    mantissa, exponent = math.frexp(norm)
    return max(0, exponent - (mantissa == 0.5))


def _exp_chunks(mats: np.ndarray, fold: Fold, lo: int, hi: int) -> None:
    """exp_matrix's chunk loop over mats[lo:hi], in chunks of _EXP_CHUNK
    matrices from row lo, in work rows of its own.  Each chunk's
    exponentials are handed to fold from the work rows once they are
    checked finite."""
    n = mats.shape[-1]
    size = min(_EXP_CHUNK, hi - lo)
    # The work rows: (X^3, X^2, X, I), which _EXP_BLOCKS weighs, X^4 and
    # the blocks B_0..B_4.  Only the identity row keeps its contents.
    work = np.empty((10, size * n * n))
    work[3] = 0.0
    work[3].reshape(size, n * n)[:, :: n + 1] = 1.0
    for start in range(lo, hi, size):
        k = min(size, hi - start)
        rows = work[:, : k * n * n]
        x3, x2, x1, _, x4, *blocks = rows.reshape(10, k, n, n)
        chunk = mats[start : start + k]
        np.abs(chunk, out=x1)
        # Row sums (einsum is faster than .sum on 7-wide rows).
        norm = float(np.einsum("...ij->...i", x1).max())
        squarings = 0
        if not math.isfinite(norm):
            if not np.isfinite(chunk).all():
                raise DomainError("matrix exponential requires finite entries")
            # Finite entries whose row sum overflows: the norm of the chunk
            # halved k times, 2^k > n, is finite, and exact up to the power.
            squarings = n.bit_length()
            x1 *= 2.0**-squarings
            norm = float(np.einsum("...ij->...i", x1).max())
        squarings += _halvings(norm)
        np.multiply(chunk, 2.0**-squarings, out=x1)
        np.matmul(x1, x1, out=x2)
        np.matmul(x2, x1, out=x3)
        np.matmul(x2, x2, out=x4)
        np.matmul(_EXP_BLOCKS, rows[:4], out=rows[5:])
        # Horner's rule B_0 + X^4 (B_1 + X^4 (... + X^4 B_4)), the products
        # in X^3's row, which is spent, and each sum in the row of B_j.
        out = blocks[4]
        for j in (3, 2, 1, 0):
            np.matmul(out, x4, out=x3)
            out = np.add(x3, blocks[j], out=blocks[j])
        # X^4 is spent: its row is the squarings' second buffer.
        buf = x4
        for _ in range(squarings):
            np.matmul(out, out, out=buf)
            out, buf = buf, out
        if not np.isfinite(out).all():
            raise DomainError("matrix exponential overflowed")
        fold(start, start + k, out)


_PHI1_COEFFS = tuple(1.0 / math.factorial(k + 1) for k in range(8))


def phi1(x: np.ndarray | float) -> np.ndarray | float:
    """The entire function (e^x − 1)/x with phi1(0) = 1.

    Below |x| < 1e-4 the direct quotient is replaced by an eight-term
    Taylor sum to dodge cancellation; the (1 − e^x)/x variant appearing in
    closed-form exponentials is −phi1(x).  Accepts arrays.
    """
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < 1e-4
    safe = np.where(small, 1.0, arr)
    direct = np.expm1(safe) / safe
    series = np.full_like(arr, _PHI1_COEFFS[-1])
    for c in _PHI1_COEFFS[-2::-1]:
        series = series * arr + c
    out = np.where(small, series, direct)
    if out.ndim == 0:
        return float(out)
    return out


def numeric_rank(m: np.ndarray, tol: float = 1e-9) -> np.ndarray | int:
    """Number of singular values above tol times the largest one.

    Accepts stacks of matrices; a zero matrix has rank 0.
    """
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    top = s[..., :1]
    rank = np.count_nonzero(s > tol * np.where(top > 0, top, 1.0), axis=-1)
    if np.ndim(rank) == 0:
        return int(rank)
    return rank


#: 0-based (i, j) of the Kirillov form entries the rank certificate reads,
#: row-major: (1,2), (1,3), (1..5, 6), (1..5, 7), (6,7) in 1-based terms.
#: The nilradical g5,2 ([e1, e2] = e4, [e1, e3] = e5) zeroes all others.
_PAIRING_ENTRIES = tuple(
    (i, j) for i in range(DIM) for j in range(i + 1, DIM) if j >= 5 or (i, j) in ((0, 1), (0, 2))
)


def _quartic_pfaffian_rows() -> tuple[np.ndarray, np.ndarray]:
    """Rows into the entries at _PAIRING_ENTRIES, with row
    len(_PAIRING_ENTRIES) standing for a zero entry, of the 4x4 principal
    Pfaffians Pf(K_ijkl) = K_ij K_kl - K_ik K_jl + K_il K_jk that the g5,2
    pattern does not make identically zero: left[n, t] and right[n, t] are
    the factors of term t of the n-th of them, a term with a factor off the
    pattern being zero times zero.  Twenty of the thirty-five index sets
    i < j < k < l keep a term."""
    row = {entry: n for n, entry in enumerate(_PAIRING_ENTRIES)}
    zero = (len(_PAIRING_ENTRIES),) * 2
    table = []
    for i, j, k, l in itertools.combinations(range(DIM), 4):
        terms = [
            (row[x], row[y]) if x in row and y in row else zero
            for x, y in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
        ]
        if any(term != zero for term in terms):
            table.append(terms)
    left, right = np.array(table).transpose(2, 0, 1)
    return left, right


#: The factors of the terms of the twenty 4x4 Pfaffians behind S2.
_QUARTIC_LEFT, _QUARTIC_RIGHT = _quartic_pfaffian_rows()

#: Rounding allowances, in units of the largest entry, of the bounds that
#: divide by S2 (see PAIRING_TOL_FLOOR): _P_ROUNDING |P| for |p|, and
#: _QUARTIC_ALLOWANCE for sqrt(S2).
_P_ROUNDING = 2.01 * np.finfo(float).eps
_QUARTIC_ALLOWANCE = 18 * np.finfo(float).eps

#: Smallest rank tolerance at which kirillov_rank certifies.  In units of
#: the largest entry, each entry of p is at most two products of an entry
#: and a 2x2 minor, computed to 8 eps, so |p| is computed to 16 eps
#: (4e-15).  More finely, each entry of p is a sum of at most four products
#: of three entries, so it rounds by at most gamma_4 < 2.01 eps times the
#: sum of the products' magnitudes, and |p| by 2.01 eps |P|, where P holds
#: those sums: _pfaffian with operator.add on the entries' magnitudes,
#: zero where every product has a zero factor.  Each 4x4 Pfaffian is three
#: products of entries, computed to 4 eps: each product rounds by at most
#: eps / 2, and the two sums, at most 2 and 3, by eps and 3 eps / 2.  The
#: vector of the twenty is thus computed to sqrt(20) 4 eps < 18 eps, and
#: sqrt(S2) within 18 eps.  The sums of squares S1, S2 and S3 carry a
#: further relative error of about 13 eps.  LAPACK's singular values are
#: those of a matrix within a small multiple of eps |K| of K.
#:
#: At tol >= 1e-12 a form certified rank six by |p| / S1^(3/2) therefore
#: has s5 >= 1.99 tol s1.  The rank-two bound 3 sqrt(S2) / S1 on s3 / s1,
#: with S1 >= 1 here, is computed to 54 eps (1.2e-14), so a certified form
#: has s3 < 0.52 tol s1.  The other bounds divide by S2, which may be
#: small, so they take |p| and sqrt(S2) at the ends of the ranges their
#: allowances give: a form certified rank four has s5 < 0.51 tol s1 and
#: s3 > 1.99 tol s1, and one certified rank six by S3 / (S1 S2) has
#: s5 > 1.99 tol s1.  Either way the computed s3 ... s7 fall on the sides
#: of tol s1 that the certified rank says.  A fixed constant, not a
#: setting.
#:
#: Where 2^-300 < S1 < 2^300 the rank-six test needs no scaling: every
#: entry is below 2^150, so |p|^2 < 2^910, and the threshold
#: 4 tol^2 S1^3, with 2^-80 < tol^2 < 1/4, lies between 2^-978 and 2^900,
#: normal floats, as is every |p|^2 above it.  A product that underflows
#: on the way errs by at most 2^-1074, and by 2^-924 once multiplied by a
#: third entry, far inside the allowances against |p| > 2^-489 there, so
#: the bounds hold as on scaled forms.
PAIRING_TOL_FLOOR = 1e-12

#: Forms per chunk in kirillov_rank: the entries, minors and Pfaffians of
#: 2,048 forms (about 40 rows of 16 kB) stay in a 2 MB L2 cache.  On a
#: 2-core x86-64 machine, 16 families' 10k functionals took a median of
#: 1.3 ms per 10k at 1,024, 1.0 ms at 2,048 and 4,096, and 1.9 ms unchunked.
_PAIRING_CHUNK = 2048


def kirillov_rank(algebra: LieAlgebra7, f: np.ndarray, tol: float = 1e-9) -> np.ndarray | int:
    """numeric_rank(algebra.kirillov(f), tol), certifying ranks six, four,
    two and zero from f.

    For an antisymmetric 7x7 form K the singular values pair up,
    s1 = s2 >= s3 = s4 >= s5 = s6, with s7 = 0, and the seven principal
    6x6 Pfaffians form a vector p with adj K = p p^T, so that
    |p| = s1 s3 s5.  With s3 <= s1 and s1^2 <= |K|_F^2 / 2 this gives

        s5 / s1 >= |p| / s1^3 >= 2^(3/2) |p| / |K|_F^3.

    A form whose bound exceeds 2 tol gets rank six without an SVD: by
    Weyl's bound on perturbed singular values (Golub & Van Loan, *Matrix
    Computations*, section 8.6), the SVD of such a form keeps s5 and s6
    above tol s1 and s7 below it, for tol from PAIRING_TOL_FLOOR up to,
    not including, 1/2, where the margin of 2 leaves no room.

    The other forms are ranked by the coefficients of the characteristic
    polynomial x (x^2 + s1^2)(x^2 + s3^2)(x^2 + s5^2), each a sum of
    squared principal Pfaffians:

        S1 = sum over i < j of K_ij^2 = s1^2 + s3^2 + s5^2,
        S2 = sum of the squared 4x4 principal Pfaffians
           = s1^2 s3^2 + s1^2 s5^2 + s3^2 s5^2,
        S3 = |p|^2 = s1^2 s3^2 s5^2.

    From S1 / 3 <= s1^2 <= S1 and S2 / 3 <= s1^2 s3^2 <= S2,

        (s5 / s1)^2 <= 9 S3 / (S1 S2),
        (s3 / s1)^2 >= S2 / S1^2 - 18 S3 / (S1 S2),
        (s3 / s1)^2 <= 9 S2 / S1^2,
        (s5 / s1)^2 >= S3 / (S1 S2).

    A form gets rank four when the first bound is below (tol / 2)^2 and
    the second above (2 tol)^2, rank two when the third is below
    (tol / 2)^2, rank six also when the fourth is above (2 tol)^2, and
    rank zero when its entries are all exactly zero.  The margins of 2
    keep the computed singular values on the sides of tol s1 that the rank
    says (see PAIRING_TOL_FLOOR).

    On the nilradical g5,2 of every catalog algebra, p has the closed form
    of _certify in the Kirillov form's entries at _PAIRING_ENTRIES.  One
    matmul by algebra.pairing_operand gives them, and _certify runs on
    them, _PAIRING_CHUNK functionals at a time: on the entries as given
    where the rank-six test can neither overflow nor underflow, else on
    the form divided by its largest entry.  The rank-six test runs first
    with p4^2 in place of |p|^2: the computed |p|^2 is a sum of rounded
    squares that includes p4 p4, and rounding is monotone, so it is at
    least p4 p4, and a form this pretest certifies is one the full test
    certifies.  p4 is nonzero for every family and decides the generic
    forms; only the forms it leaves open get all of p.  The
    functionals the certificates leave open (non-finite forms, forms within
    the margins of 2), all functionals at tol below the floor or from 1/2
    on, and all of an algebra without the g5,2 pattern (pairing_operand is
    None), are ranked by numeric_rank(algebra.kirillov(...)), so the result
    equals numeric_rank(algebra.kirillov(f), tol) row by row, and kirillov
    is called only for those rows.

    Batched over leading axes of f; one functional gives an int.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (DIM,):
        raise ValueError(f"kirillov_rank expects functionals of length 7, got shape {f.shape}")
    flat = f.reshape(-1, DIM)
    rank = np.full(len(flat), -1)
    operand = algebra.pairing_operand
    # The margins of 2 need s1 > 2 tol s1.
    if PAIRING_TOL_FLOOR <= tol < 0.5 and operand is not None:
        for start in range(0, len(flat), _PAIRING_CHUNK):
            chunk = slice(start, start + _PAIRING_CHUNK)
            rank[chunk] = _certify(operand @ flat[chunk].T, tol)
    uncertified = rank < 0
    if uncertified.any():
        rank[uncertified] = numeric_rank(algebra.kirillov(flat[uncertified]), tol)
    if f.ndim == 1:
        return int(rank[0])
    return rank.reshape(f.shape[:-1])


def _pfaffian(k12, k13, a, b, minus: Callable = operator.sub) -> tuple:
    """p2..p5 of the Pfaffian vector p of an antisymmetric 7x7 form K on the
    g5,2 pattern, with adj K = p p^T, in any ring: float arrays in _certify,
    Polys in pfaffian_polynomials.

    In 1-based indices, with a_j = K_j6 and b_j = K_j7 given for j = 2..5
    as a[0..3] and b[0..3], and the 2x2 minors m_jk = a_j b_k - a_k b_j,

        p1 = p6 = p7 = 0,  p2 = K13 m45,  p3 = -K12 m45,
        p4 = K12 m35 - K13 m25,  p5 = K13 m24 - K12 m34:

    the principal Pfaffian that omits index i, signed (-1)^(i+1), is a sum
    over the perfect matchings of the other six indices, and on this
    pattern the only matchings left pair 1 with 2 or 3 and two of 2..5
    with 6 and 7.

    Every subtraction goes through ``minus``.  With operator.add on the
    entries' magnitudes, the result is instead, for each entry of p, the
    sum of the magnitudes of its terms, which bounds its rounding error.
    """
    m45 = _minor(a, b, 2, 3, minus)
    return (
        k13 * m45,
        minus(0, k12 * m45),
        _pfaffian_p4(k12, k13, a, b, minus),
        minus(k13 * _minor(a, b, 0, 2, minus), k12 * _minor(a, b, 1, 2, minus)),
    )


def _pfaffian_p4(k12, k13, a, b, minus: Callable = operator.sub):
    """p4 = K12 m35 - K13 m25, the third entry of _pfaffian, which reads it
    from here, so that _certify's one-entry pretest has the same floats."""
    return minus(k12 * _minor(a, b, 1, 3, minus), k13 * _minor(a, b, 0, 3, minus))


def _minor(a, b, j: int, k: int, minus: Callable = operator.sub):
    """The 2x2 minor a[j] b[k] - a[k] b[j] of _pfaffian."""
    return minus(a[j] * b[k], a[k] * b[j])


def geometry_variables(arity: int) -> tuple[tuple[Poly, ...], tuple[Poly, ...]]:
    """The Poly variables of the exact orbit geometry: the coordinates
    x1..x7 of a functional as Poly.variable(0..6), then ``arity`` family
    parameters from Poly.variable(7) on."""
    variables = tuple(Poly.variable(i) for i in range(DIM + arity))
    return variables[:DIM], variables[DIM:]


def pfaffian_polynomials(family: str) -> tuple[Poly, ...]:
    """The Pfaffian vector p of the family's Kirillov form as seven exact
    polynomials in geometry_variables, one p for every parameter value:
    _pfaffian on the entries K_ij = sum over c of C_ij^c x_c, from the
    bracket table built with a Poly per parameter.  Every catalog family
    has the g5,2 pattern that _pfaffian needs."""
    from . import catalog  # catalog builds its algebras from this module

    x, params = geometry_variables(catalog.PARAM_ARITY[family])
    brackets = catalog.build(family, params).brackets

    def entry(i: int, j: int) -> Poly:
        return sum((c * x[k] for k, c in bracket_coefficients(brackets, i, j).items()), Poly())

    a, b = ([entry(j, k) for j in range(1, 5)] for k in (5, 6))
    return (Poly(), *_pfaffian(entry(0, 1), entry(0, 2), a, b), Poly(), Poly())


def _certify(u: np.ndarray, tol: float) -> np.ndarray:
    """The rank certificates of kirillov_rank for antisymmetric 7x7 forms K
    on the g5,2 pattern, given by their entries at _PAIRING_ENTRIES, one
    form per column of ``u``.

    The Pfaffian vector p with adj K = p p^T comes from _pfaffian; K16,
    K17 and K67 enter only S1 = |K|_F^2 / 2.  Where 2^-300 < S1 < 2^300
    the rank-six test runs on the entries as given (see
    PAIRING_TOL_FLOOR), first on p4 alone, with p4^2 in place of
    S3 = |p|^2.  p4 is nonzero for every family (and the only nonzero
    entry on G1), and decides the generic forms.  The pretest reads p4
    from _pfaffian_p4, the same floats as _pfaffian's third entry, so the
    computed S3, a sum of non-negative rounded squares that includes
    p4 p4, is at least p4 p4, rounding being monotone: every form that
    p4 certifies, the S3 test certifies too, and the pretest changes no
    rank.  Only the forms it leaves open get the full S3.  The forms that
    S3 leaves open are divided by their largest entries, tested again,
    and go on to _low_rank.

    Returns the certified rank of each form, -1 where no certificate
    holds.  The ranks hold for tol from PAIRING_TOL_FLOOR up to 1/2.
    Non-finite forms, and forms whose largest entry is subnormal, turn
    into NaN or inf here, fail every comparison and stay uncertified; a
    zero form is certified rank zero.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        s1 = np.einsum("ij,ij->j", u, u)
        rank = np.full(u.shape[1], 6)
        # |p| / S1^(3/2) > 2 tol, squared, tested first with p4^2 <= |p|^2.
        inside = (2.0**-300 < s1) & (s1 < 2.0**300)
        bound = np.where(inside, 4.0 * tol * tol * s1 * s1 * s1, np.inf)
        p4 = _pfaffian_p4(u[0], u[1], u[4:12:2], u[5:12:2])
        open_ = np.flatnonzero(~(p4 * p4 > bound))
        if open_.size:
            open_ = open_[~(_s3(u[:, open_]) > bound[open_])]
        if open_.size:
            u = u[:, open_]
            largest = np.abs(u).max(axis=0, initial=0.0)
            u *= 1.0 / largest
            s1, s3 = np.einsum("ij,ij->j", u, u), _s3(u)
            six = s3 > 4.0 * tol * tol * s1**3
            low = _low_rank(u, s1, s3, tol)
            rank[open_] = np.select([largest == 0.0, six], [0, 6], low)
    return rank


def _s3(u: np.ndarray) -> np.ndarray:
    """S3 = |p|^2 of the forms given as in _certify."""
    # a and b of indices 2..5 are rows 4, 6, 8, 10 and 5, 7, 9, 11.
    p = np.array(_pfaffian(u[0], u[1], u[4:12:2], u[5:12:2]))
    return np.einsum("ij,ij->j", p, p)


def _low_rank(u: np.ndarray, s1: np.ndarray, s3: np.ndarray, tol: float) -> np.ndarray:
    """Ranks six, four and two of kirillov_rank's bounds in S1, S2 and S3,
    -1 where none holds, for scaled forms given as in _certify, with their
    S1 and S3.

    S2 sums the squares of the twenty 4x4 Pfaffians of _QUARTIC_LEFT and
    _QUARTIC_RIGHT.  Rank six holds where (s5 / s1)^2 >= S3 / (S1 S2), from
    s1^2 <= S1 and s1^2 s3^2 <= S2, exceeds (2 tol)^2, which certifies
    forms with a small s3 / s1 that the test of |p| / S1^(3/2) leaves
    open.  The bounds that divide by S2 take the ends of the ranges that
    the allowances put around |p| and sqrt(S2), and so bound the exact
    values of the scaled form; the rank-two bound needs no allowance (see
    PAIRING_TOL_FLOOR), nor a test of S1 > 0: zero forms get rank zero in
    _certify, and every other finite form has an entry of 1 here.
    """
    padded = np.concatenate([u, np.zeros((1, u.shape[1]))])
    terms = padded[_QUARTIC_LEFT] * padded[_QUARTIC_RIGHT]
    quartic = terms[:, 0] - terms[:, 1] + terms[:, 2]
    s2 = np.einsum("ij,ij->j", quartic, quartic)
    m = np.abs(u)
    magnitudes = np.array(_pfaffian(m[0], m[1], m[4:12:2], m[5:12:2], operator.add))
    p_error = _P_ROUNDING * np.sqrt(np.einsum("ij,ij->j", magnitudes, magnitudes))
    p_lo = np.maximum(np.sqrt(s3) - p_error, 0.0) ** 2
    p_hi = (np.sqrt(s3) + p_error) ** 2
    s2_lo = np.maximum(np.sqrt(s2) - _QUARTIC_ALLOWANCE, 0.0) ** 2
    s2_hi = (np.sqrt(s2) + _QUARTIC_ALLOWANCE) ** 2
    quarter = tol * tol / 4.0
    # S3 / (S1 S2) > (2 tol)^2, multiplied out by S1 and S2.
    six = p_lo > 16.0 * quarter * s1 * s2_hi
    # 9 S3 / (S1 S2) < (tol / 2)^2 and S2 / S1^2 - 18 S3 / (S1 S2) > (2 tol)^2,
    # multiplied out by S1 and S2.
    four = (9.0 * p_hi < quarter * s1 * s2_lo) & (
        s2_lo * s2_lo - 18.0 * p_hi * s1 > 16.0 * quarter * s1 * s1 * s2_lo
    )
    # 9 S2 / S1^2 < (tol / 2)^2.
    two = 9.0 * s2 < quarter * s1 * s1
    return np.select([six, four, two], [6, 4, 2], -1)
