"""Core linear algebra for seven-dimensional Lie algebras.

The basis is fixed once and for all: five nilradical generators followed by
two complementary generators.  Structure constants are stored exactly (as
ints or fractions whenever the family parameters are exact), and every
numerical routine works on dense float arrays derived from them.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

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
    every family and default grid entry.  ``pairing_operand`` holds only
    the Kirillov form's upper-triangle entries that are not identically
    zero, from which kirillov_rank certifies orbit dimension six.
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
    def pairing_support(self) -> tuple[int, ...]:
        """Positions in the row-major upper triangle (liecore._UPPER_PAIRS)
        of the Kirillov form's entries that are not identically zero."""
        upper = self.kirillov_operand[:, _UPPER]
        return tuple(int(n) for n in np.flatnonzero(np.any(upper != 0, axis=0)))

    @cached_property
    def pairing_operand(self) -> np.ndarray:
        """Read-only m x 7 matrix whose rows are the columns of
        kirillov_operand at pairing_support, so that pairing_operand @ f
        gives the m structurally nonzero entries above the diagonal of
        kirillov(f).  For the catalog algebras m is 6 to 11 of the 21."""
        return _frozen(self.kirillov_operand[:, _UPPER[list(self.pairing_support)]].T)

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


def verify_jacobi(algebra: LieAlgebra7) -> tuple[Real, list[tuple[int, int, int, Real]]]:
    """Exact Jacobi residual over all basis triples.

    Returns the largest absolute coefficient of the cyclic sum
    [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] together with the
    list of violating triples.  With exact (int or fraction) structure
    constants the residual is exactly zero for a Lie algebra.
    """
    brackets = algebra.brackets
    worst: Real = 0
    violations: list[tuple[int, int, int, Real]] = []
    for i in range(DIM):
        for j in range(i + 1, DIM):
            for k in range(j + 1, DIM):
                acc: dict[int, Real] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, w in bracket_coefficients(brackets, b, c).items():
                        for l, w2 in bracket_coefficients(brackets, a, m).items():
                            acc[l] = acc.get(l, 0) + w * w2
                residual = max((abs(x) for x in acc.values()), default=0)
                if residual != 0:
                    violations.append((i, j, k, residual))
                if residual > worst:
                    worst = residual
    return worst, violations


#: Exact (int or Fraction) bracket entries: (i, j, k) -> the e_k
#: coefficient of [e_i, e_j], for i < j.
Entries = Mapping[tuple[int, int, int], Real]


def _integer_tensors(tables: Sequence[Entries]) -> tuple[np.ndarray, int]:
    """Antisymmetric int64 structure tensors of exact bracket tables, all
    scaled by the least common multiple of their entries' denominators.

    Returns the stack, one tensor per table, and the scale.
    """
    scale = math.lcm(*(v.denominator for table in tables for v in table.values()))
    out = np.zeros((len(tables), DIM, DIM, DIM), dtype=np.int64)
    for n, table in enumerate(tables):
        for (i, j, k), v in table.items():
            out[n, i, j, k] = int(v * scale)
            out[n, j, i, k] = -out[n, i, j, k]
    return out, scale


def _jacobi_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The bilinear form behind the Jacobiator, on int64 structure tensors.

    B(A, B)[i, j, k, l] = sum_m A[j, k, m] B[i, m, l] plus its two cyclic
    shifts in (i, j, k), so that B(C, C)[i, j, k, l] is the e_l coefficient
    of [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]].  Broadcasts over
    leading axes.  Every entry is a sum of 3 * 7 products, so the result is
    exact unless that bound reaches 2^62, which raises OverflowError (the
    margin leaves room to add two such forms).
    """
    bound = 3 * DIM * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    if bound >= 2**62:
        raise OverflowError("structure constants too large for an exact int64 Jacobiator")
    t = np.einsum("...jkm,...iml->...ijkl", a, b)
    n = t.ndim - 4
    lead = tuple(range(n))
    # At (i, j, k, l) the two transposes hold t[j, k, i, l] and t[k, i, j, l].
    return (
        t
        + t.transpose(lead + tuple(n + axis for axis in (2, 0, 1, 3)))
        + t.transpose(lead + tuple(n + axis for axis in (1, 2, 0, 3)))
    )


#: Weights of the Paterson-Stockmeyer steps behind exp_matrix, applied to
#: the stack (H, X^3, X^2, X, I).  Step j < 4 weighs H, the previous step
#: times X^4, by 1 and X^i by 1/(4j+i)!; the last row starts the recurrence
#: with the degree 16..18 terms.
_EXP_STEPS = np.array(
    [[1.0] + [1.0 / math.factorial(k) for k in range(4 * j + 3, 4 * j - 1, -1)] for j in range(4)]
    + [[0.0, 0.0] + [1.0 / math.factorial(k) for k in (18, 17, 16)]]
)


#: Matrices per chunk in exp_matrix.  The seven work rows of a chunk of 512
#: 7x7 matrices take 1.4 MB and stay in a 2 MB L2 cache.  On a 2-core x86-64
#: machine a 10k stack took 11-13 ms at 256 to 1024 per chunk, 15 ms at
#: 4096 and 16 ms unchunked, on one core.  Spread over both cores, the
#: medians of 2 x 15 rounds over 16 families' ad stacks were 13.3-13.6 ms
#: at 256, 12.0-12.4 ms at 512, 13.1-13.5 ms at 1024 and 14.5 ms at 2048.
_EXP_CHUNK = 512


def exp_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a truncated series.

    The argument is halved s times until its infinity norm is at most 1/2,
    with one s for the whole stack, taken from its largest norm.  The
    degree-18 Taylor polynomial of the scaled matrix X is evaluated by
    Paterson-Stockmeyer (Paterson & Stockmeyer 1973; Higham, *Functions of
    Matrices*, 2008, section 4.2): with X^2, X^3 and X^4 formed once, the
    sum splits into blocks B_j = sum over i < 4 of X^i / (4j+i)!, which
    Horner's rule combines in X^4.  Each Horner step adds B_j to the
    previous step times X^4 in one vector-matrix product over the stacked
    matrices, smallest terms first.  The result is then squared s times
    (Moler & Van Loan 2003).  That is 3 + 4 matrix products before the
    squarings, where term-by-term summation takes 18.  A stack is worked
    through in chunks of _EXP_CHUNK matrices, so that the powers stay in
    cache; the squaring count is still one for the whole stack.

    The chunks are split into contiguous spans, one per core the process
    may run on and at most one per two chunks.  The calling thread works
    through the first span and one thread per further span the others,
    each with its own work rows; numpy's matrix products release the
    interpreter lock, so the spans run side by side.  A chunk's arithmetic
    depends only on its matrices and the shared squaring count, and the
    chunks start at the same rows whatever the number of spans, so the
    result is the same to the bit on any number of cores.  The threads run
    under the caller's numpy error state, and an exception raised in one is
    raised here once all have finished.

    Supports stacks of matrices on leading axes; an empty stack gives an
    empty stack of the same shape.  Raises DomainError for non-finite
    input and when the result overflows.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return np.empty(m.shape)
    # Row sums of |m| (einsum is faster than .sum on 7-wide rows); a
    # non-finite entry makes the norm NaN or infinite.
    top = float(np.einsum("...ij->...i", np.abs(m)).max())
    if not math.isfinite(top):
        raise DomainError("matrix exponential requires finite entries")
    squarings = max(0, int(np.ceil(np.log2(top / 0.5)))) if top > 0.5 else 0
    n = m.shape[-1]
    mats = m.reshape(-1, n, n)
    result = np.empty(mats.shape)
    size = min(_EXP_CHUNK, len(mats))
    chunks = -(-len(mats) // size)
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
    bounds = [min(len(mats), size * (chunks * i // spans)) for i in range(spans + 1)]
    # Per span, the work rows: the stack (H, X^3, X^2, X, I) that the steps
    # weigh, X^4, and a squaring buffer.  Only the identity row keeps its
    # contents.
    work = np.zeros((spans, 7, size * n * n))
    work[:, 4].reshape(spans, size, n * n)[:, :, :: n + 1] = 1.0
    errors: list[BaseException] = []

    def span(context: contextvars.Context, i: int) -> None:
        try:
            context.run(_exp_chunks, mats, result, squarings, bounds[i], bounds[i + 1], work[i])
        except BaseException as err:  # raised again in the calling thread
            errors.append(err)

    threads = [
        threading.Thread(target=span, args=(contextvars.copy_context(), i))
        for i in range(1, spans)
    ]
    try:
        for thread in threads:
            thread.start()
        _exp_chunks(mats, result, squarings, bounds[0], bounds[1], work[0])
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
    if not np.all(np.isfinite(result)):
        raise DomainError("matrix exponential overflowed")
    return result.reshape(m.shape)


def _exp_chunks(
    mats: np.ndarray, result: np.ndarray, squarings: int, lo: int, hi: int, work: np.ndarray
) -> None:
    """exp_matrix's chunk loop: writes the exponentials of mats[lo:hi] to
    result[lo:hi], chunk by chunk in the work rows of one span."""
    n = mats.shape[-1]
    size = work.shape[-1] // (n * n)
    for start in range(lo, hi, size):
        k = min(size, hi - start)
        rows = work[:, : k * n * n]
        horner, x3, x2, x1, _, x4, buf = rows.reshape(7, k, n, n)
        np.multiply(mats[start : start + k], 2.0**-squarings, out=x1)
        np.matmul(x1, x1, out=x2)
        np.matmul(x2, x1, out=x3)
        np.matmul(x2, x2, out=x4)
        target = out = result[start : start + k]
        np.matmul(_EXP_STEPS[4], rows[:5], out=out.reshape(-1))
        for weights in _EXP_STEPS[3::-1]:
            np.matmul(out, x4, out=horner)
            np.matmul(weights, rows[:5], out=out.reshape(-1))
        for _ in range(squarings):
            np.matmul(out, out, out=buf)
            out, buf = buf, out
        if out is not target:
            target[...] = out


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


def _expand(indices: tuple[int, ...]):
    """Expansion of a Pfaffian along its first index.

    Pf(A) = sum over partners j of (-1)^pos a_{first, j} Pf(A without
    first and j), where pos counts the indices between the two.  Yields
    (sign, (first, j), remaining indices).
    """
    first, rest = indices[0], indices[1:]
    for pos, partner in enumerate(rest):
        yield (-1) ** pos, (first, partner), rest[:pos] + rest[pos + 1 :]


def _matchings(indices: tuple[int, ...]):
    """Signed perfect matchings of an even index tuple: the Pfaffian's terms."""
    if not indices:
        yield 1, ()
        return
    for sign, pair, remaining in _expand(indices):
        for inner, pairs in _matchings(remaining):
            yield sign * inner, (pair,) + pairs


#: Index pairs and flat positions (7i + j) of the 21 entries above the
#: diagonal.
_UPPER_PAIRS = tuple((i, j) for i in range(DIM) for j in range(i + 1, DIM))
_UPPER = np.array([DIM * i + j for i, j in _UPPER_PAIRS])


@lru_cache(maxsize=None)
def _pfaffian_tables(pattern: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather tables for the seven principal 6x6 Pfaffians of 7x7 forms
    whose entries above the diagonal vanish outside ``pattern``.

    ``pattern`` lists positions in _UPPER_PAIRS, and a form comes as its
    entries at those positions.  Principal Pfaffian i omits index i and
    carries the sign (-1)^i, so that the Pfaffians make the vector p with
    adj K = p p^T.  Each is expanded once along its first index into five
    entries times 4x4 Pfaffians; the 4x4 minors that occur are the fifteen
    4-subsets of indices 1..6, each a sum of three matched products, so the
    105 terms share their products.  Entries index the signed pattern
    (+u, -u, 0), which folds every sign into a factor.

    Products and terms with a factor outside the pattern are exact zeros.
    They are left out, and so are minors left with no product; the sums
    that come out short are padded at their end with products of the zero
    entry.  That changes no sum but the sign of a zero.  All four tables are
    term-major: row t holds the t-th term of every kept 4x4 minor or of
    every 6x6 Pfaffian.  The full pattern gives every term, unpadded.
    """
    position = {_UPPER_PAIRS[n]: r for r, n in enumerate(pattern)}
    zero = 2 * len(pattern)

    def signed(sign: int, pair: tuple[int, int]) -> int:
        return position[pair] + (len(pattern) if sign < 0 else 0)

    expansions = [
        [((-1) ** omit * sign, pair, minor) for sign, pair, minor in _expand(
            tuple(i for i in range(DIM) if i != omit)
        ) if pair in position]
        for omit in range(DIM)
    ]
    matched = {
        minor: [(s, pairs) for s, pairs in _matchings(minor) if set(pairs) <= position.keys()]
        for minor in sorted({minor for terms in expansions for _, _, minor in terms})
    }
    minors = [minor for minor, products in matched.items() if products]
    expansions = [[term for term in terms if term[2] in minors] for terms in expansions]
    return (
        _padded([[signed(s, pairs[0]) for s, pairs in matched[m]] for m in minors], zero),
        _padded([[position[pairs[1]] for _, pairs in matched[m]] for m in minors], zero),
        _padded([[signed(s, pair) for s, pair, _ in terms] for terms in expansions], zero),
        _padded([[minors.index(m) for _, _, m in terms] for terms in expansions], 0),
    )


def _padded(rows: list[list[int]], fill: int) -> np.ndarray:
    """The rows padded with ``fill`` to equal length, transposed: column r
    holds row r."""
    width = max(map(len, rows), default=0)
    table = np.array([row + [fill] * (width - len(row)) for row in rows], dtype=np.intp)
    return table.reshape(len(rows), width).T.copy()


def _principal_pfaffians(u: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    """The vector p with adj K = p p^T, from the upper triangle of K.

    ``u`` holds the entries above the diagonal at the positions of
    ``pattern`` in _UPPER_PAIRS (range(21) for all of them, in row-major
    order) on its first axis, and one column per matrix; the result has
    shape (7, columns).
    """
    minor_left, minor_right, entry, entry_minor = _pfaffian_tables(pattern)
    signed = np.concatenate([u, -u, np.zeros((1, u.shape[1]))])
    products = signed[minor_left]
    products *= signed[minor_right]
    minors = products.sum(axis=0)
    terms = signed[entry]
    terms *= minors[entry_minor]
    return terms.sum(axis=0)


#: Smallest rank tolerance at which kirillov_rank certifies.  In units of
#: the largest entry, |p| is computed to about 400 eps (1e-13), and the
#: singular values LAPACK returns are those of a matrix within a small
#: multiple of eps |K| of K.  At tol >= 1e-12 (about 4500 eps) a certified
#: form therefore has s5 >= 1.9 tol s1, and its computed s5 and s6 stay
#: above tol s1 while s7 stays below.  A fixed constant, not a setting.
PAIRING_TOL_FLOOR = 1e-12

#: Forms per chunk in kirillov_rank: the gathered products of 1,024 forms
#: (45 and 35 rows of 8 kB) stay in a 2 MB L2 cache.  On a 2-core x86-64
#: machine the certificate took 3.1-3.5 ms per 10k full G13 forms at 1,024
#: and 4.4-5.0 ms at 256.
_PAIRING_CHUNK = 1024


def kirillov_rank(algebra: LieAlgebra7, f: np.ndarray, tol: float = 1e-9) -> np.ndarray | int:
    """numeric_rank(algebra.kirillov(f), tol), certifying rank six from f.

    For an antisymmetric 7x7 form K the singular values pair up,
    s1 = s2 >= s3 = s4 >= s5 = s6, with s7 = 0, and the seven principal
    6x6 Pfaffians form a vector p with adj K = p p^T, so that
    |p| = s1 s3 s5.  With s3 <= s1 and s1^2 <= |K|_F^2 / 2 this gives

        s5 / s1 >= |p| / s1^3 >= 2^(3/2) |p| / |K|_F^3.

    A form whose bound exceeds 2 tol gets rank six without an SVD: by
    Weyl's bound on perturbed singular values (Golub & Van Loan, *Matrix
    Computations*, section 8.6), the SVD of such a form keeps s5 and s6
    above tol s1 and s7 below it, for tol at or above PAIRING_TOL_FLOOR.

    The entries above the diagonal of the Kirillov form are linear in f,
    and for the catalog algebras only 6 to 11 of the 21 are not
    identically zero.  One matmul by algebra.pairing_operand gives those
    entries, and _certify runs on them, _PAIRING_CHUNK functionals at a
    time, with Pfaffian tables pruned to algebra.pairing_support; pruning
    leaves out only exact zeros, so p, |K|_F and the verdict are those of
    the full form up to the sign of a zero.  The Pfaffians are computed
    on the form divided by its largest entry, so they neither overflow nor
    underflow.  Every functional the certificate leaves open (ranks 0, 2
    and 4, non-finite forms, forms near the bound), and every functional
    below the floor, is ranked by numeric_rank(algebra.kirillov(...)), so
    the result equals numeric_rank(algebra.kirillov(f), tol) row by row,
    and kirillov is called only for those rows.

    Batched over leading axes of f; one functional gives an int.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (DIM,):
        raise ValueError(f"kirillov_rank expects functionals of length 7, got shape {f.shape}")
    flat = f.reshape(-1, DIM)
    certified = np.zeros(len(flat), dtype=bool)
    if tol >= PAIRING_TOL_FLOOR:
        for start in range(0, len(flat), _PAIRING_CHUNK):
            chunk = slice(start, start + _PAIRING_CHUNK)
            entries = algebra.pairing_operand @ flat[chunk].T
            certified[chunk] = _certify(entries, algebra.pairing_support, tol)[0]
    rank = np.full(len(flat), 6)
    if not certified.all():
        rank[~certified] = numeric_rank(algebra.kirillov(flat[~certified]), tol)
    if f.ndim == 1:
        return int(rank[0])
    return rank.reshape(f.shape[:-1])


def _certify(u: np.ndarray, pattern: tuple[int, ...], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The rank-six certificate of antisymmetric 7x7 forms given by their
    entries above the diagonal at ``pattern``, one form per column of
    ``u``, which is scaled in place.

    Returns whether 2^(3/2) |p| / |K|_F^3 exceeds 2 tol for each form,
    which certifies rank six for tol at or above PAIRING_TOL_FLOOR, and
    the Pfaffian vectors p of the forms divided by their largest entries,
    shape (7, forms).  Zero and non-finite forms, and forms whose largest
    entry is subnormal, turn into NaN or inf here, fail the comparison and
    stay uncertified.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        u *= 1.0 / np.abs(u).max(axis=0, initial=0.0)
        half_square_norm = np.einsum("ij,ij->j", u, u)
        p = _principal_pfaffians(u, pattern)
        # |p| / (|K|_F^2 / 2)^(3/2) > 2 tol, squared.
        bound = np.einsum("ij,ij->j", p, p) > 4.0 * tol * tol * half_square_norm**3
    return bound, p
