"""Core linear algebra for seven-dimensional Lie algebras.

The basis is fixed once and for all: five nilradical generators followed by
two complementary generators.  Structure constants are stored exactly (as
ints or fractions whenever the family parameters are exact), and every
numerical routine works on dense float arrays derived from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    every family and default grid entry.
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
#: 4096 and 16 ms unchunked.
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
    # Work rows: the stack (H, X^3, X^2, X, I) that the steps weigh, X^4,
    # and a squaring buffer.  Only the identity row keeps its contents.
    work = np.zeros((7, size * n * n))
    work[4].reshape(size, n * n)[:, :: n + 1] = 1.0
    for start in range(0, len(mats), size):
        k = min(size, len(mats) - start)
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
    if not np.all(np.isfinite(result)):
        raise DomainError("matrix exponential overflowed")
    return result.reshape(m.shape)


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


#: Flat positions (7i + j) of the 21 entries above the diagonal, of their
#: mirror images below it, and of the diagonal.
_UPPER_PAIRS = tuple((i, j) for i in range(DIM) for j in range(i + 1, DIM))
_UPPER = np.array([DIM * i + j for i, j in _UPPER_PAIRS])
_LOWER = np.array([DIM * j + i for i, j in _UPPER_PAIRS])
_DIAG = np.arange(DIM) * (DIM + 1)


def _pfaffian_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather tables for the seven principal 6x6 Pfaffians of a 7x7 form.

    Principal Pfaffian i omits index i and carries the sign (-1)^i, so that
    the Pfaffians make the vector p with adj K = p p^T.  Each is expanded
    once along its first index into five entries times 4x4 Pfaffians; the
    4x4 minors that occur are the fifteen 4-subsets of indices 1..6, each a
    sum of three matched products, so the 105 terms share their products.
    Entries index the signed upper triangle (+u, -u), which folds every
    sign into a factor.  All four tables are term-major: row t holds the
    t-th term of every 4x4 or 6x6 Pfaffian.
    """
    position = {pair: n for n, pair in enumerate(_UPPER_PAIRS)}

    def signed(sign: int, pair: tuple[int, int]) -> int:
        return position[pair] + (len(_UPPER_PAIRS) if sign < 0 else 0)

    expansions = [
        [((-1) ** omit * sign, pair, minor) for sign, pair, minor in _expand(
            tuple(i for i in range(DIM) if i != omit)
        )]
        for omit in range(DIM)
    ]
    minors = sorted({minor for terms in expansions for _, _, minor in terms})
    matched = [list(_matchings(minor)) for minor in minors]
    minor_left = [[signed(s, pairs[0]) for s, pairs in terms] for terms in matched]
    minor_right = [[position[pairs[1]] for _, pairs in terms] for terms in matched]
    entry = [[signed(s, pair) for s, pair, _ in terms] for terms in expansions]
    entry_minor = [[minors.index(m) for _, _, m in terms] for terms in expansions]
    tables = (minor_left, minor_right, entry, entry_minor)
    return tuple(np.array(table).T.copy() for table in tables)


_MINOR_LEFT, _MINOR_RIGHT, _PF_ENTRY, _PF_MINOR = _pfaffian_tables()


def _principal_pfaffians(u: np.ndarray) -> np.ndarray:
    """The vector p with adj K = p p^T, from the upper triangle of K.

    ``u`` holds the 21 entries above the diagonal on its first axis, in
    row-major order, and one column per matrix; the result has shape
    (7, columns).
    """
    signed = np.concatenate([u, -u])
    products = signed[_MINOR_LEFT]
    products *= u[_MINOR_RIGHT]
    minors = products.sum(axis=0)
    terms = signed[_PF_ENTRY]
    terms *= minors[_PF_MINOR]
    return terms.sum(axis=0)


#: Smallest rank tolerance at which pairing_rank certifies.  In units of
#: the largest entry, |p| is computed to about 400 eps (1e-13), and the
#: singular values LAPACK returns are those of a matrix within a small
#: multiple of eps |K| of K.  At tol >= 1e-12 (about 4500 eps) a certified
#: form therefore has s5 >= 1.9 tol s1, and its computed s5 and s6 stay
#: above tol s1 while s7 stays below.  A fixed constant, not a setting.
PAIRING_TOL_FLOOR = 1e-12

#: Forms per chunk in pairing_rank: the gathered products of 1,024 forms
#: (45 and 35 rows of 8 kB) stay in a 2 MB L2 cache.  On a 2-core x86-64
#: machine the certificate took 3.1-3.5 ms per 10k G13 forms at 1,024 and
#: 4.4-5.0 ms at 256.
_PAIRING_CHUNK = 1024


def pairing_rank(k: np.ndarray, tol: float = 1e-9) -> np.ndarray | int:
    """numeric_rank of antisymmetric 7x7 forms, certifying rank six cheaply.

    For antisymmetric 7x7 K the singular values pair up,
    s1 = s2 >= s3 = s4 >= s5 = s6, with s7 = 0, and the seven principal
    6x6 Pfaffians form a vector p with adj K = p p^T, so that
    |p| = s1 s3 s5.  With s3 <= s1 and s1^2 <= |K|_F^2 / 2 this gives

        s5 / s1 >= |p| / s1^3 >= 2^(3/2) |p| / |K|_F^3.

    A form whose bound exceeds 2 tol gets rank six without an SVD: by
    Weyl's bound on perturbed singular values (Golub & Van Loan, *Matrix
    Computations*, section 8.6), the SVD of such a form keeps s5 and s6
    above tol s1 and s7 below it, for tol at or above PAIRING_TOL_FLOOR.
    The Pfaffians are computed on the form divided by its largest entry,
    so they neither overflow nor underflow.  Every other form goes to
    numeric_rank unchanged: ranks 0, 2 and 4, forms that are not exactly
    antisymmetric or not finite, and forms near the bound.  Below the
    floor every form goes to numeric_rank.  The result therefore equals
    numeric_rank(k, tol) form by form.

    Accepts stacks of 7x7 matrices on leading axes.
    """
    k = np.asarray(k, dtype=float)
    if k.shape[-2:] != (DIM, DIM):
        raise ValueError(f"pairing_rank expects 7x7 matrices, got shape {k.shape}")
    if not tol >= PAIRING_TOL_FLOOR:
        return numeric_rank(k, tol)
    flat = k.reshape(-1, DIM * DIM)
    certified = np.empty(len(flat), dtype=bool)
    # Zero and non-finite forms, and forms whose largest entry is
    # subnormal, turn into NaN or inf here and fail the comparison, which
    # sends them to numeric_rank.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for start in range(0, len(flat), _PAIRING_CHUNK):
            t = flat[start : start + _PAIRING_CHUNK].T
            u = t[_UPPER]
            exact = ~np.any(u + t[_LOWER], axis=0) & ~np.any(t[_DIAG], axis=0)
            u *= 1.0 / np.abs(u).max(axis=0)
            half_square_norm = np.einsum("ij,ij->j", u, u)
            p = _principal_pfaffians(u)
            # |p| / (|K|_F^2 / 2)^(3/2) > 2 tol, squared.
            bound = np.einsum("ij,ij->j", p, p) > 4.0 * tol * tol * half_square_norm**3
            certified[start : start + _PAIRING_CHUNK] = exact & bound
    rank = np.full(len(flat), 6)
    if not certified.all():
        rank[~certified] = numeric_rank(flat[~certified].reshape(-1, DIM, DIM), tol)
    if k.ndim == 2:
        return int(rank[0])
    return rank.reshape(k.shape[:-2])
