"""Dense linear-algebra kernels: SVD, thin QR, eigendecomposition, and
regularized inverses with filter factors.

Everything here is a pure function of its arguments, backed by LAPACK
through numpy. Matrices are 2-D float64 ndarrays in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import memguard
from .errors import (
    ConvergenceFailure,
    NegativeLambda,
    NonFiniteInput,
    RankOutOfRange,
    ShapeMismatch,
)


@dataclass(frozen=True)
class SvdFactors:
    """Economic SVD: x = u @ diag(singular_values) @ v.T."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class ComplexEigenPairs:
    """Eigenpairs sorted by the library-wide ordering; column j of
    eigenvectors belongs to eigenvalues[j]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class FilterSpec:
    """Spectral filter: hard truncation ('tsvd', rank) or smooth damping
    ('tikhonov', lambda)."""

    kind: str
    parameter: float

    def __post_init__(self):
        if self.kind == "tsvd":
            if int(self.parameter) < 1:
                raise RankOutOfRange("tsvd filter needs rank >= 1")
        elif self.kind == "tikhonov":
            if self.parameter < 0:
                raise NegativeLambda("tikhonov filter needs lambda >= 0")
        else:
            raise ValueError(f"unknown filter kind {self.kind!r}")

    @classmethod
    def tsvd(cls, rank: int) -> "FilterSpec":
        return cls("tsvd", int(rank))

    @classmethod
    def tikhonov(cls, lam: float) -> "FilterSpec":
        return cls("tikhonov", float(lam))


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be nonempty, got shape {a.shape}")
    return a


def economic_svd(x) -> SvdFactors:
    """Economic SVD with r = min(rows, cols) factors."""
    a = _as_matrix(x)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD failed: {exc}") from exc
    return SvdFactors(u=u, singular_values=s, v=vh.T)


# Rows per chunk of the passes that walk a tall matrix a few thousand rows
# at a time (`_row_products`, `_non_finite_error`, and the CLI's error
# passes): at 200 columns one chunk is 6.6 MB.
_CHUNK_ROWS = 4096


def _non_finite_error(a: np.ndarray) -> NonFiniteInput:
    """The error for a NaN or Inf in a buffer formed from `a`: names the
    first entry of `a` that is NaN or Inf, scanning a few thousand rows at a
    time, or, with `row` None, says that a product of the finite `a`
    overflowed."""
    step = _CHUNK_ROWS
    for start in range(0, a.shape[0], step):
        bad = np.argwhere(~np.isfinite(a[start : start + step]))
        if bad.size:
            row, col = start + int(bad[0, 0]), int(bad[0, 1])
            return NonFiniteInput(f"row {row}, column {col} is {a[row, col]}", row=row)
    return NonFiniteInput("a product of the finite input overflowed")


def _require_finite(data: np.ndarray, *buffers: np.ndarray) -> None:
    """Raise `_non_finite_error(data)` when one of `buffers`, formed from
    `data`, holds NaN or Inf; `data` itself is read only then."""
    if not all(np.isfinite(b).all() for b in buffers):
        raise _non_finite_error(data)


def frobenius_sq(a: np.ndarray) -> float:
    """||a||_F^2 as one dot product in the array's memory order, so a C- or
    Fortran-ordered matrix is not copied."""
    flat = a.ravel(order="K")
    return float(np.dot(flat, flat))


def _real_product(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Re(w @ p) for complex w and p as two real GEMMs, Re w @ Re p minus
    Im w @ Im p subtracted in place: besides the real result it holds one
    temporary of the result's size, and never the complex product."""
    out = w.real @ p.real
    out -= w.imag @ p.imag
    return out


def _row_products(a: np.ndarray, m: np.ndarray):
    """Yield (rows, a[rows] @ m) for consecutive `_CHUNK_ROWS`-row slices of
    `a`, each product written into one reused buffer, so the n-row product
    a @ m is never formed. A yielded product is overwritten by the next."""
    n = a.shape[0]
    step = min(n, _CHUNK_ROWS)
    memguard.note(step * m.shape[1] * 8)
    buf = np.empty((step, m.shape[1]))
    for start in range(0, n, step):
        stop = min(n, start + step)
        yield slice(start, stop), np.matmul(a[start:stop], m, out=buf[: stop - start])


def _lift(q: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """q @ m for a real n x l q and a real or complex l x c m, written into
    `out` (a fresh n x c array of m's result type when None) without casting
    q to complex. The real view of a complex n x c array is n x 2c with the
    real and imaginary part of each column side by side, so one real GEMM of
    q with the same interleave of m fills it: per entry, q @ m.real and
    q @ m.imag."""
    if out is None:
        dtype = np.result_type(np.float64, m.dtype)
        memguard.note(q.shape[0] * m.shape[1] * dtype.itemsize)
        out = np.empty((q.shape[0], m.shape[1]), dtype=dtype)
    if np.iscomplexobj(out):
        pairs = np.stack([m.real, m.imag], axis=-1).reshape(m.shape[0], -1)
        np.matmul(q, pairs, out=out.view(np.float64))
    else:
        np.matmul(q, m, out=out)
    return out


def _cholesky_qr2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """CholeskyQR2 factors (Fukaya et al., 2014) of a tall matrix, or None
    where they are not accurate.

    R1 = chol(A^T A) and R2 = chol(Q1^T Q1) for Q1 = A R1^-1; returns
    (R1, R1^-1, R2), so that A = Q R2 R1 with Q = Q1 R2^-1 orthonormal. Q1
    itself is never formed: Q1^T Q1 is summed over `_CHUNK_ROWS`-row chunks
    A_i R1^-1, held one at a time in one reused buffer. The second pass
    restores orthogonality to rounding level as long as Q1 is not far from
    orthonormal, i.e. for condition numbers up to about 1e8. A failed
    Cholesky factorization or ||Q1^T Q1 - I||_2 > 1/2 (rank-deficient or
    worse-conditioned input) yields None. The triangular factors are only
    cols x cols, so callers invert them rather than solve against them.

    A NaN or Inf in A shows in A^T A, which then raises NonFiniteInput
    naming the first such entry of A; a finite A whose A^T A overflowed
    yields None.
    """
    c = a.shape[1]
    try:
        # Entries near the float64 range limits overflow A^T A; the checks
        # below then reject the factors, so the overflow is not reported.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = a.T @ a
            if not np.isfinite(gram).all():
                error = _non_finite_error(a)
                if error.row is not None:
                    raise error
            r1 = np.linalg.cholesky(gram).T
            r1_inv = np.linalg.inv(r1)
            gram = np.zeros((c, c))
            for _, q1 in _row_products(a, r1_inv):
                gram += q1.T @ q1
        r2 = np.linalg.cholesky(gram).T
        gram[np.diag_indices(c)] -= 1.0
        # written so that a NaN distance also rejects the factors
        if not np.linalg.norm(gram, 2) <= 0.5:
            return None
    except np.linalg.LinAlgError:
        return None
    return r1, r1_inv, r2


def _cholesky_qr2_svd(a: np.ndarray, k: int) -> SvdFactors | None:
    """First k singular triplets of a tall matrix from its CholeskyQR2
    factors and the SVD of the small R factor, or None where
    `_cholesky_qr2` rejects the input.

    With U_R S V^T = svd(R2 R1), U_k = A (R1^-1 R2^-1 U_R[:, :k]), one
    n x cols x k product, so no n x cols buffer is formed. Folding both
    inverses into one cols x k factor costs orthogonality in proportion to
    the condition number (~3e-10 at 3000 x 50, kappa = 1e7), so one k x k
    CholeskyQR step, U_k <- U_k chol(U_k^T U_k)^-1 applied row chunk by row
    chunk in place, restores it to rounding level; where that Cholesky
    factorization fails the result is None as well.
    """
    factors = _cholesky_qr2(a)
    if factors is None:
        return None
    r1, r1_inv, r2 = factors
    try:
        u_r, s, vh = np.linalg.svd(r2 @ r1)
        memguard.note(a.shape[0] * k * 8)
        u = a @ (r1_inv @ (np.linalg.inv(r2) @ u_r[:, :k]))
        step = np.linalg.inv(np.linalg.cholesky(u.T @ u).T)
    except np.linalg.LinAlgError:
        return None
    for rows, chunk in _row_products(u, step):
        u[rows] = chunk
    return SvdFactors(u, s[:k], vh[:k].T)


def truncated_svd(x, k: int) -> SvdFactors:
    """First k singular triplets of the economic SVD.

    Tall inputs (rows >= 2 * cols) go through CholeskyQR2 and the SVD of
    the cols x cols R factor, which forms only the k kept left vectors and,
    besides them, one `_CHUNK_ROWS` x cols chunk (see `_cholesky_qr2_svd`);
    when that path is inaccurate and for every other shape, the result is
    the slice of `economic_svd`.

    NaN or Inf in the input raises NonFiniteInput naming its first such
    entry: tall inputs show it in the Gram matrix of CholeskyQR2, every
    other shape is checked before LAPACK runs.
    """
    a = _as_matrix(x)
    if not 1 <= k <= min(a.shape):
        raise RankOutOfRange(
            f"rank {k} outside [1, {min(a.shape)}] for shape {a.shape}"
        )
    if a.shape[0] >= 2 * a.shape[1]:
        fast = _cholesky_qr2_svd(a, k)
        if fast is not None:
            return fast
    elif not np.isfinite(a).all():
        raise _non_finite_error(a)
    f = economic_svd(a)
    return SvdFactors(f.u[:, :k], f.singular_values[:k], f.v[:, :k])


def thin_qr_q(x) -> np.ndarray:
    """Orthonormal factor Q of the thin QR decomposition (rows >= cols).

    Inputs with rows >= 2 * cols run guarded CholeskyQR2 (see
    `_cholesky_qr2`) and write Q = (A_i R1^-1) R2^-1 into the n x cols
    output one `_CHUNK_ROWS`-row chunk A_i at a time, so the only other
    n-row buffer is the input: the guard ||Q1^T Q1 - I||_2 <= 1/2 keeps the
    second pass's input within kappa <= sqrt(3), where CholeskyQR2 is
    orthogonal to the order of rounding, as Householder QR is (Yamamoto,
    Nakatsukasa, Yanagisawa & Fukaya, 2015). Every other input, and every
    input the guard rejects, is one LAPACK Householder call.

    NaN or Inf in the input raises NonFiniteInput naming its first such
    entry: tall inputs show it in the Gram matrix of CholeskyQR2, every
    other shape in the Householder Q.
    """
    a = _as_matrix(x)
    n, c = a.shape
    if n < c:
        raise ShapeMismatch(
            f"thin QR needs rows >= cols, got shape {a.shape}"
        )
    memguard.note(n * c * 8)  # the returned Q, on either path
    if n >= 2 * c:
        factors = _cholesky_qr2(a)
        if factors is not None:
            _, r1_inv, r2 = factors
            r2_inv = np.linalg.inv(r2)
            q = np.empty((n, c))
            for rows, q1 in _row_products(a, r1_inv):
                np.matmul(q1, r2_inv, out=q[rows])
            return q
    q = np.linalg.qr(a, mode="reduced")[0]
    if n < 2 * c:  # a tall input has passed the Gram check of `_cholesky_qr2`
        _require_finite(a, q)
    return q


def singular_values_of_rows(blocks) -> np.ndarray:
    """Singular values of the matrix whose row blocks, top to bottom, are
    `blocks`, at the accuracy of a Householder QR.

    X = diag(Q_i) [R_1; ...; R_b] for the Householder factors X_i = Q_i R_i
    of the blocks, so X has the singular values of the stacked R_i; one
    block's factorization is resident at a time.
    """
    r = np.vstack([np.linalg.qr(_as_matrix(block), mode="r") for block in blocks])
    return np.linalg.svd(r, compute_uv=False)


def default_rank_tol(shape: tuple[int, int], sigma_max: float) -> float:
    """eps * max(rows, cols) * sigma_1, the usual numerical-rank cutoff."""
    return float(np.finfo(np.float64).eps * max(shape) * sigma_max)


def divide_where(num, den: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """num / den where mask holds and 0 elsewhere; masked-out entries are
    never divided, so zero or tiny denominators there raise no warning."""
    return np.divide(num, den, out=np.zeros_like(den), where=mask)


def pseudoinverse(x, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the SVD.

    Singular values at or below ``rank_tol`` invert to zero. The default
    tolerance is eps * max(rows, cols) * sigma_1.
    """
    a = _as_matrix(x)
    f = economic_svd(a)
    s = f.singular_values
    if rank_tol is None:
        rank_tol = default_rank_tol(a.shape, s[0] if s.size else 0.0)
    if rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    inv = divide_where(1.0, s, s > rank_tol)
    return (f.v * inv) @ f.u.T


def tikhonov_inverse(x, lam: float) -> np.ndarray:
    """Regularized inverse V diag(sigma_i / (sigma_i^2 + lambda^2)) U^T.

    Equals (X^T X + lambda^2 I)^{-1} X^T, the closed-form solution operator
    of ridge-regularized least squares. lambda = 0 reduces to the plain
    pseudoinverse on full-rank input.
    """
    if lam < 0:
        raise NegativeLambda(f"lambda must be >= 0, got {lam}")
    a = _as_matrix(x)
    f = economic_svd(a)
    s = f.singular_values
    denom = s * s + lam * lam
    inv = divide_where(s, denom, denom > 0)
    return (f.v * inv) @ f.u.T


def filter_factors(sigma, spec: FilterSpec) -> np.ndarray:
    """Per-singular-value multipliers in [0, 1] for the given filter.

    tikhonov: f_i = sigma_i^2 / (sigma_i^2 + lambda^2)
    tsvd(k):  f_i = 1 where sigma_i >= sigma_k, else 0
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1:
        raise ShapeMismatch("singular values must be 1-D")
    if np.any(s < 0):
        raise ValueError("singular values must be nonnegative")
    if np.any(np.diff(s) > 0):
        raise ValueError("singular values must be nonincreasing")
    if spec.kind == "tikhonov":
        lam = spec.parameter
        denom = s * s + lam * lam
        return divide_where(s * s, denom, denom > 0)
    k = int(spec.parameter)
    if k > s.size:
        raise RankOutOfRange(f"tsvd rank {k} exceeds {s.size} singular values")
    return np.where(s >= s[k - 1], 1.0, 0.0)


def sort_eigenpairs(
    values: np.ndarray, vectors: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Library-wide eigenvalue order: descending magnitude, ties broken by
    descending real part, then descending imaginary part."""
    v = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((-v.imag, -v.real, -np.abs(v)))
    if vectors is None:
        return v[order], None
    return v[order], np.asarray(vectors, dtype=np.complex128)[:, order]


def normalize_phase_in_place(w: np.ndarray) -> np.ndarray:
    """Scale the columns of the complex128 array `w` in place to unit
    2-norm with the largest-magnitude entry real and positive, which
    removes the scale/phase ambiguity of eigenvectors without a copy of a
    state-dimension-sized mode matrix. Returns the complex factor each
    column was scaled by, so a low-dimensional stand-in of the vectors can
    be scaled the same way. The pivot is exactly real after the call."""
    factors = np.ones(w.shape[1], dtype=np.complex128)
    for j in range(w.shape[1]):
        col = w[:, j]
        nrm = np.linalg.norm(col)
        if nrm == 0:
            continue
        at = np.argmax(np.abs(col))
        pivot = col[at]
        scale = abs(pivot) * nrm
        # multiply by the conjugate first so the pivot's imaginary part
        # cancels, then scale by the (real) magnitude and norm; where the
        # complex multiply uses fused multiply-add the cancellation leaves
        # a rounding-level imaginary part, which is dropped
        w[:, j] = (col * pivot.conjugate()) / scale
        w[at, j] = w[at, j].real
        factors[j] = pivot.conjugate() / scale
    return factors


def eig_dense(a) -> ComplexEigenPairs:
    """Eigendecomposition of a square matrix, sorted and phase-normalized."""
    m = _as_matrix(a, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"eigendecomposition needs a square matrix, got {m.shape}")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    # sort_eigenpairs returns a fresh array, so it is normalized in place
    values, vectors = sort_eigenpairs(values, vectors)
    normalize_phase_in_place(vectors)
    return ComplexEigenPairs(values, vectors)
