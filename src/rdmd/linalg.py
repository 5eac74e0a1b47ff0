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


def _cholesky_qr2_svd(a: np.ndarray, k: int) -> SvdFactors | None:
    """First k singular triplets of a tall matrix by CholeskyQR2 (Fukaya et
    al., 2014) and the SVD of its small R factor, or None where that is not
    accurate.

    R1 = chol(A^T A), Q1 = A R1^-1, R2 = chol(Q1^T Q1); then with
    U_R S V^T = svd(R2 R1), U_k = Q1 (R2^-1 U_R[:, :k]). The second pass
    restores orthogonality to rounding level as long as Q1 is not far from
    orthonormal, i.e. for condition numbers up to about 1e8. A failed
    Cholesky factorization or ||Q1^T Q1 - I||_2 > 1/2 (rank-deficient or
    worse-conditioned input) yields None. The triangular factors are only
    cols x cols, so they are inverted rather than solved against.
    """
    n, c = a.shape
    try:
        # Entries near the float64 range limits overflow A^T A; the checks
        # below then reject the fast path, so the overflow is not reported.
        with np.errstate(over="ignore", invalid="ignore"):
            r1 = np.linalg.cholesky(a.T @ a).T
            memguard.note(n * c * 8)
            q1 = a @ np.linalg.inv(r1)
            gram = q1.T @ q1
        r2 = np.linalg.cholesky(gram).T
        gram[np.diag_indices(c)] -= 1.0
        # written so that a NaN distance also rejects the fast path
        if not np.linalg.norm(gram, 2) <= 0.5:
            return None
        u_r, s, vh = np.linalg.svd(r2 @ r1)
    except np.linalg.LinAlgError:
        return None
    u = q1 @ (np.linalg.inv(r2) @ u_r[:, :k])
    return SvdFactors(u, s[:k], vh[:k].T)


def truncated_svd(x, k: int) -> SvdFactors:
    """First k singular triplets of the economic SVD.

    Tall inputs (rows >= 2 * cols) go through CholeskyQR2 and the SVD of
    the cols x cols R factor, which forms only the k kept left vectors; when
    that path is inaccurate (see `_cholesky_qr2_svd`) and for every other
    shape, the result is the slice of `economic_svd`.
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
    f = economic_svd(a)
    return SvdFactors(f.u[:, :k], f.singular_values[:k], f.v[:, :k])


def thin_qr_q(x) -> np.ndarray:
    """Orthonormal factor Q of the thin QR decomposition (rows >= cols)."""
    a = _as_matrix(x)
    if a.shape[0] < a.shape[1]:
        raise ShapeMismatch(
            f"thin QR needs rows >= cols, got shape {a.shape}"
        )
    return np.linalg.qr(a, mode="reduced")[0]


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


def normalize_phase(vectors: np.ndarray) -> np.ndarray:
    """Unit 2-norm columns with the largest-magnitude entry rotated to be
    real and positive; removes the scale/phase ambiguity of eigenvectors."""
    w = np.array(vectors, dtype=np.complex128, copy=True)
    normalize_phase_in_place(w)
    return w


def normalize_phase_in_place(w: np.ndarray) -> np.ndarray:
    """`normalize_phase` overwriting the columns of the complex128 array
    `w`, which saves a copy of a state-dimension-sized mode matrix.
    Returns the complex factor each column was scaled by, so a
    low-dimensional stand-in of the vectors can be scaled the same way."""
    factors = np.ones(w.shape[1], dtype=np.complex128)
    for j in range(w.shape[1]):
        col = w[:, j]
        nrm = np.linalg.norm(col)
        if nrm == 0:
            continue
        pivot = col[np.argmax(np.abs(col))]
        scale = abs(pivot) * nrm
        # multiply by the conjugate first so the pivot's imaginary part
        # cancels (to rounding where the complex multiply uses fused
        # multiply-add), then scale by the (real) magnitude and norm
        w[:, j] = (col * pivot.conjugate()) / scale
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
    values, vectors = sort_eigenpairs(values, vectors)
    return ComplexEigenPairs(values, normalize_phase(vectors))
