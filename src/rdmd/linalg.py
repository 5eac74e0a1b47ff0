"""Dense linear-algebra kernels: SVD, thin QR, eigendecomposition, and
regularized inverses with filter factors.

Everything here is a pure function of its arguments, backed by LAPACK
through numpy. Matrices are 2-D float64 ndarrays in row-major order.
`truncated_svd` and the passes under it read their n-row operand in
`blocked.row_chunks` passes, so they take an in-memory matrix (as its
one-block source) or any row-block source alike. Every n-row product of
such an operand with a small matrix W is one `_basis_pass`: the
Rayleigh-Ritz pass's and the range finder's power iterations', and,
through the CholeskyQR2 of `_orthonormal_basis`, the range finder's last
sketch, the truncated SVD's U_k and `dmd`'s exact-style basis.
CholeskyQR2 itself (`_cholesky_qr2`, also under `thin_qr_q`) takes
in-memory matrices only. Where its R shows a rank below the basis's width,
the one rank rule `_resolved` takes that R; where it rejects a basis, or
Rayleigh-Ritz declines an input, `_fold_r` first folds it chunk by chunk
into a Householder R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import memguard
from .blocked import (
    _CHUNK_ROWS,
    _as_matrix,
    as_source,
    empty_basis,
    release_basis_rows,
    row_chunks,
)
from .errors import (
    ConvergenceFailure,
    DegenerateData,
    NegativeLambda,
    NonFiniteInput,
    RankOutOfRange,
    ShapeMismatch,
)


@dataclass(frozen=True)
class SvdFactors:
    """Economic SVD: x = u @ diag(singular_values) @ v.T. projected is
    u.T @ X for every column of the matrix X whose leading columns a
    `truncated_svd` factored, and None on an `economic_svd`."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    projected: np.ndarray | None = None


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


def economic_svd(x) -> SvdFactors:
    """Economic SVD with r = min(rows, cols) factors."""
    a = _as_matrix(x)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD failed: {exc}") from exc
    return SvdFactors(u=u, singular_values=s, v=vh.T)


# The NonFiniteInput message where X is finite but a product of it is not
_OVERFLOWED = "a product of the finite input overflowed"


def _non_finite_error(a, first_row: int = 0) -> NonFiniteInput:
    """The error for a NaN or Inf in a buffer formed from the in-memory `a`:
    names the first entry of `a` that is NaN or Inf, scanning a few
    thousand rows at a time, or, with `row` None, says that a product of
    the finite `a` overflowed. Rows are counted from `first_row`, the row
    of a larger matrix that `a` starts at."""
    step = _CHUNK_ROWS
    for start in range(0, a.shape[0], step):
        finite = np.isfinite(a[start : start + step])
        if not finite.all():
            bad = np.argwhere(~finite)
            row, col = start + int(bad[0, 0]), int(bad[0, 1])
            return NonFiniteInput(
                f"row {first_row + row}, column {col} is {a[row, col]}", row=first_row + row
            )
    return NonFiniteInput(_OVERFLOWED)


def _require_finite(*buffers) -> None:
    """Raise NonFiniteInput saying that a product of the finite input
    overflowed when one of `buffers` (arrays or scalars formed from X)
    holds NaN or Inf. Every caller's first pass over X has named any NaN or
    Inf of X itself, so X is not read again."""
    if not all(np.isfinite(b).all() for b in buffers):
        raise NonFiniteInput(_OVERFLOWED)


def _check_chunk(rows: np.ndarray, start: int, sq_norm: float) -> None:
    """The NaN and Inf check of a pass's first walk over X: where the
    chunk `rows` (row `start` of X onward) has a squared norm sq_norm that
    is not finite, raise NonFiniteInput naming its first NaN or Inf by its
    row in X. An overflowed norm of finite rows passes, so that a NaN in a
    later chunk is still named; the caller's check of the sum rejects it."""
    if not np.isfinite(sq_norm):
        error = _non_finite_error(rows, start)
        if error.row is not None:
            raise error


class _SquaredNorm:
    """The `visit(start, rows)` hook of a method's first pass over X: sums
    ||X||_F^2 into `total` chunk by chunk and names the first NaN or Inf
    of X by its row (`_check_chunk`)."""

    def __init__(self):
        self.total = 0.0

    def __call__(self, start: int, rows: np.ndarray) -> None:
        part = frobenius_sq(rows)
        _check_chunk(rows, start, part)
        self.total += part


def frobenius_sq(a: np.ndarray) -> float:
    """||a||_F^2 as one dot product in the array's memory order, so a C- or
    Fortran-ordered matrix is not copied. A sum that overflows is inf,
    without a warning; the caller decides whether that is an error."""
    flat = a.ravel(order="K")
    with np.errstate(over="ignore"):
        return float(np.dot(flat, flat))


def _real_product(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Re(w @ p) for complex w and p as two real GEMMs, Re w @ Re p minus
    Im w @ Im p subtracted in place: besides the real result it holds one
    temporary of the result's size, and never the complex product."""
    out = w.real @ p.real
    out -= w.imag @ p.imag
    return out


def _row_products(a: np.ndarray, m: np.ndarray):
    """Yield (rows, a_i @ m) for the `_CHUNK_ROWS`-row chunks a_i of the
    in-memory n-row matrix a, rows being the chunk's slice of the n rows.
    Each product is written into one reused buffer, so the n-row product
    a @ m is never formed. A yielded product is overwritten by the next."""
    n, width = a.shape[0], m.shape[1]
    step = min(n, _CHUNK_ROWS)
    memguard.note(step * width * 8)
    buf = np.empty((step, width))
    for start in range(0, n, _CHUNK_ROWS):
        a_i = a[start : start + _CHUNK_ROWS]
        yield slice(start, start + a_i.shape[0]), np.matmul(a_i, m, out=buf[: a_i.shape[0]])


def _tall_product(a: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ w for an n-row a and a small w, computed as (w^T a^T)^T, so the
    result is Fortran-ordered. For a row-major a OpenBLAS runs this layout
    without packing a copy of the n-row operand, which it does for `a @ w`:
    for U_k at 200000 x 200, k = 5 (OpenBLAS 0.3.31, 2-core Xeon) the
    high-water mark rose by 16 MB instead of 48 MB, each with the 8 MB
    result. It equals `a @ w` to rounding, and gave the same bytes on the
    benchmark's data. Given `out`, an n x c view whose columns are
    contiguous (rows of a Fortran-ordered array), the product is written
    there and no result is allocated."""
    if out is None:
        return (w.T @ a.T).T
    np.matmul(w.T, a.T, out=out.T)
    return out


def _lift(q: np.ndarray, m: np.ndarray, release_q: bool = False) -> np.ndarray:
    """q @ m for a real n x l q and a real or complex l x c m, as a fresh
    n x c array of m's result type, without casting q to complex. The real
    view of a complex n x c array is n x 2c with the real and imaginary
    part of each column side by side, so one real GEMM of q with the same
    interleave of m fills it: per entry, q @ m.real and q @ m.imag. The
    GEMM runs over `_CHUNK_ROWS`-row chunks of q, so BLAS touches
    chunk-sized pack buffers, not n-row ones.

    With release_q, for a q that nothing reads after the lift, each chunk
    of q is handed back once its rows of the result are written
    (`blocked.release_basis_rows`, a no-op unless q is an `empty_basis`),
    so the result replaces q instead of being added to it. q must then be
    no other array's input: its released rows read as zeros."""
    dtype = np.result_type(np.float64, m.dtype)
    memguard.note(q.shape[0] * m.shape[1] * dtype.itemsize)
    out = np.empty((q.shape[0], m.shape[1]), dtype=dtype)
    target = out
    if np.iscomplexobj(out):
        m = np.stack([m.real, m.imag], axis=-1).reshape(m.shape[0], -1)
        target = out.view(np.float64)
    for start in range(0, q.shape[0], _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        np.matmul(q[rows], m, out=target[rows])
        if release_q:
            release_basis_rows(q, start, start + _CHUNK_ROWS)
    return out


def _streamed_gram(x) -> np.ndarray:
    """X^T X for x, an n-row matrix or a row-block source, summed over its
    `row_chunks` X_i in one pass: the truncated SVD's Gram, and that of
    CholeskyQR2 where no pass summed it (up to `_CHUNK_ROWS` rows, one
    GEMM). NaN or Inf in X raises NonFiniteInput naming its first such
    entry (`_check_chunk` on the trace of each chunk's Gram, ||X_i||_F^2);
    a finite X whose Gram overflowed gets that non-finite sum back, and
    every caller's checks reject it."""
    source = as_source(x)
    gram = np.zeros((source.cols, source.cols))
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        for start, rows in row_chunks(source):
            part = rows.T @ rows
            _check_chunk(rows, start, np.trace(part))
            gram += part
            del rows
    return gram


def _near_identity_cholesky(g: np.ndarray) -> np.ndarray | None:
    """Upper Cholesky factor R of the Gram g = Q1^T Q1 of a basis Q1 meant
    to be orthonormal, so that Q1 R^-1 is orthonormal to rounding, or None
    where the factorization fails or ||g - I||_2 > 1/2 (Q1 too far from
    orthonormal for one more step to repair). Overwrites g."""
    try:
        r = np.linalg.cholesky(g).T
        g[np.diag_indices(g.shape[0])] -= 1.0
        # written so that a NaN distance also rejects the factor
        return r if np.linalg.norm(g, 2) <= 0.5 else None
    except np.linalg.LinAlgError:
        return None


def _cholesky_qr2(
    a: np.ndarray, gram: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """CholeskyQR2 factors (Fukaya et al., 2014) of the in-memory matrix
    A = a (rows >= cols), or None where they are not accurate. It is the thin QR
    of `thin_qr_q` and of `_orthonormal_basis` (the range finder's last
    sketch, the truncated SVD's U_k and `dmd`'s exact-style basis).

    R1 = chol(A^T A) and R2 = chol(Q1^T Q1) for Q1 = A R1^-1; returns
    (R1, R1^-1, R2), so that A = Q R2 R1 with Q = Q1 R2^-1 orthonormal. Q1
    itself is never formed: Q1^T Q1 is summed over the `_row_products`
    chunks A_i R1^-1, held one at a time in one reused buffer. The second
    pass restores orthogonality to rounding level as long as Q1 is not far
    from orthonormal, i.e. for condition numbers up to about 1e8. A failed
    Cholesky factorization or ||Q1^T Q1 - I||_2 > 1/2 (rank-deficient or
    worse-conditioned input) yields None. The triangular factors are only
    cols x cols, so callers invert them rather than solve against them.

    `gram` is A^T A where the caller has formed it already; otherwise
    `_streamed_gram` forms it here: a NaN or Inf in A raises NonFiniteInput
    naming the first such entry of A, a finite A whose A^T A overflowed
    yields None.
    """
    if gram is None:
        gram = _streamed_gram(a)
    c = gram.shape[0]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            r1 = np.linalg.cholesky(gram).T
            r1_inv = np.linalg.inv(r1)
            g2 = np.zeros((c, c))
            for _, q1 in _row_products(a, r1_inv):
                g2 += q1.T @ q1
    except np.linalg.LinAlgError:
        return None
    r2 = _near_identity_cholesky(g2)
    return None if r2 is None else (r1, r1_inv, r2)


def _cholesky_q(a: np.ndarray, factors, out: np.ndarray) -> np.ndarray:
    """Q = (A_i R1^-1) R2^-1 for the `_cholesky_qr2` factors of the
    in-memory n-row A, written into the n x cols `out` one `_CHUNK_ROWS`-row
    chunk A_i at a time after those rows of A were read, so `out` may be A
    itself."""
    _, r1_inv, r2 = factors
    r2_inv = np.linalg.inv(r2)
    for rows, q1 in _row_products(a, r1_inv):
        np.matmul(q1, r2_inv, out=out[rows])
    return out


def _basis_pass(
    x, cols: slice, w: np.ndarray, out: np.ndarray | None = None, visit=None,
    gram: bool = True,
):
    """(Y^T Y, Y^T X) for Y = A W, A being the columns `cols` of x (an
    n-row matrix or a row-block source) and W = w a small matrix, in one
    `row_chunks` pass; (None, Y^T X) where gram is false, as for the range
    finder's power iterations, which only read Y^T X. Each chunk's rows
    Y_i = X_i[:, cols] W are one `_tall_product`, written into those rows
    of `out` (an n x c `empty_basis`) or, without it, into one reused
    chunk buffer, and the sums read X_i in place while it is cached, as
    does `visit(start, X_i)` where given (`_SquaredNorm` in a method's
    first pass). Overflow is not reported: a non-finite sum is the
    caller's to check."""
    source = as_source(x)
    c = w.shape[1]
    if out is None:
        step = min(source.rows, _CHUNK_ROWS)
        memguard.note(step * c * 8)
        chunk = np.empty((c, step)).T
    gram = np.zeros((c, c)) if gram else None
    projected = np.zeros((c, source.cols))
    with np.errstate(over="ignore", invalid="ignore"):
        for start, rows in row_chunks(source):
            stop = start + rows.shape[0]
            y_i = _tall_product(
                rows[:, cols], w, out=chunk[: stop - start] if out is None else out[start:stop]
            )
            if gram is not None:
                gram += y_i.T @ y_i
            projected += y_i.T @ rows
            if visit is not None:
                visit(start, rows)
            del rows
    return gram, projected


def _orthonormal_basis(x, cols: slice, w: np.ndarray, visit=None, _rejected=False):
    """(Q, R, Q^T X) for Q R = A W, Q orthonormal, A W the n x c product of
    A, the columns `cols` of x (an n-row matrix or a row-block source), and
    a small w.

    One `_basis_pass` writes A W into an `empty_basis` and sums its Gram
    matrix and (A W)^T X. `_cholesky_qr2` from that Gram gives R = R2 R1,
    Q is written over A W (`_cholesky_q`), and Q^T X = R^-T (A W)^T X needs
    no pass. Q stays an `empty_basis`, so a lift can hand it back (see
    `_lift`). `visit` is the pass's (`_basis_pass`). A NaN or Inf in the
    sums raises NonFiniteInput saying that a product of the finite X
    overflowed: some first pass has named any NaN or Inf of X.

    Where CholeskyQR2 accepts A W but its c x c R = R2 R1 resolves fewer
    than c directions (`_resolved` of R: columns of A W at rounding level,
    which CholeskyQR2 would normalize, as a sketch of noise-free data has),
    the SVD of that R gives A W V_r = U_r S_r. Where CholeskyQR2 rejects
    A W (a condition number past about 1e8), `_fold_r` folds the basis's
    chunks into a Householder R for `_resolved` instead. Either way the
    basis is freed, and one more pass writes A W V_r S_r^-1, orthonormal to
    within about eps * kappa, whose CholeskyQR2 accepts it as Q R' (else
    ConvergenceFailure): Q has r columns and R = R' S_r V_r^T.
    """
    source = as_source(x)
    basis = empty_basis(source.rows, w.shape[1])
    gram, projected = _basis_pass(source, cols, w, basis, visit)
    _require_finite(gram, projected)
    factors = _cholesky_qr2(basis, gram)
    if factors is not None:
        r = factors[2] @ factors[0]
        s, v = _resolved(r, basis.shape)
        if s.size == r.shape[0]:
            return _cholesky_q(basis, factors, out=basis), r, np.linalg.solve(r.T, projected)
    if _rejected:
        raise ConvergenceFailure("CholeskyQR2 or its rank check rejected the rank-resolved basis")
    if factors is None:
        s, v = _resolved(_fold_r(rows for _, rows in row_chunks(as_source(basis))), basis.shape)
    del basis
    q, r, projected = _orthonormal_basis(source, cols, w @ (v / s), _rejected=True)
    return q, r @ (s[:, None] * v.T), projected


# Ritz directions taken beyond the k kept by `_gram_ritz_svd`, the usual
# oversampling of a randomized range (Halko, Martinsson & Tropp, 2011)
_RITZ_OVERSAMPLING = 10

# The largest error bound of the Gram's top k eigenvectors, its resolution
# over its k-th gap, eps * max(rows, cols) * lambda_1 / (lambda_k -
# lambda_{k+1}), at which `_gram_ritz_svd` skips its Ritz pass. By Davis &
# Kahan (1970) range(A V_k) is then within about that angle of U_k, so the
# Rayleigh-Ritz step on it is off by the square of the angle in s (1e-12 *
# sigma_1 at 1e-6) and by the angle in U_k and V_k: over random spectra at
# 60 to 3000 rows the angle stayed within 0.39 times the bound, at most
# 8.6e-10, where the Ritz pass reached 1.1e-11. 1e-6 keeps the benchmark's
# input (200000 x 200 at k = 5, a bound of 1.8e-7) on two passes.
_GAP_BOUND = 1e-6


def _gram_ritz_svd(x, gram: np.ndarray, k: int) -> SvdFactors | None:
    """First k singular triplets of a tall matrix A, the leading
    gram.shape[0] columns of x (an n-row matrix or a row-block source), by
    Rayleigh-Ritz on the range of A V_l, where V_l holds the top l
    eigenvectors of its Gram matrix G = A^T A (Halko, Martinsson & Tropp,
    2011, sec. 5), or None where G does not admit A or a basis is not
    accurate. `projected` is U_k^T X for every column of x.

    1. eigh(G). Where fewer than k eigenvalues lie above the Gram's
       resolution eps * max(rows, cols) * lambda_1, G must pass a
       Cholesky factorization, as full-rank data does and data of rank
       below k does not. l = min(cols, k + 10) directions of positive
       eigenvalue.
    2. Where k < l and the resolution over the gap lambda_k - lambda_{k+1}
       is at most `_GAP_BOUND`, G has resolved its top k directions, and
       the U pass alone is the Rayleigh-Ritz step: `_orthonormal_basis` of
       A V_k Lambda_k^-1/2 gives Q and Q^T X, the k x cols SVD
       U_B S V^T of Q^T A gives s and V, and U_k = Q U_B is rotated in
       place chunk by chunk. A is read once here, and steps 3 to 5 are
       skipped.
    3. Otherwise the Ritz pass (`_basis_pass`) over the chunks A_i:
       Q1_i = A_i W for W = V_l Lambda_l^-1/2, and the sums G2 = Q1^T Q1
       and C = Q1^T A.
    4. R2 = chol(G2) of the widest leading l' >= k columns that pass the
       guard of `_near_identity_cholesky` (none yields None), so
       Q = Q1 R2^-1 is orthonormal to rounding and B = Q^T A = R2^-T C; Q is
       never formed. The guard drops directions below the Gram's
       resolution where A has no rank for them (or, past condition numbers
       of about 1e8, too little), so full-rank data keeps the oversampling
       its trailing kept triplets need.
    5. U_B S V^T = svd(B), the l' x cols Rayleigh-Ritz problem, and
       U_k with U_k^T X from the U pass: `_orthonormal_basis` of
       A (W R2^-1 U_B[:, :k]), whose CholeskyQR2 restores the
       orthogonality that W's inverted factors cost (~3e-10 at 3000 x 50,
       kappa = 1e7) to rounding level.

    Besides U_k it holds one A_i's l-column product (a k-column chunk on
    the two-pass path) and l x cols factors. Beyond G the Ritz pass costs
    two n x cols x l products and U_k two of k columns (at 200000 x 200,
    k = 5: about 19 GFLOP in all with the Ritz pass and 17 without it,
    against 48 for CholeskyQR2 of A); skipping it saves a read of A.
    """
    source = as_source(x)
    n, c = source.rows, gram.shape[0]
    if not np.isfinite(gram).all():
        return None
    try:
        lam, vec = np.linalg.eigh(gram)  # ascending
    except np.linalg.LinAlgError:
        return None
    lam, vec = lam[::-1], vec[:, ::-1]
    resolution = np.finfo(np.float64).eps * max(n, c) * lam[0]
    if np.count_nonzero(lam > resolution) < k:
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
    l = min(c, k + _RITZ_OVERSAMPLING, int(np.count_nonzero(lam > 0)))
    if l < k:
        return None
    if k < l and resolution <= _GAP_BOUND * (lam[k - 1] - lam[k]):
        u, _, projected = _orthonormal_basis(source, slice(0, c), vec[:, :k] / np.sqrt(lam[:k]))
        try:
            rotation, s, vh = np.linalg.svd(projected[:, :c], full_matrices=False)
        except np.linalg.LinAlgError:
            return None
        for rows, rotated in _row_products(u, rotation):
            u[rows] = rotated
        return SvdFactors(u, s, vh.T, rotation.T @ projected)
    w = vec[:, :l] / np.sqrt(lam[:l])
    g2, proj = _basis_pass(source, slice(0, c), w)  # a non-finite G2 fails the guard
    for l in range(l, k - 1, -1):  # the widest basis that passes the guard
        r2 = _near_identity_cholesky(g2[:l, :l].copy())
        if r2 is not None:
            break
    else:
        return None
    w, proj = w[:, :l], proj[:l, :c]
    try:
        r2_inv = np.linalg.inv(r2)
        u_b, s, vh = np.linalg.svd(r2_inv.T @ proj, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    u, _, projected = _orthonormal_basis(source, slice(0, c), w @ (r2_inv @ u_b[:, :k]))
    return SvdFactors(u, s[:k], vh[:k].T, projected)


def truncated_svd(
    x, k: int, cols: int | None = None, gram: np.ndarray | None = None
) -> SvdFactors:
    """First k singular triplets of the economic SVD of A, the leading
    `cols` columns (all by default) of x: an in-memory matrix, which is its
    one-block source, or a row-block source (see `blocked`), read in
    `row_chunks` passes. `gram` is A^T A where the caller formed it
    already. The result's `projected` is U^T X for all of x's columns.

    A short one-block input (rows < 2 * cols, as B and S X are) is the
    slice of `economic_svd` of its block. Every other input forms A^T A in
    one pass (`_streamed_gram`, unless given) and takes one of two tiers:
    1. Rayleigh-Ritz on the top eigenvectors of the Gram
       (`_gram_ritz_svd`), forming only the k kept left vectors and, besides
       them, one `_CHUNK_ROWS`-row chunk. Where the Gram's resolution over
       its k-th eigenvalue gap is at most `_GAP_BOUND`, one pass for U_k and
       U_k^T X is the Rayleigh-Ritz step, so the SVD reads A twice in all;
       otherwise a Ritz pass over l = k + 10 directions for Q1^T Q1 and
       Q1^T A comes before it. It takes full-rank inputs up to condition
       numbers of about 1e8 and inputs whose Gram resolves k directions.
    2. Where Rayleigh-Ritz declines (numerical rank below k, a k-th
       singular value below the Gram's resolution, or an overflowed Gram),
       the rank rule: one `_fold_r` pass and `_resolved` give s_r and V_r, and
       `_orthonormal_basis` of A V_r S_r^-1 gives U_r and U_r^T X, so the
       result holds min(k, r) triplets.

    NaN or Inf in A raises NonFiniteInput naming its first such entry: the
    Gram pass shows it (a `gram` passed in was checked by its caller),
    a short one-block input is checked before LAPACK runs.
    """
    source = as_source(x)
    n, c = source.rows, source.cols if cols is None else cols
    if not 1 <= k <= min(n, c):
        raise RankOutOfRange(f"rank {k} outside [1, {min(n, c)}] for shape {(n, c)}")
    if n < 2 * c and source.block_count == 1:
        block = source.read_block(0)
        a = block[:, :c]
        if not np.isfinite(a).all():
            raise _non_finite_error(a)
        memguard.note(n * c * 8)  # LAPACK's U
        f = economic_svd(a)
        u = f.u[:, :k]
        return SvdFactors(u, f.singular_values[:k], f.v[:, :k], u.T @ block)
    if gram is None:
        gram = _streamed_gram(source)[:c, :c]
    fast = _gram_ritz_svd(source, gram, k)
    if fast is not None:
        return fast
    s, v = _resolved(_fold_r(rows[:, :c] for _, rows in row_chunks(source)), (n, c))
    s, v = s[:k], v[:, :k]
    u, _, projected = _orthonormal_basis(source, slice(0, c), v / s)
    return SvdFactors(u, s, v, projected)


def thin_qr_q(x) -> np.ndarray:
    """Orthonormal factor Q of the thin QR decomposition (rows >= cols).

    Inputs with rows >= 2 * cols run guarded CholeskyQR2 (see
    `_cholesky_qr2`) and write Q = (A_i R1^-1) R2^-1 into the n x cols
    output one `_CHUNK_ROWS`-row chunk A_i at a time (`_cholesky_q`): the
    guard ||Q1^T Q1 - I||_2 <= 1/2 keeps the second pass's input within
    kappa <= sqrt(3), where CholeskyQR2 is orthogonal to the order of
    rounding, as Householder QR is (Yamamoto, Nakatsukasa, Yanagisawa &
    Fukaya, 2015). Every other input, and every input the guard rejects, is
    one LAPACK Householder call.

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
            return _cholesky_q(a, factors, np.empty((n, c)))
    q = np.linalg.qr(a, mode="reduced")[0]
    # a tall input has passed the Gram check of `_cholesky_qr2`
    if n < 2 * c and not np.isfinite(q).all():
        raise _non_finite_error(a)
    return q


def _fold_r(blocks) -> np.ndarray:
    """The R factor of the matrix X whose row blocks, top to bottom, are
    `blocks`, folded as a flat TSQR tree (Demmel, Grigori, Hoemmen & Langou,
    2012): R <- Householder R factor of [R; X_i] for each block X_i, so one
    cols x cols R and one block's factorization are resident at a time."""
    r = None
    for block in blocks:
        a = _as_matrix(block)
        r = np.linalg.qr(a if r is None else np.vstack([r, a]), mode="r")
    return r


def singular_values_of_rows(blocks) -> np.ndarray:
    """Singular values of the matrix whose row blocks, top to bottom, are
    `blocks`, from its folded R factor (`_fold_r`)."""
    return np.linalg.svd(_fold_r(blocks), compute_uv=False)


def _resolved(factor: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The library's one rank rule: (s_r, V_r), the r singular values above
    `default_rank_tol` of a `shape` matrix A = Q R with orthonormal Q, and
    their right vectors, from the SVD of its c x c factor R = `factor`: the
    Householder R of `_fold_r` or the one CholeskyQR2 accepted.
    DegenerateData where A is zero."""
    _, s, vh = np.linalg.svd(factor, full_matrices=False)
    rank = int(np.count_nonzero(s > default_rank_tol(shape, s[0])))
    if rank == 0:
        raise DegenerateData(f"the {shape[0]} x {shape[1]} matrix is identically zero")
    return s[:rank], vh[:rank].T


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
    be scaled the same way. The pivot, the first entry of largest
    magnitude, is exactly real after the call; a zero column is left as it
    is.

    Two passes over `_CHUNK_ROWS`-row chunks of all columns: the first sums
    the columns' squared norms and finds their pivots, the second scales
    each chunk in place, so the only temporaries are chunk-sized."""
    n, k = w.shape
    sq_norms = np.zeros(k)
    peaks = np.full(k, -1.0)
    at = np.zeros(k, dtype=np.intp)
    for start in range(0, n, _CHUNK_ROWS):
        mags = np.abs(w[start : start + _CHUNK_ROWS])
        rows = np.argmax(mags, axis=0)
        top = mags[rows, np.arange(k)]
        # strictly larger only, so an earlier chunk keeps a tied pivot
        later = top > peaks
        peaks[later] = top[later]
        at[later] = start + rows[later]
        sq_norms += np.square(mags, out=mags).sum(axis=0)
    cols = np.flatnonzero(sq_norms != 0)
    at = at[cols]
    conj = w[at, cols].conjugate()
    scales = peaks[cols] * np.sqrt(sq_norms[cols])
    whole = cols.size == k  # else the zero columns are left out of the pass
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        chunk = w[rows] if whole else w[rows, cols]
        # multiply by the conjugate first so the pivot's imaginary part
        # cancels, then scale by the (real) magnitude and norm; where the
        # complex multiply uses fused multiply-add the cancellation leaves
        # a rounding-level imaginary part, which is dropped below
        chunk *= conj
        chunk /= scales
        if not whole:
            w[rows, cols] = chunk
    w[at, cols] = w[at, cols].real
    factors = np.ones(k, dtype=np.complex128)
    factors[cols] = conj / scales
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
