"""Randomized range finding.

The central routine is `blocked_randomized_qb`, the one range finder: sample
the range of X with a seeded Gaussian test matrix, optionally sharpen the
spectrum with stabilized power iterations, orthonormalize, and project,
reading X block by block from a row-block source (see `blocked`).
`randomized_qb` is its one-block call on an in-memory matrix. The
factorization X ~ Q B (Q with l = k + p orthonormal columns, B = Q^T X) is
what every downstream consumer works with. Also here: the expected-error
bound for the Gaussian sketch, and the compressed decomposition's S X,
Gaussian (`gaussian_compress`, with S drawn in tiles) or row-sampled
(`apply_sampling`), each formed in one `row_chunks` pass over an n-row
matrix or a row-block source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import memguard
from .blocked import ArrayRowBlockSource, as_source, empty_basis, row_chunks
from .errors import (
    InvalidDistribution,
    InvalidOversampling,
    RankOutOfRange,
    ShapeMismatch,
)
from .linalg import (
    _lift,
    _non_finite_error,
    _require_finite,
    _tall_product,
    frobenius_sq,
    thin_qr_q,
)
from .rng import normal_columns_into, normal_matrix, uniforms


@dataclass(frozen=True)
class SketchConfig:
    """Parameters of the randomized range finder.

    target_rank is the rank the downstream decomposition keeps; the sketch
    itself carries sketch_size = target_rank + oversampling columns, and the
    surplus is only discarded at the downstream truncated SVD.
    """

    target_rank: int
    oversampling: int = 10
    power_iters: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.target_rank < 1:
            raise RankOutOfRange(f"target_rank must be >= 1, got {self.target_rank}")
        if self.oversampling < 0:
            raise InvalidOversampling(
                f"oversampling must be >= 0, got {self.oversampling}"
            )
        if self.power_iters < 0:
            raise ValueError(f"power_iters must be >= 0, got {self.power_iters}")

    @property
    def sketch_size(self) -> int:
        return self.target_rank + self.oversampling


@dataclass(frozen=True)
class QBFactorization:
    """x ~ q @ b with q (n x l) orthonormal and b = q.T @ x (l x m);
    data_sq_norm is ||x||_F^2, summed in the range finder's first pass."""

    q: np.ndarray
    b: np.ndarray
    data_sq_norm: float


@dataclass(frozen=True)
class SamplingOperator:
    """Row sampler with unbiasedness rescaling.

    Applying it picks rows `indices` and multiplies row j by
    scale_factors[j] = 1 / sqrt(sample_count * p_{indices[j]}), so that
    (S X)^T (S X) is an unbiased estimator of X^T X.
    """

    source_dim: int
    sample_count: int
    indices: np.ndarray
    scale_factors: np.ndarray


# Rows of X per tile of `gaussian_compress`: at l = 50 its block of S is
# 6.6 MB, and each row's draw call is long enough to amortize its overhead.
_COMPRESS_TILE_ROWS = 16384


def gaussian_test_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. standard-normal matrix; same seed, same matrix."""
    if rows < 1 or cols < 1:
        raise ShapeMismatch(f"test matrix needs positive dims, got {rows}x{cols}")
    memguard.note(rows * cols * 8)
    return normal_matrix(rows, cols, seed)


def gaussian_compress(x, rows: int, seed: int, visit=None) -> np.ndarray:
    """S @ X for S = gaussian_test_matrix(rows, n, seed), without forming S,
    in one `row_chunks` pass over x, an n-row matrix X or a row-block
    source of it.

    Sums S[:, chunk] @ X_i over the chunks X_i, the columns of S being
    drawn a tile of `_COMPRESS_TILE_ROWS` rows of X at a time into one
    reused rows x tile buffer, so S costs that buffer rather than rows x n;
    a chunk that straddles two tiles is split between them. S's entries
    depend only on their row and column (`normal_columns_into`), so S does
    not depend on the blocks, and the sum equals the one-GEMM product to
    rounding. `visit(start, X_i)`, where given, is called on each chunk
    after its product, in the same pass. NaN or Inf in X propagates to the
    result silently; the caller checks.
    """
    source = as_source(x)
    n, m = source.rows, source.cols
    if rows < 1:
        raise ShapeMismatch(f"test matrix needs positive dims, got {rows}x{n}")
    tile = min(n, _COMPRESS_TILE_ROWS)
    memguard.note(rows * tile * 8)
    block = np.empty((rows, tile))
    lo = hi = 0  # the rows of X whose columns of S the block holds
    out = np.zeros((rows, m))
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks
        for start, chunk in row_chunks(source):
            stop = start + chunk.shape[0]
            at = start
            while at < stop:
                if at >= hi:
                    lo, hi = at, min(n, at + tile)
                    normal_columns_into(block[:, : hi - lo], n, lo, seed)
                end = min(stop, hi)
                out += block[:, at - lo : end - lo] @ chunk[at - start : end - start]
                at = end
            if visit is not None:
                visit(start, chunk)
            del chunk
    return out


def blocked_randomized_qb(source, cfg: SketchConfig) -> QBFactorization:
    """Randomized QB factorization of the matrix X whose row blocks
    `source` hands out, with oversampling and power iterations.

    Draws an m x l Gaussian test matrix (l = k + p), forms Y = X Omega, runs
    cfg.power_iters stabilized power iterations (each orthonormalizes Y,
    orthonormalizes X^T Q, and resamples Y = X Z; the naive (X X^T)^q X
    product is numerically unstable), then orthonormalizes once more and
    projects B = Q^T X (Halko, Martinsson & Tropp, 2011, sec. 4.5). All
    2q + 1 orthonormalizations are `thin_qr_q`.

    Each product with X is one pass over the blocks, 2q + 2 in all, and
    each pass one `row_chunks` walk, so a mapped file's pages are released
    chunk by chunk: rows i of X W are `_tall_product`(X_i, W) for each chunk
    X_i, and Q^T X is the sum of Q_i^T X_i, X^T Q being taken as
    (Q^T X)^T, the faster BLAS layout for a row-major X. The block count
    changes the result only at the level of rounding, and the sketch size
    is bounded by min(n, m) of the whole matrix alone. Y and Q share one
    Fortran-ordered n x l `empty_basis`: every X W is written into it,
    `thin_qr_q` orthonormalizes it in place, and the pipeline's mode lift
    hands it back chunk by chunk (see `linalg._lift`). The source's last
    block is released after the last pass.

    The first pass also sums ||X||_F^2 and checks each chunk's rows of Y:
    NaN or Inf there raises NonFiniteInput naming the first bad entry of X
    by its row in X, or, where X is finite, saying that a product
    overflowed, as `_project` says of a Q^T X that overflowed.
    """
    n, m = source.rows, source.cols
    l = cfg.sketch_size
    if l > min(n, m):
        raise RankOutOfRange(
            f"sketch size {l} (k={cfg.target_rank} + p={cfg.oversampling}) "
            f"exceeds min{(n, m)} = {min(n, m)}"
        )
    omega = gaussian_test_matrix(m, l, cfg.seed)
    y = empty_basis(n, l)
    data_sq_norm = 0.0
    error = None
    for start, rows in row_chunks(source):
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            sample = _tall_product(rows, omega, out=y[start : start + len(rows)])
        if not np.isfinite(sample).all():
            error = _non_finite_error(rows, start)
            if error.row is not None:
                raise error
        data_sq_norm += frobenius_sq(rows)
        del rows  # a copied block is freed before the next one is read
    if error is not None:  # no entry of X is NaN or Inf: a product overflowed
        raise error
    for _ in range(cfg.power_iters):
        z = thin_qr_q(_project(source, thin_qr_q(y, out=y)).T)
        for start, rows in row_chunks(source):
            _tall_product(rows, z, out=y[start : start + len(rows)])
            del rows
    q = thin_qr_q(y, out=y)
    b = _project(source, q)
    source.release_block()
    return QBFactorization(q=q, b=b, data_sq_norm=data_sq_norm)


def _project(source, q: np.ndarray) -> np.ndarray:
    """Q^T X for the n x l basis q, summed chunk by chunk as Q_i^T X_i. An
    earlier pass has named any NaN or Inf of X, so a non-finite sum raises
    NonFiniteInput saying that a product of the finite X overflowed."""
    memguard.note(q.shape[1] * source.cols * 8)
    out = np.zeros((q.shape[1], source.cols))
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        for start, rows in row_chunks(source):
            out += q[start : start + len(rows)].T @ rows
            del rows
    _require_finite(out)
    return out


def randomized_qb(x, cfg: SketchConfig) -> QBFactorization:
    """Randomized QB factorization of an in-memory matrix: the one-block
    call of `blocked_randomized_qb`, whose one block is a view of x."""
    return blocked_randomized_qb(ArrayRowBlockSource(x, 1), cfg)


def apply_q(qb: QBFactorization, v, *, release_q: bool = False) -> np.ndarray:
    """Q @ v for an l x c matrix v, without casting Q to complex (see
    `linalg._lift`). qb.q is left as it is unless release_q is set, which
    only a caller that owns qb and has no further use for qb.q may do: the
    lift then hands qb.q back chunk by chunk, its rows reading as zeros."""
    return _lift(qb.q, np.asarray(v), release_q=release_q)


def expected_error_bound(
    k: int, p: int, q: int, m: int, n: int, sigma_next: float
) -> float:
    """Expected Frobenius error of the rank-(k+p) Gaussian sketch.

    E || X - Q Q^T X ||_F <=
        [1 + sqrt(k/(p-1)) + e*sqrt(k+p)/p * sqrt(min(m,n)-k)]^(1/(2q+1))
        * sigma_{k+1},
    valid for oversampling p >= 2.
    """
    if p < 2:
        raise InvalidOversampling(f"the bound requires oversampling >= 2, got {p}")
    if sigma_next < 0:
        raise ValueError("sigma_next must be nonnegative")
    l = k + p
    bracket = 1.0 + math.sqrt(k / (p - 1.0)) + (
        math.e * math.sqrt(l) / p
    ) * math.sqrt(min(m, n) - k)
    return bracket ** (1.0 / (2.0 * q + 1.0)) * sigma_next


def row_sampling_operator(
    n: int, sample_count: int, probabilities, seed: int
) -> SamplingOperator:
    """Draw `sample_count` row indices i.i.d. with replacement from the given
    distribution and attach the 1/sqrt(l * p_i) rescaling per draw."""
    if sample_count < 1:
        raise InvalidDistribution(f"sample_count must be >= 1, got {sample_count}")
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size != n:
        raise InvalidDistribution(f"need {n} probabilities, got shape {p.shape}")
    if np.any(p < 0):
        raise InvalidDistribution("probabilities must be nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-12:
        raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    u = uniforms(seed, 0, sample_count)
    indices = np.searchsorted(cdf, u, side="left").astype(np.int64)
    scales = 1.0 / np.sqrt(sample_count * p[indices])
    return SamplingOperator(
        source_dim=n,
        sample_count=sample_count,
        indices=indices,
        scale_factors=scales,
    )


def uniform_sampling_operator(n: int, sample_count: int, seed: int) -> SamplingOperator:
    """Row sampler with uniform probabilities 1/n (every scale sqrt(n/l))."""
    return row_sampling_operator(n, sample_count, np.full(n, 1.0 / n), seed)


def identity_sampling_operator(n: int) -> SamplingOperator:
    """Every row once, in order, unit scales: applying it is the identity."""
    return SamplingOperator(
        source_dim=n,
        sample_count=n,
        indices=np.arange(n, dtype=np.int64),
        scale_factors=np.ones(n),
    )


def apply_sampling(op: SamplingOperator, x, visit=None) -> np.ndarray:
    """Gather and rescale the sampled rows of x, an n-row matrix X or a
    row-block source of it, in one `row_chunks` pass: each chunk fills the
    sampled rows it holds. The sparse operator is never materialized as a
    dense matrix. `visit(start, X_i)`, where given, is called on each chunk
    X_i in the same pass."""
    source = as_source(x)
    if source.rows != op.source_dim:
        raise ShapeMismatch(
            f"operator expects {op.source_dim} rows, matrix has {source.rows}"
        )
    order = np.argsort(op.indices, kind="stable")
    picked = op.indices[order]
    out = np.empty((op.sample_count, source.cols))
    for start, rows in row_chunks(source):
        lo, hi = np.searchsorted(picked, [start, start + rows.shape[0]])
        at = order[lo:hi]
        out[at] = rows[op.indices[at] - start] * op.scale_factors[at, None]
        if visit is not None:
            visit(start, rows)
        del rows
    return out
