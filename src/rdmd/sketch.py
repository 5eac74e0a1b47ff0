"""Randomized range finding.

The central routine is `blocked_randomized_qb`, the one range finder: sample
the range of X with a seeded Gaussian test matrix, optionally sharpen the
spectrum with stabilized power iterations, each of which only hands the
span of its sketch to the next (one `linalg._basis_pass`, with no n-row
basis), and orthonormalize and project the last sketch in the one pass
that forms it (`linalg._orthonormal_basis`, also the exact-style modes'
basis), reading X block by block from a row-block source (see `blocked`).
`randomized_qb` is its one-block call on an in-memory matrix. The
factorization X ~ Q B (Q with l = k + p orthonormal columns, fewer where X
resolves fewer directions, and B = Q^T X) is what every downstream
consumer works with. Also here: the expected-error bound for the Gaussian
sketch, and the compressed decomposition's S X, Gaussian
(`gaussian_compress`, with S drawn in tiles) or row-sampled
(`apply_sampling`), each formed in one `row_chunks` pass over an n-row
matrix or a row-block source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import memguard
from .blocked import ArrayRowBlockSource, as_source, row_chunks
from .errors import (
    InvalidDistribution,
    InvalidOversampling,
    RankOutOfRange,
    ShapeMismatch,
)
from .linalg import (
    _basis_pass,
    _lift,
    _orthonormal_basis,
    _require_finite,
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
    data_sq_norm is ||x||_F^2, the `sq_norm` of x's source, which the
    source's first walk sums (`blocked.row_chunks`)."""

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


def gaussian_compress(x, rows: int, seed: int) -> np.ndarray:
    """S @ X for S = gaussian_test_matrix(rows, n, seed), without forming S,
    in one `row_chunks` pass over x, an n-row matrix X or a row-block
    source of it.

    Sums S[:, chunk] @ X_i over the chunks X_i, the columns of S being
    drawn a tile of `_COMPRESS_TILE_ROWS` rows of X at a time into one
    reused rows x tile buffer, so S costs that buffer rather than rows x n;
    a chunk that straddles two tiles is split between them. S's entries
    depend only on their row and column (`normal_columns_into`), so S does
    not depend on the blocks, and the sum equals the one-GEMM product to
    rounding. Where the pass is the source's first walk, it names any NaN
    or Inf of X (`row_chunks`); elsewhere NaN or Inf in X propagates to the
    result silently, and the caller checks.
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
            del chunk
    return out


def blocked_randomized_qb(source, cfg: SketchConfig) -> QBFactorization:
    """Randomized QB factorization of the matrix X whose row blocks
    `source` hands out, with oversampling and power iterations.

    Stabilized subspace iteration (Halko, Martinsson & Tropp, 2011, sec.
    4.5; the naive (X X^T)^q X product is numerically unstable) in
    q + 1 = cfg.power_iters + 1 passes over X, from Z_0 = Omega, an m x l
    Gaussian test matrix (l = k + p). For j < q, pass j is one
    `linalg._basis_pass`: it forms Y_j = X Z_j one chunk at a time in a
    reused chunk buffer and sums only P_j = Y_j^T X, and Z_{j+1} =
    `thin_qr_q`(P_j^T). That is the span of Alg. 4.4's
    `thin_qr_q`(B_j^T) for B_j = Q_j^T X, as Y_j = Q_j R gives
    B_j^T = P_j^T R^-1 with R upper triangular, so Y_j is never
    orthonormalized, and no n x l basis is written. The last pass,
    `linalg._orthonormal_basis` of Z_q, writes Y_q into an n x l basis and
    gives its orthonormal Q and B = Q^T X with no further pass.

    A last sketch of rank r < l, as one of noise-free data is (the power
    iterations then hand it l - r columns in X's null space), keeps its r
    resolved directions (`linalg._resolved`) at the cost of one more pass,
    so Q then has r columns and B r rows. The source's first walk names
    the first NaN or Inf of X by its row and sums ||X||_F^2, the result's
    data_sq_norm (`blocked.row_chunks`). The block count changes the
    result only at the level of rounding, and the sketch size is bounded
    by min(n, m) of the whole matrix alone. Q is an `empty_basis`, which the pipeline's
    mode lift hands back chunk by chunk (see `linalg._lift`). The source's
    last block is released after the last pass.
    """
    n, m = source.rows, source.cols
    l = cfg.sketch_size
    if l > min(n, m):
        raise RankOutOfRange(
            f"sketch size {l} (k={cfg.target_rank} + p={cfg.oversampling}) "
            f"exceeds min{(n, m)} = {min(n, m)}"
        )
    z = gaussian_test_matrix(m, l, cfg.seed)
    for _ in range(cfg.power_iters):
        projected = _basis_pass(source, slice(None), z, gram=False)[1]
        _require_finite(projected)
        z = thin_qr_q(projected.T)
    q, _, b = _orthonormal_basis(source, slice(None), z)
    source.release_block()
    return QBFactorization(q, b, source.sq_norm)


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


def apply_sampling(op: SamplingOperator, x) -> np.ndarray:
    """Gather and rescale the sampled rows of x, an n-row matrix X or a
    row-block source of it, in one `row_chunks` pass: each chunk fills the
    sampled rows it holds. The sparse operator is never materialized as a
    dense matrix."""
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
        del rows
    return out
