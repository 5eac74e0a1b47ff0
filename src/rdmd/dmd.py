"""Dynamic mode decomposition: deterministic, compressed, and randomized.

All three variants share one low-dimensional pipeline. Given left/right
snapshot matrices (D_L, D_R) in some d-dimensional space, the best-fit
linear propagator restricted to the dominant k left singular vectors of
D_L is

    A_tilde = U_k^T D_R V_k S_k^{-1},

whose eigenpairs give the decomposition's eigenvalues and low-dimensional
eigenvectors. The variants differ only in what plays the role of D and how
eigenvectors are lifted back to the full state space:

* deterministic: D = (X_L, X_R); modes are U_k W (projected) or
  X_R V_k S_k^{-1} W (exact).
* randomized: D = (B_L, B_R) from the QB sketch B = Q^T X; modes are
  Q B_R V S^{-1} W, near-optimal when col(Q) captures col(X).
* compressed: D = (S X_L, S X_R) for a random row-mixing/sampling S;
  modes are lifted exact-style from the uncompressed X_R.

Each variant's modes lie in the span of an orthonormal basis Q (U_k, the
sketch basis, or the thin QR factor of the exact-style basis), so every
variant fits its amplitudes and keeps its reconstruction data in Q's
k- or l-dimensional coordinates. Each hands the shared pipeline
(`_pipeline`) two things: its snapshots D, from which the pipeline takes
the rank-k operator (`_sequence_operator`), and a frame (Q, B, M) with
B = Q^T X, its modes being Q M W. The pipeline reads ||X||_F^2 and the
block count from the source, releases the source's held block after the
frame, every variant's last pass, and lifts every variant's modes through
`apply_q`. The sketch basis, U_k and the exact-style Q each come from
`linalg._orthonormal_basis` passes, each of which writes an n x l or
n x k product and sums what its CholeskyQR2 and Q^T X need.

Each variant has one entry point (`dmd_deterministic`, `dmd_compressed`,
`dmd_randomized`), which takes an n-row matrix or a row-block source (see
`blocked.as_source`; a matrix is the one-block source of itself) and reads
X in whole `row_chunks` passes, so a mapped file is held one chunk at a
time: the projected deterministic variant twice (the Gram
matrix of X, then U_k with B = U_k^T X) where the Gram resolves its k
directions and three times where its truncated SVD needs a Rayleigh-Ritz
pass between them, the exact modes once more (their basis), the
compressed variant twice (S X with ||X||_F^2, then its basis), and the
randomized one q + 1 times; the rank rule (`linalg._resolved`) adds one
pass where it runs. Any block count gives the one-block result to
rounding. Data that resolves r < k directions gives r eigenvalues (see
`_operator`). The first of these passes names any NaN or Inf of X and
sums ||X||_F^2, the source's `sq_norm`, which the pipeline reads
(`blocked.row_chunks`). Every variant's SVD, with U_k^T D, is
`linalg.truncated_svd`'s, and only it decides whether a Gram matrix is
formed: for a tall or blocked X, not for the short B or S X of the
randomized and compressed variants.

Every result carries eigenvalues sorted by descending magnitude, modes with
unit norm and phase pinned (largest entry real positive), and amplitudes
fitted to the first snapshot, so reconstruction and cross-method
comparisons are well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import memguard
from .blocked import _non_finite_error, _require_finite, _require_finite_entries, as_source
from .errors import (
    DegenerateData,
    EmptyInput,
    MissingAmplitudes,
    NonFiniteInput,
    RankOutOfRange,
    ShapeMismatch,
    TooFewSnapshots,
)
from .linalg import (
    FilterSpec,
    _as_matrix,
    _orthonormal_basis,
    _real_product,
    _tall_product,
    default_rank_tol,
    eig_dense,
    filter_factors,
    normalize_phase_in_place,
    sort_eigenpairs,
    truncated_svd,
)
from .memguard import stage
from .sketch import (
    QBFactorization,
    SamplingOperator,
    SketchConfig,
    apply_q,
    apply_sampling,
    blocked_randomized_qb,
    gaussian_compress,
    randomized_qb,  # no caller: perfbench/traced.py's sketch.randomized_qb site
    uniform_sampling_operator,
)

METHODS = (
    "deterministic_projected",
    "deterministic_exact",
    "compressed",
    "randomized",
)


@dataclass(frozen=True)
class SnapshotSplit:
    """Time-shifted halves of a snapshot sequence: right ~ A @ left.

    sequence is the d x (m+1) matrix D whose views the halves are, as
    `split_snapshots` keeps it; None for a split built from two matrices.
    """

    left: np.ndarray
    right: np.ndarray
    sequence: np.ndarray | None = None


@dataclass(frozen=True)
class LowDimOperator:
    """Rank-k projected propagator and the SVD factors behind it.

    projected is U_k^T D for the sequence D (U_k^T D_R for a split without
    one): the operator is taken from its last m columns, and the projected
    modes' frame keeps it as B = U_k^T X. right is the split's D_R, and None
    for the operators `_pipeline` takes, whose frames read no D_R.
    """

    operator: np.ndarray
    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    inv_singular: np.ndarray
    right: np.ndarray | None
    projected: np.ndarray

    @property
    def right_projected(self) -> np.ndarray:
        """D_R V_k S_k^{-1}, the basis exact-style modes lift through, formed
        on each access (the randomized frame forms the same product from
        B_R)."""
        basis = _tall_product(self.right, self.right_vectors)
        basis *= self.inv_singular
        return basis


@dataclass
class DmdConfig:
    """What to run and how.

    target_rank is the rank k every method keeps. oversampling, power_iters
    and seed configure the randomized variant's sketch (see `sketch`), and
    seed also draws the compressed variant's operator; compress_dim and
    sampling configure the compressed variant; regularization replaces the
    default hard rank-k truncation with a smooth Tikhonov filter when set.
    The sketch defaults are SketchConfig's.
    """

    target_rank: int
    method: str = "deterministic_projected"
    oversampling: int = SketchConfig.oversampling
    power_iters: int = SketchConfig.power_iters
    seed: int = SketchConfig.seed
    compress_dim: int | None = None
    sampling: str = "gaussian"
    regularization: FilterSpec | None = None

    def __post_init__(self):
        self.sketch  # validates target_rank, oversampling and power_iters
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.sampling not in ("gaussian", "uniform_rows"):
            raise ValueError(f"unknown sampling kind {self.sampling!r}")

    @property
    def sketch(self) -> SketchConfig:
        """The range-finder parameters of the randomized variant."""
        return SketchConfig(
            self.target_rank, self.oversampling, self.power_iters, self.seed
        )


@dataclass(frozen=True)
class SketchFit:
    """A result in the coordinates of the orthonormal basis its modes lie in.

    Every variant's modes are Q @ modes for an orthonormal n x l basis Q:
    the randomized sketch basis, U_k for projected modes, and the thin QR
    factor of the exact or compressed modes' basis. data is B = Q^T X (the
    snapshots in those coordinates) and data_sq_norm is ||X||_F^2. With C
    the reconstruction from `modes` in coordinates, the reconstruction Q C
    of X therefore has

        ||X - Q C||_F^2 = (||X||_F^2 - ||B||_F^2) + ||B - C||_F^2,

    the sketch residual plus the dynamics misfit, an l x (m+1) computation
    (Halko, Martinsson & Tropp, 2011, sec. 4).
    """

    modes: np.ndarray
    data: np.ndarray
    data_sq_norm: float


@dataclass
class DmdResult:
    """Decomposition output plus reproducibility metadata.

    diagnostics holds the run's "config" (see `_config_echo`), its stage
    "timings" and "eigenpair_residual", max_j ||A_tilde w_j - lambda_j w_j||_2
    over the unit-norm low-dimensional eigenvectors w_j. Every variant sets
    sketch; it is None only on a result built by hand.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    low_dim_eigvecs: np.ndarray
    amplitudes: np.ndarray | None
    method: str
    diagnostics: dict = field(default_factory=dict)
    sketch: SketchFit | None = None


def _require_snapshots(cols: int) -> None:
    """TooFewSnapshots unless a sequence has the 2 columns a split needs;
    each entry point checks it before its first pass over X."""
    if cols < 2:
        raise TooFewSnapshots(f"need at least 2 snapshot columns, got {cols}")


def split_snapshots(x) -> SnapshotSplit:
    """Split a d x (m+1) sequence into overlapping left/right d x m halves."""
    a = _as_matrix(x)
    _require_snapshots(a.shape[1])
    return SnapshotSplit(left=a[:, :-1], right=a[:, 1:], sequence=a)


def low_dim_operator(
    split: SnapshotSplit, k: int, regularization: FilterSpec | None = None
) -> LowDimOperator:
    """Projected propagator (U_k^T D_R V_k) S_k^{-1} from a snapshot split.

    U_k^T D_R is the slice of the one k x (m+1) product U_k^T D with the
    split's sequence, so no d x k product with D_R is formed (see
    `LowDimOperator.right_projected`). The inverted singular values carry
    the regularization filter (see `_operator`). A split of a sequence D
    takes the `truncated_svd` of D's leading m columns, which gives U_k^T D
    with it: for a short D (B or S X, d < 2m) the slice of LAPACK's SVD,
    with no (m+1) x (m+1) Gram matrix formed. A split built from two
    matrices takes the SVD of D_L and U_k^T D_R. NaN or Inf in either half
    raises NonFiniteInput naming its first such entry (the D_R of two
    matrices is scanned only where U_k^T D_R is not finite).
    """
    left, right = split.left, split.right
    if left.shape != right.shape:
        raise ShapeMismatch(f"left {left.shape} != right {right.shape}")
    if split.sequence is not None:
        return _sequence_operator(split.sequence, k, regularization, right)
    factors = truncated_svd(left, k)
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        projected = factors.u.T @ right
    if not np.isfinite(projected).all():  # a NaN or Inf of D_R shows here
        raise _non_finite_error(right)
    return _operator(factors, projected, k, regularization, right)


def _sequence_operator(d, k, regularization, right=None) -> LowDimOperator:
    """The LowDimOperator of the snapshot sequence D, an n x (m+1) matrix or
    row-block source: the rank-k `truncated_svd` of its leading m columns
    D_L, whose U_k^T D comes with it (see `_operator`). right is D_R where
    the operator keeps it (`LowDimOperator.right_projected`)."""
    source = as_source(d)
    factors = truncated_svd(source, k, source.cols - 1)
    return _operator(factors, factors.projected, k, regularization, right)


def _operator(factors, projected, k, regularization, right=None) -> LowDimOperator:
    """The LowDimOperator of the rank-k truncated SVD `factors` of a d x m
    D_L (d and m the rows of U_k and V_k) and projected = U_k^T D, whose
    last m columns are U_k^T D_R. Only the r triplets above
    eps * max(d, m) * s_1 are kept (the rank rule of
    `linalg._resolved`), so the operator is r x r. The default filter is
    plain truncation (1/s_i); a Tikhonov spec replaces 1/s_i by
    s_i / (s_i^2 + lambda^2). A filter reads k values, zero beyond the
    triplets given, so tsvd(j) keeps all r where r < j. r == 0 (an all-zero
    D_L) raises DegenerateData."""
    s, shape = factors.singular_values, (factors.u.shape[0], factors.v.shape[0])
    r = int(np.count_nonzero(s > default_rank_tol(shape, s[0])))
    if r == 0:
        raise DegenerateData("left snapshot matrix is identically zero")
    f = np.ones(r) if regularization is None else filter_factors(
        np.pad(s, (0, k - s.size)), regularization)[:r]
    s, u, v = s[:r], factors.u[:, :r], factors.v[:, :r]
    inv_s = f / s
    operator = (projected[:r, -shape[1]:] @ v) * inv_s
    return LowDimOperator(
        operator=operator,
        left_vectors=u,
        singular_values=s,
        right_vectors=v,
        inv_singular=inv_s,
        right=right,
        projected=projected[:r],
    )


def amplitudes(result: DmdResult, x0) -> np.ndarray:
    """Least-squares mode amplitudes for an initial state: modes @ a ~ x0."""
    x0 = np.asarray(x0, dtype=np.complex128).ravel()
    if x0.size != result.modes.shape[0]:
        raise ShapeMismatch(
            f"x0 has {x0.size} entries, modes have {result.modes.shape[0]} rows"
        )
    return np.linalg.pinv(result.modes) @ x0


def _dynamics_weights(eigenvalues: np.ndarray, amplitudes: np.ndarray, steps: int) -> np.ndarray:
    """W = diag(amplitudes) eigenvalues**j, j = 0..steps-1, of `reconstruct`
    and synth (`datasets._dynamics`). NonFiniteInput names a NaN or Inf
    entry, or says that the dynamics overflow where a column's sum of
    moduli, which bounds that column of modes @ W for unit-norm modes,
    overflows float64."""
    _require_finite_entries("eigenvalue", eigenvalues)
    _require_finite_entries("amplitude", amplitudes)
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        weights = amplitudes[:, None] * (eigenvalues[:, None] ** np.arange(steps)[None, :])
        bound = np.abs(weights).sum(axis=0)
    if not np.isfinite(bound).all():
        raise NonFiniteInput(
            f"the dynamics overflow float64 within {steps - 1} steps "
            f"(largest |eigenvalue| {np.abs(eigenvalues).max():.6g})"
        )
    return weights


def reconstruct(result: DmdResult, steps: int) -> np.ndarray:
    """Real snapshot sequence Re(modes @ diag(lambda^j) @ a), j = 0..steps-1.
    ShapeMismatch where the modes, eigenvalues and amplitudes differ in
    number, as the files of different runs can. NonFiniteInput, before
    any product with the modes, where an eigenvalue or amplitude is NaN or
    Inf or the dynamics overflow (`_dynamics_weights`)."""
    if result.amplitudes is None:
        raise MissingAmplitudes("result carries no amplitudes")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lam, amp, k = result.eigenvalues, result.amplitudes, result.modes.shape[1]
    if not k == lam.size == amp.size:
        raise ShapeMismatch(f"{k} modes, {lam.size} eigenvalues and {amp.size} amplitudes")
    weights = _dynamics_weights(lam, amp, steps)
    memguard.note(result.modes.shape[0] * steps * 8)
    return _real_product(result.modes, weights)


def eigen_match_error(reference, test) -> float:
    """Worst-case matched distance between two spectra.

    Both lists are sorted by the library eigenvalue order and truncated to
    the shorter length; reference values are then matched greedily in order
    of descending magnitude, each taking the nearest still-unused test
    value. Deterministic by construction. NaN or Inf in either spectrum
    raises NonFiniteInput naming the spectrum and the entry's index: a NaN
    distance would otherwise never be the worst.
    """
    ref = np.asarray(reference, dtype=np.complex128).ravel()
    tst = np.asarray(test, dtype=np.complex128).ravel()
    if ref.size == 0 or tst.size == 0:
        raise EmptyInput("cannot match empty spectra")
    _require_finite_entries("reference spectrum entry", ref)
    _require_finite_entries("test spectrum entry", tst)
    n = min(ref.size, tst.size)
    ref = sort_eigenpairs(ref)[0][:n]
    tst = sort_eigenpairs(tst)[0][:n]
    unused = np.ones(n, dtype=bool)
    worst = 0.0
    for r in ref:
        dist = np.abs(tst - r)
        dist[~unused] = np.inf
        j = int(np.argmin(dist))
        unused[j] = False
        worst = max(worst, float(dist[j]))
    return worst


def _config_echo(cfg: DmdConfig, method: str, effective_rank: int, blocks: int,
                 compress_dim: int | None = None,
                 effective_sketch_size: int | None = None) -> dict:
    """The description of a run of `method`: the parameters it reads, None
    for the rest; effective_rank is the number of eigenvalues it kept,
    compress_dim the compressed variant's effective l, and
    effective_sketch_size the number of columns the randomized variant's Q
    kept (fewer than sketch_size where X resolves fewer directions)."""
    randomized = method == "randomized"
    compressed = method == "compressed"
    reg = cfg.regularization
    return {
        "method": method,
        "target_rank": cfg.target_rank,
        "effective_rank": effective_rank,
        "oversampling": cfg.oversampling if randomized else None,
        "power_iters": cfg.power_iters if randomized else None,
        "sketch_size": cfg.sketch.sketch_size if randomized else None,
        "effective_sketch_size": effective_sketch_size,
        "compress_dim": compress_dim,
        "sampling": cfg.sampling if compressed else None,
        "seed": cfg.seed if randomized or compressed else None,
        "blocks": blocks,
        "regularization": (
            {"kind": reg.kind, "parameter": reg.parameter} if reg else None
        ),
    }


def _span_frame(source, op):
    """`_pipeline`'s frame (Q, B, M) of the exact-style modes basis @ W for
    basis = X_R V S^-1 (V and S^-1 those of the LowDimOperator op), X
    being the snapshots of a row-block source: basis = Q M for Q
    orthonormal, and B = Q^T X, from one `linalg._orthonormal_basis` pass
    (two where the basis has rank below its width, Q then having that
    rank's columns).
    """
    q, m, b = _orthonormal_basis(
        source, slice(1, None), op.right_vectors * op.inv_singular
    )
    return q, b, m


def _projected_frame(op):
    """`_pipeline`'s frame (U_k, U_k^T X, I) of the projected modes U_k W,
    from the deterministic variant's LowDimOperator op."""
    return op.left_vectors, op.projected, np.eye(op.operator.shape[0])


def _pipeline(source, snapshots, k, cfg, method, timings, frame, **echo):
    """Low-dimensional DMD shared by every variant, of the snapshots X
    whose row-block source is `source`.

    The variants differ only in their snapshots D, from which the rank-k
    operator is taken (`_sequence_operator`: X itself, S X or the sketch
    B), and in `frame(op)`, which returns (Q, B, M): the modes are Q M W
    for the low-dimensional eigenvectors W, Q being an orthonormal n x l
    basis and B = Q^T X the snapshots in its coordinates. The frame is
    every variant's last pass over X, so the source's held block is
    released (`release_block`) right after it, before the lift. Q is the
    variant's own basis, which nothing reads after the lift, so every
    variant lifts through `apply_q` with release_q: each chunk of Q is
    handed back once those rows of the modes are written, and the modes
    replace Q rather than being added to it. Since pinv(Q N) =
    pinv(N) Q^T, the amplitudes are fitted in coordinates, against
    B[:, 0], and the result keeps (M W, B, ||X||_F^2) as its `SketchFit`,
    ||X||_F^2 being the source's `sq_norm`. Each variant's first pass over
    X names any NaN or Inf of X, so NaN or Inf in the low-dimensional
    operator, M W, B[:, 0] or ||X||_F^2 raises NonFiniteInput saying that
    a product of the finite input overflowed. `echo` is passed on to
    `_config_echo`, with the source's block count.
    """
    with stage(timings, "svd"):
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            op = _sequence_operator(snapshots, k, cfg.regularization)
        _require_finite(op.operator)
    with stage(timings, "eig"):
        pairs = eig_dense(op.operator)
        w = pairs.eigenvectors
        eigenpair_residual = float(
            np.linalg.norm(op.operator @ w - w * pairs.eigenvalues, axis=0).max()
        )
    with stage(timings, "modes"):
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            q, data, coords = frame(op)
            source.release_block()  # after the last pass, before the lift
            small = coords @ w
        del op, coords  # an exact-style frame leaves U_k unread
        data_sq_norm = source.sq_norm
        _require_finite(small, data[:, 0], data_sq_norm)
        # the lift is a fresh complex array, so it is normalized in place;
        # `small` is scaled by the same factors into the coordinates
        modes = apply_q(QBFactorization(q, data, data_sq_norm), small, release_q=True)
        del q  # whose chunks the lift handed back
        factors = normalize_phase_in_place(modes)
    with stage(timings, "amplitudes"):
        sketch = SketchFit(small * factors, data, data_sq_norm)
        amp = np.linalg.pinv(sketch.modes) @ data[:, 0]
    return DmdResult(
        eigenvalues=pairs.eigenvalues,
        modes=modes,
        low_dim_eigvecs=w,
        amplitudes=amp,
        method=method,
        diagnostics={
            "timings": timings,
            "config": _config_echo(cfg, method, pairs.eigenvalues.size, source.block_count,
                                   **echo),
            "eigenpair_residual": eigenpair_residual,
        },
        sketch=sketch,
    )


def dmd_deterministic(x, cfg: DmdConfig) -> DmdResult:
    """Deterministic decomposition of the snapshot sequence X, an n-row
    matrix or a row-block source, in `row_chunks` passes over X.

    The snapshots D are X itself: the operator and B = U_k^T X come from
    the `truncated_svd` of X_L, on a tall or blocked X the Gram matrix of
    X, then one more pass that writes U_k and sums B where the Gram's
    resolution over its k-th eigenvalue gap is at most
    `linalg._GAP_BOUND`, and two (a Rayleigh-Ritz pass first) elsewhere;
    on a short one-block X, one walk and LAPACK's SVD of the block. The
    source's first walk names any NaN or Inf of X and sums ||X||_F^2
    (`blocked.row_chunks`); a finite X whose ||X||_F^2 overflowed raises
    NonFiniteInput. cfg.method "deterministic_exact" lifts exact modes
    X_R V_k S_k^{-1} W through the frame of their orthonormal span
    (`_span_frame`, one more pass); any other method runs the projected
    modes U_k W, whose frame is (U_k, B, I), so the projected run reads a
    tall X twice on such data, and three times elsewhere. Any block count
    gives the one-block result to rounding.
    """
    source = as_source(x)
    _require_snapshots(source.cols)
    if cfg.method == "deterministic_exact":
        method, frame = cfg.method, lambda op: _span_frame(source, op)
    else:
        method, frame = "deterministic_projected", _projected_frame
    return _pipeline(source, source, cfg.target_rank, cfg, method, {}, frame)


def dmd_randomized(x, cfg: DmdConfig) -> DmdResult:
    """Randomized decomposition of the snapshot sequence X, an n-row matrix
    or a row-block source: QB sketch, low-dimensional DMD, recovery.

    The range finder (`blocked_randomized_qb`) reads X q + 1 times, once
    per sketch: each power iteration's read gives the next test matrix,
    the last one the n x l basis Q and B = Q^T X. The snapshots D are B,
    and the frame is (Q, B, B_R V S^-1), so the modes are lifted through Q
    and no n x m buffer is ever materialized. Any block count gives the
    one-block result to rounding. The config echo's effective_sketch_size
    is the number of columns the basis kept.
    """
    source = as_source(x)
    _require_snapshots(source.cols)
    timings = {}
    with stage(timings, "sketch"):
        qb = blocked_randomized_qb(source, cfg.sketch)
    k = min(cfg.target_rank, qb.b.shape[0])  # B has r rows where X resolves r < l
    return _pipeline(
        source, qb.b, k, cfg, "randomized", timings,
        lambda op: (qb.q, qb.b, _tall_product(qb.b[:, 1:], op.right_vectors) * op.inv_singular),
        effective_sketch_size=qb.b.shape[0],
    )


def dmd_compressed(x, cfg: DmdConfig, operator: SamplingOperator | None = None) -> DmdResult:
    """Compressed decomposition: DMD of the snapshots D = S @ X for a random
    l x n mixer S and the snapshot sequence X, an n-row matrix or a
    row-block source.

    S is a Gaussian test matrix or a rescaled uniform row sampler per
    cfg.sampling, drawn from cfg.seed; pass a SamplingOperator as `operator`
    to pin it, e.g. the identity sampler for an exactness check. Modes are
    lifted exact-style from the uncompressed right snapshots, through the
    frame of their span (`_span_frame`). X is read twice: S X, in the
    first walk, which names any NaN or Inf of X and sums ||X||_F^2
    (`blocked.row_chunks`), then the frame's basis pass.
    """
    source = as_source(x)
    n, cols = source.rows, source.cols
    _require_snapshots(cols)
    k = cfg.target_rank
    timings = {}

    with stage(timings, "compress"):
        if operator is None:
            l = cfg.compress_dim if cfg.compress_dim is not None else min(n, 10 * k)
            if l < k:
                raise RankOutOfRange(f"compress_dim {l} below target rank {k}")
            if cfg.sampling == "uniform_rows":
                if l > n:
                    raise RankOutOfRange(
                        f"uniform row sampling needs compress_dim <= {n}, got {l}"
                    )
                operator = uniform_sampling_operator(n, l, cfg.seed)
        if operator is not None:
            compressed = apply_sampling(operator, source)
        else:
            compressed = gaussian_compress(source, l, cfg.seed)
        _require_finite(compressed)

    return _pipeline(
        source, compressed, k, cfg, "compressed", timings,
        lambda op: _span_frame(source, op), compress_dim=compressed.shape[0],
    )


def run_dmd(x, cfg: DmdConfig) -> DmdResult:
    """Run cfg.method on the snapshot sequence x, an n-row matrix or a
    row-block source."""
    if cfg.method == "randomized":
        return dmd_randomized(x, cfg)
    if cfg.method == "compressed":
        return dmd_compressed(x, cfg)
    return dmd_deterministic(x, cfg)
