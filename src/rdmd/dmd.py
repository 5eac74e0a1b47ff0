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
k- or l-dimensional coordinates.

Every result carries eigenvalues sorted by descending magnitude, modes with
unit norm and phase pinned (largest entry real positive), and amplitudes
fitted to the first snapshot, so reconstruction and cross-method
comparisons are well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import memguard
from .blocked import apply_q, blocked_randomized_qb
from .datasets import ArrayRowBlockSource
from .errors import (
    DegenerateData,
    EmptyInput,
    MissingAmplitudes,
    RankOutOfRange,
    ShapeMismatch,
    TooFewSnapshots,
)
from .linalg import (
    FilterSpec,
    _as_matrix,
    _lift,
    _real_product,
    _require_finite,
    default_rank_tol,
    divide_where,
    eig_dense,
    filter_factors,
    frobenius_sq,
    normalize_phase_in_place,
    sort_eigenpairs,
    thin_qr_q,
    truncated_svd,
)
from .memguard import stage
from .sketch import (
    SamplingOperator,
    SketchConfig,
    apply_sampling,
    gaussian_compress,
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
    """Time-shifted halves of a snapshot sequence: right ~ A @ left."""

    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class LowDimOperator:
    """Rank-k projected propagator and the SVD factors behind it.

    right_projected = right @ V_k @ S_k^{-1} is kept because both the
    operator and the mode recovery reuse it.
    """

    operator: np.ndarray
    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    inv_singular: np.ndarray
    right_projected: np.ndarray


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
    the randomized paths check it before their sketch, so the in-memory
    and blocked ones fail alike."""
    if cols < 2:
        raise TooFewSnapshots(f"need at least 2 snapshot columns, got {cols}")


def split_snapshots(x) -> SnapshotSplit:
    """Split a d x (m+1) sequence into overlapping left/right d x m halves."""
    a = _as_matrix(x)
    _require_snapshots(a.shape[1])
    return SnapshotSplit(left=a[:, :-1], right=a[:, 1:])


def low_dim_operator(
    split: SnapshotSplit, k: int, regularization: FilterSpec | None = None
) -> LowDimOperator:
    """Projected propagator U_k^T D_R V_k S_k^{-1} from a snapshot split.

    The inverted singular values carry the regularization filter: the
    default is plain truncation at k (1/s_i on the k values kept); a
    Tikhonov spec replaces 1/s_i by s_i / (s_i^2 + lambda^2). Exact zeros
    and values at numerical-rank level invert to zero.
    """
    left, right = split.left, split.right
    if left.shape != right.shape:
        raise ShapeMismatch(f"left {left.shape} != right {right.shape}")
    if not 1 <= k <= min(left.shape):
        raise RankOutOfRange(f"rank {k} outside [1, {min(left.shape)}]")
    if not np.any(left):
        raise DegenerateData("left snapshot matrix is identically zero")
    factors = truncated_svd(left, k)
    s = factors.singular_values
    tol = default_rank_tol(left.shape, s[0])
    f = 1.0 if regularization is None else filter_factors(s, regularization)
    inv_s = divide_where(f, s, s > tol)
    right_projected = (right @ factors.v) * inv_s
    operator = factors.u.T @ right_projected
    return LowDimOperator(
        operator=operator,
        left_vectors=factors.u,
        singular_values=s,
        right_vectors=factors.v,
        inv_singular=inv_s,
        right_projected=right_projected,
    )


def amplitudes(result: DmdResult, x0) -> np.ndarray:
    """Least-squares mode amplitudes for an initial state: modes @ a ~ x0."""
    x0 = np.asarray(x0, dtype=np.complex128).ravel()
    if x0.size != result.modes.shape[0]:
        raise ShapeMismatch(
            f"x0 has {x0.size} entries, modes have {result.modes.shape[0]} rows"
        )
    return np.linalg.pinv(result.modes) @ x0


def reconstruct(result: DmdResult, steps: int) -> np.ndarray:
    """Real snapshot sequence Re(modes @ diag(lambda^j) @ a), j = 0..steps-1."""
    if result.amplitudes is None:
        raise MissingAmplitudes("result carries no amplitudes")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    scaled = result.amplitudes[:, None] * (
        result.eigenvalues[:, None] ** np.arange(steps)[None, :]
    )
    n = result.modes.shape[0]
    memguard.note(n * steps * 8)
    return _real_product(result.modes, scaled)


def eigen_match_error(reference, test) -> float:
    """Worst-case matched distance between two spectra.

    Both lists are sorted by the library eigenvalue order and truncated to
    the shorter length; reference values are then matched greedily in order
    of descending magnitude, each taking the nearest still-unused test
    value. Deterministic by construction.
    """
    ref = np.asarray(reference, dtype=np.complex128).ravel()
    tst = np.asarray(test, dtype=np.complex128).ravel()
    if ref.size == 0 or tst.size == 0:
        raise EmptyInput("cannot match empty spectra")
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


def _config_echo(cfg: DmdConfig, method: str, blocks: int = 1,
                 compress_dim: int | None = None) -> dict:
    """The description of a run of `method`: the parameters it reads, None
    for the rest; compress_dim is the compressed variant's effective l."""
    randomized = method == "randomized"
    compressed = method == "compressed"
    reg = cfg.regularization
    return {
        "method": method,
        "target_rank": cfg.target_rank,
        "oversampling": cfg.oversampling if randomized else None,
        "power_iters": cfg.power_iters if randomized else None,
        "sketch_size": cfg.sketch.sketch_size if randomized else None,
        "compress_dim": compress_dim,
        "sampling": cfg.sampling if compressed else None,
        "seed": cfg.seed if randomized or compressed else None,
        "blocks": blocks,
        "regularization": (
            {"kind": reg.kind, "parameter": reg.parameter} if reg else None
        ),
    }


def _frame(a, q, coords):
    """The orthonormal frame of an in-memory variant whose modes are
    q @ coords @ W for the n x k orthonormal q: the lift through q, the
    coordinates, B = q^T a and ||a||_F^2. The lift is `_lift`, so q is never
    cast to complex."""
    return (lambda m: _lift(q, m)), coords, q.T @ a, frobenius_sq(a)


def _span_frame(a, basis):
    """`_frame` of modes basis @ W for an n x k basis that is not
    orthonormal: q = thin_qr_q(basis), coordinates q^T basis. A NaN or Inf
    in the basis names the first such entry of `a`."""
    _require_finite(a, basis)
    q = thin_qr_q(basis)
    return _frame(a, q, q.T @ basis)


def _pipeline(split, cfg, method, timings, source, frame, **echo):
    """Low-dimensional DMD of `split`, shared by every variant.

    The variants differ only in the split (X, S X or the sketch B) and in
    `frame(op)`, which returns (lift, M, B, ||X||_F^2): the modes are
    lift(M @ W) for the low-dimensional eigenvectors W, where lift maps
    coordinates through an orthonormal n x l basis Q to the state space and
    B = Q^T X holds the snapshots in those coordinates. Since
    pinv(Q N) = pinv(N) Q^T, the amplitudes are fitted in coordinates,
    against B[:, 0], and the result keeps (M W, B, ||X||_F^2) as its
    `SketchFit`. NaN or Inf in the low-dimensional operator, M W or B[:, 0]
    raises NonFiniteInput naming the first such entry of `source`. `echo`
    is passed on to `_config_echo`.
    """
    with stage(timings, "svd"):
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            op = low_dim_operator(split, cfg.target_rank, cfg.regularization)
        _require_finite(source, op.operator)
    with stage(timings, "eig"):
        pairs = eig_dense(op.operator)
        w = pairs.eigenvectors
        eigenpair_residual = float(
            np.linalg.norm(op.operator @ w - w * pairs.eigenvalues, axis=0).max()
        )
    with stage(timings, "modes"):
        with np.errstate(over="ignore", invalid="ignore"):  # checked right below
            lift, coords, data, data_sq_norm = frame(op)
            small = coords @ w
        _require_finite(source, small, data[:, 0])
        # the lift is a fresh complex array, so it is normalized in place;
        # `small` is scaled by the same factors into the coordinates
        modes = lift(small)
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
            "config": _config_echo(cfg, method, **echo),
            "eigenpair_residual": eigenpair_residual,
        },
        sketch=sketch,
    )


def dmd_deterministic(x, cfg: DmdConfig) -> DmdResult:
    """Deterministic decomposition from the full snapshot sequence.

    cfg.method "deterministic_exact" lifts exact modes X_R V_k S_k^{-1} W
    through their orthonormal span; any other method runs the projected
    modes U_k W, whose frame is U_k itself.
    """
    a = _as_matrix(x)
    if cfg.method == "deterministic_exact":
        return _pipeline(
            split_snapshots(a), cfg, cfg.method, {}, a,
            lambda op: _span_frame(a, op.right_projected),
        )
    return _pipeline(
        split_snapshots(a), cfg, "deterministic_projected", {}, a,
        lambda op: _frame(a, op.left_vectors, np.eye(cfg.target_rank)),
    )


def dmd_randomized(x, cfg: DmdConfig) -> DmdResult:
    """Randomized decomposition: QB sketch, low-dimensional DMD, recovery.

    This is the single-block run of `dmd_randomized_blocked`: the one block
    is a view of x, not a copy.
    """
    return dmd_randomized_blocked(ArrayRowBlockSource(x, 1), cfg)


def dmd_randomized_blocked(source, cfg: DmdConfig) -> DmdResult:
    """Randomized decomposition over a row-block source (out-of-core path).

    Consumes the source through the blocked QB; mode recovery streams
    through the per-block bases, so no n x m buffer is ever materialized.
    With one block this is `dmd_randomized`.
    """
    _require_snapshots(source.cols)
    timings = {}
    with stage(timings, "sketch"):
        blocked = blocked_randomized_qb(source, cfg.sketch)
    return _pipeline(
        split_snapshots(blocked.b), cfg, "randomized", timings, blocked.b,
        lambda op: (
            (lambda m: apply_q(blocked, m)), op.right_projected, blocked.b,
            blocked.data_sq_norm,
        ),
        blocks=blocked.block_count,
    )


def dmd_compressed(x, cfg: DmdConfig, operator: SamplingOperator | None = None) -> DmdResult:
    """Compressed decomposition: DMD of S @ X for a random l x n mixer S.

    S is a Gaussian test matrix or a rescaled uniform row sampler per
    cfg.sampling, drawn from cfg.seed; pass a SamplingOperator as `operator`
    to pin it, e.g. the identity sampler for an exactness check. Modes are
    lifted exact-style from the uncompressed right snapshots.
    """
    a = _as_matrix(x)
    split = split_snapshots(a)
    n = a.shape[0]
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
            compressed = apply_sampling(operator, a)
        else:
            compressed = gaussian_compress(a, l, cfg.seed)
        _require_finite(a, compressed)

    return _pipeline(
        split_snapshots(compressed), cfg, "compressed", timings, a,
        lambda op: _span_frame(a, (split.right @ op.right_vectors) * op.inv_singular),
        compress_dim=compressed.shape[0],
    )


def run_dmd(x, cfg: DmdConfig) -> DmdResult:
    """Dispatch an in-memory snapshot sequence to the configured method."""
    if cfg.method in ("deterministic_projected", "deterministic_exact"):
        return dmd_deterministic(x, cfg)
    if cfg.method == "randomized":
        return dmd_randomized(x, cfg)
    return dmd_compressed(x, cfg)
