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

Every result carries eigenvalues sorted by descending magnitude, modes with
unit norm and phase pinned (largest entry real positive), and amplitudes
fitted to the first snapshot, so reconstruction and cross-method
comparisons are well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import memguard
from .blocked import apply_q, blocked_randomized_qb
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
    default_rank_tol,
    divide_where,
    eig_dense,
    filter_factors,
    normalize_phase_in_place,
    sort_eigenpairs,
    truncated_svd,
)
from .memguard import stage
from .sketch import (
    SamplingOperator,
    SketchConfig,
    apply_sampling,
    gaussian_test_matrix,
    randomized_qb,
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

    sketch configures the randomized variant (and supplies the seed for the
    compressed one); compress_dim/sampling configure the compressed variant;
    regularization replaces the default hard rank-k truncation with a
    smooth Tikhonov filter when set.
    """

    target_rank: int
    method: str = "deterministic_projected"
    sketch: SketchConfig | None = None
    compress_dim: int | None = None
    sampling: str = "gaussian"
    regularization: FilterSpec | None = None

    def __post_init__(self):
        if self.target_rank < 1:
            raise RankOutOfRange(f"target_rank must be >= 1, got {self.target_rank}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.sampling not in ("gaussian", "uniform_rows"):
            raise ValueError(f"unknown sampling kind {self.sampling!r}")

    def sketch_or_default(self) -> SketchConfig:
        if self.sketch is not None:
            return self.sketch
        return SketchConfig(target_rank=self.target_rank)


@dataclass
class DmdResult:
    """Decomposition output plus reproducibility metadata."""

    eigenvalues: np.ndarray
    modes: np.ndarray
    low_dim_eigvecs: np.ndarray
    amplitudes: np.ndarray | None
    method: str
    diagnostics: dict = field(default_factory=dict)


def split_snapshots(x) -> SnapshotSplit:
    """Split a d x (m+1) sequence into overlapping left/right d x m halves."""
    a = _as_matrix(x)
    if a.shape[1] < 2:
        raise TooFewSnapshots(
            f"need at least 2 snapshot columns, got {a.shape[1]}"
        )
    return SnapshotSplit(left=a[:, :-1], right=a[:, 1:])


def low_dim_operator(
    split: SnapshotSplit, k: int, regularization: FilterSpec | None = None
) -> LowDimOperator:
    """Projected propagator U_k^T D_R V_k S_k^{-1} from a snapshot split.

    The inverted singular values carry the regularization filter: the
    default is plain truncation at k (filter factors all one); a Tikhonov
    spec replaces 1/s_i by s_i / (s_i^2 + lambda^2). Exact zeros and values
    at numerical-rank level invert to zero.
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
    spec = regularization if regularization is not None else FilterSpec.tsvd(k)
    f = filter_factors(s, spec)
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


def _fit_amplitudes(modes: np.ndarray, x0: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(modes) @ x0


def amplitudes(result: DmdResult, x0) -> np.ndarray:
    """Least-squares mode amplitudes for an initial state: modes @ a ~ x0."""
    x0 = np.asarray(x0, dtype=np.complex128).ravel()
    if x0.size != result.modes.shape[0]:
        raise ShapeMismatch(
            f"x0 has {x0.size} entries, modes have {result.modes.shape[0]} rows"
        )
    return _fit_amplitudes(result.modes, x0)


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
    # Re(W @ P) via two real GEMMs keeps the largest buffer real-sized.
    return result.modes.real @ scaled.real - result.modes.imag @ scaled.imag


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


def _config_echo(cfg: DmdConfig, sketch: SketchConfig | None, blocks: int) -> dict:
    reg = cfg.regularization
    return {
        "method": cfg.method,
        "target_rank": cfg.target_rank,
        "oversampling": sketch.oversampling if sketch else None,
        "power_iters": sketch.power_iters if sketch else None,
        "sketch_size": sketch.sketch_size if sketch else None,
        "compress_dim": cfg.compress_dim,
        "sampling": cfg.sampling if cfg.method == "compressed" else None,
        "seed": sketch.seed if sketch else None,
        "blocks": blocks,
        "regularization": (
            {"kind": reg.kind, "parameter": reg.parameter} if reg else None
        ),
    }


# Bases the low-dimensional eigenvectors multiply: U_k for projected modes,
# D_R V_k S_k^{-1} for exact ones.
_projected_basis = attrgetter("left_vectors")
_exact_basis = attrgetter("right_projected")


def _pipeline(split, cfg, timings, config, *, method, basis, x0, lift=None):
    """Low-dimensional DMD of `split`, shared by every variant.

    The variants differ only in the split (X, S X or the sketch B), in
    `basis(op)`, the matrix the low-dimensional eigenvectors multiply, and
    in `lift`, which maps that product through the orthonormal sketch basis
    Q to the state space (omitted when it is already there). Amplitudes are
    fitted against x0, the first snapshot in the space the product lives in.
    """
    with stage(timings, "svd"):
        op = low_dim_operator(split, cfg.target_rank, cfg.regularization)
    with stage(timings, "eig"):
        pairs = eig_dense(op.operator)
    with stage(timings, "modes"):
        small = basis(op) @ pairs.eigenvectors
        # the modes are a fresh complex array (`small` or its lift), so they
        # are normalized in place rather than copied; `small` is read again
        # below only when it was lifted and so left as it is
        modes = small if lift is None else lift(small)
        factors = normalize_phase_in_place(modes)
    with stage(timings, "amplitudes"):
        # With Q orthonormal, fitting the modes against the first snapshot
        # equals fitting Q^T modes = small * factors against its projection
        # B[:, 0] (the x0 a lifted variant passes); this avoids another pass
        # over the state dimension.
        amp = _fit_amplitudes(modes if lift is None else small * factors, x0)
    return DmdResult(
        eigenvalues=pairs.eigenvalues,
        modes=modes,
        low_dim_eigvecs=pairs.eigenvectors,
        amplitudes=amp,
        method=method,
        diagnostics={"timings": timings, "config": config},
    )


def dmd_deterministic(x, cfg: DmdConfig) -> DmdResult:
    """Deterministic decomposition from the full snapshot sequence.

    cfg.method picks the mode formula: "deterministic_projected" lifts with
    the left singular vectors, "deterministic_exact" with the right
    snapshots.
    """
    a = _as_matrix(x)
    basis = _exact_basis if cfg.method == "deterministic_exact" else _projected_basis
    return _pipeline(
        split_snapshots(a), cfg, {}, _config_echo(cfg, None, 1),
        method=cfg.method, basis=basis, x0=a[:, 0],
    )


def _checked_sketch(cfg: DmdConfig) -> SketchConfig:
    sketch = cfg.sketch_or_default()
    if sketch.target_rank != cfg.target_rank:
        raise RankOutOfRange(
            f"sketch target_rank {sketch.target_rank} != config rank {cfg.target_rank}"
        )
    return sketch


def dmd_randomized(x, cfg: DmdConfig) -> DmdResult:
    """Randomized decomposition: QB sketch, low-dimensional DMD, recovery."""
    a = _as_matrix(x)
    if a.shape[1] < 2:
        raise TooFewSnapshots(f"need at least 2 snapshot columns, got {a.shape[1]}")
    sketch = _checked_sketch(cfg)
    if sketch.sketch_size > min(a.shape[0], a.shape[1] - 1):
        raise RankOutOfRange(
            f"sketch size {sketch.sketch_size} exceeds "
            f"min(n, snapshots-1) = {min(a.shape[0], a.shape[1] - 1)}"
        )
    timings = {}
    with stage(timings, "sketch"):
        qb = randomized_qb(a, sketch)
    return _pipeline(
        split_snapshots(qb.b), cfg, timings, _config_echo(cfg, sketch, 1),
        method="randomized", basis=_exact_basis, x0=qb.b[:, 0], lift=lambda m: qb.q @ m,
    )


def dmd_randomized_blocked(source, cfg: DmdConfig) -> DmdResult:
    """Randomized decomposition over a row-block source (out-of-core path).

    Consumes the source through the blocked QB; mode recovery streams
    through the per-block bases, so no n x m buffer is ever materialized.
    The pipeline is the in-memory one, so a single-block run is
    bit-identical to `dmd_randomized`.
    """
    sketch = _checked_sketch(cfg)
    timings = {}
    with stage(timings, "sketch"):
        blocked = blocked_randomized_qb(source, sketch)
    result = _pipeline(
        split_snapshots(blocked.b), cfg, timings,
        _config_echo(cfg, sketch, blocked.block_count),
        method="randomized", basis=_exact_basis, x0=blocked.b[:, 0],
        lift=lambda m: apply_q(blocked, m),
    )
    result.diagnostics["blocked"] = True
    return result


def dmd_compressed(x, cfg: DmdConfig, operator=None) -> DmdResult:
    """Compressed decomposition: DMD of S @ X for a random l x n mixer S.

    S is a Gaussian test matrix or a rescaled uniform row sampler per
    cfg.sampling; pass `operator` (a SamplingOperator or explicit matrix) to
    pin it, e.g. the identity sampler for an exactness check. Modes are
    lifted from the uncompressed right snapshots.
    """
    a = _as_matrix(x)
    split = split_snapshots(a)
    n = a.shape[0]
    k = cfg.target_rank
    sketch = cfg.sketch_or_default()
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
                operator = uniform_sampling_operator(n, l, sketch.seed)
            else:
                operator = gaussian_test_matrix(l, n, sketch.seed)
        if isinstance(operator, SamplingOperator):
            compressed = apply_sampling(operator, a)
        else:
            operator = np.asarray(operator, dtype=np.float64)
            if operator.shape[1] != n:
                raise ShapeMismatch(
                    f"compression operator has {operator.shape[1]} columns, data has {n} rows"
                )
            compressed = operator @ a

    config = _config_echo(cfg, sketch, 1)
    config["compress_dim"] = int(compressed.shape[0])
    return _pipeline(
        split_snapshots(compressed), cfg, timings, config, method="compressed",
        basis=lambda op: (split.right @ op.right_vectors) * op.inv_singular, x0=a[:, 0],
    )


def run_dmd(x, cfg: DmdConfig) -> DmdResult:
    """Dispatch an in-memory snapshot sequence to the configured method."""
    if cfg.method in ("deterministic_projected", "deterministic_exact"):
        return dmd_deterministic(x, cfg)
    if cfg.method == "randomized":
        return dmd_randomized(x, cfg)
    return dmd_compressed(x, cfg)
