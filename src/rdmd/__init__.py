"""Randomized dynamic mode decomposition with out-of-core blocked sketching."""

from .blocked import (
    BlockedQB,
    apply_q,
    assemble_q,
    blocked_randomized_qb,
    partition_rows,
)
from .datasets import (
    ArrayRowBlockSource,
    ModeSpec,
    SmsRowBlockSource,
    SyntheticTruth,
    add_noise,
    open_row_blocks,
    read_sms,
    synth_linear_dynamics,
    write_sms,
)
from .dmd import (
    DmdConfig,
    DmdResult,
    SnapshotSplit,
    amplitudes,
    dmd_compressed,
    dmd_deterministic,
    dmd_randomized,
    dmd_randomized_blocked,
    eigen_match_error,
    low_dim_operator,
    reconstruct,
    run_dmd,
    split_snapshots,
)
from .errors import RdmdError
from .linalg import (
    ComplexEigenPairs,
    FilterSpec,
    SvdFactors,
    economic_svd,
    eig_dense,
    filter_factors,
    pseudoinverse,
    thin_qr_q,
    tikhonov_inverse,
    truncated_svd,
)
from .sketch import (
    QBFactorization,
    SamplingOperator,
    SketchConfig,
    apply_sampling,
    expected_error_bound,
    gaussian_test_matrix,
    identity_sampling_operator,
    randomized_qb,
    row_sampling_operator,
    uniform_sampling_operator,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
