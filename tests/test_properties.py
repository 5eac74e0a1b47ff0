"""Property-based checks (hypothesis), bounded to a few dozen examples."""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rdmd import (
    ArrayRowBlockSource,
    DmdConfig,
    ModeSpec,
    SketchConfig,
    dmd_randomized,
    economic_svd,
    eigen_match_error,
    partition_rows,
    randomized_qb,
    read_sms,
    synth_linear_dynamics,
    truncated_svd,
    write_sms,
)
from rdmd.datasets import _VARIANCE_LEAF, _variance
from rdmd.rng import normal_matrix, normals

from conftest import matrix_with_spectrum


@settings(max_examples=20, deadline=None, database=None)
@given(
    rows=st.integers(min_value=20, max_value=20_000),
    cols=st.integers(min_value=20, max_value=40),
    rank=st.integers(min_value=1, max_value=5),
    oversampling=st.integers(min_value=0, max_value=15),
    power_iters=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# both sides of rows = 2 l, where the n x l bases switch from one Householder
# call to CholeskyQR2
@example(rows=29, cols=30, rank=5, oversampling=10, power_iters=2, seed=1)
@example(rows=30, cols=30, rank=5, oversampling=10, power_iters=2, seed=1)
def test_randomized_qb_basis_is_orthonormal(rows, cols, rank, oversampling, power_iters, seed):
    # low rank plus small noise, so the CholeskyQR2 steps and their
    # Householder fallback both occur across examples
    x = normal_matrix(rows, rank, seed) @ normal_matrix(rank, cols, seed + 1)
    x += 1e-8 * normal_matrix(rows, cols, seed + 2)
    qb = randomized_qb(x, SketchConfig(rank, oversampling, power_iters, seed=seed))
    l = rank + oversampling
    assert qb.q.shape == (rows, l)
    assert np.linalg.norm(qb.q.T @ qb.q - np.eye(l)) <= 1e-10 * np.sqrt(l)


@settings(max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    pairs=st.integers(min_value=0, max_value=5000),
    count=st.integers(min_value=0, max_value=300),
)
def test_normals_sub_range_matches_the_whole_stream(seed, pairs, count):
    # an even start keeps the Box-Muller pairs of the stream from draw 0
    start = 2 * pairs
    assert np.array_equal(normals(seed, start, count), normals(seed, 0, start + count)[start:])


# noise-free rank 5 after conjugate completion
_RANK5 = synth_linear_dynamics(
    400, 60,
    [ModeSpec(1.0), ModeSpec(0.995 + 0.2j, 0.5), ModeSpec(0.97 + 0.35j, 0.25)],
    seed=5,
)


@settings(max_examples=12, deadline=None, database=None)
@given(
    blocks=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(blocks=1, seed=0)
def test_blocked_randomized_dmd_recovers_the_spectrum_for_any_block_count(blocks, seed):
    x = _RANK5.clean_data
    cfg = DmdConfig(target_rank=5, method="randomized", seed=seed)
    blocked = dmd_randomized(ArrayRowBlockSource(x, blocks), cfg)
    assert eigen_match_error(_RANK5.eigenvalues, blocked.eigenvalues) <= 1e-6
    if blocks == 1:
        plain = dmd_randomized(x, cfg)
        for name in ("eigenvalues", "modes", "amplitudes"):
            assert getattr(blocked, name).tobytes() == getattr(plain, name).tobytes()


@settings(max_examples=50, deadline=None, database=None)
@given(n=st.integers(min_value=1, max_value=100_000), data=st.data())
def test_partition_rows_covers_in_order_and_balanced(n, data):
    b = data.draw(st.integers(min_value=1, max_value=min(n, 5000)), label="b")
    ranges = partition_rows(n, b)
    assert len(ranges) == b
    end = 0
    for start, count in ranges:
        assert start == end and count >= 1
        end = start + count
    assert end == n
    counts = [count for _, count in ranges]
    assert max(counts) - min(counts) <= 1


@settings(max_examples=30, deadline=None, database=None)
@given(
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    fortran=st.booleans(),
)
def test_sms_round_trip_is_bit_exact(x, fortran):
    if fortran:
        x = np.asfortranarray(x)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.sms")
        write_sms(x, path)
        y = read_sms(path)
    assert y.dtype == np.float64 and y.shape == x.shape
    assert y.tobytes() == x.tobytes(order="C")


@settings(max_examples=40, deadline=None, database=None)
@given(
    rows=st.integers(min_value=1, max_value=1200),
    cols=st.integers(min_value=1, max_value=300),
    fortran=st.booleans(),
    offset=st.floats(min_value=-1e3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# one leaf exactly, one value over it, and a tree several levels deep
@example(rows=256, cols=_VARIANCE_LEAF // 256, fortran=False, offset=0.0, seed=0)
@example(rows=_VARIANCE_LEAF + 1, cols=1, fortran=True, offset=3.0, seed=1)
@example(rows=1200, cols=300, fortran=False, offset=-7.5, seed=2)
def test_streamed_variance_is_np_var_bit_for_bit(rows, cols, fortran, offset, seed):
    x = normal_matrix(rows, cols, seed) * 2.5 + offset
    if fortran:
        x = np.asfortranarray(x)
    assert _variance(x).tobytes() == np.var(x).tobytes()


@settings(max_examples=25, deadline=None, database=None)
@given(
    rows=st.integers(min_value=60, max_value=3000),
    cols=st.integers(min_value=1, max_value=30),
    log_kappa=st.floats(min_value=0.0, max_value=7.0),
    rank=st.none() | st.integers(min_value=1, max_value=30),  # None: full rank
    k=st.integers(min_value=1, max_value=30),
    blocks=st.sampled_from([1, 3]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# kappa = 1e7 at k = cols: the Gram resolves fewer than k directions
@example(rows=3000, cols=30, log_kappa=7.0, rank=None, k=30, blocks=3, seed=19)
# k is the Gram's last resolved direction: Rayleigh-Ritz needs the unresolved
# ones as well to get it to rounding level
@example(rows=550, cols=12, log_kappa=6.865165171620757, rank=None, k=11, blocks=1,
         seed=1475490189)
# rank below k at more than one block
@example(rows=1500, cols=20, log_kappa=0.0, rank=3, k=5, blocks=3, seed=1)
def test_tall_truncated_svd_matches_the_economic_svd(
    rows, cols, log_kappa, rank, k, blocks, seed
):
    rank = cols if rank is None else min(rank, cols)
    k = min(k, cols)
    x = matrix_with_spectrum(rows, cols, np.logspace(0, -log_kappa, rank), seed)
    sigma = economic_svd(x).singular_values
    f = truncated_svd(ArrayRowBlockSource(x, blocks), k)
    # min(k, r) triplets: only directions at the rank tolerance are dropped
    j = f.singular_values.size
    assert 1 <= j <= k and (j == k or sigma[j] <= 1e-12 * sigma[0])
    assert np.max(np.abs(f.singular_values - sigma[:j])) <= 1e-12 * sigma[0]
    assert np.linalg.norm(f.u.T @ f.u - np.eye(j), 2) <= 1e-12
    resid = np.linalg.norm(x @ f.v - f.u * f.singular_values)
    assert resid <= 1e-12 * np.linalg.norm(x)
