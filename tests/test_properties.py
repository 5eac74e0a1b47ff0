"""Property-based checks (hypothesis), bounded to a few dozen examples."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmd import SketchConfig, randomized_qb
from rdmd.rng import normal_matrix, normals


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
