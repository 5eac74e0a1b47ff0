import numpy as np
import pytest

from rdmd import (
    ArrayRowBlockSource,
    DmdConfig,
    ModeSpec,
    SketchConfig,
    add_noise,
    apply_q,
    blocked_randomized_qb,
    dmd_randomized,
    gaussian_test_matrix,
    partition_rows,
    randomized_qb,
    run_dmd,
    synth_linear_dynamics,
)
from rdmd import memguard, open_row_blocks, write_sms
from rdmd.blocked import _CHUNK_BYTES, row_chunks, row_spans
from rdmd.errors import InvalidBlockCount, NonFiniteInput
from rdmd.rng import normal_matrix

from conftest import matrix_with_spectrum


class CountingSource:
    """Wraps a row-block source and counts reads per block."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = [0] * inner.block_count

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def read_block(self, i):
        self.reads[i] += 1
        return self.inner.read_block(i)


def dense_q(result):
    """The n x l basis of a QB, formed through `apply_q` as Q @ I."""
    return apply_q(result, np.eye(result.q.shape[1]))


class TestPartitionRows:
    def test_single_block(self):
        assert partition_rows(10, 1) == [(0, 10)]

    def test_balanced_remainder(self):
        assert partition_rows(10, 4) == [(0, 3), (3, 3), (6, 2), (8, 2)]

    def test_single_row_blocks(self):
        assert partition_rows(7, 7) == [(i, 1) for i in range(7)]

    def test_cover_and_order(self):
        for n, b in [(17, 3), (100, 8), (5, 5)]:
            ranges = partition_rows(n, b)
            assert ranges[0][0] == 0
            assert sum(c for _, c in ranges) == n
            for (s0, c0), (s1, _) in zip(ranges, ranges[1:]):
                assert s1 == s0 + c0
            counts = [c for _, c in ranges]
            assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("b", [0, 11])
    def test_invalid_count(self, b):
        with pytest.raises(InvalidBlockCount):
            partition_rows(10, b)


def chunk_cuts(source) -> list[tuple[int, int]]:
    """(start, rows) of each chunk of a `row_chunks` walk over source."""
    return [(start, rows.shape[0]) for start, rows in row_chunks(source)]


def zero_stride(n: int, cols: int) -> np.ndarray:
    """An n x cols matrix of ones that takes no memory."""
    return np.broadcast_to(np.ones(1), (n, cols))


class TestRowSpans:
    """One chunk rule for every row walk: at most `_CHUNK_BYTES` and at
    most 4096 rows (`blocked.row_spans`)."""

    def test_wide_chunks_fit_the_budget(self):
        cuts = chunk_cuts(ArrayRowBlockSource(zero_stride(300, 100_000), 1))
        assert all(rows * 100_000 * 8 <= _CHUNK_BYTES for _, rows in cuts)
        assert cuts[0][1] == _CHUNK_BYTES // (100_000 * 8)  # 41 rows, 33 MB
        assert sum(rows for _, rows in cuts) == 300

    def test_chunks_at_201_columns_are_4096_rows(self):
        # the benchmark's width keeps the cuts of a fixed 4096-row chunk
        cuts = chunk_cuts(ArrayRowBlockSource(zero_stride(10_000, 201), 1))
        assert cuts == [(0, 4096), (4096, 4096), (8192, 1808)]

    def test_a_row_wider_than_the_budget_is_a_chunk_of_its_own(self):
        assert row_spans(3, _CHUNK_BYTES + 8) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        wide = ArrayRowBlockSource(zero_stride(3, _CHUNK_BYTES // 8 + 1), 1)
        assert chunk_cuts(wide) == [(0, 1), (1, 1), (2, 1)]

    def test_spans_cover_the_rows_in_order(self):
        for n, row_bytes in [(1, 8), (4096, 8), (4097, 8), (1000, 200_000)]:
            spans = row_spans(n, row_bytes)
            assert spans[0].start == 0 and spans[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
            assert all(s.stop - s.start <= spans[0].stop for s in spans)

    def test_one_block_file_walks_the_in_memory_cuts(self, tmp_path):
        # 1100 x 4001 (35 MB): chunks of 1048 rows, not one 4096-row chunk
        # of the whole matrix; the file and the matrix cut alike, so the
        # one-block run equals the in-memory one bit for bit (C5) at a
        # width where a chunk is bounded by its bytes
        x = normal_matrix(1100, 5, seed=90) @ normal_matrix(5, 4001, seed=91)
        x += 0.1 * normal_matrix(1100, 4001, seed=92)
        path = tmp_path / "wide.sms"
        write_sms(x, path)
        cfg = DmdConfig(target_rank=5, method="randomized", seed=93)
        with open_row_blocks(path, 1) as source:
            assert chunk_cuts(source) == chunk_cuts(ArrayRowBlockSource(x, 1))
            assert chunk_cuts(source) == [(0, 1048), (1048, 52)]
            from_file = dmd_randomized(source, cfg)
        in_memory = dmd_randomized(x, cfg)
        for name in ("eigenvalues", "modes", "amplitudes", "low_dim_eigvecs"):
            assert getattr(from_file, name).tobytes() == getattr(in_memory, name).tobytes()


class TestBlockedQb:
    def test_single_block_bit_identical_to_unblocked(self):
        x = normal_matrix(40, 20, seed=1)
        cfg = SketchConfig(4, 4, 2, seed=77)
        blocked = blocked_randomized_qb(ArrayRowBlockSource(x, 1), cfg)
        plain = randomized_qb(x, cfg)
        assert np.array_equal(blocked.b, plain.b)
        assert np.array_equal(dense_q(blocked), plain.q)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_global_row(self, value):
        x = normal_matrix(90, 20, seed=27)
        x[67, 3] = value  # block 2 of 3 holds rows 60..89
        for b in (1, 3):
            with pytest.raises(NonFiniteInput) as info:
                blocked_randomized_qb(ArrayRowBlockSource(x, b), SketchConfig(3, 3, 1, seed=28))
            assert str(info.value) == f"row 67, column 3 is {value}"
            assert info.value.row == 67

    def test_low_rank_capture(self):
        x = normal_matrix(200, 3, seed=2) @ normal_matrix(3, 40, seed=3)
        cfg = SketchConfig(3, 5, 1, seed=4)
        blocked = blocked_randomized_qb(ArrayRowBlockSource(x, 4), cfg)
        q = dense_q(blocked)
        rel = np.linalg.norm(x - q @ blocked.b) / np.linalg.norm(x)
        assert rel <= 1e-8

    @pytest.mark.parametrize("b", [2, 4, 8])
    def test_assembled_orthonormality(self, b):
        x = normal_matrix(64, 20, seed=5)
        cfg = SketchConfig(4, 4, 1, seed=6)
        q = dense_q(blocked_randomized_qb(ArrayRowBlockSource(x, b), cfg))
        l = cfg.sketch_size
        assert np.linalg.norm(q.T @ q - np.eye(l)) <= 1e-10 * np.sqrt(l)

    def test_streaming_apply_matches_assembled(self):
        x = normal_matrix(50, 14, seed=9)
        cfg = SketchConfig(3, 3, 1, seed=10)
        result = blocked_randomized_qb(ArrayRowBlockSource(x, 5), cfg)
        q = dense_q(result)
        resid_dense = np.linalg.norm(x - q @ result.b)
        resid_stream = np.linalg.norm(x - apply_q(result, result.b))
        assert abs(resid_dense - resid_stream) <= 1e-12

    @pytest.mark.parametrize("b", [2, 4, 8, 40])
    def test_block_count_does_not_change_the_answer(self, b):
        # b = 40 leaves 3 rows per block, fewer than the 13 sketch columns
        specs = [ModeSpec(0.99 * np.exp(0.3j)), ModeSpec(0.9)]
        truth = synth_linear_dynamics(120, 40, specs, seed=25)
        x = add_noise(truth.clean_data, 10.0, seed=26)
        cfg = DmdConfig(target_rank=3, method="randomized", seed=27)
        one = dmd_randomized(ArrayRowBlockSource(x, 1), cfg)
        many = dmd_randomized(ArrayRowBlockSource(x, b), cfg)
        assert many.diagnostics["config"]["blocks"] == b
        assert np.abs(many.eigenvalues - one.eigenvalues).max() <= (
            1e-12 * np.abs(one.eigenvalues).max()
        )

    def test_q_plus_one_reads_per_block(self):
        x = normal_matrix(48, 16, seed=13)
        for q_iters in (0, 2):
            src = CountingSource(ArrayRowBlockSource(x, 4))
            blocked_randomized_qb(src, SketchConfig(3, 3, q_iters, seed=14))
            # X Omega, then X Z per power iteration: each pass over the
            # blocks also gives that sketch's Q^T X
            assert src.reads == [q_iters + 1] * 4

    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("q_iters", [0, 1, 2, 3])
    def test_matches_dense_householder_subspace_iteration(self, q_iters, b):
        # the reference is Halko, Martinsson & Tropp (2011), Alg. 4.4, with
        # numpy's Householder QR and dense products
        x = matrix_with_spectrum(500, 60, 0.8 ** np.arange(60), seed=40)
        cfg = SketchConfig(5, 5, q_iters, seed=41)
        ref = np.linalg.qr(x @ gaussian_test_matrix(60, cfg.sketch_size, cfg.seed))[0]
        for _ in range(q_iters):
            ref = np.linalg.qr(x @ np.linalg.qr(x.T @ ref)[0])[0]
        src = CountingSource(ArrayRowBlockSource(x, b))
        q = dense_q(blocked_randomized_qb(src, cfg))
        assert np.max(np.abs(q @ q.T - ref @ ref.T)) <= 1e-10
        assert src.reads == [q_iters + 1] * b

    def test_accuracy_parity_with_unblocked(self):
        x = matrix_with_spectrum(256, 128, 2.0 ** -np.arange(1, 129), seed=15)
        norm = np.linalg.norm
        for b in (2, 4, 8):
            blocked_errs, plain_errs = [], []
            for seed in range(20):
                cfg = SketchConfig(5, 5, 1, seed=3000 + seed)
                res = blocked_randomized_qb(ArrayRowBlockSource(x, b), cfg)
                blocked_errs.append(norm(x - apply_q(res, res.b)))
                qb = randomized_qb(x, cfg)
                plain_errs.append(norm(x - qb.q @ qb.b))
            assert np.mean(blocked_errs) <= 1.5 * np.mean(plain_errs)

    def test_exact_rank_capture(self):
        x = normal_matrix(120, 4, seed=16) @ normal_matrix(4, 30, seed=17)
        cfg = SketchConfig(4, 6, 1, seed=18)
        res = blocked_randomized_qb(ArrayRowBlockSource(x, 6), cfg)
        rel = np.linalg.norm(x - apply_q(res, res.b)) / np.linalg.norm(x)
        assert rel <= 1e-8

    # each variant's passes over the three blocks, then the release of the
    # held block after the last pass and before the lift; the randomized
    # range finder releases it itself, so the pipeline's call reads nothing
    @pytest.mark.parametrize("method, passes, releases", [
        ("randomized", 2, 2),
        ("deterministic_projected", 2, 1),
        ("deterministic_exact", 3, 1),
        ("compressed", 2, 1),
    ], ids=["rdmd", "dmd-projected", "dmd-exact", "cdmd"])
    def test_last_block_is_released_after_the_sketch_before_the_lift(
        self, monkeypatch, method, passes, releases
    ):
        import rdmd.dmd

        calls = []

        class Recording(ArrayRowBlockSource):
            def read_block(self, i):
                calls.append(f"read {i}")
                return super().read_block(i)

            def release_block(self):
                calls.append("release")

        def recording_apply_q(qb, v, **kwargs):
            calls.append("lift")
            return apply_q(qb, v, **kwargs)

        monkeypatch.setattr(rdmd.dmd, "apply_q", recording_apply_q)
        cfg = DmdConfig(target_rank=3, method=method, oversampling=2, power_iters=1,
                        compress_dim=10)
        run_dmd(Recording(normal_matrix(60, 20, seed=23), 3), cfg)
        assert calls == ["read 0", "read 1", "read 2"] * passes + ["release"] * releases + ["lift"]

    def test_determinism(self):
        x = normal_matrix(40, 18, seed=19)
        cfg = SketchConfig(4, 2, 1, seed=20)
        a = blocked_randomized_qb(ArrayRowBlockSource(x, 4), cfg)
        b = blocked_randomized_qb(ArrayRowBlockSource(x, 4), cfg)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.b, b.b)
        assert a.data_sq_norm == b.data_sq_norm


def test_memory_contract_tracked_allocations(tmp_path):
    n, m, b = 512, 1024, 8
    x = normal_matrix(n, m, seed=21)
    path = tmp_path / "big.sms"
    write_sms(x, path)
    cfg = SketchConfig(5, 3, 1, seed=22)  # l = 8
    l = cfg.sketch_size
    block_bytes = (n // b) * m * 8
    basis_bytes = n * l * 8
    src = open_row_blocks(path, b)
    with memguard.session() as guard:
        res = blocked_randomized_qb(src, cfg)
    src.close()
    assert guard.largest_bytes <= max(block_bytes, basis_bytes)
    assert res.b.shape == (l, m)
