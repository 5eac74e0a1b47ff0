import sys

import numpy as np
import pytest

from rdmd import (
    FilterSpec,
    economic_svd,
    eig_dense,
    filter_factors,
    pseudoinverse,
    thin_qr_q,
    tikhonov_inverse,
    truncated_svd,
)
from rdmd.errors import (
    NegativeLambda,
    NonFiniteInput,
    RankOutOfRange,
    ShapeMismatch,
)
from rdmd.linalg import normalize_phase_in_place, sort_eigenpairs
from rdmd.rng import normal_matrix

from conftest import chunk_rows, matrix_with_spectrum


def reconstruction(f):
    return (f.u * f.singular_values) @ f.v.T


class TestEconomicSvd:
    def test_identity(self):
        f = economic_svd(np.eye(3))
        assert np.allclose(f.singular_values, 1.0)
        assert np.allclose(reconstruction(f), np.eye(3), atol=1e-14)

    def test_diagonal_embedded(self):
        x = np.zeros((5, 3))
        x[:3, :3] = np.diag([3.0, 2.0, 1.0])
        f = economic_svd(x)
        assert np.allclose(f.singular_values, [3.0, 2.0, 1.0], atol=1e-14)

    def test_random_reconstruction(self):
        x = normal_matrix(20, 8, seed=3)
        f = economic_svd(x)
        resid = np.linalg.norm(x - reconstruction(f))
        assert resid <= 1e-12 * np.linalg.norm(x)

    def test_orthonormal_factors(self):
        x = normal_matrix(30, 12, seed=4)
        f = economic_svd(x)
        r = f.singular_values.size
        assert np.linalg.norm(f.u.T @ f.u - np.eye(r)) <= 1e-10 * np.sqrt(r)
        assert np.linalg.norm(f.v.T @ f.v - np.eye(r)) <= 1e-10 * np.sqrt(r)

    @pytest.mark.parametrize("n,m", [(200, 200), (37, 120)])
    def test_reconstruction_tolerance_property(self, n, m):
        x = normal_matrix(n, m, seed=n + m)
        f = economic_svd(x)
        assert np.linalg.norm(x - reconstruction(f)) <= 1e-10 * np.linalg.norm(x)

    def test_lapack_failure_surfaces(self):
        from rdmd.errors import ConvergenceFailure

        bad = np.array([[np.nan, 1.0], [0.0, 2.0]])
        with pytest.raises(ConvergenceFailure):
            economic_svd(bad)
        with pytest.raises(ConvergenceFailure):
            eig_dense(bad)


class TestTruncatedSvd:
    def test_diagonal(self):
        f = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(f.singular_values, [3.0, 2.0], atol=1e-14)

    def test_known_rank_two(self):
        u = normal_matrix(12, 2, seed=5)
        v = normal_matrix(7, 2, seed=6)
        x = u @ v.T
        f = truncated_svd(x, 2)
        assert np.linalg.norm(x - reconstruction(f)) <= 1e-10 * np.linalg.norm(x)

    def test_full_rank_equals_economic(self):
        x = normal_matrix(9, 6, seed=7)
        full = economic_svd(x)
        trunc = truncated_svd(x, 6)
        assert np.array_equal(full.singular_values, trunc.singular_values)
        assert np.array_equal(full.u, trunc.u)

    @pytest.mark.parametrize("k", [0, 7])
    def test_rank_out_of_range(self, k):
        with pytest.raises(RankOutOfRange):
            truncated_svd(normal_matrix(9, 6, seed=8), k)

    def test_truncation_error_bracket(self):
        x = matrix_with_spectrum(40, 30, np.linspace(5.0, 0.1, 30), seed=9)
        sigma = economic_svd(x).singular_values
        for k in (1, 5, 15):
            xk = reconstruction(truncated_svd(x, k))
            err = np.linalg.norm(x - xk)
            assert err >= sigma[k] - 1e-10
            assert err <= np.sqrt(np.sum(sigma[k:] ** 2)) + 1e-10

    def test_tall_well_conditioned_matches_economic(self, monkeypatch):
        import rdmd.linalg

        x = matrix_with_spectrum(1500, 50, np.linspace(1.0, 1e-3, 50), seed=10)
        ref = economic_svd(x)
        # the fallback must not run, so the comparison checks Rayleigh-Ritz
        monkeypatch.setattr(rdmd.linalg, "economic_svd", None)
        # k = 50 also covers the trailing directions, where the first
        # Cholesky pass alone leaves a 1e-11 orthogonality error
        for k in (8, 50):
            f = truncated_svd(x, k)
            assert np.max(np.abs(f.singular_values - ref.singular_values[:k])) <= 1e-12
            signs = np.sign(np.sum(f.u * ref.u[:, :k], axis=0))
            assert np.max(np.abs(f.u * signs - ref.u[:, :k])) <= 1e-12
            assert np.max(np.abs(f.v * signs - ref.v[:, :k])) <= 1e-12
            assert np.linalg.norm(f.u.T @ f.u - np.eye(k), 2) <= 1e-12

    @pytest.mark.parametrize(
        "n,c,kappa,k", [(3000, 50, 1e7, 10), (3000, 50, 1e7, 50), (4000, 100, 3e7, 100)]
    )
    def test_tall_ill_conditioned_stays_orthonormal(self, n, c, kappa, k, monkeypatch):
        import rdmd.linalg
        from rdmd.blocked import ArrayRowBlockSource

        x = matrix_with_spectrum(n, c, np.logspace(0, -np.log10(kappa), c), seed=19)
        ref = economic_svd(x)
        monkeypatch.setattr(rdmd.linalg, "economic_svd", None)
        # at k = cols the Gram resolves fewer than k directions, and Rayleigh-
        # Ritz still takes the input, which at 2 blocks has no exact fallback
        for blocks in (1, 2):
            f = truncated_svd(ArrayRowBlockSource(x, blocks), k)
            # U_k = X (W R2^-1 U_B[:, :k]) alone is orthogonal only to ~1e-10
            # here; the k x k CholeskyQR step brings it to rounding level
            assert np.linalg.norm(f.u.T @ f.u - np.eye(k), 2) <= 1e-13
            resid = np.linalg.norm(x @ f.v - f.u * f.singular_values)
            assert resid <= 1e-13 * np.linalg.norm(x)
            signs = np.sign(np.sum(f.u[:, :5] * ref.u[:, :5], axis=0))
            assert np.max(np.abs(f.u[:, :5] * signs - ref.u[:, :5])) <= 1e-14

    @pytest.mark.parametrize("case", ["rank_deficient", "kappa_3e8", "kappa_1e12"])
    def test_tall_gram_ritz_accuracy(self, case, monkeypatch):
        import rdmd.linalg
        from rdmd.linalg import _cholesky_qr2

        if case == "rank_deficient":
            x = normal_matrix(1500, 6, seed=11) @ normal_matrix(6, 50, seed=12)
        elif case == "kappa_3e8":
            # both Cholesky factorizations succeed, but ||Q1^T Q1 - I||_2 ~ 1
            x = matrix_with_spectrum(1500, 50, np.logspace(0, np.log10(1 / 3e8), 50), seed=13)
        else:
            x = matrix_with_spectrum(1500, 50, np.logspace(0, -12, 50), seed=13)
        assert _cholesky_qr2(x) is None
        ref = economic_svd(x)
        # the fallback must not run: the Gram's top directions hold k = 5
        monkeypatch.setattr(rdmd.linalg, "economic_svd", None)
        f = truncated_svd(x, 5)
        scale = ref.singular_values[0]
        assert np.max(np.abs(f.singular_values - ref.singular_values[:5])) <= 1e-12 * scale
        signs = np.sign(np.sum(f.u * ref.u[:, :5], axis=0))
        assert np.max(np.abs(f.u * signs - ref.u[:, :5])) <= 1e-12
        assert np.max(np.abs(f.v * signs - ref.v[:, :5])) <= 1e-12
        assert np.linalg.norm(f.u.T @ f.u - np.eye(5), 2) <= 1e-12

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_gapped_tall_input_is_read_twice(self, blocks, monkeypatch):
        # sigma_5 / sigma_6 = 1.15: the Gram's resolution over its fifth
        # eigenvalue gap is 8e-12, so the U pass is the Rayleigh-Ritz step
        # and the Gram pass and the U pass are the only reads of X
        import rdmd.linalg
        from rdmd import ArrayRowBlockSource

        x = matrix_with_spectrum(3000, 50, np.logspace(0, -3, 50), seed=10)
        ref = economic_svd(x)
        monkeypatch.setattr(rdmd.linalg, "economic_svd", None)
        source = ArrayRowBlockSource(x, blocks)
        f = truncated_svd(source, 5)
        assert source.passes == 2
        scale = ref.singular_values[0]
        assert np.max(np.abs(f.singular_values - ref.singular_values[:5])) <= 1e-12 * scale
        signs = np.sign(np.sum(f.u * ref.u[:, :5], axis=0))
        assert np.max(np.abs(f.u * signs - ref.u[:, :5])) <= 1e-12
        assert np.max(np.abs(f.v * signs - ref.v[:, :5])) <= 1e-12
        assert np.linalg.norm(f.u.T @ f.u - np.eye(5), 2) <= 1e-12
        # U_k^T X is rotated with U_k
        np.testing.assert_allclose(f.projected, f.u.T @ x, atol=1e-12 * scale)

    def test_small_gap_keeps_the_ritz_pass(self, monkeypatch):
        # sigma_6 within 1e-9 of sigma_5: the Gram's resolution over its
        # fifth gap is 1e-3, far above `_GAP_BOUND`, so the Ritz pass over
        # l = 15 directions runs between the Gram pass and the U pass. The
        # fifth pair of vectors is not determined by so small a gap; the
        # first four, the values and the residual are
        import rdmd.linalg
        from rdmd import ArrayRowBlockSource

        sigma = np.logspace(0, -3, 50)
        sigma[5] = sigma[4] * (1 - 1e-9)
        x = matrix_with_spectrum(3000, 50, sigma, seed=10)
        ref = economic_svd(x)
        monkeypatch.setattr(rdmd.linalg, "economic_svd", None)
        source = ArrayRowBlockSource(x, 1)
        f = truncated_svd(source, 5)
        assert source.passes == 3
        scale = ref.singular_values[0]
        assert np.max(np.abs(f.singular_values - ref.singular_values[:5])) <= 1e-12 * scale
        signs = np.sign(np.sum(f.u[:, :4] * ref.u[:, :4], axis=0))
        assert np.max(np.abs(f.u[:, :4] * signs - ref.u[:, :4])) <= 1e-12
        assert np.max(np.abs(f.v[:, :4] * signs - ref.v[:, :4])) <= 1e-12
        assert np.linalg.norm(f.u.T @ f.u - np.eye(5), 2) <= 1e-12
        resid = np.linalg.norm(x @ f.v - f.u * f.singular_values)
        assert resid <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("tier, passes", [("two_pass", 2), ("ritz", 3), ("r_fold", 3)])
    def test_every_tall_tier_ends_in_one_rayleigh_ritz_step(self, tier, passes, blocks):
        # each tier only picks the test basis W; the U pass and the SVD of
        # U^T A that follow are shared, so U^T A is diag(s) V^T on each
        from rdmd import ArrayRowBlockSource

        sigma = np.logspace(0, -3, 50)
        if tier == "ritz":  # a fifth gap far below the Gram's resolution
            sigma[5] = sigma[4] * (1 - 1e-9)
        if tier == "r_fold":  # rank 3 < k: the Gram declines
            x = normal_matrix(3000, 3, seed=11) @ normal_matrix(3, 50, seed=12)
        else:
            x = matrix_with_spectrum(3000, 50, sigma, seed=10)
        x = np.hstack([x, normal_matrix(3000, 1, seed=13)])  # a column past cols
        source = ArrayRowBlockSource(x, blocks)
        f = truncated_svd(source, 5, 50)
        assert source.passes == passes
        assert f.singular_values.size == (3 if tier == "r_fold" else 5)
        scale = f.singular_values[0]
        np.testing.assert_allclose(
            f.projected[:, :50], f.singular_values[:, None] * f.v.T, rtol=0, atol=1e-12 * scale
        )
        np.testing.assert_allclose(f.projected, f.u.T @ x, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("rows, blocks", [(8, 2), (9, 3)])
    def test_short_input_of_several_blocks(self, rows, blocks):
        # more than one block takes the Gram path whatever the shape, and
        # the CholeskyQR2 of U_k needs no rows >= 2 k
        from rdmd import ArrayRowBlockSource

        x = normal_matrix(rows, 6, seed=15)
        f = truncated_svd(ArrayRowBlockSource(x, blocks), 5)
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        assert np.max(np.abs(f.singular_values - s[:5])) <= 1e-13 * s[0]
        signs = np.sign(np.sum(f.u * u[:, :5], axis=0))
        assert np.max(np.abs(f.u * signs - u[:, :5])) <= 1e-12
        assert np.max(np.abs(f.v * signs - vh[:5].T)) <= 1e-12
        assert np.linalg.norm(f.u.T @ f.u - np.eye(5), 2) <= 1e-14
        np.testing.assert_allclose(f.projected, f.u.T @ x, atol=1e-13)

    def test_tall_rank_below_k_is_the_economic_slice(self, monkeypatch):
        # rank 3 < k: the Gram resolves fewer than k directions and its
        # Cholesky factorization fails, so Rayleigh-Ritz rejects the input
        # and the R-fold returns the 3 resolved triplets of the economic
        # SVD, at any block count
        import rdmd.linalg
        from rdmd import ArrayRowBlockSource

        x = normal_matrix(1500, 3, seed=11) @ normal_matrix(3, 50, seed=12)
        ref = economic_svd(x)
        scale = ref.singular_values[0]
        monkeypatch.setattr(rdmd.linalg, "economic_svd", None)
        for blocks in (1, 3):
            f = truncated_svd(ArrayRowBlockSource(x, blocks), 5)
            assert f.singular_values.size == 3
            assert np.max(np.abs(f.singular_values - ref.singular_values[:3])) <= 1e-12 * scale
            signs = np.sign(np.sum(f.u * ref.u[:, :3], axis=0))
            assert np.max(np.abs(f.u * signs - ref.u[:, :3])) <= 1e-12
            assert np.max(np.abs(f.v * signs - ref.v[:, :3])) <= 1e-12
            assert np.linalg.norm(f.u.T @ f.u - np.eye(3), 2) <= 1e-12
            np.testing.assert_allclose(f.projected, f.u.T @ x, atol=1e-12 * scale)

    def test_tall_noise_free_low_rank_stays_on_the_gram_path(self, monkeypatch):
        import rdmd.linalg
        from rdmd import ModeSpec, synth_linear_dynamics
        from rdmd.linalg import _cholesky_qr2

        # the benchmark's five modes, noise-free: X_L has rank 5, so
        # CholeskyQR2 rejects it, while its Gram resolves the five directions
        specs = [ModeSpec(1.0), ModeSpec(0.995 + 0.2j, 0.5), ModeSpec(0.97 + 0.35j, 0.25)]
        left = synth_linear_dynamics(20_000, 60, specs, seed=43).clean_data[:, :-1]
        assert _cholesky_qr2(left) is None
        ref = economic_svd(left)
        monkeypatch.setattr(rdmd.linalg, "economic_svd", None)
        f = truncated_svd(left, 5)
        scale = ref.singular_values[0]
        assert np.max(np.abs(f.singular_values - ref.singular_values[:5])) <= 1e-10 * scale
        signs = np.sign(np.sum(f.u * ref.u[:, :5], axis=0))
        assert np.max(np.abs(f.u * signs - ref.u[:, :5])) <= 1e-10
        assert np.max(np.abs(f.v * signs - ref.v[:, :5])) <= 1e-10


    @pytest.mark.parametrize("rows, blocks", [(20, 1), (3000, 1), (3000, 3)])
    def test_sq_norm_covers_every_column(self, rows, blocks):
        # the SVD's first pass is the source's first walk, which sums the
        # norm of all columns, not only of the `cols` it factors: the short
        # one-block input's walk before LAPACK runs, the others' Gram pass
        from rdmd import ArrayRowBlockSource

        x = normal_matrix(rows, 31, seed=16)
        source = ArrayRowBlockSource(x, blocks)
        truncated_svd(source, 5, 30)
        assert source.sq_norm == pytest.approx(np.sum(x * x), rel=1e-13)

    def test_short_input_names_a_bad_entry_past_its_columns(self):
        # the trailing column is not factored, but U^T X reads it
        x = normal_matrix(10, 12, seed=17)
        x[4, 11] = np.nan
        with pytest.raises(NonFiniteInput, match="^row 4, column 11 is nan$") as info:
            truncated_svd(x, 3, 11)
        assert info.value.row == 4

    def test_memory_cap_charges_the_gram(self):
        # the 400 x 400 Gram (1.28 MB) outgrows every other buffer of a
        # 2000 x 400 input held in memory: U_k and the chunks of l columns
        from rdmd import memguard
        from rdmd.errors import MemoryCapExceeded

        x = normal_matrix(2000, 400, seed=18)
        with memguard.session() as guard:
            truncated_svd(x, 5)
        assert guard.largest_bytes == 400 * 400 * 8
        with pytest.raises(MemoryCapExceeded):
            with memguard.session(cap_bytes=1_000_000):
                truncated_svd(x, 5)


class TestThinQr:
    def test_orthonormal_input(self):
        q0 = thin_qr_q(normal_matrix(10, 4, seed=10))
        q = thin_qr_q(q0)
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-10 * 2
        # same span: projector reproduces the input
        assert np.allclose(q @ (q.T @ q0), q0, atol=1e-12)

    def test_single_column_normalization(self):
        q = thin_qr_q(np.array([[1.0], [1.0]]))
        assert np.allclose(np.abs(q), 1.0 / np.sqrt(2.0), atol=1e-15)

    def test_projector_reproduces_columns(self):
        x = normal_matrix(50, 5, seed=11)
        q = thin_qr_q(x)
        assert np.linalg.norm(q @ (q.T @ x) - x) <= 1e-10

    def test_wide_input_rejected(self):
        with pytest.raises(ShapeMismatch):
            thin_qr_q(normal_matrix(3, 5, seed=12))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_below_2_cols(self, value):
        # rows < 2 cols skips CholeskyQR2, whose Gram check catches it on
        # tall inputs; LAPACK alone returns NaN columns
        x = normal_matrix(5, 4, seed=18)
        x[2, 1] = value
        with pytest.raises(NonFiniteInput, match=r"row 2, column 1 is") as info:
            thin_qr_q(x)
        assert info.value.row == 2

    def test_memory_guard_sees_the_chunk_and_the_output(self):
        from rdmd import memguard
        from rdmd.linalg import _cholesky_qr2

        x = normal_matrix(10_000, 20, seed=54)
        chunk_bytes = chunk_rows(20 * 8) * 20 * 8
        # the n x c factor A R1^-1 is never allocated, so never noted; the
        # truncated SVD's largest buffer is U_k, n x k: the Gram resolves the
        # k directions, so no Ritz pass forms chunks of l = k + 10 = 13
        # columns, and the U pass reads the chunks of A in place
        for run, largest in [
            (lambda: _cholesky_qr2(x), chunk_bytes),
            (lambda: truncated_svd(x, 3), 10_000 * 3 * 8),
            (lambda: thin_qr_q(x), x.nbytes),
        ]:
            with memguard.session() as guard:
                run()
            assert guard.largest_bytes == largest

    @pytest.mark.parametrize(
        "case",
        ["well_conditioned", "kappa_1e6", "rank_deficient", "kappa_1e12", "rows_below_2_cols"],
    )
    def test_cholesky_qr2_or_one_householder_call(self, case, monkeypatch):
        import rdmd.linalg

        n, l = 3000, 15
        if case == "well_conditioned":
            x = normal_matrix(n, l, seed=14)
        elif case == "kappa_1e6":
            # one Cholesky pass alone leaves ~1e-4 here
            x = matrix_with_spectrum(n, l, np.logspace(0, -6, l), seed=43)
        elif case == "rank_deficient":
            x = normal_matrix(n, 5, seed=44) @ normal_matrix(5, l, seed=45)
        elif case == "kappa_1e12":
            x = matrix_with_spectrum(n, l, np.logspace(0, -12, l), seed=17)
        else:
            x = normal_matrix(2 * l - 1, l, seed=13)
        returned = []
        inner = rdmd.linalg._cholesky_qr2

        def spy(a):
            returned.append(inner(a))
            return returned[-1]

        monkeypatch.setattr(rdmd.linalg, "_cholesky_qr2", spy)
        q = thin_qr_q(x)
        ref = np.linalg.qr(x, mode="reduced")[0]
        assert np.linalg.norm(q.T @ q - np.eye(l)) <= 1e-10 * np.sqrt(l)
        if case in ("well_conditioned", "kappa_1e6"):
            assert len(returned) == 1 and returned[0] is not None
            # the same factor as the Householder QR, up to column signs
            signs = np.sign(np.sum(q * ref, axis=0))
            assert np.max(np.abs(q * signs - ref)) <= 1e-9
        else:
            assert returned == ([] if case == "rows_below_2_cols" else [None])
            assert np.array_equal(q, ref)


class TestOrthonormalBasis:
    def test_accepted_basis_of_lower_rank_keeps_the_resolved_columns(self, monkeypatch):
        # A has rank 4 and W's 6 trailing columns lie in A's null space, so
        # those columns of A W are at rounding level; they are nearly
        # orthogonal to the others, so CholeskyQR2 accepts A W and would
        # normalize them into Q, but the rank check of its R sends the basis
        # to the rank rule, whose 4 resolved directions make Q
        import rdmd.linalg
        from rdmd.linalg import _orthonormal_basis

        n, m, r, c = 3000, 40, 4, 10
        a = normal_matrix(n, r, seed=1) @ normal_matrix(r, m, seed=2)
        null = np.linalg.svd(a)[2][r:c].T
        w = np.hstack([normal_matrix(m, r, seed=3), null])
        returned = []
        inner = rdmd.linalg._cholesky_qr2

        def spy(a, gram=None):
            returned.append(inner(a, gram))
            return returned[-1]

        monkeypatch.setattr(rdmd.linalg, "_cholesky_qr2", spy)
        q, rr, projected = _orthonormal_basis(a, slice(None), w)
        assert returned[0] is not None  # A W itself is accepted
        assert q.shape == (n, r)
        assert np.linalg.norm(q.T @ q - np.eye(r)) <= 1e-12
        scale = np.linalg.norm(a @ w)
        assert np.linalg.norm(a @ w - q @ rr) <= 1e-12 * scale
        np.testing.assert_allclose(projected, q.T @ a, atol=1e-12 * np.linalg.norm(a))

    @pytest.mark.parametrize("case", ["noise_free_sketch", "rejected"])
    def test_only_a_rejected_basis_is_folded(self, case, monkeypatch):
        # an accepted basis of lower rank takes the rank rule on the R that
        # CholeskyQR2 gave; only a rejected one is read again by `_fold_r`
        import rdmd.linalg
        from rdmd import SketchConfig, randomized_qb
        from rdmd.linalg import _orthonormal_basis

        folds = []
        inner = rdmd.linalg._fold_r

        def spy(blocks):
            folds.append(inner(blocks))
            return folds[-1]

        monkeypatch.setattr(rdmd.linalg, "_fold_r", spy)
        if case == "noise_free_sketch":
            x = normal_matrix(3000, 5, seed=30) @ normal_matrix(5, 60, seed=31)
            qb = randomized_qb(x, SketchConfig(5, 10, 2, seed=32))
            assert qb.q.shape == (3000, 5) and folds == []
        else:
            # kappa 1e12: CholeskyQR2 rejects A, whose 15 directions resolve
            x = matrix_with_spectrum(3000, 15, np.logspace(0, -12, 15), seed=17)
            q, r, _ = _orthonormal_basis(x, slice(None), np.eye(15))
            assert q.shape == (3000, 15) and len(folds) == 1
            assert np.linalg.norm(q.T @ q - np.eye(15)) <= 1e-10
            assert np.linalg.norm(x - q @ r) <= 1e-12 * np.linalg.norm(x)


class TestLift:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_equals_the_product(self, kind):
        from rdmd.linalg import _lift

        m = normal_matrix(7, 4, seed=47)
        if kind == "complex":
            m = m + 1j * normal_matrix(7, 4, seed=48)
        # one chunk, and (the lift runs chunk by chunk) several whole chunks
        # and a partial one of a Fortran-ordered basis, as the finder's is
        for q in (
            normal_matrix(300, 7, seed=46),
            np.asfortranarray(normal_matrix(3 * chunk_rows(4 * 16) + 5, 7, seed=52)),
        ):
            got = _lift(q, m)
            ref = q @ m
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @staticmethod
    def mapped_basis(n, c, seed):
        from rdmd.blocked import empty_basis

        q = empty_basis(n, c)
        q[...] = normal_matrix(n, c, seed=seed)
        return q

    def test_leaves_q_as_it_is(self):
        # q is an `empty_basis` over several chunks and a partial one: the
        # public lift reads it and never hands its pages back
        from rdmd.linalg import _lift

        q = self.mapped_basis(3 * chunk_rows(4 * 16) + 5, 7, seed=53)
        before = q.copy()
        m = normal_matrix(7, 4, seed=54) + 1j * normal_matrix(7, 4, seed=55)
        _lift(q, m)
        assert q.tobytes() == before.tobytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="MADV_DONTNEED zero-fills on Linux")
    def test_release_q_hands_each_lifted_chunk_back(self):
        from rdmd.linalg import _lift

        step = chunk_rows(4 * 16)  # the lift's chunks are the result's rows
        q = self.mapped_basis(3 * step + 5, 7, seed=53)
        m = normal_matrix(7, 4, seed=54) + 1j * normal_matrix(7, 4, seed=55)
        plain = _lift(q, m)
        assert _lift(q, m, release_q=True).tobytes() == plain.tobytes()
        # but for a column's first and last page, which it may share with
        # its neighbours
        assert not q[step : 2 * step].any()

    def test_release_q_leaves_a_numpy_array_as_it_is(self):
        from rdmd.linalg import _lift

        q = np.asfortranarray(normal_matrix(2 * chunk_rows(3 * 8) + 5, 7, seed=56))
        before = q.copy()
        _lift(q, normal_matrix(7, 3, seed=57), release_q=True)
        assert q.tobytes() == before.tobytes()


class TestTallProduct:
    # X_L, the left half of a row-major snapshot matrix, is a strided view
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_equals_the_product(self, layout):
        from rdmd.linalg import _tall_product

        x = normal_matrix(5000, 41, seed=56)
        a = {"C": x, "F": np.asfortranarray(x), "strided": x[:, :-1]}[layout]
        w = normal_matrix(a.shape[1], 5, seed=57)
        got = _tall_product(a, w)
        ref = a @ w
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestSingularValuesOfRows:
    @pytest.mark.parametrize("rows", [7, 40, 300])
    def test_matches_economic_svd(self, rows):
        from rdmd.linalg import singular_values_of_rows

        x = matrix_with_spectrum(300, 20, np.logspace(0, -10, 20), seed=18)
        blocks = (x[i : i + rows] for i in range(0, 300, rows))
        ref = economic_svd(x).singular_values
        assert np.max(np.abs(singular_values_of_rows(blocks) - ref)) <= 1e-14

    def test_folds_one_r_factor_not_all(self):
        # 40 chunks of 512 x 100: every chunk's R factor and their stacked
        # copy would be 2 x 40 x 80 kB; the fold holds one R factor and one
        # chunk's factorization, [R; X_i] and its copy
        import tracemalloc

        from rdmd.linalg import singular_values_of_rows

        rows, cols = 512, 100
        x = matrix_with_spectrum(40 * rows, cols, np.logspace(0, -2, cols), seed=20)
        tracemalloc.start()
        try:
            got = singular_values_of_rows(x[i : i + rows] for i in range(0, x.shape[0], rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = np.linalg.svd(x, compute_uv=False)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12
        # [R; X_i], the copy the QR takes of it, and R and its workspace
        assert peak <= 3 * (rows + cols) * cols * 8


class TestPseudoinverse:
    def test_diagonal(self):
        assert np.allclose(pseudoinverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_zero_singular_value_maps_to_zero(self):
        assert np.allclose(pseudoinverse(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))

    def test_full_rank_left_inverse(self):
        x = normal_matrix(6, 3, seed=13)
        pinv = pseudoinverse(x)
        assert np.linalg.norm(pinv @ x - np.eye(3)) <= 1e-10
        # independent oracle: normal-equations solve
        oracle = np.linalg.solve(x.T @ x, x.T)
        assert np.linalg.norm(pinv - oracle) <= 1e-10

    def test_moore_penrose_identities(self):
        x = matrix_with_spectrum(10, 6, [4.0, 2.0, 1.0, 0.5], seed=14)
        pinv = pseudoinverse(x)
        nx = np.linalg.norm(x)
        assert np.linalg.norm(x @ pinv @ x - x) <= 1e-8 * nx
        assert np.linalg.norm(pinv @ x @ pinv - pinv) <= 1e-8 * np.linalg.norm(pinv)


class TestTikhonovInverse:
    def test_unit_case(self):
        assert np.allclose(tikhonov_inverse(np.eye(2), 1.0), 0.5 * np.eye(2))

    def test_lambda_zero_full_rank(self):
        assert np.allclose(tikhonov_inverse(np.array([[2.0]]), 0.0), [[0.5]])

    def test_against_augmented_system_solve(self):
        x = normal_matrix(8, 4, seed=15)
        lam = 0.1
        got = tikhonov_inverse(x, lam)
        # oracle: least-squares solve of the augmented system [X; lam*I]
        aug = np.vstack([x, lam * np.eye(4)])
        rhs = np.vstack([np.eye(8), np.zeros((4, 8))])
        oracle = np.linalg.lstsq(aug, rhs, rcond=None)[0]
        assert np.linalg.norm(got - oracle) <= 1e-10

    def test_negative_lambda(self):
        with pytest.raises(NegativeLambda):
            tikhonov_inverse(np.eye(2), -0.5)


class TestFilterFactors:
    def test_tikhonov_hand_values(self):
        f = filter_factors([3.0, 1.0], FilterSpec.tikhonov(1.0))
        assert np.allclose(f, [0.9, 0.5])

    def test_tsvd_hand_values(self):
        f = filter_factors([3.0, 2.0, 1.0], FilterSpec.tsvd(2))
        assert np.array_equal(f, [1.0, 1.0, 0.0])

    def test_tikhonov_zero_lambda_is_identity(self):
        f = filter_factors([5.0, 2.0, 0.1], FilterSpec.tikhonov(0.0))
        assert np.array_equal(f, [1.0, 1.0, 1.0])

    def test_monotone_in_lambda(self):
        sigma = np.array([4.0, 2.0, 1.0, 0.25])
        prev = filter_factors(sigma, FilterSpec.tikhonov(0.1))
        for lam in (0.5, 1.0, 3.0, 10.0):
            cur = filter_factors(sigma, FilterSpec.tikhonov(lam))
            assert np.all(cur < prev)
            prev = cur

    def test_range_and_rank_check(self):
        f = filter_factors([2.0, 1.0], FilterSpec.tikhonov(0.7))
        assert np.all((f >= 0) & (f <= 1))
        with pytest.raises(RankOutOfRange):
            filter_factors([2.0, 1.0], FilterSpec.tsvd(3))


class TestEigDense:
    def test_diagonal(self):
        pairs = eig_dense(np.diag([2.0, -1.0]))
        assert np.allclose(pairs.eigenvalues, [2.0, -1.0])
        assert np.allclose(np.abs(pairs.eigenvectors), np.eye(2), atol=1e-14)

    def test_rotation_spectrum(self):
        theta = 0.5
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        pairs = eig_dense(rot)
        expected = np.array([np.cos(theta) + 1j * np.sin(theta),
                             np.cos(theta) - 1j * np.sin(theta)])
        assert np.allclose(pairs.eigenvalues, expected, atol=1e-12)

    def test_residual(self):
        a = normal_matrix(6, 6, seed=16)
        pairs = eig_dense(a)
        resid = np.linalg.norm(a @ pairs.eigenvectors - pairs.eigenvectors * pairs.eigenvalues)
        assert resid <= 1e-8 * np.linalg.norm(a)

    def test_conjugate_closure(self):
        for seed in range(5):
            a = normal_matrix(7, 7, seed=100 + seed)
            vals = eig_dense(a).eigenvalues
            conj_sorted = sort_eigenpairs(vals.conjugate())[0]
            assert np.allclose(vals, conj_sorted, atol=1e-10)

    def test_ordering(self):
        vals = eig_dense(np.diag([1.0, -3.0, 2.0])).eigenvalues
        assert np.allclose(vals, [-3.0, 2.0, 1.0])
        mags = np.abs(vals)
        assert np.all(np.diff(mags) <= 1e-12)

    def test_not_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            eig_dense(normal_matrix(3, 4, seed=17))


def test_normalize_phase_pins_largest_entry():
    w = np.array([[1.0 + 1.0j, 0.3], [2.0 - 1.0j, -0.9]])
    normalize_phase_in_place(w)
    for j in range(2):
        col = w[:, j]
        assert abs(np.linalg.norm(col) - 1.0) < 1e-14
        pivot = col[np.argmax(np.abs(col))]
        assert pivot.imag == 0.0
        assert pivot.real > 0.0


def _normalize_phase_by_column(w):
    """Column-by-column reference of `normalize_phase_in_place`."""
    factors = np.ones(w.shape[1], dtype=np.complex128)
    for j in range(w.shape[1]):
        col = w[:, j]
        nrm = np.linalg.norm(col)
        if nrm == 0:
            continue
        at = np.argmax(np.abs(col))
        pivot = col[at]
        scale = abs(pivot) * nrm
        w[:, j] = (col * pivot.conjugate()) / scale
        w[at, j] = w[at, j].real
        factors[j] = pivot.conjugate() / scale
    return factors


# the chunk of an n x 4 complex128 array
_PHASE_CHUNK = chunk_rows(4 * 16)


@pytest.mark.parametrize("n", [7, _PHASE_CHUNK, 3 * _PHASE_CHUNK + 5])
def test_normalize_phase_matches_the_column_reference(n):
    w = normal_matrix(n, 4, seed=31) + 1j * normal_matrix(n, 4, seed=32)
    w[:, 2] = 0.0
    w[n // 2, 2] = -0.0
    # equal magnitudes in the first and last chunk: the first one is the pivot
    w[0, 1], w[n - 1, 1] = 40.0j, 40.0
    expected = w.copy()
    expected_factors = _normalize_phase_by_column(expected)
    factors = normalize_phase_in_place(w)
    # the column norms are summed in another order
    assert np.abs(w - expected).max() <= 1e-14
    assert np.abs(factors - expected_factors).max() <= 1e-14 * np.abs(factors).max()
    assert w[0, 1].imag == 0.0 and w[0, 1].real > 0.0
    assert w[:, 2].tobytes() == expected[:, 2].tobytes()  # the zero column, -0.0 kept
    assert factors[2] == 1.0


def test_normalize_phase_temporaries_are_chunk_sized():
    import tracemalloc

    n, k = 100_000, 4
    w = normal_matrix(n, k, seed=33) + 1j * normal_matrix(n, k, seed=34)
    tracemalloc.start()
    try:
        normalize_phase_in_place(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the magnitudes of one chunk and numpy's copy of them for the argmax
    assert peak <= 3 * chunk_rows(k * 16) * k * 8
