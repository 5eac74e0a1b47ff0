import math

import numpy as np
import pytest

from rdmd import (
    SketchConfig,
    apply_sampling,
    economic_svd,
    expected_error_bound,
    gaussian_test_matrix,
    identity_sampling_operator,
    randomized_qb,
    row_sampling_operator,
    uniform_sampling_operator,
)
from rdmd.errors import (
    ConvergenceFailure,
    InvalidDistribution,
    InvalidOversampling,
    NonFiniteInput,
    RankOutOfRange,
    ShapeMismatch,
)
from rdmd import sketch
from rdmd.rng import normal_matrix
from rdmd.sketch import gaussian_compress

from conftest import chunk_rows, matrix_with_spectrum


class TestGaussianTestMatrix:
    def test_deterministic(self):
        assert np.array_equal(
            gaussian_test_matrix(3, 2, seed=7), gaussian_test_matrix(3, 2, seed=7)
        )

    def test_moments(self):
        g = gaussian_test_matrix(10_000, 1, seed=0)
        assert abs(g.mean()) < 0.05
        assert abs(g.var() - 1.0) < 0.05

    def test_seed_sensitivity(self):
        a = gaussian_test_matrix(4, 4, seed=1)
        b = gaussian_test_matrix(4, 4, seed=2)
        assert np.any(a != b)


class TestGaussianCompress:
    TILE = sketch._COMPRESS_TILE_ROWS

    # odd n puts every other row of S at an odd draw of the Box-Muller pairing
    @pytest.mark.parametrize(
        "n", [101, TILE - 1, 2 * TILE, 2 * TILE + 1],
        ids=["odd", "below_one_tile", "two_tiles", "two_tiles_plus_one"],
    )
    def test_equals_the_test_matrix_product(self, n):
        x = normal_matrix(n, 4, seed=30)
        expected = gaussian_test_matrix(7, n, seed=31) @ x
        np.testing.assert_allclose(gaussian_compress(x, 7, seed=31), expected, rtol=1e-12)

    def test_notes_one_tile_not_the_whole_matrix(self):
        from rdmd import memguard

        with memguard.session() as guard:
            gaussian_compress(normal_matrix(3 * self.TILE, 2, seed=32), 5, seed=33)
        assert guard.largest_bytes == 5 * self.TILE * 8

    def test_rejects_empty_sketch(self):
        with pytest.raises(ShapeMismatch):
            gaussian_compress(np.ones((4, 2)), 0, seed=1)


class TestRandomizedQb:
    def test_full_rank_identity_is_exact(self):
        x = np.eye(10)
        qb = randomized_qb(x, SketchConfig(10, 0, 0, seed=1))
        assert np.linalg.norm(x - qb.q @ qb.b) <= 1e-12

    def test_exact_rank_capture(self):
        x = normal_matrix(50, 3, seed=2) @ normal_matrix(3, 20, seed=3)
        sigma = economic_svd(x).singular_values
        assert sigma[3] <= 1e-12 * sigma[0]  # rank 3 by construction
        qb = randomized_qb(x, SketchConfig(3, 5, 0, seed=4))
        rel = np.linalg.norm(x - qb.q @ qb.b) / np.linalg.norm(x)
        assert rel <= 1e-10

    def test_apply_q_leaves_q_as_it_is(self):
        # qb.q is the finder's `empty_basis`, over several chunks and a
        # partial one: only the pipeline, which owns its qb, releases it.
        # The data has rank 3, so q keeps 3 of the l = 5 columns
        from rdmd import apply_q
        x = normal_matrix(3 * chunk_rows(4 * 16) + 5, 3, seed=8) @ normal_matrix(3, 12, seed=9)
        qb = randomized_qb(x, SketchConfig(3, 2, 1, seed=10))
        before = qb.q.copy()
        l = qb.q.shape[1]
        v = normal_matrix(l, 4, seed=11) + 1j * normal_matrix(l, 4, seed=12)
        lifted = apply_q(qb, v)
        assert qb.q.tobytes() == before.tobytes()
        assert np.max(np.abs(lifted - before @ v)) <= 1e-14 * np.max(np.abs(lifted))

    def test_power_iterations_reduce_mean_error(self):
        x = matrix_with_spectrum(100, 60, 0.95 ** np.arange(1, 61), seed=5)
        def mean_error(q_iters):
            errors = []
            for seed in range(20):
                qb = randomized_qb(x, SketchConfig(10, 10, q_iters, seed=seed))
                errors.append(np.linalg.norm(x - qb.q @ qb.b))
            return np.mean(errors)
        assert mean_error(2) <= mean_error(0)

    @pytest.mark.parametrize("k,p,q", [(3, 0, 0), (3, 5, 0), (5, 5, 1), (4, 8, 2)])
    def test_orthonormality_grid(self, k, p, q):
        x = normal_matrix(40, 25, seed=6)
        qb = randomized_qb(x, SketchConfig(k, p, q, seed=7))
        l = k + p
        assert qb.q.shape == (40, l)
        assert np.linalg.norm(qb.q.T @ qb.q - np.eye(l)) <= 1e-10 * np.sqrt(l)

    def test_b_is_projection_of_x(self):
        x = normal_matrix(30, 18, seed=8)
        qb = randomized_qb(x, SketchConfig(4, 4, 1, seed=9))
        assert np.linalg.norm(qb.b - qb.q.T @ x) <= 1e-12

    def test_determinism(self):
        x = normal_matrix(25, 15, seed=10)
        cfg = SketchConfig(4, 6, 2, seed=11)
        a = randomized_qb(x, cfg)
        b = randomized_qb(x, cfg)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.b, b.b)

    def test_oversized_sketch_rejected(self):
        with pytest.raises(RankOutOfRange):
            randomized_qb(normal_matrix(8, 6, seed=12), SketchConfig(5, 5, 0))

    def test_deep_power_iterations_stay_stable(self):
        # the naive (X X^T)^q X product would reach sigma^(2q+1) ~ 1e63 here;
        # the re-orthonormalized iteration must stay well-conditioned
        x = matrix_with_spectrum(60, 40, 1e3 * 0.8 ** np.arange(40), seed=13)
        qb = randomized_qb(x, SketchConfig(5, 5, 10, seed=14))
        l = 10
        assert np.all(np.isfinite(qb.q))
        assert np.linalg.norm(qb.q.T @ qb.q - np.eye(l)) <= 1e-10 * np.sqrt(l)
        rel = np.linalg.norm(x - qb.q @ qb.b) / np.linalg.norm(x)
        assert rel <= np.sqrt(np.sum((0.8 ** np.arange(10, 40)) ** 2)) / np.linalg.norm(
            0.8 ** np.arange(40)
        ) * 1.5  # within 1.5x of the optimal rank-10 tail

    def test_mean_error_monotone_in_p_and_q(self, dyadic_spectrum_matrix):
        x = dyadic_spectrum_matrix
        def mean_error(p, q):
            errors = []
            for seed in range(20):
                qb = randomized_qb(x, SketchConfig(5, p, q, seed=1000 + seed))
                errors.append(np.linalg.norm(x - qb.q @ qb.b))
            return np.mean(errors)
        for q in (0, 1, 2):
            errs = [mean_error(p, q) for p in (2, 5, 10)]
            assert errs[1] <= errs[0] * 1.05
            assert errs[2] <= errs[1] * 1.05
        for p in (2, 10):
            errs = [mean_error(p, q) for q in (0, 1, 2)]
            assert errs[1] <= errs[0] * 1.05
            assert errs[2] <= errs[1] * 1.05


class TestPowerIterationOrthonormalization:
    @staticmethod
    def spy_cholesky_qr2(monkeypatch):
        import rdmd.linalg

        returned = []
        inner = rdmd.linalg._cholesky_qr2

        def spy(a, gram=None):
            factors = inner(a, gram)
            returned.append(factors)
            return factors

        monkeypatch.setattr(rdmd.linalg, "_cholesky_qr2", spy)
        return returned

    @pytest.mark.parametrize("case", ["kappa_1e6", "rank_deficient"])
    def test_power_step_basis_is_orthonormal(self, case, monkeypatch):
        from rdmd import thin_qr_q

        returned = self.spy_cholesky_qr2(monkeypatch)
        if case == "kappa_1e6":
            # CholeskyQR2 path; one Cholesky pass alone leaves ~1e-4 here
            y = matrix_with_spectrum(3000, 15, np.logspace(0, -6, 15), seed=43)
        else:
            y = normal_matrix(3000, 5, seed=44) @ normal_matrix(5, 15, seed=45)
        q = thin_qr_q(y)
        assert (returned[0] is None) == (case == "rank_deficient")
        assert np.linalg.norm(q.T @ q - np.eye(15)) <= 1e-10 * np.sqrt(15)
        assert np.linalg.norm(y - q @ (q.T @ y)) <= 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("q", [1, 2])
    def test_rank_deficient_sketch_falls_back_to_householder(self, q, monkeypatch):
        returned = self.spy_cholesky_qr2(monkeypatch)
        # noise-free rank 5 with l = 15: each power iteration's m x 15
        # P_j^T = X^T X Z_j has rank 5, so CholeskyQR2 rejects it and
        # `thin_qr_q` takes one Householder QR, whose 10 completion columns
        # lie in X's null space; the last sketch Y = X Z_q then has 10
        # columns at rounding level, and the Householder R-fold of its
        # chunks keeps its 5 resolved directions, whose basis CholeskyQR2
        # accepts
        x = normal_matrix(3000, 5, seed=30) @ normal_matrix(5, 60, seed=31)
        qb = randomized_qb(x, SketchConfig(5, 10, q, seed=32))
        # one CholeskyQR2 per m x 15 orthonormalization between the passes,
        # then two for the last sketch (Y, then its resolved basis)
        assert len(returned) == q + 2
        assert all(f is None for f in returned[:q]) and returned[-1] is not None
        assert qb.q.shape == (3000, 5) and qb.b.shape == (5, 60)
        assert np.linalg.norm(qb.q.T @ qb.q - np.eye(5)) <= 1e-10 * np.sqrt(5)
        assert np.linalg.norm(x - qb.q @ qb.b) <= 1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("noise_free", [False, True], ids=["noisy", "noise_free"])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_only_the_last_sketch_has_an_n_row_basis(self, q, noise_free, monkeypatch):
        # the power iterations' sketches go through one reused chunk buffer,
        # so a call allocates the last sketch's basis and, where the rank
        # rule runs (noise-free rank 5 < l = 15), the basis of its 5
        # resolved directions
        import rdmd.linalg

        allocated = []
        inner = rdmd.linalg.empty_basis

        def spy(n, c):
            allocated.append((n, c))
            return inner(n, c)

        monkeypatch.setattr(rdmd.linalg, "empty_basis", spy)
        if noise_free:
            x = normal_matrix(3000, 5, seed=30) @ normal_matrix(5, 60, seed=31)
        else:
            x = matrix_with_spectrum(3000, 60, 0.9 ** np.arange(60), seed=33)
        qb = randomized_qb(x, SketchConfig(5, 10, q, seed=34))
        assert allocated == ([(3000, 15), (3000, 5)] if noise_free else [(3000, 15)])
        assert qb.q.shape == allocated[-1]

    @pytest.mark.parametrize("r", [3, 5, 7])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_noise_free_sketch_keeps_the_data_rank(self, r, q):
        # the power iterations hand the last sketch l - r columns in X's
        # null space; the rank check of the accepted basis drops them
        x = normal_matrix(3000, r, seed=30) @ normal_matrix(r, 60, seed=31)
        qb = randomized_qb(x, SketchConfig(5, 10, q, seed=32))
        assert qb.q.shape == (3000, r) and qb.b.shape == (r, 60)
        assert np.linalg.norm(qb.q.T @ qb.q - np.eye(r)) <= 1e-10 * np.sqrt(r)
        assert np.linalg.norm(x - qb.q @ qb.b) <= 1e-14 * np.linalg.norm(x)

    def test_rejected_resolved_basis_is_a_convergence_failure(self, monkeypatch):
        # the basis of the resolved directions is orthonormal to within
        # eps * kappa, so its rejection ends the run rather than fold again
        import rdmd.linalg

        monkeypatch.setattr(rdmd.linalg, "_cholesky_qr2", lambda a, gram=None: None)
        with pytest.raises(ConvergenceFailure, match="rank-resolved basis"):
            randomized_qb(normal_matrix(300, 20, seed=46), SketchConfig(3, 2, 0, seed=47))

    def test_cholesky_qr2_steps_match_householder_steps(self, monkeypatch):
        x = matrix_with_spectrum(3000, 60, 0.9 ** np.arange(60), seed=33)
        cfg = SketchConfig(5, 10, 2, seed=34)
        returned = self.spy_cholesky_qr2(monkeypatch)
        fast = randomized_qb(x, cfg)
        # the 2 orthonormalizations of X^T Y between the passes and the last
        # sketch's: the 2 intermediate sketches are not orthonormalized
        assert len(returned) == 3 and all(f is not None for f in returned)
        # the reference is Halko, Martinsson & Tropp (2011), Alg. 4.4, with
        # numpy's Householder QR and dense products
        ref = np.linalg.qr(x @ gaussian_test_matrix(60, cfg.sketch_size, cfg.seed))[0]
        for _ in range(cfg.power_iters):
            ref = np.linalg.qr(x @ np.linalg.qr(x.T @ ref)[0])[0]
        ref_b = ref.T @ x
        signs = np.sign(np.sum(fast.q * ref, axis=0))
        assert np.max(np.abs(fast.q * signs - ref)) <= 1e-10
        assert np.max(np.abs(fast.b * signs[:, None] - ref_b)) <= 1e-10 * np.abs(ref_b).max()


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_names_the_first_bad_row(self, value):
        x = normal_matrix(500, 30, seed=35)
        x[321, 7] = value
        x[400, 2] = value
        with pytest.raises(NonFiniteInput, match=f"row 321, column 7 is {value}") as info:
            randomized_qb(x, SketchConfig(3, 3, 1, seed=36))
        assert info.value.row == 321

    def test_finite_overflow_names_no_row(self):
        x = normal_matrix(500, 30, seed=37)
        x[:, :] = 1e308
        with pytest.raises(NonFiniteInput, match="overflowed") as info:
            randomized_qb(x, SketchConfig(3, 3, 1, seed=38))
        assert info.value.row is None


class TestExpectedErrorBound:
    def test_zero_tail_gives_zero(self):
        assert expected_error_bound(5, 5, 1, 50, 40, 0.0) == 0.0

    def test_large_q_limit(self):
        bound = expected_error_bound(10, 10, 50, 100, 100, 1.0)
        assert abs(bound - 1.0) < 0.1

    def test_printed_formula_value(self):
        # independent scalar evaluation of the same expression
        k, p, q, mn = 10, 10, 0, 100
        bracket = 1.0 + math.sqrt(k / (p - 1)) + math.e * math.sqrt(k + p) / p * math.sqrt(mn - k)
        expected = bracket ** (1.0 / (2 * q + 1))
        got = expected_error_bound(k, p, q, 100, 200, 1.0)
        assert abs(got - expected) < 1e-12
        assert abs(got - 13.58678563786681) < 1e-9  # ~= 13.59

    def test_small_oversampling_rejected(self):
        with pytest.raises(InvalidOversampling):
            expected_error_bound(5, 1, 0, 50, 50, 1.0)


class TestRowSampling:
    def test_uniform_scales(self):
        op = uniform_sampling_operator(4, 2, seed=0)
        assert np.allclose(op.scale_factors, np.sqrt(2.0))

    def test_degenerate_distribution(self):
        probs = [1.0, 0.0, 0.0]
        op = row_sampling_operator(3, 5, probs, seed=1)
        assert np.all(op.indices == 0)
        assert np.allclose(op.scale_factors, 1.0 / np.sqrt(5.0))

    def test_unbiased_second_moment(self):
        x = normal_matrix(20, 6, seed=2)
        target = x.T @ x
        acc = np.zeros_like(target)
        trials = 2000
        for seed in range(trials):
            sx = apply_sampling(uniform_sampling_operator(20, 10, seed), x)
            acc += sx.T @ sx
        acc /= trials
        rel = np.linalg.norm(acc - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_invalid_distributions(self):
        with pytest.raises(InvalidDistribution):
            row_sampling_operator(3, 2, [0.5, 0.4, 0.2], seed=0)  # sums to 1.1
        with pytest.raises(InvalidDistribution):
            row_sampling_operator(3, 2, [0.5, -0.1, 0.6], seed=0)
        with pytest.raises(InvalidDistribution):
            row_sampling_operator(3, 0, [0.3, 0.3, 0.4], seed=0)

    def test_determinism(self):
        a = row_sampling_operator(10, 6, np.full(10, 0.1), seed=3)
        b = row_sampling_operator(10, 6, np.full(10, 0.1), seed=3)
        assert np.array_equal(a.indices, b.indices)


class TestApplySampling:
    def test_identity_operator(self):
        x = normal_matrix(6, 4, seed=4)
        assert np.array_equal(apply_sampling(identity_sampling_operator(6), x), x)

    def test_single_scaled_row(self):
        from rdmd import SamplingOperator
        x = normal_matrix(4, 2, seed=5)
        op = SamplingOperator(4, 1, np.array([2]), np.array([3.0]))
        assert np.allclose(apply_sampling(op, x), 3.0 * x[2])

    def test_matches_dense_materialization(self):
        x = normal_matrix(7, 3, seed=6)
        op = row_sampling_operator(7, 4, np.full(7, 1.0 / 7.0), seed=7)
        dense = np.zeros((4, 7))
        for j, (idx, s) in enumerate(zip(op.indices, op.scale_factors)):
            dense[j, idx] = s
        v = normal_matrix(3, 1, seed=8)
        assert np.allclose(apply_sampling(op, x) @ v, (dense @ x) @ v, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            apply_sampling(identity_sampling_operator(5), normal_matrix(4, 2, seed=9))


def test_power_iteration_spectrum_law():
    # singular values of (X X^T)^q X are sigma_i(X)^(2q+1)
    x = matrix_with_spectrum(10, 8, np.linspace(1.0, 0.5, 8), seed=21)
    sigma = economic_svd(x).singular_values
    for q in (1, 2):
        powered = x.copy()
        for _ in range(q):
            powered = (x @ x.T) @ powered
        got = economic_svd(powered).singular_values
        assert np.all(np.abs(got - sigma ** (2 * q + 1)) <= 1e-10 * sigma ** (2 * q + 1))


def test_bound_satisfied_spot_check(dyadic_spectrum_matrix):
    x = dyadic_spectrum_matrix
    sigma = economic_svd(x).singular_values
    k, p, q = 5, 5, 1
    errors = []
    for seed in range(30):
        qb = randomized_qb(x, SketchConfig(k, p, q, seed=seed))
        errors.append(np.linalg.norm(x - qb.q @ (qb.q.T @ x)))
    bound = expected_error_bound(k, p, q, x.shape[1], x.shape[0], sigma[k])
    assert np.mean(errors) <= bound
