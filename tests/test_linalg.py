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
    RankOutOfRange,
    ShapeMismatch,
)
from rdmd.linalg import normalize_phase, sort_eigenpairs
from rdmd.rng import normal_matrix

from conftest import matrix_with_spectrum


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
        # the fallback must not run, so the comparison checks CholeskyQR2
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

    @pytest.mark.parametrize("case", ["rank_deficient", "kappa_3e8", "kappa_1e12"])
    def test_tall_fallback_is_the_economic_slice(self, case):
        if case == "rank_deficient":
            x = normal_matrix(1500, 6, seed=11) @ normal_matrix(6, 50, seed=12)
        elif case == "kappa_3e8":
            # both Cholesky factorizations succeed, but ||Q1^T Q1 - I||_2 ~ 1
            x = matrix_with_spectrum(1500, 50, np.logspace(0, np.log10(1 / 3e8), 50), seed=13)
        else:
            x = matrix_with_spectrum(1500, 50, np.logspace(0, -12, 50), seed=13)
        ref = economic_svd(x)
        f = truncated_svd(x, 5)
        assert np.array_equal(f.singular_values, ref.singular_values[:5])
        assert np.array_equal(f.u, ref.u[:, :5])
        assert np.array_equal(f.v, ref.v[:, :5])


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
    out = normalize_phase(w)
    for j in range(2):
        col = out[:, j]
        assert abs(np.linalg.norm(col) - 1.0) < 1e-14
        pivot = col[np.argmax(np.abs(col))]
        assert pivot.imag == 0.0
        assert pivot.real > 0.0
