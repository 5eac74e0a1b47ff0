import itertools

import numpy as np
import pytest

from rdmd import (
    ArrayRowBlockSource,
    DmdConfig,
    FilterSpec,
    ModeSpec,
    SketchConfig,
    add_noise,
    amplitudes,
    dmd_compressed,
    dmd_deterministic,
    dmd_randomized,
    dmd_randomized_blocked,
    eigen_match_error,
    identity_sampling_operator,
    low_dim_operator,
    pseudoinverse,
    randomized_qb,
    reconstruct,
    run_dmd,
    split_snapshots,
    synth_linear_dynamics,
    truncated_svd,
    uniform_sampling_operator,
)
from rdmd.dmd import DmdResult, SnapshotSplit
from rdmd.errors import (
    DegenerateData,
    EmptyInput,
    InvalidOversampling,
    MissingAmplitudes,
    NonFiniteInput,
    RankOutOfRange,
    RdmdError,
    TooFewSnapshots,
)
from rdmd.rng import normal_matrix

from conftest import rotation_sequence


class TestDmdConfig:
    def test_sketch_is_built_from_the_one_rank(self):
        cfg = DmdConfig(target_rank=3, method="randomized", power_iters=1, seed=4)
        assert cfg.sketch == SketchConfig(3, 10, 1, seed=4)

    def test_invalid_oversampling_rejected_at_construction(self):
        with pytest.raises(InvalidOversampling):
            DmdConfig(target_rank=3, oversampling=-1)


class TestSplitSnapshots:
    def test_three_columns(self):
        x = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        split = split_snapshots(x)
        assert np.array_equal(split.left, x[:, :2])
        assert np.array_equal(split.right, x[:, 1:])

    def test_two_columns(self):
        split = split_snapshots(np.array([[1.0, 2.0]]))
        assert split.left.shape == (1, 1)
        assert split.right.shape == (1, 1)

    def test_single_column_rejected(self):
        with pytest.raises(TooFewSnapshots):
            split_snapshots(np.ones((4, 1)))


class TestDeterministic:
    def test_single_decaying_mode(self):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        x = np.column_stack([0.9**j * v for j in range(10)])
        result = dmd_deterministic(x, DmdConfig(target_rank=1))
        assert abs(result.eigenvalues[0] - 0.9) <= 1e-10
        mode = result.modes[:, 0]
        cosine = abs(np.vdot(mode, v)) / (np.linalg.norm(mode) * np.linalg.norm(v))
        assert cosine >= 1.0 - 1e-10

    def test_embedded_rotation_spectrum(self):
        x = rotation_sequence(50, 20, theta=0.5, seed=1)
        result = dmd_deterministic(x, DmdConfig(target_rank=2))
        expected = [np.cos(0.5) + 1j * np.sin(0.5), np.cos(0.5) - 1j * np.sin(0.5)]
        assert eigen_match_error(expected, result.eigenvalues) <= 1e-8

    def test_zero_left_block_rejected(self):
        x = np.zeros((5, 4))
        x[:, -1] = 1.0  # only the final column is nonzero; X_L = 0
        with pytest.raises(DegenerateData):
            dmd_deterministic(x, DmdConfig(target_rank=1))

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            dmd_deterministic(normal_matrix(6, 5, seed=2), DmdConfig(target_rank=5))

    def test_exact_modes_are_propagator_eigenvectors(self):
        x = rotation_sequence(30, 25, theta=0.4, seed=3)
        cfg = DmdConfig(target_rank=2, method="deterministic_exact")
        result = dmd_deterministic(x, cfg)
        split = split_snapshots(x)
        # residual of A_hat @ W = W @ Lambda through the data: A_hat = X_R X_L^+
        lifted = split.right @ (pseudoinverse(split.left) @ result.modes)
        resid = np.linalg.norm(lifted - result.modes * result.eigenvalues)
        assert resid <= 1e-6 * np.linalg.norm(split.right)

    @pytest.mark.parametrize("method", ["deterministic_projected", "deterministic_exact"])
    def test_tall_noisy_input_matches_economic_svd_run(self, method, monkeypatch):
        import rdmd.dmd
        from rdmd.linalg import SvdFactors, _cholesky_qr2_svd, economic_svd

        specs = [ModeSpec(0.99 * np.exp(0.3j)), ModeSpec(0.9), ModeSpec(0.8 * np.exp(1.2j))]
        truth = synth_linear_dynamics(2000, 40, specs, seed=38)
        x = add_noise(truth.clean_data, 10.0, seed=39)
        assert _cholesky_qr2_svd(split_snapshots(x).left, 5) is not None
        cfg = DmdConfig(target_rank=5, method=method)
        fast = dmd_deterministic(x, cfg)

        def economic_slice(a, k):
            f = economic_svd(a)
            return SvdFactors(f.u[:, :k], f.singular_values[:k], f.v[:, :k])

        monkeypatch.setattr(rdmd.dmd, "truncated_svd", economic_slice)
        ref = dmd_deterministic(x, cfg)
        scale = np.abs(ref.eigenvalues)
        assert np.max(np.abs(fast.eigenvalues - ref.eigenvalues) / scale) <= 1e-10
        assert np.max(np.abs(fast.modes - ref.modes)) <= 1e-10
        assert np.max(
            np.abs(fast.amplitudes - ref.amplitudes) / np.abs(ref.amplitudes)
        ) <= 1e-10

    def test_projected_and_exact_agree_on_spectrum(self):
        x = rotation_sequence(40, 30, theta=0.3, seed=4)
        proj = dmd_deterministic(x, DmdConfig(target_rank=2))
        exact = dmd_deterministic(
            x, DmdConfig(target_rank=2, method="deterministic_exact")
        )
        assert eigen_match_error(proj.eigenvalues, exact.eigenvalues) <= 1e-10


class TestLowDimOperator:
    def test_static_identity_data(self):
        split = SnapshotSplit(left=np.eye(4), right=np.eye(4))
        op = low_dim_operator(split, 4)
        assert np.allclose(op.operator, np.eye(4), atol=1e-12)

    def test_scalar_dynamics(self):
        left = normal_matrix(6, 6, seed=5)
        op = low_dim_operator(SnapshotSplit(left=left, right=2.0 * left), 6)
        assert np.linalg.norm(op.operator - 2.0 * np.eye(6)) <= 1e-10

    @pytest.mark.parametrize("k", [4, 8])
    def test_matches_pseudoinverse_oracle(self, k):
        left = normal_matrix(8, 30, seed=6)
        right = normal_matrix(8, 8, seed=7) @ left
        op = low_dim_operator(SnapshotSplit(left=left, right=right), k)
        oracle = op.left_vectors.T @ (right @ np.linalg.pinv(left)) @ op.left_vectors
        assert np.linalg.norm(op.operator - oracle) <= 1e-8

    def test_degenerate(self):
        with pytest.raises(DegenerateData):
            low_dim_operator(
                SnapshotSplit(left=np.zeros((3, 3)), right=np.eye(3)), 2
            )

    def test_tikhonov_filter_damps_inverse(self):
        left = normal_matrix(10, 12, seed=8)
        right = normal_matrix(10, 12, seed=9)
        split = SnapshotSplit(left=left, right=right)
        plain = low_dim_operator(split, 5)
        damped = low_dim_operator(split, 5, FilterSpec.tikhonov(1.0))
        sigma = plain.singular_values
        assert np.allclose(
            damped.inv_singular, sigma / (sigma**2 + 1.0), atol=1e-14
        )
        assert np.all(damped.inv_singular <= plain.inv_singular + 1e-15)


_RANDOMIZED = DmdConfig(
    target_rank=3, method="randomized", oversampling=5, power_iters=1, seed=13
)
_MODES_BY_METHOD = {
    "projected": lambda x: dmd_deterministic(x, DmdConfig(target_rank=3)),
    "exact": lambda x: dmd_deterministic(
        x, DmdConfig(target_rank=3, method="deterministic_exact")
    ),
    "compressed-gaussian": lambda x: dmd_compressed(
        x,
        DmdConfig(target_rank=3, method="compressed", compress_dim=30,
                  seed=12),
    ),
    "compressed-uniform": lambda x: dmd_compressed(
        x,
        DmdConfig(target_rank=3, method="compressed", compress_dim=30,
                  sampling="uniform_rows", seed=12),
    ),
    "randomized": lambda x: dmd_randomized(x, _RANDOMIZED),
    "blocked-3": lambda x: dmd_randomized_blocked(ArrayRowBlockSource(x, 3), _RANDOMIZED),
}


class TestRecoverModes:
    def test_eigenvector_chain(self):
        # W_hat = B_R V S^{-1} W_tilde is an eigenvector set of B_R B_L^+
        for seed in range(5):
            bl = normal_matrix(8, 25, seed=40 + seed)
            br = normal_matrix(8, 25, seed=60 + seed)
            k = 5
            op = low_dim_operator(SnapshotSplit(left=bl, right=br), k)
            from rdmd.linalg import eig_dense

            pairs = eig_dense(op.operator)
            w_hat = op.right_projected @ pairs.eigenvectors
            f = truncated_svd(bl, k)
            a_hat = br @ ((f.v / f.singular_values) @ f.u.T)
            resid = np.linalg.norm(a_hat @ w_hat - w_hat * pairs.eigenvalues)
            scale = np.linalg.norm(a_hat) * np.linalg.norm(w_hat)
            assert resid <= 1e-8 * scale

    @pytest.mark.parametrize("method", list(_MODES_BY_METHOD))
    def test_normalization_contract(self, method):
        specs = [ModeSpec(0.98), ModeSpec(0.95 * np.exp(0.6j), amplitude=0.5)]
        truth = synth_linear_dynamics(90, 40, specs, seed=10)
        w = _MODES_BY_METHOD[method](add_noise(truth.clean_data, 10.0, seed=11)).modes
        assert w.shape == (90, 3)
        for j in range(w.shape[1]):
            col = w[:, j]
            assert abs(np.linalg.norm(col) - 1.0) <= 1e-12
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.imag == 0.0 and pivot.real > 0.0

    @staticmethod
    def noisy_three_modes():
        specs = [ModeSpec(0.98), ModeSpec(0.95 * np.exp(0.6j), amplitude=0.5)]
        return add_noise(synth_linear_dynamics(90, 40, specs, seed=10).clean_data, 10.0, seed=11)

    @pytest.mark.parametrize("method", list(_MODES_BY_METHOD))
    def test_eigenpair_residual_is_recorded(self, method):
        x = self.noisy_three_modes()
        result = _MODES_BY_METHOD[method](x)
        residual = result.diagnostics["eigenpair_residual"]
        assert 0.0 <= residual <= 1e-12
        if method == "projected":
            op = low_dim_operator(split_snapshots(x), 3).operator
            w = result.low_dim_eigvecs
            expected = np.linalg.norm(op @ w - w * result.eigenvalues, axis=0).max()
            assert residual == expected

    @pytest.mark.parametrize("method", list(_MODES_BY_METHOD))
    def test_sketch_fit_only_on_randomized_results(self, method):
        # every result carries a SketchFit; only a randomized one's is the
        # l-row QB sketch, the others' have the k rows of U_k or of the thin
        # QR factor of the exact-style basis
        x = self.noisy_three_modes()
        result = _MODES_BY_METHOD[method](x)
        fit = result.sketch
        randomized = method in ("randomized", "blocked-3")
        l = _RANDOMIZED.sketch.sketch_size if randomized else 3
        assert fit.modes.shape == (l, 3) and fit.data.shape == (l, 41)
        assert fit.data_sq_norm == pytest.approx(np.sum(x * x), rel=1e-13)
        # an orthonormal lift keeps the unit norm of the modes, and the
        # coordinate fit of the amplitudes equals the full-space one
        assert np.abs(np.linalg.norm(fit.modes, axis=0) - 1.0).max() <= 1e-13
        np.testing.assert_allclose(result.amplitudes, amplitudes(result, x[:, 0]), rtol=1e-10)
        if method == "projected":
            u = truncated_svd(x[:, :-1], 3).u
            assert np.array_equal(fit.data, u.T @ x)
            assert np.abs(u @ fit.modes - result.modes).max() <= 1e-14
        if method == "randomized":
            qb = randomized_qb(x, _RANDOMIZED.sketch)
            assert np.array_equal(fit.data, qb.b)
            assert np.abs(qb.q @ fit.modes - result.modes).max() <= 1e-14

    def test_no_state_dimension_pinv(self, monkeypatch):
        # amplitudes are fitted in coordinates: no variant hands np.linalg.pinv
        # a matrix with the n rows of the state space
        x = self.noisy_three_modes()
        inner = np.linalg.pinv
        rows = []

        def spy(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return inner(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", spy)
        for run in _MODES_BY_METHOD.values():
            run(x)
        assert len(rows) == len(_MODES_BY_METHOD)
        assert x.shape[0] not in rows


class TestMethodLabel:
    """A result and its config echo name the variant that ran, not cfg.method."""

    X = normal_matrix(60, 41, seed=70)

    @pytest.mark.parametrize("run, cfg, method", [
        (dmd_randomized, DmdConfig(target_rank=3), "randomized"),
        (lambda x, cfg: dmd_randomized_blocked(ArrayRowBlockSource(x, 2), cfg),
         DmdConfig(target_rank=3), "randomized"),
        (dmd_compressed, DmdConfig(target_rank=3, compress_dim=30), "compressed"),
        (dmd_deterministic, DmdConfig(target_rank=3, method="randomized"),
         "deterministic_projected"),
        (dmd_deterministic, DmdConfig(target_rank=3, method="compressed"),
         "deterministic_projected"),
    ], ids=["randomized", "blocked", "compressed", "deterministic", "deterministic-cdmd"])
    def test_label_is_the_variant_that_ran(self, run, cfg, method):
        result = run(self.X, cfg)
        echo = result.diagnostics["config"]
        assert result.method == echo["method"] == method
        randomized = method == "randomized"
        assert (echo["sketch_size"] == 13) is randomized
        assert (echo["oversampling"] == 10) is randomized
        assert (echo["sampling"] == "gaussian") is (method == "compressed")
        assert (echo["seed"] == 0) is (method != "deterministic_projected")


class TestRandomized:
    @pytest.mark.parametrize("seed", [14, 0, 999, 2**40])
    def test_matches_deterministic_on_low_rank(self, seed):
        x = rotation_sequence(200, 61, theta=0.5, seed=13)
        det = dmd_deterministic(x, DmdConfig(target_rank=2))
        rnd = dmd_randomized(
            x,
            DmdConfig(
                target_rank=2,
                method="randomized",
                oversampling=10, power_iters=2, seed=seed,
            ),
        )
        assert eigen_match_error(det.eigenvalues, rnd.eigenvalues) <= 1e-6

    def test_default_sketch_parameters_echoed(self):
        x = rotation_sequence(80, 40, theta=0.2, seed=15)
        result = dmd_randomized(x, DmdConfig(target_rank=2, method="randomized"))
        echo = result.diagnostics["config"]
        assert echo["oversampling"] == 10
        assert echo["power_iters"] == 2

    def test_wake_surrogate_structure(self):
        # neutrally stable periodic surrogate on a flattened 449x199 grid
        specs = [ModeSpec(1.0, amplitude=2.0)] + [
            ModeSpec(np.exp(1j * 0.35 * (i + 1)), amplitude=1.0 / (i + 1),
                     profile="harmonic", frequency=float(i + 1))
            for i in range(7)
        ]
        truth = synth_linear_dynamics(449 * 199, 150, specs, seed=16)
        result = dmd_randomized(
            truth.clean_data,
            DmdConfig(
                target_rank=15,
                method="randomized",
                oversampling=10, power_iters=0, seed=17,
            ),
        )
        vals = result.eigenvalues
        assert vals.size == 15
        assert np.all(np.abs(vals) <= 1.0 + 1e-6)
        conj_sorted = np.sort_complex(vals.conjugate())
        assert np.allclose(np.sort_complex(vals), conj_sorted, atol=1e-8)

    def test_determinism(self):
        x = rotation_sequence(60, 30, theta=0.7, seed=18)
        cfg = DmdConfig(
            target_rank=2, method="randomized", oversampling=5, power_iters=1, seed=19
        )
        a = dmd_randomized(x, cfg)
        b = dmd_randomized(x, cfg)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.modes, b.modes)


    @pytest.mark.parametrize(
        "shape, k, p",
        [
            ((300, 40), 5, 10),
            ((300, 16), 3, 13),  # l = m: fits the QB, one column over the split
            ((300, 16), 3, 14),
            ((10, 40), 3, 10),
            ((300, 2), 1, 0),
            ((300, 1), 1, 2),
            ((300, 1), 1, 0),
        ],
        ids=["fits", "l-equals-m", "l-above-m", "l-above-n", "two-columns",
             "one-column", "one-column-p0"],
    )
    def test_in_memory_and_single_block_agree(self, shape, k, p):
        # the two paths give bit-identical results or raise the same error,
        # class and message
        x = normal_matrix(*shape, seed=20)
        cfg = DmdConfig(target_rank=k, method="randomized", oversampling=p, seed=21)
        outcomes = []
        for run in (
            lambda: dmd_randomized(x, cfg),
            lambda: dmd_randomized_blocked(ArrayRowBlockSource(x, 1), cfg),
        ):
            try:
                outcomes.append(run())
            except RdmdError as exc:
                outcomes.append((type(exc), str(exc)))
        memory, blocked = outcomes
        if isinstance(memory, tuple) or isinstance(blocked, tuple):
            assert memory == blocked
            return
        for name in ("eigenvalues", "modes", "amplitudes"):
            assert getattr(memory, name).tobytes() == getattr(blocked, name).tobytes()


class TestCompressed:
    def test_identity_operator_equals_deterministic(self):
        x = rotation_sequence(35, 25, theta=0.6, seed=20)
        det = dmd_deterministic(x, DmdConfig(target_rank=2))
        cmp_res = dmd_compressed(
            x,
            DmdConfig(target_rank=2, method="compressed"),
            operator=identity_sampling_operator(35),
        )
        assert eigen_match_error(det.eigenvalues, cmp_res.eigenvalues) <= 1e-10

    def test_gaussian_compression_on_low_rank(self):
        x = rotation_sequence(200, 40, theta=0.5, seed=21)
        result = dmd_compressed(
            x,
            DmdConfig(
                target_rank=2,
                method="compressed",
                compress_dim=50,
                seed=22,
            ),
        )
        expected = [np.exp(0.5j), np.exp(-0.5j)]
        assert eigen_match_error(expected, result.eigenvalues) <= 1e-6

    def test_gaussian_compression_peak_memory_stays_near_the_input(self):
        # S (50 x n) is drawn a tile at a time, so the peak is the pipeline's
        # n x k buffers, not the 50 x n mixer and its draw temporaries
        import tracemalloc

        x = normal_matrix(100_000, 3, seed=34) @ normal_matrix(3, 41, seed=35)
        x += 0.1 * normal_matrix(100_000, 41, seed=36)
        cfg = DmdConfig(target_rank=3, method="compressed", compress_dim=50, seed=37)
        tracemalloc.start()
        try:
            dmd_compressed(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * x.nbytes

    def test_uniform_sampling_dimension_check(self):
        x = rotation_sequence(10, 8, theta=0.5, seed=23)
        cfg = DmdConfig(
            target_rank=2, method="compressed", compress_dim=20, sampling="uniform_rows"
        )
        with pytest.raises(RankOutOfRange):
            dmd_compressed(x, cfg)

    def test_compress_dim_below_rank_rejected(self):
        x = rotation_sequence(30, 10, theta=0.5, seed=24)
        with pytest.raises(RankOutOfRange):
            dmd_compressed(
                x, DmdConfig(target_rank=4, method="compressed", compress_dim=2)
            )


class TestNonFiniteInput:
    # 200 x 30 snapshots are tall, so the deterministic SVD sees a bad entry
    # in the Gram matrix of X_L; 60 x 40 ones are not, so their SVD input is
    # checked directly. cdmd keeps 40 rows, and the uniform sampler of seed
    # 9 either draws the bad row or skips it. The in-memory rdmd sees it in
    # the sketch X Omega.
    METHODS = {
        "randomized": ("randomized", "gaussian", (200, 30)),
        "projected": ("deterministic_projected", "gaussian", (200, 30)),
        "projected_wide": ("deterministic_projected", "gaussian", (60, 40)),
        "exact": ("deterministic_exact", "gaussian", (200, 30)),
        "compressed_gaussian": ("compressed", "gaussian", (200, 30)),
        "compressed_uniform_sampled": ("compressed", "uniform_rows", (200, 30)),
        "compressed_uniform_skipped": ("compressed", "uniform_rows", (200, 30)),
    }

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first_column", "interior", "last_column"])
    @pytest.mark.parametrize("case", sorted(METHODS))
    def test_names_the_bad_entry(self, case, where, value):
        method, sampling, (n, m) = self.METHODS[case]
        sampled = uniform_sampling_operator(n, 40, seed=9).indices
        rows = np.setdiff1d(np.arange(n), sampled) if case.endswith("skipped") else sampled
        row = int(rows[len(rows) // 2])
        col = {"first_column": 0, "interior": m // 2, "last_column": m - 1}[where]
        x = normal_matrix(n, m, seed=52)
        x[row, col] = value
        cfg = DmdConfig(
            target_rank=4, method=method, compress_dim=40, sampling=sampling,
            seed=9,
        )
        with pytest.raises(NonFiniteInput, match=f"^row {row}, column {col} is {value}$") as info:
            run_dmd(x, cfg)
        assert info.value.row == row


class TestAmplitudesAndReconstruct:
    def _result(self, modes, eigenvalues, amps=None):
        modes = np.asarray(modes, dtype=complex)
        return DmdResult(
            eigenvalues=np.asarray(eigenvalues, dtype=complex),
            modes=modes,
            low_dim_eigvecs=np.eye(modes.shape[1], dtype=complex),
            amplitudes=None if amps is None else np.asarray(amps, dtype=complex),
            method="deterministic_projected",
        )

    def test_single_mode_amplitude(self):
        w = np.array([[0.6], [0.8]])
        result = self._result(w, [0.9])
        assert np.allclose(amplitudes(result, 3.0 * w[:, 0]), [3.0])

    def test_orthonormal_modes_amplitude(self):
        q = np.linalg.qr(normal_matrix(8, 3, seed=25))[0]
        result = self._result(q, [1.0, 0.5, 0.25])
        x0 = normal_matrix(8, 1, seed=26)[:, 0]
        assert np.allclose(amplitudes(result, x0), q.T @ x0, atol=1e-12)

    def test_amplitude_round_trip(self):
        w = normal_matrix(10, 4, seed=27) + 1j * normal_matrix(10, 4, seed=28)
        a_true = np.array([1.0 + 0.5j, -2.0, 0.25j, 3.0])
        result = self._result(w, np.ones(4))
        assert np.allclose(amplitudes(result, w @ a_true), a_true, atol=1e-10)

    def test_amplitude_round_trip_real_modes(self):
        w = normal_matrix(9, 3, seed=29)
        a_true = np.array([2.0, -1.0, 0.5])
        result = self._result(w, np.ones(3))
        assert np.allclose(amplitudes(result, w @ a_true), a_true, atol=1e-10)

    def test_reconstruct_constant_mode(self):
        w = np.array([[1.0], [2.0]])
        result = self._result(w, [1.0], amps=[1.0])
        out = reconstruct(result, 5)
        assert np.allclose(out, np.tile(w, (1, 5)))

    def test_reconstruct_decay(self):
        result = self._result(np.eye(3)[:, :1], [0.5], amps=[1.0])
        out = reconstruct(result, 4)
        assert np.allclose(out[0], [1.0, 0.5, 0.25, 0.125])
        assert np.allclose(out[1:], 0.0)

    def test_reconstruct_requires_amplitudes(self):
        result = self._result(np.eye(2), [1.0, 0.5])
        with pytest.raises(MissingAmplitudes):
            reconstruct(result, 3)

    def test_noise_free_training_window_reconstruction(self):
        x = rotation_sequence(30, 40, theta=0.45, seed=30)
        result = dmd_deterministic(x, DmdConfig(target_rank=2))
        approx = reconstruct(result, x.shape[1])
        assert np.linalg.norm(x - approx) <= 1e-6 * np.linalg.norm(x)


class TestEigenMatchError:
    def test_identical(self):
        vals = np.array([1.0, 0.5 + 0.5j, 0.5 - 0.5j])
        assert eigen_match_error(vals, vals) == 0.0

    def test_permutation_invariant(self):
        vals = np.array([1.0, -0.5, 0.25 + 0.1j])
        assert eigen_match_error(vals, vals[::-1]) == 0.0

    def test_hand_example(self):
        assert abs(eigen_match_error([1.0, 0.5], [0.5, 0.9]) - 0.1) <= 1e-15

    def test_truncates_to_common_length(self):
        assert eigen_match_error([1.0, 0.5], [1.0, 0.5, 0.1]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            eigen_match_error([], [1.0])

    def test_greedy_vs_brute_force(self):
        def brute_force(ref, tst):
            ref = np.asarray(ref)
            tst = np.asarray(tst)
            best = np.inf
            for perm in itertools.permutations(range(len(tst))):
                worst = max(abs(r - tst[p]) for r, p in zip(ref, perm))
                best = min(best, worst)
            return best

        # greedy upper-bounds the optimal bottleneck matching...
        for seed in range(20):
            ref = normal_matrix(1, 5, seed=200 + seed)[0] + 1j * normal_matrix(
                1, 5, seed=300 + seed
            )[0]
            tst = ref + 0.3 * (
                normal_matrix(1, 5, seed=400 + seed)[0]
                + 1j * normal_matrix(1, 5, seed=500 + seed)[0]
            )
            assert eigen_match_error(ref, tst) >= brute_force(ref, tst) - 1e-12
        # ...and equals it when perturbations are small against separation
        base = np.array([2.0, 1.0 + 1.0j, 1.0 - 1.0j, -1.5, 0.25])
        for seed in range(10):
            noise = normal_matrix(1, 5, seed=600 + seed)[0] * 0.01
            assert (
                abs(eigen_match_error(base, base + noise) - brute_force(base, base + noise))
                <= 1e-12
            )


class TestCrossMethodInvariants:
    def test_oracle_equivalence_on_exact_rank(self):
        specs = [ModeSpec(0.98), ModeSpec(0.95 * np.exp(0.6j), amplitude=0.5)]
        truth = synth_linear_dynamics(150, 60, specs, seed=31)
        x = truth.clean_data
        det = dmd_deterministic(x, DmdConfig(target_rank=3))
        rnd = dmd_randomized(
            x,
            DmdConfig(
                target_rank=3, method="randomized", oversampling=10, power_iters=2, seed=32
            ),
        )
        cmp_res = dmd_compressed(
            x,
            DmdConfig(target_rank=3, method="compressed"),
            operator=identity_sampling_operator(150),
        )
        assert eigen_match_error(det.eigenvalues, rnd.eigenvalues) <= 1e-6
        assert eigen_match_error(det.eigenvalues, cmp_res.eigenvalues) <= 1e-10

    def test_spectrum_conjugacy_all_methods(self):
        specs = [ModeSpec(0.99 * np.exp(0.3j)), ModeSpec(0.9)]
        truth = synth_linear_dynamics(100, 50, specs, seed=33)
        noisy = add_noise(truth.clean_data, 10.0, seed=34)
        configs = [
            DmdConfig(target_rank=3),
            DmdConfig(target_rank=3, method="deterministic_exact"),
            DmdConfig(
                target_rank=3, method="randomized", oversampling=5, power_iters=1, seed=35
            ),
            DmdConfig(
                target_rank=3,
                method="compressed",
                compress_dim=40,
                seed=36,
            ),
        ]
        for cfg in configs:
            result = run_dmd(noisy, cfg)
            vals = result.eigenvalues
            paired = np.sort_complex(vals)
            assert np.allclose(paired, np.sort_complex(vals.conjugate()), atol=1e-10)
            # conjugate eigenvalue pairs carry conjugate modes
            for i, lam in enumerate(vals):
                if lam.imag > 1e-8:
                    j = int(np.argmin(np.abs(vals - lam.conjugate())))
                    assert np.allclose(
                        result.modes[:, i].conjugate(), result.modes[:, j], atol=1e-8
                    )

    def test_rank_truncation_regularizes_noisy_spectra(self):
        specs = [
            ModeSpec(1.0),
            ModeSpec(0.995 * np.exp(0.4j), amplitude=0.7),
            ModeSpec(0.97 * np.exp(1.1j), amplitude=0.4),
        ]
        truth = synth_linear_dynamics(200, 60, specs, seed=11)
        k_full = min(truth.clean_data.shape[0], truth.clean_data.shape[1] - 1)
        errs_truncated, errs_full = [], []
        for s in range(20):
            noisy = add_noise(truth.clean_data, 10.0, seed=5000 + s)
            r5 = dmd_deterministic(noisy, DmdConfig(target_rank=5))
            rf = dmd_deterministic(noisy, DmdConfig(target_rank=k_full))
            errs_truncated.append(eigen_match_error(truth.eigenvalues, r5.eigenvalues))
            errs_full.append(eigen_match_error(truth.eigenvalues, rf.eigenvalues))
        assert np.mean(errs_truncated) < np.mean(errs_full)

    def test_tikhonov_config_runs_end_to_end(self):
        x = rotation_sequence(40, 30, theta=0.4, seed=37)
        result = dmd_deterministic(
            x, DmdConfig(target_rank=2, regularization=FilterSpec.tikhonov(1e-6))
        )
        expected = [np.exp(0.4j), np.exp(-0.4j)]
        assert eigen_match_error(expected, result.eigenvalues) <= 1e-4


class TestTallPeakMemory:
    # 20000 x 100: an n x c intermediate (16 MB) would dwarf what the tall
    # paths need, the n x k result, one 4096-row chunk and c x c factors
    N, C, K = 20_000, 100, 5

    @staticmethod
    def traced_peak(run) -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_truncated_svd_holds_one_chunk_besides_u_k(self):
        x = normal_matrix(self.N, self.C, seed=52)
        peak = self.traced_peak(lambda: truncated_svd(x, self.K))
        assert peak < 1.5 * (self.N * self.K + 4096 * self.C + self.C**2) * 8

    # a Fortran-ordered input is not copied on its way to the sketch
    @pytest.mark.parametrize(
        "method, order",
        [("deterministic_projected", "C"), ("randomized", "C"), ("randomized", "F")],
        ids=["deterministic_projected", "randomized", "randomized-fortran"],
    )
    def test_dmd_forms_no_n_by_c_buffer(self, method, order):
        x = np.asarray(normal_matrix(self.N, self.C, seed=53), order=order)
        cfg = DmdConfig(target_rank=self.K, method=method)
        peak = self.traced_peak(lambda: run_dmd(x, cfg))
        assert peak < x.nbytes
        if method == "randomized":
            # the n x l sketch buffers, and no complex copy of the basis Q
            assert peak < 3 * self.N * cfg.sketch.sketch_size * 8
