import dataclasses
import itertools
import sys
import warnings

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
    eigen_match_error,
    identity_sampling_operator,
    low_dim_operator,
    open_row_blocks,
    pseudoinverse,
    randomized_qb,
    reconstruct,
    run_dmd,
    split_snapshots,
    synth_linear_dynamics,
    truncated_svd,
    uniform_sampling_operator,
    write_sms,
)
from rdmd.dmd import METHODS, DmdResult, SnapshotSplit
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

from conftest import matrix_with_spectrum, rotation_sequence, write_v1_sms


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
        import rdmd.linalg
        from rdmd.linalg import _gram_ritz_svd, _streamed_gram

        specs = [ModeSpec(0.99 * np.exp(0.3j)), ModeSpec(0.9), ModeSpec(0.8 * np.exp(1.2j))]
        truth = synth_linear_dynamics(2000, 40, specs, seed=38)
        x = add_noise(truth.clean_data, 10.0, seed=39)
        left = split_snapshots(x).left
        assert _gram_ritz_svd(left, _streamed_gram(left), 5) is not None  # the Gram path runs
        cfg = DmdConfig(target_rank=5, method=method)
        fast = dmd_deterministic(x, cfg)
        # the Gram path declined, the one-block SVD falls back to the slice
        # of the economic SVD of the held block
        monkeypatch.setattr(rdmd.linalg, "_gram_ritz_svd", lambda *args: None)
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

    @pytest.mark.parametrize("half", ["left", "right"])
    def test_names_a_bad_entry_of_either_half(self, half):
        halves = {"left": normal_matrix(10, 12, seed=8), "right": normal_matrix(10, 12, seed=9)}
        halves[half][4, 7] = np.nan
        with pytest.raises(NonFiniteInput, match="^row 4, column 7 is nan$") as info:
            low_dim_operator(SnapshotSplit(**halves), 3)
        assert info.value.row == 4

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
    "blocked-3": lambda x: dmd_randomized(ArrayRowBlockSource(x, 3), _RANDOMIZED),
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
            # B = U_k^T X as the pass that writes U_k sums it
            f = truncated_svd(x, 3, x.shape[1] - 1)
            assert np.array_equal(fit.data, f.projected)
            np.testing.assert_allclose(fit.data, f.u.T @ x, rtol=1e-12, atol=1e-14)
            assert np.abs(f.u @ fit.modes - result.modes).max() <= 1e-14
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
        (lambda x, cfg: dmd_randomized(ArrayRowBlockSource(x, 2), cfg),
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
            lambda: dmd_randomized(ArrayRowBlockSource(x, 1), cfg),
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

    def test_gaussian_compression_peak_memory_stays_near_the_input(self, numpy_bases):
        # S (50 x n) is drawn a tile at a time, so the peak is the pipeline's
        # n x k buffers, not the 50 x n mixer and its draw temporaries; the
        # exact-style basis is counted (`numpy_bases`)
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


    @pytest.mark.parametrize("method", [
        "deterministic_projected", "deterministic_exact", "randomized", "compressed",
    ])
    def test_overflowed_norm_of_finite_input(self, method):
        # every entry is finite, but ||X||_F^2 is above the float64 range
        uniform = 1e300 * np.tile(np.linspace(1.0, 2.0, 20), (50, 1))
        # one column of 1e307: X Omega stays finite, but the sketch's
        # B = Q^T X overflows, and B's entries are not the input's
        column = normal_matrix(2000, 21, seed=53)
        column[:, 3] = 1e307
        runs = [(uniform, 2, 2), (column, 3, 2)]
        if method == "randomized":
            runs.append((column, 3, 0))
        for x, k, q in runs:
            cfg = DmdConfig(target_rank=k, method=method, power_iters=q, compress_dim=10)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                    NonFiniteInput, match="^a product of the finite input overflowed$"
                ) as info:
                    run_dmd(x, cfg)
            assert info.value.row is None


class TestReadOnlyInput:
    """No variant writes into its input: a mapped SMS file is read-only."""

    X = add_noise(rotation_sequence(120, 41, theta=0.4, seed=71), snr=20.0, seed=72)

    @pytest.mark.parametrize("method", [*METHODS, "blocked"])
    def test_outputs_equal_those_of_a_writable_copy(self, method):
        def run(x):
            if method == "blocked":
                return dmd_randomized(ArrayRowBlockSource(x, 3), DmdConfig(target_rank=2))
            return run_dmd(x, DmdConfig(target_rank=2, method=method, compress_dim=30))

        frozen = self.X.copy()
        frozen.setflags(write=False)
        got, want = run(frozen), run(self.X.copy())
        for name in ("eigenvalues", "modes", "amplitudes"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert np.array_equal(frozen, self.X)


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
    # paths need, the n x k result, one 4096-row chunk and c x c factors.
    # Every basis is counted (`numpy_bases`), and held through the lift.
    N, C, K = 20_000, 100, 5

    @pytest.fixture(autouse=True)
    def _count_bases(self, numpy_bases):
        pass

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

    # a Fortran-ordered input is not copied on its way to the sketch; on
    # noise-free data of rank 3 < k (and < l), the rank rule folds chunks
    # of X or of the sketch, and no n x c or whole-basis QR buffer is formed
    @pytest.mark.parametrize(
        "method, order, rank",
        [("deterministic_projected", "C", None), ("randomized", "C", None),
         ("randomized", "F", None), ("deterministic_projected", "C", 3),
         ("randomized", "C", 3)],
        ids=["deterministic_projected", "randomized", "randomized-fortran",
             "deterministic_projected-rank_below_k", "randomized-rank_below_l"],
    )
    def test_dmd_forms_no_n_by_c_buffer(self, method, order, rank):
        if rank is None:
            x = normal_matrix(self.N, self.C, seed=53)
        else:
            x = normal_matrix(self.N, rank, seed=53) @ normal_matrix(rank, self.C, seed=54)
        x = np.asarray(x, order=order)
        cfg = DmdConfig(target_rank=self.K, method=method)
        peak = self.traced_peak(lambda: run_dmd(x, cfg))
        assert peak < x.nbytes
        if method == "randomized":
            # the n x l sketch buffers, and no complex copy of the basis Q
            assert peak < 3 * self.N * cfg.sketch.sketch_size * 8


    # A blocked run holds one block (a view of the map for a version 2
    # file, a copy for a version 1 file), the one n x l sketch basis and
    # the n x k complex modes. Measured over 20000-40000 rows, 20-200
    # columns, b = 1-8 and versions 1 and 2 at the default oversampling, the
    # peak was 0.12-1.55 x (block + basis).
    @pytest.mark.parametrize("blocks", [1, 4])
    @pytest.mark.parametrize("version", [1, 2])
    def test_blocked_peak_is_block_plus_bases(self, tmp_path, version, blocks):
        x = normal_matrix(self.N, 40, seed=54)
        path = tmp_path / "x.sms"
        if version == 1:
            write_v1_sms(path, x)
        else:
            write_sms(x, path)
        cfg = DmdConfig(target_rank=self.K, method="randomized")
        with open_row_blocks(path, blocks) as source:
            block = source.block_ranges[0][1] * source.cols * 8
            peak = self.traced_peak(lambda: dmd_randomized(source, cfg))
        assert peak <= 2 * (block + self.N * cfg.sketch.sketch_size * 8)


class TestReleasingLift:
    """The pipeline hands its basis back chunk by chunk as it lifts the
    modes (`apply_q` with release_q); that must not change a bit of them."""

    # several chunks and a partial one, and 32 blocks thinner than a chunk
    N = 3 * 4096 + 1000

    @pytest.mark.parametrize("blocks", [1, 32])
    @pytest.mark.parametrize("method", METHODS)
    def test_equals_the_plain_lift(self, monkeypatch, method, blocks):
        from rdmd import linalg

        x = normal_matrix(self.N, 3, seed=80) @ normal_matrix(3, 24, seed=81)
        x += 0.1 * normal_matrix(self.N, 24, seed=82)
        cfg = DmdConfig(target_rank=3, method=method, compress_dim=12, seed=83)
        released = []
        inner = linalg.release_basis_rows

        def recording(a, start, stop):
            released.append((a, start, stop))
            inner(a, start, stop)

        monkeypatch.setattr(linalg, "release_basis_rows", recording)
        got = run_dmd(ArrayRowBlockSource(x, blocks), cfg)
        monkeypatch.setattr(linalg, "release_basis_rows", lambda a, start, stop: None)
        plain = run_dmd(ArrayRowBlockSource(x, blocks), cfg)
        for field in ("eigenvalues", "modes", "amplitudes"):
            assert getattr(got, field).tobytes() == getattr(plain, field).tobytes()
        assert got.sketch.modes.tobytes() == plain.sketch.modes.tobytes()
        # one basis, handed back a chunk at a time, all of it
        basis = released[0][0]
        assert all(a is basis for a, _, _ in released)
        assert [(lo, hi) for _, lo, hi in released] == [
            (lo, lo + 4096) for lo in range(0, self.N, 4096)
        ]
        if sys.platform == "linux":  # MADV_DONTNEED zero-fills there
            assert not basis[4096 : 3 * 4096].any()


    @pytest.mark.parametrize("method", METHODS)
    def test_every_variant_lifts_through_apply_q(self, monkeypatch, method):
        # one lift per run, through the one function that lifts a frame
        import rdmd.dmd

        calls = []
        inner = rdmd.dmd.apply_q

        def spy(qb, v, **kwargs):
            calls.append((qb.q.shape, v.shape, kwargs))
            return inner(qb, v, **kwargs)

        monkeypatch.setattr(rdmd.dmd, "apply_q", spy)
        x = normal_matrix(500, 3, seed=80) @ normal_matrix(3, 24, seed=81)
        x += 0.1 * normal_matrix(500, 24, seed=82)
        cfg = DmdConfig(target_rank=3, method=method, compress_dim=12, seed=83)
        result = run_dmd(x, cfg)
        l = cfg.sketch.sketch_size if method == "randomized" else 3
        assert calls == [((500, l), (l, 3), {"release_q": True})]
        assert result.modes.shape == (500, 3)


class _CountingSource(ArrayRowBlockSource):
    """An in-memory row-block source that logs the block of every read."""

    def __init__(self, x, block_count):
        super().__init__(x, block_count)
        self.reads = []

    def read_block(self, i):
        self.reads.append(i)
        return super().read_block(i)


class TestSourceWalk:
    """Every method runs on a row-block source, reads it in whole passes,
    and gives the one-block result at any block count."""

    N, M = 10_000, 41
    CASES = {
        "projected": DmdConfig(target_rank=5),
        "exact": DmdConfig(target_rank=5, method="deterministic_exact"),
        "compressed_gaussian": DmdConfig(target_rank=5, method="compressed", seed=3),
        "compressed_uniform": DmdConfig(
            target_rank=5, method="compressed", sampling="uniform_rows", compress_dim=400,
            seed=3,
        ),
        "randomized": DmdConfig(target_rank=5, method="randomized", power_iters=2, seed=3),
    }

    # passes per block: the Gram and U_k passes, the Gram resolving the five
    # directions (and the exact basis); S X with ||X||^2, then the basis;
    # q + 1 for the range finder. The source counts each walk as a pass.
    @pytest.mark.parametrize("case, passes", [
        ("projected", 2), ("exact", 3), ("compressed_gaussian", 2),
        ("compressed_uniform", 2), ("randomized", 3),
    ])
    def test_reads_per_block(self, case, passes):
        source = _CountingSource(TestPassesOverX.noisy(self.N, self.M), 4)
        run_dmd(source, self.CASES[case])
        assert source.reads == [0, 1, 2, 3] * passes
        assert source.passes == passes

    @pytest.mark.parametrize("case", ["projected", "exact", "compressed_gaussian",
                                      "compressed_uniform"])
    def test_in_memory_run_is_the_one_block_call(self, case):
        x = TestPassesOverX.noisy(2000, self.M)
        cfg = self.CASES[case]
        plain = run_dmd(x, cfg)
        one = run_dmd(ArrayRowBlockSource(x, 1), cfg)
        for name in ("eigenvalues", "modes", "amplitudes", "low_dim_eigvecs"):
            assert getattr(plain, name).tobytes() == getattr(one, name).tobytes()
        assert plain.sketch.data.tobytes() == one.sketch.data.tobytes()

    # blocks of 2500 rows cut the 4096-row chunks and the 16384-row tiles of
    # the Gaussian S off their one-block positions
    @pytest.mark.parametrize("case", ["projected", "exact", "compressed_gaussian",
                                      "compressed_uniform"])
    def test_blocked_equals_one_block(self, case):
        x = TestPassesOverX.noisy(self.N, self.M)
        cfg = self.CASES[case]
        one = run_dmd(ArrayRowBlockSource(x, 1), cfg)
        four = run_dmd(ArrayRowBlockSource(x, 4), cfg)
        assert four.diagnostics["config"]["blocks"] == 4
        for name in ("eigenvalues", "modes", "amplitudes"):
            want, got = getattr(one, name), getattr(four, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_late_non_finite_entry_named_alike_at_any_block_count(self, case):
        x = TestPassesOverX.noisy(self.N, self.M)
        x[9000, 17] = np.nan  # in the last chunk of block 3 of 4
        for blocks in (1, 4):
            with pytest.raises(NonFiniteInput) as info:
                run_dmd(ArrayRowBlockSource(x, blocks), self.CASES[case])
            assert str(info.value) == "row 9000, column 17 is nan"
            assert info.value.row == 9000

    @pytest.mark.parametrize("sampling", ["gaussian", "uniform_rows"])
    def test_rank_deficient_basis_keeps_the_resolved_rank(self, sampling):
        # noise-free rank 2 at k = 3: S X's third singular value lies below
        # the rank tolerance and is dropped, so the operator is 2 x 2, the
        # exact-style basis has two resolved columns, CholeskyQR2 accepts
        # it, and X is read twice (S X, then the basis with Q^T X)
        x = rotation_sequence(4000, 30, theta=0.4, seed=3)
        source = _CountingSource(x, 4)
        cfg = DmdConfig(target_rank=3, method="compressed", sampling=sampling,
                        compress_dim=20, seed=2)
        result = run_dmd(source, cfg)
        assert source.reads == [0, 1, 2, 3] * 2
        expected = [np.exp(0.4j), np.exp(-0.4j)]
        assert result.eigenvalues.size == 2
        assert result.diagnostics["config"]["effective_rank"] == 2
        assert eigen_match_error(expected, result.eigenvalues) <= 1e-8
        # B is Q^T X: the reconstruction error from the coordinates is the
        # dense one
        fit = result.sketch
        steps = x.shape[1]
        coords = reconstruct(dataclasses.replace(result, modes=fit.modes), steps)
        identity = fit.data_sq_norm - np.sum(fit.data**2) + np.sum((fit.data - coords) ** 2)
        dense = np.sum((x - reconstruct(result, steps)) ** 2)
        assert abs(identity - dense) <= 1e-10 * fit.data_sq_norm

    @pytest.mark.parametrize("method", ["compressed", "randomized"])
    def test_cholesky_qr2_runs_once_per_basis(self, method, monkeypatch):
        # noise-free rank 2 at k = 3: CholeskyQR2 rejects the first sketch,
        # whose resolved directions then take one more basis pass rather
        # than a second CholeskyQR2 of the same basis; the exact-style
        # basis keeps only the 2 resolved triplets, so it is accepted
        import rdmd.linalg

        seen = []
        inner = rdmd.linalg._cholesky_qr2

        def spy(a, gram=None):
            seen.append(a)
            return inner(a, gram)

        monkeypatch.setattr(rdmd.linalg, "_cholesky_qr2", spy)
        x = rotation_sequence(4000, 30, theta=0.4, seed=3)
        cfg = DmdConfig(target_rank=3, method=method, compress_dim=20, seed=2)
        result = run_dmd(_CountingSource(x, 4), cfg)
        assert eigen_match_error([np.exp(0.4j), np.exp(-0.4j)], result.eigenvalues) <= 1e-8
        assert seen and len({id(a) for a in seen}) == len(seen)

    def test_rank_below_k_keeps_the_resolved_rank_at_any_block_count(self):
        # rank 3 < k: the Gram resolves fewer than k directions and its
        # Cholesky factorization fails, so Rayleigh-Ritz declines and the
        # R-fold keeps the 3 resolved directions, chunk by chunk at any
        # block count
        x = normal_matrix(3000, 3, seed=11) @ normal_matrix(3, 41, seed=12)
        cfg = DmdConfig(target_rank=5)
        one = run_dmd(ArrayRowBlockSource(x, 1), cfg)
        assert one.eigenvalues.tobytes() == dmd_deterministic(x, cfg).eigenvalues.tobytes()
        four = run_dmd(ArrayRowBlockSource(x, 4), cfg)
        for result in (one, four):
            assert result.eigenvalues.size == result.modes.shape[1] == 3
            assert result.diagnostics["config"]["effective_rank"] == 3
        assert eigen_match_error(one.eigenvalues, four.eigenvalues) <= 1e-12


class TestPassesOverX:
    """How often each variant reads the n-row data, and which n-row products
    it forms."""

    N, M = 10_000, 41

    @staticmethod
    def noisy(n, m):
        specs = [ModeSpec(0.99 * np.exp(0.3j)), ModeSpec(0.9), ModeSpec(0.8 * np.exp(1.2j))]
        return add_noise(synth_linear_dynamics(n, m - 1, specs, seed=72).clean_data, 10.0, seed=73)

    def test_projected_deterministic_reads_x_twice(self):
        # the Gram pass, and the pass that writes U_k and sums U_k^T X, which
        # is the Rayleigh-Ritz step where the Gram resolves the k directions,
        # as it does at SNR 10; ||X||_F^2 is the Gram's trace, and the
        # all-zero check reads the Gram. Each pass is one `row_chunks` walk,
        # which reads the one block once.
        x = self.noisy(self.N, self.M)
        source = _CountingSource(x, 1)
        result = dmd_deterministic(source, DmdConfig(target_rank=5))
        assert source.reads == [0, 0]
        assert result.eigenvalues.tobytes() == dmd_deterministic(
            x, DmdConfig(target_rank=5)
        ).eigenvalues.tobytes()

    @pytest.mark.parametrize("case, passes", [
        # r < k = c on full-rank data: Rayleigh-Ritz takes l = c directions,
        # then its Ritz pass and U_k
        ("kappa_1e7", 3),
        # rank 3 < k: Rayleigh-Ritz rejects the Gram, then the R-fold reads
        # X and U_r takes its pass
        ("rank_below_k", 3),
    ])
    def test_truncated_svd_fallback_forms_the_gram_once(self, monkeypatch, case, passes):
        # the Gram pass is the only one before Rayleigh-Ritz accepts or
        # rejects the input: the fallback pays no second Gram pass. Each
        # pass is one `row_chunks` walk, which reads the one block once.
        import rdmd.linalg

        if case == "kappa_1e7":
            x, k = matrix_with_spectrum(3000, 50, np.logspace(0, -7, 50), seed=19), 50
        else:
            x, k = normal_matrix(3000, 3, seed=11) @ normal_matrix(3, 50, seed=12), 5
        source = _CountingSource(x, 1)
        ritz = []
        inner = rdmd.linalg._gram_ritz_svd
        monkeypatch.setattr(
            rdmd.linalg, "_gram_ritz_svd", lambda *args: ritz.append(inner(*args)) or ritz[-1]
        )
        truncated_svd(source, k)
        assert len(ritz) == 1 and (ritz[0] is None) == (case == "rank_below_k")
        assert source.reads == [0] * passes

    @pytest.mark.parametrize("method, products", [
        ("deterministic_projected", 1),  # U_k, the Gram resolving k directions
        ("deterministic_exact", 2),  # U_k and X_R V_k S_k^-1
        ("compressed", 1),  # X_R V_k S_k^-1
        ("randomized", 3),  # X Omega and X Z for each of q = 2 power iterations
    ])
    def test_tall_products_on_n_rows(self, monkeypatch, method, products):
        import rdmd.dmd
        import rdmd.linalg

        x = self.noisy(2000, self.M)
        inner = rdmd.linalg._tall_product
        rows = []

        def spy(a, w, out=None):
            rows.append(a.shape[0])
            return inner(a, w, out=out)

        for module in (rdmd.dmd, rdmd.linalg):
            monkeypatch.setattr(module, "_tall_product", spy)
        run_dmd(x, DmdConfig(target_rank=5, method=method, compress_dim=30, power_iters=2))
        assert rows.count(x.shape[0]) == products

    @pytest.mark.parametrize("method", METHODS)
    def test_all_zero_input_is_degenerate(self, method):
        cfg = DmdConfig(target_rank=3, method=method, compress_dim=20)
        with pytest.raises(DegenerateData):
            run_dmd(np.zeros((200, 30)), cfg)

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_first_row_still_decomposes(self, method):
        # the all-zero check reads the first row and must then scan the rest
        x = rotation_sequence(200, 30, theta=0.5, seed=74)
        x[0] = 0.0
        cfg = DmdConfig(target_rank=2, method=method, oversampling=5, compress_dim=20, seed=3)
        result = run_dmd(x, cfg)
        expected = [np.exp(0.5j), np.exp(-0.5j)]
        assert eigen_match_error(expected, result.eigenvalues) <= 1e-8
