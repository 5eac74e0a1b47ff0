"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import rdmd
from rdmd import (
    DmdConfig,
    FilterSpec,
    ModeSpec,
    SketchConfig,
    SnapshotSplit,
    add_noise,
    dmd_compressed,
    dmd_deterministic,
    dmd_randomized,
    economic_svd,
    eigen_match_error,
    expected_error_bound,
    filter_factors,
    gaussian_test_matrix,
    low_dim_operator,
    open_row_blocks,
    randomized_qb,
    synth_linear_dynamics,
    tikhonov_inverse,
    truncated_svd,
    write_sms,
)
from rdmd.linalg import eig_dense
from rdmd.rng import normal_matrix

from conftest import matrix_with_spectrum


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"[ACCEPTANCE] criterion {number} ({name}): PASS "
        f"in {elapsed:.2f}s (budget {budget_s:.0f}s)"
    )
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


RANK5_SPECS = [
    ModeSpec(1.0),
    ModeSpec(0.995 * np.exp(0.4j), amplitude=0.7),
    ModeSpec(0.97 * np.exp(1.1j), amplitude=0.4),
]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rdmd", *args], capture_output=True, text=True
    )


def test_c1_exact_recovery_oracle():
    with criterion(1, "exact-recovery oracle", 5.0):
        truth = synth_linear_dynamics(500, 100, RANK5_SPECS, seed=3)
        x = truth.clean_data
        det = dmd_deterministic(x, DmdConfig(target_rank=5))
        rnd = dmd_randomized(
            x,
            DmdConfig(
                target_rank=5,
                method="randomized",
                oversampling=10, power_iters=2, seed=101,
            ),
        )
        cmp_res = dmd_compressed(
            x,
            DmdConfig(
                target_rank=5,
                method="compressed",
                compress_dim=50,
                sampling="gaussian",
                seed=102,
            ),
        )
        for result in (det, rnd, cmp_res):
            assert eigen_match_error(truth.eigenvalues, result.eigenvalues) <= 1e-6


def test_c2_expected_error_bound_grid():
    with criterion(2, "expected-error-bound satisfaction", 30.0):
        x = matrix_with_spectrum(100, 80, 2.0 ** -np.arange(1, 81), seed=1234)
        sigma = economic_svd(x).singular_values
        m, n = x.shape[1], x.shape[0]
        for k in (5, 10):
            for p in (5, 10):
                for q in (0, 1, 2):
                    errors = []
                    for seed in range(100):
                        qb = randomized_qb(x, SketchConfig(k, p, q, seed=seed))
                        errors.append(np.linalg.norm(x - qb.q @ (qb.q.T @ x)))
                    bound = expected_error_bound(k, p, q, m, n, sigma[k])
                    assert np.mean(errors) <= bound, (k, p, q)


def test_c3_power_iteration_law():
    with criterion(3, "power-iteration spectrum law", 1.0):
        for seed in (1, 2, 3):
            x = matrix_with_spectrum(10, 8, np.linspace(1.0, 0.5, 8), seed=seed)
            sigma = economic_svd(x).singular_values
            for q in (1, 2):
                powered = x.copy()
                for _ in range(q):
                    powered = (x @ x.T) @ powered
                got = economic_svd(powered).singular_values
                target = sigma ** (2 * q + 1)
                assert np.all(np.abs(got - target) <= 1e-10 * target)


def test_c4_noise_robustness_ordering():
    with criterion(4, "noise-robustness ordering", 60.0):
        truth = synth_linear_dynamics(2000, 150, RANK5_SPECS, seed=21)
        det_errors, rnd_errors, cmp_errors = [], [], []
        for s in range(20):
            noisy = add_noise(truth.clean_data, 10.0, seed=9000 + s)
            det = dmd_deterministic(noisy, DmdConfig(target_rank=5))
            rnd = dmd_randomized(
                noisy,
                DmdConfig(
                    target_rank=5,
                    method="randomized",
                    oversampling=20, power_iters=2, seed=100 + s,  # sketch size 25
                ),
            )
            cmp_res = dmd_compressed(
                noisy,
                DmdConfig(
                    target_rank=5,
                    method="compressed",
                    compress_dim=25,
                    sampling="uniform_rows",
                    seed=100 + s,
                ),
            )
            det_errors.append(eigen_match_error(truth.eigenvalues, det.eigenvalues))
            rnd_errors.append(eigen_match_error(truth.eigenvalues, rnd.eigenvalues))
            cmp_errors.append(eigen_match_error(truth.eigenvalues, cmp_res.eigenvalues))
        det_mean, rnd_mean, cmp_mean = map(np.mean, (det_errors, rnd_errors, cmp_errors))
        assert det_mean <= rnd_mean
        assert rnd_mean < cmp_mean  # strictly better than row sampling


def test_c5_blocked_equivalence(tmp_path):
    with criterion(5, "blocked equivalence", 10.0):
        truth = synth_linear_dynamics(512, 127, RANK5_SPECS, seed=31)
        path = tmp_path / "x512.sms"
        write_sms(truth.clean_data, path)
        cfg = DmdConfig(
            target_rank=5,
            method="randomized",
            oversampling=10, power_iters=2, seed=777,
        )
        for b in (2, 4, 8):
            with open_row_blocks(path, b) as source:
                result = dmd_randomized(source, cfg)
            assert eigen_match_error(truth.eigenvalues, result.eigenvalues) <= 1e-6
        with open_row_blocks(path, 1) as source:
            single = dmd_randomized(source, cfg)
        unblocked = dmd_randomized(rdmd.read_sms(path), cfg)
        assert np.array_equal(single.eigenvalues, unblocked.eigenvalues)
        assert np.array_equal(single.modes, unblocked.modes)
        assert np.array_equal(single.amplitudes, unblocked.amplitudes)
        assert np.array_equal(single.low_dim_eigvecs, unblocked.low_dim_eigvecs)


def test_c6_out_of_core_memory_contract(tmp_path):
    with criterion(6, "out-of-core memory contract", 30.0):
        # the resident set is one chunk of at most 32 MiB, plus the basis
        # and the m x l blocks, at any width; the cap bounds the largest
        # buffer the library notes.
        # file: 640 x 1024 float64 = 5_242_880 bytes
        # largest blocked buffer: one block (80*1024*8 = 655_360); the
        # n x l basis is 640*8*8 = 40_960; the cap covers their sum but is
        # under a quarter of the file
        cap = 1_250_000
        res = run_cli(
            "synth", "--rows", "640", "--snapshots", "1024",
            "--modes", "1.0,0.99+0.1j:0.5,0.98+0.25j:0.25",
            "--seed", "5", "--out", str(tmp_path / "big.sms"),
            "--truth", str(tmp_path / "truth.json"),
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "big.sms").stat().st_size > 4 * cap

        res = run_cli(
            "decompose", "--input", str(tmp_path / "big.sms"), "--method", "rdmd",
            "--rank", "5", "--oversample", "3", "--power-iters", "1",
            "--blocks", "8", "--memory-cap", str(cap), "--seed", "3",
            "--truth", str(tmp_path / "truth.json"), "--out", str(tmp_path / "blk"),
        )
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "blk" / "report.json").read_text())
        assert report["peak_alloc_bytes"] <= cap
        assert report["eigen_match_error"] <= 1e-6

        res = run_cli(
            "decompose", "--input", str(tmp_path / "big.sms"), "--method", "rdmd",
            "--rank", "5", "--oversample", "3", "--power-iters", "1",
            "--memory-cap", str(cap), "--seed", "3", "--out", str(tmp_path / "unblk"),
        )
        assert res.returncode == 1
        assert "MemoryCapExceeded" in res.stderr


def test_c7_regularization_filters():
    with criterion(7, "regularization filters", 1.0):
        assert np.allclose(
            filter_factors([3.0, 1.0], FilterSpec.tikhonov(1.0)), [0.9, 0.5]
        )
        x = normal_matrix(8, 4, seed=15)
        lam = 0.1
        got = tikhonov_inverse(x, lam)
        aug = np.vstack([x, lam * np.eye(4)])
        rhs = np.vstack([np.eye(8), np.zeros((4, 8))])
        oracle = np.linalg.lstsq(aug, rhs, rcond=None)[0]
        assert np.linalg.norm(got - oracle) <= 1e-10


def test_c8_derivation_chain():
    with criterion(8, "low-dimensional eigenvector chain", 5.0):
        checked = 0
        for i in range(50):
            l, m = 8, 30
            k = 4 + (i % 5)  # ranks 4..8 across instances
            bl = normal_matrix(l, m, seed=7000 + i)
            br = normal_matrix(l, m, seed=8000 + i)
            op = low_dim_operator(SnapshotSplit(left=bl, right=br), k)
            pairs = eig_dense(op.operator)
            w_hat = op.right_projected @ pairs.eigenvectors
            f = truncated_svd(bl, k)
            a_hat = br @ ((f.v / f.singular_values) @ f.u.T)
            resid = np.linalg.norm(a_hat @ w_hat - w_hat * pairs.eigenvalues)
            scale = np.linalg.norm(a_hat) * np.linalg.norm(w_hat)
            assert resid <= 1e-8 * scale, i
            checked += 1
        assert checked == 50


def test_c9_determinism_suite(tmp_path):
    with criterion(9, "determinism suite", 5.0):
        assert np.array_equal(
            gaussian_test_matrix(64, 16, seed=5), gaussian_test_matrix(64, 16, seed=5)
        )
        x = normal_matrix(60, 40, seed=6)
        cfg = SketchConfig(6, 6, 2, seed=7)
        qb1, qb2 = randomized_qb(x, cfg), randomized_qb(x, cfg)
        assert np.array_equal(qb1.q, qb2.q)
        assert np.array_equal(qb1.b, qb2.b)

        res = run_cli(
            "synth", "--rows", "120", "--snapshots", "40",
            "--modes", "0.9,0.95+0.2j:0.5", "--seed", "8",
            "--out", str(tmp_path / "d.sms"),
        )
        assert res.returncode == 0, res.stderr
        eig_files = []
        for name in ("a", "b"):
            res = run_cli(
                "decompose", "--input", str(tmp_path / "d.sms"), "--method", "rdmd",
                "--rank", "3", "--seed", "9", "--out", str(tmp_path / name),
            )
            assert res.returncode == 0, res.stderr
            eig_files.append((tmp_path / name / "eigenvalues.csv").read_bytes())
        assert eig_files[0] == eig_files[1]
