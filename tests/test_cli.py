import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import rdmd
from rdmd import cli
from rdmd.blocked import _CHUNK_ROWS, row_chunks
from rdmd.datasets import read_complex_csv, read_complex_matrix
from rdmd.rng import derive_seed, normal_matrix

from conftest import OVERSIZED_SHAPES, write_oversized_sms, write_v1_sms


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "rdmd", *args],
        capture_output=True,
        text=True,
        env=env,
    )


MODES = "1.0,0.995+0.2j:0.5,0.97+0.35j:0.25"  # rank 5 after conjugation


def chunks(data):
    """The (start, rows) chunks of an in-memory matrix."""
    return row_chunks(rdmd.ArrayRowBlockSource(data, 1))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    res = run_cli(
        "synth",
        "--rows", "300",
        "--snapshots", "80",
        "--modes", MODES,
        "--seed", "5",
        "--out", str(root / "x.sms"),
        "--truth", str(root / "truth.json"),
    )
    assert res.returncode == 0, res.stderr
    return root


@pytest.fixture(scope="module")
def noisy_workspace(tmp_path_factory):
    """The workspace data with noise at SNR 10: its randomized reconstruction
    error is far above the threshold of the sketch identity."""
    root = tmp_path_factory.mktemp("cli-noisy")
    res = run_cli(
        "synth", "--rows", "300", "--snapshots", "80", "--modes", MODES,
        "--seed", "5", "--snr", "10", "--out", str(root / "x.sms"),
    )
    assert res.returncode == 0, res.stderr
    return root


class TestSynth:
    def test_writes_data_and_truth(self, workspace):
        data = rdmd.read_sms(workspace / "x.sms")
        assert data.shape == (300, 80)
        truth = json.loads((workspace / "truth.json").read_text())
        assert len(truth["eigenvalues"]) == 5
        assert truth["seed"] == 5

    def test_no_snr_flag_means_clean_data(self, workspace, tmp_path):
        res = run_cli(
            "synth", "--rows", "40", "--snapshots", "10", "--modes", "0.9",
            "--seed", "1", "--out", str(tmp_path / "a.sms"),
        )
        assert res.returncode == 0
        res = run_cli(
            "synth", "--rows", "40", "--snapshots", "10", "--modes", "0.9",
            "--seed", "1", "--snr", "10", "--out", str(tmp_path / "b.sms"),
        )
        assert res.returncode == 0
        a = rdmd.read_sms(tmp_path / "a.sms")
        b = rdmd.read_sms(tmp_path / "b.sms")
        assert a.shape == b.shape
        assert np.any(a != b)
        # clean data is exactly rank 1 here, noisy is not
        assert np.linalg.matrix_rank(a) == 1
        assert np.linalg.matrix_rank(b) > 1

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the mode norms and the n x (m + 1) product of the dynamics make no
        # BLAS call, whose bits change with its thread count at this size
        files = []
        for threads in ("1", "2"):
            files.append(tmp_path / f"threads{threads}.sms")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            res = run_cli(
                "synth", "--rows", "20000", "--snapshots", "11", "--modes", MODES,
                "--seed", "7", "--snr", "10", "--out", str(files[-1]), env=env,
            )
            assert res.returncode == 0, res.stderr
        assert files[0].read_bytes() == files[1].read_bytes()


class TestDecompose:
    def test_deterministic_recovers_truth(self, workspace, tmp_path):
        out = tmp_path / "det"
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "dmd",
            "--rank", "5", "--truth", str(workspace / "truth.json"),
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["eigen_match_error"] <= 1e-8
        assert report["relative_reconstruction_error"] <= 1e-6

    def test_randomized_defaults_echoed(self, workspace, tmp_path):
        out = tmp_path / "rnd"
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "rdmd",
            "--rank", "5", "--seed", "3", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["oversampling"] == 10
        assert report["config"]["power_iters"] == 2

    @pytest.mark.parametrize(
        "flags, read",
        [
            (["--method", "dmd"], {"method": "deterministic_projected"}),
            (
                ["--method", "cdmd", "--compress-dim", "40", "--sampling", "uniform"],
                {"method": "compressed", "seed": 6, "compress_dim": 40,
                 "sampling": "uniform_rows"},
            ),
            (
                ["--method", "rdmd", "--oversample", "4"],
                # the workspace data is noise-free of rank 5, so Q keeps 5
                # of the 9 columns
                {"method": "randomized", "oversampling": 4, "power_iters": 2,
                 "sketch_size": 9, "effective_sketch_size": 5, "seed": 6},
            ),
        ],
        ids=["dmd", "cdmd", "rdmd"],
    )
    def test_config_is_the_library_description(self, workspace, tmp_path, flags, read):
        # the library's field names; None where the method reads no value
        out = tmp_path / "cfg"
        assert cli.main([
            "decompose", "--input", str(workspace / "x.sms"), "--rank", "5",
            "--seed", "6", *flags, "--out", str(out),
        ]) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        unread = dict.fromkeys(
            ("oversampling", "power_iters", "sketch_size", "effective_sketch_size", "seed",
             "compress_dim", "sampling")
        )
        assert config == {
            "input": str(workspace / "x.sms"), "memory_cap": None, "target_rank": 5,
            "effective_rank": 5, "blocks": 1, "regularization": None, **unread, **read,
        }

    def test_report_fidelity_against_emitted_files(self, workspace, noisy_workspace, tmp_path):
        # the clean input takes the streamed pass, the noisy one the identity
        for root in (workspace, noisy_workspace):
            out = tmp_path / root.name
            res = run_cli(
                "decompose", "--input", str(root / "x.sms"), "--method", "rdmd",
                "--rank", "5", "--seed", "9", "--out", str(out),
            )
            assert res.returncode == 0, res.stderr
            report = json.loads((out / "report.json").read_text())
            data = rdmd.read_sms(root / "x.sms")
            modes = read_complex_matrix(out, "modes")
            eigenvalues = read_complex_csv(out / "eigenvalues.csv")
            amps = read_complex_csv(out / "amplitudes.csv")
            powers = eigenvalues[:, None] ** np.arange(data.shape[1])[None, :]
            approx = np.real(modes @ (amps[:, None] * powers))
            recomputed = np.linalg.norm(data - approx) / np.linalg.norm(data)
            assert abs(recomputed - report["relative_reconstruction_error"]) <= 1e-12

    def test_blocked_dmd_runs(self, workspace, tmp_path):
        # every method runs on the row-block source, so --blocks is no longer
        # an rdmd flag
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "dmd",
            "--rank", "5", "--blocks", "4", "--out", str(tmp_path / "blocked"),
        )
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "blocked" / "report.json").read_text())
        assert report["config"]["blocks"] == 4

    @pytest.mark.parametrize("method", ["dmd", "rdmd", "cdmd"])
    def test_rank_above_the_data_reports_its_effective_rank(
        self, workspace, tmp_path, method, capsys
    ):
        # noise-free data of rank 5 at --rank 8: every method keeps the 5
        # directions the data resolves, at one block or several, and the
        # report and the printed line say how many it kept; rdmd's Q keeps
        # 5 of its 18 columns
        out = tmp_path / method
        assert cli.main([
            "decompose", "--input", str(workspace / "x.sms"), "--method", method,
            "--rank", "8", "--blocks", "2", "--seed", "9",
            "--truth", str(workspace / "truth.json"), "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out.startswith(f"{method}: rank 5 (8 requested), ")
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["target_rank"] == 8
        assert report["config"]["effective_rank"] == len(report["eigenvalues"]) == 5
        assert report["config"]["effective_sketch_size"] == (5 if method == "rdmd" else None)
        assert report["eigen_match_error"] <= 1e-8

    @pytest.mark.parametrize("method, rank, noisy, passes", [
        # the Gram resolves the noisy data's 5 directions: its pass, then U_k
        ("dmd", 5, True, 2),
        ("rdmd", 5, True, 3),  # q + 1 at the default q = 2
        ("cdmd", 5, True, 2),  # S X with ||X||^2, then the exact-style basis
        # rank 5 < 8: the Gram, the R-fold and U_r, then the streamed
        # reconstruction-error pass that noise-free data takes
        ("dmd", 8, False, 4),
    ])
    def test_report_counts_the_passes_over_x(
        self, workspace, noisy_workspace, tmp_path, method, rank, noisy, passes
    ):
        root = noisy_workspace if noisy else workspace
        out = tmp_path / method
        assert cli.main([
            "decompose", "--input", str(root / "x.sms"), "--method", method,
            "--rank", str(rank), "--blocks", "2", "--seed", "9", "--out", str(out),
        ]) == 0
        assert json.loads((out / "report.json").read_text())["passes_over_x"] == passes

    def test_noisy_sketch_keeps_every_column(self, noisy_workspace, tmp_path, capsys):
        # noise resolves every direction: Q keeps all k + p columns, and the
        # printed rank is the requested one
        out = tmp_path / "noisy"
        assert cli.main([
            "decompose", "--input", str(noisy_workspace / "x.sms"), "--method", "rdmd",
            "--rank", "5", "--oversample", "7", "--blocks", "2", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out.startswith("rdmd: rank 5, ")
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["sketch_size"] == config["effective_sketch_size"] == 12

    @pytest.mark.parametrize(
        "flags",
        [["--method", "dmd"], ["--method", "cdmd", "--sampling", "gaussian"],
         ["--method", "cdmd", "--sampling", "uniform"]],
        ids=["dmd", "cdmd-gaussian", "cdmd-uniform"],
    )
    def test_blocks_4_equal_blocks_1(self, noisy_workspace, tmp_path, flags):
        outs = []
        for blocks in ("1", "4"):
            out = tmp_path / blocks
            assert cli.main([
                "decompose", "--input", str(noisy_workspace / "x.sms"), *flags,
                "--rank", "5", "--seed", "9", "--blocks", blocks, "--out", str(out),
            ]) == 0
            outs.append((
                read_complex_csv(out / "eigenvalues.csv"),
                read_complex_csv(out / "amplitudes.csv"),
                read_complex_matrix(out, "modes"),
            ))
        for want, got in zip(*outs):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_reproducibility_byte_identical(self, workspace, tmp_path):
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            res = run_cli(
                "decompose", "--input", str(workspace / "x.sms"), "--method", "rdmd",
                "--rank", "5", "--seed", "17", "--out", str(out),
            )
            assert res.returncode == 0, res.stderr
            outputs.append(out)
        a, b = outputs
        assert (a / "eigenvalues.csv").read_bytes() == (b / "eigenvalues.csv").read_bytes()
        assert (a / "amplitudes.csv").read_bytes() == (b / "amplitudes.csv").read_bytes()
        assert (a / "modes_re.sms").read_bytes() == (b / "modes_re.sms").read_bytes()
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        ra.pop("timings"), rb.pop("timings")
        assert ra == rb

    def test_env_seed_fallback(self, workspace, tmp_path):
        import os

        env = dict(os.environ, RDMD_SEED="17")
        out_env = tmp_path / "env"
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "rdmd",
            "--rank", "5", "--out", str(out_env), env=env,
        )
        assert res.returncode == 0, res.stderr
        report = json.loads((out_env / "report.json").read_text())
        assert report["config"]["seed"] == 17


class TestErrors:
    def test_unknown_flag_is_usage_error(self, workspace):
        res = run_cli("decompose", "--input", str(workspace / "x.sms"), "--wat")
        assert res.returncode == 2
        assert "usage" in res.stderr.lower()

    def test_missing_file_is_runtime_error(self, tmp_path):
        res = run_cli(
            "decompose", "--input", str(tmp_path / "missing.sms"),
            "--method", "dmd", "--rank", "2", "--out", str(tmp_path / "o"),
        )
        assert res.returncode == 1
        assert "IoFailure" in res.stderr

    @pytest.mark.parametrize("fault", ["missing", "nan"])
    @pytest.mark.parametrize("command", [["decompose", "--method", "dmd"],
                                         ["bench", "--seeds", "1"]],
                             ids=["decompose", "bench"])
    def test_failed_run_leaves_no_output_directory(self, workspace, tmp_path, command,
                                                   fault):
        from rdmd.datasets import SMS_HEADER_BYTES

        path = tmp_path / "x.sms"
        if fault == "nan":
            cols = rdmd.read_sms(workspace / "x.sms").shape[1]
            path.write_bytes((workspace / "x.sms").read_bytes())
            with open(path, "r+b") as fh:
                fh.seek(SMS_HEADER_BYTES + 8 * (250 * cols + 11))
                fh.write(np.array([np.nan], "<f8").tobytes())
        res = run_cli(*command, "--input", str(path), "--rank", "2",
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert ("IoFailure" if fault == "missing" else "NonFiniteInput") in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shape", OVERSIZED_SHAPES, ids=["1e9x1e9", "2^40x2^30"])
    @pytest.mark.parametrize("command", ["decompose", "reconstruct"])
    def test_header_larger_than_the_file_is_runtime_error(self, workspace, tmp_path,
                                                          command, shape):
        if command == "decompose":
            write_oversized_sms(tmp_path / "x.sms", *shape)
            args = ["--input", str(tmp_path / "x.sms"), "--method", "rdmd", "--rank", "5"]
        else:
            res = run_cli(
                "decompose", "--input", str(workspace / "x.sms"), "--method", "dmd",
                "--rank", "5", "--out", str(tmp_path / "dec"),
            )
            assert res.returncode == 0, res.stderr
            write_oversized_sms(tmp_path / "dec" / "modes_re.sms", *shape)
            args = ["--modes", str(tmp_path / "dec"), "--steps", "80"]
        res = run_cli(command, *args, "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert res.stderr.startswith("TruncatedPayload: ")
        assert "Traceback" not in res.stderr
        # decompose's output directory, or reconstruct's output file
        assert not (tmp_path / "o").is_file()
        assert not (tmp_path / "o" / "report.json").exists()

    def test_rank_error_is_runtime_error(self, workspace, tmp_path):
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "dmd",
            "--rank", "5000", "--out", str(tmp_path / "o"),
        )
        assert res.returncode == 1
        assert "RankOutOfRange" in res.stderr

    @pytest.mark.parametrize("shape", [(0, 80), (300, 0)], ids=["no-rows", "no-columns"])
    @pytest.mark.parametrize(
        "flags",
        [["--method", "rdmd", "--blocks", "1"], ["--method", "rdmd", "--blocks", "2"],
         ["--method", "dmd", "--blocks", "1"], ["--method", "dmd", "--blocks", "2"],
         ["--method", "cdmd", "--blocks", "2"]],
        ids=["rdmd-1", "rdmd-2", "dmd-1", "dmd-2", "cdmd-2"],
    )
    def test_empty_payload_is_shape_mismatch(self, tmp_path, capsys, shape, flags):
        from rdmd.datasets import _sms_header

        path = tmp_path / "empty.sms"
        path.write_bytes(_sms_header(*shape))
        code = cli.main([
            "decompose", "--input", str(path), *flags, "--rank", "5",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        rows, cols = shape
        assert capsys.readouterr().err == (
            f"ShapeMismatch: {path}: empty {rows} x {cols} payload\n"
        )

    def test_failed_blocked_run_closes_its_source(self, workspace, tmp_path,
                                                   monkeypatch, capsys):
        opened = []

        def open_and_record(path, block_count):
            source = rdmd.open_row_blocks(path, block_count)
            opened.append(source)
            return source

        monkeypatch.setattr(cli, "open_row_blocks", open_and_record)
        # a sketch of 5 + 80 columns does not fit the 80 snapshots
        code = cli.main([
            "decompose", "--input", str(workspace / "x.sms"), "--method", "rdmd",
            "--rank", "5", "--oversample", "80", "--blocks", "30",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "RankOutOfRange" in capsys.readouterr().err
        assert len(opened) == 1 and opened[0]._fh.closed


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "rdmd", "--blocks", "1"],
            ["--method", "rdmd", "--blocks", "3"],
            ["--method", "dmd"],
            ["--method", "cdmd", "--sampling", "gaussian"],
            ["--method", "cdmd", "--sampling", "uniform"],
        ],
        ids=["1", "3", "dmd", "cdmd-gaussian", "cdmd-uniform"],
    )
    def test_non_finite_input_is_runtime_error(self, workspace, tmp_path, value, flags):
        from rdmd.datasets import SMS_HEADER_BYTES

        data = rdmd.read_sms(workspace / "x.sms")
        path = tmp_path / "bad.sms"
        rdmd.write_sms(data, path)
        # write_sms refuses non-finite values, so patch one into the payload
        row, col = 250, 11
        with open(path, "r+b") as fh:
            fh.seek(SMS_HEADER_BYTES + 8 * (row * data.shape[1] + col))
            fh.write(np.array([value], "<f8").tobytes())
        res = run_cli(
            "decompose", "--input", str(path), *flags, "--rank", "5",
            "--out", str(tmp_path / "o"),
        )
        assert res.returncode == 1
        assert "NonFiniteInput" in res.stderr
        assert "Traceback" not in res.stderr
        # with --blocks 3 the entry is in block 2 (rows 200..299): the
        # message names it alike
        assert res.stderr == f"NonFiniteInput: row {row}, column {col} is {value}\n"
        assert not (tmp_path / "o" / "report.json").exists()


    @pytest.mark.parametrize("flags", [
        ["decompose", "--method", "dmd"],
        ["decompose", "--method", "rdmd", "--oversample", "2"],
        ["decompose", "--method", "rdmd", "--oversample", "2", "--blocks", "2"],
        ["decompose", "--method", "cdmd", "--compress-dim", "10"],
        ["qb"],
    ], ids=["dmd", "rdmd", "rdmd-blocked", "cdmd", "qb"])
    def test_overflowed_norm_of_finite_input_is_runtime_error(self, tmp_path, flags):
        # every entry is finite, but ||X||_F^2 is above the float64 range
        path = tmp_path / "big.sms"
        rdmd.write_sms(1e300 * np.tile(np.linspace(1.0, 2.0, 20), (50, 1)), path)
        out = ["--out", str(tmp_path / "o")] if flags[0] == "decompose" else []
        res = run_cli(*flags, "--input", str(path), "--rank", "2", *out)
        assert res.returncode == 1
        assert res.stderr == "NonFiniteInput: a product of the finite input overflowed\n"
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--modes", "100:1"], "the dynamics overflow float64 within 200 steps "
             "(largest |eigenvalue| 100)"),
            (["--modes", "30:1", "--snr", "10"], "the noise scale overflows: "
             "sqrt(var(X) / snr) = inf"),
        ],
        ids=["dynamics", "noise-scale"],
    )
    def test_overflowing_synth_is_runtime_error(self, tmp_path, flags, message):
        # warnings are errors in the child, so one that escapes shows as a
        # traceback or an extra stderr line
        env = dict(os.environ, PYTHONWARNINGS="error")
        out = tmp_path / "x.sms"
        res = run_cli(
            "synth", "--rows", "10", "--snapshots", "201", *flags, "--out", str(out),
            env=env,
        )
        assert res.returncode == 1
        assert res.stderr == f"NonFiniteInput: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestVersion1Files:
    """SMS files written before the padded version 2 header still work."""

    @pytest.mark.parametrize("flags", [
        ["--method", "rdmd"], ["--method", "rdmd", "--blocks", "3"], ["--method", "dmd"],
    ], ids=["rdmd", "rdmd-blocked", "dmd"])
    def test_decompose_version_1_input(self, workspace, tmp_path, flags):
        write_v1_sms(tmp_path / "v1.sms", rdmd.read_sms(workspace / "x.sms"))
        for name, path in (("v1", tmp_path / "v1.sms"), ("v2", workspace / "x.sms")):
            res = run_cli(
                "decompose", "--input", str(path), *flags, "--rank", "5",
                "--out", str(tmp_path / name),
            )
            assert res.returncode == 0, res.stderr
        for name in ("eigenvalues.csv", "amplitudes.csv", "modes_re.sms", "modes_im.sms"):
            assert (tmp_path / "v1" / name).read_bytes() == (tmp_path / "v2" / name).read_bytes()

    def test_reconstruct_is_the_product_by_row_chunks(self, tmp_path):
        # the output is written one 4096-row chunk of the modes at a time:
        # bit for bit each chunk's own product, and the one-GEMM product of
        # all the modes to rounding
        n = 2 * _CHUNK_ROWS + 7
        x = normal_matrix(n, 3, seed=64) @ normal_matrix(3, 12, seed=65)
        rdmd.write_sms(x, tmp_path / "x.sms")
        dec = tmp_path / "dec"
        assert cli.main([
            "decompose", "--input", str(tmp_path / "x.sms"), "--method", "dmd",
            "--rank", "3", "--out", str(dec),
        ]) == 0
        assert cli.main([
            "reconstruct", "--modes", str(dec), "--steps", "30",
            "--out", str(tmp_path / "r.sms"),
        ]) == 0
        result = rdmd.DmdResult(
            eigenvalues=read_complex_csv(dec / "eigenvalues.csv"),
            modes=read_complex_matrix(dec, "modes"),
            low_dim_eigvecs=np.eye(3, dtype=np.complex128),
            amplitudes=read_complex_csv(dec / "amplitudes.csv"),
            method="deterministic_projected",
        )
        got = rdmd.read_sms(tmp_path / "r.sms")
        chunked = np.vstack([
            rdmd.reconstruct(replace(result, modes=result.modes[lo : lo + _CHUNK_ROWS]), 30)
            for lo in range(0, n, _CHUNK_ROWS)
        ])
        assert got.tobytes() == chunked.tobytes()
        dense = rdmd.reconstruct(result, 30)
        assert np.max(np.abs(got - dense)) <= 1e-15 * np.max(np.abs(dense))

    def test_reconstruct_version_1_modes(self, workspace, tmp_path):
        dec = tmp_path / "dec"
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "dmd",
            "--rank", "5", "--out", str(dec),
        )
        assert res.returncode == 0, res.stderr
        outputs = []
        for name in ("v2", "v1"):
            if name == "v1":
                for part in ("re", "im"):
                    path = dec / f"modes_{part}.sms"
                    write_v1_sms(path, rdmd.read_sms(path).copy())
            res = run_cli(
                "reconstruct", "--modes", str(dec), "--steps", "80",
                "--out", str(tmp_path / f"{name}.sms"),
            )
            assert res.returncode == 0, res.stderr
            outputs.append((tmp_path / f"{name}.sms").read_bytes())
        assert outputs[0] == outputs[1]


class TestUsageErrors:
    """Numeric flags are checked where they are parsed: a bad value exits 2
    with the usage line and the flag's name, before any file is read."""

    RUN = {
        "synth": ["--rows", "40", "--snapshots", "10", "--modes", "0.9"],
        "decompose": ["--method", "rdmd", "--rank", "5"],
        "bench": ["--rank", "5"],
        "qb": ["--rank", "5"],
        "reconstruct": ["--modes", "no-such-dir"],
    }

    CASES = [
        ("decompose", ["--blocks", "0"], None),
        ("decompose", ["--blocks", "-3"], None),
        ("bench", ["--seeds", "0"], None),
        ("decompose", ["--power-iters", "-1"], None),
        ("qb", ["--power-iters", "-1"], None),
        ("reconstruct", ["--steps", "0"], None),
        ("synth", ["--snr", "0"], None),
        ("synth", ["--snapshots", "1"], None),
        ("synth", ["--rows", "0"], None),
        ("decompose", ["--oversample", "-1"], None),
        ("bench", ["--oversample", "-1"], None),
        ("qb", ["--oversample", "-1"], None),
        ("decompose", ["--rank", "0"], None),
        ("qb", ["--rank", "0"], None),
        ("bench", ["--compress-dim", "0"], None),
        ("decompose", ["--memory-cap", "-1"], None),
        ("synth", [], "abc"),
        ("decompose", [], "abc"),
        ("bench", [], "abc"),
        ("qb", [], "abc"),
    ]

    @pytest.mark.parametrize(
        "command, flags, env_seed",
        [
            pytest.param(command, flags, env_seed, id=f"{command}{'='.join(flags)}"
                         if flags else f"{command}-RDMD_SEED={env_seed}")
            for command, flags, env_seed in CASES
        ],
    )
    def test_bad_value_is_usage_error(self, workspace, tmp_path, command, flags, env_seed):
        import os

        env = dict(os.environ)
        env.pop("RDMD_SEED", None)
        if env_seed is not None:
            env["RDMD_SEED"] = env_seed
        io = ["--out", str(tmp_path / "o")]
        if command in ("decompose", "bench", "qb"):
            io = ["--input", str(workspace / "x.sms"), *io]
        if command == "reconstruct":
            io += ["--steps", "5"]
        res = run_cli(command, *self.RUN[command], *io, *flags, env=env)
        assert res.returncode == 2
        assert "usage" in res.stderr.lower()
        assert (flags[0] if flags else "--seed") in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    SHARED = {"--seed", "--input", "--rank", "--oversample", "--power-iters"}
    COMPARED = SHARED | {"--compress-dim", "--sampling", "--truth"}
    FLAGS = {
        "synth": {"--seed", "--rows", "--snapshots", "--modes", "--snr", "--out", "--truth"},
        "decompose": COMPARED | {"--method", "--blocks", "--memory-cap", "--out"},
        "bench": COMPARED | {"--seeds", "--out"},
        "qb": SHARED | {"--out"},
        "reconstruct": {"--modes", "--steps", "--out"},
    }

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_help_lists_the_shared_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == self.FLAGS[command]

    @pytest.mark.parametrize(
        "command, defaults",
        [
            ("decompose", {"sampling": "gaussian", "compress_dim": None, "truth": None,
                           "blocks": 1}),
            ("bench", {"sampling": "uniform", "compress_dim": None, "truth": None,
                       "seeds": 20}),
            ("qb", {"out": None}),
        ],
        ids=["decompose", "bench", "qb"],
    )
    def test_shared_flag_defaults(self, command, defaults, monkeypatch):
        # the shared parsers' defaults, and each subcommand's own --sampling
        monkeypatch.delenv("RDMD_SEED", raising=False)
        method = ["--method", "rdmd"] if command == "decompose" else []
        args = vars(cli.build_parser().parse_args(
            [command, "--input", "x.sms", "--rank", "3", *method]
        ))
        expected = {"seed": 0, "oversample": 10, "power_iters": 2, **defaults}
        assert {name: args[name] for name in expected} == expected


class TestReconstructionError:
    """`cli._reconstruction_error`: the identity in every result's sketch
    coordinates, the streamed pass only as its fallback."""

    CFG = rdmd.DmdConfig(target_rank=5, method="randomized", seed=9)
    VARIANTS = {
        "projected": {"method": "deterministic_projected"},
        "exact": {"method": "deterministic_exact"},
        "compressed-gaussian": {"method": "compressed"},
        "compressed-uniform": {"method": "compressed", "sampling": "uniform_rows"},
        "randomized": {},
        "blocked": {},
    }

    @staticmethod
    def streamed(result, data):
        return cli._relative_residual(
            chunks(data), partial(cli._approximate, result)
        )

    @staticmethod
    def unread():
        raise AssertionError("the data was read again")
        yield

    @classmethod
    def decompose(cls, data, variant):
        if variant == "blocked":
            return rdmd.dmd_randomized(rdmd.ArrayRowBlockSource(data, 4), cls.CFG)
        return rdmd.run_dmd(data, replace(cls.CFG, **cls.VARIANTS[variant]))

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_identity_matches_streamed_pass(self, noisy_workspace, variant):
        data = rdmd.read_sms(noisy_workspace / "x.sms")
        result = self.decompose(data, variant)
        error, residual, misfit = cli._reconstruction_error(result, self.unread())
        streamed = self.streamed(result, data)
        assert streamed >= 1e-3
        assert error == pytest.approx(streamed, rel=1e-8)
        assert error == pytest.approx(np.hypot(residual, misfit), rel=1e-14)
        assert residual > 0 and misfit > 0

    def test_fallback_on_clean_data(self, workspace):
        data = rdmd.read_sms(workspace / "x.sms")
        for variant in ("randomized", "projected"):
            result = self.decompose(data, variant)
            streamed = self.streamed(result, data)
            assert streamed < 1e-3
            assert cli._reconstruction_error(result, chunks(data)) == (
                streamed, None, None,
            )

    def test_fallback_on_negative_sketch_residual(self, noisy_workspace):
        data = rdmd.read_sms(noisy_workspace / "x.sms")
        result = rdmd.run_dmd(data, self.CFG)
        b_sq = float(np.vdot(result.sketch.data, result.sketch.data))
        cancelled = replace(result, sketch=replace(result.sketch, data_sq_norm=0.5 * b_sq))
        assert cli._reconstruction_error(cancelled, chunks(data)) == (
            self.streamed(result, data), None, None,
        )

    def test_streamed_pass_is_chunk_scale_at_any_block_count(self):
        import tracemalloc

        # two blocks of ten chunks each: a block's approximation would be
        # ten chunks' worth
        n, m, r = 20 * _CHUNK_ROWS, 16, 3
        q, b = normal_matrix(n, r, seed=60), normal_matrix(r, m, seed=61)
        x = q @ b + 1e-3 * normal_matrix(n, m, seed=62)
        tracemalloc.start()
        try:
            error = cli._relative_residual(
                row_chunks(rdmd.ArrayRowBlockSource(x, 2)),
                lambda start, rows: q[start : start + rows.shape[0]] @ b,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = _CHUNK_ROWS * m * 8
        assert peak <= 2 * chunk
        dense = np.linalg.norm(x - q @ b) / np.linalg.norm(x)
        assert error == pytest.approx(dense, rel=1e-12)

    def test_streamed_pass_over_copied_blocks_holds_one_block(self, tmp_path, monkeypatch):
        import tracemalloc

        # a version 1 file's blocks are copies: the pass must free block i
        # before it reads block i + 1
        n, m = 40000, 60
        truth = rdmd.synth_linear_dynamics(n, m - 1, cli._parse_modes(MODES), seed=63)
        path = tmp_path / "x.sms"
        write_v1_sms(path, truth.clean_data)
        del truth
        rises = []
        inner = cli._relative_residual

        def traced(chunk_pairs, approximate):
            tracemalloc.start()
            try:
                error = inner(chunk_pairs, approximate)
                rises.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return error

        monkeypatch.setattr(cli, "_relative_residual", traced)
        assert cli.main([
            "decompose", "--input", str(path), "--method", "rdmd", "--rank", "5",
            "--blocks", "2", "--seed", "9", "--out", str(tmp_path / "o"),
        ]) == 0
        block, chunk = n // 2 * m * 8, _CHUNK_ROWS * m * 8
        assert len(rises) == 1  # noise-free data takes the streamed fallback
        # one block, the chunk's approximation and the temporary of its real
        # product, and the k x m factors it is formed from (a few kB)
        assert rises[0] <= block + 2 * chunk + 64 * 1024

    # the sketch reads each of the 4 blocks q + 1 = 3 times; the streamed
    # error pass of noise-free data reads them once more
    @pytest.mark.parametrize("noisy, reads", [(True, 12), (False, 20)], ids=["noisy", "clean"])
    def test_blocked_decompose_reads_blocks_again_only_on_fallback(
        self, workspace, noisy_workspace, tmp_path, monkeypatch, noisy, reads
    ):
        calls = []
        inner = rdmd.SmsRowBlockSource.read_block

        def counting(source, i):
            calls.append(i)
            return inner(source, i)

        monkeypatch.setattr(rdmd.SmsRowBlockSource, "read_block", counting)
        root = noisy_workspace if noisy else workspace
        assert cli.main([
            "decompose", "--input", str(root / "x.sms"), "--method", "rdmd",
            "--rank", "5", "--blocks", "4", "--seed", "9", "--out", str(tmp_path / "o"),
        ]) == 0
        assert len(calls) == reads

    @pytest.mark.parametrize("method", ["rdmd", "dmd", "cdmd"])
    def test_health_fields_in_report(self, noisy_workspace, tmp_path, method):
        out = tmp_path / method
        assert cli.main([
            "decompose", "--input", str(noisy_workspace / "x.sms"), "--method", method,
            "--rank", "5", "--seed", "9", "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["eigenpair_residual"] <= 1e-12
        assert report["sketch_residual"] > 0 and report["dynamics_misfit"] > 0
        assert report["relative_reconstruction_error"] == pytest.approx(
            np.hypot(report["sketch_residual"], report["dynamics_misfit"]), rel=1e-14
        )


class TestBench:
    def test_deterministic_method_runs_once(self, workspace, tmp_path, monkeypatch, capsys):
        import rdmd.dmd

        calls = []
        inner = rdmd.dmd.dmd_deterministic

        def counting(x, cfg):
            calls.append(cfg.seed)
            return inner(x, cfg)

        monkeypatch.setattr(rdmd.dmd, "dmd_deterministic", counting)
        out = tmp_path / "bench-once"
        assert cli.main([
            "bench", "--input", str(workspace / "x.sms"), "--rank", "5",
            "--seeds", "3", "--truth", str(workspace / "truth.json"), "--out", str(out),
        ]) == 0
        assert len(calls) == 1
        lines = (out / "bench_runs.csv").read_text().strip().splitlines()
        dmd_rows = [line.split(",") for line in lines[1:] if line.startswith("dmd,")]
        assert [row[1] for row in dmd_rows] == ["0", "1", "2"]
        assert len({tuple(row[2:]) for row in dmd_rows}) == 1
        report = json.loads((out / "bench_report.json").read_text())
        assert report["methods"]["dmd"]["time_s"]["std"] == 0.0

    def test_bench_outputs(self, workspace, tmp_path):
        out = tmp_path / "bench"
        res = run_cli(
            "bench", "--input", str(workspace / "x.sms"), "--rank", "5",
            "--seeds", "3", "--truth", str(workspace / "truth.json"),
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "bench_report.json").read_text())
        for method in ("dmd", "rdmd", "cdmd"):
            stats = report["methods"][method]
            assert stats["eigen_match_error"]["mean"] < 1.0
            assert stats["time_s"]["mean"] > 0
        lines = (out / "bench_runs.csv").read_text().strip().splitlines()
        assert lines[0] == "method,trial,eigen_match_error,reconstruction_error,time_s"
        assert len(lines) == 1 + 3 * 3

    @pytest.mark.parametrize("method", ["dmd", "rdmd", "cdmd"])
    def test_trial_is_a_decompose_run(self, workspace, noisy_workspace, tmp_path, method,
                                      capsys):
        # a trial runs the method on the input's one-block source, as
        # decompose does, with the trial's derived seed and, for cdmd,
        # bench's default compress_dim k + p and uniform sampling; the noisy
        # data has the noise-free workspace's dynamics and truth
        common = ["--input", str(noisy_workspace / "x.sms"), "--rank", "5",
                  "--truth", str(workspace / "truth.json")]
        assert cli.main(["bench", *common, "--seeds", "1", "--seed", "9",
                         "--out", str(tmp_path / "b")]) == 0
        assert cli.main([
            "decompose", *common, "--method", method, "--seed", str(derive_seed(9, 0)),
            "--compress-dim", "15", "--sampling", "uniform", "--out", str(tmp_path / "d"),
        ]) == 0
        capsys.readouterr()
        lines = (tmp_path / "b" / "bench_runs.csv").read_text().splitlines()
        row = next(line.split(",") for line in lines if line.startswith(f"{method},"))
        report = json.loads((tmp_path / "d" / "report.json").read_text())
        assert float(row[2]) == report["eigen_match_error"]
        assert float(row[3]) == report["relative_reconstruction_error"]

    def test_bench_without_truth_is_strict_json(self, workspace, tmp_path):
        out = tmp_path / "bench-nt"
        res = run_cli(
            "bench", "--input", str(workspace / "x.sms"), "--rank", "5",
            "--seeds", "2", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        text = (out / "bench_report.json").read_text()
        report = json.loads(text, parse_constant=lambda _: pytest.fail("non-strict JSON"))
        assert report["methods"]["dmd"]["eigen_match_error"]["mean"] is None


class TestCompressedCli:
    def test_uniform_sampling_method(self, workspace, tmp_path):
        out = tmp_path / "cdmd-u"
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "cdmd",
            "--rank", "5", "--compress-dim", "40", "--sampling", "uniform",
            "--seed", "4", "--truth", str(workspace / "truth.json"),
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["sampling"] == "uniform_rows"
        assert report["config"]["compress_dim"] == 40
        # uniform sampling on noise-free exact-rank data still recovers exactly
        assert report["eigen_match_error"] <= 1e-6

    def test_default_compress_dim_is_reported(self, workspace, tmp_path):
        outs = {}
        for name, extra in (("default", []), ("explicit", ["--compress-dim", "50"])):
            outs[name] = tmp_path / name
            res = run_cli(
                "decompose", "--input", str(workspace / "x.sms"), "--method", "cdmd",
                "--rank", "5", "--seed", "4", *extra, "--out", str(outs[name]),
            )
            assert res.returncode == 0, res.stderr
        report = json.loads((outs["default"] / "report.json").read_text())
        assert report["config"]["compress_dim"] == min(300, 10 * 5)
        for name in ("eigenvalues.csv", "amplitudes.csv", "modes_re.sms", "modes_im.sms"):
            assert (outs["default"] / name).read_bytes() == (outs["explicit"] / name).read_bytes()


class TestQb:
    def test_reports_error_and_bound(self, workspace):
        res = run_cli(
            "qb", "--input", str(workspace / "x.sms"), "--rank", "5", "--seed", "2",
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["relative_error"] <= 1e-8  # exact rank-5 data
        data = rdmd.read_sms(workspace / "x.sms")
        sigma = rdmd.economic_svd(data).singular_values
        assert abs(report["sigma_next"] - sigma[5]) <= 1e-12 * sigma[0]
        bound = rdmd.expected_error_bound(
            5, report["oversample"], report["power_iters"], data.shape[1], data.shape[0],
            report["sigma_next"],
        )
        relative = bound / np.linalg.norm(data)
        assert abs(report["expected_error_bound_relative"] - relative) <= 1e-14 * relative

    def test_relative_error_matches_dense_without_n_by_m_temporaries(
        self, tmp_path, capsys, numpy_bases
    ):
        # the sketch basis Q is counted (`numpy_bases`)
        import tracemalloc

        x = normal_matrix(20000, 5, seed=40) @ normal_matrix(5, 201, seed=41)
        x += 0.1 * normal_matrix(20000, 201, seed=42)
        path = tmp_path / "noisy.sms"
        rdmd.write_sms(x, path)
        args = ["qb", "--input", str(path), "--rank", "5", "--seed", "3"]
        tracemalloc.start()
        try:
            assert cli.main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert peak <= 1.5 * x.nbytes
        qb = rdmd.randomized_qb(x, rdmd.SketchConfig(5, 10, 2, seed=3))
        dense = np.linalg.norm(x - qb.q @ qb.b) / np.linalg.norm(x)
        assert report["relative_error"] == pytest.approx(dense, rel=1e-12)
        sigma = rdmd.economic_svd(x).singular_values
        assert report["sigma_next"] == pytest.approx(sigma[5], rel=1e-12)

    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "clean"])
    def test_relative_error_from_the_sketch_identity_or_streamed(
        self, workspace, noisy_workspace, monkeypatch, capsys, noisy
    ):
        # ||X - QB||^2 = ||X||^2 - ||B||^2 on noisy data; the streamed pass
        # only on noise-free data, whose error is below the identity's floor
        streamed_calls = []
        inner = cli._relative_residual

        def counting(blocks, approximate):
            streamed_calls.append(1)
            return inner(blocks, approximate)

        monkeypatch.setattr(cli, "_relative_residual", counting)
        path = (noisy_workspace if noisy else workspace) / "x.sms"
        assert cli.main(["qb", "--input", str(path), "--rank", "5", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        x = rdmd.read_sms(path)
        qb = rdmd.randomized_qb(x, rdmd.SketchConfig(5, 10, 2, seed=3))
        streamed = inner(chunks(x), lambda s, b: qb.q[s : s + b.shape[0]] @ qb.b)
        assert len(streamed_calls) == (0 if noisy else 1)
        if noisy:
            assert streamed >= cli._IDENTITY_MIN_ERROR
            assert report["relative_error"] == pytest.approx(streamed, rel=1e-8)
        else:
            assert report["relative_error"] == streamed < cli._IDENTITY_MIN_ERROR

    def test_bound_omitted_below_minimum_oversampling(self, workspace):
        res = run_cli(
            "qb", "--input", str(workspace / "x.sms"), "--rank", "5",
            "--oversample", "1", "--seed", "2",
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["expected_error_bound_relative"] is None
        assert report["relative_error"] <= 1e-8


class TestReconstruct:
    def test_round_trip(self, workspace, tmp_path):
        dec = tmp_path / "dec"
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "dmd",
            "--rank", "5", "--out", str(dec),
        )
        assert res.returncode == 0, res.stderr
        res = run_cli(
            "reconstruct", "--modes", str(dec), "--steps", "80",
            "--out", str(tmp_path / "rec.sms"),
        )
        assert res.returncode == 0, res.stderr
        data = rdmd.read_sms(workspace / "x.sms")
        approx = rdmd.read_sms(tmp_path / "rec.sms")
        assert approx.shape == data.shape
        assert np.linalg.norm(data - approx) <= 1e-6 * np.linalg.norm(data)

    def test_malformed_amplitudes_is_runtime_error(self, workspace, tmp_path):
        dec = tmp_path / "dec"
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "dmd",
            "--rank", "5", "--out", str(dec),
        )
        assert res.returncode == 0, res.stderr
        with open(dec / "amplitudes.csv", "a", encoding="utf-8") as fh:
            fh.write("0.5;oops\n")
        res = run_cli(
            "reconstruct", "--modes", str(dec), "--steps", "80",
            "--out", str(tmp_path / "rec.sms"),
        )
        assert res.returncode == 1
        assert "IoFailure" in res.stderr and "line 7" in res.stderr
