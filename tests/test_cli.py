import json
import subprocess
import sys

import numpy as np
import pytest

import rdmd
from rdmd import cli
from rdmd.datasets import read_complex_csv, read_complex_matrix


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "rdmd", *args],
        capture_output=True,
        text=True,
        env=env,
    )


MODES = "1.0,0.995+0.2j:0.5,0.97+0.35j:0.25"  # rank 5 after conjugation


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
        assert report["config"]["oversample"] == 10
        assert report["config"]["power_iters"] == 2

    def test_report_fidelity_against_emitted_files(self, workspace, tmp_path):
        out = tmp_path / "fid"
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "rdmd",
            "--rank", "5", "--seed", "9", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "report.json").read_text())
        data = rdmd.read_sms(workspace / "x.sms")
        modes = read_complex_matrix(out, "modes")
        eigenvalues = read_complex_csv(out / "eigenvalues.csv")
        amps = read_complex_csv(out / "amplitudes.csv")
        powers = eigenvalues[:, None] ** np.arange(data.shape[1])[None, :]
        approx = np.real(modes @ (amps[:, None] * powers))
        recomputed = np.linalg.norm(data - approx) / np.linalg.norm(data)
        assert abs(recomputed - report["relative_reconstruction_error"]) <= 1e-12

    def test_blocked_requires_rdmd(self, workspace, tmp_path):
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "dmd",
            "--rank", "5", "--blocks", "4", "--out", str(tmp_path / "nope"),
        )
        assert res.returncode == 2

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

    def test_rank_error_is_runtime_error(self, workspace, tmp_path):
        res = run_cli(
            "decompose", "--input", str(workspace / "x.sms"), "--method", "dmd",
            "--rank", "5000", "--out", str(tmp_path / "o"),
        )
        assert res.returncode == 1
        assert "RankOutOfRange" in res.stderr

    def test_failed_blocked_run_closes_its_source(self, workspace, tmp_path,
                                                   monkeypatch, capsys):
        opened = []

        def open_and_record(path, block_count):
            source = rdmd.open_row_blocks(path, block_count)
            opened.append(source)
            return source

        monkeypatch.setattr(cli, "open_row_blocks", open_and_record)
        # 30 blocks of 10 rows cannot hold a sketch of 5 + 10 columns
        code = cli.main([
            "decompose", "--input", str(workspace / "x.sms"), "--method", "rdmd",
            "--rank", "5", "--blocks", "30", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "RankOutOfRange" in capsys.readouterr().err
        assert len(opened) == 1 and opened[0]._fh.closed


class TestBench:
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
        assert report["config"]["sampling"] == "uniform"
        assert report["config"]["compress_dim"] == 40
        # uniform sampling on noise-free exact-rank data still recovers exactly
        assert report["eigen_match_error"] <= 1e-6


class TestQb:
    def test_reports_error_and_bound(self, workspace):
        res = run_cli(
            "qb", "--input", str(workspace / "x.sms"), "--rank", "5", "--seed", "2",
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["relative_error"] <= 1e-8  # exact rank-5 data
        assert report["expected_error_bound_relative"] is not None
        sigma = rdmd.economic_svd(rdmd.read_sms(workspace / "x.sms")).singular_values
        assert abs(report["sigma_next"] - sigma[5]) <= 1e-12 * sigma[0]

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
