import re

import numpy as np
import pytest

from rdmd import (
    ArrayRowBlockSource,
    DmdConfig,
    ModeSpec,
    SketchConfig,
    add_noise,
    blocked_randomized_qb,
    dmd_deterministic,
    eigen_match_error,
    open_row_blocks,
    read_sms,
    synth_linear_dynamics,
    write_sms,
)
from rdmd.datasets import (
    SMS_HEADER_BYTES,
    read_complex_csv,
    read_complex_matrix,
    write_atomic,
    write_complex_csv,
    write_complex_matrix,
)
from rdmd import datasets, rng
from rdmd.errors import (
    BadMagic,
    IoFailure,
    NonFiniteInput,
    ShapeMismatch,
    TooManyModes,
    TruncatedPayload,
    UnsupportedVersion,
)
from rdmd.rng import CounterStream, normal_matrix, normals

from conftest import OVERSIZED_SHAPES, write_oversized_sms, write_v1_sms


class TestSynth:
    def test_single_real_mode(self):
        truth = synth_linear_dynamics(40, 20, [ModeSpec(0.9)], seed=1)
        assert truth.clean_data.shape == (40, 21)
        assert np.linalg.matrix_rank(truth.clean_data) == 1
        result = dmd_deterministic(truth.clean_data, DmdConfig(target_rank=1))
        assert abs(result.eigenvalues[0] - 0.9) < 1e-10

    def test_conjugate_completion(self):
        lam = 0.9 * np.exp(0.5j)
        truth = synth_linear_dynamics(30, 15, [ModeSpec(lam)], seed=2)
        assert truth.eigenvalues.size == 2
        assert np.isclose(truth.eigenvalues[1], np.conj(lam))
        assert np.all(np.isreal(truth.clean_data))
        assert np.linalg.matrix_rank(truth.clean_data) == 2

    def test_five_mode_recovery(self):
        specs = [
            ModeSpec(1.0),
            ModeSpec(0.995 * np.exp(0.4j), amplitude=0.7),
            ModeSpec(0.97 * np.exp(1.1j), amplitude=0.4),
        ]
        truth = synth_linear_dynamics(500, 100, specs, seed=3)
        assert truth.eigenvalues.size == 5
        result = dmd_deterministic(truth.clean_data, DmdConfig(target_rank=5))
        assert eigen_match_error(truth.eigenvalues, result.eigenvalues) <= 1e-8

    def test_generator_exactness(self):
        specs = [ModeSpec(0.98 * np.exp(0.3j)), ModeSpec(0.9, amplitude=2.0)]
        truth = synth_linear_dynamics(50, 30, specs, seed=4)
        lam, amp, modes = truth.eigenvalues, truth.amplitudes, truth.modes
        for j in (0, 7, 29):
            advanced = np.real(modes @ (amp * lam ** (j + 1)))
            col = truth.clean_data[:, j + 1]
            assert np.linalg.norm(advanced - col) <= 1e-12 * max(np.linalg.norm(col), 1.0)

    def test_evolution_peak_memory(self):
        # Re(W P) as two real GEMMs, the second subtracted in place: the
        # output and one temporary of its size, no complex n x (m+1) product
        import tracemalloc

        specs = [ModeSpec(0.98 * np.exp(0.3j)), ModeSpec(0.9, amplitude=2.0)]
        tracemalloc.start()
        try:
            truth = synth_linear_dynamics(20000, 200, specs, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert truth.clean_data.flags.c_contiguous
        assert peak <= 2.2 * truth.clean_data.nbytes

    def test_harmonic_profiles(self):
        specs = [
            ModeSpec(np.exp(0.2j), profile="harmonic", frequency=1.0),
            ModeSpec(np.exp(0.5j), profile="harmonic", frequency=2.0),
        ]
        truth = synth_linear_dynamics(64, 32, specs, seed=5)
        assert truth.modes.shape == (64, 4)
        assert np.linalg.svd(truth.modes, compute_uv=False)[-1] >= 1e-6

    def test_too_many_modes(self):
        with pytest.raises(TooManyModes):
            synth_linear_dynamics(4, 3, [ModeSpec(0.9j), ModeSpec(0.5j)], seed=6)

    def test_determinism(self):
        specs = [ModeSpec(0.95 * np.exp(0.7j))]
        a = synth_linear_dynamics(20, 10, specs, seed=7)
        b = synth_linear_dynamics(20, 10, specs, seed=7)
        assert np.array_equal(a.clean_data, b.clean_data)

    def test_smooth_field_is_the_fourier_series(self):
        # the harmonics shared by a synth call give each field the bytes of
        # evaluating its series term by term
        n = 257
        t = np.arange(n) / n
        coeffs = CounterStream(3).normals(16)
        expected = np.zeros(n)
        for f in range(1, 9):
            a, b = coeffs[2 * f - 2], coeffs[2 * f - 1]
            expected += (a * np.cos(2.0 * np.pi * f * t) + b * np.sin(2.0 * np.pi * f * t)) / f
        field = datasets._smooth_field(datasets._harmonics(n), CounterStream(3))
        assert field.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "specs", [[ModeSpec(100.0)], [ModeSpec(0.9), ModeSpec(60.0 * np.exp(0.3j))]],
        ids=["real", "complex"],
    )
    def test_overflowing_dynamics_are_non_finite_input(self, specs):
        with pytest.raises(NonFiniteInput, match="overflow float64 within 200 steps"):
            synth_linear_dynamics(10, 200, specs, seed=1)


class TestAddNoise:
    def test_variance_ratio(self):
        x = normal_matrix(400, 300, seed=8) * 3.0
        noisy = add_noise(x, snr=10.0, seed=9)
        ratio = np.var(x) / np.var(noisy - x)
        assert abs(ratio - 10.0) / 10.0 < 0.05

    def test_determinism(self):
        x = normal_matrix(20, 20, seed=10)
        assert np.array_equal(add_noise(x, 5.0, seed=11), add_noise(x, 5.0, seed=11))

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            add_noise(np.eye(3), 0.0, seed=0)

    @staticmethod
    def _serial(x, snr, seed):
        """The noise as one serial draw: x + sigma * normals(seed, 0, x.size)."""
        noisy = normals(seed, 0, x.size).reshape(x.shape)
        noisy *= np.sqrt(np.var(x) / snr)
        noisy += x
        return noisy

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize(
        "shape, job",
        [
            ((7, 9), 8),  # odd count, several jobs, the last one short
            ((3, 5), None),  # smaller than one job
            ((11, 13), 6),  # odd count, not a multiple of the job size
            ((6, 4), 6),  # a multiple of the job size
            ((1031, 1021), None),  # odd count just over one job: a short second job
        ],
    )
    def test_bytes_equal_the_serial_draw(self, monkeypatch, use_workers, workers, shape, job):
        # job None keeps the module's job size
        use_workers(workers)
        if job is not None:
            monkeypatch.setattr(datasets, "_NOISE_JOB", job)
        x = normal_matrix(*shape, seed=21) * 2.5
        assert add_noise(x, 4.0, seed=22).tobytes() == self._serial(x, 4.0, 22).tobytes()

    def test_input_unchanged_and_out_is_x_gives_the_same_bytes(self, monkeypatch, use_workers):
        use_workers(3)
        monkeypatch.setattr(datasets, "_NOISE_JOB", 10)
        x = normal_matrix(9, 7, seed=23)
        before = x.copy()
        fresh = add_noise(x, 2.0, seed=24)
        assert np.array_equal(x, before)
        in_place = add_noise(x, 2.0, seed=24, out=x)
        assert in_place is x
        assert in_place.tobytes() == fresh.tobytes()

    def test_fortran_ordered_input(self):
        x = normal_matrix(8, 5, seed=25)
        noisy = add_noise(np.asfortranarray(x), 3.0, seed=26)
        assert noisy.flags.c_contiguous
        assert noisy.tobytes() == self._serial(x, 3.0, 26).tobytes()

    @staticmethod
    def _read_only(shape):
        out = np.zeros(shape)
        out.flags.writeable = False
        return out

    @pytest.mark.parametrize(
        "out",
        [np.empty((5, 4)), np.empty((4, 5), dtype=np.float32), np.empty((4, 5), order="F"),
         _read_only((4, 5))],
        ids=["shape", "dtype", "order", "read-only"],
    )
    def test_rejects_an_unusable_out(self, out):
        with pytest.raises(ShapeMismatch):
            add_noise(np.arange(20.0).reshape(4, 5), 1.0, seed=0, out=out)

    def test_overflowing_noise_scale_is_non_finite_input(self):
        # every entry is finite, but var(X) overflows float64
        x = 1e300 * np.tile(np.linspace(-1.0, 1.0, 20), (5, 1))
        with pytest.raises(NonFiniteInput, match="noise scale overflows"):
            add_noise(x, 10.0, seed=0)


class TestSmsFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        x = normal_matrix(7, 5, seed=12)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        assert np.array_equal(read_sms(path), x)

    def test_write_holds_no_copy_of_the_payload(self, tmp_path):
        import tracemalloc

        x = normal_matrix(20000, 50, seed=13)
        path = tmp_path / "x.sms"
        tracemalloc.start()
        try:
            write_sms(x, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * x.nbytes
        assert read_sms(path).tobytes() == x.tobytes()

    def test_header_layout(self, tmp_path):
        x = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        raw = path.read_bytes()
        assert raw[:4] == b"RDMD"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 3
        assert int.from_bytes(raw[24:28], "little") == 1
        assert raw[28:32] == bytes(4)
        assert SMS_HEADER_BYTES == 32
        assert len(raw) == 32 + 6 * 8
        assert raw[32:] == x.tobytes()

    def test_read_maps_the_payload(self, tmp_path):
        import tracemalloc

        x = normal_matrix(20000, 50, seed=13)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        tracemalloc.start()
        try:
            data = read_sms(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * x.nbytes
        assert not data.flags.writeable and not data.flags.owndata
        assert data.ctypes.data % 8 == 0
        assert data.flags.c_contiguous and data.dtype == np.float64
        assert np.array_equal(data, x)

    def test_mapped_read_keeps_its_view_when_the_file_is_replaced(self, tmp_path):
        x = normal_matrix(30, 4, seed=13)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        data = read_sms(path)
        write_sms(2.0 * x, path)
        assert np.array_equal(data, x)
        assert np.array_equal(read_sms(path), 2.0 * x)

    def test_version_1_file_is_read_by_copy(self, tmp_path):
        x = normal_matrix(13, 6, seed=14)
        path = tmp_path / "x.sms"
        write_v1_sms(path, x)
        assert path.stat().st_size == 28 + x.nbytes
        data = read_sms(path)
        assert data.flags.writeable and data.flags.owndata
        assert data.tobytes() == x.tobytes()
        with open_row_blocks(path, 4) as src:
            assert (src.rows, src.cols) == x.shape
            cat = np.vstack([src.read_block(i) for i in range(4)])
        assert cat.tobytes() == x.tobytes()

    @pytest.mark.parametrize("reader", ["read_sms", "open_row_blocks"])
    def test_version_3_is_unsupported(self, tmp_path, reader):
        path = tmp_path / "x.sms"
        write_sms(np.eye(2), path)
        data = bytearray(path.read_bytes())
        data[4] = 3
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion, match="version 3, expected 1 or 2$"):
            if reader == "read_sms":
                read_sms(path)
            else:
                open_row_blocks(path, 1)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.sms"
        write_sms(np.eye(2), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagic):
            read_sms(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.sms"
        write_sms(np.eye(2), path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion):
            read_sms(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.sms"
        write_sms(np.eye(3), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(TruncatedPayload):
            read_sms(path)

    @pytest.mark.parametrize("shape", OVERSIZED_SHAPES, ids=["1e9x1e9", "2^40x2^30"])
    @pytest.mark.parametrize("reader", ["read_sms", "open_row_blocks"])
    def test_header_larger_than_the_file(self, tmp_path, reader, shape):
        # checked against the file size before the payload is allocated
        path = tmp_path / "x.sms"
        write_oversized_sms(path, *shape)
        assert path.stat().st_size == 92
        rows, cols = shape
        expected = f"{path}: 92 bytes, expected {SMS_HEADER_BYTES + rows * cols * 8}"
        with pytest.raises(TruncatedPayload, match=f"^{re.escape(expected)}$"):
            if reader == "read_sms":
                read_sms(path)
            else:
                open_row_blocks(path, 1)

    def test_rejects_nonfinite(self, tmp_path):
        x = np.eye(2)
        x[1, 0] = np.nan
        with pytest.raises(NonFiniteInput, match="row 1, column 0 is nan") as err:
            write_sms(x, tmp_path / "bad.sms")
        assert err.value.row == 1
        assert not (tmp_path / "bad.sms").exists()


class TestRowBlocks:
    def test_single_block_equals_full_read(self, tmp_path):
        x = normal_matrix(9, 4, seed=13)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        with open_row_blocks(path, 1) as src:
            assert np.array_equal(src.read_block(0), read_sms(path))

    def test_concatenated_blocks_equal_full_read(self, tmp_path):
        x = normal_matrix(13, 6, seed=14)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        with open_row_blocks(path, 4) as src:
            cat = np.vstack([src.read_block(i) for i in range(4)])
        assert np.array_equal(cat, x)

    def test_blocks_rereadable_out_of_order(self, tmp_path):
        x = normal_matrix(12, 5, seed=15)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        with open_row_blocks(path, 3) as src:
            b2a = src.read_block(2)
            b0 = src.read_block(0)
            b2b = src.read_block(2)
        assert np.array_equal(b2a, b2b)
        assert np.array_equal(b0, x[0:4])

    def test_missing_file_raises_io_failure(self, tmp_path):
        from rdmd.errors import IoFailure

        with pytest.raises(IoFailure):
            open_row_blocks(tmp_path / "absent.sms", 2)
        with pytest.raises(IoFailure):
            read_sms(tmp_path / "absent.sms")

    @pytest.mark.parametrize(
        "offset,byte,error", [(0, ord("N"), BadMagic), (4, 99, UnsupportedVersion)]
    )
    def test_rejected_header_closes_the_file(self, tmp_path, monkeypatch,
                                             offset, byte, error):
        import builtins

        import rdmd.datasets

        path = tmp_path / "x.sms"
        write_sms(np.eye(2), path)
        raw = bytearray(path.read_bytes())
        raw[offset] = byte
        path.write_bytes(bytes(raw))
        opened = []

        def open_and_record(*args, **kwargs):
            fh = builtins.open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(rdmd.datasets, "open", open_and_record, raising=False)
        with pytest.raises(error):
            open_row_blocks(path, 1)
        assert len(opened) == 1 and opened[0].closed

    def test_file_and_memory_sources_agree_bitwise(self, tmp_path):
        x = normal_matrix(64, 24, seed=16)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        cfg = SketchConfig(4, 4, 1, seed=17)
        with open_row_blocks(path, 4) as fsrc:
            from_file = blocked_randomized_qb(fsrc, cfg)
        from_memory = blocked_randomized_qb(ArrayRowBlockSource(read_sms(path), 4), cfg)
        assert np.array_equal(from_file.b, from_memory.b)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(from_file.block_bases, from_memory.block_bases)
        )


class TestExporters:
    def test_complex_csv_round_trip(self, tmp_path):
        values = np.array([1.0 + 2.0j, -0.123456789012345678 + 1e-300j, 3.0])
        path = tmp_path / "v.csv"
        write_complex_csv(path, values)
        text = path.read_text().splitlines()
        assert text[0] == "re,im"
        assert len(text) == 4
        assert np.array_equal(read_complex_csv(path), values)

    def test_complex_matrix_round_trip(self, tmp_path):
        w = normal_matrix(6, 3, seed=18) + 1j * normal_matrix(6, 3, seed=19)
        write_complex_matrix(tmp_path, "modes", w)
        assert np.array_equal(read_complex_matrix(tmp_path, "modes"), w)

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_atomic(path, b"payload"),
            lambda path: write_sms(np.eye(2), path),
            lambda path: write_complex_csv(path, [1.0 + 1.0j]),
        ],
        ids=["write_atomic", "write_sms", "write_complex_csv"],
    )
    def test_failed_write_raises_io_failure_and_leaves_no_temp(self, tmp_path, write):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IoFailure):
            write(target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
