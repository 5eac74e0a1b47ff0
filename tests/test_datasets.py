import errno
import json
import os
import re
import subprocess
import sys

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
    dmd_randomized,
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
from rdmd import blocked, datasets, rng
from rdmd.errors import (
    BadMagic,
    IoFailure,
    NonFiniteInput,
    ShapeMismatch,
    TooManyModes,
    TruncatedPayload,
    UnsupportedVersion,
)
from rdmd.blocked import _CHUNK_BYTES, frobenius_sq
from rdmd.rng import CounterStream, normal_matrix, normals

from conftest import OVERSIZED_SHAPES, chunk_rows, write_oversized_sms, write_v1_sms


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
        # Re(W P) formed a row chunk at a time into the output: the output,
        # the modes and one chunk's factor, no temporary of the output's
        # size (1.04 times the output)
        import tracemalloc

        specs = [ModeSpec(0.98 * np.exp(0.3j)), ModeSpec(0.9, amplitude=2.0)]
        tracemalloc.start()
        try:
            truth = synth_linear_dynamics(20000, 200, specs, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert truth.clean_data.flags.c_contiguous
        assert peak <= 1.1 * truth.clean_data.nbytes

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
        field = datasets._smooth_field(datasets._harmonics(n), CounterStream(3), np.empty(n),
                                       np.empty((2, n)))
        assert field.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "specs", [[ModeSpec(100.0)], [ModeSpec(0.9), ModeSpec(60.0 * np.exp(0.3j))]],
        ids=["real", "complex"],
    )
    def test_overflowing_dynamics_are_non_finite_input(self, specs):
        with pytest.raises(NonFiniteInput, match="overflow float64 within 200 steps"):
            synth_linear_dynamics(10, 200, specs, seed=1)

    def test_nan_eigenvalue_is_named(self):
        # reconstruct's check: the entry is named, not taken for an overflow
        with pytest.raises(NonFiniteInput, match=r"^eigenvalue 0 is \(nan\+0j\)$"):
            synth_linear_dynamics(50, 10, [ModeSpec(float("nan"))], 1)


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
        "shape, chunk",
        [
            ((7, 9), 8),  # odd count, one chunk
            ((3, 5), None),  # smaller than one chunk
            ((11, 13), 6),  # odd count, chunks starting at even draws, the last one short
            ((6, 4), 6),  # one whole chunk
            ((1031, 1021), None),  # over 2^20 values in one chunk
            ((7, 9), 3),  # odd count, chunks starting at odd draws, the last one short
            ((11, 13), 5),  # odd count and odd starts, not a multiple of the chunk
            ((6, 4), 1),  # one-row chunks
            ((1031, 1021), 257),  # over 2^20 values, odd starts, a short last chunk
        ],
    )
    def test_bytes_equal_the_serial_draw(self, monkeypatch, use_workers, workers, shape, chunk):
        # the noise's jobs are the row chunks of the output; chunk None
        # keeps the module's chunk rule
        use_workers(workers)
        if chunk is not None:
            monkeypatch.setattr(blocked, "_CHUNK_ROWS", chunk)
        x = normal_matrix(*shape, seed=21) * 2.5
        assert add_noise(x, 4.0, seed=22).tobytes() == self._serial(x, 4.0, 22).tobytes()

    def test_input_unchanged_and_out_is_x_gives_the_same_bytes(self, monkeypatch, use_workers):
        use_workers(3)
        monkeypatch.setattr(blocked, "_CHUNK_ROWS", 3)
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

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize("case", ["C", "F", "out=x"])
    def test_leaves_straddling_chunks_give_the_serial_bytes(self, monkeypatch, use_workers,
                                                             workers, case):
        # 5-row chunks of 7 columns start at odd values, and 128-value
        # leaves of the mean's and the deviations' trees straddle them
        use_workers(workers)
        monkeypatch.setattr(blocked, "_CHUNK_ROWS", 5)
        monkeypatch.setattr(datasets, "_VARIANCE_LEAF", 128)
        x = normal_matrix(301, 7, seed=29) * 1.5 + 4.0
        noise = normals(30, 0, x.size).reshape(x.shape)
        noise *= np.sqrt(np.var(x) / 6.0)
        expected = (x + noise).tobytes()
        if case == "F":
            x = np.asfortranarray(x)
        noisy = add_noise(x, 6.0, seed=30, out=x if case == "out=x" else None)
        assert noisy.tobytes() == expected
        assert (noisy is x) == (case == "out=x")

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

    def test_variance_forms_no_full_size_temporary(self, use_workers):
        import tracemalloc

        use_workers(2)
        x = normal_matrix(40000, 100, seed=27)
        ref = self._serial(x, 10.0, 28)
        tracemalloc.start()
        try:
            add_noise(x, 10.0, seed=28, out=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * x.nbytes
        assert x.tobytes() == ref.tobytes()

    def test_overflowing_noise_scale_is_non_finite_input(self):
        # every entry is finite, but var(X) overflows float64
        x = 1e300 * np.tile(np.linspace(-1.0, 1.0, 20), (5, 1))
        with pytest.raises(NonFiniteInput, match="noise scale overflows"):
            add_noise(x, 10.0, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_is_named(self, value):
        # as every other entry point names it, not as a noise scale
        x = np.arange(12.0).reshape(4, 3)
        x[2, 1] = value
        with pytest.raises(NonFiniteInput, match=f"^row 2, column 1 is {value}$") as info:
            add_noise(x, 10.0, seed=0)
        assert info.value.row == 2


def _modes_from_whole_columns(n, specs, count, seed):
    """The mode matrix as each profile was first formed: every column a new
    array, divided by its norm, converted to complex and stacked."""
    stream = CounterStream(rng.derive_seed(seed, 1))
    t = np.arange(n) / n

    def field():
        coeffs = stream.normals(16)
        out = np.zeros(n)
        for f in range(1, 9):
            a, b = coeffs[2 * f - 2], coeffs[2 * f - 1]
            out += (a * np.cos(2.0 * np.pi * f * t) + b * np.sin(2.0 * np.pi * f * t)) / f
        return out

    for _attempt in range(64):
        columns = []
        for s in specs:
            is_complex = abs(complex(s.eigenvalue).imag) != 0
            if s.profile == "harmonic":
                phase = 2.0 * np.pi * s.frequency * ((np.arange(n) + 0.5) / n)
                phi = np.cos(phase) + 1j * np.sin(phase) if is_complex else np.sin(phase)
            else:
                phi = field() + 1j * field() if is_complex else field()
            nrm = np.sqrt(np.sum(phi.real * phi.real) + np.sum(phi.imag * phi.imag))
            phi = phi / nrm
            columns.append(phi.astype(np.complex128))
            if is_complex:
                columns.append(phi.conjugate())
        modes = np.column_stack(columns)
        if np.linalg.svd(modes, compute_uv=False)[-1] >= 1e-6:
            return modes
    raise AssertionError("no independent draw")


def _whole_array_sms(n, m, specs, seed, snr, noise_seed):
    """The SMS bytes of the synthetic data by the same arithmetic on whole
    in-memory arrays: one einsum of the n x (m + 1) product, np.var, and
    one serial draw of the noise."""
    truth = synth_linear_dynamics(n, m, specs, seed)
    lam, amp, modes = truth.eigenvalues, truth.amplitudes, truth.modes
    w = amp[:, None] * lam[:, None] ** np.arange(m + 1)[None, :]
    x = np.empty((n, m + 1))
    np.einsum("ik,kj->ij", np.hstack([modes.real, -modes.imag]),
              np.vstack([w.real, w.imag]), out=x)
    assert truth.clean_data.tobytes() == x.tobytes()
    if snr is not None:
        noise = normals(noise_seed, 0, x.size).reshape(x.shape)
        noise *= np.sqrt(np.var(x) / snr)
        x += noise
    return datasets._sms_header(n, m + 1) + x.tobytes()


# the benchmark's --modes "1.0,0.995+0.2j:0.5,0.97+0.35j:0.25"
_SYNTH_MODES = [ModeSpec(1.0), ModeSpec(0.995 + 0.2j, 0.5), ModeSpec(0.97 + 0.35j, 0.25)]


class TestWriteSynthSms:
    def test_mode_columns_have_the_bits_of_whole_columns(self):
        specs = [
            ModeSpec(0.9 * np.exp(0.3j)),
            ModeSpec(0.8),
            ModeSpec(np.exp(0.5j), profile="harmonic", frequency=2.0),
            ModeSpec(0.7, profile="harmonic", frequency=3.0),
        ]
        modes = datasets._draw_modes(1001, specs, 6, seed=8)
        assert modes.tobytes(order="F") == _modes_from_whole_columns(
            1001, specs, 6, seed=8).tobytes(order="F")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("snr", [None, 10.0], ids=["clean", "snr10"])
    @pytest.mark.parametrize(
        "n, m, rule",
        [
            # three 4096-row chunks, two tree leaves
            (10000, 9, None),
            # 3-row chunks of 7 columns and 128-value leaves: chunks start
            # at odd values and leaves straddle them
            (1000, 6, (3, 128)),
        ],
        ids=["module-rule", "small-rule"],
    )
    def test_cli_bytes_equal_the_whole_array_arithmetic(
        self, tmp_path, monkeypatch, use_workers, workers, snr, n, m, rule
    ):
        from rdmd import cli

        use_workers(workers)
        if rule is not None:
            monkeypatch.setattr(blocked, "_CHUNK_ROWS", rule[0])
            monkeypatch.setattr(datasets, "_VARIANCE_LEAF", rule[1])
        out = tmp_path / "x.sms"
        argv = ["synth", "--rows", str(n), "--snapshots", str(m + 1),
                "--modes", "1.0,0.995+0.2j:0.5,0.97+0.35j:0.25", "--seed", "43",
                "--out", str(out)]
        assert cli.main(argv + ([] if snr is None else ["--snr", str(snr)])) == 0
        expected = _whole_array_sms(n, m, _SYNTH_MODES, 43, snr, rng.derive_seed(43, 2**32))
        assert out.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.sms"]

    def test_many_workers_on_the_shared_tree_sums_stress(self, tmp_path, monkeypatch,
                                                         use_workers):
        # more workers than cores and a short switch interval: a leaf sum
        # lost, summed twice or read before it is written would change the
        # noise scale, and with it every byte
        import time

        use_workers(8)
        monkeypatch.setattr(blocked, "_CHUNK_ROWS", 7)
        monkeypatch.setattr(datasets, "_VARIANCE_LEAF", 128)
        expected = _whole_array_sms(600, 10, _SYNTH_MODES, 3, 10.0, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 30.0
            for _ in range(3):
                datasets.write_synth_sms(tmp_path / "x.sms", 600, 10, _SYNTH_MODES, 3, 10.0, 4)
                assert (tmp_path / "x.sms").read_bytes() == expected
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)

    def test_pages_are_dropped_chunk_by_chunk(self, tmp_path, monkeypatch, use_workers):
        # each of the three walks drops each chunk's pages once walked, and
        # the mean's and the deviations' straddling leaves drop those of
        # each pair of chunks they are read from
        use_workers(2)
        monkeypatch.setattr(blocked, "_CHUNK_ROWS", 512)
        dropped = []
        inner = datasets._drop_pages

        def spy(pages, lo, hi):
            dropped.append((lo, hi))
            inner(pages, lo, hi)

        monkeypatch.setattr(datasets, "_drop_pages", spy)
        datasets.write_synth_sms(tmp_path / "x.sms", 2000, 40, _SYNTH_MODES, 1, 10.0, 2)
        row = 41 * 8
        starts = [0, 512, 1024, 1536, 2000]
        chunks = [(SMS_HEADER_BYTES + a * row, SMS_HEADER_BYTES + b * row)
                  for a, b in zip(starts, starts[1:])]
        pairs = [(a[0], b[1]) for a, b in zip(chunks, chunks[1:])]
        assert sorted(dropped) == sorted(3 * chunks + 2 * pairs)

    @staticmethod
    def _failing_synth(tmp_path):
        """An existing output, and the synth run that is to fail on it:
        (path, the output's bytes, the run's exit code)."""
        from rdmd import cli

        out = tmp_path / "x.sms"
        out.write_bytes(b"the previous output")
        code = cli.main(["synth", "--rows", "2000", "--snapshots", "41", "--modes", "0.9,0.8+0.3j",
                         "--snr", "10", "--out", str(out)])
        return out, code

    def test_a_failed_reservation_is_io_failure(self, tmp_path, monkeypatch, capsys):
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        out, code = self._failing_synth(tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            f"IoFailure: writing {out}: [Errno 28] No space left on device\n"
        )
        assert out.read_bytes() == b"the previous output"
        assert list(tmp_path.iterdir()) == [out]

    def test_an_unmappable_output_is_io_failure_naming_it(self, tmp_path, monkeypatch):
        def unmappable(*args, **kwargs):
            raise OSError(errno.ENODEV, "No such device")

        monkeypatch.setattr(datasets.mmap, "mmap", unmappable)
        out = tmp_path / "x.sms"
        out.write_bytes(b"the previous output")
        with pytest.raises(IoFailure, match=re.escape(f"writing {out}: [Errno 19]")):
            datasets.write_synth_sms(out, 100, 10, [ModeSpec(0.9)], 1)
        assert out.read_bytes() == b"the previous output"
        assert list(tmp_path.iterdir()) == [out]

    def test_rejects_a_nonpositive_snr_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="snr must be positive"):
            datasets.write_synth_sms(tmp_path / "x.sms", 100, 10, [ModeSpec(0.9)], 1, snr=0.0)
        assert list(tmp_path.iterdir()) == []

    def test_an_interrupt_in_the_walk_leaves_the_output_as_it_was(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blocked, "_CHUNK_ROWS", 100)
        inner, calls = datasets._dynamics_rows, []

        def interrupted(*args):
            calls.append(1)
            if len(calls) == 5:
                raise KeyboardInterrupt
            inner(*args)

        monkeypatch.setattr(datasets, "_dynamics_rows", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self._failing_synth(tmp_path)
        out = tmp_path / "x.sms"
        assert out.read_bytes() == b"the previous output"
        assert list(tmp_path.iterdir()) == [out]


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

    def test_finiteness_check_forms_no_full_size_mask(self, tmp_path):
        import tracemalloc

        x = normal_matrix(40000, 100, seed=14)
        tracemalloc.start()
        try:
            write_sms(x, tmp_path / "x.sms")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an n x m bool mask alone would be 0.125 x the payload
        assert peak <= 0.06 * x.nbytes

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

    @pytest.mark.parametrize("reader", [read_sms, lambda path: open_row_blocks(path, 2)],
                             ids=["read_sms", "open_row_blocks"])
    def test_the_file_must_be_exactly_the_header_and_the_payload(self, tmp_path, reader):
        path = tmp_path / "x.sms"
        write_sms(np.arange(1.0, 13.0).reshape(3, 4), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        short = f"{path}: 127 bytes, expected 128"
        with pytest.raises(TruncatedPayload, match=f"^{re.escape(short)}$"):
            reader(path)
        # trailing bytes, and a version 2 file whose version field reads 1,
        # whose payload would be read 4 bytes off as finite garbage
        long = f"{path}: {{}} bytes, expected {{}}: bytes past the payload"
        for data, expected in [(raw + b"\0", long.format(129, 128)),
                               (raw[:4] + b"\1" + raw[5:], long.format(128, 124))]:
            path.write_bytes(data)
            with pytest.raises(IoFailure, match=f"^{re.escape(expected)}$") as err:
                reader(path)
            assert type(err.value) is IoFailure

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


# RssFile (/proc/self/status) and the page release of a shared map
# (MADV_DONTNEED) are Linux's
linux_only = pytest.mark.skipif(
    sys.platform != "linux", reason="reads RssFile from /proc and needs MADV_DONTNEED"
)


# argv[1:] run as `python argv[1:]`, output discarded; prints the exit code
# and ru_maxrss of that child
SPAWN_AND_REPORT_PEAK = """
import os, sys
pid = os.posix_spawn(
    sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
    file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_peak_rss(*args) -> int:
    """Peak RSS in bytes of `python args`. A child forked from this large
    process starts with its resident set as its high-water mark, so a small
    Python spawns the measured child and prints its wait4 peak."""
    out = subprocess.run(
        [sys.executable, "-c", SPAWN_AND_REPORT_PEAK, *args],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[0] == "0"  # the child's exit code
    return int(out[1]) * 1024  # ru_maxrss is in kB on Linux


def rss_file():
    """Resident file-backed bytes of this process."""
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("RssFile:"))
    return int(line.split()[1]) * 1024


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

    @staticmethod
    def record_opens(monkeypatch) -> list:
        """From here on, the handles the datasets module opens."""
        import builtins

        import rdmd.datasets

        opened = []

        def open_and_record(*args, **kwargs):
            fh = builtins.open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(rdmd.datasets, "open", open_and_record, raising=False)
        return opened

    @pytest.mark.parametrize(
        "offset,byte,error", [(0, ord("N"), BadMagic), (4, 99, UnsupportedVersion)]
    )
    def test_rejected_header_closes_the_file(self, tmp_path, monkeypatch,
                                             offset, byte, error):
        path = tmp_path / "x.sms"
        write_sms(np.eye(2), path)
        raw = bytearray(path.read_bytes())
        raw[offset] = byte
        path.write_bytes(bytes(raw))
        opened = self.record_opens(monkeypatch)
        with pytest.raises(error):
            open_row_blocks(path, 1)
        assert len(opened) == 1 and opened[0].closed

    def test_rejected_block_count_closes_the_file(self, tmp_path, monkeypatch):
        from rdmd.errors import InvalidBlockCount

        path = tmp_path / "x.sms"
        write_sms(np.eye(2), path)
        opened = self.record_opens(monkeypatch)
        with pytest.raises(InvalidBlockCount):
            open_row_blocks(path, 3)
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
        assert np.array_equal(from_file.q, from_memory.q)

    def test_version_2_blocks_are_views_of_the_map(self, tmp_path):
        import tracemalloc

        x = normal_matrix(20000, 50, seed=13)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        with open_row_blocks(path, 2) as src:
            tracemalloc.start()
            try:
                block = src.read_block(1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 0.25 * block.nbytes
        assert not block.flags.writeable and not block.flags.owndata
        assert block.flags.c_contiguous and block.dtype == np.float64
        # closing the source leaves the view valid
        assert np.array_equal(block, x[10000:])

    @linux_only
    def test_read_blocks_hold_at_most_two_blocks_of_file_pages(self, tmp_path):
        x = normal_matrix(25000, 200, seed=21)  # 40 MB
        path = tmp_path / "x.sms"
        write_sms(x, path)
        del x
        with open_row_blocks(path, 8) as src:
            block_bytes = src.block_ranges[0][1] * src.cols * 8
            base = rss_file()
            growth = []
            for i in range(src.block_count):
                assert np.isfinite(frobenius_sq(src.read_block(i)))
                growth.append(rss_file() - base)
            src.release_block()
            released = rss_file() - base
        assert max(growth) >= 0.5 * block_bytes  # the blocks were mapped
        assert max(growth) <= 2 * block_bytes
        assert released <= 0.5 * block_bytes

    @pytest.mark.parametrize("version", [1, 2])
    def test_reading_the_held_block_again_reads_nothing(self, tmp_path, version):
        x = normal_matrix(40, 6, seed=27)
        path = tmp_path / "x.sms"
        if version == 1:
            write_v1_sms(path, x)
        else:
            write_sms(x, path)
        with open_row_blocks(path, 2) as src:
            held = src.read_block(1)
            assert src.read_block(1) is held
            src.read_block(0)
            again = src.read_block(1)
        assert again is not held and np.array_equal(again, x[20:])

    @pytest.mark.skipif(not blocked._CAN_RELEASE, reason="needs MADV_DONTNEED")
    def test_one_block_run_reads_its_block_once_and_releases_each_chunk_once_per_pass(
        self, tmp_path, monkeypatch
    ):
        # each of the sketch's q + 1 passes reads the one block once (the
        # held block is not re-read) and releases its chunks in row order,
        # each once; the whole block is released after the last pass
        events = []

        class SpyMap(datasets.mmap.mmap):
            def madvise(self, option, start, length):
                events.append((start, length))
                return super().madvise(option, start, length)

        inner = datasets.SmsRowBlockSource.read_block

        def read_block(source, i):
            events.append(f"read {i}")
            return inner(source, i)

        monkeypatch.setattr(datasets.mmap, "mmap", SpyMap)
        monkeypatch.setattr(datasets.SmsRowBlockSource, "read_block", read_block)
        path = tmp_path / "x.sms"
        write_sms(normal_matrix(2 * chunk_rows(20 * 8) + 1000, 20, seed=25), path)
        with open_row_blocks(path, 1) as src:
            blocked_randomized_qb(src, SketchConfig(3, 3, 2, seed=26))
            one_pass = events[:4]
            assert events[:-1] == one_pass * 3
        assert one_pass[0] == "read 0"
        chunks = one_pass[1:]
        assert all(a[0] + a[1] <= b[0] for a, b in zip(chunks, chunks[1:]))
        whole = events[-1]
        assert whole[0] <= chunks[0][0] and sum(chunks[-1]) <= sum(whole)

    @linux_only
    def test_one_block_sketch_holds_two_chunks_of_file_pages(self, tmp_path, monkeypatch):
        x = normal_matrix(25000, 200, seed=28)  # 40 MB
        path = tmp_path / "x.sms"
        write_sms(x, path)
        del x
        cfg = SketchConfig(5, 10, 2, seed=29)
        # fault in the BLAS and LAPACK code pages the sketch runs first
        blocked_randomized_qb(ArrayRowBlockSource(normal_matrix(400, 200, seed=30), 1), cfg)
        samples = []
        inner = datasets.SmsRowBlockSource.release_rows

        def sampled(source, start, count):
            samples.append(rss_file())
            return inner(source, start, count)

        monkeypatch.setattr(datasets.SmsRowBlockSource, "release_rows", sampled)
        with open_row_blocks(path, 1) as src:
            base = rss_file()
            blocked_randomized_qb(src, cfg)
        chunk = chunk_rows(200 * 8) * 200 * 8
        assert len(samples) == 3 * 7 + 1  # 7 chunks a pass, then the block
        assert 0.5 * chunk <= max(samples) - base <= 2 * chunk

    @linux_only
    def test_one_block_decompose_peak_rss_is_far_below_the_file(self, tmp_path):
        x = normal_matrix(25000, 200, seed=31)  # 40 MB
        path = tmp_path / "x.sms"
        write_sms(x, path)
        del x
        imported = child_peak_rss("-c", "import rdmd.cli")
        run = child_peak_rss(
            "-m", "rdmd", "decompose", "--input", str(path), "--method", "rdmd",
            "--rank", "5", "--blocks", "1", "--seed", "32", "--out", str(tmp_path / "o"),
        )
        assert run - imported <= 0.5 * os.path.getsize(path)

    @linux_only
    def test_wide_rdmd_decompose_forms_no_gram(self, tmp_path):
        # 300 x 4001 (9.6 MB): the sketch B is 15 x 4001, whose SVD is
        # LAPACK's of B itself; a 4001 x 4001 Gram matrix would be 128 MB
        x = normal_matrix(300, 5, seed=46) @ normal_matrix(5, 4001, seed=47)
        x += 0.1 * normal_matrix(300, 4001, seed=48)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        del x
        imported = child_peak_rss("-c", "import rdmd.cli")
        run = child_peak_rss(
            "-m", "rdmd", "decompose", "--input", str(path), "--method", "rdmd",
            "--rank", "5", "--seed", "49", "--out", str(tmp_path / "o"),
        )
        assert run - imported <= 32 * 2**20

    @linux_only
    @pytest.mark.parametrize("method", ["dmd", "cdmd", "bench"])
    def test_one_block_dmd_and_cdmd_peak_rss_is_far_below_the_file(self, tmp_path, method):
        # the deterministic and compressed passes are `row_chunks` walks
        # too, so they hold a chunk of file pages, not the file; so does
        # bench, which runs all three methods on one source
        x = normal_matrix(25000, 200, seed=31)  # 40 MB
        path = tmp_path / "x.sms"
        write_sms(x, path)
        del x
        imported = child_peak_rss("-c", "import rdmd.cli")
        command = (["bench", "--seeds", "1"] if method == "bench"
                   else ["decompose", "--method", method, "--blocks", "1"])
        run = child_peak_rss(
            "-m", "rdmd", *command, "--input", str(path),
            "--rank", "5", "--seed", "32", "--out", str(tmp_path / "o"),
        )
        assert run - imported <= 0.5 * os.path.getsize(path)

    @linux_only
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_noise_free_dmd_above_the_rank_peaks_far_below_the_file(self, tmp_path, blocks):
        # rank 5 < k = 10: Rayleigh-Ritz declines, and the rank rule folds
        # the chunks' R factors in a pass of released chunks, so the run
        # holds a chunk and U_r at any block count, not the file or an
        # n x c SVD factor of it. The file is as large as `qb`'s below,
        # since a chunk's QR copies and LAPACK's buffers add a fixed ~15 MB
        x = normal_matrix(60000, 5, seed=44) @ normal_matrix(5, 200, seed=45)  # 96 MB
        path = tmp_path / "x.sms"
        write_sms(x, path)
        del x
        imported = child_peak_rss("-c", "import rdmd.cli")
        run = child_peak_rss(
            "-m", "rdmd", "decompose", "--input", str(path), "--method", "dmd",
            "--rank", "10", "--blocks", str(blocks), "--out", str(tmp_path / "o"),
        )
        assert run - imported <= 0.5 * os.path.getsize(path)
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["effective_rank"] == len(report["eigenvalues"]) == 5

    @linux_only
    @pytest.mark.parametrize("method", ["rdmd", "dmd"])
    def test_one_block_decompose_holds_its_basis_or_its_modes(self, tmp_path, method):
        # 200000 x 31 at rank 10: rdmd's n x 20 sketch basis is 32 MB,
        # dmd's n x 10 U_k 16 MB, and the complex n x 10 modes 32 MB. The
        # lift hands the basis back as it writes the modes, and the modes
        # are written by row chunks, so a run peaks at the larger of the
        # two, not at their sum. Measured over a 2000-row run of the same
        # method, which holds the libraries' code and buffers: rdmd rose
        # 35 MB and dmd 32 MB (65 and 48 MB when both were held).
        n, cols, k = 200_000, 31, 10
        for rows, name in ((n, "big.sms"), (2000, "small.sms")):
            x = normal_matrix(rows, k, seed=38) @ normal_matrix(k, cols, seed=39)
            x += 0.1 * normal_matrix(rows, cols, seed=40)
            write_sms(x, tmp_path / name)
            del x
        small, big = (
            child_peak_rss(
                "-m", "rdmd", "decompose", "--input", str(tmp_path / name),
                "--method", method, "--rank", str(k), "--blocks", "1", "--seed", "41",
                "--out", str(tmp_path / "o"),
            )
            for name in ("small.sms", "big.sms")
        )
        modes = n * k * 16
        basis = n * (k + 10 if method == "rdmd" else k) * 8
        assert big - small <= max(basis, modes) + 0.5 * min(basis, modes)

    @linux_only
    def test_reconstruct_writes_by_row_chunks(self, tmp_path):
        # a 50000 x 201 output is 80 MB; the run holds the n x 5 modes and
        # a chunk or two of the output (the one written and the next), where
        # the whole output and a temporary of its size peaked at 2.1 x the
        # output
        x = normal_matrix(50_000, 5, seed=42) @ normal_matrix(5, 21, seed=43)
        write_sms(x, tmp_path / "x.sms")
        del x
        from rdmd import cli

        assert cli.main([
            "decompose", "--input", str(tmp_path / "x.sms"), "--method", "dmd",
            "--rank", "5", "--out", str(tmp_path / "dec"),
        ]) == 0
        imported = child_peak_rss("-c", "import rdmd.cli")
        run = child_peak_rss(
            "-m", "rdmd", "reconstruct", "--modes", str(tmp_path / "dec"),
            "--steps", "201", "--out", str(tmp_path / "r.sms"),
        )
        output = os.path.getsize(tmp_path / "r.sms")
        assert output == 32 + 50_000 * 201 * 8
        assert run - imported <= 0.5 * output

    @linux_only
    def test_wide_reconstruct_holds_chunks_of_bounded_bytes(self, tmp_path):
        # a 1200 x 10001 output (96 MB) is written in chunks of 419 rows
        # (33.5 MB), each dropped once written, so the run holds one chunk:
        # it rose 39 MiB over the import, where holding the chunk being
        # written beside the next rose 69 MiB and a 4096-row chunk of all
        # 1200 rows with its product's temporary 194 MB. Persistent modes
        # keep lambda^10000 finite
        modes = [ModeSpec(1.0), ModeSpec(0.8 + 0.6j, amplitude=0.5),
                 ModeSpec(0.6 + 0.8j, amplitude=0.25)]
        write_sms(synth_linear_dynamics(1200, 20, modes, seed=50).clean_data,
                  tmp_path / "x.sms")
        from rdmd import cli

        assert cli.main([
            "decompose", "--input", str(tmp_path / "x.sms"), "--method", "dmd",
            "--rank", "5", "--out", str(tmp_path / "dec"),
        ]) == 0
        imported = child_peak_rss("-c", "import rdmd.cli")
        run = child_peak_rss(
            "-m", "rdmd", "reconstruct", "--modes", str(tmp_path / "dec"),
            "--steps", "10001", "--out", str(tmp_path / "r.sms"),
        )
        assert os.path.getsize(tmp_path / "r.sms") == 32 + 1200 * 10001 * 8
        assert run - imported <= 1.5 * _CHUNK_BYTES

    @linux_only
    def test_report_states_the_peak_rss(self, tmp_path):
        # ru_maxrss read as the report is written: the run's peak, which the
        # write of the outputs does not raise
        x = normal_matrix(25000, 200, seed=35)  # 40 MB
        path = tmp_path / "x.sms"
        write_sms(x, path)
        del x
        run = child_peak_rss(
            "-m", "rdmd", "decompose", "--input", str(path), "--method", "dmd",
            "--rank", "5", "--out", str(tmp_path / "o"),
        )
        report = (tmp_path / "o" / "report.json").read_text()
        reported = json.loads(report)["timings"]["peak_rss_bytes"]
        assert isinstance(reported, int) and 0.9 * run <= reported <= run

    @pytest.mark.skipif(not blocked._CAN_RELEASE, reason="needs MADV_DONTNEED")
    @pytest.mark.parametrize("method", ["rdmd", "dmd", "cdmd"])
    def test_memory_cap_charges_the_resident_chunk(self, tmp_path, method):
        # a version 2 file's one block is a mapped view released chunk by
        # chunk, so the cap is charged a chunk of it; a version 1 file's block
        # is a copy, charged whole
        from rdmd import cli

        x = normal_matrix(25000, 200, seed=36)  # 40 MB
        cap = 20_000_000
        write_sms(x, tmp_path / "v2.sms")
        write_v1_sms(tmp_path / "v1.sms", x)
        del x
        codes = {}
        for version in ("v1", "v2"):
            codes[version] = cli.main([
                "decompose", "--input", str(tmp_path / f"{version}.sms"), "--method", method,
                "--rank", "5", "--blocks", "1", "--memory-cap", str(cap), "--seed", "37",
                "--out", str(tmp_path / version),
            ])
        assert codes == {"v1": 1, "v2": 0}
        report = json.loads((tmp_path / "v2" / "report.json").read_text())
        assert report["peak_alloc_bytes"] <= cap

    @pytest.mark.skipif(not blocked._CAN_RELEASE, reason="needs MADV_DONTNEED")
    def test_memory_cap_charges_a_chunk_of_bounded_bytes(self, tmp_path):
        # 2100 x 4001 (67 MB): a chunk is 1048 rows (33.5 MB), where a
        # 4096-row chunk was the whole file, so a cap between the two holds
        from rdmd import cli

        write_sms(normal_matrix(2100, 4001, seed=51), tmp_path / "x.sms")
        cap = 48 * 2**20
        assert cli.main([
            "decompose", "--input", str(tmp_path / "x.sms"), "--method", "rdmd",
            "--rank", "5", "--memory-cap", str(cap), "--seed", "52",
            "--out", str(tmp_path / "o"),
        ]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert 1048 * 4001 * 8 <= report["peak_alloc_bytes"] <= cap

    @linux_only
    def test_qb_peak_rss_is_far_below_the_file(self, tmp_path):
        # `rdmd qb` sketches the file as a one-block source and walks it in
        # released chunks for the error and sigma_{k+1}, as `decompose` does;
        # a larger file than above, since a chunk's QR copy and LAPACK's
        # buffers add a fixed ~15 MB
        x = normal_matrix(60000, 200, seed=33)  # 96 MB
        path = tmp_path / "x.sms"
        write_sms(x, path)
        del x
        imported = child_peak_rss("-c", "import rdmd.cli")
        run = child_peak_rss(
            "-m", "rdmd", "qb", "--input", str(path), "--rank", "5", "--seed", "34",
        )
        assert run - imported <= 0.5 * os.path.getsize(path)

    def test_without_page_release_only_a_one_block_read_is_mapped(
        self, tmp_path, monkeypatch
    ):
        # where MADV_DONTNEED is missing, a mapped block could not be
        # released, so several blocks are copied; one block is the whole
        # file either way, so `read_sms` still maps it
        monkeypatch.setattr(blocked, "_CAN_RELEASE", False)
        x = normal_matrix(12, 5, seed=24)
        path = tmp_path / "x.sms"
        write_sms(x, path)
        whole = read_sms(path)
        assert not whole.flags.writeable and not whole.flags.owndata
        with open_row_blocks(path, 2) as src:
            blocks = [src.read_block(i) for i in range(2)]
        assert all(b.flags.writeable and b.flags.owndata for b in blocks)
        assert np.array_equal(whole, x) and np.array_equal(np.vstack(blocks), x)

    def test_version_1_and_2_blocked_runs_agree_bitwise(self, tmp_path):
        x = normal_matrix(300, 40, seed=22)
        write_v1_sms(tmp_path / "v1.sms", x)
        write_sms(x, tmp_path / "v2.sms")
        cfg = DmdConfig(target_rank=4, method="randomized", oversampling=4, power_iters=2, seed=23)
        results = []
        for name in ("v1.sms", "v2.sms"):
            with open_row_blocks(tmp_path / name, 3) as src:
                results.append(dmd_randomized(src, cfg))
        v1, v2 = results
        for field in ("eigenvalues", "modes", "amplitudes"):
            assert getattr(v1, field).tobytes() == getattr(v2, field).tobytes()
        assert v1.sketch.data.tobytes() == v2.sketch.data.tobytes()


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

    def test_complex_matrix_keeps_the_sign_of_a_zero_part(self, tmp_path):
        w = np.array(
            [[complex(1.0, -0.0), complex(-0.0, 2.0)], [complex(-0.0, -0.0), complex(3.0, 0.0)]]
        )
        write_complex_matrix(tmp_path, "modes", w)
        assert read_complex_matrix(tmp_path, "modes").tobytes() == w.tobytes()

    def test_complex_matrix_read_holds_only_the_result(self, tmp_path):
        # the parts are mapped, which tracemalloc does not see; a complex
        # temporary such as re + 1j * im would double the peak
        import tracemalloc

        n, k = 10 * chunk_rows(5 * 8) + 3, 5
        write_complex_matrix(
            tmp_path, "modes", normal_matrix(n, k, seed=24) + 1j * normal_matrix(n, k, seed=25)
        )
        tracemalloc.start()
        try:
            got = read_complex_matrix(tmp_path, "modes")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * got.nbytes

    def test_complex_matrix_read_releases_each_chunk_of_the_parts(self, tmp_path, monkeypatch):
        # each part file is copied a row chunk at a time and the chunk's
        # mapped pages dropped, so the two files are never resident beside
        # the result
        k = 5
        step = chunk_rows(k * 8)
        n = 2 * step + 3
        w = normal_matrix(n, k, seed=26) + 1j * normal_matrix(n, k, seed=27)
        write_complex_matrix(tmp_path, "modes", w)
        released = []
        inner = datasets.SmsRowBlockSource.release_rows

        def spy(self, start, count):
            released.append((start, count))
            inner(self, start, count)

        monkeypatch.setattr(datasets.SmsRowBlockSource, "release_rows", spy)
        assert read_complex_matrix(tmp_path, "modes").tobytes() == w.tobytes()
        # each part's chunks in turn, then each file's whole block as it closes
        chunks = [(0, step), (step, step), (2 * step, 3)]
        assert released == 2 * chunks + 2 * [(0, n)]

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

    @pytest.mark.parametrize(
        "error", [NonFiniteInput("row 7 is nan", row=7), KeyboardInterrupt()],
        ids=["NonFiniteInput", "KeyboardInterrupt"],
    )
    def test_a_chunk_source_raising_partway_leaves_no_temp(self, tmp_path, error):
        def chunks():
            yield np.zeros(4096)
            raise error

        with pytest.raises(type(error)) as raised:
            write_atomic(tmp_path / "x.bin", b"header", chunks())
        assert raised.value is error
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_row_in_a_later_chunk_leaves_no_temp(self, tmp_path):
        bad = 2 * chunk_rows(4 * 8) + 5
        x = normal_matrix(bad + 100, 4, seed=20)
        x[bad, 3] = np.inf
        with pytest.raises(NonFiniteInput, match=f"row {bad}, column 3 is inf"):
            write_sms(x, tmp_path / "x.sms")
        assert list(tmp_path.iterdir()) == []

    def test_sms_rows_must_add_up_to_the_shape(self, tmp_path):
        from rdmd.datasets import write_sms_rows

        x = normal_matrix(10, 3, seed=21)
        for blocks in ([x[:4], x[4:8]], [x, x[:1]], [x[:, :2]]):
            with pytest.raises(ShapeMismatch):
                write_sms_rows(tmp_path / "x.sms", x.shape, iter(blocks))
        assert list(tmp_path.iterdir()) == []
        write_sms_rows(tmp_path / "x.sms", x.shape, iter([x[:4], x[4:]]))
        assert read_sms(tmp_path / "x.sms").tobytes() == x.tobytes()

    def test_complex_matrix_parts_are_written_without_a_whole_copy(self, tmp_path):
        # modes.real and modes.imag are strided views: each is written a
        # row chunk at a time, not through an n x k contiguous copy
        import tracemalloc

        k = 5
        step = chunk_rows(k * 8)
        n = 10 * step + 3
        w = normal_matrix(n, k, seed=22) + 1j * normal_matrix(n, k, seed=23)
        tracemalloc.start()
        try:
            write_complex_matrix(tmp_path, "modes", w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * step * k * 8  # a whole part would be 10 chunks
        for part, values in (("re", w.real), ("im", w.imag)):
            raw = (tmp_path / f"modes_{part}.sms").read_bytes()
            assert raw[SMS_HEADER_BYTES:] == np.ascontiguousarray(values).tobytes()
