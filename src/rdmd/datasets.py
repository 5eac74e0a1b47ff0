"""Synthetic linear-dynamics data, noise injection, and the SMS file format.

SMS ("snapshot matrix store") layout, fixed little-endian regardless of
host byte order:

    offset  size  field
    0       4     magic  b"RDMD"
    4       4     format version (uint32), currently 1
    8       8     rows (uint64)
    16      8     cols (uint64)
    24      4     dtype code (uint32), 1 = float64
    28      -     payload: rows*cols float64 values, row-major

Row-major payloads make a contiguous range of rows a contiguous range of
bytes, which is what the blocked out-of-core reader relies on.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import memguard
from .blocked import partition_rows
from .errors import (
    BadMagic,
    IoFailure,
    ShapeMismatch,
    TooManyModes,
    TruncatedPayload,
    UnsupportedVersion,
)
from .linalg import _as_matrix, _real_product
from .rng import CounterStream, derive_seed, normals

SMS_MAGIC = b"RDMD"
SMS_VERSION = 1
SMS_DTYPE_F64 = 1
_HEADER = struct.Struct("<4sIQQI")
SMS_HEADER_BYTES = _HEADER.size  # 28


@dataclass(frozen=True)
class ModeSpec:
    """One requested mode of the synthetic dynamics.

    A non-real eigenvalue implies its conjugate partner (added
    automatically with conjugated amplitude and profile) so the generated
    snapshots are real. Real eigenvalues keep only the real part of the
    requested amplitude for the same reason.

    profile: "smooth" draws a seeded low-frequency random field,
    "harmonic" uses a fixed sinusoid at `frequency` cycles across the
    state vector (complex modes get the traveling-wave form e^{2*pi*i*f*t}).
    """

    eigenvalue: complex
    amplitude: complex = 1.0 + 0.0j
    profile: str = "smooth"
    frequency: float | None = None

    def __post_init__(self):
        if self.profile not in ("smooth", "harmonic"):
            raise ValueError(f"unknown profile kind {self.profile!r}")
        if self.profile == "harmonic" and self.frequency is None:
            raise ValueError("harmonic profile needs a frequency")


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth behind a generated snapshot sequence."""

    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    clean_data: np.ndarray


def _smooth_field(n: int, stream: CounterStream, harmonics: int = 8) -> np.ndarray:
    """Random smooth profile: low-frequency Fourier series with 1/f decay."""
    t = np.arange(n) / n
    coeffs = stream.normals(2 * harmonics)
    field = np.zeros(n)
    for f in range(1, harmonics + 1):
        a, b = coeffs[2 * f - 2], coeffs[2 * f - 1]
        field += (a * np.cos(2.0 * np.pi * f * t) + b * np.sin(2.0 * np.pi * f * t)) / f
    return field


def _mode_profile(n: int, spec: ModeSpec, is_complex: bool, stream: CounterStream):
    if spec.profile == "harmonic":
        t = (np.arange(n) + 0.5) / n
        phase = 2.0 * np.pi * spec.frequency * t
        if is_complex:
            return np.cos(phase) + 1j * np.sin(phase)
        return np.sin(phase)
    if is_complex:
        return _smooth_field(n, stream) + 1j * _smooth_field(n, stream)
    return _smooth_field(n, stream)


def synth_linear_dynamics(
    n: int, m: int, specs: list[ModeSpec], seed: int
) -> SyntheticTruth:
    """Generate an n x (m+1) real snapshot sequence with a known spectrum.

    Column j is exactly Re(modes @ diag(eigenvalues**j) @ amplitudes), so the
    sequence evolves under a rank-r linear propagator whose eigenpairs are
    the returned truth. Profiles are redrawn (deterministically) if the mode
    matrix comes out near-collinear.
    """
    if not specs:
        raise TooManyModes("need at least one mode spec")
    count = sum(1 if abs(s.eigenvalue.imag) == 0 else 2 for s in specs)
    if count > min(n, m):
        raise TooManyModes(
            f"{count} modes after conjugate completion exceed min(n, m) = {min(n, m)}"
        )

    eigenvalues = []
    amplitudes = []
    for s in specs:
        lam = complex(s.eigenvalue)
        if lam.imag == 0:
            eigenvalues.append(lam)
            amplitudes.append(complex(s.amplitude.real, 0.0))
        else:
            eigenvalues.extend([lam, lam.conjugate()])
            amplitudes.extend([complex(s.amplitude), complex(s.amplitude).conjugate()])
    eigenvalues = np.array(eigenvalues, dtype=np.complex128)
    amplitudes = np.array(amplitudes, dtype=np.complex128)

    stream = CounterStream(derive_seed(seed, 1))
    for _attempt in range(64):
        columns = []
        for s in specs:
            is_complex = abs(complex(s.eigenvalue).imag) != 0
            phi = _mode_profile(n, s, is_complex, stream)
            nrm = np.linalg.norm(phi)
            if nrm == 0:
                continue
            phi = phi / nrm
            columns.append(phi.astype(np.complex128))
            if is_complex:
                columns.append(phi.conjugate())
        if len(columns) == count:
            modes = np.column_stack(columns)
            if np.linalg.svd(modes, compute_uv=False)[-1] >= 1e-6:
                break
    else:
        raise TooManyModes("could not draw linearly independent mode profiles")

    powers = eigenvalues[:, None] ** np.arange(m + 1)[None, :]
    memguard.note(n * (m + 1) * 8)
    # _real_product returns a fresh row-major array, as the data contract needs
    clean = _real_product(modes, amplitudes[:, None] * powers)
    return SyntheticTruth(
        eigenvalues=eigenvalues,
        modes=modes,
        amplitudes=amplitudes,
        clean_data=clean,
    )


def add_noise(x, snr: float, seed: int) -> np.ndarray:
    """Additive white Gaussian noise at the given signal-to-noise ratio.

    SNR is the variance ratio var(X)/var(E): noise entries are i.i.d.
    N(0, var(X)/snr) with var(X) the elementwise variance of the data.
    """
    a = _as_matrix(x)
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    sigma = np.sqrt(np.var(a) / snr)
    memguard.note(a.size * 8)
    # built in place in the noise buffer, the one n x m array this allocates
    noisy = normals(seed, 0, a.size).reshape(a.shape)
    noisy *= sigma
    noisy += a
    return noisy


# --- SMS read/write ---------------------------------------------------------


def write_atomic(path, *chunks) -> None:
    """Write the chunks (bytes, or C-contiguous arrays, written from their
    own buffer) to `path` through `<path>.tmp.<pid>` and a rename, so no
    reader sees a partial file. On any OSError the temp file is removed and
    IoFailure raised."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise IoFailure(f"writing {path}: {exc}") from exc


def write_sms(x, path) -> None:
    """Write a matrix to `path` in SMS format (atomic: temp file + rename)."""
    a = np.ascontiguousarray(_as_matrix(x), dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("refusing to write non-finite values")
    header = _HEADER.pack(SMS_MAGIC, SMS_VERSION, a.shape[0], a.shape[1], SMS_DTYPE_F64)
    # the array's own buffer is written: no bytes copy of the payload
    write_atomic(path, header, a.astype("<f8", copy=False))


def _read_header(fh, path) -> tuple[int, int]:
    """(rows, cols) of an SMS file open at offset 0, read and validated. The
    file must hold the payload the header claims, so no reader allocates
    for a size that is not there."""
    raw = fh.read(SMS_HEADER_BYTES)
    if len(raw) < SMS_HEADER_BYTES:
        raise TruncatedPayload(f"{path}: file shorter than the {SMS_HEADER_BYTES}-byte header")
    magic, version, rows, cols, dtype_code = _HEADER.unpack(raw)
    if magic != SMS_MAGIC:
        raise BadMagic(f"{path}: bad magic {magic!r}")
    if version != SMS_VERSION:
        raise UnsupportedVersion(f"{path}: version {version}, expected {SMS_VERSION}")
    if dtype_code != SMS_DTYPE_F64:
        raise UnsupportedVersion(f"{path}: dtype code {dtype_code}, expected {SMS_DTYPE_F64}")
    size = os.fstat(fh.fileno()).st_size
    expected = SMS_HEADER_BYTES + rows * cols * 8
    if size < expected:
        raise TruncatedPayload(f"{path}: {size} bytes, expected {expected}")
    return rows, cols


def _read_payload(fh, rows: int, cols: int, what: str) -> np.ndarray:
    """Read rows x cols little-endian float64 values at the handle's position
    straight into one new array (no intermediate bytes object). `what`
    names the file or block in error messages."""
    nbytes = rows * cols * 8
    memguard.note(nbytes)
    data = np.empty((rows, cols), dtype="<f8")
    try:
        got = fh.readinto(data)
    except OSError as exc:
        raise IoFailure(f"reading {what}: {exc}") from exc
    if got < nbytes:
        raise TruncatedPayload(f"{what}: payload is {got} bytes, expected {nbytes}")
    # a no-op on little-endian hosts; a byte-swapping copy elsewhere
    return data.astype(np.float64, copy=False)


def read_sms(path) -> np.ndarray:
    """Read a whole SMS file into memory."""
    try:
        with open(path, "rb") as fh:
            rows, cols = _read_header(fh, path)
            return _read_payload(fh, rows, cols, str(path))
    except OSError as exc:
        raise IoFailure(f"reading {path}: {exc}") from exc


# --- row-block sources ------------------------------------------------------


class ArrayRowBlockSource:
    """Row-block view over an in-memory matrix: its single-block run is the
    in-memory randomized path. Blocks are views in the matrix's own memory
    order, so a Fortran-ordered matrix is not copied."""

    def __init__(self, x, block_count: int):
        self._x = _as_matrix(x)
        self.rows, self.cols = self._x.shape
        self.block_count = block_count
        self.block_ranges = partition_rows(self.rows, block_count)

    def read_block(self, i: int) -> np.ndarray:
        start, count = self.block_ranges[i]
        return self._x[start : start + count]


class SmsRowBlockSource:
    """Sequential row-block reader over an SMS file.

    Each block is one contiguous byte range, readable in any order and
    repeatedly. The handle is single-consumer (one seek/read at a time).
    """

    def __init__(self, path, block_count: int):
        self._path = path
        try:
            with contextlib.ExitStack() as on_error:
                self._fh = on_error.enter_context(open(path, "rb"))
                self.rows, self.cols = _read_header(self._fh, path)
                on_error.pop_all()  # header accepted: close() owns the handle
        except OSError as exc:
            raise IoFailure(f"opening {path}: {exc}") from exc
        self.block_count = block_count
        self.block_ranges = partition_rows(self.rows, block_count)

    def read_block(self, i: int) -> np.ndarray:
        start, count = self.block_ranges[i]
        what = f"block {i} of {self._path}"
        try:
            self._fh.seek(SMS_HEADER_BYTES + start * self.cols * 8)
        except OSError as exc:
            raise IoFailure(f"reading {what}: {exc}") from exc
        return _read_payload(self._fh, count, self.cols, what)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def open_row_blocks(path, block_count: int) -> SmsRowBlockSource:
    """Open an SMS file for blocked row streaming."""
    return SmsRowBlockSource(path, block_count)


# --- CSV / complex-matrix exporters ----------------------------------------


def write_complex_csv(path, values) -> None:
    """One `re,im` row per value, 17 significant digits (float64 round-trip)."""
    v = np.asarray(values, dtype=np.complex128).ravel()
    rows = "".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in v)
    write_atomic(path, f"re,im\n{rows}".encode("utf-8"))


def read_complex_csv(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
    except OSError as exc:
        raise IoFailure(f"reading {path}: {exc}") from exc
    if not lines or lines[0].strip() != "re,im":
        raise IoFailure(f"{path}: expected a 're,im' header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            re_s, im_s = line.split(",")
            out.append(complex(float(re_s), float(im_s)))
        except ValueError as exc:
            raise IoFailure(f"{path}, line {lineno}: malformed value {line!r}") from exc
    return np.array(out, dtype=np.complex128)


def write_complex_matrix(directory, base: str, w) -> None:
    """Complex matrix as two SMS files: <base>_re.sms and <base>_im.sms."""
    w = np.asarray(w, dtype=np.complex128)
    write_sms(w.real, os.path.join(directory, f"{base}_re.sms"))
    write_sms(w.imag, os.path.join(directory, f"{base}_im.sms"))


def read_complex_matrix(directory, base: str) -> np.ndarray:
    re_part = read_sms(os.path.join(directory, f"{base}_re.sms"))
    im_part = read_sms(os.path.join(directory, f"{base}_im.sms"))
    if re_part.shape != im_part.shape:
        raise ShapeMismatch(
            f"{base}_re.sms {re_part.shape} != {base}_im.sms {im_part.shape}"
        )
    return re_part + 1j * im_part
